#include "util/bytes.h"

#include <bit>
#include <cstring>

namespace hetero {
namespace {

std::uint64_t get_le(const std::uint8_t* p, std::size_t n) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

bool ByteReader::take(void* dst, std::size_t n) {
  if (!ok_ || n > len_ - off_) {
    ok_ = false;
    std::memset(dst, 0, n);
    return false;
  }
  std::memcpy(dst, p_ + off_, n);
  off_ += n;
  return true;
}

std::uint8_t ByteReader::u8() {
  std::uint8_t b = 0;
  take(&b, 1);
  return b;
}

std::uint16_t ByteReader::u16() {
  std::uint8_t b[2] = {};
  take(b, 2);
  return static_cast<std::uint16_t>(get_le(b, 2));
}

std::uint32_t ByteReader::u32() {
  std::uint8_t b[4] = {};
  take(b, 4);
  return static_cast<std::uint32_t>(get_le(b, 4));
}

std::uint64_t ByteReader::u64() {
  std::uint8_t b[8] = {};
  take(b, 8);
  return get_le(b, 8);
}

float ByteReader::f32() { return std::bit_cast<float>(u32()); }

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

void ByteReader::bytes(void* dst, std::size_t n) { take(dst, n); }

void ByteWriter::le(std::uint64_t v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::u8(std::uint8_t v) { buf_.push_back(v); }

void ByteWriter::u16(std::uint16_t v) { le(v, 2); }

void ByteWriter::u32(std::uint32_t v) { le(v, 4); }

void ByteWriter::u64(std::uint64_t v) { le(v, 8); }

void ByteWriter::f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::bytes(const void* src, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(src);
  buf_.insert(buf_.end(), p, p + n);
}

}  // namespace hetero

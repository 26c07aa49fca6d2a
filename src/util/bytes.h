// The project's one little-endian byte codec: wire frames and their payloads
// (net/wire.h, net/protocol.h) and HSCK checkpoint files (fl/checkpoint.h)
// are all written by ByteWriter and read by ByteReader.
//
// Integers are little-endian; f32/f64 travel as their raw IEEE bit
// patterns, so numeric fields round-trip bit-exactly. The reader never
// touches memory outside its buffer: a read past the end sets a sticky
// failure flag and yields zeros, and decoders check ok() once at the end.
// Before allocating for a length read from the input, a decoder bounds it
// by remaining() or by a fixed cap.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hetero {

// Tensor data moves through bytes() as host-order f32 words in one copy,
// which is the little-endian layout only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "the byte codec copies f32 arrays in host byte order");

/// Bounds-checked little-endian reader over a byte buffer it does not own.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t len)
      : p_(data), len_(len) {}
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  float f32();
  double f64();
  /// Copies n raw bytes; zero-fills dst on overrun.
  void bytes(void* dst, std::size_t n);

  bool ok() const { return ok_; }
  std::size_t remaining() const { return len_ - off_; }

 private:
  bool take(void* dst, std::size_t n);

  const std::uint8_t* p_;
  std::size_t len_;
  std::size_t off_ = 0;
  bool ok_ = true;
};

/// Appends little-endian fields to a growable buffer; the writing twin of
/// ByteReader.
class ByteWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f32(float v);
  void f64(double v);
  void bytes(const void* src, std::size_t n);
  void reserve(std::size_t n) { buf_.reserve(n); }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  void le(std::uint64_t v, std::size_t n);

  std::vector<std::uint8_t> buf_;
};

}  // namespace hetero

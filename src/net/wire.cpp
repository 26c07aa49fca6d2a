#include "net/wire.h"

#include <bit>

namespace hetero::net {
namespace {

void put_le(std::vector<std::uint8_t>& buf, std::uint64_t v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint64_t get_le(const std::uint8_t* p, std::size_t n) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

const char* frame_type_name(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "hello";
    case FrameType::kHelloAck: return "hello_ack";
    case FrameType::kRoundConfig: return "round_config";
    case FrameType::kModelPull: return "model_pull";
    case FrameType::kModelState: return "model_state";
    case FrameType::kUpdatePush: return "update_push";
    case FrameType::kDigest: return "digest";
    case FrameType::kBye: return "bye";
  }
  return "unknown";
}

const char* parse_error_name(ParseError error) {
  switch (error) {
    case ParseError::kNone: return "none";
    case ParseError::kBadMagic: return "bad_magic";
    case ParseError::kBadVersion: return "bad_version";
    case ParseError::kBadReserved: return "bad_reserved";
    case ParseError::kOversized: return "oversized";
    case ParseError::kBadCrc: return "bad_crc";
    case ParseError::kBadSeq: return "bad_seq";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_frame(
    FrameType type, std::uint64_t run, std::uint64_t seq,
    const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  put_le(frame, kFrameMagic, 4);
  frame.push_back(kWireVersion);
  frame.push_back(static_cast<std::uint8_t>(type));
  put_le(frame, 0, 2);  // reserved
  put_le(frame, run, 8);
  put_le(frame, seq, 8);
  put_le(frame, static_cast<std::uint64_t>(payload.size()), 4);
  // CRC over header-after-magic [4, 28) then the payload, so any single
  // corrupted bit — header or body — fails the check.
  std::uint32_t crc = crc32(frame.data() + 4, 24);
  crc = crc32(payload.data(), payload.size(), crc);
  put_le(frame, crc, 4);
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

void FrameParser::fail(ParseError error) {
  error_ = error;
  buf_.clear();
  off_ = 0;
}

void FrameParser::feed(const std::uint8_t* data, std::size_t len) {
  if (quarantined()) return;
  // Compact the consumed prefix before growing — the buffer never holds
  // more than one partial frame plus whatever feed() just delivered.
  if (off_ > 0) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(off_));
    off_ = 0;
  }
  buf_.insert(buf_.end(), data, data + len);
}

bool FrameParser::next(Frame& out) {
  if (quarantined()) return false;
  if (buffered() < kFrameHeaderSize) return false;
  const std::uint8_t* h = buf_.data() + off_;
  FrameHeader header;
  header.magic = static_cast<std::uint32_t>(get_le(h, 4));
  header.version = h[4];
  header.type = h[5];
  header.reserved = static_cast<std::uint16_t>(get_le(h + 6, 2));
  header.run = get_le(h + 8, 8);
  header.seq = get_le(h + 16, 8);
  header.payload_len = static_cast<std::uint32_t>(get_le(h + 24, 4));
  header.crc = static_cast<std::uint32_t>(get_le(h + 28, 4));

  // Validate every header field before trusting payload_len for indexing.
  if (header.magic != kFrameMagic) {
    fail(ParseError::kBadMagic);
    return false;
  }
  if (header.version != kWireVersion) {
    fail(ParseError::kBadVersion);
    return false;
  }
  if (header.reserved != 0) {
    fail(ParseError::kBadReserved);
    return false;
  }
  if (header.payload_len > max_payload_) {
    fail(ParseError::kOversized);
    return false;
  }
  if (buffered() < kFrameHeaderSize + header.payload_len) {
    return false;  // wait for the rest of the payload
  }
  const std::uint8_t* body = h + kFrameHeaderSize;
  std::uint32_t crc = crc32(h + 4, 24);
  crc = crc32(body, header.payload_len, crc);
  if (crc != header.crc) {
    fail(ParseError::kBadCrc);
    return false;
  }
  if (header.seq != expected_seq_) {
    fail(ParseError::kBadSeq);
    return false;
  }
  ++expected_seq_;
  out.header = header;
  out.payload.assign(body, body + header.payload_len);
  off_ += kFrameHeaderSize + header.payload_len;
  return true;
}

bool WireReader::take(void* dst, std::size_t n) {
  if (!ok_ || n > len_ - off_) {
    ok_ = false;
    std::memset(dst, 0, n);
    return false;
  }
  std::memcpy(dst, p_ + off_, n);
  off_ += n;
  return true;
}

std::uint8_t WireReader::u8() {
  std::uint8_t b = 0;
  take(&b, 1);
  return b;
}

std::uint16_t WireReader::u16() {
  std::uint8_t b[2] = {};
  take(b, 2);
  return static_cast<std::uint16_t>(get_le(b, 2));
}

std::uint32_t WireReader::u32() {
  std::uint8_t b[4] = {};
  take(b, 4);
  return static_cast<std::uint32_t>(get_le(b, 4));
}

std::uint64_t WireReader::u64() {
  std::uint8_t b[8] = {};
  take(b, 8);
  return get_le(b, 8);
}

float WireReader::f32() { return std::bit_cast<float>(u32()); }

double WireReader::f64() { return std::bit_cast<double>(u64()); }

void WireReader::bytes(void* dst, std::size_t n) { take(dst, n); }

void WireWriter::u8(std::uint8_t v) { buf_.push_back(v); }

void WireWriter::u16(std::uint16_t v) { put_le(buf_, v, 2); }

void WireWriter::u32(std::uint32_t v) { put_le(buf_, v, 4); }

void WireWriter::u64(std::uint64_t v) { put_le(buf_, v, 8); }

void WireWriter::f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }

void WireWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void WireWriter::bytes(const void* src, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(src);
  buf_.insert(buf_.end(), p, p + n);
}

}  // namespace hetero::net

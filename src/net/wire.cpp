#include "net/wire.h"

#include "util/bytes.h"
#include "util/crc32.h"

namespace hetero::net {

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
  ByteWriter w;
  w.reserve(kFrameHeaderSize + payload.size());
  w.u32(kFrameMagic);
  w.u8(kWireVersion);
  w.u8(static_cast<std::uint8_t>(type));
  w.u16(0);  // reserved
  w.u64(run);
  w.u64(seq);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  // CRC over header-after-magic [4, 28) then the payload, so any single
  // corrupted bit — header or body — fails the check.
  std::uint32_t crc = crc32(w.data().data() + 4, 24);
  crc = crc32(payload.data(), payload.size(), crc);
  w.u32(crc);
  w.bytes(payload.data(), payload.size());
  return w.take();
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
  ByteReader r(h, kFrameHeaderSize);
  FrameHeader header;
  header.magic = r.u32();
  header.version = r.u8();
  header.type = r.u8();
  header.reserved = r.u16();
  header.run = r.u64();
  header.seq = r.u64();
  header.payload_len = r.u32();
  header.crc = r.u32();

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

}  // namespace hetero::net

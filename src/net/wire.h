// Binary wire framing for the FL server daemon (DESIGN.md §14).
//
// Every message travels as one length-prefixed frame:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------
//        0     4  magic 'HSNF' (0x48534E46, little-endian on the wire)
//        4     1  wire version (kWireVersion)
//        5     1  frame type (FrameType)
//        6     2  reserved, must be 0
//        8     8  run id    — the Tracer's run/seq framing discipline:
//       16     8  seq       — strictly increasing from 0 per direction,
//                             so reordering / replay is detectable
//       24     4  payload length in bytes (bounded by max_payload)
//       28     4  CRC32 (IEEE) over bytes [4, 28) plus the payload
//       32     n  payload
//
// All integers are little-endian; f32/f64 travel as their raw IEEE bit
// patterns, so numeric payloads round-trip bit-exactly. Headers and
// payloads go through util/bytes.h, the codec checkpoint files use too.
//
// FrameParser is an incremental bounds-checked decoder: feed() raw bytes,
// next() yields complete validated frames. Any malformed input — bad magic,
// unknown version, oversized length, CRC mismatch, seq break — quarantines
// the parser permanently (the connection is poisoned; counted in
// NetCounters::frames_bad / conns_quarantined). No input can index out of
// bounds: header fields are only trusted after validation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hetero::net {

constexpr std::uint32_t kFrameMagic = 0x48534E46u;  // "HSNF"
constexpr std::uint8_t kWireVersion = 1;
constexpr std::size_t kFrameHeaderSize = 32;
/// Default per-frame payload bound; override with HS_NET "maxframe=BYTES".
constexpr std::size_t kDefaultMaxPayload = 64u << 20;

enum class FrameType : std::uint8_t {
  kHello = 1,        ///< downstream node introduces itself (role, index)
  kHelloAck = 2,     ///< server accepts; carries run shape
  kRoundConfig = 3,  ///< round id + RNG state + client assignment
  kModelPull = 4,    ///< request for the round-start global state
  kModelState = 5,   ///< the global state tensor
  kUpdatePush = 6,   ///< one client's ClientUpdate
  kDigest = 7,       ///< edge tier: partial aggregate + per-client metas
  kBye = 8,          ///< run complete; close after sending
};

const char* frame_type_name(FrameType type);

struct FrameHeader {
  std::uint32_t magic = 0;
  std::uint8_t version = 0;
  std::uint8_t type = 0;
  std::uint16_t reserved = 0;
  std::uint64_t run = 0;
  std::uint64_t seq = 0;
  std::uint32_t payload_len = 0;
  std::uint32_t crc = 0;
};

struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

/// Builds one complete frame (header + CRC + payload) ready to write.
std::vector<std::uint8_t> encode_frame(FrameType type, std::uint64_t run,
                                       std::uint64_t seq,
                                       const std::vector<std::uint8_t>& payload);

/// Per-transport traffic and failure counters. Aggregated by the loopback
/// hub / event loop; surfaced as net.* trace extras when enabled.
struct NetCounters {
  std::uint64_t frames_tx = 0;
  std::uint64_t frames_rx = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t bytes_rx = 0;
  std::uint64_t frames_bad = 0;         ///< frames rejected by a parser
  std::uint64_t conns_quarantined = 0;  ///< connections poisoned + dropped
};

enum class ParseError : std::uint8_t {
  kNone = 0,
  kBadMagic,
  kBadVersion,
  kBadReserved,
  kOversized,
  kBadCrc,
  kBadSeq,
};

const char* parse_error_name(ParseError error);

/// Incremental frame decoder for one direction of one connection.
class FrameParser {
 public:
  explicit FrameParser(std::size_t max_payload = kDefaultMaxPayload)
      : max_payload_(max_payload) {}

  /// Appends raw transport bytes. Ignored once quarantined.
  void feed(const std::uint8_t* data, std::size_t len);

  /// Extracts the next complete valid frame into `out`. Returns false when
  /// no complete frame is buffered or the parser is quarantined; check
  /// error() to distinguish. The first malformed frame quarantines the
  /// parser: buffered and future input is discarded.
  bool next(Frame& out);

  bool quarantined() const { return error_ != ParseError::kNone; }
  ParseError error() const { return error_; }
  /// Bytes buffered but not yet consumed as frames.
  std::size_t buffered() const { return buf_.size() - off_; }

 private:
  void fail(ParseError error);

  std::vector<std::uint8_t> buf_;
  std::size_t off_ = 0;  // consumed prefix of buf_
  std::uint64_t expected_seq_ = 0;
  ParseError error_ = ParseError::kNone;
  std::size_t max_payload_;
};

}  // namespace hetero::net

// Message schemas carried by the wire frames (net/wire.h).
//
// One struct + encode/decode pair per FrameType, over the util/bytes.h
// codec. Decoders run over a ByteReader and return false on any
// truncation, trailing garbage, or invalid field — never throwing, never
// reading out of bounds — so a malformed but CRC-valid payload degrades
// into a clean rejection.
//
// Tensors travel with a 1-byte mode tag: dense (raw f32 stream) or sparse
// ((u32 index, f32 value) pairs — the SparseUpdate layout from
// fl/compression). The encoder picks sparse only when it is smaller AND
// lossless (every omitted coordinate is exactly 0.0f, including -0.0f),
// so compressed algorithms' sparse post-densify states shrink on the wire
// while decode always reconstructs bit-identical tensors.
#pragma once

#include <cstdint>
#include <vector>

#include "fl/algorithm.h"
#include "net/wire.h"
#include "runtime/sched/remote_step.h"
#include "tensor/tensor.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace hetero::net {

enum class NodeRole : std::uint8_t {
  kWorker = 1,
  kEdge = 2,
};

struct HelloMsg {
  NodeRole role = NodeRole::kWorker;
  std::uint64_t node_index = 0;  ///< stable downstream slot, not accept order
};

struct HelloAckMsg {
  std::uint64_t node_index = 0;
  std::uint64_t rounds = 0;  ///< total rounds this run will drive
};

/// One wave's work assignment for a downstream node: its slice of the
/// wave's trainable clients, each with the training stream and corrupt
/// decision the scheduler fixed at dispatch, so workers reproduce (and
/// poison) every update before an edge validates it.
struct RoundConfigMsg {
  std::uint64_t round = 0;        ///< wave index
  std::uint64_t n_selected = 0;  ///< full wave size K
  std::vector<RemoteClient> clients;  ///< ascending wave positions
};

struct ModelPullMsg {
  std::uint64_t round = 0;
};

struct ModelStateMsg {
  std::uint64_t round = 0;
  Tensor state;
};

struct UpdatePushMsg {
  std::uint64_t round = 0;
  std::uint64_t position = 0;  ///< index into the round's `selected` list
  ClientUpdate update;
};

/// Scalar view of one client's update forwarded by an edge so the root can
/// emit exact client_end events and fold the flat round summary without the
/// state tensors (which stay folded into the digest).
struct WireUpdateMeta {
  std::uint64_t client_id = 0;
  std::uint64_t position = 0;
  double weight = 0.0;
  double train_loss = 0.0;
  std::uint32_t flags = 0;
  std::uint8_t quarantined = 0;  ///< failed validate_update at the edge
  std::uint64_t update_bytes = 0;  ///< resolved update_payload_bytes
  double train_seconds = 0.0;
};

struct DigestMsg {
  std::uint64_t round = 0;
  std::uint64_t edge_index = 0;
  std::uint8_t has_digest = 0;  ///< 0 when every client was quarantined
  ClientUpdate digest;
  std::vector<WireUpdateMeta> metas;  ///< this edge's block, position order
};

struct ByeMsg {
  std::uint64_t rounds_done = 0;
};

// Tensor / ClientUpdate codecs, shared by the messages above.
void put_tensor(ByteWriter& w, const Tensor& t);
bool get_tensor(ByteReader& r, Tensor& out);
void put_update(ByteWriter& w, const ClientUpdate& u);
bool get_update(ByteReader& r, ClientUpdate& out);

std::vector<std::uint8_t> encode_hello(const HelloMsg& m);
bool decode_hello(const std::vector<std::uint8_t>& payload, HelloMsg& out);
std::vector<std::uint8_t> encode_hello_ack(const HelloAckMsg& m);
bool decode_hello_ack(const std::vector<std::uint8_t>& payload,
                      HelloAckMsg& out);
std::vector<std::uint8_t> encode_round_config(const RoundConfigMsg& m);
bool decode_round_config(const std::vector<std::uint8_t>& payload,
                         RoundConfigMsg& out);
std::vector<std::uint8_t> encode_model_pull(const ModelPullMsg& m);
bool decode_model_pull(const std::vector<std::uint8_t>& payload,
                       ModelPullMsg& out);
std::vector<std::uint8_t> encode_model_state(const ModelStateMsg& m);
bool decode_model_state(const std::vector<std::uint8_t>& payload,
                        ModelStateMsg& out);
std::vector<std::uint8_t> encode_update_push(const UpdatePushMsg& m);
bool decode_update_push(const std::vector<std::uint8_t>& payload,
                        UpdatePushMsg& out);
std::vector<std::uint8_t> encode_digest(const DigestMsg& m);
bool decode_digest(const std::vector<std::uint8_t>& payload, DigestMsg& out);
std::vector<std::uint8_t> encode_bye(const ByeMsg& m);
bool decode_bye(const std::vector<std::uint8_t>& payload, ByeMsg& out);

}  // namespace hetero::net

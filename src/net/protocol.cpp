#include "net/protocol.h"

#include <bit>

namespace hetero::net {
namespace {

/// Hard cap on decoded tensor volume (elements), dense or sparse: no more
/// than a default-bounded frame holds as dense f32s. The bytes present
/// bound a dense payload; this bound also stops a tiny *sparse* payload from
/// claiming huge dims and forcing a zero-filled allocation at decode time.
constexpr std::uint64_t kMaxTensorElems = kDefaultMaxPayload / sizeof(float);
constexpr std::uint32_t kMaxTensorRank = 8;

enum class TensorMode : std::uint8_t { kDense = 0, kSparse = 1 };

void put_rng(ByteWriter& w, const RngState& s) {
  for (std::uint64_t word : s.s) w.u64(word);
  w.u8(s.has_cached_normal ? 1 : 0);
  w.f64(s.cached_normal);
}

bool get_rng(ByteReader& r, RngState& out) {
  for (std::uint64_t& word : out.s) word = r.u64();
  const std::uint8_t cached = r.u8();
  if (cached > 1) return false;
  out.has_cached_normal = cached != 0;
  out.cached_normal = r.f64();
  return r.ok();
}

void put_meta(ByteWriter& w, const WireUpdateMeta& m) {
  w.u64(m.client_id);
  w.u64(m.position);
  w.f64(m.weight);
  w.f64(m.train_loss);
  w.u32(m.flags);
  w.u8(m.quarantined);
  w.u64(m.update_bytes);
  w.f64(m.train_seconds);
}

bool get_meta(ByteReader& r, WireUpdateMeta& out) {
  out.client_id = r.u64();
  out.position = r.u64();
  out.weight = r.f64();
  out.train_loss = r.f64();
  out.flags = r.u32();
  out.quarantined = r.u8();
  if (out.quarantined > 1) return false;
  out.update_bytes = r.u64();
  out.train_seconds = r.f64();
  return r.ok();
}

/// Finishes a decode: the payload must have parsed cleanly AND completely —
/// trailing bytes mean a schema mismatch, not extra padding.
bool done(const ByteReader& r) { return r.ok() && r.remaining() == 0; }

}  // namespace

void put_tensor(ByteWriter& w, const Tensor& t) {
  w.u32(static_cast<std::uint32_t>(t.rank()));
  for (std::size_t d : t.shape()) w.u64(d);
  // Sparse only when lossless: every omitted coordinate must be bit-zero
  // (a -0.0f survives only the dense path), and only when actually smaller.
  const float* data = t.data();
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(data[i]) != 0) ++nnz;
  }
  const std::size_t sparse_bytes = 8 + nnz * 8;
  if (sparse_bytes < t.size() * 4) {
    w.u8(static_cast<std::uint8_t>(TensorMode::kSparse));
    w.u64(nnz);
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (std::bit_cast<std::uint32_t>(data[i]) == 0) continue;
      w.u32(static_cast<std::uint32_t>(i));
      w.f32(data[i]);
    }
  } else {
    w.u8(static_cast<std::uint8_t>(TensorMode::kDense));
    w.bytes(data, t.size() * sizeof(float));
  }
}

bool get_tensor(ByteReader& r, Tensor& out) {
  const std::uint32_t rank = r.u32();
  if (!r.ok() || rank > kMaxTensorRank) return false;
  std::vector<std::size_t> shape(rank);
  std::uint64_t volume = 1;
  for (std::uint32_t d = 0; d < rank; ++d) {
    const std::uint64_t dim = r.u64();
    if (dim != 0 && volume > kMaxTensorElems / dim) return false;
    volume *= dim;
    shape[d] = static_cast<std::size_t>(dim);
  }
  if (!r.ok() || volume > kMaxTensorElems) return false;
  const std::uint8_t mode = r.u8();
  if (rank == 0) {
    // A rank-0 Tensor is the canonical EMPTY tensor (zero elements), not a
    // one-element scalar — the empty dim product above must not stand, and
    // Tensor({}) would allocate one element. It always encodes dense with
    // zero payload bytes.
    if (!r.ok() || mode != static_cast<std::uint8_t>(TensorMode::kDense)) {
      return false;
    }
    out = Tensor();
    return true;
  }
  if (mode == static_cast<std::uint8_t>(TensorMode::kDense)) {
    if (r.remaining() < volume * sizeof(float)) return false;
    Tensor t = Tensor::uninit(shape);
    r.bytes(t.data(), volume * sizeof(float));
    if (!r.ok()) return false;
    out = std::move(t);
    return true;
  }
  if (mode != static_cast<std::uint8_t>(TensorMode::kSparse)) return false;
  const std::uint64_t nnz = r.u64();
  if (!r.ok() || nnz > volume || r.remaining() < nnz * 8) return false;
  Tensor t(shape);  // zero-initialized; only the nonzeros are scattered
  std::uint64_t prev = 0;
  for (std::uint64_t k = 0; k < nnz; ++k) {
    const std::uint32_t idx = r.u32();
    const float val = r.f32();
    // Strictly increasing indices: canonical encoding, no duplicates, and
    // every index is bounds-checked before the store.
    if (idx >= volume || (k > 0 && idx <= prev)) return false;
    t.data()[idx] = val;
    prev = idx;
  }
  if (!r.ok()) return false;
  out = std::move(t);
  return true;
}

void put_update(ByteWriter& w, const ClientUpdate& u) {
  w.u64(u.client_id);
  w.f64(u.weight);
  w.f64(u.train_loss);
  w.f64(u.aux_scalar);
  w.u32(u.flags);
  w.f64(u.train_seconds);
  w.u64(u.payload_bytes);
  put_tensor(w, u.state);
  put_tensor(w, u.aux);
}

bool get_update(ByteReader& r, ClientUpdate& out) {
  out.client_id = r.u64();
  out.weight = r.f64();
  out.train_loss = r.f64();
  out.aux_scalar = r.f64();
  out.flags = r.u32();
  out.train_seconds = r.f64();
  out.payload_bytes = r.u64();
  if (!r.ok()) return false;
  return get_tensor(r, out.state) && get_tensor(r, out.aux);
}

std::vector<std::uint8_t> encode_hello(const HelloMsg& m) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(m.role));
  w.u64(m.node_index);
  return w.take();
}

bool decode_hello(const std::vector<std::uint8_t>& payload, HelloMsg& out) {
  ByteReader r(payload);
  const std::uint8_t role = r.u8();
  if (role != static_cast<std::uint8_t>(NodeRole::kWorker) &&
      role != static_cast<std::uint8_t>(NodeRole::kEdge)) {
    return false;
  }
  out.role = static_cast<NodeRole>(role);
  out.node_index = r.u64();
  return done(r);
}

std::vector<std::uint8_t> encode_hello_ack(const HelloAckMsg& m) {
  ByteWriter w;
  w.u64(m.node_index);
  w.u64(m.rounds);
  return w.take();
}

bool decode_hello_ack(const std::vector<std::uint8_t>& payload,
                      HelloAckMsg& out) {
  ByteReader r(payload);
  out.node_index = r.u64();
  out.rounds = r.u64();
  return done(r);
}

std::vector<std::uint8_t> encode_round_config(const RoundConfigMsg& m) {
  ByteWriter w;
  w.u64(m.round);
  w.u64(m.n_selected);
  w.u64(m.clients.size());
  for (const RemoteClient& c : m.clients) {
    w.u64(c.client_id);
    w.u64(c.position);
    put_rng(w, c.stream);
    w.u8(c.corrupt ? 1 : 0);
    w.u8(c.corrupt_kind);
    w.u64(c.corrupt_pos);
  }
  return w.take();
}

bool decode_round_config(const std::vector<std::uint8_t>& payload,
                         RoundConfigMsg& out) {
  ByteReader r(payload);
  out.round = r.u64();
  out.n_selected = r.u64();
  const std::uint64_t count = r.u64();
  // Divide instead of multiplying so a hostile count can't overflow;
  // 67 = the encoded size of one client.
  if (!r.ok() || count > out.n_selected || count > r.remaining() / 67) {
    return false;
  }
  out.clients.resize(count);
  for (RemoteClient& c : out.clients) {
    c.client_id = r.u64();
    c.position = r.u64();
    if (!get_rng(r, c.stream)) return false;
    const std::uint8_t corrupt = r.u8();
    c.corrupt_kind = r.u8();
    c.corrupt_pos = r.u64();
    if (c.position >= out.n_selected || corrupt > 1 || c.corrupt_kind > 2) {
      return false;
    }
    c.corrupt = corrupt != 0;
  }
  return done(r);
}

std::vector<std::uint8_t> encode_model_pull(const ModelPullMsg& m) {
  ByteWriter w;
  w.u64(m.round);
  return w.take();
}

bool decode_model_pull(const std::vector<std::uint8_t>& payload,
                       ModelPullMsg& out) {
  ByteReader r(payload);
  out.round = r.u64();
  return done(r);
}

std::vector<std::uint8_t> encode_model_state(const ModelStateMsg& m) {
  ByteWriter w;
  w.u64(m.round);
  put_tensor(w, m.state);
  return w.take();
}

bool decode_model_state(const std::vector<std::uint8_t>& payload,
                        ModelStateMsg& out) {
  ByteReader r(payload);
  out.round = r.u64();
  if (!get_tensor(r, out.state)) return false;
  return done(r);
}

std::vector<std::uint8_t> encode_update_push(const UpdatePushMsg& m) {
  ByteWriter w;
  w.u64(m.round);
  w.u64(m.position);
  put_update(w, m.update);
  return w.take();
}

bool decode_update_push(const std::vector<std::uint8_t>& payload,
                        UpdatePushMsg& out) {
  ByteReader r(payload);
  out.round = r.u64();
  out.position = r.u64();
  if (!get_update(r, out.update)) return false;
  return done(r);
}

std::vector<std::uint8_t> encode_digest(const DigestMsg& m) {
  ByteWriter w;
  w.u64(m.round);
  w.u64(m.edge_index);
  w.u8(m.has_digest);
  if (m.has_digest) put_update(w, m.digest);
  w.u64(m.metas.size());
  for (const WireUpdateMeta& meta : m.metas) put_meta(w, meta);
  return w.take();
}

bool decode_digest(const std::vector<std::uint8_t>& payload, DigestMsg& out) {
  ByteReader r(payload);
  out.round = r.u64();
  out.edge_index = r.u64();
  out.has_digest = r.u8();
  if (!r.ok() || out.has_digest > 1) return false;
  if (out.has_digest && !get_update(r, out.digest)) return false;
  const std::uint64_t count = r.u64();
  if (!r.ok() || count > r.remaining() / 53) return false;  // 53 = meta size
  out.metas.resize(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!get_meta(r, out.metas[i])) return false;
  }
  return done(r);
}

std::vector<std::uint8_t> encode_bye(const ByeMsg& m) {
  ByteWriter w;
  w.u64(m.rounds_done);
  return w.take();
}

bool decode_bye(const std::vector<std::uint8_t>& payload, ByeMsg& out) {
  ByteReader r(payload);
  out.rounds_done = r.u64();
  return done(r);
}

}  // namespace hetero::net

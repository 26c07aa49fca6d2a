// Client-update compression for communication-efficient FL (extension
// beyond the paper; the paper's Section 1 motivates FL deployments where
// uplink bandwidth is the bottleneck).
//
// Two standard lossy schemes over flat update vectors:
//   * top-k sparsification — keep the k largest-magnitude coordinates;
//   * uniform quantization — b-bit midrise quantization of the value range.
// Both come with an exact byte-cost model so benches can report
// accuracy-vs-bytes trade-offs, and CompressedFedAvg wires either (or both)
// into the FedAvg aggregation path with optional client-side error
// feedback (residual accumulation), the standard fix for sparsification
// bias.
#pragma once

#include <cstdint>
#include <vector>

#include "fl/algorithm.h"

namespace hetero {

/// Sparse representation of a compressed update.
struct SparseUpdate {
  std::vector<std::uint32_t> indices;
  std::vector<float> values;
  std::size_t dense_size = 0;

  /// Uplink cost: 4 bytes per index + 4 per value (float32 payload).
  std::size_t byte_cost() const {
    return indices.size() * (sizeof(std::uint32_t) + sizeof(float));
  }
};

/// Keeps the k largest-|value| coordinates of `dense`. k is clamped to the
/// vector size; k == 0 yields an empty update.
SparseUpdate top_k_sparsify(const Tensor& dense, std::size_t k);

/// Scatters a sparse update back to a dense tensor of its original size.
Tensor densify(const SparseUpdate& sparse);

/// Uniform b-bit quantization of a tensor (midrise over [min, max]);
/// returns the dequantized tensor (what the server would reconstruct).
/// bits in [1, 16]. Constant tensors are returned unchanged.
Tensor quantize_dequantize(const Tensor& dense, int bits);

/// FedAvg with lossy client->server update compression.
struct CompressionOptions {
  /// Fraction of coordinates kept by top-k (1.0 disables sparsification).
  float top_k_fraction = 0.1f;
  /// Quantization bits for the kept values (0 disables quantization).
  int quantize_bits = 0;
  /// Client-side error feedback: residuals from compression are carried
  /// into the next round's update (per client, persistent).
  bool error_feedback = true;
};

/// Split form (honours HS_THREADS through the event scheduler): the pure
/// client phase trains, folds in this client's error-feedback residual
/// (read-only — a client appears at most once per round, and residual
/// writes happen only in the serial aggregate, the SCAFFOLD pattern for
/// per-client persistent state), compresses, and returns the densified
/// transmitted update in ClientUpdate::state with the new residual in aux
/// and the true compressed wire cost in payload_bytes. The serial
/// aggregate equal-weight averages the transmitted updates in `selected`
/// order and stores the residuals, so results are bit-identical for any
/// thread count. Client observations report the actual compressed byte
/// cost, and the round's compression summary lands in RoundStats::extras
/// ("comp.dense_bytes", "comp.compressed_bytes", "comp.ratio"). Under
/// partial aggregation an excluded client's residual stays untouched — it
/// never transmitted, so it still owes the same error.
class CompressedFedAvg : public SplitFederatedAlgorithm {
 public:
  CompressedFedAvg(LocalTrainConfig cfg, CompressionOptions options);

  void init(Model& model, std::size_t num_clients) override;
  ClientUpdate local_update(Model& model, const Tensor& global,
                            std::size_t client_id, const Dataset& data,
                            Rng& client_rng) const override;
  RoundStats aggregate(Model& model, const Tensor& global,
                       std::vector<ClientUpdate>& updates) override;
  std::string name() const override { return "CompressedFedAvg"; }

  /// Bytes a dense float32 update would have cost last round (per client).
  std::size_t last_dense_bytes() const { return last_dense_bytes_; }
  /// Mean compressed bytes actually "sent" per client last round.
  std::size_t last_compressed_bytes() const { return last_compressed_bytes_; }

  /// Round-level checkpoint hooks: per-client error-feedback residuals are
  /// the cross-round state (only non-empty residuals are recorded).
  void save_state(AlgorithmCheckpoint& out) const override;
  void load_state(const AlgorithmCheckpoint& in) override;

 private:
  LocalTrainConfig cfg_;
  CompressionOptions options_;
  std::vector<Tensor> residuals_;  // per-client error feedback
  std::size_t last_dense_bytes_ = 0;
  std::size_t last_compressed_bytes_ = 0;
};

}  // namespace hetero

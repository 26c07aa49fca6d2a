// Differential-privacy mechanisms for federated aggregation (extension
// beyond the paper; FL's privacy motivation is the paper's Section 1).
//
// DpFedAvg implements the standard DP-FedAvg recipe:
//   1. each client's *update* (state delta from the incoming global state)
//      is L2-clipped to clip_norm;
//   2. the server averages clipped updates and adds Gaussian noise with
//      stddev noise_multiplier * clip_norm / K to every coordinate.
// A simple moments-style accountant is out of scope; the class reports the
// per-round noise scale so callers can budget externally.
#pragma once

#include "fl/algorithm.h"
#include "util/rng.h"

namespace hetero {

struct DpOptions {
  float clip_norm = 1.0f;        ///< L2 bound on each client update
  float noise_multiplier = 0.1f; ///< sigma = multiplier * clip / K
  std::uint64_t noise_seed = 7;  ///< server-side noise stream seed
};

/// Clips a flat update vector to the given L2 norm (in place); returns the
/// scaling factor applied (1 when already within the bound).
float clip_to_norm(Tensor& update, float clip_norm);

/// Split form (honours HS_THREADS through the event scheduler): the pure
/// client phase trains and L2-clips the state delta — ClientUpdate::state
/// carries the CLIPPED DELTA, not the post-training state, and flags bit 0
/// records whether clipping fired. The serial aggregate equal-weight
/// averages the deltas (sample-size weighting would leak dataset sizes)
/// and applies the Gaussian mechanism from the server-side noise stream,
/// which stays strictly serial, so results are bit-identical for any
/// thread count. Under partial aggregation the mean and the noise scale
/// sigma = multiplier * clip / K use the surviving client count K.
/// RoundStats::extras reports "dp.noise_stddev" and "dp.clip_fraction".
class DpFedAvg : public SplitFederatedAlgorithm {
 public:
  DpFedAvg(LocalTrainConfig cfg, DpOptions options);

  void init(Model& model, std::size_t num_clients) override;
  ClientUpdate local_update(Model& model, const Tensor& global,
                            std::size_t client_id, const Dataset& data,
                            Rng& client_rng) const override;
  RoundStats aggregate(Model& model, const Tensor& global,
                       std::vector<ClientUpdate>& updates) override;
  std::string name() const override { return "DP-FedAvg"; }

  /// Noise stddev applied per coordinate in the last round.
  double last_noise_stddev() const { return last_sigma_; }
  /// Fraction of client updates clipped in the last round.
  double last_clip_fraction() const { return last_clip_fraction_; }

  /// Round-level checkpoint hooks: the server noise stream's cursor is the
  /// cross-round state — resuming must continue the exact noise sequence.
  void save_state(AlgorithmCheckpoint& out) const override;
  void load_state(const AlgorithmCheckpoint& in) override;

 private:
  LocalTrainConfig cfg_;
  DpOptions options_;
  Rng noise_rng_;
  double last_sigma_ = 0.0;
  double last_clip_fraction_ = 0.0;
};

}  // namespace hetero

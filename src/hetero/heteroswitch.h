// HeteroSwitch (Section 5, Algorithm 1): selective client-side
// generalization against system-induced data heterogeneity.
//
// Per round, per client:
//   1. Bias measurement: L_init = loss of the incoming global model on the
//      client's data. If L_init < L_EMA (the server's exponential moving
//      average of aggregated train loss, eq. 1), the client's data
//      distribution is already well-learned by the global model — evidence
//      of bias toward this client's device — so Switch_1 turns ON.
//   2. If Switch_1: the client's batches receive random ISP transforms
//      (random WB + random gamma, eq. 2-3) and a SWAD running average of
//      the weights is maintained per batch.
//   3. If Switch_1 and the final train loss is still below L_EMA
//      (Switch_2), the client returns the SWAD average instead of the last
//      iterate — the strongest generalization — otherwise the plain
//      weights.
// The server aggregates returned states sample-weighted (FedAvg) and
// updates L_EMA with the round's mean train loss.
//
// The loss probes (L_init, and L_post under the validation criterion)
// forward the probe set in the shared kEvalSliceRows-row eval slices
// (fl/eval.h), which keep each slice's activations in cache. Under the
// reference and tiled kernels the slice size cannot change a loss; under
// HS_KERNEL=fast the GEMM tiles follow the batch shape, so fast-mode probe
// losses depend on it in the last bits (DESIGN.md §13).
//
// `mode` exposes the paper's Table 4 ablations on the same code path:
//   kSelective      - full HeteroSwitch (switching logic active);
//   kAlwaysIsp      - "ISP Transformation" row: transforms always on,
//                     no SWAD;
//   kAlwaysIspSwad  - "+ SWAD" row: transforms + SWAD always on.
#pragma once

#include "fl/algorithm.h"
#include "hetero/swad.h"
#include "hetero/transforms.h"
#include "util/stats.h"

namespace hetero {

enum class HeteroSwitchMode { kSelective, kAlwaysIsp, kAlwaysIspSwad };

const char* hetero_switch_mode_name(HeteroSwitchMode mode);

/// What loss the switch decisions compare against L_EMA. Section 5.1: "We
/// use the EMA loss from previous communication rounds or the validation
/// loss as the criteria".
enum class BiasCriterion {
  kTrainLoss,        ///< Algorithm 1 verbatim: L_init / L_train on all data
  kValidationSplit,  ///< losses measured on a held-out slice of client data
};

struct HeteroSwitchOptions {
  HeteroSwitchMode mode = HeteroSwitchMode::kSelective;
  IspTransformConfig transform;  ///< WB degree 0.001, gamma degree 0.9
  double ema_alpha = 0.9;        ///< smoothing factor of eq. 1
  BiasCriterion criterion = BiasCriterion::kTrainLoss;
  /// Fraction of each client's data held out when criterion is
  /// kValidationSplit (the rest is trained on).
  float validation_fraction = 0.25f;
  /// Round-0 behavior of kSelective, made explicit: before the EMA has
  /// seen its first update it has no value to compare against. Default
  /// (false): both switches stay OFF until the EMA is seeded — round 0 is
  /// plain FedAvg, no client is flagged as biased by a vacuous comparison.
  /// true restores the legacy behavior where the empty EMA reads +inf and
  /// L_init < +inf fires Switch_1 for every client in round 0.
  bool switch_on_unseeded_ema = false;
};

class HeteroSwitch : public SplitFederatedAlgorithm {
 public:
  HeteroSwitch(LocalTrainConfig cfg, HeteroSwitchOptions options);

  void init(Model& model, std::size_t num_clients) override;
  /// Pure per-client phase: bias measurement against the round-start L_EMA,
  /// local training with optional ISP transforms + SWAD, switch decisions.
  /// Records Switch_1/Switch_2 in ClientUpdate::flags (bits 0/1); counters
  /// and the EMA are only touched in aggregate().
  ClientUpdate local_update(Model& model, const Tensor& global,
                            std::size_t client_id, const Dataset& data,
                            Rng& client_rng) const override;
  RoundStats aggregate(Model& model, const Tensor& global,
                       std::vector<ClientUpdate>& updates) override;
  std::string name() const override;

  /// Round-level checkpoint hooks: the L_EMA (value + seeded flag) and the
  /// lifetime switch counters are the only cross-round state.
  void save_state(AlgorithmCheckpoint& out) const override;
  void load_state(const AlgorithmCheckpoint& in) override;

  /// Current EMA of the aggregated train loss (+inf before round 0).
  double ema_loss() const { return ema_.value(); }

  /// Counters over the lifetime of the run (observability / tests).
  std::size_t switch1_activations() const { return switch1_count_; }
  std::size_t switch2_activations() const { return switch2_count_; }
  std::size_t client_updates() const { return update_count_; }

 private:
  LocalTrainConfig cfg_;
  HeteroSwitchOptions options_;
  Ema ema_;
  std::size_t switch1_count_ = 0;
  std::size_t switch2_count_ = 0;
  std::size_t update_count_ = 0;
};

}  // namespace hetero

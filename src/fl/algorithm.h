// Federated optimization algorithms.
//
// A SplitFederatedAlgorithm owns both sides of one method: a pure
// per-client update rule (local_update) and a serial server aggregation
// (aggregate). The one round engine, the EventScheduler, calls
// local_update once per dispatched client (on its pool, or on the daemon's
// remote workers) and aggregate once per flush; the algorithm mutates the
// shared global Model only in aggregate.
// Per-worker model replicas are reused for every simulated client by
// swapping flat states (memory stays O(workers) in the number of clients).
//
// Implemented methods (Section 6.2 of the paper):
//   * FedAvg   (McMahan et al. 2017)  - sample-weighted state averaging.
//   * q-FedAvg (Li et al. 2019)       - loss-reweighted updates for fair
//                                       resource allocation.
//   * FedProx  (Li et al. 2020)       - proximal L2 term in the client
//                                       objective.
//   * SCAFFOLD (Karimireddy et al. 2020) - client/server control variates.
// HeteroSwitch itself lives in src/hetero and plugs into the same interface.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "fl/trainer.h"
#include "nn/model.h"

namespace hetero {

class Rng;

/// Per-round statistics reported back to the simulation and delivered to
/// observers via RoundObserver::on_round_end.
struct RoundStats {
  double mean_train_loss = 0.0;  ///< sample-weighted mean of client losses
  double min_train_loss = 0.0;   ///< best single client loss (unweighted)
  double max_train_loss = 0.0;   ///< worst single client loss (unweighted)
  std::size_t num_clients = 0;   ///< clients that trained this round
  double weight_sum = 0.0;       ///< total aggregation weight (sample count)
  /// Estimated client->server traffic: tensor payloads actually returned
  /// (state + aux at 4 bytes/element, or the compressed size where the
  /// algorithm compresses).
  std::uint64_t bytes_up = 0;
  /// Estimated server->client traffic: one full state per selected client.
  std::uint64_t bytes_down = 0;
  /// Wall time of the whole round (fan-out + aggregate); filled by the
  /// round engine, NOT deterministic.
  double round_seconds = 0.0;
  /// Virtual time of the round: the simulated makespan (slowest client's
  /// injected delay + backoff + modeled compute) for sync rounds, or the
  /// virtual-clock span of the flush window for scheduled runs. Unlike
  /// round_seconds this is deterministic (DESIGN.md §11); 0 when no
  /// virtual time passed.
  double virtual_seconds = 0.0;
  /// Algorithm-specific scalars keyed by a namespaced name (for example
  /// "hs.switch1", "dp.noise_stddev", "scaffold.c_global_norm"). A sorted
  /// map so traces list extras in a stable order. Adding a new scalar
  /// needs no new virtuals anywhere.
  std::map<std::string, double> extras;
};

/// Server-side algorithm state captured at a round boundary for
/// checkpoint/resume (fl/checkpoint.h). Three typed maps so every kind of
/// state round-trips bit-exactly: `scalars` for doubles (written as raw
/// 64-bit patterns — an EMA must not survive a float32 detour), `words`
/// for exact integer state (counters, RNG engine words), `tensors` for
/// f32 payloads (momentum, control variates, residuals). Keys are
/// namespaced per algorithm ("fedavgm.velocity", "hs.ema", ...).
struct AlgorithmCheckpoint {
  std::map<std::string, double> scalars;
  std::map<std::string, std::uint64_t> words;
  std::map<std::string, Tensor> tensors;
};

/// The result of one client's local training, produced by
/// SplitFederatedAlgorithm::local_update and consumed by aggregate().
/// `aux` / `aux_scalar` / `flags` carry algorithm-specific payloads
/// (SCAFFOLD's updated control variate, q-FedAvg's scaled delta and F_k,
/// HeteroSwitch's switch decisions).
struct ClientUpdate {
  std::size_t client_id = 0;
  Tensor state;             ///< post-training flat state (empty if unused)
  double weight = 0.0;      ///< aggregation weight (usually sample count)
  double train_loss = 0.0;  ///< running-mean train loss of the local pass
  Tensor aux;               ///< algorithm-specific tensor payload
  double aux_scalar = 0.0;  ///< algorithm-specific scalar payload
  unsigned flags = 0;       ///< algorithm-specific bit flags
  double train_seconds = 0.0;  ///< wall time spent in local_update
  /// Uplink bytes this update actually cost on the wire. 0 means "derive
  /// from the tensors" ((state + aux) * 4 bytes); compressing algorithms
  /// set the real compressed size so byte accounting survives the
  /// local_update/aggregate split (aux may carry client-side-only state
  /// like error-feedback residuals that never travel).
  std::uint64_t payload_bytes = 0;
};

/// Uplink byte cost of one update: payload_bytes when set, else the dense
/// tensor sizes. Shared by summarize_updates and make_observation.
std::uint64_t update_payload_bytes(const ClientUpdate& update);

/// Partial-aggregation guard (DESIGN.md §10): true when every numeric field
/// and tensor coordinate of the update is finite and the weight is
/// non-negative. Aggregates must never see an update that fails this —
/// the round engines (scheduler, net nodes) quarantine it first.
bool validate_update(const ClientUpdate& update);

/// Fills the generic RoundStats fields from a round's client updates:
/// sample-weighted mean loss, unweighted min/max loss, client/weight
/// totals, and the byte estimates (uplink from the tensors each update
/// carries, downlink as one global state per client). Call it BEFORE an
/// aggregate moves the state tensors out of `updates`. extras stay empty
/// for the caller to fill.
RoundStats summarize_updates(const std::vector<ClientUpdate>& updates,
                             std::size_t global_state_size);

/// The algorithm interface: a pure per-client phase plus a serial server
/// phase. The contract that makes parallel execution bit-identical to
/// serial execution:
///   * local_update is const and must not touch shared mutable state; it
///     depends only on (global, client_id, data, client_rng). The caller
///     derives client_rng as rng.fork(client_id) — keyed by client id, not
///     loop order — so the stream is identical however clients are
///     scheduled.
///   * aggregate runs serially and folds updates in `selected` order, so
///     floating-point accumulation order never depends on thread timing.
class SplitFederatedAlgorithm {
 public:
  virtual ~SplitFederatedAlgorithm() = default;

  /// Called once before round 0. num_clients is the population size N.
  virtual void init(Model& model, std::size_t num_clients) {
    (void)model;
    (void)num_clients;
  }

  /// One client's local training pass against the round-start state
  /// `global`. Must set_state(global) on the given model before touching
  /// it; the model may be a per-worker replica with arbitrary prior state.
  virtual ClientUpdate local_update(Model& model, const Tensor& global,
                                    std::size_t client_id, const Dataset& data,
                                    Rng& client_rng) const = 0;

  /// Serial server phase: folds the round's updates (ordered like the
  /// round's `selected` list) into the global model. `global` is the
  /// round-start state local_update ran against.
  ///
  /// Partial-aggregation semantics (DESIGN.md §10): `updates` may be a
  /// strict subset of the round's selected clients — dropped, timed-out,
  /// failed, and quarantined clients are filtered out by the driver before
  /// this call, in `selected` order. Implementations must renormalize over
  /// the survivors (weight totals, equal-weight divisors) and never assume
  /// updates.size() equals the selection size; the driver guarantees
  /// `updates` is non-empty and every update passes validate_update().
  virtual RoundStats aggregate(Model& model, const Tensor& global,
                               std::vector<ClientUpdate>& updates) = 0;

  /// Staleness decay applied by the async/buffered event scheduler to an
  /// update that arrives `staleness` server versions after its dispatch
  /// (FedAsync; DESIGN.md §11): the aggregation weight is multiplied by
  /// f(s) = (1 + s)^-exponent. The default guarantees f(0) == 1 exactly,
  /// so zero-staleness updates keep their sync FedAvg weight bit-for-bit;
  /// algorithms may override for other decay families.
  virtual double staleness_weight(std::size_t staleness,
                                  double exponent) const;

  /// Checkpoint hooks: capture / restore every piece of server-side state
  /// the algorithm mutates across rounds, so a resumed run continues
  /// bit-for-bit (asserted in tests/test_population.cpp). Stateless
  /// algorithms (FedAvg, q-FedAvg, FedProx) keep the no-op defaults.
  /// load_state is always called after init() on a freshly constructed
  /// algorithm, so implementations may rely on init()-sized containers.
  virtual void save_state(AlgorithmCheckpoint& out) const { (void)out; }
  virtual void load_state(const AlgorithmCheckpoint& in) { (void)in; }

  virtual std::string name() const = 0;

  /// Edge-tier (hierarchical) aggregation capability (DESIGN.md §14): true
  /// when aggregate() is a renormalized weighted mean over update states,
  /// so folding a group of updates into one weighted digest first
  /// (partial_aggregate) and then aggregating the digests is the same
  /// mathematical average — the two-level tree merely re-associates the
  /// sum. Algorithms whose aggregate consumes per-client payloads (control
  /// variates, per-client flags, loss-reweighted deltas) must return false;
  /// hierarchical_aggregate refuses them.
  virtual bool supports_partial_aggregation() const { return false; }

  /// Distributed-worker capability: true when local_update depends only on
  /// (global, client_id, data, client_rng) — no server-held cross-round
  /// state — so a remote worker's freshly constructed algorithm instance
  /// produces bit-identical updates. Algorithms whose client phase reads
  /// state mutated by aggregate (SCAFFOLD's control variates, HeteroSwitch's
  /// EMA, error-feedback residuals) must return false; the wire layer
  /// (src/net) refuses them.
  virtual bool stateless_client_phase() const { return false; }

  /// Folds one edge group's updates into a single weighted digest: state =
  /// renormalized weighted mean over the group (the partial-aggregation
  /// primitive of DESIGN.md §10), weight = summed group weight, train_loss =
  /// weighted mean group loss. The digest is a valid ClientUpdate, so the
  /// root-side aggregate() consumes digests exactly like client updates.
  /// Consumes the group's state tensors.
  virtual ClientUpdate partial_aggregate(const Tensor& global,
                                         std::vector<ClientUpdate>& group) const;
};

class FedAvg : public SplitFederatedAlgorithm {
 public:
  explicit FedAvg(LocalTrainConfig cfg) : cfg_(cfg) {}

  ClientUpdate local_update(Model& model, const Tensor& global,
                            std::size_t client_id, const Dataset& data,
                            Rng& client_rng) const override;
  RoundStats aggregate(Model& model, const Tensor& global,
                       std::vector<ClientUpdate>& updates) override;
  bool supports_partial_aggregation() const override { return true; }
  bool stateless_client_phase() const override { return true; }
  std::string name() const override { return "FedAvg"; }

 protected:
  LocalTrainConfig cfg_;
};

/// q-FedAvg: clients with higher loss receive higher aggregation weight,
/// trading a little average accuracy for lower variance. q -> 0 recovers
/// FedAvg. Paper grid: q in {1e-6 .. 1e-1}, chosen value 1e-6.
class QFedAvg : public SplitFederatedAlgorithm {
 public:
  QFedAvg(LocalTrainConfig cfg, double q) : cfg_(cfg), q_(q) {}

  ClientUpdate local_update(Model& model, const Tensor& global,
                            std::size_t client_id, const Dataset& data,
                            Rng& client_rng) const override;
  RoundStats aggregate(Model& model, const Tensor& global,
                       std::vector<ClientUpdate>& updates) override;
  // aggregate needs every client's (delta, F_k) pair — a weighted digest
  // loses the per-client loss reweighting, so no edge tier for q-FedAvg.
  bool stateless_client_phase() const override { return true; }
  std::string name() const override { return "q-FedAvg"; }

 private:
  LocalTrainConfig cfg_;
  double q_;
};

/// FedProx: adds mu/2 * ||w - w_global||^2 to each client objective,
/// implemented as a gradient correction mu * (w - w_global) before the step.
/// Paper grid: mu in {1e-5 .. 1e-1}, chosen value 1e-1.
class FedProx : public SplitFederatedAlgorithm {
 public:
  FedProx(LocalTrainConfig cfg, float mu) : cfg_(cfg), mu_(mu) {}

  ClientUpdate local_update(Model& model, const Tensor& global,
                            std::size_t client_id, const Dataset& data,
                            Rng& client_rng) const override;
  RoundStats aggregate(Model& model, const Tensor& global,
                       std::vector<ClientUpdate>& updates) override;
  bool supports_partial_aggregation() const override { return true; }
  bool stateless_client_phase() const override { return true; }
  std::string name() const override { return "FedProx"; }

 private:
  LocalTrainConfig cfg_;
  float mu_;
};

/// SCAFFOLD: corrects client drift with control variates. The server keeps
/// a global variate c; every client i keeps a persistent c_i (Option II
/// update). Both cover trainable parameters only (buffers are averaged as
/// in FedAvg). local_update only *reads* the variates (an absent c_i acts
/// as zeros); all writes happen in aggregate, keeping the client phase pure.
class Scaffold : public SplitFederatedAlgorithm {
 public:
  explicit Scaffold(LocalTrainConfig cfg) : cfg_(cfg) {}

  void init(Model& model, std::size_t num_clients) override;
  ClientUpdate local_update(Model& model, const Tensor& global,
                            std::size_t client_id, const Dataset& data,
                            Rng& client_rng) const override;
  RoundStats aggregate(Model& model, const Tensor& global,
                       std::vector<ClientUpdate>& updates) override;
  void save_state(AlgorithmCheckpoint& out) const override;
  void load_state(const AlgorithmCheckpoint& in) override;
  std::string name() const override { return "Scaffold"; }

 private:
  LocalTrainConfig cfg_;
  std::size_t num_clients_ = 0;
  Tensor c_global_;                 // (P)
  std::vector<Tensor> c_clients_;   // N x (P), empty = zeros (never trained)
};

/// FedAvgM (extension beyond the paper): FedAvg with server-side momentum.
/// The server treats the round's average client delta as a pseudo-gradient
/// and applies momentum to it — often stabilizes training under client
/// heterogeneity. Included as an additional baseline for the ablation
/// benches. The client phase is plain FedAvg local training (inherited).
class FedAvgM : public FedAvg {
 public:
  FedAvgM(LocalTrainConfig cfg, float server_momentum)
      : FedAvg(cfg), beta_(server_momentum) {}

  void init(Model& model, std::size_t num_clients) override;
  RoundStats aggregate(Model& model, const Tensor& global,
                       std::vector<ClientUpdate>& updates) override;
  void save_state(AlgorithmCheckpoint& out) const override;
  void load_state(const AlgorithmCheckpoint& in) override;
  std::string name() const override { return "FedAvgM"; }

 private:
  float beta_;
  Tensor velocity_;  // over the full state
};

/// Sample-size-weighted average of client states; the FedAvg aggregation
/// shared by several methods.
Tensor weighted_average_states(const std::vector<Tensor>& states,
                               const std::vector<double>& weights);

/// Edge group owning a selection position in a two-level aggregation tree:
/// contiguous blocks of the round's `selected` list, g = pos * E / n. The
/// single source of truth for the client→edge mapping — the monolithic
/// hierarchical path, the root server, and the edge nodes all call this, so
/// the grouping (and therefore every floating-point fold) agrees bit-for-bit.
std::size_t edge_group_of(std::size_t position, std::size_t n_selected,
                          std::size_t edge_groups);

/// Two-level aggregation (DESIGN.md §14): splits the survivors into
/// edge_groups contiguous selection blocks (by their original positions in
/// the round's `selected` list), folds each into one weighted digest via
/// split.partial_aggregate, and feeds the digests — in edge order — to
/// split.aggregate. The returned stats keep the *client-level* summary
/// (summarize_updates over the survivors, computed before any state moves),
/// merge the aggregate's extras on top, and add extras["net.edges"].
/// Requires split.supports_partial_aggregation(). Consumes `updates`.
RoundStats hierarchical_aggregate(Model& model, SplitFederatedAlgorithm& split,
                                  const Tensor& global,
                                  std::vector<ClientUpdate>& updates,
                                  const std::vector<std::size_t>& positions,
                                  std::size_t n_selected,
                                  std::size_t edge_groups);

/// The root half of hierarchical_aggregate, shared with the daemon root
/// whose digests arrive from remote edges: aggregates the digests (edge
/// order), merges the aggregate's extras into `stats` (the client-level
/// summary) and adds extras["net.edges"]. Consumes `digests`.
void aggregate_digests(Model& model, SplitFederatedAlgorithm& split,
                       const Tensor& global,
                       std::vector<ClientUpdate>& digests,
                       std::size_t edge_groups, RoundStats& stats);

}  // namespace hetero

// The federated-learning simulation loop and the fairness / domain-
// generalization metrics of Section 6.
#pragma once

#include <string>
#include <vector>

#include "fl/algorithm.h"
#include "fl/checkpoint.h"
#include "fl/client_provider.h"
#include "fl/observer.h"
#include "fl/population.h"
#include "nn/model.h"
#include "runtime/faults.h"
#include "runtime/sched/sched_options.h"

namespace hetero {

class RemoteTrainStep;  // runtime/sched/remote_step.h

/// Per-device evaluation of the global model plus the paper's summary
/// metrics: average accuracy (fairness), population variance of accuracy
/// across device types (fairness), worst-case accuracy (DG).
struct DeviceMetrics {
  std::vector<double> per_device;  ///< accuracy or AP per device type
  double average = 0.0;
  double variance = 0.0;   ///< population variance across device types
  double worst_case = 0.0;
};

/// The fixed per-device evaluation task list (DESIGN.md §7): every device
/// test set cut into kEvalSliceRows-row slices (fl/eval.h), in device order
/// and then row order. The list depends on the test sets alone, never on
/// the thread count or the kernel kind. Each task forwards its slice on
/// whatever model runs it; metrics() stacks the slice logits per device on
/// the calling thread and computes each device's metric there, so any
/// assignment of tasks to model replicas gives the same bits.
class DeviceEval {
 public:
  /// `tests` must outlive the DeviceEval; every set must be non-empty.
  explicit DeviceEval(const std::vector<Dataset>& tests);

  std::size_t tasks() const { return slices_.size(); }
  /// Forwards task t's slice on `model` in eval mode. Distinct tasks may
  /// run concurrently on distinct models.
  void run(std::size_t t, Model& model);
  /// Accuracy (AP for multi-label sets) per device from the stacked slice
  /// logits, plus the summary metrics. Every task must have run.
  DeviceMetrics metrics() const;

 private:
  struct Slice {
    std::size_t set = 0, begin = 0, end = 0;
  };
  const std::vector<Dataset>& tests_;
  std::vector<Slice> slices_;
  std::vector<Tensor> logits_;  // one block per task
};

/// Evaluates accuracy (or AP for multi-label test sets) on every device
/// test set of the population: the DeviceEval list, run on `model` on the
/// calling thread. run_simulation fans the same list out over its workers.
DeviceMetrics evaluate_per_device(Model& model, const ClientProvider& pop);

/// The most worker threads a run may ask for. The pool starts every worker,
/// each with its own model replica, before round 0, so
/// check_simulation_config refuses a larger SimulationConfig::num_threads
/// rather than start whatever count HS_THREADS names.
constexpr std::size_t kMaxSimulationThreads = 1024;

struct SimulationConfig {
  std::size_t rounds = 100;            ///< T
  std::size_t clients_per_round = 20;  ///< K
  std::uint64_t seed = 42;
  /// Evaluate per-device metrics every eval_every rounds (0 = only final).
  std::size_t eval_every = 0;
  /// Worker threads for the per-client training fan-out. 1 runs everything
  /// on the calling thread; 0 selects hardware_concurrency; at most
  /// kMaxSimulationThreads. Results are bit-identical for any value (see
  /// DESIGN.md, runtime contract).
  std::size_t num_threads = 1;
  /// Telemetry sink for the run's round/client/eval events (see
  /// fl/observer.h and DESIGN.md §8). Non-owning; null disables telemetry.
  RoundObserver* observer = nullptr;
  /// Deterministic fault injection + partial-aggregation hardening (see
  /// runtime/faults.h and DESIGN.md §10). Defaults inject nothing and are
  /// byte-identical to a run without the fault layer. Populated from
  /// HS_FAULTS by the benches/CLI via parse_fault_spec.
  FaultOptions faults;
  /// Server aggregation discipline (DESIGN.md §11). Every mode runs on the
  /// EventScheduler; the default (sync) runs waves of K clients that flush
  /// at K. `rounds` counts server flushes.
  /// Populated from HS_SCHED by the benches/CLI via parse_sched_spec.
  SchedulerOptions sched;
  /// Round-level checkpoint/resume (DESIGN.md §12). Needs every flush
  /// window to be exactly one wave (sync, or buffered wave sampling with
  /// buffer == K); continuous refill rejects it. When enabled, the run
  /// writes <dir>/checkpoint.bin every `every` completed rounds (plus at
  /// the final round) and, with resume on, continues a matching run
  /// bit-for-bit from an existing file: model state, algorithm cross-round
  /// state, sampling RNG cursor, loss/virtual-time histories, and fault
  /// counters all round-trip exactly. Wall-clock fields (round_seconds,
  /// total_seconds) and eval_every checkpoints cover only the rounds this
  /// process executed. Populated from HS_CHECKPOINT by the benches/CLI via
  /// parse_checkpoint_spec.
  CheckpointOptions checkpoint;
  /// Two-level edge-aggregation tree (DESIGN.md §14): >0 splits every
  /// flush window's survivors into this many contiguous blocks of window
  /// positions, folds each into one weighted digest (the renormalized
  /// partial aggregation of DESIGN.md §10), and aggregates the digests —
  /// exactly the fold the distributed edge tier (src/net) runs, so a
  /// daemon run with that many edges is byte-identical to a run here. 0
  /// keeps the flat fold. Works in every mode; requires
  /// supports_partial_aggregation().
  std::size_t edge_groups = 0;
};

/// Wall- and virtual-time accounting of one simulation run. The two clocks
/// never mix (DESIGN.md §11): *_seconds fields are nondeterministic wall
/// time; virtual_* fields are deterministic simulated time (injected
/// delays, backoffs, modeled compute).
struct RuntimeStats {
  std::size_t threads = 1;     ///< resolved worker thread count
  double total_seconds = 0.0;  ///< sum of round_seconds
  std::vector<double> round_seconds;  ///< per-round (flush) wall time
  /// The final virtual-clock reading; for one-wave windows (sync) the
  /// summed round makespans. 0 when no virtual time passed.
  double virtual_seconds = 0.0;
  /// Per-round virtual makespan (one-wave windows) / per-flush clock span
  /// (continuous refill).
  std::vector<double> round_virtual_seconds;
  /// Summed / worst per-client local-training wall time.
  double client_seconds_sum = 0.0;
  double client_seconds_max = 0.0;
  /// Fault totals over the whole run (all zero for clean zero-fault runs).
  std::size_t clients_dropped = 0;      ///< dropout + timeout + failed
  std::size_t clients_quarantined = 0;  ///< non-finite updates excluded
  std::size_t clients_straggled = 0;    ///< delayed but aggregated
  std::size_t fault_retries = 0;        ///< transient-failure retries used
  std::size_t rounds_aborted = 0;       ///< rounds below the min_clients floor
  /// Dispatch and staleness accounting (staleness is zero under sync).
  std::size_t clients_dispatched = 0;  ///< total client dispatches
  std::size_t updates_committed = 0;   ///< usable updates aggregated
  std::size_t staleness_max = 0;       ///< worst update staleness seen
  double staleness_mean = 0.0;         ///< mean over committed updates
};

struct SimulationResult {
  DeviceMetrics final_metrics;
  std::vector<double> train_loss_history;  ///< one entry per round
  /// Metrics captured at each eval_every checkpoint (empty if disabled).
  std::vector<std::pair<std::size_t, DeviceMetrics>> checkpoints;
  RuntimeStats runtime;
};

/// Runs T rounds of the algorithm on the population, mutating the model.
/// Per round, K clients are sampled uniformly without replacement from the
/// population (device skew is already baked into the provider's device
/// assignment). A VirtualPopulation runs a
/// 1M-client federation in O(k) memory per round, and is bit-identical to
/// the MaterializedPopulation built from the same (spec, root).
///
/// With `remote` set (the daemon root, DESIGN.md §14), each wave's clients
/// train on remote workers instead of the local pool, bit-identically. The
/// run then needs wave sampling, an algorithm with a stateless client
/// phase and remote->edge_groups() == cfg.edge_groups; under edges also
/// one-wave flush windows and partial aggregation.
SimulationResult run_simulation(Model& model,
                                SplitFederatedAlgorithm& algorithm,
                                const ClientProvider& population,
                                const SimulationConfig& cfg,
                                RemoteTrainStep* remote = nullptr);

/// Throws std::invalid_argument when run_simulation would refuse this
/// configuration before its first round; run_simulation calls it first. A
/// daemon root calls it before waiting for its nodes, so a bad
/// configuration fails at start-up instead of after every node has joined.
void check_simulation_config(const SplitFederatedAlgorithm& algorithm,
                             const ClientProvider& population,
                             const SimulationConfig& cfg,
                             const RemoteTrainStep* remote = nullptr);

}  // namespace hetero

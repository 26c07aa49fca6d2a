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

/// Per-device evaluation of the global model plus the paper's summary
/// metrics: average accuracy (fairness), population variance of accuracy
/// across device types (fairness), worst-case accuracy (DG).
struct DeviceMetrics {
  std::vector<double> per_device;  ///< accuracy or AP per device type
  double average = 0.0;
  double variance = 0.0;   ///< population variance across device types
  double worst_case = 0.0;
};

/// Evaluates accuracy (or AP for multi-label test sets) on every device
/// test set of the population.
DeviceMetrics evaluate_per_device(Model& model, const ClientProvider& pop);

struct SimulationConfig {
  std::size_t rounds = 100;            ///< T
  std::size_t clients_per_round = 20;  ///< K
  std::uint64_t seed = 42;
  /// Evaluate per-device metrics every eval_every rounds (0 = only final).
  std::size_t eval_every = 0;
  /// Worker threads for the per-client training fan-out. 1 runs everything
  /// on the calling thread; 0 selects hardware_concurrency. Results are
  /// bit-identical for any value (see DESIGN.md, runtime contract).
  std::size_t num_threads = 1;
  /// Telemetry sink for the run's round/client/eval events (see
  /// fl/observer.h and DESIGN.md §8). Non-owning; null disables telemetry.
  RoundObserver* observer = nullptr;
  /// Deterministic fault injection + partial-aggregation hardening (see
  /// runtime/faults.h and DESIGN.md §10). Defaults inject nothing and are
  /// byte-identical to a run without the fault layer. Populated from
  /// HS_FAULTS by the benches/CLI via parse_fault_spec.
  FaultOptions faults;
  /// Virtual-clock event scheduling (DESIGN.md §11). The default (sync)
  /// keeps the original round loop — byte-identical to pre-scheduler
  /// builds; async/buffered modes route rounds through the EventScheduler.
  /// `rounds` then counts server flushes.
  /// Populated from HS_SCHED by the benches/CLI via parse_sched_spec.
  SchedulerOptions sched;
  /// Round-level checkpoint/resume (DESIGN.md §12; sync loop only —
  /// scheduled modes reject it). When enabled, the loop writes
  /// <dir>/checkpoint.bin every `every` completed rounds (plus at the final
  /// round) and, with resume on, continues a matching run bit-for-bit from
  /// an existing file: model state, algorithm cross-round state, sampling
  /// RNG cursor, loss/virtual-time histories, and fault counters all round-
  /// trip exactly. Wall-clock fields (round_seconds, total_seconds) and
  /// eval_every checkpoints cover only the rounds this process executed.
  /// Populated from HS_CHECKPOINT by the benches/CLI via
  /// parse_checkpoint_spec.
  CheckpointOptions checkpoint;
  /// Two-level edge-aggregation tree (DESIGN.md §14): >0 splits every
  /// round's survivors into this many contiguous selection blocks, folds
  /// each into one weighted digest (the PR 4 renormalized partial
  /// aggregation), and aggregates the digests — exactly the fold the
  /// distributed edge tier (src/net) runs, so a loopback run with matching
  /// num_edges is byte-identical to this in-process path. 0 keeps the flat
  /// fold. Sync loop only; requires supports_partial_aggregation().
  std::size_t edge_groups = 0;
};

/// Wall- and virtual-time accounting of one simulation run. The two clocks
/// never mix (DESIGN.md §11): *_seconds fields are nondeterministic wall
/// time; virtual_* fields are deterministic simulated time (injected
/// delays, backoffs, modeled compute).
struct RuntimeStats {
  std::size_t threads = 1;     ///< resolved executor thread count
  double total_seconds = 0.0;  ///< wall time across all rounds
  std::vector<double> round_seconds;  ///< per-round wall time
  /// Total virtual time: summed round makespans (sync) or the final
  /// virtual-clock reading (scheduled modes). 0 when no virtual time passed.
  double virtual_seconds = 0.0;
  /// Per-round virtual makespan (sync) / per-flush clock span (scheduled).
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
  /// Scheduled-mode accounting (zero under sync).
  std::size_t clients_dispatched = 0;  ///< total client dispatches
  std::size_t updates_committed = 0;   ///< usable updates aggregated
  std::size_t staleness_max = 0;       ///< worst update staleness seen
  double staleness_mean = 0.0;         ///< mean over committed updates
  /// Population-materialization totals over the run, from
  /// ClientProvider::population_counters (all zero for eager providers).
  /// pop_hits + pop_misses == pop_materializations always holds.
  std::size_t pop_materializations = 0;  ///< client datasets served
  std::size_t pop_cache_hits = 0;        ///< served from the dataset LRU
  std::size_t pop_cache_misses = 0;      ///< ran the generation recipe
  double pop_gen_seconds = 0.0;          ///< wall time inside generation
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
SimulationResult run_simulation(Model& model,
                                SplitFederatedAlgorithm& algorithm,
                                const ClientProvider& population,
                                const SimulationConfig& cfg);

}  // namespace hetero

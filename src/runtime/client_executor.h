// ClientExecutor: fans one round's selected clients over a worker pool.
//
// The executor runs the algorithm's pure per-client local_update on
// per-worker Model replicas (cloned lazily from the global model, so memory
// stays O(workers), not O(clients)) and then runs the serial aggregate on
// the caller's thread. With one thread the same path runs inline on the
// shared model — identical code, identical results.
//
// Determinism contract (see DESIGN.md §7): every client's RNG stream is
// forked from its client id — never from loop order or worker identity —
// and aggregate folds updates in `selected` order, so the result is
// bit-identical for any thread count, including 1.
//
// Intra-op parallelism (DESIGN.md §13): when a round has fewer clients
// than workers, the executor installs a kernels::ScopedIntraOp grant so
// the clients that do run can split large GEMMs / conv lowerings across
// the idle workers — a lone straggler gets the whole pool. Kernel task
// grids depend only on problem shape, so this changes wall time, never
// bits.
//
// Fault tolerance (DESIGN.md §10): set_faults() installs a FaultOptions /
// FaultPlan pair. Per client the executor applies the plan's deterministic
// decision — dropout, virtual straggler delay checked against the timeout,
// transient failures retried with exponential virtual backoff, update
// corruption — then validates every surviving update (validate_update) and
// quarantines non-finite ones. Aggregation runs over the survivors only
// (partial aggregation); a round with fewer than min_clients usable
// updates aborts gracefully, leaving the global model untouched. With
// default-constructed FaultOptions the execution path, results, and event
// stream are byte-identical to a build without the fault layer.
//
// Telemetry: the executor is the driver of one round, so it emits the
// round-level observer events — on_round_begin before any client trains and
// on_round_end (with RoundStats::round_seconds filled) after the aggregate.
// Client events are buffered with the updates and flushed in `selected`
// order on the caller's thread before the aggregate, so the event stream
// is deterministic for any thread count too. Every selected client gets
// exactly one client_end event; excluded clients carry their FaultKind in
// ClientObservation::fault with zero weight.
#pragma once

#include <memory>
#include <vector>

#include "fl/algorithm.h"
#include "fl/client_provider.h"
#include "fl/observer.h"
#include "runtime/faults.h"
#include "runtime/thread_pool.h"

namespace hetero {

/// Wall-time and fault breakdown of one executed round.
struct RoundRuntime {
  double round_seconds = 0.0;       ///< whole round, fan-out + aggregate
  /// Virtual makespan of the round: the slowest client's injected delay +
  /// retry backoff (+ modeled compute under the scheduler). Deterministic,
  /// unlike round_seconds, which stays pure wall clock (DESIGN.md §11).
  double virtual_seconds = 0.0;
  double client_seconds_sum = 0.0;  ///< summed per-client local_update time
  double client_seconds_max = 0.0;  ///< slowest single client update

  /// Fault accounting (all zero when the fault layer is off and every
  /// update validated).
  std::size_t clients_dropped = 0;      ///< dropout + timeout + failed
  std::size_t clients_quarantined = 0;  ///< non-finite updates excluded
  std::size_t clients_straggled = 0;    ///< usable but delayed
  std::size_t retries = 0;              ///< transient-failure retries used
  bool aborted = false;                 ///< survivors < min_clients
  /// Per selected client, in `selected` order. Only populated while a
  /// fault plan is installed (avoids per-round allocation otherwise).
  std::vector<FaultOutcome> fault_outcomes;
};

class ClientExecutor {
 public:
  /// num_threads == 0 selects std::thread::hardware_concurrency();
  /// num_threads == 1 runs everything on the calling thread (no pool).
  explicit ClientExecutor(std::size_t num_threads);
  ~ClientExecutor();

  ClientExecutor(const ClientExecutor&) = delete;
  ClientExecutor& operator=(const ClientExecutor&) = delete;

  /// Resolved thread count (after the 0 -> hardware_concurrency mapping).
  std::size_t num_threads() const { return num_threads_; }

  /// Installs the fault layer for subsequent rounds. A plan is only
  /// created when options.enabled(); min_clients and update validation
  /// apply either way. Call before the first round for reproducibility.
  void set_faults(const FaultOptions& options);
  const FaultOptions& fault_options() const { return fault_options_; }

  /// Two-level edge aggregation (DESIGN.md §14): with groups > 0 the
  /// round's survivors are split into that many contiguous selection
  /// blocks, each folded into one weighted digest (partial_aggregate, the
  /// PR 4 renormalization), and the digests — not the client updates — feed
  /// the serial aggregate. Exactly the fold the distributed edge tier runs,
  /// so a loopback run with matching edges is byte-identical. 0 (default)
  /// keeps the flat fold. Requires an algorithm with
  /// supports_partial_aggregation().
  void set_edge_groups(std::size_t groups) { edge_groups_ = groups; }
  std::size_t edge_groups() const { return edge_groups_; }

  /// Runs one communication round: local_update for every selected client,
  /// then the serial aggregate, mutating the global model in place.
  /// Per-client timing and fault outcomes are reported through `runtime`
  /// when non-null. When `ctx` is non-null its observer receives the full
  /// event stream of the round (round_begin, one client_end per client in
  /// `selected` order, round_end).
  ///
  /// Datasets are materialized through the per-worker ClientSlot pool, so
  /// lazy providers cost O(workers) memory per round.
  RoundStats run_round(Model& model, SplitFederatedAlgorithm& algorithm,
                       const std::vector<std::size_t>& selected,
                       const ClientProvider& provider, Rng& rng,
                       RoundRuntime* runtime = nullptr,
                       RoundContext* ctx = nullptr);

 private:
  RoundStats run_clients(Model& model, SplitFederatedAlgorithm& algorithm,
                         const std::vector<std::size_t>& selected,
                         const ClientProvider& provider, Rng& rng,
                         RoundContext& ctx, RoundRuntime* runtime);

  std::size_t num_threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;              // null when num_threads_==1
  std::vector<std::unique_ptr<Model>> replicas_;  // one slot per worker
  std::vector<ClientSlot> slots_;  // one materialization arena per worker
  FaultOptions fault_options_;
  std::unique_ptr<FaultPlan> plan_;  // null while fault injection is off
  std::size_t edge_groups_ = 0;      // 0 = flat aggregation
};

}  // namespace hetero

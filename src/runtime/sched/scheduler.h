// EventScheduler: a deterministic discrete-event simulator driving async
// (FedAsync) and buffered-async (FedBuff-style) federated aggregation on a
// virtual clock (DESIGN.md §11).
//
// The scheduler replaces the synchronous round barrier with a timeline:
// every dispatched client gets a virtual finish time computed AT DISPATCH
// from the seeded fault/delay plan (straggler delays, retry backoffs,
// timeouts) plus the device-tier compute model (DelayModel), so the whole
// event timeline is a pure function of (seed, population, options) —
// training results never feed back into event times. Events pop from a
// min-heap in (virtual_time, schedule_seq) order; the server flushes its
// buffer every B terminal client outcomes, scaling each update's weight by
// the algorithm's staleness decay f(version_delta) before the ordinary
// serial aggregate, then bumps the model version.
//
// Determinism contract (the point of the design): worker threads race over
// wall time to train pending clients, but client training is pure
// (per-worker replicas, per-dispatch RNG streams keyed on coordinates) and
// the COMMIT order is the event order, which is virtual-time only. Results,
// staleness accounting, and traces are bit-identical for any HS_THREADS.
//
// Sync FedAvg is NOT routed through this class: run_simulation keeps its
// original loop for SchedMode::kSync, which is what keeps sync output
// byte-identical to pre-scheduler builds. The degenerate scheduler
// configuration (buffered, wave sampling, buffer == k, no delays) is
// asserted bit-identical to that loop in tests/test_sched.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fl/algorithm.h"
#include "fl/client_provider.h"
#include "fl/observer.h"
#include "runtime/faults.h"
#include "runtime/sched/delay_model.h"
#include "runtime/sched/event_queue.h"
#include "runtime/sched/sched_options.h"
#include "runtime/thread_pool.h"

namespace hetero {

/// Accounting of one scheduled run, mirroring RuntimeStats' split between
/// wall and virtual clocks.
struct SchedulerRunResult {
  std::vector<double> loss_history;  ///< mean train loss per flush
  double virtual_seconds = 0.0;      ///< final virtual-clock reading
  std::vector<double> flush_virtual_seconds;  ///< clock span per flush
  std::vector<double> flush_seconds;          ///< wall time per flush
  double total_seconds = 0.0;                 ///< wall time of the run
  double client_seconds_sum = 0.0;  ///< summed wall local_update time
  double client_seconds_max = 0.0;
  std::size_t clients_dispatched = 0;  ///< total dispatches
  std::size_t updates_committed = 0;   ///< usable updates aggregated
  std::size_t clients_dropped = 0;     ///< dropout + timeout + failed
  std::size_t clients_quarantined = 0;
  std::size_t clients_straggled = 0;
  std::size_t fault_retries = 0;
  std::size_t flushes_aborted = 0;  ///< flushes below the min_clients floor
  std::size_t staleness_max = 0;    ///< worst staleness over the run
  double staleness_sum = 0.0;       ///< summed over committed updates
};

class EventScheduler {
 public:
  /// num_threads follows ClientExecutor: 0 = hardware_concurrency,
  /// 1 = everything inline on the calling thread.
  EventScheduler(std::size_t num_threads, const SchedulerOptions& options);
  ~EventScheduler();

  EventScheduler(const EventScheduler&) = delete;
  EventScheduler& operator=(const EventScheduler&) = delete;

  std::size_t num_threads() const { return num_threads_; }

  /// Installs the fault layer. Unlike the round executor, a plan always
  /// exists internally (the scheduler draws its compute jitter from the
  /// same stream), but injection only happens when options.enabled().
  void set_faults(const FaultOptions& options);
  /// Installs the device-tier compute model. DelayModel::base_compute_s is
  /// overridden by SchedulerOptions::base_compute_s when the latter is set.
  void set_delay_model(DelayModel model);

  /// Runs `flushes` server flushes (the scheduled analogue of rounds),
  /// mutating the global model. `rng` is consumed exactly like the sync
  /// loop consumes it under wave sampling. `observer` (may be null) sees
  /// round_begin / client_end (commit order) / round_end per flush window;
  /// `on_flush` (may be empty) fires after flush f with the 1-based flush
  /// count, for eval checkpoints. Client datasets are materialized through
  /// per-worker ClientSlot arenas, so lazy providers keep the working set
  /// O(in-flight), never O(N).
  SchedulerRunResult run(Model& model, SplitFederatedAlgorithm& algorithm,
                         std::size_t flushes, std::size_t clients_per_round,
                         const ClientProvider& provider, Rng& rng,
                         RoundObserver* observer,
                         const std::function<void(std::size_t)>& on_flush);

 private:
  struct Dispatch;

  void dispatch_client(std::size_t client, std::size_t coord, Rng client_rng,
                       double now);
  void train_pending(Model& model, const SplitFederatedAlgorithm& algorithm,
                     const ClientProvider& provider);

  std::size_t num_threads_ = 1;
  SchedulerOptions options_;
  FaultOptions fault_options_;
  std::unique_ptr<FaultPlan> plan_;  // never null after set_faults / run
  DelayModel delay_model_;

  std::unique_ptr<ThreadPool> pool_;              // null when num_threads_==1
  std::vector<std::unique_ptr<Model>> replicas_;  // one slot per worker
  std::unique_ptr<Model> scratch_;                // serial training replica
  std::vector<ClientSlot> slots_;  // one materialization arena per worker

  // Run state (reset by run()).
  EventQueue queue_;
  std::vector<Dispatch> dispatches_;
  std::vector<char> in_flight_;       // per population client
  std::shared_ptr<const Tensor> base_;  // current dispatch snapshot
  std::uint64_t version_ = 0;
  double clock_ = 0.0;
  std::size_t flush_count_ = 0;
  std::vector<std::size_t> window_;  // committed dispatches, commit order
};

}  // namespace hetero

// EventScheduler: the simulator's one round engine. A deterministic
// discrete-event simulator on a virtual clock (DESIGN.md §11) that runs
// synchronous rounds, FedAsync-style async and FedBuff-style buffered
// aggregation through one code path.
//
// Every dispatched client gets a virtual finish time computed AT DISPATCH
// from the seeded fault plan (the one fault rule of DESIGN.md §10) plus the
// device-tier compute model (DelayModel), so the whole event timeline is a
// pure function of (seed, population, options) — training results never
// feed back into event times. Events pop from a min-heap in (virtual_time,
// schedule_seq) order; the server flushes its window every B terminal
// client outcomes, scaling each update's weight by the algorithm's
// staleness decay f(version_delta) before the ordinary serial aggregate
// (or the edge-group fold), then bumps the model version.
//
// Sync mode is waves of k clients that flush at k. Whenever the flush
// window is exactly one wave (wave sampling with buffer == k, which sync
// implies) the scheduler keeps the synchronous round shape: round_begin
// fires when the wave is sampled and starts the round's wall clock, the
// window folds in selection order, and virtual seconds are the recorded
// dispatch durations and their maximum. Only then is there a flush
// boundary with no client in flight, so only then can a run checkpoint.
// Any other window (continuous refill, or waves flushed at a buffer other
// than k) is emitted retroactively at flush time, in arrival order.
//
// Determinism contract (DESIGN.md §7): worker threads race over wall time
// to train pending clients, but client training is pure (per-worker
// replicas, per-dispatch RNG streams keyed on coordinates) and the fold
// order is fixed by selection or by virtual time. Results, staleness
// accounting, and traces are bit-identical for any HS_THREADS; the
// one-thread run is the serial reference. A remote train step (the
// daemon root, DESIGN.md §14) replaces the pool and keeps every bit: it
// gets each client's stream and corrupt decision as fixed at dispatch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "fl/algorithm.h"
#include "fl/client_provider.h"
#include "fl/observer.h"
#include "fl/simulation.h"
#include "runtime/faults.h"
#include "runtime/sched/delay_model.h"
#include "runtime/sched/event_queue.h"
#include "runtime/sched/remote_step.h"
#include "runtime/sched/sched_options.h"
#include "runtime/thread_pool.h"

namespace hetero {

class EventScheduler {
 public:
  /// Takes the thread count (0 = hardware_concurrency, 1 = everything
  /// inline on the calling thread), scheduler options, fault plan, edge
  /// groups and observer from `cfg`. With `remote` set, each wave's
  /// trainable clients go to it instead and no pool or replica is built
  /// (run_simulation checks the config it needs). Every argument must
  /// outlive the scheduler.
  EventScheduler(const SimulationConfig& cfg, const ClientProvider& provider,
                 RemoteTrainStep* remote = nullptr);
  ~EventScheduler();

  EventScheduler(const EventScheduler&) = delete;
  EventScheduler& operator=(const EventScheduler&) = delete;

  /// Runs server flushes until `result` holds cfg.rounds of them, mutating
  /// the global model and appending to result's loss history and runtime
  /// accounting. An empty `result` starts a fresh run; one restored from a
  /// checkpoint continues at its flush count, virtual clock and server
  /// version. Wave sampling consumes `rng` with one
  /// sample_without_replacement and one fork per wave. `on_flush` (may be
  /// empty) fires after each flush with the flush count, outside the
  /// flush's wall time when the window is one wave. Client datasets are
  /// materialized through per-worker ClientSlot arenas and dispatch
  /// records are recycled at each flush, so memory stays O(in-flight).
  void run(Model& model, SplitFederatedAlgorithm& algorithm, Rng& rng,
           SimulationResult& result,
           const std::function<void(std::size_t)>& on_flush);

  /// Per-device evaluation of `model` on the provider's test sets: the
  /// fixed DeviceEval list (fl/simulation.h) over the pool, each worker
  /// forwarding its slices on its own replica, set to `model`'s state
  /// before its first slice. Without a pool (one thread, or a remote train
  /// step) the list runs on `model` on the calling thread. Bit-identical
  /// to evaluate_per_device for any thread count. Called between flushes
  /// (from on_flush) or after run(), never while clients train.
  DeviceMetrics evaluate(Model& model);

 private:
  struct Dispatch;

  std::size_t dispatch_client(std::size_t client, std::size_t coord,
                              Rng client_rng, double now);
  void train_pending(const Model& model,
                     const SplitFederatedAlgorithm& algorithm);

  const SimulationConfig& cfg_;
  const ClientProvider& provider_;
  RemoteTrainStep* remote_;
  std::size_t num_threads_ = 1;
  FaultOptions fault_options_;
  FaultPlan plan_;
  DelayModel delay_model_;
  bool one_wave_ = false;  // every flush window is exactly one wave

  std::unique_ptr<ThreadPool> pool_;              // null when num_threads_==1
  std::vector<std::unique_ptr<Model>> replicas_;  // one slot per worker
  std::unique_ptr<Model> scratch_;  // training replica of the serial path
  std::vector<ClientSlot> slots_;   // one materialization arena per worker

  // Run state (reset by run()).
  EventQueue queue_;
  std::vector<Dispatch> dispatches_;   // records, recycled through free_
  std::vector<std::size_t> free_;      // recycled record indices
  std::vector<std::size_t> untrained_;  // trainable records not yet trained
  std::unordered_set<std::size_t> in_flight_;  // client ids
  std::shared_ptr<const Tensor> base_;  // current server state snapshot
  std::uint64_t version_ = 0;
  double clock_ = 0.0;
  std::vector<std::size_t> window_;  // records of the current flush window
  std::vector<ClientUpdate> digests_;  // remote edges' digests of the window
};

}  // namespace hetero

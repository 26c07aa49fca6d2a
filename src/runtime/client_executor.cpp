#include "runtime/client_executor.h"

#include <algorithm>
#include <chrono>
#include <exception>

#include "kernels/kernels.h"
#include "util/rng.h"

namespace hetero {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// backoff_seconds and poison_update moved to runtime/faults.cpp so the
// event scheduler shares the exact same retry/corruption semantics.

bool usable(FaultKind kind) {
  return kind == FaultKind::kOk || kind == FaultKind::kStraggler;
}

}  // namespace

ClientExecutor::ClientExecutor(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  num_threads_ = num_threads;
  if (num_threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(num_threads_);
    replicas_.resize(num_threads_);
  }
  // Materialization arenas: one per worker (or one for the serial path).
  // They persist across rounds so a lazy provider's steady-state allocation
  // rate is flat — buffers are recycled via Dataset::release_buffers.
  slots_.resize(num_threads_ > 1 ? num_threads_ : 1);
}

ClientExecutor::~ClientExecutor() = default;

void ClientExecutor::set_faults(const FaultOptions& options) {
  fault_options_ = options;
  plan_ = options.enabled() ? std::make_unique<FaultPlan>(options) : nullptr;
}

RoundStats ClientExecutor::run_round(Model& model,
                                     SplitFederatedAlgorithm& algorithm,
                                     const std::vector<std::size_t>& selected,
                                     const ClientProvider& provider,
                                     Rng& rng, RoundRuntime* runtime,
                                     RoundContext* ctx) {
  const Clock::time_point start = Clock::now();
  RoundContext local;
  RoundContext& c = ctx ? *ctx : local;
  if (c.observer) c.observer->on_round_begin(c.round, selected);

  if (runtime) *runtime = RoundRuntime{};
  // Lazy providers expose cumulative materialization counters; stamp this
  // round's deltas as pop.* extras (same idiom as the fault extras) so
  // traces carry per-round cache behaviour.
  PopulationCounters pop_begin;
  const bool has_pop_counters = provider.population_counters(pop_begin);
  RoundStats stats =
      run_clients(model, algorithm, selected, provider, rng, c, runtime);
  stats.round_seconds = seconds_since(start);
  if (has_pop_counters) {
    PopulationCounters pop_end;
    provider.population_counters(pop_end);
    stats.extras["pop.materializations"] = static_cast<double>(
        pop_end.materializations - pop_begin.materializations);
    stats.extras["pop.hits"] =
        static_cast<double>(pop_end.cache_hits - pop_begin.cache_hits);
    stats.extras["pop.misses"] =
        static_cast<double>(pop_end.cache_misses - pop_begin.cache_misses);
    stats.extras["pop.gen_seconds"] =
        pop_end.gen_seconds - pop_begin.gen_seconds;
  }
  if (runtime) {
    runtime->client_seconds_sum = c.client_seconds_sum;
    runtime->client_seconds_max = c.client_seconds_max;
    runtime->round_seconds = stats.round_seconds;
  }
  if (c.observer) c.observer->on_round_end(c.round, stats);
  return stats;
}

RoundStats ClientExecutor::run_clients(Model& model,
                                       SplitFederatedAlgorithm& algorithm,
                                       const std::vector<std::size_t>& selected,
                                       const ClientProvider& provider,
                                       Rng& rng, RoundContext& ctx,
                                       RoundRuntime* runtime) {
  HS_CHECK(!selected.empty(), "ClientExecutor: no clients selected");
  const Tensor global = model.state();
  const std::size_t n = selected.size();
  std::vector<ClientUpdate> updates(n);
  std::vector<FaultOutcome> outcomes(n);

  // One client's full fault-aware execution against model replica `m` and
  // materialization arena `slot`. Slot i of updates/outcomes is written by
  // exactly one task; shared inputs (global, rng, the provider, the
  // algorithm, the plan) are only read, and every random draw is keyed on
  // (round, client id), so the result is bit-identical however clients are
  // scheduled.
  auto run_client = [&](std::size_t i, Model& m, ClientSlot& slot) {
    const std::size_t id = selected[i];
    FaultOutcome& out = outcomes[i];
    out.client_id = id;
    FaultDecision d;
    if (plan_) d = plan_->decide(ctx.round, id);
    if (d.drop) {
      out.kind = FaultKind::kDropout;
      return;
    }
    if (fault_options_.timeout_s > 0.0 && d.delay_s > fault_options_.timeout_s) {
      out.kind = FaultKind::kTimeout;
      out.delay_s = d.delay_s;
      return;
    }
    // Materialize after the drop/timeout early-outs (an excluded client
    // must not pay generation cost) and before the retry loop (retries
    // rerun training, not data generation).
    const Dataset& data = provider.client_dataset(id, slot);
    for (std::size_t attempt = 0;; ++attempt) {
      if (attempt > 0) {
        ++out.retries;
        out.backoff_s += backoff_seconds(fault_options_, attempt - 1);
      }
      bool failed = attempt < d.fail_attempts;
      if (!failed) {
        Rng client_rng = rng.fork(id);
        const Clock::time_point c0 = Clock::now();
        if (plan_) {
          // Tolerate real exceptions from local training like injected
          // transient failures: they consume the retry budget. The rerun
          // is deterministic — the client stream is re-forked from the id.
          try {
            updates[i] =
                algorithm.local_update(m, global, id, data, client_rng);
          } catch (const std::exception&) {
            failed = true;
          }
        } else {
          updates[i] =
              algorithm.local_update(m, global, id, data, client_rng);
        }
        if (!failed) {
          // Pure wall time; injected delay and backoff are reported
          // separately as ClientObservation::virtual_seconds so the two
          // clocks never mix (DESIGN.md §11).
          updates[i].train_seconds = seconds_since(c0);
          out.kind = d.delay_s > 0.0 ? FaultKind::kStraggler : FaultKind::kOk;
          out.delay_s = d.delay_s;
          break;
        }
      }
      if (attempt >= fault_options_.max_retries) {
        out.kind = FaultKind::kFailed;
        return;
      }
    }
    if (d.corrupt) poison_update(updates[i], d);
  };

  // Intra-op grant: hand idle pool workers to the kernels of the clients
  // that do run. Results stay bit-identical for any thread count because
  // kernel task grids are fixed by problem shape, never by worker count
  // (DESIGN.md §13); the grant only changes who computes each block.
  const auto intra_run = [this](std::size_t tasks,
                                const std::function<void(std::size_t)>& fn) {
    pool_->parallel_for(tasks, fn);
  };

  if (pool_ && n == 1) {
    // Lone straggler: run the single client inline on the caller (which,
    // like the one-thread path, trains on the shared model — local_update
    // rewinds to `global` first) and grant it the whole pool.
    const kernels::ScopedIntraOp intra(intra_run, num_threads_);
    run_client(0, model, slots_[0]);
  } else if (pool_) {
    // Fan out. Each worker lazily clones its own replica the first time it
    // picks up a client; after that only the replica's state is
    // overwritten (local_update starts with set_state(global)). The
    // worker's ClientSlot is equally private to it for the whole round.
    //
    // With fewer clients than workers the spare workers drain nested
    // kernel tasks instead of idling. Safe from deadlock: a nested
    // parallel_for only blocks the issuing worker, and with n < workers at
    // least one worker never holds a client, so the nested queue always
    // drains. Kernels never see a grant on the spare workers themselves
    // (the context is thread-local and not inherited), so nesting stops at
    // depth one.
    const std::size_t spare = n < num_threads_ ? num_threads_ - n : 0;
    pool_->parallel_for(n, [&](std::size_t i) {
      const std::size_t w = ThreadPool::worker_index();
      HS_CHECK(w < replicas_.size() && w < slots_.size(),
               "ClientExecutor: bad worker index");
      if (!replicas_[w]) replicas_[w] = model.clone();
      if (spare > 0) {
        const kernels::ScopedIntraOp intra(intra_run, spare + 1);
        run_client(i, *replicas_[w], slots_[w]);
      } else {
        run_client(i, *replicas_[w], slots_[w]);
      }
    });
  } else {
    for (std::size_t i = 0; i < n; ++i) run_client(i, model, slots_[0]);
  }

  // Disposition pass + event flush, on the caller's thread, in `selected`
  // order — never in completion order — so observers see the same stream
  // for any thread count. Every selected client gets exactly one
  // client_end event; excluded clients carry their fault kind with zero
  // weight (and zeroed loss, so no non-finite value reaches a trace).
  std::size_t dropped = 0, quarantined = 0, straggled = 0, retries = 0;
  double virtual_makespan = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    FaultOutcome& out = outcomes[i];
    retries += out.retries;
    if (usable(out.kind) && !validate_update(updates[i])) {
      out.kind = FaultKind::kQuarantined;
    }
    ClientObservation obs;
    switch (out.kind) {
      case FaultKind::kOk:
      case FaultKind::kStraggler:
        if (out.kind == FaultKind::kStraggler) ++straggled;
        obs = make_observation(updates[i], i);
        obs.virtual_seconds = out.delay_s + out.backoff_s;
        break;
      case FaultKind::kQuarantined:
        ++quarantined;
        obs.client_id = selected[i];
        obs.order = i;
        obs.flags = updates[i].flags;
        obs.update_bytes =
            static_cast<std::size_t>(update_payload_bytes(updates[i]));
        obs.train_seconds = updates[i].train_seconds;
        obs.virtual_seconds = out.delay_s + out.backoff_s;
        break;
      case FaultKind::kDropout:
      case FaultKind::kTimeout:
      case FaultKind::kFailed:
        ++dropped;
        obs.client_id = selected[i];
        obs.order = i;
        // The server stopped waiting at the deadline (timeout) or after the
        // last backoff (failed); a dropout never occupied the timeline.
        obs.virtual_seconds = out.kind == FaultKind::kTimeout
                                  ? fault_options_.timeout_s
                                  : out.backoff_s;
        break;
    }
    obs.fault = static_cast<unsigned>(out.kind);
    virtual_makespan = std::max(virtual_makespan, obs.virtual_seconds);
    ctx.finish_client(obs);
  }

  // Partial aggregation over the survivors, still in `selected` order.
  // With the fault layer off this moves every update unchanged, so the
  // aggregate sees exactly the vector the pre-fault executor built.
  std::vector<ClientUpdate> survivors;
  std::vector<std::size_t> survivor_pos;  // original `selected` positions
  survivors.reserve(n);
  survivor_pos.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!usable(outcomes[i].kind)) continue;
    survivors.push_back(std::move(updates[i]));
    survivor_pos.push_back(i);
  }

  const std::size_t min_clients =
      fault_options_.min_clients > 0 ? fault_options_.min_clients : 1;
  const bool aborted = survivors.size() < min_clients;
  RoundStats stats;
  if (!aborted) {
    stats = edge_groups_ > 0
                ? hierarchical_aggregate(model, algorithm, global, survivors,
                                         survivor_pos, n, edge_groups_)
                : algorithm.aggregate(model, global, survivors);
  } else {
    // Too few usable updates: report the survivors' summary (if any) and
    // leave the global model untouched. On the one-thread path the shared
    // model doubles as the training scratch replica, so "untouched" means
    // restoring the round-entry snapshot explicitly.
    if (!survivors.empty()) {
      stats = summarize_updates(survivors, model.state_size());
    }
    model.set_state(global);
  }
  // Downlink happened for every selected client before any fault fired.
  // Identical to the aggregate's own accounting when nothing was excluded.
  stats.bytes_down = static_cast<std::uint64_t>(n) *
                     static_cast<std::uint64_t>(model.state_size()) *
                     sizeof(float);
  stats.virtual_seconds = virtual_makespan;
  if (plan_ || quarantined > 0 || aborted) {
    stats.extras["fault.dropped"] = static_cast<double>(dropped);
    stats.extras["fault.quarantined"] = static_cast<double>(quarantined);
    stats.extras["fault.stragglers"] = static_cast<double>(straggled);
    stats.extras["fault.retries"] = static_cast<double>(retries);
    stats.extras["fault.aborted"] = aborted ? 1.0 : 0.0;
  }
  if (runtime) {
    runtime->virtual_seconds = virtual_makespan;
    runtime->clients_dropped = dropped;
    runtime->clients_quarantined = quarantined;
    runtime->clients_straggled = straggled;
    runtime->retries = retries;
    runtime->aborted = aborted;
    if (plan_) runtime->fault_outcomes = std::move(outcomes);
  }
  return stats;
}

}  // namespace hetero

#include "runtime/sched/scheduler.h"

#include <algorithm>
#include <chrono>
#include <exception>

namespace hetero {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Kinds whose dispatch eventually yields a trainable update.
bool trainable_kind(FaultKind kind) {
  return kind == FaultKind::kOk || kind == FaultKind::kStraggler;
}

}  // namespace

/// One dispatched client: everything the scheduler fixed at dispatch time
/// (timeline, RNG stream, base snapshot, fault verdict) plus the training
/// product filled in later by exactly one worker. The event timeline is a
/// pure function of the dispatch-time fields, so training can race over
/// wall time without perturbing commit order.
struct EventScheduler::Dispatch {
  std::size_t client_id = 0;
  std::size_t coord = 0;  ///< fault/RNG coordinate (wave index or dispatch seq)
  std::uint64_t version = 0;            ///< server version at dispatch
  std::shared_ptr<const Tensor> base;   ///< state snapshot trained against
  Rng client_rng;                       ///< training stream, fixed at dispatch
  double start_vt = 0.0;
  double end_vt = 0.0;                  ///< terminal-event virtual timestamp
  FaultKind kind = FaultKind::kOk;      ///< verdict (pre-quarantine)
  FaultDecision decision;
  std::size_t retries = 0;
  double backoff_s = 0.0;
  double compute_s = 0.0;
  bool trained = false;
  bool train_failed = false;  ///< organic local_update exception
  ClientUpdate update;
};

EventScheduler::EventScheduler(std::size_t num_threads,
                               const SchedulerOptions& options)
    : options_(options) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  num_threads_ = num_threads;
  if (num_threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(num_threads_);
    replicas_.resize(num_threads_);
  }
  // Materialization arenas persist across training batches and flushes so
  // lazy providers recycle buffers instead of reallocating per client.
  slots_.resize(num_threads_ > 1 ? num_threads_ : 1);
}

EventScheduler::~EventScheduler() = default;

void EventScheduler::set_faults(const FaultOptions& options) {
  fault_options_ = options;
  // Unlike the round executor the plan always exists: even a fault-free
  // scheduled run draws its compute jitter from the same seeded stream.
  plan_ = std::make_unique<FaultPlan>(options);
}

void EventScheduler::set_delay_model(DelayModel model) {
  delay_model_ = std::move(model);
}

void EventScheduler::dispatch_client(std::size_t client, std::size_t coord,
                                     Rng client_rng, double now) {
  Dispatch d;
  d.client_id = client;
  d.coord = coord;
  d.version = version_;
  d.base = base_;
  d.client_rng = client_rng;
  d.start_vt = now;
  d.decision = plan_->decide(coord, client);
  d.compute_s = delay_model_.compute_seconds(client, d.decision.compute_jitter);
  double end = now;
  if (d.decision.drop) {
    d.kind = FaultKind::kDropout;
  } else if (d.decision.fail_attempts > fault_options_.max_retries) {
    d.kind = FaultKind::kFailed;
    d.retries = fault_options_.max_retries;
    d.backoff_s = total_backoff_seconds(fault_options_, d.retries);
    end = now + d.backoff_s;
  } else {
    d.kind = d.decision.delay_s > 0.0 ? FaultKind::kStraggler : FaultKind::kOk;
    d.retries = d.decision.fail_attempts;
    d.backoff_s = total_backoff_seconds(fault_options_, d.retries);
    end = now + d.compute_s + d.decision.delay_s + d.backoff_s;
  }
  // Server-side deadline on the client's total virtual duration: the
  // scheduler stops waiting at start + timeout_s. (The sync executor only
  // measures the injected delay against the deadline — it has no compute
  // model; with base_compute_s == 0 and no retries the two rules agree.)
  if (fault_options_.timeout_s > 0.0 && d.kind != FaultKind::kDropout &&
      end - now > fault_options_.timeout_s) {
    d.kind = FaultKind::kTimeout;
    end = now + fault_options_.timeout_s;
  }
  d.end_vt = end;
  in_flight_[client] = 1;
  dispatches_.push_back(std::move(d));
  queue_.push(end, dispatches_.size() - 1);
}

void EventScheduler::train_pending(Model& model,
                                   const SplitFederatedAlgorithm& algorithm,
                                   const ClientProvider& provider) {
  // Lazy batch training: gather every in-flight dispatch that will need an
  // update and has not trained yet. Training inputs (base snapshot, RNG
  // stream, dataset recipe) were all fixed at dispatch, so the batch
  // composition — which depends only on event order — cannot affect any
  // result.
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < dispatches_.size(); ++i) {
    const Dispatch& d = dispatches_[i];
    if (!d.trained && trainable_kind(d.kind)) pending.push_back(i);
  }
  if (pending.empty()) return;

  const bool tolerate = fault_options_.enabled();
  auto train_one = [&](Dispatch& d, Model& m, ClientSlot& slot) {
    Rng crng = d.client_rng;
    const Dataset& data = provider.client_dataset(d.client_id, slot);
    const Clock::time_point t0 = Clock::now();
    if (tolerate) {
      // Mirror the round executor: with fault injection on, organic
      // exceptions from local training are tolerated and surface as a
      // permanent failure at commit (the timeline is already fixed).
      try {
        d.update = algorithm.local_update(m, *d.base, d.client_id, data, crng);
      } catch (const std::exception&) {
        d.train_failed = true;
      }
    } else {
      d.update = algorithm.local_update(m, *d.base, d.client_id, data, crng);
    }
    d.update.train_seconds = seconds_since(t0);
    if (!d.train_failed && d.decision.corrupt) {
      poison_update(d.update, d.decision);
    }
    d.trained = true;
  };

  if (pool_) {
    pool_->parallel_for(pending.size(), [&](std::size_t j) {
      const std::size_t w = ThreadPool::worker_index();
      HS_CHECK(w < replicas_.size() && w < slots_.size(),
               "EventScheduler: bad worker index");
      if (!replicas_[w]) replicas_[w] = model.clone();
      train_one(dispatches_[pending[j]], *replicas_[w], slots_[w]);
    });
  } else {
    // Serial path trains on a dedicated scratch replica, never the server
    // model: between flushes the server state must stay pristine (in-flight
    // clients hold snapshots; an aborted flush must leave it untouched).
    if (!scratch_) scratch_ = model.clone();
    for (std::size_t j = 0; j < pending.size(); ++j) {
      train_one(dispatches_[pending[j]], *scratch_, slots_[0]);
    }
  }
}

SchedulerRunResult EventScheduler::run(
    Model& model, SplitFederatedAlgorithm& algorithm, std::size_t flushes,
    std::size_t clients_per_round, const ClientProvider& provider,
    Rng& rng, RoundObserver* observer,
    const std::function<void(std::size_t)>& on_flush) {
  const std::size_t N = provider.num_clients();
  const std::size_t k = clients_per_round;
  HS_CHECK(N > 0, "EventScheduler: no clients");
  HS_CHECK(k > 0 && k <= N, "EventScheduler: bad clients_per_round");
  HS_CHECK(options_.wave_sampling || k < N,
           "EventScheduler: continuous refill needs k < population "
           "(every in-flight client blocks resampling); use wave sampling");
  if (!plan_) set_faults(fault_options_);
  if (options_.base_compute_s > 0.0) {
    delay_model_.base_compute_s = options_.base_compute_s;
  }
  const std::size_t flush_every = options_.resolve_buffer(k);
  const std::size_t min_clients =
      fault_options_.min_clients > 0 ? fault_options_.min_clients : 1;

  // Reset run state.
  queue_ = EventQueue{};
  dispatches_.clear();
  in_flight_.assign(N, 0);
  base_ = std::make_shared<const Tensor>(model.state());
  version_ = 0;
  clock_ = 0.0;
  flush_count_ = 0;
  window_.clear();

  // RNG plumbing. Wave sampling consumes the master stream exactly like
  // the sync loop (one sample_without_replacement + one fork per wave), so
  // the degenerate configuration reproduces sync's client streams
  // bit-for-bit. Continuous refill derives per-dispatch streams keyed on
  // (dispatch_seq, client_id) from a forked base, and resamples
  // replacements from a dedicated sampler stream on the coordinator
  // thread, in commit order — deterministic by construction.
  Rng stream_base = rng.fork(0x5CED0001ull, 0x5CED0002ull);
  Rng sampler = rng.fork(0x5CED0003ull, 0x5CED0004ull);
  std::size_t next_seq = 0;  // continuous dispatch coordinate
  std::size_t wave = 0;

  auto sample_wave = [&]() {
    const auto selected = rng.sample_without_replacement(N, k);
    Rng wave_rng = rng.fork(wave);
    for (std::size_t id : selected) {
      dispatch_client(id, wave, wave_rng.fork(id), clock_);
    }
    ++wave;
  };
  auto dispatch_replacement = [&]() {
    std::size_t id = static_cast<std::size_t>(sampler.uniform_int(N));
    while (in_flight_[id]) {
      id = static_cast<std::size_t>(sampler.uniform_int(N));
    }
    dispatch_client(id, next_seq, stream_base.fork(next_seq, id), clock_);
    ++next_seq;
  };

  if (options_.wave_sampling) {
    sample_wave();
  } else {
    for (std::size_t i = 0; i < k; ++i) dispatch_replacement();
  }

  SchedulerRunResult result;
  result.loss_history.reserve(flushes);
  const Clock::time_point run_start = Clock::now();
  Clock::time_point flush_wall_start = run_start;
  double last_flush_clock = 0.0;

  // Commits one terminal dispatch into the current window, resolving its
  // final disposition (organic failure, quarantine).
  auto commit = [&](Dispatch& d) {
    in_flight_[d.client_id] = 0;
    if (trainable_kind(d.kind)) {
      if (d.train_failed) {
        d.kind = FaultKind::kFailed;
      } else if (!validate_update(d.update)) {
        d.kind = FaultKind::kQuarantined;
      }
    }
    d.base.reset();  // snapshots stay O(in-flight), not O(run)
    window_.push_back(&d - dispatches_.data());
  };

  // Flushes the current window: staleness-weighted aggregate (or abort),
  // retroactive round_begin / client_end / round_end emission in commit
  // order, version bump, accounting.
  auto do_flush = [&]() {
    const std::size_t flush_idx = flush_count_;
    std::size_t dropped = 0, quarantined = 0, straggled = 0, retries = 0;
    std::vector<std::size_t> usable;
    usable.reserve(window_.size());
    for (std::size_t ix : window_) {
      const Dispatch& d = dispatches_[ix];
      retries += d.retries;
      switch (d.kind) {
        case FaultKind::kOk: usable.push_back(ix); break;
        case FaultKind::kStraggler:
          ++straggled;
          usable.push_back(ix);
          break;
        case FaultKind::kQuarantined: ++quarantined; break;
        case FaultKind::kDropout:
        case FaultKind::kTimeout:
        case FaultKind::kFailed: ++dropped; break;
      }
    }
    const bool aborted = usable.size() < min_clients;

    // Staleness accounting and weight scaling happen against the PRE-flush
    // version; an aborted flush never scales (nothing aggregates) and
    // never bumps the version, so a client dispatched during an aborted
    // window keeps staleness 0 relative to the unchanged model.
    double stale_sum = 0.0;
    std::size_t stale_max = 0;
    for (std::size_t ix : usable) {
      Dispatch& d = dispatches_[ix];
      const std::size_t s = static_cast<std::size_t>(version_ - d.version);
      stale_sum += static_cast<double>(s);
      stale_max = std::max(stale_max, s);
      if (!aborted) {
        const double f =
            algorithm.staleness_weight(s, options_.staleness_exponent);
        if (f != 1.0) d.update.weight *= f;
      }
    }

    // Retroactive telemetry: the window's membership is only known now, so
    // the scheduler emits the whole round_begin / client_end / round_end
    // frame at flush time, in commit order (trace_check's structural
    // invariants hold unchanged; `order` is the commit position).
    RoundContext ctx;
    ctx.round = flush_idx;
    ctx.observer = observer;
    if (observer) {
      std::vector<std::size_t> ids;
      ids.reserve(window_.size());
      for (std::size_t ix : window_) ids.push_back(dispatches_[ix].client_id);
      observer->on_round_begin(flush_idx, ids);
    }
    for (std::size_t order = 0; order < window_.size(); ++order) {
      Dispatch& d = dispatches_[window_[order]];
      ClientObservation obs;
      switch (d.kind) {
        case FaultKind::kOk:
        case FaultKind::kStraggler:
          obs = make_observation(d.update, order);
          break;
        case FaultKind::kQuarantined:
          obs.client_id = d.client_id;
          obs.order = order;
          obs.flags = d.update.flags;
          obs.update_bytes =
              static_cast<std::size_t>(update_payload_bytes(d.update));
          obs.train_seconds = d.update.train_seconds;
          break;
        case FaultKind::kDropout:
        case FaultKind::kTimeout:
        case FaultKind::kFailed:
          obs.client_id = d.client_id;
          obs.order = order;
          break;
      }
      obs.fault = static_cast<unsigned>(d.kind);
      obs.virtual_seconds = d.end_vt - d.start_vt;
      obs.scheduled = true;
      obs.virtual_time = d.end_vt;
      obs.version = d.version;
      obs.staleness = static_cast<std::size_t>(version_ - d.version);
      ctx.finish_client(obs);
    }

    RoundStats stats;
    if (!aborted) {
      std::vector<ClientUpdate> updates;
      updates.reserve(usable.size());
      for (std::size_t ix : usable) {
        updates.push_back(std::move(dispatches_[ix].update));
      }
      // The aggregate's reference state is the server's CURRENT state (the
      // FedAsync convention), not any client's dispatch snapshot — stale
      // clients trained against older versions, which is exactly what the
      // staleness decay discounts.
      const Tensor pre = model.state();
      stats = algorithm.aggregate(model, pre, updates);
      if (options_.mix_alpha != 1.0) {
        // Server mixing: x <- (1 - alpha) * x_prev + alpha * x_agg.
        Tensor mixed = model.state();
        const float a = static_cast<float>(options_.mix_alpha);
        for (std::size_t i = 0; i < mixed.size(); ++i) {
          mixed[i] = (1.0f - a) * pre[i] + a * mixed[i];
        }
        model.set_state(mixed);
      }
      ++version_;
      base_ = std::make_shared<const Tensor>(model.state());
      result.updates_committed += usable.size();
    } else {
      if (!usable.empty()) {
        std::vector<ClientUpdate> survivors;
        survivors.reserve(usable.size());
        for (std::size_t ix : usable) {
          survivors.push_back(std::move(dispatches_[ix].update));
        }
        stats = summarize_updates(survivors, model.state_size());
      }
      ++result.flushes_aborted;
    }
    stats.round_seconds = seconds_since(flush_wall_start);
    stats.virtual_seconds = clock_ - last_flush_clock;
    stats.bytes_down = static_cast<std::uint64_t>(window_.size()) *
                       static_cast<std::uint64_t>(model.state_size()) *
                       sizeof(float);
    if (fault_options_.enabled() || dropped > 0 || quarantined > 0 ||
        aborted) {
      stats.extras["fault.dropped"] = static_cast<double>(dropped);
      stats.extras["fault.quarantined"] = static_cast<double>(quarantined);
      stats.extras["fault.stragglers"] = static_cast<double>(straggled);
      stats.extras["fault.retries"] = static_cast<double>(retries);
      stats.extras["fault.aborted"] = aborted ? 1.0 : 0.0;
    }
    stats.extras["sched.staleness_max"] = static_cast<double>(stale_max);
    stats.extras["sched.staleness_mean"] =
        usable.empty() ? 0.0 : stale_sum / static_cast<double>(usable.size());
    stats.extras["sched.version"] = static_cast<double>(version_);
    stats.extras["sched.vt"] = clock_;
    if (observer) observer->on_round_end(flush_idx, stats);

    result.loss_history.push_back(stats.mean_train_loss);
    result.flush_seconds.push_back(stats.round_seconds);
    result.flush_virtual_seconds.push_back(stats.virtual_seconds);
    result.client_seconds_sum += ctx.client_seconds_sum;
    result.client_seconds_max =
        std::max(result.client_seconds_max, ctx.client_seconds_max);
    result.clients_dropped += dropped;
    result.clients_quarantined += quarantined;
    result.clients_straggled += straggled;
    result.fault_retries += retries;
    result.staleness_sum += stale_sum;
    result.staleness_max = std::max(result.staleness_max, stale_max);

    window_.clear();
    ++flush_count_;
    last_flush_clock = clock_;
    flush_wall_start = Clock::now();
  };

  // The event loop: pop the next terminal event, lazily train whatever is
  // pending the first time a trained update is needed, commit in event
  // order, keep the in-flight set full, flush every `flush_every` commits.
  while (flush_count_ < flushes) {
    HS_CHECK(!queue_.empty(), "EventScheduler: event queue drained early");
    const SchedEvent ev = queue_.pop();
    clock_ = std::max(clock_, ev.time);
    Dispatch& d = dispatches_[ev.dispatch];
    if (trainable_kind(d.kind) && !d.trained) {
      train_pending(model, algorithm, provider);
    }
    commit(d);
    if (!options_.wave_sampling) dispatch_replacement();
    if (window_.size() >= flush_every) {
      do_flush();
      if (on_flush) on_flush(flush_count_);
      if (options_.wave_sampling && flush_count_ < flushes) sample_wave();
    }
  }

  result.clients_dispatched = dispatches_.size();
  result.virtual_seconds = clock_;
  result.total_seconds = seconds_since(run_start);
  return result;
}

}  // namespace hetero

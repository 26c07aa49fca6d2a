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

/// The run's fault options, with device-tier straggler scaling read lazily
/// from the provider (never an O(N) table, so million-client providers
/// work unchanged).
FaultOptions plan_options(const SimulationConfig& cfg,
                          const ClientProvider& provider) {
  FaultOptions faults = cfg.faults;
  if (faults.device_tier_delays) {
    faults.delay_scale_fn = [&provider](std::size_t client) {
      return provider.speed_scale_of(client);
    };
  }
  return faults;
}

}  // namespace

/// One dispatched client: everything the scheduler fixed at dispatch time
/// (timeline, RNG stream, base snapshot, fault verdict) plus the training
/// product filled in later by exactly one worker. The event timeline is a
/// pure function of the dispatch-time fields, so training can race over
/// wall time without perturbing the fold order.
struct EventScheduler::Dispatch {
  std::size_t client_id = 0;
  std::uint64_t version = 0;            ///< server version at dispatch
  std::shared_ptr<const Tensor> base;   ///< state snapshot trained against
  Rng client_rng;                       ///< training stream, fixed at dispatch
  double start_vt = 0.0;
  double end_vt = 0.0;                  ///< terminal-event virtual timestamp
  double duration = 0.0;                ///< virtual seconds the verdict costs
  FaultKind kind = FaultKind::kOk;      ///< verdict (pre-quarantine)
  FaultDecision decision;
  std::size_t retries = 0;
  std::size_t coord = 0;     ///< fault-plan coordinate (wave under waves)
  std::size_t position = 0;  ///< index in its wave's selection
  bool trained = false;
  bool train_failed = false;  ///< organic local_update exception
  bool quarantined = false;   ///< a remote edge's validation verdict
  ClientUpdate update;
};

EventScheduler::EventScheduler(const SimulationConfig& cfg,
                               const ClientProvider& provider,
                               RemoteTrainStep* remote)
    : cfg_(cfg),
      provider_(provider),
      remote_(remote),
      fault_options_(plan_options(cfg, provider)),
      plan_(fault_options_),
      one_wave_(cfg.sched.one_wave(cfg.clients_per_round)) {
  std::size_t num_threads = remote ? 1 : cfg.num_threads;
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
  slots_.resize(num_threads_);
  delay_model_.base_compute_s = cfg.sched.base_compute_s;
  delay_model_.jitter_frac = 0.1;
  delay_model_.provider = &provider;
}

EventScheduler::~EventScheduler() = default;

std::size_t EventScheduler::dispatch_client(std::size_t client,
                                            std::size_t coord, Rng client_rng,
                                            double now) {
  std::size_t ix = dispatches_.size();
  if (free_.empty()) {
    dispatches_.emplace_back();
  } else {
    ix = free_.back();
    free_.pop_back();
  }
  Dispatch& d = dispatches_[ix];
  d.client_id = client;
  d.version = version_;
  d.base = base_;
  d.client_rng = client_rng;
  d.start_vt = now;
  d.decision = plan_.decide(coord, client);
  d.coord = coord;
  d.trained = false;
  d.train_failed = false;
  d.quarantined = false;

  // The fault rule (DESIGN.md §10), in this order: dropout; timeout when
  // compute plus straggler delay exceeds the deadline (retry backoff does
  // not count); failure when the retries run out; else ok or straggler.
  const FaultDecision& dec = d.decision;
  const FaultOptions& fo = fault_options_;
  const double compute =
      delay_model_.compute_seconds(client, dec.compute_jitter);
  double backoff = 0.0;
  d.retries = 0;
  if (dec.drop) {
    d.kind = FaultKind::kDropout;
    d.duration = 0.0;
  } else if (fo.timeout_s > 0.0 && compute + dec.delay_s > fo.timeout_s) {
    d.kind = FaultKind::kTimeout;
    d.duration = fo.timeout_s;
  } else if (dec.fail_attempts > fo.max_retries) {
    d.kind = FaultKind::kFailed;
    d.retries = fo.max_retries;
    d.duration = total_backoff_seconds(fo, d.retries);
  } else {
    d.kind = dec.delay_s > 0.0 ? FaultKind::kStraggler : FaultKind::kOk;
    d.retries = dec.fail_attempts;
    backoff = total_backoff_seconds(fo, d.retries);
    d.duration = compute + dec.delay_s + backoff;
  }
  // One-wave windows advance the clock by whole durations, so it reads the
  // summed round makespans; other windows keep the clock's own rounding.
  d.end_vt = one_wave_ || !trainable_kind(d.kind)
                 ? now + d.duration
                 : now + compute + dec.delay_s + backoff;
  if (trainable_kind(d.kind)) untrained_.push_back(ix);
  in_flight_.insert(client);
  queue_.push(d.end_vt, ix);
  return ix;
}

void EventScheduler::train_pending(const Model& model,
                                   const SplitFederatedAlgorithm& algorithm) {
  // Lazy batch training of every trainable dispatch not trained yet.
  // Training inputs (base snapshot, RNG stream, dataset recipe) were all
  // fixed at dispatch, so the batch composition — which depends only on
  // event order — cannot affect any result.
  if (remote_) {
    // Under wave sampling the batch is whole waves in dispatch order (more
    // than one when windows are smaller than a wave); each goes out alone,
    // against the one base all its clients were dispatched with.
    for (std::size_t begin = 0, end = 0; begin < untrained_.size();
         begin = end) {
      const Dispatch& first = dispatches_[untrained_[begin]];
      std::vector<RemoteClient> wave;
      for (; end < untrained_.size() &&
             dispatches_[untrained_[end]].coord == first.coord;
           ++end) {
        const Dispatch& d = dispatches_[untrained_[end]];
        wave.push_back({d.client_id, d.position, d.client_rng.save_state(),
                        d.decision.corrupt,
                        static_cast<std::uint8_t>(d.decision.corrupt_kind),
                        d.decision.corrupt_pos});
      }
      RemoteWave out;
      remote_->train(first.coord, cfg_.clients_per_round, *first.base, wave,
                     out);
      HS_CHECK(out.updates.size() == wave.size(),
               "EventScheduler: remote step lost updates");
      for (std::size_t j = 0; j < wave.size(); ++j) {
        Dispatch& d = dispatches_[untrained_[begin + j]];
        d.update = std::move(out.updates[j]);
        d.quarantined = !out.quarantined.empty() && out.quarantined[j] != 0;
        d.trained = true;
      }
      digests_ = std::move(out.digests);
    }
    untrained_.clear();
    return;
  }
  const bool tolerate = fault_options_.enabled();
  auto train_one = [&](Dispatch& d, Model& m, ClientSlot& slot) {
    Rng crng = d.client_rng;
    const Dataset& data = provider_.client_dataset(d.client_id, slot);
    const Clock::time_point t0 = Clock::now();
    if (tolerate) {
      // With fault injection on, organic exceptions from local training
      // are tolerated and surface as a permanent failure at commit (the
      // timeline is already fixed).
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

  if (!pool_) {
    // The serial path: train on a scratch replica, never the server model
    // (in-flight clients hold snapshots; an aborted flush must leave it
    // untouched).
    if (!scratch_) scratch_ = model.clone();
    for (std::size_t ix : untrained_) {
      train_one(dispatches_[ix], *scratch_, slots_[0]);
    }
  } else {
    // Each worker lazily clones its own replica the first time it picks up
    // a client and keeps its ClientSlot private.
    pool_->parallel_for(untrained_.size(), [&](std::size_t j) {
      const std::size_t w = ThreadPool::worker_index();
      HS_CHECK(w < replicas_.size() && w < slots_.size(),
               "EventScheduler: bad worker index");
      if (!replicas_[w]) replicas_[w] = model.clone();
      train_one(dispatches_[untrained_[j]], *replicas_[w], slots_[w]);
    });
  }
  untrained_.clear();
}

DeviceMetrics EventScheduler::evaluate(Model& model) {
  if (!pool_) return evaluate_per_device(model, provider_);
  // Replicas are cloned lazily, as for training, and may hold any earlier
  // state: local_update starts from set_state(global) (DESIGN.md §7 rule
  // 2), so overwriting them here costs training nothing.
  DeviceEval eval(provider_.device_test());
  const Tensor state = model.state();
  std::vector<std::uint8_t> synced(replicas_.size(), 0);
  pool_->parallel_for(eval.tasks(), [&](std::size_t t) {
    const std::size_t w = ThreadPool::worker_index();
    HS_CHECK(w < replicas_.size(), "EventScheduler: bad worker index");
    if (!replicas_[w]) replicas_[w] = model.clone();
    if (!synced[w]) {
      replicas_[w]->set_state(state);
      synced[w] = 1;
    }
    eval.run(t, *replicas_[w]);
  });
  return eval.metrics();
}

void EventScheduler::run(Model& model, SplitFederatedAlgorithm& algorithm,
                         Rng& rng, SimulationResult& result,
                         const std::function<void(std::size_t)>& on_flush) {
  const std::size_t N = provider_.num_clients();
  const std::size_t k = cfg_.clients_per_round;
  const SchedulerOptions& options = cfg_.sched;
  const bool waves = options.waves();
  HS_CHECK(waves || k < N,
           "EventScheduler: continuous refill needs k < population "
           "(every in-flight client blocks resampling); use wave sampling");
  const std::size_t flush_every = options.resolve_buffer(k);
  const std::size_t min_clients =
      fault_options_.min_clients > 0 ? fault_options_.min_clients : 1;
  RuntimeStats& rt = result.runtime;
  rt.threads = num_threads_;

  // Run state. A resumed result continues at its flush count, clock and
  // version (one flush per wave, one version per committed flush).
  std::size_t flush_count = result.train_loss_history.size();
  if (flush_count >= cfg_.rounds) return;
  queue_ = EventQueue{};
  dispatches_.clear();
  free_.clear();
  untrained_.clear();
  in_flight_.clear();
  window_.clear();
  base_ = std::make_shared<const Tensor>(model.state());
  version_ = flush_count - rt.rounds_aborted;
  clock_ = rt.virtual_seconds;
  result.train_loss_history.reserve(cfg_.rounds);
  rt.round_seconds.reserve(cfg_.rounds - flush_count);
  // This process's share; only one-wave runs resume, and their updates
  // are never stale.
  double staleness_sum = 0.0;

  // Window bookkeeping: wall clock and population counters at its start.
  Clock::time_point window_start;
  PopulationCounters pop_mark;
  const bool has_pop = provider_.population_counters(pop_mark);
  auto start_window = [&]() {
    window_start = Clock::now();
    if (has_pop) provider_.population_counters(pop_mark);
  };

  // RNG plumbing. Wave sampling consumes the master stream with one
  // sample_without_replacement + one fork per wave, so client streams are
  // rng.fork(wave).fork(id). Continuous refill
  // derives per-dispatch streams keyed on (dispatch_seq, client_id) from a
  // forked base, and resamples replacements from a dedicated sampler
  // stream on the coordinator thread, in commit order.
  Rng stream_base = rng.fork(0x5CED0001ull, 0x5CED0002ull);
  Rng sampler = rng.fork(0x5CED0003ull, 0x5CED0004ull);
  std::size_t next_seq = 0;  // continuous dispatch coordinate
  std::size_t wave = flush_count;

  auto sample_wave = [&]() {
    const auto selected = rng.sample_without_replacement(N, k);
    Rng wave_rng = rng.fork(wave);
    if (one_wave_) {
      start_window();
      if (cfg_.observer) cfg_.observer->on_round_begin(flush_count, selected);
    }
    for (std::size_t pos = 0; pos < k; ++pos) {
      const std::size_t id = selected[pos];
      const std::size_t ix = dispatch_client(id, wave, wave_rng.fork(id),
                                             clock_);
      dispatches_[ix].position = pos;
      if (one_wave_) window_.push_back(ix);
    }
    rt.clients_dispatched += k;
    ++wave;
  };
  auto dispatch_replacement = [&]() {
    std::size_t id = static_cast<std::size_t>(sampler.uniform_int(N));
    while (in_flight_.count(id)) {
      id = static_cast<std::size_t>(sampler.uniform_int(N));
    }
    dispatch_client(id, next_seq, stream_base.fork(next_seq, id), clock_);
    ++rt.clients_dispatched;
    ++next_seq;
  };

  start_window();
  if (waves) {
    sample_wave();
  } else {
    for (std::size_t i = 0; i < k; ++i) dispatch_replacement();
  }
  double last_flush_clock = clock_;
  std::size_t window_commits = 0;

  // Resolves one terminal dispatch's final disposition (organic failure,
  // quarantine) and commits it to the current window.
  auto commit = [&](std::size_t ix) {
    Dispatch& d = dispatches_[ix];
    in_flight_.erase(d.client_id);
    if (trainable_kind(d.kind)) {
      if (d.train_failed) {
        d.kind = FaultKind::kFailed;
      } else if (d.quarantined || !validate_update(d.update)) {
        d.kind = FaultKind::kQuarantined;
      }
    }
    d.base.reset();  // snapshots stay O(in-flight), not O(run)
    if (!one_wave_) window_.push_back(ix);
    ++window_commits;
  };

  // Flushes the current window: staleness-weighted aggregate or edge fold
  // (or abort), the window's client_end / round_end events, version bump,
  // accounting, and recycling of the window's records.
  auto do_flush = [&]() {
    std::size_t dropped = 0, quarantined = 0, straggled = 0, retries = 0;
    double max_duration = 0.0;
    std::vector<std::size_t> usable;  // window positions
    usable.reserve(window_.size());
    for (std::size_t pos = 0; pos < window_.size(); ++pos) {
      const Dispatch& d = dispatches_[window_[pos]];
      retries += d.retries;
      max_duration = std::max(max_duration, d.duration);
      switch (d.kind) {
        case FaultKind::kOk: usable.push_back(pos); break;
        case FaultKind::kStraggler:
          ++straggled;
          usable.push_back(pos);
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
    for (std::size_t pos : usable) {
      Dispatch& d = dispatches_[window_[pos]];
      const std::size_t s = static_cast<std::size_t>(version_ - d.version);
      stale_sum += static_cast<double>(s);
      stale_max = std::max(stale_max, s);
      if (!aborted) {
        const double f =
            algorithm.staleness_weight(s, options.staleness_exponent);
        if (f != 1.0) d.update.weight *= f;
      }
    }

    // Telemetry. Unless the window is one wave, its membership is only
    // known now, so its round_begin is emitted retroactively; `order` is
    // the position in the window (selection order for one wave, commit
    // order otherwise). The vt / version / staleness provenance is only traced
    // for scheduled modes. The window's client wall times are summed on
    // their own and then added to RuntimeStats::client_seconds_*: perfbench
    // reconciles client_seconds_sum, so that grouping of the adds is kept.
    double client_seconds_sum = 0.0;
    double client_seconds_max = 0.0;
    if (cfg_.observer && !one_wave_) {
      std::vector<std::size_t> ids;
      ids.reserve(window_.size());
      for (std::size_t ix : window_) ids.push_back(dispatches_[ix].client_id);
      cfg_.observer->on_round_begin(flush_count, ids);
    }
    for (std::size_t order = 0; order < window_.size(); ++order) {
      const Dispatch& d = dispatches_[window_[order]];
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
      obs.virtual_seconds = one_wave_ ? d.duration : d.end_vt - d.start_vt;
      obs.scheduled = options.scheduled();
      obs.virtual_time = d.end_vt;
      obs.version = d.version;
      obs.staleness = static_cast<std::size_t>(version_ - d.version);
      client_seconds_sum += obs.train_seconds;
      client_seconds_max = std::max(client_seconds_max, obs.train_seconds);
      if (cfg_.observer) cfg_.observer->on_client_end(flush_count, obs);
    }

    RoundStats stats;
    {
      std::vector<ClientUpdate> updates;
      std::vector<std::size_t> positions;
      updates.reserve(usable.size());
      positions.reserve(usable.size());
      for (std::size_t pos : usable) {
        updates.push_back(std::move(dispatches_[window_[pos]].update));
        positions.push_back(pos);
      }
      if (!aborted) {
        // The aggregate's reference state is the server's CURRENT state
        // (the FedAsync convention), not any client's dispatch snapshot —
        // stale clients trained against older versions, which is exactly
        // what the staleness decay discounts. base_ is that state: the
        // model only changes here.
        const std::shared_ptr<const Tensor> pre = base_;
        if (cfg_.edge_groups == 0) {
          stats = algorithm.aggregate(model, *pre, updates);
        } else if (remote_) {
          // Remote edges folded their blocks; `updates` are scalar stubs.
          stats = summarize_updates(updates, model.state_size());
          aggregate_digests(model, algorithm, *pre, digests_,
                            cfg_.edge_groups, stats);
        } else {
          stats = hierarchical_aggregate(model, algorithm, *pre, updates,
                                         positions, window_.size(),
                                         cfg_.edge_groups);
        }
        if (options.mix_alpha != 1.0) {
          // Server mixing: x <- (1 - alpha) * x_prev + alpha * x_agg.
          Tensor mixed = model.state();
          const float a = static_cast<float>(options.mix_alpha);
          for (std::size_t i = 0; i < mixed.size(); ++i) {
            mixed[i] = (1.0f - a) * (*pre)[i] + a * mixed[i];
          }
          model.set_state(mixed);
        }
        ++version_;
        base_ = std::make_shared<const Tensor>(model.state());
        rt.updates_committed += usable.size();
      } else {
        if (!updates.empty()) {
          stats = summarize_updates(updates, model.state_size());
        }
        ++rt.rounds_aborted;
      }
    }
    // Recycle the window's records, payloads included (quarantined updates
    // keep their tensors until here), inside the flush's wall time.
    for (std::size_t ix : window_) {
      dispatches_[ix].update = ClientUpdate{};
      free_.push_back(ix);
    }
    digests_.clear();
    stats.round_seconds = seconds_since(window_start);
    stats.virtual_seconds =
        one_wave_ ? max_duration : clock_ - last_flush_clock;
    // Downlink happened for every window member before any fault fired.
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
    if (options.scheduled()) {
      stats.extras["sched.staleness_max"] = static_cast<double>(stale_max);
      stats.extras["sched.staleness_mean"] =
          usable.empty() ? 0.0
                         : stale_sum / static_cast<double>(usable.size());
      stats.extras["sched.version"] = static_cast<double>(version_);
      stats.extras["sched.vt"] = clock_;
    }
    if (has_pop) {
      // This window's materialization deltas, read on the coordinator
      // thread while no worker materializes.
      PopulationCounters now;
      provider_.population_counters(now);
      stats.extras["pop.materializations"] = static_cast<double>(
          now.materializations - pop_mark.materializations);
      stats.extras["pop.gen_seconds"] = now.gen_seconds - pop_mark.gen_seconds;
    }
    if (cfg_.observer) cfg_.observer->on_round_end(flush_count, stats);

    result.train_loss_history.push_back(stats.mean_train_loss);
    rt.round_seconds.push_back(stats.round_seconds);
    rt.total_seconds += stats.round_seconds;
    rt.round_virtual_seconds.push_back(stats.virtual_seconds);
    rt.client_seconds_sum += client_seconds_sum;
    rt.client_seconds_max = std::max(rt.client_seconds_max, client_seconds_max);
    rt.clients_dropped += dropped;
    rt.clients_quarantined += quarantined;
    rt.clients_straggled += straggled;
    rt.fault_retries += retries;
    staleness_sum += stale_sum;
    rt.staleness_max = std::max(rt.staleness_max, stale_max);

    window_.clear();
    window_commits = 0;
    ++flush_count;
    last_flush_clock = clock_;
    start_window();
  };

  // The event loop: pop the next terminal event, lazily train whatever is
  // pending the first time a trained update is needed, commit, keep the
  // in-flight set full, flush every `flush_every` commits.
  while (flush_count < cfg_.rounds) {
    HS_CHECK(!queue_.empty(), "EventScheduler: event queue drained early");
    const SchedEvent ev = queue_.pop();
    clock_ = std::max(clock_, ev.time);
    const Dispatch& d = dispatches_[ev.dispatch];
    if (trainable_kind(d.kind) && !d.trained) train_pending(model, algorithm);
    commit(ev.dispatch);
    if (!waves) dispatch_replacement();
    if (window_commits >= flush_every) {
      do_flush();
      if (on_flush) on_flush(flush_count);
      if (waves && flush_count < cfg_.rounds) sample_wave();
    }
  }

  rt.virtual_seconds = clock_;
  rt.staleness_mean =
      rt.updates_committed > 0
          ? staleness_sum / static_cast<double>(rt.updates_committed)
          : 0.0;
}

}  // namespace hetero

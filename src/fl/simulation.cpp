#include "fl/simulation.h"

#include "fl/eval.h"
#include "runtime/client_executor.h"
#include "runtime/sched/scheduler.h"
#include "util/rng.h"
#include "util/stats.h"

namespace hetero {
namespace {

/// Runs the async/buffered virtual-clock scheduler (DESIGN.md §11) and
/// maps its accounting into SimulationResult. `rounds` counts server
/// flushes; eval checkpoints fire on the same eval_every grid as sync.
SimulationResult run_scheduled(Model& model,
                               SplitFederatedAlgorithm& algorithm,
                               const ClientProvider& population,
                               const SimulationConfig& cfg) {
  RoundObserver* observer = cfg.observer;
  EventScheduler sched(cfg.num_threads, cfg.sched);

  FaultOptions faults = cfg.faults;
  if (faults.device_tier_delays) {
    // Lazy per-client scale: identical values to the old O(N) table
    // (device_speed_scale indexed through the client's device), but never
    // materialized, so it works unchanged for million-client providers.
    faults.delay_scale_fn = [&population](std::size_t client) {
      return population.speed_scale_of(client);
    };
  }
  sched.set_faults(faults);

  DelayModel delays;
  delays.base_compute_s = cfg.sched.base_compute_s;
  delays.jitter_frac = 0.1;
  delays.provider = &population;
  sched.set_delay_model(std::move(delays));

  SimulationResult result;
  auto on_flush = [&](std::size_t done) {
    if (cfg.eval_every > 0 && done % cfg.eval_every == 0 &&
        done < cfg.rounds) {
      DeviceMetrics checkpoint = evaluate_per_device(model, population);
      if (observer) observer->on_eval(done, checkpoint);
      result.checkpoints.emplace_back(done, std::move(checkpoint));
    }
  };

  Rng rng(cfg.seed);
  algorithm.init(model, population.num_clients());
  SchedulerRunResult run =
      sched.run(model, algorithm, cfg.rounds, cfg.clients_per_round, population,
                rng, observer, on_flush);

  result.train_loss_history = std::move(run.loss_history);
  RuntimeStats& rt = result.runtime;
  rt.threads = sched.num_threads();
  rt.total_seconds = run.total_seconds;
  rt.round_seconds = std::move(run.flush_seconds);
  rt.virtual_seconds = run.virtual_seconds;
  rt.round_virtual_seconds = std::move(run.flush_virtual_seconds);
  rt.client_seconds_sum = run.client_seconds_sum;
  rt.client_seconds_max = run.client_seconds_max;
  rt.clients_dropped = run.clients_dropped;
  rt.clients_quarantined = run.clients_quarantined;
  rt.clients_straggled = run.clients_straggled;
  rt.fault_retries = run.fault_retries;
  rt.rounds_aborted = run.flushes_aborted;
  rt.clients_dispatched = run.clients_dispatched;
  rt.updates_committed = run.updates_committed;
  rt.staleness_max = run.staleness_max;
  rt.staleness_mean =
      run.updates_committed > 0
          ? run.staleness_sum / static_cast<double>(run.updates_committed)
          : 0.0;
  return result;
}

DeviceMetrics evaluate_device_tests(Model& model,
                                    const std::vector<Dataset>& tests) {
  HS_CHECK(!tests.empty(), "evaluate_per_device: no test sets");
  DeviceMetrics m;
  m.per_device.reserve(tests.size());
  for (const Dataset& test : tests) {
    const double v = test.is_multi_label()
                         ? evaluate_average_precision(model, test)
                         : evaluate_accuracy(model, test);
    m.per_device.push_back(v);
  }
  m.average = mean(m.per_device);
  m.variance = variance(m.per_device);
  m.worst_case = min_value(m.per_device);
  return m;
}

/// Deterministic run counters persisted in a checkpoint; wall-clock fields
/// are deliberately absent (they are not replayable).
void save_runtime_counters(const RuntimeStats& rt,
                           std::map<std::string, double>& out) {
  out["dropped"] = static_cast<double>(rt.clients_dropped);
  out["quarantined"] = static_cast<double>(rt.clients_quarantined);
  out["straggled"] = static_cast<double>(rt.clients_straggled);
  out["retries"] = static_cast<double>(rt.fault_retries);
  out["aborted"] = static_cast<double>(rt.rounds_aborted);
}

void load_runtime_counters(const std::map<std::string, double>& in,
                           RuntimeStats& rt) {
  auto get = [&](const char* key) {
    const auto it = in.find(key);
    return it != in.end() ? it->second : 0.0;
  };
  rt.clients_dropped = static_cast<std::size_t>(get("dropped"));
  rt.clients_quarantined = static_cast<std::size_t>(get("quarantined"));
  rt.clients_straggled = static_cast<std::size_t>(get("straggled"));
  rt.fault_retries = static_cast<std::size_t>(get("retries"));
  rt.rounds_aborted = static_cast<std::size_t>(get("aborted"));
}

}  // namespace

DeviceMetrics evaluate_per_device(Model& model, const ClientProvider& pop) {
  return evaluate_device_tests(model, pop.device_test());
}

SimulationResult run_simulation(Model& model,
                                SplitFederatedAlgorithm& algorithm,
                                const ClientProvider& population,
                                const SimulationConfig& cfg) {
  // The provider interface carries N through num_clients(), so the sync
  // loop, the scheduler, and the fault layer all size off one value here —
  // the per-path size checks this block replaces lived in each branch.
  const std::size_t num_clients = population.num_clients();
  HS_CHECK(num_clients > 0, "run_simulation: no clients");
  HS_CHECK(cfg.clients_per_round > 0 && cfg.clients_per_round <= num_clients,
           "run_simulation: bad clients_per_round");

  RoundObserver* observer = cfg.observer;

  if (cfg.sched.scheduled()) {
    // Async / buffered modes run on the virtual-clock event scheduler.
    // Sync deliberately does NOT: the loop below is the original path, so
    // sync output stays byte-identical to pre-scheduler builds.
    HS_CHECK(!cfg.checkpoint.enabled(),
             "run_simulation: checkpoint/resume supports the sync loop only");
    HS_CHECK(cfg.edge_groups == 0,
             "run_simulation: edge aggregation supports the sync loop only");
    SimulationResult result =
        run_scheduled(model, algorithm, population, cfg);
    result.final_metrics = evaluate_per_device(model, population);
    if (observer) observer->on_eval(cfg.rounds, result.final_metrics);
    return result;
  }

  Rng rng(cfg.seed);
  algorithm.init(model, num_clients);
  ClientExecutor executor(cfg.num_threads);
  FaultOptions faults = cfg.faults;
  if (faults.device_tier_delays) {
    faults.delay_scale_fn = [&population](std::size_t client) {
      return population.speed_scale_of(client);
    };
  }
  executor.set_faults(faults);
  executor.set_edge_groups(cfg.edge_groups);

  SimulationResult result;
  std::size_t start_round = 0;
  if (cfg.checkpoint.enabled() && cfg.checkpoint.resume) {
    SimulationCheckpoint ck;
    if (read_checkpoint(checkpoint_path(cfg.checkpoint), ck)) {
      // Resume only a run with the same identity: the checkpointed streams
      // and histories are meaningless under a different configuration.
      HS_CHECK(ck.seed == cfg.seed,
               "run_simulation: checkpoint seed mismatch");
      HS_CHECK(ck.num_clients == num_clients,
               "run_simulation: checkpoint population size mismatch");
      HS_CHECK(ck.clients_per_round == cfg.clients_per_round,
               "run_simulation: checkpoint clients_per_round mismatch");
      HS_CHECK(ck.algorithm == algorithm.name(),
               "run_simulation: checkpoint algorithm mismatch");
      HS_CHECK(ck.model_state.size() == model.state_size(),
               "run_simulation: checkpoint model size mismatch");
      model.set_state(ck.model_state);
      algorithm.load_state(ck.algo);  // after init(): state is sized
      rng.restore_state(ck.rng);
      start_round = static_cast<std::size_t>(ck.next_round);
      result.train_loss_history = std::move(ck.loss_history);
      result.runtime.round_virtual_seconds =
          std::move(ck.round_virtual_seconds);
      for (double v : result.runtime.round_virtual_seconds) {
        result.runtime.virtual_seconds += v;
      }
      load_runtime_counters(ck.counters, result.runtime);
    }
  }

  result.train_loss_history.reserve(cfg.rounds);
  result.runtime.threads = executor.num_threads();
  result.runtime.round_seconds.reserve(
      cfg.rounds > start_round ? cfg.rounds - start_round : 0);
  // Provider counters are cumulative over the provider's lifetime (it may
  // back several runs); report this run's share as a delta.
  PopulationCounters pop_begin;
  const bool has_pop_counters = population.population_counters(pop_begin);
  for (std::size_t round = start_round; round < cfg.rounds; ++round) {
    const auto selected =
        rng.sample_without_replacement(num_clients, cfg.clients_per_round);
    Rng round_rng = rng.fork(round);
    RoundRuntime round_runtime;
    RoundContext ctx;
    ctx.round = round;
    ctx.observer = observer;
    const RoundStats stats =
        executor.run_round(model, algorithm, selected, population, round_rng,
                           &round_runtime, &ctx);
    result.runtime.round_seconds.push_back(round_runtime.round_seconds);
    result.runtime.total_seconds += round_runtime.round_seconds;
    result.runtime.round_virtual_seconds.push_back(
        round_runtime.virtual_seconds);
    result.runtime.virtual_seconds += round_runtime.virtual_seconds;
    result.runtime.client_seconds_sum += round_runtime.client_seconds_sum;
    result.runtime.client_seconds_max = std::max(
        result.runtime.client_seconds_max, round_runtime.client_seconds_max);
    result.runtime.clients_dropped += round_runtime.clients_dropped;
    result.runtime.clients_quarantined += round_runtime.clients_quarantined;
    result.runtime.clients_straggled += round_runtime.clients_straggled;
    result.runtime.fault_retries += round_runtime.retries;
    result.runtime.rounds_aborted += round_runtime.aborted ? 1 : 0;
    result.train_loss_history.push_back(stats.mean_train_loss);
    if (cfg.eval_every > 0 && (round + 1) % cfg.eval_every == 0 &&
        round + 1 < cfg.rounds) {
      DeviceMetrics checkpoint = evaluate_per_device(model, population);
      if (observer) observer->on_eval(round + 1, checkpoint);
      result.checkpoints.emplace_back(round + 1, std::move(checkpoint));
    }
    if (cfg.checkpoint.enabled() &&
        ((round + 1) % cfg.checkpoint.every == 0 || round + 1 == cfg.rounds)) {
      SimulationCheckpoint ck;
      ck.next_round = round + 1;
      ck.seed = cfg.seed;
      ck.num_clients = num_clients;
      ck.clients_per_round = cfg.clients_per_round;
      ck.algorithm = algorithm.name();
      ck.rng = rng.save_state();
      ck.model_state = model.state();
      ck.loss_history = result.train_loss_history;
      ck.round_virtual_seconds = result.runtime.round_virtual_seconds;
      save_runtime_counters(result.runtime, ck.counters);
      algorithm.save_state(ck.algo);
      write_checkpoint(checkpoint_path(cfg.checkpoint), ck);
    }
  }
  if (has_pop_counters) {
    PopulationCounters pop_end;
    population.population_counters(pop_end);
    result.runtime.pop_materializations = static_cast<std::size_t>(
        pop_end.materializations - pop_begin.materializations);
    result.runtime.pop_cache_hits =
        static_cast<std::size_t>(pop_end.cache_hits - pop_begin.cache_hits);
    result.runtime.pop_cache_misses = static_cast<std::size_t>(
        pop_end.cache_misses - pop_begin.cache_misses);
    result.runtime.pop_gen_seconds =
        pop_end.gen_seconds - pop_begin.gen_seconds;
  }
  result.final_metrics = evaluate_per_device(model, population);
  if (observer) observer->on_eval(cfg.rounds, result.final_metrics);
  return result;
}

}  // namespace hetero

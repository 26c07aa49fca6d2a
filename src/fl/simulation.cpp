#include "fl/simulation.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>

#include "fl/eval.h"
#include "nn/loss.h"
#include "runtime/sched/scheduler.h"
#include "util/rng.h"
#include "util/stats.h"

namespace hetero {
namespace {

/// Deterministic run counters persisted in a checkpoint; wall-clock fields
/// are deliberately absent (they are not replayable).
void save_runtime_counters(const RuntimeStats& rt,
                           std::map<std::string, double>& out) {
  out["dropped"] = static_cast<double>(rt.clients_dropped);
  out["quarantined"] = static_cast<double>(rt.clients_quarantined);
  out["straggled"] = static_cast<double>(rt.clients_straggled);
  out["retries"] = static_cast<double>(rt.fault_retries);
  out["aborted"] = static_cast<double>(rt.rounds_aborted);
  out["dispatched"] = static_cast<double>(rt.clients_dispatched);
  out["committed"] = static_cast<double>(rt.updates_committed);
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
  rt.clients_dispatched = static_cast<std::size_t>(get("dispatched"));
  rt.updates_committed = static_cast<std::size_t>(get("committed"));
}

}  // namespace

DeviceEval::DeviceEval(const std::vector<Dataset>& tests) : tests_(tests) {
  HS_CHECK(!tests.empty(), "evaluate_per_device: no test sets");
  for (std::size_t set = 0; set < tests.size(); ++set) {
    const std::size_t n = tests[set].size();
    HS_CHECK(n > 0, "evaluate_per_device: empty test set");
    for (std::size_t begin = 0; begin < n; begin += kEvalSliceRows) {
      slices_.push_back({set, begin, std::min(begin + kEvalSliceRows, n)});
    }
  }
  logits_.resize(slices_.size());
}

void DeviceEval::run(std::size_t t, Model& model) {
  const Slice& s = slices_.at(t);
  logits_[t] = forward_rows(model, tests_[s.set], s.begin, s.end);
}

DeviceMetrics DeviceEval::metrics() const {
  DeviceMetrics m;
  m.per_device.reserve(tests_.size());
  for (std::size_t first = 0, last = 0; first < slices_.size(); first = last) {
    const std::size_t set = slices_[first].set;
    while (last < slices_.size() && slices_[last].set == set) ++last;
    const Tensor logits = stack_rows(
        std::span<const Tensor>(logits_).subspan(first, last - first));
    const Dataset& test = tests_[set];
    m.per_device.push_back(
        test.is_multi_label()
            ? macro_average_precision(logits, test.multi_targets())
            : accuracy(logits, test.labels()));
  }
  m.average = mean(m.per_device);
  m.variance = variance(m.per_device);
  m.worst_case = min_value(m.per_device);
  return m;
}

DeviceMetrics evaluate_per_device(Model& model, const ClientProvider& pop) {
  DeviceEval eval(pop.device_test());
  for (std::size_t t = 0; t < eval.tasks(); ++t) eval.run(t, model);
  return eval.metrics();
}

void check_simulation_config(const SplitFederatedAlgorithm& algorithm,
                             const ClientProvider& population,
                             const SimulationConfig& cfg,
                             const RemoteTrainStep* remote) {
  const std::size_t num_clients = population.num_clients();
  HS_CHECK(num_clients > 0, "run_simulation: no clients");
  HS_CHECK(cfg.clients_per_round > 0 && cfg.clients_per_round <= num_clients,
           "run_simulation: bad clients_per_round");
  if (cfg.num_threads > kMaxSimulationThreads) {
    throw std::invalid_argument(
        "run_simulation: num_threads " + std::to_string(cfg.num_threads) +
        " exceeds the cap of " + std::to_string(kMaxSimulationThreads));
  }
  check_fault_options(cfg.faults, "run_simulation");
  check_sched_options(cfg.sched, "run_simulation");
  // A checkpoint is a flush boundary with no client in flight, which only
  // windows of exactly one wave have.
  HS_CHECK(!cfg.checkpoint.enabled() ||
               cfg.sched.one_wave(cfg.clients_per_round),
           "run_simulation: checkpoint/resume needs every flush window to be "
           "one wave (sync, or buffered wave sampling with buffer == k)");
  // on_flush writes a checkpoint when done % every == 0.
  HS_CHECK(!cfg.checkpoint.enabled() || cfg.checkpoint.every > 0,
           "run_simulation: checkpoint every must be a positive number of "
           "rounds, got 0");
  // A wave is sampled only after a flush, so a window longer than one wave
  // would never fill.
  const std::size_t buffer = cfg.sched.resolve_buffer(cfg.clients_per_round);
  if (cfg.sched.waves() && buffer > cfg.clients_per_round) {
    throw std::invalid_argument(
        "run_simulation: wave sampling needs buffer <= k, got buffer " +
        std::to_string(buffer) + " with k " +
        std::to_string(cfg.clients_per_round));
  }
  if (remote != nullptr) {
    HS_CHECK(cfg.sched.waves(),
             "run_simulation: remote training needs wave sampling (a "
             "continuous-refill batch would span model versions)");
    HS_CHECK(algorithm.stateless_client_phase(),
             "run_simulation: this algorithm's client phase reads "
             "server-held state and cannot run on remote workers");
    HS_CHECK(remote->edge_groups() == cfg.edge_groups,
             "run_simulation: edge_groups must equal the remote edge count");
    HS_CHECK(cfg.edge_groups == 0 ||
                 cfg.sched.one_wave(cfg.clients_per_round),
             "run_simulation: remote edges fold one wave each, so every "
             "flush window must be one wave");
    HS_CHECK(cfg.edge_groups == 0 || algorithm.supports_partial_aggregation(),
             "run_simulation: algorithm does not support edge-tier partial "
             "aggregation");
  }
}

SimulationResult run_simulation(Model& model,
                                SplitFederatedAlgorithm& algorithm,
                                const ClientProvider& population,
                                const SimulationConfig& cfg,
                                RemoteTrainStep* remote) {
  check_simulation_config(algorithm, population, cfg, remote);
  const std::size_t num_clients = population.num_clients();
  RoundObserver* observer = cfg.observer;
  EventScheduler sched(cfg, population, remote);
  Rng rng(cfg.seed);
  algorithm.init(model, num_clients);

  SimulationResult result;
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
      // The scheduler resumes at the loss history's length.
      HS_CHECK(ck.loss_history.size() == ck.next_round,
               "run_simulation: checkpoint history length mismatch");
      model.set_state(ck.model_state);
      algorithm.load_state(ck.algo);  // after init(): state is sized
      rng.restore_state(ck.rng);
      result.train_loss_history = std::move(ck.loss_history);
      result.runtime.round_virtual_seconds =
          std::move(ck.round_virtual_seconds);
      for (double v : result.runtime.round_virtual_seconds) {
        result.runtime.virtual_seconds += v;
      }
      load_runtime_counters(ck.counters, result.runtime);
    }
  }

  // After flush `done`: eval checkpoints on the eval_every grid, then the
  // run checkpoint every `every` flushes and at the last one.
  auto on_flush = [&](std::size_t done) {
    if (cfg.eval_every > 0 && done % cfg.eval_every == 0 &&
        done < cfg.rounds) {
      DeviceMetrics checkpoint = sched.evaluate(model);
      if (observer) observer->on_eval(done, checkpoint);
      result.checkpoints.emplace_back(done, std::move(checkpoint));
    }
    if (cfg.checkpoint.enabled() &&
        (done % cfg.checkpoint.every == 0 || done == cfg.rounds)) {
      SimulationCheckpoint ck;
      ck.next_round = done;
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
  };
  sched.run(model, algorithm, rng, result, on_flush);

  result.final_metrics = sched.evaluate(model);
  if (observer) observer->on_eval(cfg.rounds, result.final_metrics);
  return result;
}

}  // namespace hetero

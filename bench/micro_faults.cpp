// Microbenchmark: deterministic fault injection + partial aggregation.
//
// Runs the same FedAvg workload (K=12 clients per round on synthetic
// separable data) under a sweep of fault scenarios — clean, dropout only,
// dropout + corrupt updates, and a heavy everything-on mix — at 1 and 4
// worker threads. Reports round throughput plus the fault counters
// (dropped / quarantined / straggled / retries / aborted rounds) and
// asserts the determinism contract on the side: for every scenario the
// 4-thread run must reproduce the single-thread loss history bit-for-bit,
// faults included.
//
// Honours HS_ROUNDS / HS_SEED / HS_SCALE like the experiment benches, and
// HS_FAULTS adds one extra scenario with the given spec.
#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.h"
#include "runtime/faults.h"

using namespace hetero;
using namespace hetero::bench;

namespace {

Dataset two_class_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Tensor xs({n, 3, 8, 8});
  std::vector<std::size_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = i % 2;
    const float base = labels[i] == 0 ? 0.15f : 0.85f;
    for (std::size_t j = 0; j < 3 * 64; ++j) {
      xs[i * 3 * 64 + j] = base + rng.uniform_f(-0.05f, 0.05f);
    }
  }
  return Dataset(std::move(xs), std::move(labels));
}

FlPopulation synthetic_population(std::size_t clients,
                                  std::size_t samples_per_client,
                                  std::uint64_t seed) {
  FlPopulation pop;
  for (std::size_t i = 0; i < clients; ++i) {
    pop.client_train.push_back(two_class_data(samples_per_client, seed + i));
    pop.client_device.push_back(0);
  }
  pop.device_test.push_back(two_class_data(32, seed + 1000));
  pop.device_names.push_back("synthetic");
  return pop;
}

struct Scenario {
  std::string name;
  std::string spec;  // parse_fault_spec input; empty = faults off
};

}  // namespace

int main() {
  const Scale scale;
  print_header("micro", "fault injection + partial aggregation (FedAvg, K=12)",
               scale);

  const std::size_t clients = 24;
  const std::size_t k = 12;
  const std::size_t rounds = static_cast<std::size_t>(scale.rounds(4, 20));
  const std::size_t samples = static_cast<std::size_t>(scale.n(80, 300));

  const MaterializedPopulation pop(
      synthetic_population(clients, samples, scale.seed()));

  std::vector<Scenario> scenarios = {
      {"clean", ""},
      {"drop", "drop=0.2"},
      {"drop+corrupt", "drop=0.15,corrupt=0.1,min=2"},
      {"heavy",
       "drop=0.2,fail=0.2,straggle=0.3,delay=0.5,timeout=0.8,corrupt=0.1,"
       "min=2"},
  };
  if (!scale.env.fault_spec.empty()) {
    scenarios.push_back({"HS_FAULTS", scale.env.fault_spec});
  }

  Table table({"Scenario", "Threads", "Rounds/s", "Dropped", "Quarantined",
               "Straggled", "Retries", "Aborted", "Identical"});
  const std::vector<std::size_t> thread_counts = {1, 4};
  for (const Scenario& sc : scenarios) {
    std::vector<double> reference_losses;
    for (std::size_t threads : thread_counts) {
      ModelSpec spec;
      spec.arch = "mlp-tiny";
      spec.image_size = 8;
      spec.num_classes = 2;
      Rng model_rng(scale.seed());
      auto model = make_model(spec, model_rng);
      FedAvg algo(paper_local_config());

      SimulationConfig sim;
      sim.rounds = rounds;
      sim.clients_per_round = k;
      sim.seed = scale.seed() + 1;
      sim.num_threads = threads;
      sim.faults = parse_fault_spec(sc.spec);
      sim.observer = trace_sink().run("micro_faults." + sc.name +
                                      ".threads=" + std::to_string(threads));
      const SimulationResult r = run_simulation(*model, algo, pop, sim);

      const double rate = static_cast<double>(rounds) /
                          std::max(1e-9, r.runtime.total_seconds);
      if (threads == thread_counts.front()) {
        reference_losses = r.train_loss_history;
      }
      const bool identical = r.train_loss_history == reference_losses;

      char rate_s[32];
      std::snprintf(rate_s, sizeof rate_s, "%.2f", rate);
      table.add_row({sc.name, std::to_string(r.runtime.threads), rate_s,
                     std::to_string(r.runtime.clients_dropped),
                     std::to_string(r.runtime.clients_quarantined),
                     std::to_string(r.runtime.clients_straggled),
                     std::to_string(r.runtime.fault_retries),
                     std::to_string(r.runtime.rounds_aborted),
                     identical ? "yes" : "NO"});
      std::fprintf(stderr,
                   "[micro_faults] %s @ %zu thread(s): %.2f rounds/s  "
                   "dropped=%zu quarantined=%zu%s\n",
                   sc.name.c_str(), r.runtime.threads, rate,
                   r.runtime.clients_dropped, r.runtime.clients_quarantined,
                   identical ? "" : "  LOSS HISTORY DIVERGED");
    }
  }

  finish(table, "micro_faults");
  std::printf(
      "\nExpected shape: the clean scenario reports all-zero fault counters "
      "and matches a build without the fault layer byte-for-byte; every "
      "scenario's Identical column must read yes (bit-identical replay for "
      "any thread count, faults included).\n");
  return 0;
}

// Microbenchmark: the virtual-clock event scheduler (DESIGN.md §11).
//
// Runs the same FedAvg workload (K=12 of 24 clients on synthetic separable
// data) under three aggregation disciplines — sync (the original round
// loop), async (FedAsync, flush per arrival) and buffered (FedBuff-style,
// flush every B arrivals) — with straggler delays and a device compute
// model so virtual time actually flows, at 1 and 4 worker threads.
// Reports rounds/s and clients/s wall throughput, the virtual-time
// speedup (simulated seconds per wall second — the point of simulating
// the clock instead of sleeping through it), and asserts the determinism
// contract on the side: every thread count must reproduce the
// single-thread loss history and staleness counters bit-for-bit.
//
// Honours HS_ROUNDS / HS_SEED / HS_SCALE like the other benches; HS_SCHED
// adds one extra scenario with the given spec and HS_BUFFER overrides the
// buffered scenarios' flush threshold. Appends one JSONL record per row to
// BENCH_round.json.
#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "runtime/faults.h"
#include "runtime/sched/sched_options.h"

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
  std::string sched_spec;  // parse_sched_spec input; empty = sync rounds
  std::string fault_spec;  // parse_fault_spec input
};

}  // namespace

int main() {
  const Scale scale;
  print_header("micro",
               "virtual-clock scheduler: sync vs async vs buffered (FedAvg, "
               "K=12)",
               scale);

  const std::size_t clients = 24;
  const std::size_t k = 12;
  const std::size_t rounds = static_cast<std::size_t>(scale.rounds(4, 40));
  const std::size_t samples = static_cast<std::size_t>(scale.n(80, 300));

  const MaterializedPopulation pop(
      synthetic_population(clients, samples, scale.seed()));

  // Stragglers + a compute model give every scenario a real virtual
  // timeline (delays, staleness, per-client compute spread).
  const std::string faults = "straggle=0.3,delay=0.5";
  std::vector<Scenario> scenarios = {
      {"sync", "", faults},
      {"async", "async,compute=0.002", faults},
      {"buffered", "buffered,buffer=4,compute=0.002", faults},
  };
  if (!scale.env.sched_spec.empty()) {
    scenarios.push_back({"HS_SCHED", scale.env.sched_spec, faults});
  }

  Table table({"Mode", "Threads", "Rounds/s", "Clients/s", "Committed",
               "StaleMax", "VirtSpeedup", "Identical"});
  std::ofstream jsonl("BENCH_round.json", std::ios::app);
  const std::vector<std::size_t> thread_counts = {1, 4};
  for (const Scenario& sc : scenarios) {
    std::vector<double> reference_losses;
    std::size_t reference_stale_max = 0;
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
      sim.faults = parse_fault_spec(sc.fault_spec);
      sim.sched = parse_sched_spec(sc.sched_spec);
      if (scale.env.sched_buffer > 0) {
        sim.sched.buffer = scale.env.sched_buffer;
      }
      sim.observer = trace_sink().run("micro_async_rounds." + sc.name +
                                      ".threads=" + std::to_string(threads));
      const SimulationResult r = run_simulation(*model, algo, pop, sim);

      const double wall = std::max(1e-9, r.runtime.total_seconds);
      const double round_rate = static_cast<double>(rounds) / wall;
      // Sync processes k clients per round; scheduled modes count actual
      // dispatches (continuous refill dispatches more than it commits).
      const std::size_t processed = sim.sched.scheduled()
                                        ? r.runtime.clients_dispatched
                                        : rounds * k;
      const double client_rate = static_cast<double>(processed) / wall;
      const double virt_speedup = r.runtime.virtual_seconds / wall;

      if (threads == thread_counts.front()) {
        reference_losses = r.train_loss_history;
        reference_stale_max = r.runtime.staleness_max;
      }
      const bool identical = r.train_loss_history == reference_losses &&
                             r.runtime.staleness_max == reference_stale_max;

      char round_s[32], client_s[32], virt_s[32];
      std::snprintf(round_s, sizeof round_s, "%.2f", round_rate);
      std::snprintf(client_s, sizeof client_s, "%.1f", client_rate);
      std::snprintf(virt_s, sizeof virt_s, "%.1fx", virt_speedup);
      table.add_row({sc.name, std::to_string(r.runtime.threads), round_s,
                     client_s, std::to_string(r.runtime.updates_committed),
                     std::to_string(r.runtime.staleness_max), virt_s,
                     identical ? "yes" : "NO"});
      jsonl << "{\"bench\":\"micro_async_rounds\",\"mode\":\"" << sc.name
            << "\",\"threads\":" << r.runtime.threads
            << ",\"clients_per_s\":" << client_rate
            << ",\"rounds_per_s\":" << round_rate
            << ",\"virtual_speedup\":" << virt_speedup << "}\n";
      std::fprintf(stderr,
                   "[micro_async_rounds] %s @ %zu thread(s): %.2f rounds/s  "
                   "virtual x%.1f  stale_max=%zu%s\n",
                   sc.name.c_str(), r.runtime.threads, round_rate,
                   virt_speedup, r.runtime.staleness_max,
                   identical ? "" : "  RESULTS DIVERGED");
    }
  }

  finish(table, "micro_async_rounds");
  std::printf(
      "\n[jsonl] BENCH_round.json (appended)\n"
      "Expected shape: virtual speedup far above 1x (the scheduler simulates "
      "straggler delays instead of sleeping through them); async shows "
      "non-zero staleness while sync reports none; every Identical column "
      "must read yes (bit-identical replay for any thread count).\n");
  return 0;
}

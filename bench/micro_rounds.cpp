// Microbenchmark: FL round throughput of the round engine (DESIGN.md §7,
// §10, §11).
//
// Runs one FedAvg workload (K=12 of 24 clients on synthetic separable data,
// mlp-tiny) under a list of scenarios at 1, 2, 4 and all-hardware threads:
//   clean, drop, drop+corrupt, heavy   fault sweeps on sync rounds (§10);
//   sync, async, buffered              the three aggregation disciplines,
//                                      each with stragglers and a compute
//                                      model so virtual time flows (§11).
// The clean rows are the thread-scaling sweep. Every row reports rounds/s,
// clients/s and the speedup over the scenario's serial run, the fault
// counters, the committed count, the worst staleness, and the virtual-time
// speedup (simulated seconds per wall second).
//
// The determinism contract (§7) is the Identical column: every thread count
// must reproduce its scenario's 1-thread loss history, fault counters,
// committed count and staleness max exactly. The bench exits 1 when one
// does not, so the trace_smoke ctest fails on a replay break.
//
// Honours HS_ROUNDS / HS_SEED / HS_SCALE like the experiment benches;
// HS_FAULTS and HS_SCHED each add one scenario with the given spec. Appends
// one JSONL record per row to BENCH_round.json.
#include <algorithm>
#include <array>
#include <fstream>
#include <string>
#include <thread>
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
  std::string fault_spec;  // parse_fault_spec input; empty = faults off
  std::string sched_spec;  // parse_sched_spec input; empty = sync rounds
};

/// What the determinism contract pins across thread counts: the loss
/// history plus every deterministic counter the table prints.
struct Replay {
  std::vector<double> losses;
  std::array<std::size_t, 7> counters{};

  bool operator==(const Replay&) const = default;
};

Replay replay_of(const SimulationResult& r) {
  const RuntimeStats& rt = r.runtime;
  return {r.train_loss_history,
          {rt.clients_dropped, rt.clients_quarantined, rt.clients_straggled,
           rt.fault_retries, rt.rounds_aborted, rt.updates_committed,
           rt.staleness_max}};
}

}  // namespace

int main() {
  const Scale scale;
  print_header("micro",
               "round engine: faults and sync/async/buffered scheduling "
               "(FedAvg, K=12)",
               scale);

  const std::size_t clients = 24;
  const std::size_t k = 12;
  const std::size_t rounds = static_cast<std::size_t>(scale.rounds(4, 20));
  const std::size_t samples = static_cast<std::size_t>(scale.n(80, 300));

  const MaterializedPopulation pop(
      synthetic_population(clients, samples, scale.seed()));

  // Stragglers + a compute model give the scheduler scenarios a real
  // virtual timeline (delays, staleness, per-client compute spread).
  const std::string stragglers = "straggle=0.3,delay=0.5";
  std::vector<Scenario> scenarios = {
      {"clean", "", ""},
      {"drop", "drop=0.2", ""},
      {"drop+corrupt", "drop=0.15,corrupt=0.1,min=2", ""},
      {"heavy",
       "drop=0.2,fail=0.2,straggle=0.3,delay=0.5,timeout=0.8,corrupt=0.1,"
       "min=2",
       ""},
      {"sync", stragglers, ""},
      {"async", stragglers, "async,compute=0.002"},
      {"buffered", stragglers, "buffered,buffer=4,compute=0.002"},
  };
  if (!scale.env.fault_spec.empty()) {
    scenarios.push_back({"HS_FAULTS", scale.env.fault_spec, ""});
  }
  if (!scale.env.sched_spec.empty()) {
    scenarios.push_back({"HS_SCHED", stragglers, scale.env.sched_spec});
  }

  std::vector<std::size_t> thread_counts = {1, 2, 4};
  const std::size_t hw = std::max<std::size_t>(
      1, std::thread::hardware_concurrency());
  if (std::find(thread_counts.begin(), thread_counts.end(), hw) ==
      thread_counts.end()) {
    thread_counts.push_back(hw);
  }

  Table table({"Scenario", "Threads", "Rounds/s", "Speedup", "Clients/s",
               "Client-s/round", "Dropped", "Quarantined", "Straggled",
               "Retries", "Aborted", "Committed", "StaleMax", "VirtSpeedup",
               "Identical"});
  std::ofstream jsonl("BENCH_round.json", std::ios::app);
  std::size_t diverged = 0;
  for (const Scenario& sc : scenarios) {
    Replay reference;
    double serial_rate = 0.0;
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
      sim.observer = trace_sink().run("micro_rounds." + sc.name +
                                      ".threads=" + std::to_string(threads));
      const SimulationResult r = run_simulation(*model, algo, pop, sim);
      const RuntimeStats& rt = r.runtime;

      const double wall = std::max(1e-9, rt.total_seconds);
      const double round_rate = static_cast<double>(rounds) / wall;
      const double client_rate =
          static_cast<double>(rt.clients_dispatched) / wall;
      const double client_s_per_round =
          rt.client_seconds_sum / static_cast<double>(rounds);
      const double virt_speedup = rt.virtual_seconds / wall;
      if (threads == 1) {
        reference = replay_of(r);
        serial_rate = round_rate;
      }
      const bool identical = replay_of(r) == reference;
      if (!identical) ++diverged;

      table.add_row({sc.name, std::to_string(rt.threads),
                     Table::fmt(round_rate),
                     Table::fmt(round_rate / serial_rate) + "x",
                     Table::fmt(client_rate, 1),
                     Table::fmt(client_s_per_round, 3),
                     std::to_string(rt.clients_dropped),
                     std::to_string(rt.clients_quarantined),
                     std::to_string(rt.clients_straggled),
                     std::to_string(rt.fault_retries),
                     std::to_string(rt.rounds_aborted),
                     std::to_string(rt.updates_committed),
                     std::to_string(rt.staleness_max),
                     Table::fmt(virt_speedup, 1) + "x",
                     identical ? "yes" : "NO"});
      jsonl << "{\"bench\":\"micro_rounds\",\"scenario\":\"" << sc.name
            << "\",\"threads\":" << rt.threads
            << ",\"clients_per_s\":" << client_rate
            << ",\"rounds_per_s\":" << round_rate
            << ",\"virtual_speedup\":" << virt_speedup << "}\n";
      std::fprintf(stderr,
                   "[micro_rounds] %s @ %zu thread(s): %.2f rounds/s "
                   "(%.2fx)%s\n",
                   sc.name.c_str(), rt.threads, round_rate,
                   round_rate / serial_rate,
                   identical ? "" : "  RESULTS DIVERGED");
    }
  }

  finish(table, "micro_rounds");
  std::printf(
      "\n[jsonl] BENCH_round.json (appended)\n"
      "Expected shape: clean scales near-linearly up to the physical core "
      "count and reports all-zero fault counters; virtual speedup is far "
      "above 1x for the scheduler scenarios (the clock simulates straggler "
      "delays instead of sleeping through them); async and buffered show "
      "non-zero staleness while sync reports none; the Identical column "
      "reads yes everywhere (bit-identical replay for any thread count, "
      "faults included).\n");
  if (diverged > 0) {
    std::fprintf(stderr,
                 "[micro_rounds] %zu run(s) diverged from their scenario's "
                 "1-thread run\n",
                 diverged);
    return 1;
  }
  return 0;
}

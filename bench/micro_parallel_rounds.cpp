// Microbenchmark: FL round throughput of the parallel client fan-out.
//
// Runs the same FedAvg workload (K=20 clients per round on synthetic
// separable data) at 1, 2, 4 and all-hardware threads and reports
// rounds/sec plus the speedup over the serial run. Also asserts the
// determinism contract on the side: every thread count must reproduce the
// single-thread loss history bit-for-bit.
//
// Honours HS_ROUNDS / HS_SEED / HS_SCALE like the experiment benches.
#include <algorithm>
#include <thread>

#include "bench_common.h"

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

}  // namespace

int main() {
  const Scale scale;
  print_header("micro", "parallel round throughput (FedAvg, K=20)", scale);

  const std::size_t clients = 40;
  const std::size_t k = 20;
  const std::size_t rounds = static_cast<std::size_t>(scale.rounds(6, 30));
  const std::size_t samples = static_cast<std::size_t>(scale.n(120, 400));

  const MaterializedPopulation pop(
      synthetic_population(clients, samples, scale.seed()));

  std::vector<std::size_t> thread_counts = {1, 2, 4};
  const std::size_t hw = std::max<std::size_t>(
      1, std::thread::hardware_concurrency());
  if (std::find(thread_counts.begin(), thread_counts.end(), hw) ==
      thread_counts.end()) {
    thread_counts.push_back(hw);
  }

  Table table({"Threads", "Rounds/s", "Speedup", "Client-s/round",
               "Identical"});
  double serial_rate = 0.0;
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
    sim.observer =
        trace_sink().run("micro.threads=" + std::to_string(threads));
    const SimulationResult r = run_simulation(*model, algo, pop, sim);

    const double rate =
        static_cast<double>(rounds) / std::max(1e-9, r.runtime.total_seconds);
    if (threads == 1) {
      serial_rate = rate;
      reference_losses = r.train_loss_history;
    }
    const bool identical = r.train_loss_history == reference_losses;

    char rate_s[32], speedup_s[32], client_s[32];
    std::snprintf(rate_s, sizeof rate_s, "%.2f", rate);
    std::snprintf(speedup_s, sizeof speedup_s, "%.2fx", rate / serial_rate);
    std::snprintf(client_s, sizeof client_s, "%.3f",
                  r.runtime.client_seconds_sum / static_cast<double>(rounds));
    table.add_row({std::to_string(r.runtime.threads), rate_s, speedup_s,
                   client_s, identical ? "yes" : "NO"});
    std::fprintf(stderr, "[micro] %zu thread(s): %.2f rounds/s (%.2fx)%s\n",
                 r.runtime.threads, rate, rate / serial_rate,
                 identical ? "" : "  LOSS HISTORY DIVERGED");
  }

  finish(table, "micro_parallel_rounds");
  std::printf(
      "\nExpected shape: near-linear scaling up to the physical core count; "
      "the Identical column must read yes everywhere (bit-identical replay "
      "for any thread count).\n");
  return 0;
}

// Fig 1 (right side): global-model accuracy with homogeneous clients
// (every client uses the same device type) vs heterogeneous clients
// (market-share device mix). The paper reports a 23.5% average quality gap.
#include "bench_common.h"

using namespace hetero;
using namespace hetero::bench;

namespace {

double run_fl(const ClientProvider& pop, std::size_t rounds, std::size_t k,
              std::uint64_t seed, std::size_t eval_device) {
  ModelSpec spec;
  Rng model_rng(seed);
  auto model = make_model(spec, model_rng);
  FedAvg algo(paper_local_config());
  SimulationConfig sim;
  sim.rounds = rounds;
  sim.clients_per_round = k;
  sim.seed = seed + 1;
  sim.num_threads = Scale{}.threads();
  sim.observer = trace_sink().run("fig1.fedavg");
  run_simulation(*model, algo, pop, sim);
  return evaluate_accuracy(*model, pop.device_test().at(eval_device));
}

}  // namespace

int main() {
  const Scale scale;
  print_header("Fig 1", "homogeneous vs heterogeneous clients", scale);

  const std::size_t n_clients = static_cast<std::size_t>(scale.n(18, 60));
  const std::size_t k = static_cast<std::size_t>(scale.n(6, 15));
  const std::size_t rounds = static_cast<std::size_t>(scale.rounds(50, 200));
  const std::size_t samples = static_cast<std::size_t>(scale.n(20, 40));

  SceneGenerator scenes(64);
  Rng root(scale.seed());
  Timer timer;

  // Representative device types for the homogeneous runs: one per vendor.
  const std::vector<std::string> homo_devices = {"GalaxyS9", "G7", "Pixel2"};

  Table table({"Setting", "Device", "Accuracy"});
  RunningStats homo_stats;
  for (const auto& name : homo_devices) {
    const std::size_t dev = device_index(name);
    PopulationConfig pcfg;
    pcfg.num_clients = n_clients;
    pcfg.samples_per_client = samples;
    pcfg.test_per_class = static_cast<std::size_t>(scale.n(4, 10));
    pcfg.capture.tensor_size = static_cast<std::size_t>(scale.n(16, 32));
  pcfg.capture.illuminant_sigma_override = -1.0f;  // deployed-population captures
    // Homogeneous: exclude every device except `dev`.
    for (std::size_t d = 0; d < paper_devices().size(); ++d) {
      if (d != dev) pcfg.exclude_from_training.push_back(d);
    }
    Rng pop_rng = root.fork(10 + dev);
    const MaterializedPopulation pop(
      PopulationSpec::single_label(paper_devices(), pcfg, scenes), pop_rng);
    const double acc = run_fl(pop, rounds, k, scale.seed() + dev, dev);
    homo_stats.add(acc);
    table.add_row({"Homogeneous", name, Table::pct(acc)});
    std::fprintf(stderr, "[fig1] homogeneous %s: %.1f%% (%.1fs)\n",
                 name.c_str(), acc * 100.0, timer.elapsed_s());
  }

  // Heterogeneous: market-share mix, evaluated on the same device types.
  PopulationConfig pcfg;
  pcfg.num_clients = n_clients;
  pcfg.samples_per_client = samples;
  pcfg.test_per_class = static_cast<std::size_t>(scale.n(4, 10));
  pcfg.capture.tensor_size = static_cast<std::size_t>(scale.n(16, 32));
  pcfg.capture.illuminant_sigma_override = -1.0f;  // deployed-population captures
  Rng pop_rng = root.fork(99);
  const MaterializedPopulation pop(
      PopulationSpec::single_label(paper_devices(), pcfg, scenes), pop_rng);
  RunningStats hetero_stats;
  for (const auto& name : homo_devices) {
    const std::size_t dev = device_index(name);
    const double acc = run_fl(pop, rounds, k, scale.seed() + 77 + dev, dev);
    hetero_stats.add(acc);
    table.add_row({"Heterogeneous", name, Table::pct(acc)});
    std::fprintf(stderr, "[fig1] heterogeneous -> %s: %.1f%% (%.1fs)\n",
                 name.c_str(), acc * 100.0, timer.elapsed_s());
  }

  table.add_row({"Homogeneous", "(mean)", Table::pct(homo_stats.mean())});
  table.add_row({"Heterogeneous", "(mean)", Table::pct(hetero_stats.mean())});
  table.add_row({"Gap", "(mean)",
                 Table::pct(degradation(homo_stats.mean(),
                                        hetero_stats.mean()))});
  finish(table, "fig1_homo_vs_hetero");
  std::printf(
      "\nPaper shape: homogeneous-client FL beats heterogeneous-client FL "
      "on the matching device (paper: 23.5%% average gap).\n");
  return 0;
}

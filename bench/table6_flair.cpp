// Table 6: evaluation on the FLAIR-style realistic population — multi-label
// classification, long-tailed device distribution (the synthetic stand-in
// for FLAIR's >1000 device types), per-device-type averaged precision.
#include "bench_common.h"
#include "hetero/heteroswitch.h"

using namespace hetero;
using namespace hetero::bench;

int main() {
  const Scale scale;
  print_header("Table 6", "FLAIR-style multi-label, long-tail devices",
               scale);

  const std::size_t n_devices = static_cast<std::size_t>(scale.n(15, 60));
  const std::size_t n_clients = static_cast<std::size_t>(scale.n(30, 120));
  const std::size_t k = static_cast<std::size_t>(scale.n(8, 20));
  const std::size_t rounds = static_cast<std::size_t>(scale.rounds(40, 500));
  const std::size_t samples = static_cast<std::size_t>(scale.n(16, 32));
  const std::size_t test_per_device =
      static_cast<std::size_t>(scale.n(20, 60));

  FlairSceneGenerator scenes(64);
  Rng root(scale.seed());
  Timer timer;

  Rng dev_rng = root.fork(1);
  const auto devices = long_tail_population(n_devices, dev_rng);
  CaptureConfig capture;
  capture.illuminant_sigma_override = -1.0f;  // in-the-wild captures
  capture.tensor_size = static_cast<std::size_t>(scale.n(16, 32));
  Rng pop_rng = root.fork(2);
  const MaterializedPopulation pop(
      PopulationSpec::flair(devices, n_clients, samples, test_per_device,
                            capture, scenes),
      pop_rng);
  std::fprintf(stderr, "[table6] %zu devices, %zu clients (%.1fs)\n",
               devices.size(), pop.num_clients(), timer.elapsed_s());

  const LocalTrainConfig local = paper_local_config();
  std::vector<std::unique_ptr<SplitFederatedAlgorithm>> methods;
  methods.push_back(std::make_unique<FedAvg>(local));
  methods.push_back(
      std::make_unique<HeteroSwitch>(local, HeteroSwitchOptions{}));
  methods.push_back(std::make_unique<QFedAvg>(local, 1e-6));
  methods.push_back(std::make_unique<FedProx>(local, 0.1f));

  Table table({"Method", "Averaged Precision", "Variance"});
  for (auto& method : methods) {
    ModelSpec spec;
    spec.num_classes = FlairSceneGenerator::kNumLabels;
    Rng model_rng = root.fork(3);
    auto model = make_model(spec, model_rng);
    SimulationConfig sim;
    sim.rounds = rounds;
    sim.clients_per_round = k;
    sim.seed = scale.seed() + 9;
    sim.num_threads = scale.threads();
    sim.observer = trace_sink().run("table6." + method->name());
    const SimulationResult r = run_simulation(*model, *method, pop, sim);
    const DeviceMetrics& m = r.final_metrics;
    table.add_row({method->name(), Table::fmt(m.average * 100, 2),
                   Table::fmt(m.variance * 1e4, 2)});
    std::fprintf(stderr, "[table6] %-14s AP %.2f var %.2f (%.1fs)\n",
                 method->name().c_str(), m.average * 100, m.variance * 1e4,
                 timer.elapsed_s());
  }
  finish(table, "table6_flair");
  std::printf(
      "\nPaper shape: HeteroSwitch lowers cross-device AP variance (paper: "
      "-6.3%%) without sacrificing AP; FedProx degrades both.\n");
  return 0;
}

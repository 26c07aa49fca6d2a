// Table 5: FedAvg vs HeteroSwitch across the three mobile CNN families
// (MobileNetV3-small, ShuffleNetV2-x0.5, SqueezeNet-1.1 — here their
// laptop-scale mini versions).
#include "bench_common.h"
#include "hetero/heteroswitch.h"

using namespace hetero;
using namespace hetero::bench;

int main() {
  const Scale scale;
  print_header("Table 5", "model architectures x {FedAvg, HeteroSwitch}",
               scale);

  const std::size_t n_clients = static_cast<std::size_t>(scale.n(30, 100));
  const std::size_t k = static_cast<std::size_t>(scale.n(8, 20));
  const std::size_t rounds = static_cast<std::size_t>(scale.rounds(60, 1000));
  const std::size_t samples = static_cast<std::size_t>(scale.n(20, 40));

  SceneGenerator scenes(64);
  Rng root(scale.seed());
  Timer timer;

  PopulationConfig pcfg;
  pcfg.num_clients = n_clients;
  pcfg.samples_per_client = samples;
  pcfg.test_per_class = static_cast<std::size_t>(scale.n(5, 12));
  pcfg.capture.tensor_size = static_cast<std::size_t>(scale.n(16, 32));
  pcfg.capture.illuminant_sigma_override = -1.0f;  // deployed-population captures
  Rng pop_rng = root.fork(1);
  const MaterializedPopulation pop(
      PopulationSpec::single_label(paper_devices(), pcfg, scenes), pop_rng);

  const LocalTrainConfig local = paper_local_config();
  const std::vector<std::string> archs = {"mobile-mini", "shuffle-mini",
                                          "squeeze-mini"};

  Table table({"Model", "Method", "DG worst-case Acc", "Fairness Variance",
               "Fairness avg Acc"});
  for (const auto& arch : archs) {
    for (int use_hs : {0, 1}) {
      ModelSpec spec;
      spec.arch = arch;
      Rng model_rng = root.fork(2);
      auto model = make_model(spec, model_rng);
      std::unique_ptr<SplitFederatedAlgorithm> method;
      if (use_hs) {
        method = std::make_unique<HeteroSwitch>(local, HeteroSwitchOptions{});
      } else {
        method = std::make_unique<FedAvg>(local);
      }
      SimulationConfig sim;
      sim.rounds = rounds;
      sim.clients_per_round = k;
      sim.seed = scale.seed() + 7;
      sim.num_threads = scale.threads();
      sim.observer = trace_sink().run(arch + "." + method->name());
      const SimulationResult r = run_simulation(*model, *method, pop, sim);
      const DeviceMetrics& m = r.final_metrics;
      table.add_row({arch, method->name(), Table::fmt(m.worst_case * 100, 2),
                     Table::fmt(m.variance * 1e4, 2),
                     Table::fmt(m.average * 100, 2)});
      std::fprintf(stderr,
                   "[table5] %-12s %-12s worst %.2f avg %.2f (%.1fs)\n",
                   arch.c_str(), method->name().c_str(), m.worst_case * 100,
                   m.average * 100, timer.elapsed_s());
    }
  }
  finish(table, "table5_models");
  std::printf(
      "\nPaper shape: HeteroSwitch improves worst-case accuracy for every "
      "architecture; squeeze (no batch norm) is fragile under FedAvg and "
      "benefits most.\n");
  return 0;
}

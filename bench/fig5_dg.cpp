// Fig 5: domain generalization — leave-one-device-out.
//
// For each device type d: train the global model with d's clients excluded
// and test on d (the unseen domain); compare against the accuracy on d when
// all device types participate uniformly. Positive degradation means
// exclusion hurt; the paper's finding is that the effect is *inconsistent*
// (some devices even improve when excluded).
#include "bench_common.h"

using namespace hetero;
using namespace hetero::bench;

namespace {

double train_and_eval(const ClientProvider& pop, std::size_t rounds,
                      std::size_t k, std::uint64_t seed,
                      std::size_t eval_device) {
  ModelSpec spec;
  Rng model_rng(seed);
  auto model = make_model(spec, model_rng);
  FedAvg algo(paper_local_config());
  SimulationConfig sim;
  sim.rounds = rounds;
  sim.clients_per_round = k;
  sim.seed = seed + 1;
  sim.num_threads = Scale{}.threads();
  sim.observer = trace_sink().run("fig5.exclude");
  run_simulation(*model, algo, pop, sim);
  return evaluate_accuracy(*model, pop.device_test().at(eval_device));
}

}  // namespace

int main() {
  const Scale scale;
  print_header("Fig 5", "leave-one-device-out domain generalization", scale);

  const std::size_t n_clients = static_cast<std::size_t>(scale.n(27, 90));
  const std::size_t k = static_cast<std::size_t>(scale.n(9, 18));
  const std::size_t rounds = static_cast<std::size_t>(scale.rounds(50, 200));
  const std::size_t samples = static_cast<std::size_t>(scale.n(18, 40));

  SceneGenerator scenes(64);
  Rng root(scale.seed());
  Timer timer;

  PopulationConfig base_cfg;
  base_cfg.num_clients = n_clients;
  base_cfg.samples_per_client = samples;
  base_cfg.test_per_class = static_cast<std::size_t>(scale.n(5, 12));
  base_cfg.capture.tensor_size = static_cast<std::size_t>(scale.n(16, 32));
  base_cfg.capture.illuminant_sigma_override = -1.0f;  // deployed-population captures
  base_cfg.assignment = DeviceAssignment::kUniform;  // DG protocol

  // Reference: all devices participate equally.
  Rng ref_rng = root.fork(1);
  const MaterializedPopulation ref_pop(
      PopulationSpec::single_label(paper_devices(), base_cfg, scenes), ref_rng);
  std::vector<double> ref_acc(paper_devices().size());
  {
    ModelSpec spec;
    Rng model_rng = root.fork(2);
    auto model = make_model(spec, model_rng);
    FedAvg algo(paper_local_config());
    SimulationConfig sim;
    sim.rounds = rounds;
    sim.clients_per_round = k;
    sim.seed = scale.seed() + 5;
    sim.num_threads = scale.threads();
    sim.observer = trace_sink().run("fig5.reference");
    const SimulationResult r = run_simulation(*model, algo, ref_pop, sim);
    ref_acc = r.final_metrics.per_device;
  }
  std::fprintf(stderr, "[fig5] reference (all devices) done (%.1fs)\n",
               timer.elapsed_s());

  Table table({"ExcludedDevice", "AccAllDevices", "AccExcluded",
               "Degradation"});
  for (std::size_t d = 0; d < paper_devices().size(); ++d) {
    PopulationConfig cfg = base_cfg;
    cfg.exclude_from_training = {d};
    Rng pop_rng = root.fork(100 + d);
    const MaterializedPopulation pop(
        PopulationSpec::single_label(paper_devices(), cfg, scenes), pop_rng);
    const double acc =
        train_and_eval(pop, rounds, k, scale.seed() + 10 + d, d);
    table.add_row({paper_devices()[d].name, Table::pct(ref_acc[d]),
                   Table::pct(acc), Table::pct(degradation(ref_acc[d], acc))});
    std::fprintf(stderr, "[fig5] without %s: %.1f%% vs %.1f%% (%.1fs)\n",
                 paper_devices()[d].name.c_str(), acc * 100.0,
                 ref_acc[d] * 100.0, timer.elapsed_s());
  }
  finish(table, "fig5_dg");
  std::printf(
      "\nPaper shape: exclusion effects are inconsistent — some devices "
      "lose accuracy when unseen, others (S6, VELVET in the paper) gain.\n");
  return 0;
}

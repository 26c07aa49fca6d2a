// Fig 4: fairness — bias of the global model toward dominant devices
// (Galaxy S9 & S6, 65% combined market share) when client participation
// follows Table 1's market shares.
//
// The paper reports each device's model-quality degradation relative to the
// dominant devices. In a simulator the per-device *difficulty* (sensor
// noise, tone processing) confounds that number, so this bench reports two
// views:
//   1. the paper's metric: degradation vs the dominant pair under
//      market-share training;
//   2. a difficulty-corrected view: each device's accuracy gain when
//      training participation goes from uniform to market-share — positive
//      gain = the device benefits from its market dominance, the isolated
//      bias effect.
#include "bench_common.h"

using namespace hetero;
using namespace hetero::bench;

namespace {

std::vector<double> run_fedavg(const ClientProvider& pop, std::size_t rounds,
                               std::size_t k, std::uint64_t seed) {
  ModelSpec spec;
  Rng model_rng(seed);
  auto model = make_model(spec, model_rng);
  FedAvg algo(paper_local_config());
  SimulationConfig sim;
  sim.rounds = rounds;
  sim.clients_per_round = k;
  sim.seed = seed + 1;
  sim.num_threads = Scale{}.threads();
  sim.observer = trace_sink().run("fig4.fedavg");
  return run_simulation(*model, algo, pop, sim).final_metrics.per_device;
}

}  // namespace

int main() {
  const Scale scale;
  print_header("Fig 4", "bias toward dominant devices under market share",
               scale);

  const std::size_t n_clients = static_cast<std::size_t>(scale.n(30, 100));
  const std::size_t k = static_cast<std::size_t>(scale.n(8, 20));
  const std::size_t rounds = static_cast<std::size_t>(scale.rounds(80, 300));
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
  const MaterializedPopulation market_pop(
      PopulationSpec::single_label(paper_devices(), pcfg, scenes), pop_rng);
  PopulationConfig ucfg = pcfg;
  ucfg.assignment = DeviceAssignment::kUniform;
  Rng upop_rng = root.fork(1);  // identical data streams, only the device
                                // assignment differs
  const MaterializedPopulation uniform_pop(
      PopulationSpec::single_label(paper_devices(), ucfg, scenes), upop_rng);
  std::fprintf(stderr, "[fig4] populations built (%.1fs)\n",
               timer.elapsed_s());

  const auto market_acc = run_fedavg(market_pop, rounds, k, scale.seed() + 2);
  std::fprintf(stderr, "[fig4] market-share run done (%.1fs)\n",
               timer.elapsed_s());
  const auto uniform_acc = run_fedavg(uniform_pop, rounds, k,
                                      scale.seed() + 2);
  std::fprintf(stderr, "[fig4] uniform run done (%.1fs)\n", timer.elapsed_s());

  const double dom_acc = (market_acc[device_index("GalaxyS9")] +
                          market_acc[device_index("GalaxyS6")]) /
                         2.0;

  Table table({"Device", "Share", "Acc(market)", "DegVsDominant",
               "Acc(uniform)", "ShareBenefit"});
  for (std::size_t d = 0; d < paper_devices().size(); ++d) {
    const auto& dev = paper_devices()[d];
    table.add_row({dev.name, Table::fmt(dev.market_share, 0) + "%",
                   Table::pct(market_acc[d]),
                   Table::pct(degradation(dom_acc, market_acc[d])),
                   Table::pct(uniform_acc[d]),
                   Table::pct(market_acc[d] - uniform_acc[d])});
  }
  // Aggregate the bias effect: mean share benefit of dominant vs rest.
  double dom_benefit = 0.0, other_benefit = 0.0;
  for (std::size_t d = 0; d < paper_devices().size(); ++d) {
    const double b = market_acc[d] - uniform_acc[d];
    if (paper_devices()[d].name == "GalaxyS9" ||
        paper_devices()[d].name == "GalaxyS6") {
      dom_benefit += b / 2.0;
    } else {
      other_benefit += b / 7.0;
    }
  }
  table.add_row({"(dominant mean)", "65%", Table::pct(dom_acc), "-", "-",
                 Table::pct(dom_benefit)});
  table.add_row({"(others mean)", "35%", "-", "-", "-",
                 Table::pct(other_benefit)});
  finish(table, "fig4_fairness");
  std::printf(
      "\nPaper shape: the global model favours the dominant pair (others "
      "trail by 3.2%%-16.9%% in the paper); ShareBenefit isolates that bias "
      "from per-device difficulty — dominant mean should exceed others "
      "mean. S22 lags despite its share (idiosyncratic wide-gamut ISP).\n");
  return 0;
}

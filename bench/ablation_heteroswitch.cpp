// Ablations of HeteroSwitch's design choices (DESIGN.md section 5):
//   A. EMA smoothing factor alpha of eq. 1 (paper uses 0.9);
//   B. bias criterion: Algorithm 1's train loss vs a held-out validation
//      split (Section 5.1 mentions both);
//   C. ISP-transform strength: the paper's (WB 0.001, gamma 0.9) vs weaker
//      and stronger settings (Appendix A.2 grid corners);
//   D. extra baseline: FedAvgM (server momentum) — not in the paper, shows
//      that generic stabilization does not substitute for HeteroSwitch.
#include "bench_common.h"
#include "hetero/heteroswitch.h"

using namespace hetero;
using namespace hetero::bench;

namespace {

DeviceMetrics run(SplitFederatedAlgorithm& algo, const ClientProvider& pop,
                  std::size_t rounds, std::size_t k, std::uint64_t seed) {
  ModelSpec spec;
  Rng model_rng(seed);
  auto model = make_model(spec, model_rng);
  SimulationConfig sim;
  sim.rounds = rounds;
  sim.clients_per_round = k;
  sim.seed = seed + 1;
  sim.num_threads = Scale{}.threads();
  sim.observer = trace_sink().run("ablation." + algo.name());
  return run_simulation(*model, algo, pop, sim).final_metrics;
}

}  // namespace

int main() {
  const Scale scale;
  print_header("Ablation", "HeteroSwitch design choices", scale);

  const std::size_t n_clients = static_cast<std::size_t>(scale.n(30, 100));
  const std::size_t k = static_cast<std::size_t>(scale.n(8, 20));
  const std::size_t rounds = static_cast<std::size_t>(scale.rounds(60, 500));
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
  const std::uint64_t seed = scale.seed() + 7;

  Table table({"Variant", "DG worst-case Acc", "Fairness Variance",
               "Fairness avg Acc"});
  auto add = [&](const std::string& name, const DeviceMetrics& m) {
    table.add_row({name, Table::fmt(m.worst_case * 100, 2),
                   Table::fmt(m.variance * 1e4, 2),
                   Table::fmt(m.average * 100, 2)});
    std::fprintf(stderr, "[ablation] %-28s worst %.2f avg %.2f (%.1fs)\n",
                 name.c_str(), m.worst_case * 100, m.average * 100,
                 timer.elapsed_s());
  };

  // Reference points.
  {
    FedAvg fedavg(local);
    add("FedAvg", run(fedavg, pop, rounds, k, seed));
  }
  {
    HeteroSwitch hs(local, HeteroSwitchOptions{});
    add("HeteroSwitch (paper)", run(hs, pop, rounds, k, seed));
  }

  // A: EMA alpha.
  for (double alpha : {0.5, 0.99}) {
    HeteroSwitchOptions opt;
    opt.ema_alpha = alpha;
    HeteroSwitch hs(local, opt);
    add("alpha=" + Table::fmt(alpha, 2), run(hs, pop, rounds, k, seed));
  }

  // B: validation-split bias criterion.
  {
    HeteroSwitchOptions opt;
    opt.criterion = BiasCriterion::kValidationSplit;
    HeteroSwitch hs(local, opt);
    add("validation-split criterion", run(hs, pop, rounds, k, seed));
  }

  // C: transform strength — the paper's degrees (selected on its real-
  // device dataset) vs weaker/stronger corners of the Appendix A.2 grid.
  {
    HeteroSwitchOptions opt;
    opt.transform = paper_isp_transform();
    HeteroSwitch hs(local, opt);
    add("paper degrees (wb=.001,g=.9)", run(hs, pop, rounds, k, seed));
  }
  {
    HeteroSwitchOptions opt;
    opt.transform = {0.0005f, 0.3f};
    HeteroSwitch hs(local, opt);
    add("weak transform (g=0.3)", run(hs, pop, rounds, k, seed));
  }
  {
    HeteroSwitchOptions opt;
    opt.transform = {0.3f, 0.9f};
    HeteroSwitch hs(local, opt);
    add("strong transform (wb=.3,g=.9)", run(hs, pop, rounds, k, seed));
  }

  // D: FedAvgM baseline (not in the paper).
  {
    FedAvgM fedavgm(local, 0.7f);
    add("FedAvgM beta=0.7", run(fedavgm, pop, rounds, k, seed));
  }

  finish(table, "ablation_heteroswitch");
  std::printf(
      "\nReading: the selective defaults should sit at/near the best "
      "variance; transform strength trades average accuracy against "
      "fairness; FedAvgM accelerates convergence but does not target "
      "cross-device variance. Single-seed smoke runs are noisy — use "
      "HS_REPEATS for averaged comparisons.\n");
  return 0;
}

// Fig 8 (Appendix A.2): hyperparameter sensitivity of the FL setup —
// learning rate, minibatch size, local epochs, and communication rounds.
// The paper selects lr=0.1, B=10, E=1, T=1000 from these sweeps.
#include "bench_common.h"

using namespace hetero;
using namespace hetero::bench;

namespace {

double run_fedavg(const ClientProvider& pop, const LocalTrainConfig& local,
                  std::size_t rounds, std::size_t k, std::uint64_t seed) {
  ModelSpec spec;
  Rng model_rng(seed);
  auto model = make_model(spec, model_rng);
  FedAvg algo(local);
  SimulationConfig sim;
  sim.rounds = rounds;
  sim.clients_per_round = k;
  sim.seed = seed + 1;
  sim.num_threads = Scale{}.threads();
  sim.observer = trace_sink().run("fig8.fedavg");
  const SimulationResult r = run_simulation(*model, algo, pop, sim);
  return r.final_metrics.average;
}

}  // namespace

int main() {
  const Scale scale;
  print_header("Fig 8", "hyperparameter sensitivity (lr, B, E, T)", scale);

  const std::size_t n_clients = static_cast<std::size_t>(scale.n(24, 100));
  const std::size_t k = static_cast<std::size_t>(scale.n(6, 20));
  const std::size_t base_rounds =
      static_cast<std::size_t>(scale.rounds(50, 100));
  const std::size_t samples = static_cast<std::size_t>(scale.n(20, 40));

  SceneGenerator scenes(64);
  Rng root(scale.seed());
  Timer timer;

  PopulationConfig pcfg;
  pcfg.num_clients = n_clients;
  pcfg.samples_per_client = samples;
  pcfg.test_per_class = static_cast<std::size_t>(scale.n(4, 10));
  pcfg.capture.tensor_size = static_cast<std::size_t>(scale.n(16, 32));
  pcfg.capture.illuminant_sigma_override = -1.0f;  // deployed-population captures
  Rng pop_rng = root.fork(1);
  const MaterializedPopulation pop(
      PopulationSpec::single_label(paper_devices(), pcfg, scenes), pop_rng);

  Table table({"Parameter", "Value", "Average Accuracy"});
  const LocalTrainConfig base = paper_local_config();

  for (float lr : {0.001f, 0.01f, 0.1f}) {
    LocalTrainConfig cfg = base;
    cfg.lr = lr;
    const double acc = run_fedavg(pop, cfg, base_rounds, k, scale.seed() + 2);
    table.add_row({"learning rate", Table::fmt(lr, 3), Table::pct(acc)});
    std::fprintf(stderr, "[fig8] lr=%.3f acc %.1f%% (%.1fs)\n", lr,
                 acc * 100, timer.elapsed_s());
  }
  for (std::size_t b : {1u, 10u, 20u}) {
    LocalTrainConfig cfg = base;
    cfg.batch_size = b;
    const double acc = run_fedavg(pop, cfg, base_rounds, k, scale.seed() + 3);
    table.add_row({"minibatch size", std::to_string(b), Table::pct(acc)});
    std::fprintf(stderr, "[fig8] B=%zu acc %.1f%% (%.1fs)\n", b, acc * 100,
                 timer.elapsed_s());
  }
  for (std::size_t e : {1u, 3u, 5u}) {
    LocalTrainConfig cfg = base;
    cfg.epochs = e;
    const double acc = run_fedavg(pop, cfg, base_rounds, k, scale.seed() + 4);
    table.add_row({"local epochs", std::to_string(e), Table::pct(acc)});
    std::fprintf(stderr, "[fig8] E=%zu acc %.1f%% (%.1fs)\n", e, acc * 100,
                 timer.elapsed_s());
  }
  // Rounds sweep scaled as T/10, T/2, T of the paper's {100, 500, 1000}.
  for (std::size_t t : {base_rounds / 10 + 1, base_rounds / 2, base_rounds}) {
    const double acc = run_fedavg(pop, base, t, k, scale.seed() + 5);
    table.add_row({"rounds", std::to_string(t), Table::pct(acc)});
    std::fprintf(stderr, "[fig8] T=%zu acc %.1f%% (%.1fs)\n", t, acc * 100,
                 timer.elapsed_s());
  }
  finish(table, "fig8_sensitivity");
  std::printf(
      "\nPaper shape: accuracy rises with lr up to 0.1, small batches and "
      "few local epochs win at fixed rounds, and more rounds help.\n");
  return 0;
}

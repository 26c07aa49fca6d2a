// Example: running HeteroSwitch in a federated simulation and watching the
// switching behaviour.
//
// Builds a market-share population over the 9 paper devices, runs FedAvg
// and HeteroSwitch side by side from the same initialization, and reports
// the fairness (accuracy variance) and DG (worst-case accuracy) metrics,
// plus HeteroSwitch's internal switch statistics — how often Switch_1
// (bias detected -> transforms + SWAD) and Switch_2 (return the SWAD
// average) fired.
//
// Run time: ~1 min at the default scale.
#include <cstdio>

#include "fl/simulation.h"
#include "hetero/heteroswitch.h"
#include "nn/model_zoo.h"
#include "scene/scene_gen.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace hetero;

namespace {

void report(const char* name, const DeviceMetrics& m,
            const ClientProvider& pop) {
  std::printf("\n%s:\n", name);
  for (std::size_t d = 0; d < pop.device_names().size(); ++d) {
    std::printf("  %-10s %5.1f%%\n", pop.device_names()[d].c_str(),
                m.per_device[d] * 100.0);
  }
  std::printf("  average %.2f%%  variance %.2f  worst-case %.2f%%\n",
              m.average * 100.0, m.variance * 1e4, m.worst_case * 100.0);
}

}  // namespace

int main() {
  Rng rng(21);
  SceneGenerator scenes(64);

  PopulationConfig pcfg;
  pcfg.num_clients = 30;
  pcfg.samples_per_client = 20;
  pcfg.test_per_class = 5;
  pcfg.capture.tensor_size = 16;  // FL-sim scale (see DESIGN.md section 6)
  pcfg.capture.illuminant_sigma_override = -1.0f;  // deployed captures
  Rng pop_rng = rng.fork(1);
  std::printf("Building market-share population (N=%zu clients)...\n",
              pcfg.num_clients);
  Timer timer;
  const MaterializedPopulation pop(
      PopulationSpec::single_label(paper_devices(), pcfg, scenes), pop_rng);
  std::printf("  done in %.1fs\n", timer.elapsed_s());

  LocalTrainConfig local;  // the paper's B=10, E=1, lr=0.1
  local.lr = 0.1f;
  local.batch_size = 10;
  local.epochs = 1;

  SimulationConfig sim;
  sim.rounds = 60;
  sim.clients_per_round = 8;
  sim.seed = 99;

  // FedAvg baseline.
  ModelSpec spec;
  Rng model_rng(5);
  auto baseline_model = make_model(spec, model_rng);
  const Tensor init = baseline_model->state();
  FedAvg fedavg(local);
  timer.reset();
  const SimulationResult base = run_simulation(*baseline_model, fedavg, pop,
                                               sim);
  std::printf("FedAvg finished in %.1fs\n", timer.elapsed_s());

  // HeteroSwitch from the identical initialization.
  Rng model_rng2(5);
  auto hs_model = make_model(spec, model_rng2);
  hs_model->set_state(init);
  HeteroSwitch hs(local, HeteroSwitchOptions{});
  timer.reset();
  const SimulationResult ours = run_simulation(*hs_model, hs, pop, sim);
  std::printf("HeteroSwitch finished in %.1fs\n", timer.elapsed_s());

  report("FedAvg", base.final_metrics, pop);
  report("HeteroSwitch", ours.final_metrics, pop);

  std::printf("\nHeteroSwitch internals over %zu client updates:\n",
              hs.client_updates());
  std::printf("  Switch_1 (bias detected -> ISP transform + SWAD): %zu\n",
              hs.switch1_activations());
  std::printf("  Switch_2 (returned SWAD average):                 %zu\n",
              hs.switch2_activations());
  std::printf("  final L_EMA: %.3f\n", hs.ema_loss());

  const double dvar = base.final_metrics.variance > 0
                          ? (base.final_metrics.variance -
                             ours.final_metrics.variance) /
                                base.final_metrics.variance * 100.0
                          : 0.0;
  std::printf("\nVariance reduction vs FedAvg: %.1f%%  (paper: 79.5%% at "
              "full scale)\n", dvar);
  return 0;
}

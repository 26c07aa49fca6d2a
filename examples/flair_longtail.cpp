// Example: FLAIR-style multi-label federated learning over a long-tailed
// device population (the Table 6 scenario at example scale).
//
// Shows: synthesizing a long-tail device population, building per-user
// multi-label datasets with skewed label preferences, training with FedAvg
// and HeteroSwitch, and comparing per-device-type averaged precision.
//
// Run time: ~1 min.
#include <cstdio>

#include "fl/simulation.h"
#include "hetero/heteroswitch.h"
#include "nn/model_zoo.h"
#include "scene/flair_gen.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace hetero;

int main() {
  Rng rng(31);
  FlairSceneGenerator scenes(64);

  // A 12-device long-tail population: the 9 paper devices as the head plus
  // synthesized tail devices with random sensor/ISP mixes.
  Rng dev_rng = rng.fork(1);
  const auto devices = long_tail_population(12, dev_rng);
  std::printf("Device population (share decays exponentially):\n");
  for (const auto& d : devices) {
    std::printf("  %-10s tier %c  share %.2f  isp: %s\n", d.name.c_str(),
                d.tier, d.market_share, d.isp.describe().c_str());
  }

  CaptureConfig capture;
  capture.illuminant_sigma_override = -1.0f;  // in-the-wild captures
  Rng pop_rng = rng.fork(2);
  Timer timer;
  const MaterializedPopulation pop(
      PopulationSpec::flair(devices, /*num_clients=*/24,
                            /*samples_per_client=*/14,
                            /*test_per_device=*/16, capture, scenes),
      pop_rng);
  std::printf("\nBuilt %zu user datasets (multi-label, %zu labels) in %.1fs\n",
              pop.num_clients(), FlairSceneGenerator::kNumLabels,
              timer.elapsed_s());

  LocalTrainConfig local;
  local.lr = 0.1f;
  local.batch_size = 10;
  local.epochs = 1;
  SimulationConfig sim;
  sim.rounds = 10;
  sim.clients_per_round = 6;
  sim.seed = 41;

  ModelSpec spec;
  spec.num_classes = FlairSceneGenerator::kNumLabels;

  for (int use_hs : {0, 1}) {
    Rng model_rng(9);
    auto model = make_model(spec, model_rng);
    std::unique_ptr<SplitFederatedAlgorithm> algo;
    if (use_hs) {
      algo = std::make_unique<HeteroSwitch>(local, HeteroSwitchOptions{});
    } else {
      algo = std::make_unique<FedAvg>(local);
    }
    timer.reset();
    const SimulationResult r = run_simulation(*model, *algo, pop, sim);
    std::printf("\n%s (%.1fs): averaged precision per device type\n",
                algo->name().c_str(), timer.elapsed_s());
    for (std::size_t d = 0; d < pop.device_names().size(); ++d) {
      std::printf("  %-10s AP %.1f%%\n", pop.device_names()[d].c_str(),
                  r.final_metrics.per_device[d] * 100.0);
    }
    std::printf("  mean AP %.2f%%  variance %.2f  worst %.2f%%\n",
                r.final_metrics.average * 100.0,
                r.final_metrics.variance * 1e4,
                r.final_metrics.worst_case * 100.0);
  }
  std::printf(
      "\nReading: the paper's Table 6 — HeteroSwitch trims the AP variance "
      "across device types without giving up mean AP.\n");
  return 0;
}

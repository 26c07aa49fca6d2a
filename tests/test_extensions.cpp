// Tests for the extension features: classification report, FedAvgM,
// HeteroSwitch's validation-split bias criterion.
#include <gtest/gtest.h>

#include "fl/algorithm.h"
#include "fl/eval.h"
#include "fl/simulation.h"
#include "hetero/heteroswitch.h"
#include "nn/model_zoo.h"
#include "test_util.h"

namespace hetero {
namespace {

using hetero::testing::run_one_round;

Dataset easy_data(std::size_t n, std::uint64_t seed) {
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

std::unique_ptr<Model> tiny_model(std::uint64_t seed) {
  Rng rng(seed);
  ModelSpec spec;
  spec.arch = "mlp-tiny";
  spec.image_size = 8;
  spec.num_classes = 2;
  return make_model(spec, rng);
}

LocalTrainConfig fast_cfg() {
  LocalTrainConfig cfg;
  cfg.lr = 0.05f;
  cfg.epochs = 1;
  cfg.batch_size = 4;
  return cfg;
}

// --------------------------------------------------- classification report

TEST(ClassificationReport, ConfusionCountsSumToN) {
  auto model = tiny_model(1);
  Dataset data = easy_data(20, 2);
  const auto report = classification_report(*model, data, 2);
  std::size_t total = 0;
  for (const auto& row : report.confusion) {
    for (std::size_t c : row) total += c;
  }
  EXPECT_EQ(total, 20u);
}

TEST(ClassificationReport, PerfectModelPerfectReport) {
  auto model = tiny_model(3);
  Dataset data = easy_data(24, 4);
  Rng rng(5);
  for (int e = 0; e < 40; ++e) local_train(*model, data, fast_cfg(), rng);
  const auto report = classification_report(*model, data, 2);
  EXPECT_GT(report.accuracy, 0.95);
  EXPECT_GT(report.macro_recall, 0.95);
  // Off-diagonal nearly empty.
  EXPECT_LE(report.confusion[0][1] + report.confusion[1][0], 1u);
}

TEST(ClassificationReport, AccuracyMatchesEvaluateAccuracy) {
  auto model = tiny_model(6);
  Dataset data = easy_data(16, 7);
  const auto report = classification_report(*model, data, 2);
  EXPECT_NEAR(report.accuracy, evaluate_accuracy(*model, data), 1e-12);
}

TEST(ClassificationReport, AbsentClassHasZeroRecall) {
  auto model = tiny_model(8);
  // All labels are 0.
  Rng rng(9);
  Tensor xs({6, 3, 8, 8});
  for (float& v : xs.flat()) v = rng.uniform_f(0, 1);
  Dataset data(std::move(xs), std::vector<std::size_t>(6, 0));
  const auto report = classification_report(*model, data, 2);
  EXPECT_EQ(report.per_class_recall[1], 0.0);
  // Macro recall averages only over present classes.
  EXPECT_NEAR(report.macro_recall, report.per_class_recall[0], 1e-12);
}

TEST(ClassificationReport, ValidatesClassCount) {
  auto model = tiny_model(10);
  Dataset data = easy_data(8, 11);
  EXPECT_THROW(classification_report(*model, data, 5),
               std::invalid_argument);
}

// ----------------------------------------------------------------- FedAvgM

TEST(FedAvgM, RequiresInit) {
  auto model = tiny_model(12);
  std::vector<Dataset> clients = {easy_data(8, 13)};
  FedAvgM algo(fast_cfg(), 0.9f);
  Rng rng(14);
  EXPECT_THROW(run_one_round(*model, algo, {0}, clients, rng),
               std::invalid_argument);
}

TEST(FedAvgM, ZeroMomentumMatchesFedAvg) {
  auto a = tiny_model(15);
  auto b = tiny_model(15);
  std::vector<Dataset> clients = {easy_data(16, 16)};
  FedAvg fedavg(fast_cfg());
  FedAvgM fedavgm(fast_cfg(), 0.0f);
  fedavgm.init(*b, 1);
  Rng r1(17), r2(17);
  run_one_round(*a, fedavg, {0}, clients, r1);
  run_one_round(*b, fedavgm, {0}, clients, r2);
  hetero::testing::expect_tensor_near(a->state(), b->state(), 1e-5f);
}

TEST(FedAvgM, MomentumAcceleratesConsistentDirection) {
  // Two rounds on the same data: with momentum the second step includes a
  // fraction of the first delta, so total movement exceeds FedAvg's.
  auto plain = tiny_model(18);
  auto heavy = tiny_model(18);
  const Tensor start = plain->state();
  std::vector<Dataset> clients = {easy_data(16, 19)};
  FedAvg fedavg(fast_cfg());
  FedAvgM fedavgm(fast_cfg(), 0.9f);
  fedavgm.init(*heavy, 1);
  for (int round = 0; round < 3; ++round) {
    Rng r1(20 + round), r2(20 + round);
    run_one_round(*plain, fedavg, {0}, clients, r1);
    run_one_round(*heavy, fedavgm, {0}, clients, r2);
  }
  const float plain_move = (plain->state() - start).norm();
  const float heavy_move = (heavy->state() - start).norm();
  EXPECT_GT(heavy_move, plain_move);
}

TEST(FedAvgM, LearnsSeparableTask) {
  auto model = tiny_model(21);
  FlPopulation data;
  for (int i = 0; i < 4; ++i) {
    data.client_train.push_back(easy_data(16, 22 + i));
    data.client_device.push_back(0);
  }
  data.device_test.push_back(easy_data(32, 30));
  data.device_names.push_back("synthetic");
  const MaterializedPopulation pop(std::move(data));
  FedAvgM algo(fast_cfg(), 0.5f);
  SimulationConfig sim;
  sim.rounds = 15;
  sim.clients_per_round = 2;
  sim.seed = 31;
  const SimulationResult r = run_simulation(*model, algo, pop, sim);
  EXPECT_GT(r.final_metrics.average, 0.85);
}

// ----------------------------------------- validation-split bias criterion

TEST(ValidationCriterion, RunsAndLearns) {
  auto model = tiny_model(32);
  FlPopulation data;
  for (int i = 0; i < 4; ++i) {
    data.client_train.push_back(easy_data(16, 33 + i));
    data.client_device.push_back(0);
  }
  data.device_test.push_back(easy_data(32, 40));
  data.device_names.push_back("synthetic");
  const MaterializedPopulation pop(std::move(data));
  HeteroSwitchOptions opt;
  opt.criterion = BiasCriterion::kValidationSplit;
  opt.validation_fraction = 0.25f;
  HeteroSwitch algo(fast_cfg(), opt);
  SimulationConfig sim;
  sim.rounds = 20;
  sim.clients_per_round = 2;
  sim.seed = 41;
  const SimulationResult r = run_simulation(*model, algo, pop, sim);
  EXPECT_GT(r.final_metrics.average, 0.8);
  EXPECT_GT(algo.client_updates(), 0u);
}

TEST(ValidationCriterion, TinyDatasetsFallBackToTrainLoss) {
  // Datasets smaller than 4 samples cannot be split; the algorithm must
  // still run (falling back to the whole-data criterion).
  auto model = tiny_model(42);
  std::vector<Dataset> clients = {easy_data(3, 43)};
  HeteroSwitchOptions opt;
  opt.criterion = BiasCriterion::kValidationSplit;
  HeteroSwitch algo(fast_cfg(), opt);
  algo.init(*model, 1);
  Rng rng(44);
  EXPECT_NO_THROW(run_one_round(*model, algo, {0}, clients, rng));
}

TEST(ValidationCriterion, SwitchStatsStillTracked) {
  auto model = tiny_model(45);
  std::vector<Dataset> clients = {easy_data(16, 46)};
  HeteroSwitchOptions opt;
  opt.criterion = BiasCriterion::kValidationSplit;
  HeteroSwitch algo(fast_cfg(), opt);
  algo.init(*model, 1);
  Rng rng(47);
  for (int round = 0; round < 6; ++round) {
    Rng round_rng = rng.fork(static_cast<std::uint64_t>(round));
    run_one_round(*model, algo, {0}, clients, round_rng);
  }
  EXPECT_EQ(algo.client_updates(), 6u);
  EXPECT_LE(algo.switch2_activations(), algo.switch1_activations());
}

}  // namespace
}  // namespace hetero

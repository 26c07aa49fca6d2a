// Federated-learning framework tests: evaluation, aggregation, the four
// baseline algorithms, population construction, and the simulation loop.
#include <gtest/gtest.h>

#include <cmath>

#include "fl/algorithm.h"
#include "fl/eval.h"
#include "fl/population.h"
#include "fl/simulation.h"
#include "fl/trainer.h"
#include "nn/model_zoo.h"
#include "test_util.h"

namespace hetero {
namespace {

using hetero::testing::run_one_round;

/// A trivially learnable dataset: class = bright vs dark images.
Dataset two_class_data(std::size_t n, float lo, float hi, std::uint64_t seed) {
  Rng rng(seed);
  Tensor xs({n, 3, 8, 8});
  std::vector<std::size_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = i % 2;
    const float base = labels[i] == 0 ? lo : hi;
    for (std::size_t j = 0; j < 3 * 64; ++j) {
      xs[i * 3 * 64 + j] = base + rng.uniform_f(-0.05f, 0.05f);
    }
  }
  return Dataset(std::move(xs), std::move(labels));
}

std::unique_ptr<Model> tiny_model(std::uint64_t seed,
                                  std::size_t classes = 2) {
  Rng rng(seed);
  ModelSpec spec;
  spec.arch = "mlp-tiny";
  spec.image_size = 8;
  spec.num_classes = classes;
  return make_model(spec, rng);
}

LocalTrainConfig fast_cfg() {
  LocalTrainConfig cfg;
  cfg.lr = 0.05f;
  cfg.epochs = 1;
  cfg.batch_size = 4;
  return cfg;
}

// ----------------------------------------------------------------- eval --

TEST(AveragePrecision, PerfectRankingIsOne) {
  EXPECT_DOUBLE_EQ(average_precision({0.9f, 0.8f, 0.2f, 0.1f},
                                     {true, true, false, false}),
                   1.0);
}

TEST(AveragePrecision, KnownInterleavedCase) {
  // Relevant at ranks 1 and 3: AP = (1/1 + 2/3) / 2 = 5/6.
  EXPECT_NEAR(average_precision({0.9f, 0.8f, 0.7f, 0.1f},
                                {true, false, true, false}),
              5.0 / 6.0, 1e-12);
}

TEST(AveragePrecision, NoPositivesIsZero) {
  EXPECT_DOUBLE_EQ(average_precision({0.5f, 0.4f}, {false, false}), 0.0);
}

TEST(AveragePrecision, WorstRankingLowScore) {
  // One positive ranked last of 4: AP = 1/4.
  EXPECT_DOUBLE_EQ(average_precision({0.9f, 0.8f, 0.7f, 0.1f},
                                     {false, false, false, true}),
                   0.25);
}

TEST(Eval, AccuracyAndLossOnSeparableData) {
  auto model = tiny_model(1);
  Dataset data = two_class_data(32, 0.1f, 0.9f, 2);
  Rng rng(3);
  for (int e = 0; e < 30; ++e) local_train(*model, data, fast_cfg(), rng);
  EXPECT_GT(evaluate_accuracy(*model, data), 0.9);
  EXPECT_LT(evaluate_loss(*model, data), 0.5);
}

TEST(Eval, MultiLabelApOnSeparableData) {
  Rng rng(4);
  ModelSpec spec;
  spec.arch = "mlp-tiny";
  spec.image_size = 8;
  spec.num_classes = 3;
  auto model = make_model(spec, rng);
  // Label l active iff channel l bright.
  Tensor xs({24, 3, 8, 8});
  Tensor ys({24, 3});
  Rng drng(5);
  for (std::size_t i = 0; i < 24; ++i) {
    for (std::size_t c = 0; c < 3; ++c) {
      const bool on = drng.bernoulli(0.5);
      ys.at(i, c) = on ? 1.0f : 0.0f;
      for (std::size_t j = 0; j < 64; ++j) {
        xs[(i * 3 + c) * 64 + j] = (on ? 0.9f : 0.1f) +
                                   drng.uniform_f(-0.05f, 0.05f);
      }
    }
  }
  Dataset data(std::move(xs), std::move(ys));
  LocalTrainConfig cfg = fast_cfg();
  cfg.lr = 0.1f;
  Rng trng(6);
  for (int e = 0; e < 60; ++e) local_train(*model, data, cfg, trng);
  EXPECT_GT(evaluate_average_precision(*model, data), 0.9);
}

// ---------------------------------------------------------------- trainer --

TEST(Trainer, LossDecreasesOverEpochs) {
  auto model = tiny_model(7);
  Dataset data = two_class_data(24, 0.2f, 0.8f, 8);
  Rng rng(9);
  const float first = local_train(*model, data, fast_cfg(), rng);
  float last = first;
  for (int e = 0; e < 20; ++e) last = local_train(*model, data, fast_cfg(), rng);
  EXPECT_LT(last, first * 0.7f);
}

TEST(Trainer, HooksFire) {
  auto model = tiny_model(10);
  Dataset data = two_class_data(8, 0.2f, 0.8f, 11);
  int transforms = 0, post_grads = 0, post_steps = 0;
  TrainHooks hooks;
  hooks.transform_batch = [&](Batch&, Rng&) { ++transforms; };
  hooks.post_grad = [&](Model&) { ++post_grads; };
  hooks.post_step = [&](Model&, std::size_t) { ++post_steps; };
  LocalTrainConfig cfg = fast_cfg();
  cfg.epochs = 2;
  Rng rng(12);
  local_train(*model, data, cfg, rng, hooks);
  const int expected_batches = 2 * 2;  // 8 samples / batch 4, 2 epochs
  EXPECT_EQ(transforms, expected_batches);
  EXPECT_EQ(post_grads, expected_batches);
  EXPECT_EQ(post_steps, expected_batches);
}

TEST(Trainer, ReturnsRunningMeanLoss) {
  auto model = tiny_model(13);
  Dataset data = two_class_data(8, 0.2f, 0.8f, 14);
  Rng rng(15);
  const float loss = local_train(*model, data, fast_cfg(), rng);
  EXPECT_GT(loss, 0.0f);
  EXPECT_LT(loss, 5.0f);
}

// ----------------------------------------------------------- aggregation --

TEST(WeightedAverage, ExactMath) {
  std::vector<Tensor> states = {Tensor({2}, {1.0f, 0.0f}),
                                Tensor({2}, {0.0f, 2.0f})};
  Tensor avg = weighted_average_states(states, {1.0, 3.0});
  EXPECT_NEAR(avg[0], 0.25f, 1e-6f);
  EXPECT_NEAR(avg[1], 1.5f, 1e-6f);
}

TEST(WeightedAverage, Validation) {
  std::vector<Tensor> states = {Tensor({2})};
  EXPECT_THROW(weighted_average_states(states, {1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW(weighted_average_states(states, {0.0}), std::invalid_argument);
  EXPECT_THROW(weighted_average_states(states, {-1.0}),
               std::invalid_argument);
}

// ------------------------------------------------------------ population --

TEST(Population, MarketShareSkewsAssignment) {
  SceneGenerator scenes(32);
  Rng rng(16);
  PopulationConfig cfg;
  cfg.num_clients = 200;
  cfg.samples_per_client = 2;
  cfg.test_per_class = 1;
  cfg.capture.tensor_size = 8;
  FlPopulation pop = make_population(
      PopulationSpec::single_label(paper_devices(), cfg, scenes), rng);
  ASSERT_EQ(pop.client_device.size(), 200u);
  std::vector<int> counts(9, 0);
  for (std::size_t d : pop.client_device) ++counts[d];
  // GalaxyS6 (38%) must dominate Pixel5 (1%).
  EXPECT_GT(counts[device_index("GalaxyS6")],
            counts[device_index("Pixel5")]);
  EXPECT_GT(counts[device_index("GalaxyS6")], 40);
}

TEST(Population, UniformAssignmentIsBalanced) {
  SceneGenerator scenes(32);
  Rng rng(17);
  PopulationConfig cfg;
  cfg.num_clients = 18;
  cfg.samples_per_client = 2;
  cfg.test_per_class = 1;
  cfg.assignment = DeviceAssignment::kUniform;
  cfg.capture.tensor_size = 8;
  FlPopulation pop = make_population(
      PopulationSpec::single_label(paper_devices(), cfg, scenes), rng);
  std::vector<int> counts(9, 0);
  for (std::size_t d : pop.client_device) ++counts[d];
  for (int c : counts) EXPECT_EQ(c, 2);
}

TEST(Population, ExclusionRemovesDeviceFromTraining) {
  SceneGenerator scenes(32);
  Rng rng(18);
  PopulationConfig cfg;
  cfg.num_clients = 60;
  cfg.samples_per_client = 2;
  cfg.test_per_class = 1;
  cfg.capture.tensor_size = 8;
  cfg.exclude_from_training = {device_index("GalaxyS6")};
  FlPopulation pop = make_population(
      PopulationSpec::single_label(paper_devices(), cfg, scenes), rng);
  for (std::size_t d : pop.client_device) {
    EXPECT_NE(d, device_index("GalaxyS6"));
  }
  // The excluded device still has a test set (it is the DG target).
  EXPECT_EQ(pop.device_test.size(), 9u);
  EXPECT_FALSE(pop.device_test[device_index("GalaxyS6")].empty());
}

TEST(Population, TestSetsPerDevice) {
  SceneGenerator scenes(32);
  Rng rng(19);
  PopulationConfig cfg;
  cfg.num_clients = 5;
  cfg.samples_per_client = 2;
  cfg.test_per_class = 2;
  cfg.capture.tensor_size = 8;
  FlPopulation pop = make_population(
      PopulationSpec::single_label(paper_devices(), cfg, scenes), rng);
  ASSERT_EQ(pop.device_test.size(), 9u);
  for (const auto& t : pop.device_test) EXPECT_EQ(t.size(), 24u);
  EXPECT_EQ(pop.device_names[device_index("G4")], "G4");
}

// ------------------------------------------------- algorithms (behaviour) --

/// Builds a 2-client homogeneous population on synthetic separable data so
/// algorithm tests run in milliseconds.
FlPopulation synthetic_population(std::size_t clients, std::uint64_t seed) {
  FlPopulation pop;
  for (std::size_t i = 0; i < clients; ++i) {
    pop.client_train.push_back(two_class_data(16, 0.15f, 0.85f, seed + i));
    pop.client_device.push_back(0);
  }
  pop.device_test.push_back(two_class_data(32, 0.15f, 0.85f, seed + 100));
  pop.device_names.push_back("synthetic");
  return pop;
}

TEST(FedAvg, IdenticalClientsKeepConsensus) {
  // If all clients hold identical data and start from the same state, the
  // aggregated state equals any single client's state.
  auto model = tiny_model(20);
  FlPopulation pop;
  Dataset shared = two_class_data(16, 0.15f, 0.85f, 21);
  pop.client_train.push_back(shared);
  pop.client_train.push_back(shared);

  FedAvg algo(fast_cfg());
  const Tensor start = model->state();

  // Reference: one client's local result (same fork tag as client 0).
  auto ref_model = tiny_model(20);
  ref_model->set_state(start);
  Rng round_rng(99);
  Rng client_rng = round_rng.fork(0);
  local_train(*ref_model, shared, fast_cfg(), client_rng);
  const Tensor ref_after = ref_model->state();

  // FedAvg round over two identical clients... but client 1's rng fork
  // differs, so states differ slightly; the average must lie between them.
  model->set_state(start);
  Rng round_rng2(99);
  run_one_round(*model, algo, {0, 1}, pop.client_train, round_rng2);
  const Tensor agg = model->state();
  // Aggregate must stay close to the single-client result (same data).
  double dist = 0.0;
  for (std::size_t i = 0; i < agg.size(); ++i) {
    dist += std::abs(agg[i] - ref_after[i]);
  }
  EXPECT_LT(dist / static_cast<double>(agg.size()), 0.05);
}

TEST(FedAvg, LearnsSeparableTask) {
  auto model = tiny_model(22);
  const MaterializedPopulation pop(synthetic_population(4, 23));
  FedAvg algo(fast_cfg());
  SimulationConfig sim;
  sim.rounds = 15;
  sim.clients_per_round = 2;
  sim.seed = 24;
  const SimulationResult result = run_simulation(*model, algo, pop, sim);
  EXPECT_GT(result.final_metrics.average, 0.9);
  EXPECT_EQ(result.train_loss_history.size(), 15u);
  EXPECT_LT(result.train_loss_history.back(),
            result.train_loss_history.front());
}

TEST(FedAvg, SampleWeightedAggregation) {
  // A client with more samples pulls the average harder. Construct two
  // clients with conflicting constant gradients via different labels.
  auto model = tiny_model(25);
  Dataset big = two_class_data(32, 0.15f, 0.85f, 26);
  Dataset small = two_class_data(4, 0.15f, 0.85f, 27);
  std::vector<Dataset> clients;
  clients.push_back(big);
  clients.push_back(small);
  FedAvg algo(fast_cfg());
  const Tensor start = model->state();
  Rng rng(28);
  run_one_round(*model, algo, {0, 1}, clients, rng);
  // No assertion on direction here beyond sanity: state moved.
  EXPECT_GT((model->state() - start).norm(), 0.0f);
}

TEST(FedProx, ProximalTermShrinksDrift) {
  // With a huge mu, clients barely move from the global state.
  auto model_free = tiny_model(29);
  auto model_prox = tiny_model(29);  // identical init
  Dataset data = two_class_data(16, 0.15f, 0.85f, 30);
  std::vector<Dataset> clients = {data};

  const Tensor start = model_free->state();
  FedAvg fedavg(fast_cfg());
  Rng r1(31);
  run_one_round(*model_free, fedavg, {0}, clients, r1);
  const float drift_free = (model_free->state() - start).norm();

  FedProx fedprox(fast_cfg(), /*mu=*/10.0f);
  Rng r2(31);
  run_one_round(*model_prox, fedprox, {0}, clients, r2);
  const float drift_prox = (model_prox->state() - start).norm();
  EXPECT_LT(drift_prox, drift_free * 0.7f);
}

TEST(FedProx, SmallMuApproximatesFedAvg) {
  auto a = tiny_model(32);
  auto b = tiny_model(32);
  Dataset data = two_class_data(16, 0.15f, 0.85f, 33);
  std::vector<Dataset> clients = {data};
  FedAvg fedavg(fast_cfg());
  FedProx fedprox(fast_cfg(), 1e-8f);
  Rng r1(34), r2(34);
  run_one_round(*a, fedavg, {0}, clients, r1);
  run_one_round(*b, fedprox, {0}, clients, r2);
  const Tensor sa = a->state(), sb = b->state();
  double dist = 0.0;
  for (std::size_t i = 0; i < sa.size(); ++i) dist += std::abs(sa[i] - sb[i]);
  EXPECT_LT(dist / static_cast<double>(sa.size()), 1e-4);
}

TEST(QFedAvg, TinyQApproximatesFedAvgDirection) {
  auto a = tiny_model(35);
  auto b = tiny_model(35);
  Dataset data = two_class_data(16, 0.15f, 0.85f, 36);
  std::vector<Dataset> clients = {data};
  const Tensor start = a->state();
  FedAvg fedavg(fast_cfg());
  QFedAvg qfed(fast_cfg(), 1e-6);
  Rng r1(37), r2(37);
  run_one_round(*a, fedavg, {0}, clients, r1);
  run_one_round(*b, qfed, {0}, clients, r2);
  // Directions must be positively aligned.
  const Tensor da = a->state() - start;
  const Tensor db = b->state() - start;
  double dot = 0.0;
  for (std::size_t i = 0; i < da.size(); ++i) dot += da[i] * db[i];
  EXPECT_GT(dot, 0.0);
}

TEST(QFedAvg, LearnsSeparableTask) {
  auto model = tiny_model(38);
  const MaterializedPopulation pop(synthetic_population(4, 39));
  QFedAvg algo(fast_cfg(), 1e-6);
  SimulationConfig sim;
  sim.rounds = 20;
  sim.clients_per_round = 2;
  sim.seed = 40;
  const SimulationResult r = run_simulation(*model, algo, pop, sim);
  EXPECT_GT(r.final_metrics.average, 0.85);
}

TEST(Scaffold, RequiresInit) {
  auto model = tiny_model(41);
  Dataset data = two_class_data(8, 0.15f, 0.85f, 42);
  std::vector<Dataset> clients = {data};
  Scaffold algo(fast_cfg());
  Rng rng(43);
  EXPECT_THROW(run_one_round(*model, algo, {0}, clients, rng),
               std::invalid_argument);
}

TEST(Scaffold, LearnsSeparableTask) {
  auto model = tiny_model(44);
  const MaterializedPopulation pop(synthetic_population(4, 45));
  Scaffold algo(fast_cfg());
  SimulationConfig sim;
  sim.rounds = 20;
  sim.clients_per_round = 2;
  sim.seed = 46;
  const SimulationResult r = run_simulation(*model, algo, pop, sim);
  EXPECT_GT(r.final_metrics.average, 0.85);
}

// ------------------------------------------------------------ simulation --

TEST(Simulation, DeterministicGivenSeed) {
  const MaterializedPopulation pop(synthetic_population(4, 47));
  SimulationConfig sim;
  sim.rounds = 5;
  sim.clients_per_round = 2;
  sim.seed = 48;
  auto m1 = tiny_model(49);
  auto m2 = tiny_model(49);
  FedAvg a1(fast_cfg()), a2(fast_cfg());
  const auto r1 = run_simulation(*m1, a1, pop, sim);
  const auto r2 = run_simulation(*m2, a2, pop, sim);
  EXPECT_EQ(r1.train_loss_history, r2.train_loss_history);
  EXPECT_EQ(r1.final_metrics.average, r2.final_metrics.average);
}

TEST(Simulation, MetricsAreConsistent) {
  DeviceMetrics m;
  auto model = tiny_model(50);
  FlPopulation pop = synthetic_population(2, 51);
  pop.device_test.push_back(two_class_data(16, 0.15f, 0.85f, 52));
  pop.device_names.push_back("second");
  m = evaluate_per_device(*model, MaterializedPopulation(std::move(pop)));
  ASSERT_EQ(m.per_device.size(), 2u);
  EXPECT_NEAR(m.average, (m.per_device[0] + m.per_device[1]) / 2.0, 1e-12);
  EXPECT_LE(m.worst_case, m.per_device[0] + 1e-12);
  EXPECT_LE(m.worst_case, m.per_device[1] + 1e-12);
  EXPECT_GE(m.variance, 0.0);
}

TEST(Simulation, CheckpointsCollected) {
  const MaterializedPopulation pop(synthetic_population(3, 53));
  SimulationConfig sim;
  sim.rounds = 6;
  sim.clients_per_round = 2;
  sim.eval_every = 2;
  sim.seed = 54;
  auto model = tiny_model(55);
  FedAvg algo(fast_cfg());
  const auto r = run_simulation(*model, algo, pop, sim);
  ASSERT_EQ(r.checkpoints.size(), 2u);  // rounds 2 and 4 (6 is final)
  EXPECT_EQ(r.checkpoints[0].first, 2u);
  EXPECT_EQ(r.checkpoints[1].first, 4u);
}

TEST(Simulation, ValidatesClientCount) {
  const MaterializedPopulation pop(synthetic_population(2, 59));
  SimulationConfig sim;
  sim.rounds = 1;
  sim.clients_per_round = 5;  // more than the population
  auto model = tiny_model(60);
  FedAvg algo(fast_cfg());
  EXPECT_THROW(run_simulation(*model, algo, pop, sim), std::invalid_argument);
}

}  // namespace
}  // namespace hetero

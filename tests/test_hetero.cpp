// Tests for the paper's contribution: ISP transforms (eq. 2-3), SWA/SWAD
// weight averaging, and the HeteroSwitch algorithm (Algorithm 1).
#include <gtest/gtest.h>

#include <cmath>

#include "fl/eval.h"
#include "fl/simulation.h"
#include "hetero/heteroswitch.h"
#include "hetero/swad.h"
#include "hetero/transforms.h"
#include "nn/model_zoo.h"
#include "test_util.h"

namespace hetero {
namespace {

using hetero::testing::run_one_round;

Tensor random_image(std::uint64_t seed, std::size_t c = 3,
                    std::size_t s = 8) {
  Rng rng(seed);
  return Tensor::rand_uniform({c, s, s}, rng, 0.05f, 0.95f);
}

// -------------------------------------------------------------- transforms

TEST(RandomWB, DegreeZeroIsIdentity) {
  Tensor img = random_image(1);
  Tensor orig = img;
  Rng rng(2);
  random_white_balance(img, 0.0f, rng);
  hetero::testing::expect_tensor_near(img, orig, 1e-6f);
}

TEST(RandomWB, GainsBoundedByDegree) {
  // With degree d, each output channel is the input scaled by a factor in
  // [1-d, 1+d] (before clamping).
  Tensor img = Tensor::full({3, 4, 4}, 0.5f);
  Rng rng(3);
  random_white_balance(img, 0.2f, rng);
  for (std::size_t c = 0; c < 3; ++c) {
    const float v = img.at(c, 0, 0);
    EXPECT_GE(v, 0.5f * 0.8f - 1e-6f);
    EXPECT_LE(v, 0.5f * 1.2f + 1e-6f);
    // Channel is uniformly scaled.
    for (std::size_t i = 0; i < 16; ++i) {
      EXPECT_FLOAT_EQ(img.flat()[c * 16 + i], v);
    }
  }
}

TEST(RandomWB, ChannelsIndependent) {
  Tensor img = Tensor::full({3, 8, 8}, 0.5f);
  Rng rng(4);
  random_white_balance(img, 0.5f, rng);
  // With high probability the three gains differ.
  EXPECT_NE(img.at(0, 0, 0), img.at(1, 0, 0));
}

TEST(RandomWB, ClampsToUnitRange) {
  Tensor img = Tensor::full({3, 2, 2}, 0.95f);
  Rng rng(5);
  random_white_balance(img, 0.5f, rng);
  for (float v : img.flat()) EXPECT_LE(v, 1.0f);
}

TEST(RandomGamma, DegreeZeroIsIdentity) {
  Tensor img = random_image(6);
  Tensor orig = img;
  Rng rng(7);
  random_gamma(img, 0.0f, rng);
  hetero::testing::expect_tensor_near(img, orig, 1e-5f);
}

TEST(RandomGamma, PreservesOrderAndRange) {
  Tensor img({3, 1, 2});
  img[0] = 0.2f; img[1] = 0.8f;
  img[2] = 0.2f; img[3] = 0.8f;
  img[4] = 0.2f; img[5] = 0.8f;
  Rng rng(8);
  random_gamma(img, 0.9f, rng);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_LT(img[c * 2], img[c * 2 + 1]);  // monotone
  }
  for (float v : img.flat()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(RandomGamma, FixedPoints) {
  Tensor img({3, 1, 2});
  img[0] = 0.0f; img[1] = 1.0f;
  img[2] = 0.0f; img[3] = 1.0f;
  img[4] = 0.0f; img[5] = 1.0f;
  Rng rng(9);
  random_gamma(img, 0.9f, rng);
  EXPECT_FLOAT_EQ(img[0], 0.0f);  // 0^g = 0
  EXPECT_FLOAT_EQ(img[1], 1.0f);  // 1^g = 1
}

TEST(RandomAffine, DegreeZeroIsIdentity) {
  Tensor img = random_image(10);
  Tensor orig = img;
  Rng rng(11);
  random_affine(img, 0.0f, rng);
  // Identity mapping up to bilinear interpolation noise at exact grid.
  hetero::testing::expect_tensor_near(img, orig, 1e-4f);
}

TEST(RandomAffine, MovesContent) {
  Tensor img = random_image(12, 3, 16);
  Tensor orig = img;
  Rng rng(13);
  random_affine(img, 0.9f, rng);
  double diff = 0.0;
  for (std::size_t i = 0; i < img.size(); ++i) {
    diff += std::abs(img[i] - orig[i]);
  }
  EXPECT_GT(diff / static_cast<double>(img.size()), 0.01);
}

TEST(GaussianNoise, ZeroDegreeIsIdentity) {
  Tensor img = random_image(14);
  Tensor orig = img;
  Rng rng(15);
  gaussian_noise(img, 0.0f, rng);
  hetero::testing::expect_tensor_near(img, orig, 1e-6f);
}

TEST(GaussianNoise, PerturbationScalesWithDegree) {
  auto measure = [](float degree) {
    Tensor img = Tensor::full({3, 16, 16}, 0.5f);
    Rng rng(16);
    gaussian_noise(img, degree, rng);
    double d = 0.0;
    for (float v : img.flat()) d += std::abs(v - 0.5);
    return d / static_cast<double>(img.size());
  };
  EXPECT_GT(measure(0.9f), 2.0 * measure(0.3f));
}

TEST(Transforms, BatchAppliesPerSample) {
  Rng rng(17);
  Tensor batch = Tensor::full({4, 3, 4, 4}, 0.5f);
  apply_transform_batch(batch, TransformKind::kWhiteBalance, 0.5f, rng);
  // Different samples must receive different gains (w.h.p.).
  EXPECT_NE(batch.at(0, 0, 0, 0), batch.at(1, 0, 0, 0));
}

TEST(Transforms, IspTransformDegreePresets) {
  // The paper's chosen degrees for its smartphone dataset vs the degrees
  // re-selected by the same grid search on this repo's simulator.
  const IspTransformConfig paper = paper_isp_transform();
  EXPECT_FLOAT_EQ(paper.wb_degree, 0.001f);
  EXPECT_FLOAT_EQ(paper.gamma_degree, 0.9f);
  const IspTransformConfig tuned = tuned_isp_transform();
  EXPECT_FLOAT_EQ(tuned.wb_degree, IspTransformConfig{}.wb_degree);
  EXPECT_FLOAT_EQ(tuned.gamma_degree, IspTransformConfig{}.gamma_degree);

  Rng rng(18);
  Tensor batch = Tensor::full({2, 3, 4, 4}, 0.4f);
  apply_isp_transform_batch(batch, tuned, rng);
  bool changed = false;
  for (float v : batch.flat()) {
    if (std::abs(v - 0.4f) > 0.01f) changed = true;
  }
  EXPECT_TRUE(changed);
}

TEST(Transforms, Names) {
  EXPECT_STREQ(transform_name(TransformKind::kWhiteBalance), "WB");
  EXPECT_STREQ(transform_name(TransformKind::kGamma), "Gamma");
  EXPECT_STREQ(transform_name(TransformKind::kAffine), "Affine");
  EXPECT_STREQ(transform_name(TransformKind::kGaussianNoise),
               "GaussianNoise");
}

// ------------------------------------------------------------------- SWAD

TEST(WeightAverager, RunningMeanExact) {
  WeightAverager avg;
  EXPECT_TRUE(avg.empty());
  avg.update(Tensor({2}, {1.0f, 0.0f}));
  avg.update(Tensor({2}, {3.0f, 2.0f}));
  avg.update(Tensor({2}, {2.0f, 4.0f}));
  EXPECT_EQ(avg.count(), 3u);
  EXPECT_NEAR(avg.average()[0], 2.0f, 1e-6f);
  EXPECT_NEAR(avg.average()[1], 2.0f, 1e-6f);
}

TEST(WeightAverager, SeededConstructorCountsInitial) {
  // Algorithm 1 line 10: W_SWA starts as a copy of W.
  WeightAverager avg(Tensor({1}, {2.0f}));
  EXPECT_EQ(avg.count(), 1u);
  avg.update(Tensor({1}, {4.0f}));
  EXPECT_NEAR(avg.average()[0], 3.0f, 1e-6f);
}

TEST(WeightAverager, ResetAndReuse) {
  WeightAverager avg(Tensor({1}, {5.0f}));
  avg.reset();
  EXPECT_TRUE(avg.empty());
  avg.update(Tensor({1}, {1.0f}));
  EXPECT_NEAR(avg.average()[0], 1.0f, 1e-6f);
}

TEST(WeightAverager, ShapeMismatchThrows) {
  WeightAverager avg(Tensor({2}));
  EXPECT_THROW(avg.update(Tensor({3})), std::invalid_argument);
  WeightAverager empty;
  EXPECT_THROW(empty.average(), std::invalid_argument);
}

TEST(WeightAverager, ManyUpdatesStayStable) {
  WeightAverager avg;
  for (int i = 0; i < 1000; ++i) {
    avg.update(Tensor({1}, {static_cast<float>(i % 2)}));
  }
  EXPECT_NEAR(avg.average()[0], 0.5f, 1e-3f);
}

TEST(AveragingMode, Names) {
  EXPECT_STREQ(averaging_mode_name(AveragingMode::kPerBatch), "SWAD");
  EXPECT_STREQ(averaging_mode_name(AveragingMode::kPerEpoch), "SWA");
}

// ----------------------------------------------------------- HeteroSwitch

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

TEST(HeteroSwitch, NoSwitchInFirstRound) {
  // Round 0: the EMA is unseeded, so there is no bias evidence yet. The
  // default keeps both switches off (round 0 is plain FedAvg) instead of
  // letting L_init < +inf fire Switch_1 for every client vacuously.
  auto model = tiny_model(60);
  std::vector<Dataset> clients = {easy_data(8, 61)};
  HeteroSwitch algo(fast_cfg(), HeteroSwitchOptions{});
  algo.init(*model, 1);
  EXPECT_TRUE(std::isinf(algo.ema_loss()));
  Rng rng(62);
  run_one_round(*model, algo, {0}, clients, rng);
  EXPECT_EQ(algo.switch1_activations(), 0u);  // unseeded EMA: no signal
  EXPECT_EQ(algo.switch2_activations(), 0u);
  EXPECT_FALSE(std::isinf(algo.ema_loss()));  // EMA initialized
}

TEST(HeteroSwitch, UnseededEmaOptionRestoresLegacyFirstRound) {
  // switch_on_unseeded_ema = true restores the literal Algorithm 1
  // comparison, where the empty EMA reads +inf and Switch_1 fires for
  // every client in round 0.
  auto model = tiny_model(60);
  std::vector<Dataset> clients = {easy_data(8, 61)};
  HeteroSwitchOptions opts;
  opts.switch_on_unseeded_ema = true;
  HeteroSwitch algo(fast_cfg(), opts);
  algo.init(*model, 1);
  Rng rng(62);
  run_one_round(*model, algo, {0}, clients, rng);
  EXPECT_EQ(algo.switch1_activations(), 1u);  // L_init < +inf
}

TEST(HeteroSwitch, SwitchRespondsToLowLoss) {
  // After enough rounds on the same data, L_init drops below L_EMA (which
  // lags via alpha=0.9), so Switch_1 keeps firing; counters must track.
  auto model = tiny_model(63);
  std::vector<Dataset> clients = {easy_data(16, 64)};
  HeteroSwitch algo(fast_cfg(), HeteroSwitchOptions{});
  algo.init(*model, 1);
  Rng rng(65);
  for (int round = 0; round < 8; ++round) {
    Rng round_rng = rng.fork(static_cast<std::uint64_t>(round));
    run_one_round(*model, algo, {0}, clients, round_rng);
  }
  EXPECT_EQ(algo.client_updates(), 8u);
  EXPECT_GE(algo.switch1_activations(), 4u);
  EXPECT_LE(algo.switch2_activations(), algo.switch1_activations());
}

TEST(HeteroSwitch, AlwaysIspModeNeverReturnsSwad) {
  auto model = tiny_model(66);
  std::vector<Dataset> clients = {easy_data(8, 67)};
  HeteroSwitchOptions opts;
  opts.mode = HeteroSwitchMode::kAlwaysIsp;
  HeteroSwitch algo(fast_cfg(), opts);
  algo.init(*model, 1);
  Rng rng(68);
  for (int r = 0; r < 3; ++r) {
    Rng round_rng = rng.fork(static_cast<std::uint64_t>(r));
    run_one_round(*model, algo, {0}, clients, round_rng);
  }
  EXPECT_EQ(algo.switch1_activations(), 3u);  // transform always on
  EXPECT_EQ(algo.switch2_activations(), 0u);  // SWAD never returned
}

TEST(HeteroSwitch, AlwaysIspSwadModeAlwaysReturnsSwad) {
  auto model = tiny_model(69);
  std::vector<Dataset> clients = {easy_data(8, 70)};
  HeteroSwitchOptions opts;
  opts.mode = HeteroSwitchMode::kAlwaysIspSwad;
  HeteroSwitch algo(fast_cfg(), opts);
  algo.init(*model, 1);
  Rng rng(71);
  for (int r = 0; r < 3; ++r) {
    Rng round_rng = rng.fork(static_cast<std::uint64_t>(r));
    run_one_round(*model, algo, {0}, clients, round_rng);
  }
  EXPECT_EQ(algo.switch2_activations(), 3u);
}

TEST(HeteroSwitch, ModeNames) {
  EXPECT_STREQ(hetero_switch_mode_name(HeteroSwitchMode::kSelective),
               "HeteroSwitch");
  EXPECT_STREQ(hetero_switch_mode_name(HeteroSwitchMode::kAlwaysIsp),
               "ISP-Transformation");
  EXPECT_STREQ(hetero_switch_mode_name(HeteroSwitchMode::kAlwaysIspSwad),
               "ISP+SWAD");
}

TEST(HeteroSwitch, LearnsSeparableTask) {
  auto model = tiny_model(72);
  FlPopulation data;
  for (int i = 0; i < 4; ++i) {
    data.client_train.push_back(easy_data(16, 73 + i));
    data.client_device.push_back(0);
  }
  data.device_test.push_back(easy_data(32, 80));
  data.device_names.push_back("synthetic");
  const MaterializedPopulation pop(std::move(data));
  HeteroSwitch algo(fast_cfg(), HeteroSwitchOptions{});
  SimulationConfig sim;
  sim.rounds = 20;
  sim.clients_per_round = 2;
  sim.seed = 81;
  const SimulationResult r = run_simulation(*model, algo, pop, sim);
  EXPECT_GT(r.final_metrics.average, 0.85);
}

TEST(HeteroSwitch, EmaFollowsTrainLoss) {
  auto model = tiny_model(82);
  std::vector<Dataset> clients = {easy_data(16, 83)};
  HeteroSwitch algo(fast_cfg(), HeteroSwitchOptions{});
  algo.init(*model, 1);
  Rng rng(84);
  Rng rng0 = rng.fork(0);
  RoundStats s0 = run_one_round(*model, algo, {0}, clients, rng0);
  EXPECT_NEAR(algo.ema_loss(), s0.mean_train_loss, 1e-9);
  Rng rng1 = rng.fork(1);
  RoundStats s1 = run_one_round(*model, algo, {0}, clients, rng1);
  EXPECT_NEAR(algo.ema_loss(), 0.9 * s1.mean_train_loss +
                                   0.1 * s0.mean_train_loss, 1e-9);
}

TEST(HeteroSwitch, InitResetsState) {
  auto model = tiny_model(85);
  std::vector<Dataset> clients = {easy_data(8, 86)};
  HeteroSwitch algo(fast_cfg(), HeteroSwitchOptions{});
  algo.init(*model, 1);
  Rng rng(87);
  run_one_round(*model, algo, {0}, clients, rng);
  EXPECT_GT(algo.client_updates(), 0u);
  algo.init(*model, 1);
  EXPECT_EQ(algo.client_updates(), 0u);
  EXPECT_TRUE(std::isinf(algo.ema_loss()));
}

TEST(HeteroSwitch, SwadReturnDiffersFromPlainWeights) {
  // When Switch_2 fires, the returned state is the SWAD average, which must
  // differ from the final iterate (unless training is fully converged).
  auto plain = tiny_model(88);
  auto swad = tiny_model(88);
  std::vector<Dataset> clients = {easy_data(16, 89)};

  HeteroSwitchOptions isp_only;
  isp_only.mode = HeteroSwitchMode::kAlwaysIsp;
  // Disable the transforms' randomness effect by zero degrees so the only
  // difference between the two runs is the returned weights.
  isp_only.transform = {0.0f, 0.0f};
  HeteroSwitchOptions isp_swad;
  isp_swad.mode = HeteroSwitchMode::kAlwaysIspSwad;
  isp_swad.transform = {0.0f, 0.0f};

  HeteroSwitch a(fast_cfg(), isp_only);
  HeteroSwitch b(fast_cfg(), isp_swad);
  a.init(*plain, 1);
  b.init(*swad, 1);
  Rng r1(90), r2(90);
  run_one_round(*plain, a, {0}, clients, r1);
  run_one_round(*swad, b, {0}, clients, r2);
  const Tensor sa = plain->state();
  const Tensor sb = swad->state();
  double dist = 0.0;
  for (std::size_t i = 0; i < sa.size(); ++i) dist += std::abs(sa[i] - sb[i]);
  EXPECT_GT(dist, 1e-6);
}

}  // namespace
}  // namespace hetero

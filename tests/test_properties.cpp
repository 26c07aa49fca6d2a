// Cross-module property tests: parameterized sweeps over transforms, ISP
// stages, model zoo geometry, FL algorithms, and the new black-level /
// illuminant-policy behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "data/builder.h"
#include "fl/algorithm.h"
#include "fl/simulation.h"
#include "hetero/heteroswitch.h"
#include "hetero/transforms.h"
#include "nn/model_zoo.h"
#include "test_util.h"

namespace hetero {
namespace {

// ------------------------------------------------- transform degree sweep

class TransformDegreeSweep
    : public ::testing::TestWithParam<std::tuple<TransformKind, float>> {};

TEST_P(TransformDegreeSweep, OutputStaysInUnitRange) {
  const auto [kind, degree] = GetParam();
  Rng rng(1);
  Tensor img = Tensor::rand_uniform({3, 12, 12}, rng, 0.0f, 1.0f);
  Rng trng(2);
  apply_transform(img, kind, degree, trng);
  for (float v : img.flat()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST_P(TransformDegreeSweep, DeterministicGivenRngState) {
  const auto [kind, degree] = GetParam();
  Rng rng(3);
  Tensor img = Tensor::rand_uniform({3, 8, 8}, rng, 0.0f, 1.0f);
  Tensor a = img, b = img;
  Rng r1(4), r2(4);
  apply_transform(a, kind, degree, r1);
  apply_transform(b, kind, degree, r2);
  hetero::testing::expect_tensor_near(a, b, 0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TransformDegreeSweep,
    ::testing::Combine(::testing::Values(TransformKind::kWhiteBalance,
                                         TransformKind::kGamma,
                                         TransformKind::kAffine,
                                         TransformKind::kGaussianNoise),
                       ::testing::Values(0.0f, 0.3f, 0.9f)));

// ------------------------------------------------------ jpeg quality sweep

class JpegQualitySweep : public ::testing::TestWithParam<int> {};

TEST_P(JpegQualitySweep, RoundTripStaysInRangeAndBounded) {
  Rng rng(5);
  Image img(24, 24);
  for (float& v : img.flat()) v = rng.uniform_f(0.0f, 1.0f);
  Image out = jpeg_roundtrip(img, GetParam());
  for (float v : out.flat()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
  EXPECT_LT(image_mad(img, out), 0.25);
}

INSTANTIATE_TEST_SUITE_P(Qualities, JpegQualitySweep,
                         ::testing::Values(10, 30, 50, 70, 85, 95));

// ------------------------------------- demosaic x bayer pattern recovery

class DemosaicPatternSweep
    : public ::testing::TestWithParam<std::tuple<DemosaicAlgo, BayerPattern>> {
};

TEST_P(DemosaicPatternSweep, RecoversConstantColorUnderAnyPattern) {
  const auto [algo, pattern] = GetParam();
  RawImage raw(16, 16, pattern);
  for (std::size_t y = 0; y < 16; ++y) {
    for (std::size_t x = 0; x < 16; ++x) {
      const int c = raw.channel_at(y, x);
      raw.at(y, x) = c == 0 ? 0.6f : (c == 1 ? 0.5f : 0.4f);
    }
  }
  Image img = demosaic(raw, algo);
  for (std::size_t y = 4; y < 12; ++y) {
    for (std::size_t x = 4; x < 12; ++x) {
      EXPECT_NEAR(img.at(y, x, 0), 0.6f, 3e-2f);
      EXPECT_NEAR(img.at(y, x, 1), 0.5f, 3e-2f);
      EXPECT_NEAR(img.at(y, x, 2), 0.4f, 3e-2f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DemosaicPatternSweep,
    ::testing::Combine(::testing::Values(DemosaicAlgo::kBilinear,
                                         DemosaicAlgo::kPPG,
                                         DemosaicAlgo::kAHD),
                       ::testing::Values(BayerPattern::kRGGB,
                                         BayerPattern::kBGGR,
                                         BayerPattern::kGRBG,
                                         BayerPattern::kGBRG)));

// ------------------------------------------------- model zoo x image size

class ZooGeometrySweep
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {};

TEST_P(ZooGeometrySweep, ForwardBackwardShapeStable) {
  const auto [arch, size] = GetParam();
  Rng rng(6);
  ModelSpec spec;
  spec.arch = arch;
  spec.image_size = size;
  spec.num_classes = 5;
  auto model = make_model(spec, rng);
  Tensor x = Tensor::rand_uniform({2, 3, size, size}, rng, 0.0f, 1.0f);
  Tensor y = model->forward(x, true);
  ASSERT_EQ(y.shape(), (std::vector<std::size_t>{2, 5}));
  Tensor g = model->backward(Tensor::ones({2, 5}));
  EXPECT_EQ(g.shape(), x.shape());
  for (float v : y.flat()) EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ZooGeometrySweep,
    ::testing::Combine(::testing::Values("mobile-mini", "shuffle-mini",
                                         "squeeze-mini"),
                       ::testing::Values(std::size_t{16}, std::size_t{32})));

// ------------------------------------------------ FL algorithms all learn

Dataset separable_data(std::size_t n, std::uint64_t seed) {
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

enum class AlgoKind {
  kFedAvg,
  kQFedAvg,
  kFedProx,
  kScaffold,
  kFedAvgM,
  kHeteroSwitch,
  kHeteroSwitchValSplit
};

class AlgorithmSweep : public ::testing::TestWithParam<AlgoKind> {};

TEST_P(AlgorithmSweep, LearnsSeparableTask) {
  LocalTrainConfig cfg;
  cfg.lr = 0.05f;
  cfg.epochs = 1;
  cfg.batch_size = 4;
  std::unique_ptr<SplitFederatedAlgorithm> algo;
  switch (GetParam()) {
    case AlgoKind::kFedAvg: algo = std::make_unique<FedAvg>(cfg); break;
    case AlgoKind::kQFedAvg:
      algo = std::make_unique<QFedAvg>(cfg, 1e-4);
      break;
    case AlgoKind::kFedProx:
      algo = std::make_unique<FedProx>(cfg, 0.01f);
      break;
    case AlgoKind::kScaffold: algo = std::make_unique<Scaffold>(cfg); break;
    case AlgoKind::kFedAvgM:
      algo = std::make_unique<FedAvgM>(cfg, 0.5f);
      break;
    case AlgoKind::kHeteroSwitch:
      algo = std::make_unique<HeteroSwitch>(cfg, HeteroSwitchOptions{});
      break;
    case AlgoKind::kHeteroSwitchValSplit: {
      HeteroSwitchOptions opt;
      opt.criterion = BiasCriterion::kValidationSplit;
      algo = std::make_unique<HeteroSwitch>(cfg, opt);
      break;
    }
  }
  FlPopulation data;
  for (int i = 0; i < 4; ++i) {
    data.client_train.push_back(separable_data(16, 100 + i));
    data.client_device.push_back(0);
  }
  data.device_test.push_back(separable_data(32, 200));
  data.device_names.push_back("synthetic");
  const MaterializedPopulation pop(std::move(data));

  Rng rng(7);
  ModelSpec spec;
  spec.arch = "mlp-tiny";
  spec.image_size = 8;
  spec.num_classes = 2;
  auto model = make_model(spec, rng);
  SimulationConfig sim;
  sim.rounds = 20;
  sim.clients_per_round = 2;
  sim.seed = 8;
  const SimulationResult r = run_simulation(*model, *algo, pop, sim);
  EXPECT_GT(r.final_metrics.average, 0.8) << algo->name();
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, AlgorithmSweep,
    ::testing::Values(AlgoKind::kFedAvg, AlgoKind::kQFedAvg,
                      AlgoKind::kFedProx, AlgoKind::kScaffold,
                      AlgoKind::kFedAvgM, AlgoKind::kHeteroSwitch,
                      AlgoKind::kHeteroSwitchValSplit));

// --------------------------------------------------- black level handling

TEST(BlackLevel, IspSubtractionRestoresLevels) {
  // A sensor with a pedestal: run_isp with the matching black_level must
  // produce roughly the same output as a pedestal-free capture.
  SensorConfig clean;
  clean.shot_noise = clean.read_noise = 0.0f;
  clean.vignetting = 0.0f;
  clean.optics_blur_sigma = 0.0f;
  clean.illuminant_variation = 0.0f;
  clean.bit_depth = 14;
  SensorConfig pedestal = clean;
  pedestal.black_level = 0.08f;

  Image scene(64, 64);
  scene.fill(0.4f, 0.4f, 0.4f);
  Rng r1(9), r2(9);
  RawImage raw_clean = SensorModel(clean).capture(scene, r1);
  RawImage raw_ped = SensorModel(pedestal).capture(scene, r2);

  IspConfig cfg_clean;  // black_level 0
  cfg_clean.jpeg_quality = 0;
  IspConfig cfg_ped = cfg_clean;
  cfg_ped.black_level = 0.08f;
  Image out_clean = run_isp(raw_clean, cfg_clean);
  Image out_ped = run_isp(raw_ped, cfg_ped);
  EXPECT_LT(image_mad(out_clean, out_ped), 0.01);
}

TEST(BlackLevel, RawTensorsKeepPedestal) {
  // RAW training data must keep the per-device pedestal — it is one of the
  // Fig 2 heterogeneity signatures.
  SensorConfig cfg;
  cfg.shot_noise = cfg.read_noise = 0.0f;
  cfg.vignetting = 0.0f;
  cfg.optics_blur_sigma = 0.0f;
  cfg.illuminant_variation = 0.0f;
  cfg.black_level = 0.1f;
  Image black(64, 64);  // zero radiance
  Rng rng(10);
  RawImage raw = SensorModel(cfg).capture(black, rng);
  Tensor packed = raw.to_packed_tensor();
  EXPECT_NEAR(packed.mean(), 0.1f, 1e-2f);
}

TEST(IlluminantPolicy, DarkRoomIsDeterministicAcrossShots) {
  // With the dark-room override, two captures of the same scene by the
  // same device differ only by noise — channel ratios stay fixed.
  const DeviceProfile& dev = device_by_name("GalaxyS9");
  SceneGenerator scenes(64);
  Rng srng(11);
  const Image scene = scenes.generate(0, srng);
  CaptureConfig cfg;  // default: dark room
  Rng r1(12);
  Tensor a = capture_to_tensor(scene, dev, cfg, r1);
  Tensor b = capture_to_tensor(scene, dev, cfg, r1);
  auto ratio = [](const Tensor& t) {
    double r = 0, g = 0;
    const std::size_t plane = t.dim(1) * t.dim(2);
    for (std::size_t i = 0; i < plane; ++i) {
      r += t[i];
      g += t[plane + i];
    }
    return r / std::max(g, 1e-9);
  };
  EXPECT_NEAR(ratio(a), ratio(b), 0.05);
}

TEST(IlluminantPolicy, WildCapturesVaryMore) {
  const DeviceProfile& dev = device_by_name("GalaxyS6");
  SceneGenerator scenes(64);
  Rng srng(13);
  const Image scene = scenes.generate(3, srng);
  auto spread = [&](float override_sigma) {
    CaptureConfig cfg;
    cfg.illuminant_sigma_override = override_sigma;
    // RAW mode: no white balance to hide the tint.
    cfg.raw_mode = true;
    Rng rng(14);
    RunningStats means;
    for (int i = 0; i < 6; ++i) {
      Tensor t = capture_to_tensor(scene, dev, cfg, rng);
      // Mean of the R plane varies with the tint.
      const std::size_t plane = t.dim(1) * t.dim(2);
      double m = 0;
      for (std::size_t j = 0; j < plane; ++j) m += t[j];
      means.add(m / static_cast<double>(plane));
    }
    return means.stddev();
  };
  EXPECT_GT(spread(-1.0f), 3.0 * spread(0.0f));
}

// ----------------------------------------------------- sensor tier order

TEST(DeviceTiers, QualityOrderingHolds) {
  const auto& p5 = device_by_name("Pixel5").sensor;   // H
  const auto& p2 = device_by_name("Pixel2").sensor;   // M
  const auto& n5 = device_by_name("Nexus5X").sensor;  // L
  EXPECT_LT(p5.shot_noise, p2.shot_noise);
  EXPECT_LT(p2.shot_noise, n5.shot_noise);
  EXPECT_LT(p5.black_level, p2.black_level);
  EXPECT_LT(p2.black_level, n5.black_level);
  EXPECT_LT(p5.illuminant_variation, p2.illuminant_variation);
  EXPECT_GT(p5.raw_height, n5.raw_height);
}

}  // namespace
}  // namespace hetero

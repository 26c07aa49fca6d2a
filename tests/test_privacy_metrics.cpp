// Tests for the DP-FedAvg extension and the model-free heterogeneity
// metrics.
#include <gtest/gtest.h>

#include <cmath>

#include "data/builder.h"
#include "fl/privacy.h"
#include "fl/simulation.h"
#include "hetero/hetero_metrics.h"
#include "nn/model_zoo.h"
#include "test_util.h"

namespace hetero {
namespace {

using hetero::testing::run_one_round;

Dataset separable(std::size_t n, std::uint64_t seed) {
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

// -------------------------------------------------------------- clipping

TEST(ClipToNorm, NoopWithinBound) {
  Tensor u({3}, {0.3f, 0.4f, 0.0f});  // norm 0.5
  EXPECT_FLOAT_EQ(clip_to_norm(u, 1.0f), 1.0f);
  EXPECT_FLOAT_EQ(u[0], 0.3f);
}

TEST(ClipToNorm, ScalesDownToBound) {
  Tensor u({2}, {3.0f, 4.0f});  // norm 5
  const float scale = clip_to_norm(u, 1.0f);
  EXPECT_NEAR(scale, 0.2f, 1e-6f);
  EXPECT_NEAR(u.norm(), 1.0f, 1e-5f);
  EXPECT_NEAR(u[0] / u[1], 0.75f, 1e-5f);  // direction preserved
}

TEST(ClipToNorm, ZeroVectorUnchanged) {
  Tensor u({4});
  EXPECT_FLOAT_EQ(clip_to_norm(u, 0.5f), 1.0f);
  EXPECT_FLOAT_EQ(u.norm(), 0.0f);
}

TEST(ClipToNorm, RejectsNonPositiveBound) {
  Tensor u({2}, {1.0f, 1.0f});
  EXPECT_THROW(clip_to_norm(u, 0.0f), std::invalid_argument);
}

// -------------------------------------------------------------- DpFedAvg

std::unique_ptr<Model> tiny(std::uint64_t seed) {
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

TEST(DpFedAvg, NoNoiseNoClipMatchesEqualWeightedFedAvg) {
  auto model = tiny(1);
  std::vector<Dataset> clients = {separable(16, 2)};
  DpOptions opt;
  opt.clip_norm = 1e6f;  // never clips
  opt.noise_multiplier = 0.0f;
  DpFedAvg dp(fast_cfg(), opt);
  dp.init(*model, 1);

  auto ref = tiny(1);
  FedAvg fedavg(fast_cfg());
  Rng r1(3), r2(3);
  run_one_round(*model, dp, {0}, clients, r1);
  run_one_round(*ref, fedavg, {0}, clients, r2);
  hetero::testing::expect_tensor_near(model->state(), ref->state(), 1e-5f);
  EXPECT_DOUBLE_EQ(dp.last_clip_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(dp.last_noise_stddev(), 0.0);
}

TEST(DpFedAvg, TightClipBoundsMovement) {
  auto model = tiny(4);
  const Tensor start = model->state();
  std::vector<Dataset> clients = {separable(16, 5)};
  DpOptions opt;
  opt.clip_norm = 0.01f;
  opt.noise_multiplier = 0.0f;
  DpFedAvg dp(fast_cfg(), opt);
  dp.init(*model, 1);
  Rng rng(6);
  run_one_round(*model, dp, {0}, clients, rng);
  EXPECT_LE((model->state() - start).norm(), 0.0101f);
  EXPECT_DOUBLE_EQ(dp.last_clip_fraction(), 1.0);
}

TEST(DpFedAvg, NoiseScaleFollowsFormula) {
  auto model = tiny(7);
  std::vector<Dataset> clients = {separable(8, 8), separable(8, 9)};
  DpOptions opt;
  opt.clip_norm = 2.0f;
  opt.noise_multiplier = 0.5f;
  DpFedAvg dp(fast_cfg(), opt);
  dp.init(*model, 2);
  Rng rng(10);
  run_one_round(*model, dp, {0, 1}, clients, rng);
  EXPECT_NEAR(dp.last_noise_stddev(), 0.5 * 2.0 / 2.0, 1e-12);
}

TEST(DpFedAvg, LearnsWithModeratePrivacy) {
  auto model = tiny(11);
  FlPopulation data;
  for (int i = 0; i < 4; ++i) {
    data.client_train.push_back(separable(16, 20 + i));
    data.client_device.push_back(0);
  }
  data.device_test.push_back(separable(32, 30));
  data.device_names.push_back("synthetic");
  const MaterializedPopulation pop(std::move(data));
  DpOptions opt;
  opt.clip_norm = 5.0f;
  opt.noise_multiplier = 0.01f;
  DpFedAvg algo(fast_cfg(), opt);
  SimulationConfig sim;
  sim.rounds = 20;
  sim.clients_per_round = 2;
  sim.seed = 31;
  const SimulationResult r = run_simulation(*model, algo, pop, sim);
  EXPECT_GT(r.final_metrics.average, 0.8);
}

TEST(DpFedAvg, HeavyNoiseDegradesLearning) {
  auto quiet = tiny(12);
  auto noisy = tiny(12);
  FlPopulation data;
  for (int i = 0; i < 4; ++i) {
    data.client_train.push_back(separable(16, 40 + i));
    data.client_device.push_back(0);
  }
  data.device_test.push_back(separable(32, 50));
  data.device_names.push_back("synthetic");
  const MaterializedPopulation pop(std::move(data));
  SimulationConfig sim;
  sim.rounds = 12;
  sim.clients_per_round = 2;
  sim.seed = 51;
  DpOptions gentle;
  gentle.clip_norm = 5.0f;
  gentle.noise_multiplier = 0.0f;
  DpOptions heavy;
  heavy.clip_norm = 5.0f;
  heavy.noise_multiplier = 5.0f;
  DpFedAvg a(fast_cfg(), gentle), b(fast_cfg(), heavy);
  const auto r1 = run_simulation(*quiet, a, pop, sim);
  const auto r2 = run_simulation(*noisy, b, pop, sim);
  EXPECT_GT(r1.final_metrics.average, r2.final_metrics.average);
}

// ------------------------------------------------- heterogeneity metrics

Dataset tinted_dataset(float r_shift, std::uint64_t seed, float noise = 0.0f) {
  Rng rng(seed);
  Tensor xs({8, 3, 8, 8});
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t c = 0; c < 3; ++c) {
      for (std::size_t j = 0; j < 64; ++j) {
        float v = 0.5f + (c == 0 ? r_shift : 0.0f);
        v += rng.uniform_f(-noise, noise);
        xs[(i * 3 + c) * 64 + j] = std::clamp(v, 0.0f, 1.0f);
      }
    }
  }
  return Dataset(std::move(xs), std::vector<std::size_t>(8, 0));
}

TEST(HeteroMetrics, SignatureBasics) {
  Dataset d = tinted_dataset(0.2f, 1);
  const DatasetSignature sig = compute_signature(d);
  EXPECT_EQ(sig.num_samples, 8u);
  EXPECT_NEAR(sig.channel_mean[0], 0.7, 1e-3);
  EXPECT_NEAR(sig.channel_mean[1], 0.5, 1e-3);
  double hist_sum = 0.0;
  for (double h : sig.luma_hist) hist_sum += h;
  EXPECT_NEAR(hist_sum, 1.0, 1e-9);
  EXPECT_NEAR(sig.gradient_energy, 0.0, 1e-6);  // constant images
}

TEST(HeteroMetrics, IdenticalDatasetsZeroDistance) {
  Dataset a = tinted_dataset(0.1f, 2);
  Dataset b = tinted_dataset(0.1f, 2);
  EXPECT_NEAR(signature_distance(compute_signature(a), compute_signature(b)),
              0.0, 1e-9);
}

TEST(HeteroMetrics, DistanceGrowsWithShift) {
  Dataset base = tinted_dataset(0.0f, 3);
  Dataset near = tinted_dataset(0.05f, 3);
  Dataset far = tinted_dataset(0.3f, 3);
  const auto s0 = compute_signature(base);
  EXPECT_LT(signature_distance(s0, compute_signature(near)),
            signature_distance(s0, compute_signature(far)));
}

TEST(HeteroMetrics, SharpnessDetectedByGradientEnergy) {
  // Striped (sharp) vs flat dataset.
  Tensor xs({2, 3, 8, 8});
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t c = 0; c < 3; ++c) {
      for (std::size_t y = 0; y < 8; ++y) {
        for (std::size_t x = 0; x < 8; ++x) {
          xs.at(i, c, y, x) = (x % 2 == 0) ? 0.2f : 0.8f;
        }
      }
    }
  }
  Dataset striped(std::move(xs), std::vector<std::size_t>(2, 0));
  Dataset flat = tinted_dataset(0.0f, 4);
  EXPECT_GT(compute_signature(striped).gradient_energy,
            compute_signature(flat).gradient_energy + 0.1);
}

TEST(HeteroMetrics, PairwiseMatrixSymmetricZeroDiagonal) {
  Dataset a = tinted_dataset(0.0f, 5);
  Dataset b = tinted_dataset(0.1f, 6);
  Dataset c = tinted_dataset(0.2f, 7);
  const auto m = pairwise_heterogeneity({&a, &b, &c});
  ASSERT_EQ(m.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(m[i][i], 0.0);
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(m[i][j], m[j][i]);
    }
  }
  EXPECT_GT(m[0][2], m[0][1]);
}

TEST(HeteroMetrics, DeviceCapturesAreDistinguishable) {
  // The statistics-level analogue of Table 2: twin devices (Pixel5/Pixel2)
  // must be closer than idiosyncratic pairs (Pixel5/GalaxyS22).
  SceneGenerator scenes(64);
  CaptureConfig cfg;
  auto build = [&](const char* name) {
    Rng rng(8);
    return build_device_dataset(device_by_name(name), 3, scenes, cfg, rng);
  };
  Dataset p5 = build("Pixel5");
  Dataset p2 = build("Pixel2");
  Dataset s22 = build("GalaxyS22");
  const auto m = pairwise_heterogeneity({&p5, &p2, &s22});
  EXPECT_LT(m[0][1], m[0][2]);
}

}  // namespace
}  // namespace hetero

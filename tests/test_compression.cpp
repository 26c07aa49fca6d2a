// FL update-compression tests: top-k sparsification, quantization, error
// feedback, and end-to-end learning under compression.
#include <gtest/gtest.h>

#include <cmath>

#include "fl/compression.h"
#include "fl/simulation.h"
#include "nn/model_zoo.h"
#include "test_util.h"

namespace hetero {
namespace {

using hetero::testing::run_one_round;

TEST(TopK, KeepsLargestMagnitudes) {
  Tensor d({5}, {0.1f, -3.0f, 0.5f, 2.0f, -0.2f});
  SparseUpdate s = top_k_sparsify(d, 2);
  ASSERT_EQ(s.indices.size(), 2u);
  EXPECT_EQ(s.indices[0], 1u);  // -3.0
  EXPECT_EQ(s.indices[1], 3u);  // 2.0
  EXPECT_FLOAT_EQ(s.values[0], -3.0f);
  EXPECT_FLOAT_EQ(s.values[1], 2.0f);
  EXPECT_EQ(s.dense_size, 5u);
  EXPECT_EQ(s.byte_cost(), 2u * 8u);
}

TEST(TopK, KClampedToSize) {
  Tensor d({3}, {1.0f, 2.0f, 3.0f});
  SparseUpdate s = top_k_sparsify(d, 10);
  EXPECT_EQ(s.indices.size(), 3u);
}

TEST(TopK, ZeroKIsEmpty) {
  Tensor d({3}, {1.0f, 2.0f, 3.0f});
  SparseUpdate s = top_k_sparsify(d, 0);
  EXPECT_TRUE(s.indices.empty());
  EXPECT_EQ(s.byte_cost(), 0u);
}

TEST(TopK, DensifyRoundTripFullK) {
  Rng rng(1);
  Tensor d = Tensor::randn({64}, rng);
  Tensor back = densify(top_k_sparsify(d, 64));
  hetero::testing::expect_tensor_near(back, d, 0.0f);
}

TEST(TopK, DensifyZeroesDroppedCoordinates) {
  Tensor d({4}, {5.0f, 0.1f, -6.0f, 0.2f});
  Tensor back = densify(top_k_sparsify(d, 2));
  EXPECT_FLOAT_EQ(back[0], 5.0f);
  EXPECT_FLOAT_EQ(back[1], 0.0f);
  EXPECT_FLOAT_EQ(back[2], -6.0f);
  EXPECT_FLOAT_EQ(back[3], 0.0f);
}

TEST(TopK, SparsificationErrorShrinksWithK) {
  Rng rng(2);
  Tensor d = Tensor::randn({256}, rng);
  auto err = [&](std::size_t k) {
    Tensor back = densify(top_k_sparsify(d, k));
    return (d - back).norm();
  };
  EXPECT_GT(err(16), err(64));
  EXPECT_GT(err(64), err(200));
  EXPECT_NEAR(err(256), 0.0f, 1e-6f);
}

TEST(Quantize, FewerBitsMoreError) {
  Rng rng(3);
  Tensor d = Tensor::randn({512}, rng);
  auto err = [&](int bits) {
    return (d - quantize_dequantize(d, bits)).norm();
  };
  EXPECT_GT(err(2), err(4));
  EXPECT_GT(err(4), err(8));
  EXPECT_LT(err(12), 0.01f);
}

TEST(Quantize, PreservesRangeEndpoints) {
  Tensor d({4}, {-1.0f, 0.2f, 0.7f, 2.0f});
  Tensor q = quantize_dequantize(d, 4);
  EXPECT_FLOAT_EQ(q[0], -1.0f);  // range endpoints are exact grid points
  EXPECT_FLOAT_EQ(q[3], 2.0f);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GE(q[i], -1.0f);
    EXPECT_LE(q[i], 2.0f);
  }
}

TEST(Quantize, ConstantTensorUnchanged) {
  Tensor d = Tensor::full({8}, 0.4f);
  Tensor q = quantize_dequantize(d, 2);
  hetero::testing::expect_tensor_near(q, d, 0.0f);
}

TEST(Quantize, ValidatesBits) {
  Tensor d({2}, {0.0f, 1.0f});
  EXPECT_THROW(quantize_dequantize(d, 0), std::invalid_argument);
  EXPECT_THROW(quantize_dequantize(d, 17), std::invalid_argument);
}

// ------------------------------------------------------- CompressedFedAvg

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

FlPopulation make_pop(std::uint64_t seed) {
  FlPopulation pop;
  for (int i = 0; i < 4; ++i) {
    pop.client_train.push_back(separable(16, seed + i));
    pop.client_device.push_back(0);
  }
  pop.device_test.push_back(separable(32, seed + 50));
  pop.device_names.push_back("synthetic");
  return pop;
}

TEST(CompressedFedAvg, FullFractionNoQuantMatchesEqualWeighting) {
  auto a = tiny(4);
  auto b = tiny(4);
  std::vector<Dataset> clients = {separable(16, 5)};
  CompressionOptions opt;
  opt.top_k_fraction = 1.0f;
  opt.quantize_bits = 0;
  opt.error_feedback = false;
  CompressedFedAvg comp(fast_cfg(), opt);
  comp.init(*a, 1);
  FedAvg plain(fast_cfg());
  Rng r1(6), r2(6);
  run_one_round(*a, comp, {0}, clients, r1);
  run_one_round(*b, plain, {0}, clients, r2);
  hetero::testing::expect_tensor_near(a->state(), b->state(), 1e-5f);
  EXPECT_EQ(comp.last_compressed_bytes(), comp.last_dense_bytes());
}

TEST(CompressedFedAvg, ReportsCompressionRatio) {
  auto model = tiny(7);
  std::vector<Dataset> clients = {separable(16, 8)};
  CompressionOptions opt;
  opt.top_k_fraction = 0.05f;
  CompressedFedAvg comp(fast_cfg(), opt);
  comp.init(*model, 1);
  Rng rng(9);
  run_one_round(*model, comp, {0}, clients, rng);
  // 5% of coordinates at 8 bytes each vs 4 bytes dense per coordinate:
  // compressed ~ 10% of dense.
  EXPECT_LT(comp.last_compressed_bytes(), comp.last_dense_bytes() / 5);
  EXPECT_GT(comp.last_compressed_bytes(), 0u);
}

TEST(CompressedFedAvg, LearnsUnderHeavySparsification) {
  auto model = tiny(10);
  const MaterializedPopulation pop(make_pop(11));
  CompressionOptions opt;
  opt.top_k_fraction = 0.05f;
  opt.error_feedback = true;
  CompressedFedAvg algo(fast_cfg(), opt);
  SimulationConfig sim;
  sim.rounds = 30;
  sim.clients_per_round = 2;
  sim.seed = 12;
  const SimulationResult r = run_simulation(*model, algo, pop, sim);
  EXPECT_GT(r.final_metrics.average, 0.8);
}

TEST(CompressedFedAvg, ErrorFeedbackHelpsSparseTraining) {
  CompressionOptions with_ef;
  with_ef.top_k_fraction = 0.02f;
  with_ef.error_feedback = true;
  CompressionOptions without_ef = with_ef;
  without_ef.error_feedback = false;

  auto run = [&](const CompressionOptions& opt) {
    auto model = tiny(13);
    const MaterializedPopulation pop(make_pop(14));
    CompressedFedAvg algo(fast_cfg(), opt);
    SimulationConfig sim;
    sim.rounds = 25;
    sim.clients_per_round = 2;
    sim.seed = 15;
    return run_simulation(*model, algo, pop, sim).final_metrics.average;
  };
  // Error feedback should not hurt, and typically helps at 2% sparsity.
  EXPECT_GE(run(with_ef) + 0.05, run(without_ef));
}

TEST(CompressedFedAvg, QuantizedSparseLearns) {
  auto model = tiny(16);
  const MaterializedPopulation pop(make_pop(17));
  CompressionOptions opt;
  opt.top_k_fraction = 0.1f;
  opt.quantize_bits = 8;
  CompressedFedAvg algo(fast_cfg(), opt);
  SimulationConfig sim;
  sim.rounds = 30;
  sim.clients_per_round = 2;
  sim.seed = 18;
  const SimulationResult r = run_simulation(*model, algo, pop, sim);
  EXPECT_GT(r.final_metrics.average, 0.8);
}

TEST(CompressedFedAvg, ValidatesOptions) {
  CompressionOptions bad;
  bad.top_k_fraction = 0.0f;
  EXPECT_THROW(CompressedFedAvg(fast_cfg(), bad), std::invalid_argument);
  bad.top_k_fraction = 0.5f;
  bad.quantize_bits = 20;
  EXPECT_THROW(CompressedFedAvg(fast_cfg(), bad), std::invalid_argument);
}

TEST(CompressedFedAvg, RequiresInit) {
  auto model = tiny(19);
  std::vector<Dataset> clients = {separable(8, 20)};
  CompressionOptions opt;
  CompressedFedAvg algo(fast_cfg(), opt);
  Rng rng(21);
  EXPECT_THROW(run_one_round(*model, algo, {0}, clients, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace hetero

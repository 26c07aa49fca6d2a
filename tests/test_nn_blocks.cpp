// Gradient and shape tests for the composite blocks (SE, residual,
// inverted residual, fire, shuffle).
#include <gtest/gtest.h>

#include "nn/blocks.h"
#include "test_util.h"

namespace hetero {
namespace {

using hetero::testing::gradient_check;

constexpr double kGradTol = 6e-2;

TEST(SEBlock, PreservesShape) {
  Rng rng(1);
  SEBlock se(8, 4, rng);
  Tensor x = Tensor::randn({2, 8, 4, 4}, rng);
  Tensor y = se.forward(x, false);
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(SEBlock, GateBoundsOutput) {
  Rng rng(2);
  SEBlock se(4, 2, rng);
  Tensor x = Tensor::rand_uniform({1, 4, 3, 3}, rng, 0.0f, 1.0f);
  Tensor y = se.forward(x, false);
  // Gate is in [0, 1], so |y| <= |x| elementwise.
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_LE(std::abs(y[i]), std::abs(x[i]) + 1e-6f);
  }
}

TEST(SEBlock, GradCheck) {
  Rng rng(3);
  SEBlock se(4, 2, rng);
  Tensor x = Tensor::randn({2, 4, 3, 3}, rng);
  const auto r = gradient_check(se, x, rng);
  EXPECT_LT(r.max_input_error, kGradTol);
  EXPECT_LT(r.max_param_error, kGradTol);
}

TEST(Residual, AddsSkip) {
  Rng rng(4);
  // Inner layer: 1x1 conv initialized to zero -> residual output == input.
  auto conv = std::make_unique<Conv2d>(2, 2, 1, 1, 0, 1, rng, false);
  conv->weight().zero();
  Residual res(std::move(conv));
  Tensor x = Tensor::randn({1, 2, 3, 3}, rng);
  Tensor y = res.forward(x, false);
  hetero::testing::expect_tensor_near(y, x, 1e-6f);
}

TEST(Residual, GradCheck) {
  Rng rng(5);
  Residual res(std::make_unique<Conv2d>(2, 2, 3, 1, 1, 1, rng, true));
  Tensor x = Tensor::randn({1, 2, 4, 4}, rng);
  const auto r = gradient_check(res, x, rng);
  EXPECT_LT(r.max_input_error, kGradTol);
  EXPECT_LT(r.max_param_error, kGradTol);
}

TEST(ChannelUtils, RangeAndConcatRoundTrip) {
  Rng rng(6);
  Tensor x = Tensor::randn({2, 6, 3, 3}, rng);
  Tensor a = channel_range(x, 0, 2);
  Tensor b = channel_range(x, 2, 6);
  EXPECT_EQ(a.dim(1), 2u);
  EXPECT_EQ(b.dim(1), 4u);
  Tensor back = channel_concat(a, b);
  hetero::testing::expect_tensor_near(back, x, 0.0f);
}

TEST(ChannelUtils, ConcatShapeChecks) {
  Tensor a({1, 2, 3, 3}), b({1, 2, 4, 4});
  EXPECT_THROW(channel_concat(a, b), std::invalid_argument);
  EXPECT_THROW(channel_range(a, 2, 1), std::invalid_argument);
}

TEST(ChannelShuffle, IsPermutationAndInvertible) {
  ChannelShuffle shuffle(2);
  Tensor x({1, 4, 1, 1}, {0, 1, 2, 3});
  Tensor y = shuffle.forward(x, true);
  // groups=2, per=2: c -> (c%2)*2 + c/2: 0->0, 1->2, 2->1, 3->3.
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 2.0f);
  EXPECT_EQ(y[2], 1.0f);
  EXPECT_EQ(y[3], 3.0f);
  // backward undoes forward: backward(forward(x)) == x as a gradient map.
  Tensor g = shuffle.backward(y);
  hetero::testing::expect_tensor_near(g, x, 0.0f);
}

TEST(ChannelShuffle, PreservesValuesMultiset) {
  Rng rng(7);
  ChannelShuffle shuffle(3);
  Tensor x = Tensor::randn({2, 6, 2, 2}, rng);
  Tensor y = shuffle.forward(x, false);
  EXPECT_NEAR(x.sum(), y.sum(), 1e-4f);
  EXPECT_NEAR(x.norm(), y.norm(), 1e-4f);
}

TEST(InvertedResidual, ShapesWithAndWithoutStride) {
  Rng rng(8);
  InvertedResidual b1(8, 16, 8, 3, 1, true, Nonlinearity::kReLU, rng);
  Tensor y1 = b1.forward(Tensor::randn({1, 8, 8, 8}, rng), false);
  EXPECT_EQ(y1.shape(), (std::vector<std::size_t>{1, 8, 8, 8}));

  InvertedResidual b2(8, 16, 12, 3, 2, false, Nonlinearity::kHSwish, rng);
  Tensor y2 = b2.forward(Tensor::randn({1, 8, 8, 8}, rng), false);
  EXPECT_EQ(y2.shape(), (std::vector<std::size_t>{1, 12, 4, 4}));
}

TEST(InvertedResidual, GradCheckWithSkip) {
  Rng rng(9);
  InvertedResidual block(3, 6, 3, 3, 1, true, Nonlinearity::kHSwish, rng);
  Tensor x = Tensor::randn({1, 3, 4, 4}, rng);
  const auto r = gradient_check(block, x, rng);
  EXPECT_LT(r.max_input_error, kGradTol);
  EXPECT_LT(r.max_param_error, kGradTol);
}

TEST(InvertedResidual, GradCheckStrided) {
  Rng rng(10);
  InvertedResidual block(2, 4, 3, 3, 2, false, Nonlinearity::kReLU, rng);
  // 8x8 input -> 4x4 after stride 2: keeps BatchNorm statistics
  // well-conditioned (tiny spatial extents make 1/sqrt(var) curvature
  // explode and finite differences meaningless).
  Tensor x = Tensor::randn({2, 2, 8, 8}, rng);
  const auto r = gradient_check(block, x, rng);
  EXPECT_LT(r.max_input_error, kGradTol);
  EXPECT_LT(r.max_param_error, kGradTol);
}

TEST(FireModule, OutputChannelsAreConcat) {
  Rng rng(11);
  FireModule fire(8, 2, 4, 6, rng);
  Tensor y = fire.forward(Tensor::randn({2, 8, 4, 4}, rng), false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 10, 4, 4}));
}

TEST(FireModule, GradCheck) {
  Rng rng(12);
  FireModule fire(4, 2, 3, 3, rng);
  Tensor x = Tensor::randn({1, 4, 4, 4}, rng);
  const auto r = gradient_check(fire, x, rng);
  EXPECT_LT(r.max_input_error, kGradTol);
  EXPECT_LT(r.max_param_error, kGradTol);
}

TEST(ShuffleUnit, Stride1PreservesShape) {
  Rng rng(13);
  ShuffleUnit unit(8, 8, 1, rng);
  Tensor y = unit.forward(Tensor::randn({2, 8, 4, 4}, rng), false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 8, 4, 4}));
}

TEST(ShuffleUnit, Stride2Downsamples) {
  Rng rng(14);
  ShuffleUnit unit(8, 16, 2, rng);
  Tensor y = unit.forward(Tensor::randn({2, 8, 4, 4}, rng), false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 16, 2, 2}));
}

TEST(ShuffleUnit, GradCheckStride1) {
  Rng rng(15);
  ShuffleUnit unit(4, 4, 1, rng);
  Tensor x = Tensor::randn({1, 4, 4, 4}, rng);
  const auto r = gradient_check(unit, x, rng);
  EXPECT_LT(r.max_input_error, kGradTol);
  EXPECT_LT(r.max_param_error, kGradTol);
}

TEST(ShuffleUnit, GradCheckStride2) {
  Rng rng(16);
  ShuffleUnit unit(4, 8, 2, rng);
  Tensor x = Tensor::randn({1, 4, 4, 4}, rng);
  const auto r = gradient_check(unit, x, rng);
  EXPECT_LT(r.max_input_error, kGradTol);
  EXPECT_LT(r.max_param_error, kGradTol);
}

TEST(ShuffleUnit, ConstructorValidation) {
  Rng rng(17);
  EXPECT_THROW(ShuffleUnit(4, 6, 1, rng), std::invalid_argument);  // in!=out
  EXPECT_THROW(ShuffleUnit(4, 7, 2, rng), std::invalid_argument);  // odd out
  EXPECT_THROW(ShuffleUnit(4, 8, 3, rng), std::invalid_argument);  // stride
}

TEST(ConvBnAct, BuildsConvThenBatchNormCarryingTheActivation) {
  Rng rng(18);
  auto seq = conv_bn_act(3, 8, 3, 1, 1, 1, Nonlinearity::kHSwish, rng);
  ASSERT_EQ(seq->size(), 2u);
  EXPECT_NE(dynamic_cast<Conv2d*>(&seq->layer(0)), nullptr);
  const auto* bn = dynamic_cast<BatchNorm2d*>(&seq->layer(1));
  ASSERT_NE(bn, nullptr);
  EXPECT_EQ(bn->activation(), Nonlinearity::kHSwish);
  EXPECT_EQ(bn->channels(), 8u);
  Tensor y = seq->forward(Tensor::randn({1, 3, 6, 6}, rng), false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 8, 6, 6}));
}

}  // namespace
}  // namespace hetero

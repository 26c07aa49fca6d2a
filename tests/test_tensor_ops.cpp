#include <gtest/gtest.h>

#include <cmath>

#include "kernels/kernels.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace hetero {
namespace {

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) s += a.at(i, kk) * b.at(kk, j);
      c.at(i, j) = static_cast<float>(s);
    }
  }
  return c;
}

/// C = A(m,k) · B(k,n) through the active GEMM kernel.
Tensor gemm_nn(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  kernels::gemm_nn(kernels::active_kernel(), a.data(), b.data(), c.data(), m,
                   k, n, /*accumulate=*/false);
  return c;
}

/// One image, one group: the geometry im2col_strided and col2im_strided_add
/// read.
kernels::ConvShape image_shape(std::size_t c, std::size_t h, std::size_t w,
                               std::size_t kernel, std::size_t stride,
                               std::size_t pad) {
  kernels::ConvShape s;
  s.in_c = c;
  s.in_h = h;
  s.in_w = w;
  s.out_c = c;
  s.kernel = kernel;
  s.stride = stride;
  s.pad = pad;
  return s;
}

/// Unfolds a (C,H,W) image into its (C*k*k, out_h*out_w) patch matrix.
Tensor im2col(const Tensor& img, const kernels::ConvShape& s) {
  const std::size_t ohow = s.out_h() * s.out_w();
  Tensor cols({s.patch(), ohow});
  kernels::im2col_strided(img.data(), s, 0, cols.data(), ohow, 0);
  return cols;
}

/// Folds a patch matrix back into a zeroed (C,H,W) image.
Tensor col2im(const Tensor& cols, const kernels::ConvShape& s) {
  Tensor img({s.in_c, s.in_h, s.in_w});
  kernels::col2im_strided_add(cols.data(), s, 0, s.out_h() * s.out_w(), 0,
                              img.data());
  return img;
}

TEST(Matmul, KnownSmallCase) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = gemm_nn(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Matmul, IdentityIsNoop) {
  Rng rng(1);
  Tensor a = Tensor::randn({4, 4}, rng);
  Tensor eye({4, 4});
  for (std::size_t i = 0; i < 4; ++i) eye.at(i, i) = 1.0f;
  Tensor c = gemm_nn(a, eye);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(c[i], a[i], 1e-6f);
}

TEST(Matmul, TransposeBMatchesExplicit) {
  Rng rng(2);
  Tensor a = Tensor::randn({3, 5}, rng);
  Tensor b = Tensor::randn({4, 5}, rng);  // (N, K)
  Tensor bt({5, 4});
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 5; ++j) bt.at(j, i) = b.at(i, j);
  }
  Tensor c1({3, 4});
  kernels::gemm_nt(kernels::active_kernel(), a.data(), b.data(), c1.data(), 3,
                   5, 4, /*accumulate=*/false);
  Tensor c2 = naive_matmul(a, bt);
  for (std::size_t i = 0; i < c1.size(); ++i) EXPECT_NEAR(c1[i], c2[i], 1e-4f);
}

TEST(Matmul, TransposeAMatchesExplicit) {
  Rng rng(3);
  Tensor a = Tensor::randn({5, 3}, rng);  // (M, K)
  Tensor b = Tensor::randn({5, 4}, rng);  // (M, N)
  Tensor at({3, 5});
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 3; ++j) at.at(j, i) = a.at(i, j);
  }
  Tensor c1({3, 4});
  kernels::gemm_tn(kernels::active_kernel(), a.data(), b.data(), c1.data(), 5,
                   3, 4, /*accumulate=*/false);
  Tensor c2 = naive_matmul(at, b);
  for (std::size_t i = 0; i < c1.size(); ++i) EXPECT_NEAR(c1[i], c2[i], 1e-4f);
}

class MatmulSizeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulSizeSweep, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 100 + k * 10 + n));
  Tensor a = Tensor::randn({static_cast<std::size_t>(m),
                            static_cast<std::size_t>(k)}, rng);
  Tensor b = Tensor::randn({static_cast<std::size_t>(k),
                            static_cast<std::size_t>(n)}, rng);
  Tensor fast = gemm_nn(a, b);
  Tensor slow = naive_matmul(a, b);
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], slow[i], 1e-3f);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatmulSizeSweep,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(1, 7, 3),
                                           std::make_tuple(5, 1, 5),
                                           std::make_tuple(8, 8, 8),
                                           std::make_tuple(3, 17, 11),
                                           std::make_tuple(16, 9, 2)));

TEST(Im2Col, SingleChannelIdentityKernel) {
  // 1x1 kernel, stride 1: im2col is just a flatten.
  Tensor img({1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor cols = im2col(img, image_shape(1, 3, 3, 1, 1, 0));
  EXPECT_EQ(cols.shape(), (std::vector<std::size_t>{1, 9}));
  for (std::size_t i = 0; i < 9; ++i) EXPECT_EQ(cols[i], img[i]);
}

TEST(Im2Col, PaddingReadsZero) {
  Tensor img({1, 2, 2}, {1, 2, 3, 4});
  // 3x3 kernel, pad 1 -> out 2x2
  Tensor cols = im2col(img, image_shape(1, 2, 2, 3, 1, 1));
  EXPECT_EQ(cols.shape(), (std::vector<std::size_t>{9, 4}));
  // Top-left output, kernel element (0,0) reads the (-1,-1) pad -> 0.
  EXPECT_EQ(cols.at(0, 0), 0.0f);
  // Kernel centre (1,1) at output (0,0) reads img(0,0) = 1.
  EXPECT_EQ(cols.at(4, 0), 1.0f);
}

TEST(Im2Col, StrideSkipsPositions) {
  Tensor img({1, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) img[i] = static_cast<float>(i);
  Tensor cols = im2col(img, image_shape(1, 4, 4, 2, 2, 0));  // out 2x2
  EXPECT_EQ(cols.shape(), (std::vector<std::size_t>{4, 4}));
  // Kernel (0,0): top-left of each window -> 0, 2, 8, 10.
  EXPECT_EQ(cols.at(0, 0), 0.0f);
  EXPECT_EQ(cols.at(0, 1), 2.0f);
  EXPECT_EQ(cols.at(0, 2), 8.0f);
  EXPECT_EQ(cols.at(0, 3), 10.0f);
}

TEST(Col2Im, AdjointOfIm2Col) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
  // property needed for correct convolution gradients.
  Rng rng(4);
  const kernels::ConvShape s = image_shape(2, 5, 5, 3, 2, 1);
  Tensor x = Tensor::randn({2, 5, 5}, rng);
  Tensor cols = im2col(x, s);
  Tensor y = Tensor::randn(cols.shape(), rng);
  double lhs = 0.0;
  for (std::size_t i = 0; i < cols.size(); ++i) lhs += cols[i] * y[i];
  Tensor back = col2im(y, s);
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) rhs += x[i] * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

class Im2ColGeomSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(Im2ColGeomSweep, AdjointHoldsAcrossGeometries) {
  const auto [c, size, kernel, stride] = GetParam();
  Rng rng(11);
  const kernels::ConvShape s = image_shape(
      static_cast<std::size_t>(c), static_cast<std::size_t>(size),
      static_cast<std::size_t>(size), static_cast<std::size_t>(kernel),
      static_cast<std::size_t>(stride), static_cast<std::size_t>(kernel / 2));
  Tensor x = Tensor::randn({s.in_c, s.in_h, s.in_w}, rng);
  Tensor cols = im2col(x, s);
  Tensor y = Tensor::randn(cols.shape(), rng);
  double lhs = 0.0;
  for (std::size_t i = 0; i < cols.size(); ++i) lhs += cols[i] * y[i];
  Tensor back = col2im(y, s);
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) rhs += x[i] * back[i];
  EXPECT_NEAR(lhs, rhs, 2e-3);
}

INSTANTIATE_TEST_SUITE_P(Geometries, Im2ColGeomSweep,
                         ::testing::Values(std::make_tuple(1, 4, 1, 1),
                                           std::make_tuple(1, 6, 3, 1),
                                           std::make_tuple(3, 8, 3, 2),
                                           std::make_tuple(2, 7, 5, 2),
                                           std::make_tuple(4, 8, 5, 1)));

TEST(Softmax, RowsSumToOne) {
  Rng rng(5);
  Tensor logits = Tensor::randn({6, 10}, rng, 3.0f);
  Tensor p = softmax_rows(logits);
  for (std::size_t i = 0; i < 6; ++i) {
    float s = 0.0f;
    for (std::size_t j = 0; j < 10; ++j) {
      EXPECT_GT(p.at(i, j), 0.0f);
      s += p.at(i, j);
    }
    EXPECT_NEAR(s, 1.0f, 1e-5f);
  }
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  Tensor logits({1, 3}, {1000.0f, 1000.0f, 0.0f});
  Tensor p = softmax_rows(logits);
  EXPECT_NEAR(p.at(0, 0), 0.5f, 1e-5f);
  EXPECT_NEAR(p.at(0, 2), 0.0f, 1e-5f);
}

TEST(Softmax, PreservesOrder) {
  Tensor logits({1, 3}, {1.0f, 3.0f, 2.0f});
  Tensor p = softmax_rows(logits);
  EXPECT_GT(p.at(0, 1), p.at(0, 2));
  EXPECT_GT(p.at(0, 2), p.at(0, 0));
}

TEST(Sigmoid, KnownValues) {
  Tensor x({3}, {0.0f, 100.0f, -100.0f});
  Tensor s = sigmoid(x);
  EXPECT_NEAR(s[0], 0.5f, 1e-6f);
  EXPECT_NEAR(s[1], 1.0f, 1e-6f);
  EXPECT_NEAR(s[2], 0.0f, 1e-6f);
}

TEST(ArgmaxRows, PicksColumn) {
  Tensor t({2, 3}, {1, 5, 2, 9, 0, 3});
  const auto idx = argmax_rows(t);
  EXPECT_EQ(idx[0], 1u);
  EXPECT_EQ(idx[1], 0u);
}

}  // namespace
}  // namespace hetero

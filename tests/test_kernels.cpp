// Parity, determinism and allocation tests for the compute-kernel layer
// (src/kernels). The reference kind is the byte-for-byte seed
// implementation; these tests pin the tiled kind to it:
//   * GEMM variants are bit-identical across kinds (same per-element
//     reduction order and precision).
//   * Convolution forward and input gradient are bit-identical; the weight
//     gradient matches exactly for batch size 1 and to tight tolerance for
//     larger batches (batched single-rounding vs per-sample rounding —
//     DESIGN.md §9).
//   * Training is bit-identical across thread counts for a fixed kind.
//   * Eval logits do not depend on the batch size under the reference and
//     tiled kinds.
//   * The batch-norm, conv-bias and SE-gate vector loops keep the f64 chain
//     order of the per-plane loops, and BatchNorm2d(c, act) keeps the bits
//     of BatchNorm2d(c) followed by the standalone activation layer.
//   * The tiled conv/linear hot paths perform zero heap allocations in
//     steady state (global operator new hook + Workspace::grow_count()),
//     and eval forwards of the direct conv paths take no scratch at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "fl/algorithm.h"
#include "fl/eval.h"
#include "fl/simulation.h"
#include "kernels/kernels.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/blocks.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/model_zoo.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

// ------------------------------------------------- allocation counting ----
// Global counter of operator-new calls; tests snapshot it around warmed-up
// kernel invocations to prove the steady state allocates nothing.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// The replacement operator new below returns malloc memory, so free() in
// the matching deletes is correct; GCC cannot see through the replacement.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hetero {
namespace {

using kernels::ConvShape;
using kernels::KernelKind;

void fill_random(std::vector<float>& v, Rng& rng, float lo = -1.0f,
                 float hi = 1.0f) {
  for (float& x : v) x = rng.uniform_f(lo, hi);
}

/// True when a and b have the same shape and the same bits.
bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Values spread over 2^-40..2^40, so f64 sums of them round and a chain
/// that changed its order would show in the bits.
float wide_random(Rng& rng) {
  return std::ldexp(rng.uniform_f(-1.0f, 1.0f),
                    static_cast<int>(rng.uniform_f(-40.0f, 40.0f)));
}

/// Fills v[0, count) so that its f64 running sum shows the order of the
/// adds even after rounding to float: values in (-1, 1), with a quarter of
/// the positions, in random pairs, set to +2^60 and -2^60. A small value
/// added while such a term is outstanding is absorbed, one added after the
/// pair cancels survives, so any other order gives another sum.
void cancelling_plane(float* v, std::size_t count, Rng& rng) {
  std::vector<std::size_t> at(count);
  for (std::size_t i = 0; i < count; ++i) {
    at[i] = i;
    v[i] = rng.uniform_f(-1.0f, 1.0f);
  }
  rng.shuffle(at);
  const float big = std::ldexp(1.0f, 60);
  for (std::size_t k = 0; k + 1 < count / 4 * 2; k += 2) {
    v[at[k]] = big;
    v[at[k + 1]] = -big;
  }
}

/// Restores the process kernel kind on scope exit so tests compose.
struct KernelGuard {
  KernelKind saved = kernels::active_kernel();
  ~KernelGuard() { kernels::set_active_kernel(saved); }
};

// ------------------------------------------------------------ GEMM parity --

struct GemmShape {
  std::size_t m, k, n;
};

const GemmShape kGemmShapes[] = {{1, 1, 1},    {2, 3, 4},   {7, 5, 9},
                                 {16, 16, 16}, {33, 17, 65}, {5, 1, 13},
                                 {64, 48, 100}};

TEST(GemmParity, NnBitIdenticalAcrossKinds) {
  Rng rng(101);
  for (const auto& s : kGemmShapes) {
    std::vector<float> a(s.m * s.k), b(s.k * s.n);
    fill_random(a, rng);
    fill_random(b, rng);
    a[0] = 0.0f;  // exercise the reference zero-skip branch
    std::vector<float> c_ref(s.m * s.n), c_til(s.m * s.n);
    kernels::gemm_nn(KernelKind::kReference, a.data(), b.data(), c_ref.data(),
                     s.m, s.k, s.n, false);
    kernels::gemm_nn(KernelKind::kTiled, a.data(), b.data(), c_til.data(),
                     s.m, s.k, s.n, false);
    for (std::size_t i = 0; i < c_ref.size(); ++i) {
      ASSERT_EQ(c_ref[i], c_til[i]) << s.m << "x" << s.k << "x" << s.n
                                    << " elem " << i;
    }
  }
}

TEST(GemmParity, NtBitIdenticalAcrossKindsIncludingAccumulate) {
  Rng rng(102);
  for (const auto& s : kGemmShapes) {
    std::vector<float> a(s.m * s.k), b(s.n * s.k), base(s.m * s.n);
    fill_random(a, rng);
    fill_random(b, rng);
    fill_random(base, rng);
    std::vector<float> c_ref = base, c_til = base;
    kernels::gemm_nt(KernelKind::kReference, a.data(), b.data(), c_ref.data(),
                     s.m, s.k, s.n, true);
    kernels::gemm_nt(KernelKind::kTiled, a.data(), b.data(), c_til.data(),
                     s.m, s.k, s.n, true);
    for (std::size_t i = 0; i < c_ref.size(); ++i) {
      ASSERT_EQ(c_ref[i], c_til[i]) << s.m << "x" << s.k << "x" << s.n
                                    << " elem " << i;
    }
  }
}

TEST(GemmParity, TnBitIdenticalAcrossKinds) {
  Rng rng(103);
  for (const auto& s : kGemmShapes) {
    // A is (m, k): reduction over m produces a (k, n) result.
    std::vector<float> a(s.m * s.k), b(s.m * s.n);
    fill_random(a, rng);
    fill_random(b, rng);
    if (a.size() > 2) a[2] = 0.0f;  // reference zero-skip branch
    std::vector<float> c_ref(s.k * s.n), c_til(s.k * s.n);
    kernels::gemm_tn(KernelKind::kReference, a.data(), b.data(), c_ref.data(),
                     s.m, s.k, s.n, false);
    kernels::gemm_tn(KernelKind::kTiled, a.data(), b.data(), c_til.data(),
                     s.m, s.k, s.n, false);
    for (std::size_t i = 0; i < c_ref.size(); ++i) {
      ASSERT_EQ(c_ref[i], c_til[i]) << s.m << "x" << s.k << "x" << s.n
                                    << " elem " << i;
    }
  }
}

TEST(GemmParity, TensorOpsMatchAcrossKinds) {
  KernelGuard guard;
  Rng rng(104);
  Tensor a = Tensor::randn({9, 14}, rng, 1.0f);
  Tensor b = Tensor::randn({14, 11}, rng, 1.0f);
  Tensor bt = Tensor::randn({11, 14}, rng, 1.0f);
  Tensor c = Tensor::randn({9, 11}, rng, 1.0f);
  kernels::set_active_kernel(KernelKind::kReference);
  const Tensor nn_ref = matmul(a, b);
  const Tensor nt_ref = matmul_transpose_b(a, bt);
  const Tensor tn_ref = matmul_transpose_a(a, c);
  kernels::set_active_kernel(KernelKind::kTiled);
  const Tensor nn_til = matmul(a, b);
  const Tensor nt_til = matmul_transpose_b(a, bt);
  const Tensor tn_til = matmul_transpose_a(a, c);
  for (std::size_t i = 0; i < nn_ref.size(); ++i) {
    EXPECT_EQ(nn_ref[i], nn_til[i]);
  }
  for (std::size_t i = 0; i < nt_ref.size(); ++i) {
    EXPECT_EQ(nt_ref[i], nt_til[i]);
  }
  for (std::size_t i = 0; i < tn_ref.size(); ++i) {
    EXPECT_EQ(tn_ref[i], tn_til[i]);
  }
}

// ----------------------------------------------------- convolution parity --

struct ConvCase {
  std::size_t n, in_c, out_c, k, stride, pad, groups;
};

std::vector<ConvCase> conv_cases() {
  std::vector<ConvCase> cases;
  for (std::size_t n : {std::size_t{1}, std::size_t{3}}) {
    for (std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
      for (std::size_t stride : {std::size_t{1}, std::size_t{2}}) {
        for (std::size_t pad : {std::size_t{0}, std::size_t{1}}) {
          if (pad >= k) continue;  // pad < kernel keeps every tap reachable
          cases.push_back({n, 4, 6, k, stride, pad, 1});
          cases.push_back({n, 4, 6, k, stride, pad, 2});
        }
      }
    }
    // Depthwise (groups == channels), the MobileNet/ShuffleNet hot case.
    cases.push_back({n, 4, 4, 3, 1, 1, 4});
    cases.push_back({n, 4, 4, 3, 2, 1, 4});
  }
  return cases;
}

ConvShape make_shape(const ConvCase& c, std::size_t hw) {
  ConvShape s;
  s.n = c.n;
  s.in_c = c.in_c;
  s.in_h = hw;
  s.in_w = hw;
  s.out_c = c.out_c;
  s.kernel = c.k;
  s.stride = c.stride;
  s.pad = c.pad;
  s.groups = c.groups;
  return s;
}

TEST(ConvParity, ForwardBitIdenticalAcrossKinds) {
  Rng rng(201);
  for (const ConvCase& c : conv_cases()) {
    const ConvShape s = make_shape(c, 8);
    std::vector<float> x(s.n * s.in_c * s.in_h * s.in_w);
    std::vector<float> w(s.out_c * s.group_in_c() * s.kernel * s.kernel);
    std::vector<float> bias(s.out_c);
    fill_random(x, rng);
    fill_random(w, rng);
    fill_random(bias, rng);
    const std::size_t y_size = s.n * s.out_c * s.out_h() * s.out_w();
    std::vector<float> y_ref(y_size), y_til(y_size);
    std::vector<float> cols_ref(s.cols_size()), cols_til(s.cols_size());
    kernels::Workspace ws_ref, ws_til;
    kernels::conv2d_forward(KernelKind::kReference, s, x.data(), w.data(),
                            bias.data(), y_ref.data(), cols_ref.data(),
                            ws_ref);
    kernels::conv2d_forward(KernelKind::kTiled, s, x.data(), w.data(),
                            bias.data(), y_til.data(), cols_til.data(),
                            ws_til);
    for (std::size_t i = 0; i < y_size; ++i) {
      ASSERT_EQ(y_ref[i], y_til[i])
          << "n=" << c.n << " k=" << c.k << " s=" << c.stride
          << " p=" << c.pad << " g=" << c.groups << " elem " << i;
    }
  }
}

TEST(ConvParity, BackwardMatchesAcrossKinds) {
  Rng rng(202);
  for (const ConvCase& c : conv_cases()) {
    const ConvShape s = make_shape(c, 8);
    const std::size_t w_size =
        s.out_c * s.group_in_c() * s.kernel * s.kernel;
    const std::size_t y_size = s.n * s.out_c * s.out_h() * s.out_w();
    const std::size_t x_size = s.n * s.in_c * s.in_h * s.in_w;
    std::vector<float> x(x_size), w(w_size), grad_out(y_size);
    fill_random(x, rng);
    fill_random(w, rng);
    fill_random(grad_out, rng);
    // Non-zero starting gradients exercise the += contract.
    std::vector<float> gw_base(w_size), gb_base(s.out_c);
    fill_random(gw_base, rng, -0.1f, 0.1f);
    fill_random(gb_base, rng, -0.1f, 0.1f);

    std::vector<float> cols_ref(s.cols_size()), cols_til(s.cols_size());
    std::vector<float> y(y_size);
    kernels::Workspace ws_ref, ws_til;
    kernels::conv2d_forward(KernelKind::kReference, s, x.data(), w.data(),
                            nullptr, y.data(), cols_ref.data(), ws_ref);
    kernels::conv2d_forward(KernelKind::kTiled, s, x.data(), w.data(),
                            nullptr, y.data(), cols_til.data(), ws_til);

    std::vector<float> gw_ref = gw_base, gw_til = gw_base;
    std::vector<float> gb_ref = gb_base, gb_til = gb_base;
    std::vector<float> gx_ref(x_size), gx_til(x_size);
    kernels::conv2d_backward(KernelKind::kReference, s, grad_out.data(),
                             w.data(), cols_ref.data(), gw_ref.data(),
                             gb_ref.data(), gx_ref.data(), ws_ref);
    kernels::conv2d_backward(KernelKind::kTiled, s, grad_out.data(), w.data(),
                             cols_til.data(), gw_til.data(), gb_til.data(),
                             gx_til.data(), ws_til);

    // Input gradient and bias gradient: bit-identical.
    for (std::size_t i = 0; i < x_size; ++i) {
      ASSERT_EQ(gx_ref[i], gx_til[i])
          << "n=" << c.n << " k=" << c.k << " s=" << c.stride
          << " p=" << c.pad << " g=" << c.groups << " dX elem " << i;
    }
    for (std::size_t i = 0; i < s.out_c; ++i) {
      ASSERT_EQ(gb_ref[i], gb_til[i]) << "dB elem " << i;
    }
    // Weight gradient: the one tensor that drifts — the tiled kind reduces
    // it in f32 over the whole batch where the reference takes one f64 dot
    // per sample (DESIGN.md §9).
    for (std::size_t i = 0; i < w_size; ++i) {
      const float tol = 1e-4f * std::max(1.0f, std::fabs(gw_ref[i]));
      ASSERT_NEAR(gw_ref[i], gw_til[i], tol)
          << "n=" << c.n << " k=" << c.k << " s=" << c.stride
          << " p=" << c.pad << " g=" << c.groups << " dW elem " << i;
    }
  }
}

TEST(ConvParity, LayerForwardBackwardMatchesAcrossKinds) {
  // End-to-end through the Conv2d layer (workspace caching, clone path).
  KernelGuard guard;
  Rng rng(203);
  Tensor x = Tensor::randn({2, 4, 8, 8}, rng, 1.0f);
  Tensor go = Tensor::randn({2, 6, 8, 8}, rng, 1.0f);

  auto run = [&](KernelKind kind) {
    kernels::set_active_kernel(kind);
    Rng wrng(7);
    Conv2d conv(4, 6, 3, 1, 1, 2, wrng, true);
    auto copy = conv.clone();  // satellite: cheap clone must be faithful
    const Tensor y = copy->forward(x, true);
    const Tensor gx = copy->backward(go);
    return std::make_pair(y, gx);
  };
  const auto [y_ref, gx_ref] = run(KernelKind::kReference);
  const auto [y_til, gx_til] = run(KernelKind::kTiled);
  ASSERT_EQ(y_ref.size(), y_til.size());
  for (std::size_t i = 0; i < y_ref.size(); ++i) {
    EXPECT_EQ(y_ref[i], y_til[i]);
  }
  ASSERT_EQ(gx_ref.size(), gx_til.size());
  for (std::size_t i = 0; i < gx_ref.size(); ++i) {
    EXPECT_EQ(gx_ref[i], gx_til[i]);
  }
}

// ------------------------------------------ fixed-shape depthwise planes --

struct DwGeometry {
  std::size_t out, k, stride, pad, in;
};

// Every (output side, kernel, stride) the fixed depthwise kernels serve, at
// the geometry the models build (pad k/2, input side out * stride), then
// shapes with another pad or an odd input side, which must fall through to
// the generic strided planes.
const DwGeometry kDwGeometries[] = {
    {16, 3, 1, 1, 16}, {8, 3, 1, 1, 8},  {8, 3, 2, 1, 16},
    {4, 3, 1, 1, 4},   {4, 3, 2, 1, 8},  {4, 5, 2, 2, 8},
    {8, 3, 1, 0, 10},  {8, 3, 2, 1, 15}, {4, 5, 2, 2, 7},
};

/// The fixed kernels' weight-gradient chain in scalar form. Per channel,
/// samples in order: each tap keeps one lane per output column, summed over
/// the output rows from +0 with halo taps reading exact zeros; the lanes
/// are summed left to right from +0 and the sum is added onto gw.
void dw_weight_grad_oracle(const ConvShape& s, const float* x,
                           const float* go, float* gw) {
  const std::size_t oh = s.out_h(), ow = s.out_w(), k = s.kernel;
  const std::size_t ihw = s.in_h * s.in_w;
  for (std::size_t c = 0; c < s.out_c; ++c) {
    for (std::size_t smp = 0; smp < s.n; ++smp) {
      const float* xp = x + (smp * s.in_c + c) * ihw;
      const float* gp = go + (smp * s.out_c + c) * oh * ow;
      for (std::size_t ky = 0; ky < k; ++ky) {
        for (std::size_t kx = 0; kx < k; ++kx) {
          std::vector<float> lanes(ow, 0.0f);
          for (std::size_t oy = 0; oy < oh; ++oy) {
            for (std::size_t l = 0; l < ow; ++l) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy * s.stride + ky) -
                  static_cast<std::ptrdiff_t>(s.pad);
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(l * s.stride + kx) -
                  static_cast<std::ptrdiff_t>(s.pad);
              const bool inside =
                  iy >= 0 && ix >= 0 &&
                  iy < static_cast<std::ptrdiff_t>(s.in_h) &&
                  ix < static_cast<std::ptrdiff_t>(s.in_w);
              const float xv =
                  inside ? xp[static_cast<std::size_t>(iy) * s.in_w +
                              static_cast<std::size_t>(ix)]
                         : 0.0f;
              lanes[l] += gp[oy * ow + l] * xv;
            }
          }
          float tap = 0.0f;
          for (std::size_t l = 0; l < ow; ++l) tap += lanes[l];
          gw[(c * k + ky) * k + kx] += tap;
        }
      }
    }
  }
}

TEST(ConvParity, FixedDepthwisePlanesBitExact) {
  // Forward and dX equal the reference kind bit for bit; on the model
  // geometries dW equals the scalar oracle of the fixed kernels' lane order
  // bit for bit (the reference reduces dW differently, so it only bounds
  // the drift).
  Rng rng(204);
  for (const DwGeometry& g : kDwGeometries) {
    const bool fixed = g.pad == g.k / 2 && g.in == g.out * g.stride;
    for (std::size_t n : {std::size_t{1}, std::size_t{3}}) {
      ConvShape s;
      s.n = n;
      s.in_c = s.out_c = s.groups = 3;
      s.in_h = s.in_w = g.in;
      s.kernel = g.k;
      s.stride = g.stride;
      s.pad = g.pad;
      ASSERT_EQ(s.out_h(), g.out);
      ASSERT_EQ(s.out_w(), g.out);
      const std::size_t x_size = s.n * s.in_c * s.in_h * s.in_w;
      const std::size_t y_size = s.n * s.out_c * s.out_h() * s.out_w();
      const std::size_t w_size = s.out_c * s.kernel * s.kernel;
      std::vector<float> x(x_size), w(w_size), bias(s.out_c), go(y_size);
      std::vector<float> gw_base(w_size), gb_base(s.out_c);
      fill_random(x, rng);
      fill_random(w, rng);
      fill_random(bias, rng);
      fill_random(go, rng);
      fill_random(gw_base, rng, -0.1f, 0.1f);
      fill_random(gb_base, rng, -0.1f, 0.1f);
      const std::string where = "out=" + std::to_string(g.out) +
                                " k=" + std::to_string(g.k) +
                                " s=" + std::to_string(g.stride) +
                                " p=" + std::to_string(g.pad) +
                                " in=" + std::to_string(g.in) +
                                " n=" + std::to_string(n);

      std::vector<float> y_ref(y_size), y_til(y_size);
      std::vector<float> cols_ref(s.cols_size()), cols_til(s.cols_size());
      kernels::Workspace ws_ref, ws_til;
      kernels::conv2d_forward(KernelKind::kReference, s, x.data(), w.data(),
                              bias.data(), y_ref.data(), cols_ref.data(),
                              ws_ref);
      kernels::conv2d_forward(KernelKind::kTiled, s, x.data(), w.data(),
                              bias.data(), y_til.data(), cols_til.data(),
                              ws_til);
      for (std::size_t i = 0; i < y_size; ++i) {
        ASSERT_EQ(y_ref[i], y_til[i]) << where << " y elem " << i;
      }

      std::vector<float> gw_ref = gw_base, gw_til = gw_base;
      std::vector<float> gw_oracle = gw_base;
      std::vector<float> gb_ref = gb_base, gb_til = gb_base;
      std::vector<float> gx_ref(x_size), gx_til(x_size);
      kernels::conv2d_backward(KernelKind::kReference, s, go.data(), w.data(),
                               cols_ref.data(), gw_ref.data(), gb_ref.data(),
                               gx_ref.data(), ws_ref);
      kernels::conv2d_backward(KernelKind::kTiled, s, go.data(), w.data(),
                               cols_til.data(), gw_til.data(), gb_til.data(),
                               gx_til.data(), ws_til);
      dw_weight_grad_oracle(s, x.data(), go.data(), gw_oracle.data());
      for (std::size_t i = 0; i < x_size; ++i) {
        ASSERT_EQ(gx_ref[i], gx_til[i]) << where << " dX elem " << i;
      }
      for (std::size_t i = 0; i < s.out_c; ++i) {
        ASSERT_EQ(gb_ref[i], gb_til[i]) << where << " dB elem " << i;
      }
      for (std::size_t i = 0; i < w_size; ++i) {
        if (fixed) {
          ASSERT_EQ(gw_oracle[i], gw_til[i]) << where << " dW elem " << i;
        }
        const float tol = 1e-4f * std::max(1.0f, std::fabs(gw_ref[i]));
        ASSERT_NEAR(gw_ref[i], gw_til[i], tol) << where << " dW elem " << i;
      }
    }
  }
}

TEST(ConvParity, BiasGradientMatchesThePerPlaneLoop) {
  // gb[c] += one f64 chain per (sample, channel) plane, from 0 and in
  // position order, added in sample order. The kernels run four planes'
  // chains as vector lanes; every chain must keep its bits, for each
  // block remainder and for planes with scalar tails.
  Rng rng(208);
  const std::pair<std::size_t, std::size_t> planes[] = {{3, 3}, {5, 6}, {7, 7}};
  for (std::size_t c = 1; c <= 17; ++c) {
    for (std::size_t n : {std::size_t{1}, std::size_t{3}}) {
      for (const auto& [h, w] : planes) {
        ConvShape s;
        s.n = n;
        s.in_c = 2;
        s.in_h = h;
        s.in_w = w;
        s.out_c = c;
        const std::size_t hw = h * w;
        std::vector<float> x(n * 2 * hw), wt(c * 2), go(n * c * hw), gb0(c);
        fill_random(x, rng);
        fill_random(wt, rng);
        for (std::size_t p = 0; p < n * c; ++p) {
          cancelling_plane(go.data() + p * hw, hw, rng);
        }
        fill_random(gb0, rng);
        std::vector<float> gb_want = gb0;
        for (std::size_t smp = 0; smp < n; ++smp) {
          for (std::size_t ch = 0; ch < c; ++ch) {
            double acc = 0.0;
            for (std::size_t i = 0; i < hw; ++i) {
              acc += go[(smp * c + ch) * hw + i];
            }
            gb_want[ch] += static_cast<float>(acc);
          }
        }
        for (KernelKind kind : {KernelKind::kReference, KernelKind::kTiled}) {
          std::vector<float> y(n * c * hw), gw(wt.size()), gx(x.size());
          std::vector<float> cols(kernels::conv2d_retained_size(kind, s));
          std::vector<float> gb = gb0;
          kernels::Workspace ws;
          kernels::conv2d_forward(kind, s, x.data(), wt.data(), nullptr,
                                  y.data(), cols.data(), ws);
          kernels::conv2d_backward(kind, s, go.data(), wt.data(), cols.data(),
                                   gw.data(), gb.data(), gx.data(), ws);
          EXPECT_EQ(std::memcmp(gb.data(), gb_want.data(), c * sizeof(float)),
                    0)
              << kernels::kernel_name(kind) << " c=" << c << " n=" << n << " "
              << h << "x" << w;
        }
      }
    }
  }
}

// -------------------------------------------- batch-norm channel blocks --

TEST(BatchNormKernels, ChannelBlocksMatchThePerPlaneLoop) {
  // BatchNorm2d reduces four channels at a time; every channel's chains
  // must stay those of the per-plane loop (plane_moments / bn_reduce_plane
  // over the channel's planes in sample order), for full blocks and for
  // the remainders alike.
  Rng rng(205);
  for (std::size_t c = 1; c <= 9; ++c) {
    for (std::size_t n : {std::size_t{1}, std::size_t{3}}) {
      const std::size_t h = 5, w = 6, hw = h * w;
      const Tensor x = Tensor::randn({n, c, h, w}, rng, 2.0f);
      const Tensor go = Tensor::randn({n, c, h, w}, rng, 1.0f);
      BatchNorm2d bn(c);
      const Tensor y = bn.forward(x, /*train=*/true);
      const Tensor gx = bn.backward(go);

      // The per-plane loop, channel by channel.
      const double count = static_cast<double>(n * hw);
      Tensor y_want({n, c, h, w}), xhat({n, c, h, w}), gx_want({n, c, h, w});
      std::vector<float> gamma_grad(c), beta_grad(c), run_mean(c), run_var(c);
      for (std::size_t ch = 0; ch < c; ++ch) {
        double sum = 0.0, sq = 0.0;
        for (std::size_t s = 0; s < n; ++s) {
          kernels::plane_moments(x.data() + (s * c + ch) * hw, hw, sum, sq);
        }
        const float mean = static_cast<float>(sum / count);
        const float var = static_cast<float>(
            std::max(0.0, sq / count - sum / count * sum / count));
        const float momentum = 0.1f;  // BatchNorm2d's default
        run_mean[ch] = (1 - momentum) * 0.0f + momentum * mean;
        run_var[ch] = (1 - momentum) * 1.0f + momentum * var;
        const float inv = 1.0f / std::sqrt(var + 1e-5f);
        for (std::size_t s = 0; s < n; ++s) {
          const std::size_t plane = (s * c + ch) * hw;
          kernels::bn_normalize_plane(x.data() + plane, y_want.data() + plane,
                                      xhat.data() + plane, hw, mean, inv,
                                      1.0f, 0.0f);
        }
        double sum_dy = 0.0, sum_dy_xhat = 0.0;
        for (std::size_t s = 0; s < n; ++s) {
          const std::size_t plane = (s * c + ch) * hw;
          kernels::bn_reduce_plane(go.data() + plane, xhat.data() + plane, hw,
                                   sum_dy, sum_dy_xhat);
        }
        gamma_grad[ch] = static_cast<float>(sum_dy_xhat);
        beta_grad[ch] = static_cast<float>(sum_dy);
        for (std::size_t s = 0; s < n; ++s) {
          const std::size_t plane = (s * c + ch) * hw;
          kernels::bn_apply_plane(go.data() + plane, xhat.data() + plane,
                                  gx_want.data() + plane, hw, 1.0f * inv,
                                  static_cast<float>(sum_dy / count),
                                  static_cast<float>(sum_dy_xhat / count));
        }
      }
      const std::string where =
          "c=" + std::to_string(c) + " n=" + std::to_string(n);
      EXPECT_EQ(std::memcmp(y.data(), y_want.data(), y.size() * sizeof(float)),
                0)
          << where;
      EXPECT_EQ(
          std::memcmp(gx.data(), gx_want.data(), gx.size() * sizeof(float)), 0)
          << where;
      ParamGroup group;
      bn.collect(group);
      for (std::size_t ch = 0; ch < c; ++ch) {
        EXPECT_EQ((*group.grads[0])[ch], gamma_grad[ch]) << where;
        EXPECT_EQ((*group.grads[1])[ch], beta_grad[ch]) << where;
        EXPECT_EQ((*group.buffers[0])[ch], run_mean[ch]) << where;
        EXPECT_EQ((*group.buffers[1])[ch], run_var[ch]) << where;
      }
    }
  }
}

TEST(BatchNormKernels, ChainSumsMatchThePerPlaneLoopInF64) {
  // The f64 chain sums themselves, before any rounding to float, must be
  // those of plane_moments / bn_reduce_plane over each channel's planes in
  // sample order. Values spread over 2^-40..2^40 make any other order
  // show in their low bits, for every lane block and remainder.
  Rng rng(211);
  const std::pair<std::size_t, std::size_t> planes[] = {
      {4, 4}, {5, 6}, {7, 7}, {16, 16}};
  for (std::size_t c = 1; c <= 17; ++c) {
    for (std::size_t n : {std::size_t{1}, std::size_t{3}}) {
      for (const auto& [h, w] : planes) {
        const std::size_t hw = h * w, size = n * c * hw;
        std::vector<float> x(size), dy(size), xhat(size), dx(size);
        for (std::size_t i = 0; i < size; ++i) {
          x[i] = wide_random(rng);
          dy[i] = wide_random(rng);
          xhat[i] = wide_random(rng);
        }
        const std::vector<float> ones(c, 1.0f), zeros(c, 0.0f);
        std::vector<double> sum(c), sq(c), sum_d(c), sum_dx(c);
        kernels::bn_moments(x.data(), n, c, hw, sum.data(), sq.data());
        kernels::bn_act_backward(Nonlinearity::kNone, dy.data(), xhat.data(),
                                 n, c, hw, ones.data(), ones.data(),
                                 zeros.data(), dx.data(), sum_d.data(),
                                 sum_dx.data());
        for (std::size_t ch = 0; ch < c; ++ch) {
          double want[4] = {0.0, 0.0, 0.0, 0.0};
          for (std::size_t smp = 0; smp < n; ++smp) {
            const std::size_t at = (smp * c + ch) * hw;
            kernels::plane_moments(x.data() + at, hw, want[0], want[1]);
            kernels::bn_reduce_plane(dy.data() + at, xhat.data() + at, hw,
                                     want[2], want[3]);
          }
          const double got[4] = {sum[ch], sq[ch], sum_d[ch], sum_dx[ch]};
          EXPECT_EQ(std::memcmp(got, want, sizeof(got)), 0)
              << "c=" << c << " n=" << n << " " << h << "x" << w
              << " channel " << ch;
        }
      }
    }
  }
}

TEST(BatchNormKernels, FusedActivationMatchesSeparateLayers) {
  // BatchNorm2d(c, act) runs the activation inside its own passes; it must
  // keep the bits of BatchNorm2d(c) followed by the standalone ReLU or
  // HSwish layer: train and eval outputs, the input gradient, dγ, dβ and
  // the running statistics, over three steps. Channel counts cover every
  // four-channel block and remainder, the planes every vector tail, and
  // γ = 0 channels put γx̂ + β exactly on ±0, ±3 and ±6.
  Rng rng(207);
  const std::pair<std::size_t, std::size_t> planes[] = {
      {4, 4}, {5, 6}, {7, 7}, {16, 16}};
  const float kinks[] = {0.0f, -0.0f, 3.0f, -3.0f, 6.0f, -6.0f};
  for (Nonlinearity act : {Nonlinearity::kReLU, Nonlinearity::kHSwish}) {
    for (std::size_t c = 1; c <= 17; ++c) {
      for (std::size_t n : {std::size_t{1}, std::size_t{3}}) {
        for (const auto& [h, w] : planes) {
          BatchNorm2d fused(c, act), bn(c);
          std::unique_ptr<Layer> sep;
          if (act == Nonlinearity::kReLU) {
            sep = std::make_unique<ReLU>();
          } else {
            sep = std::make_unique<HSwish>();
          }
          ParamGroup fg, bg;
          fused.collect(fg);
          bn.collect(bg);
          for (std::size_t ch = 0; ch < c; ++ch) {
            const bool kink = ch % 2 == 0;
            const float g = kink ? 0.0f : rng.uniform_f(-2.0f, 2.0f);
            const float b =
                kink ? kinks[(ch / 2) % 6] : rng.uniform_f(-4.0f, 4.0f);
            (*fg.params[0])[ch] = (*bg.params[0])[ch] = g;
            (*fg.params[1])[ch] = (*bg.params[1])[ch] = b;
          }
          const std::string where =
              std::string(act == Nonlinearity::kReLU ? "relu" : "hswish") +
              " c=" + std::to_string(c) + " n=" + std::to_string(n) + " " +
              std::to_string(h) + "x" + std::to_string(w);
          for (int step = 0; step < 3; ++step) {
            const Tensor x = Tensor::randn({n, c, h, w}, rng, 3.0f);
            const Tensor dy = Tensor::randn({n, c, h, w}, rng, 1.0f);
            EXPECT_TRUE(same_bits(fused.forward(x, true),
                                  sep->forward(bn.forward(x, true), true)))
                << where << " train forward, step " << step;
            EXPECT_TRUE(
                same_bits(fused.backward(dy), bn.backward(sep->backward(dy))))
                << where << " grad_in, step " << step;
            for (std::size_t i = 0; i < 2; ++i) {
              EXPECT_TRUE(same_bits(*fg.grads[i], *bg.grads[i]))
                  << where << (i == 0 ? " dgamma" : " dbeta") << ", step "
                  << step;
              EXPECT_TRUE(same_bits(*fg.buffers[i], *bg.buffers[i]))
                  << where << " running stat " << i << ", step " << step;
            }
            EXPECT_TRUE(same_bits(fused.forward(x, false),
                                  sep->forward(bn.forward(x, false), false)))
                << where << " eval forward, step " << step;
          }
        }
      }
    }
  }
}

// --------------------------------------------------------- SE-block gate --

TEST(SEBlockKernels, MatchTheLayerByLayerFormula) {
  // SEBlock writes y = x·gate, and dx = dy·gate plus the pooled path's
  // gradient, in one pass each. Both must keep the bits of the layer-by-
  // layer formula: scale a copy of x by the gate; scale a copy of dy by
  // the gate, with dgate one f64 chain per plane, then add what
  // GlobalAvgPool::backward broadcasts for the MLP's gradient.
  Rng rng(209);
  const std::pair<std::size_t, std::size_t> planes[] = {
      {3, 3}, {4, 4}, {5, 6}, {8, 8}};
  for (std::size_t c : {1, 4, 6, 16}) {
    for (std::size_t n : {std::size_t{1}, std::size_t{3}}) {
      for (const auto& [h, w] : planes) {
        const std::size_t hw = h * w, mid = std::max<std::size_t>(1, c / 4);
        SEBlock se(c, 4, rng);
        GlobalAvgPool gap;
        Linear fc1(c, mid, rng), fc2(mid, c, rng);
        ReLU relu;
        HSigmoid hsig;
        ParamGroup sg, lg;
        se.collect(sg);
        fc1.collect(lg);
        fc2.collect(lg);
        ASSERT_EQ(sg.params.size(), lg.params.size());
        for (std::size_t i = 0; i < sg.params.size(); ++i) {
          *lg.params[i] = *sg.params[i];
        }
        Tensor x({n, c, h, w}), dy({n, c, h, w});
        for (std::size_t p = 0; p < n * c; ++p) {
          cancelling_plane(x.data() + p * hw, hw, rng);
        }
        for (std::size_t i = 0; i < x.size(); ++i) {
          // dy·x keeps the cancelling pairs where x is big.
          dy[i] = std::fabs(x[i]) > 1.0f ? 1.0f : rng.uniform_f(-1.0f, 1.0f);
        }
        const Tensor y = se.forward(x, true);
        const Tensor gx = se.backward(dy);

        const Tensor gate = hsig.forward(
            fc2.forward(relu.forward(fc1.forward(gap.forward(x, true), true),
                                     true),
                        true),
            true);
        Tensor y_want = x, gx_want = dy, dgate({n, c});
        for (std::size_t p = 0; p < n * c; ++p) {
          double acc = 0.0;
          for (std::size_t i = p * hw; i < (p + 1) * hw; ++i) {
            y_want[i] *= gate[p];
            acc += static_cast<double>(dy[i]) * x[i];
            gx_want[i] = dy[i] * gate[p];
          }
          dgate[p] = static_cast<float>(acc);
        }
        gx_want += gap.backward(
            fc1.backward(relu.backward(fc2.backward(hsig.backward(dgate)))));
        const std::string where = "c=" + std::to_string(c) + " n=" +
                                  std::to_string(n) + " " + std::to_string(h) +
                                  "x" + std::to_string(w);
        EXPECT_TRUE(same_bits(y, y_want)) << where << " forward";
        EXPECT_TRUE(same_bits(gx, gx_want)) << where << " grad_in";
        for (std::size_t i = 0; i < sg.grads.size(); ++i) {
          EXPECT_TRUE(same_bits(*sg.grads[i], *lg.grads[i]))
              << where << " param grad " << i;
        }
      }
    }
  }
}

// ----------------------------------------------------------------- h-swish --

TEST(HSwishKernel, ForwardEqualsProductOfGate) {
  // The forward runs the gate and the product as two passes; every output
  // must still be the bits of x * HSigmoid::f(x).
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  std::vector<float> xs = {0.0f,   -0.0f,   3.0f,     -3.0f,
                           6.0f,   -6.0f,   inf,      -inf,
                           std::numeric_limits<float>::quiet_NaN(),
                           denorm, -denorm, 1.0e-39f, -1.0e-39f,
                           std::numeric_limits<float>::min(),
                           2.9999998f, -2.9999998f, 3.0000002f, -3.0000002f};
  Rng rng(206);
  while (xs.size() < 1027) xs.push_back(rng.uniform_f(-8.0f, 8.0f));
  const std::size_t size = xs.size();
  const Tensor x({1, size}, xs);
  HSwish act;
  for (bool train : {false, true}) {
    const Tensor y = act.forward(x, train);
    for (std::size_t i = 0; i < size; ++i) {
      const float want = xs[i] * HSigmoid::f(xs[i]);
      const float got = y[i];
      if (std::isnan(want)) {
        EXPECT_TRUE(std::isnan(got)) << "x=" << xs[i];
        continue;
      }
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
          << "x=" << xs[i] << " got " << got << " want " << want;
    }
  }
}

TEST(HSwishKernel, GateKeepsTheDivisionForm) {
  // kernels::hsigmoid is the one definition of the gate that HSigmoid,
  // HSwish and the fused batch norm share. It must keep the bits of
  // clamp(x / 6 + 0.5, 0, 1): a division, not a multiply by 1/6, clamped
  // in std::clamp's compare order; its derivative is 1/6 only strictly
  // inside (-3, 3).
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> xs = {0.0f, -0.0f, 3.0f, -3.0f, 6.0f, -6.0f, inf, -inf,
                           std::numeric_limits<float>::denorm_min(),
                           2.9999998f, -2.9999998f, 3.0000002f, -3.0000002f};
  Rng rng(210);
  while (xs.size() < 4096) xs.push_back(rng.uniform_f(-8.0f, 8.0f));
  for (float x : xs) {
    const float want = std::clamp(x / 6.0f + 0.5f, 0.0f, 1.0f);
    const float got = kernels::hsigmoid(x);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(float)), 0) << "x=" << x;
    EXPECT_EQ(kernels::hsigmoid_grad(x),
              (x > -3.0f && x < 3.0f) ? 1.0f / 6.0f : 0.0f)
        << "x=" << x;
  }
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(kernels::hsigmoid(nan)));
}

// ----------------------------------------------------------- dispatching --

TEST(KernelDispatch, SetActiveKernelRoundTrips) {
  KernelGuard guard;
  kernels::set_active_kernel(KernelKind::kReference);
  EXPECT_EQ(kernels::active_kernel(), KernelKind::kReference);
  kernels::set_active_kernel(KernelKind::kTiled);
  EXPECT_EQ(kernels::active_kernel(), KernelKind::kTiled);
  EXPECT_STREQ(kernels::kernel_name(KernelKind::kReference), "reference");
  EXPECT_STREQ(kernels::kernel_name(KernelKind::kTiled), "tiled");
}

// ---------------------------------------- determinism across thread counts --

SimulationResult run_conv_sim(std::size_t num_threads, KernelKind kind) {
  KernelGuard guard;
  kernels::set_active_kernel(kind);
  Rng mrng(31);
  ModelSpec spec;
  spec.arch = "squeeze-mini";  // conv-heavy: stem, Fire modules, 1x1 head
  spec.image_size = 8;
  spec.num_classes = 2;
  auto model = make_model(spec, mrng);

  FlPopulation pop;
  for (std::size_t i = 0; i < 4; ++i) {
    Rng rng(600 + i);
    const std::size_t n = 8;
    Tensor xs({n, 3, 8, 8});
    std::vector<std::size_t> labels(n);
    for (std::size_t j = 0; j < n; ++j) {
      labels[j] = j % 2;
      const float base = labels[j] == 0 ? 0.2f : 0.8f;
      for (std::size_t p = 0; p < 3 * 64; ++p) {
        xs[j * 3 * 64 + p] = base + rng.uniform_f(-0.05f, 0.05f);
      }
    }
    pop.client_train.emplace_back(std::move(xs), std::move(labels));
    pop.client_device.push_back(0);
  }
  {
    Rng rng(700);
    const std::size_t n = 8;
    Tensor xs({n, 3, 8, 8});
    std::vector<std::size_t> labels(n);
    for (std::size_t j = 0; j < n; ++j) {
      labels[j] = j % 2;
      for (std::size_t p = 0; p < 3 * 64; ++p) {
        xs[j * 3 * 64 + p] = rng.uniform_f(0.0f, 1.0f);
      }
    }
    pop.device_test.emplace_back(std::move(xs), std::move(labels));
    pop.device_names.push_back("synthetic");
  }

  LocalTrainConfig cfg;
  cfg.lr = 0.05f;
  cfg.epochs = 1;
  cfg.batch_size = 4;
  FedAvg algo(cfg);
  SimulationConfig sim;
  sim.rounds = 2;
  sim.clients_per_round = 3;
  sim.seed = 31;
  sim.num_threads = num_threads;
  return run_simulation(*model, algo, MaterializedPopulation(std::move(pop)),
                        sim);
}

TEST(Determinism, ConvTrainingBitIdenticalAcrossThreadCountsPerKind) {
  for (KernelKind kind : {KernelKind::kTiled, KernelKind::kReference}) {
    const SimulationResult r1 = run_conv_sim(1, kind);
    const SimulationResult r2 = run_conv_sim(2, kind);
    ASSERT_EQ(r1.train_loss_history.size(), r2.train_loss_history.size());
    for (std::size_t t = 0; t < r1.train_loss_history.size(); ++t) {
      EXPECT_EQ(r1.train_loss_history[t], r2.train_loss_history[t])
          << kernels::kernel_name(kind) << " round " << t;
    }
    ASSERT_EQ(r1.final_metrics.per_device.size(),
              r2.final_metrics.per_device.size());
    for (std::size_t i = 0; i < r1.final_metrics.per_device.size(); ++i) {
      EXPECT_EQ(r1.final_metrics.per_device[i],
                r2.final_metrics.per_device[i]);
    }
    EXPECT_EQ(r1.final_metrics.average, r2.final_metrics.average);
  }
}

// ------------------------------------------------ eval batch independence --

TEST(Determinism, EvalLogitsIndependentOfBatchSize) {
  // Every forward reduction chain runs per output element over one
  // sample's inputs, so under reference and tiled an eval row's logits do
  // not depend on which rows share its batch. Per-device evaluation slices
  // its test sets into 8-row tasks on this property. (The fast kind's GEMM
  // tiles do depend on the batch shape, so it is left out.)
  KernelGuard guard;
  constexpr std::size_t kRows = 72;
  for (KernelKind kind : {KernelKind::kReference, KernelKind::kTiled}) {
    kernels::set_active_kernel(kind);
    for (const std::string& arch : model_zoo_names()) {
      for (std::size_t size : {std::size_t{16}, std::size_t{32}}) {
        Rng rng(311);
        ModelSpec spec;
        spec.arch = arch;
        spec.image_size = size;
        auto model = make_model(spec, rng);
        Tensor xs = Tensor::randn({kRows, 3, size, size}, rng, 1.0f);
        std::vector<std::size_t> labels(kRows, 0);
        const Dataset data(std::move(xs), std::move(labels));
        // One train-mode forward moves the batch-norm running statistics
        // off their initial values.
        std::vector<std::size_t> first(10);
        for (std::size_t i = 0; i < first.size(); ++i) first[i] = i;
        (void)model->forward(data.gather_x(first), /*train=*/true);

        auto logits_at = [&](std::size_t batch) {
          std::vector<Tensor> parts;
          for (std::size_t b = 0; b < kRows; b += batch) {
            parts.push_back(
                forward_rows(*model, data, b, std::min(b + batch, kRows)));
          }
          return stack_rows(parts);
        };
        const Tensor ref = logits_at(32);
        for (std::size_t batch : {1, 5, 8, 10, 16, 72}) {
          const Tensor got = logits_at(batch);
          ASSERT_EQ(got.shape(), ref.shape());
          EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                                ref.size() * sizeof(float)),
                    0)
              << kernels::kernel_name(kind) << " " << arch << " " << size
              << "px, batch " << batch;
        }
      }
    }
  }
}

// --------------------------------------------------------- allocation-free --

TEST(ZeroAlloc, TiledConvSteadyStateDoesNotAllocate) {
  const ConvShape s = make_shape({4, 8, 16, 3, 1, 1, 1}, 8);
  Rng rng(301);
  std::vector<float> x(s.n * s.in_c * s.in_h * s.in_w);
  std::vector<float> w(s.out_c * s.group_in_c() * s.kernel * s.kernel);
  std::vector<float> bias(s.out_c);
  std::vector<float> grad_out(s.n * s.out_c * s.out_h() * s.out_w());
  fill_random(x, rng);
  fill_random(w, rng);
  fill_random(bias, rng);
  fill_random(grad_out, rng);
  std::vector<float> y(grad_out.size());
  std::vector<float> cols(s.cols_size());
  std::vector<float> gw(w.size()), gb(s.out_c), gx(x.size());
  kernels::Workspace ws;

  auto step = [&] {
    kernels::conv2d_forward(KernelKind::kTiled, s, x.data(), w.data(),
                            bias.data(), y.data(), cols.data(), ws);
    std::fill(gx.begin(), gx.end(), 0.0f);
    kernels::conv2d_backward(KernelKind::kTiled, s, grad_out.data(), w.data(),
                             cols.data(), gw.data(), gb.data(), gx.data(),
                             ws);
  };
  step();  // warm-up populates workspace slots
  const std::uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  const std::uint64_t grows_before = kernels::Workspace::grow_count();
  step();
  step();
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), allocs_before);
  EXPECT_EQ(kernels::Workspace::grow_count(), grows_before);
}

TEST(ZeroAlloc, TiledGemmsDoNotAllocate) {
  Rng rng(302);
  std::vector<float> a(48 * 36), b(36 * 52), bt(52 * 36), c(48 * 52);
  std::vector<float> tn_out(36 * 52), tn_b(48 * 52);
  fill_random(a, rng);
  fill_random(b, rng);
  fill_random(bt, rng);
  fill_random(tn_b, rng);
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  kernels::gemm_nn(KernelKind::kTiled, a.data(), b.data(), c.data(), 48, 36,
                   52, false);
  kernels::gemm_nt(KernelKind::kTiled, a.data(), bt.data(), c.data(), 48, 36,
                   52, false);
  kernels::gemm_tn(KernelKind::kTiled, a.data(), tn_b.data(), tn_out.data(),
                   48, 36, 52, false);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), before);
}

TEST(ZeroAlloc, DirectConvEvalForwardTakesNoScratch) {
  // The tiled pointwise and depthwise-direct paths read no patch matrix,
  // so an eval forward on a fresh layer must not grow any workspace slot.
  KernelGuard guard;
  kernels::set_active_kernel(KernelKind::kTiled);
  Rng rng(304);
  Conv2d pointwise(8, 16, 1, 1, 0, 1, rng, false);
  Conv2d depthwise(8, 8, 3, 1, 1, 8, rng, false);
  const Tensor x = Tensor::randn({4, 8, 8, 8}, rng, 1.0f);
  const std::uint64_t grows = kernels::Workspace::grow_count();
  (void)pointwise.forward(x, false);
  (void)depthwise.forward(x, false);
  EXPECT_EQ(kernels::Workspace::grow_count(), grows);
}

TEST(ZeroAlloc, RetainedConvScratchFollowsTheKernelPath) {
  // A training forward retains what its backward replays from: the input
  // on the tiled/fast direct paths, the patch matrices everywhere else.
  for (const ConvCase& c : conv_cases()) {
    const ConvShape s = make_shape(c, 8);
    const std::size_t input = s.n * s.in_c * s.in_h * s.in_w;
    const bool direct =
        (c.k == 1 && c.stride == 1 && c.pad == 0) || c.groups == c.in_c;
    EXPECT_EQ(kernels::conv2d_retained_size(KernelKind::kReference, s),
              s.cols_size());
    for (KernelKind kind : {KernelKind::kTiled, KernelKind::kFast}) {
      EXPECT_EQ(kernels::conv2d_retained_size(kind, s),
                direct ? input : s.cols_size())
          << "k=" << c.k << " s=" << c.stride << " p=" << c.pad
          << " g=" << c.groups;
    }
  }
}

TEST(ZeroAlloc, LayerWorkspacesStopGrowingAfterWarmup) {
  // Conv2d and Linear reuse their workspace arenas across steps: after one
  // warmed-up step the process-wide grow count must stay flat.
  KernelGuard guard;
  kernels::set_active_kernel(KernelKind::kTiled);
  Rng rng(303);
  Conv2d conv(4, 8, 3, 1, 1, 1, rng, false);
  Linear fc(32, 10, rng, true);
  Tensor x = Tensor::randn({3, 4, 8, 8}, rng, 1.0f);
  Tensor go = Tensor::randn({3, 8, 8, 8}, rng, 1.0f);
  Tensor fx = Tensor::randn({5, 32}, rng, 1.0f);
  Tensor fgo = Tensor::randn({5, 10}, rng, 1.0f);

  auto step = [&] {
    (void)conv.forward(x, true);
    (void)conv.backward(go);
    (void)fc.forward(fx, true);
    (void)fc.backward(fgo);
  };
  // Two warm-ups (first builds slots, second confirms shape-stable reuse).
  step();
  const std::uint64_t grows = kernels::Workspace::grow_count();
  step();
  step();
  EXPECT_EQ(kernels::Workspace::grow_count(), grows);
}

}  // namespace
}  // namespace hetero

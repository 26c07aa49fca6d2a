// Kernel-wave-2 tests (DESIGN.md §13):
//   * strict HS_KERNEL parsing — unknown modes are rejected with an error
//     naming the valid ones;
//   * fast-kind parity: FMA contraction and f32 nt accumulators drift from
//     tiled, but the drift is bounded per reduction length across the GEMM
//     shapes, the conv layer inventory, and whole model-zoo forwards.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "kernels/kernels.h"
#include "nn/model_zoo.h"
#include "util/rng.h"

namespace hetero {
namespace {

using kernels::ConvShape;
using kernels::KernelKind;

void fill_random(std::vector<float>& v, Rng& rng, float lo = -1.0f,
                 float hi = 1.0f) {
  for (float& x : v) x = rng.uniform_f(lo, hi);
}

/// Restores the process kernel kind on scope exit.
struct ModeGuard {
  KernelKind saved_kind = kernels::active_kernel();
  ~ModeGuard() { kernels::set_active_kernel(saved_kind); }
};

/// Per-element drift budget for fast-vs-tiled comparisons: a contracted or
/// f32-accumulated reduction of `red` terms can differ from the pinned
/// order by O(red · eps · partial-sum), so the budget scales with the
/// reduction length and the magnitude of the value. ~20 ulp per reduced
/// term — orders of magnitude below any indexing or ownership bug, which
/// shows up as an O(1) difference.
float drift_tol(std::size_t red, float ref) {
  return 2e-5f * static_cast<float>(red > 0 ? red : 1) *
         std::max(1.0f, std::fabs(ref));
}

// ------------------------------------------------------ strict env parsing --

TEST(EnvParsing, KernelKindAcceptsExactlyTheDocumentedModes) {
  EXPECT_EQ(kernels::parse_kernel_kind("reference"), KernelKind::kReference);
  EXPECT_EQ(kernels::parse_kernel_kind("tiled"), KernelKind::kTiled);
  EXPECT_EQ(kernels::parse_kernel_kind("fast"), KernelKind::kFast);
  EXPECT_STREQ(kernels::kernel_name(KernelKind::kFast), "fast");
  // Unknown values must not silently fall back to tiled.
  EXPECT_THROW(kernels::parse_kernel_kind("Fast"), std::invalid_argument);
  EXPECT_THROW(kernels::parse_kernel_kind("turbo"), std::invalid_argument);
  EXPECT_THROW(kernels::parse_kernel_kind(""), std::invalid_argument);
  try {
    kernels::parse_kernel_kind("turbo");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("turbo"), std::string::npos);
    EXPECT_NE(what.find("reference"), std::string::npos);
    EXPECT_NE(what.find("tiled"), std::string::npos);
    EXPECT_NE(what.find("fast"), std::string::npos);
  }
}

// --------------------------------------------------------- fast GEMM drift --

struct GemmShape {
  std::size_t m, k, n;
};

// The small-shape sweep from the tiled parity suite plus shapes large
// enough to engage every micro-kernel cascade and several cache blocks.
const GemmShape kGemmShapes[] = {{1, 1, 1},     {2, 3, 4},     {7, 5, 9},
                                 {16, 16, 16},  {33, 17, 65},  {5, 1, 13},
                                 {64, 48, 100}, {96, 130, 70}, {130, 70, 530}};

TEST(FastParity, GemmDriftBoundedPerReductionLength) {
  Rng rng(401);
  for (const auto& s : kGemmShapes) {
    // nn: reduction over k.
    {
      std::vector<float> a(s.m * s.k), b(s.k * s.n);
      fill_random(a, rng);
      fill_random(b, rng);
      std::vector<float> c_til(s.m * s.n), c_fast(s.m * s.n);
      kernels::gemm_nn(KernelKind::kTiled, a.data(), b.data(), c_til.data(),
                       s.m, s.k, s.n, false);
      kernels::gemm_nn(KernelKind::kFast, a.data(), b.data(), c_fast.data(),
                       s.m, s.k, s.n, false);
      for (std::size_t i = 0; i < c_til.size(); ++i) {
        ASSERT_NEAR(c_til[i], c_fast[i], drift_tol(s.k, c_til[i]))
            << "nn " << s.m << "x" << s.k << "x" << s.n << " elem " << i;
      }
    }
    // nt: tiled reduces in f64, fast in f32 — the widest documented drift.
    {
      std::vector<float> a(s.m * s.k), b(s.n * s.k), base(s.m * s.n);
      fill_random(a, rng);
      fill_random(b, rng);
      fill_random(base, rng);
      std::vector<float> c_til = base, c_fast = base;
      kernels::gemm_nt(KernelKind::kTiled, a.data(), b.data(), c_til.data(),
                       s.m, s.k, s.n, true);
      kernels::gemm_nt(KernelKind::kFast, a.data(), b.data(), c_fast.data(),
                       s.m, s.k, s.n, true);
      for (std::size_t i = 0; i < c_til.size(); ++i) {
        ASSERT_NEAR(c_til[i], c_fast[i], drift_tol(s.k, c_til[i]))
            << "nt " << s.m << "x" << s.k << "x" << s.n << " elem " << i;
      }
    }
    // tn: reduction over m.
    {
      std::vector<float> a(s.m * s.k), b(s.m * s.n);
      fill_random(a, rng);
      fill_random(b, rng);
      std::vector<float> c_til(s.k * s.n), c_fast(s.k * s.n);
      kernels::gemm_tn(KernelKind::kTiled, a.data(), b.data(), c_til.data(),
                       s.m, s.k, s.n, false);
      kernels::gemm_tn(KernelKind::kFast, a.data(), b.data(), c_fast.data(),
                       s.m, s.k, s.n, false);
      for (std::size_t i = 0; i < c_til.size(); ++i) {
        ASSERT_NEAR(c_til[i], c_fast[i], drift_tol(s.m, c_til[i]))
            << "tn " << s.m << "x" << s.k << "x" << s.n << " elem " << i;
      }
    }
  }
}

// --------------------------------------------------------- fast conv drift --

struct ConvCase {
  std::size_t n, in_c, out_c, k, stride, pad, groups;
};

// Same inventory as the tiled parity suite: pointwise, generic, grouped and
// depthwise layers — every structural path of the conv lowering.
std::vector<ConvCase> conv_cases() {
  std::vector<ConvCase> cases;
  for (std::size_t n : {std::size_t{1}, std::size_t{3}}) {
    for (std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
      for (std::size_t stride : {std::size_t{1}, std::size_t{2}}) {
        for (std::size_t pad : {std::size_t{0}, std::size_t{1}}) {
          if (pad >= k) continue;
          cases.push_back({n, 4, 6, k, stride, pad, 1});
          cases.push_back({n, 4, 6, k, stride, pad, 2});
        }
      }
    }
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

TEST(FastParity, ConvForwardBackwardDriftBoundedOverLayerInventory) {
  Rng rng(402);
  for (const ConvCase& c : conv_cases()) {
    const ConvShape s = make_shape(c, 8);
    const std::size_t w_size = s.out_c * s.group_in_c() * s.kernel * s.kernel;
    const std::size_t y_size = s.n * s.out_c * s.out_h() * s.out_w();
    const std::size_t x_size = s.n * s.in_c * s.in_h * s.in_w;
    std::vector<float> x(x_size), w(w_size), bias(s.out_c),
        grad_out(y_size);
    fill_random(x, rng);
    fill_random(w, rng);
    fill_random(bias, rng);
    fill_random(grad_out, rng);

    std::vector<float> y_til(y_size), y_fast(y_size);
    std::vector<float> cols_til(s.cols_size()), cols_fast(s.cols_size());
    kernels::Workspace ws_til, ws_fast;
    kernels::conv2d_forward(KernelKind::kTiled, s, x.data(), w.data(),
                            bias.data(), y_til.data(), cols_til.data(),
                            ws_til);
    kernels::conv2d_forward(KernelKind::kFast, s, x.data(), w.data(),
                            bias.data(), y_fast.data(), cols_fast.data(),
                            ws_fast);
    const std::size_t fwd_red = s.patch();
    for (std::size_t i = 0; i < y_size; ++i) {
      ASSERT_NEAR(y_til[i], y_fast[i], drift_tol(fwd_red, y_til[i]))
          << "fwd n=" << c.n << " k=" << c.k << " s=" << c.stride
          << " p=" << c.pad << " g=" << c.groups << " elem " << i;
    }
    // The lowering layout itself must be identical — fast only changes
    // arithmetic, never the im2col structure the backward replays.
    for (std::size_t i = 0; i < cols_til.size(); ++i) {
      ASSERT_EQ(cols_til[i], cols_fast[i]) << "cols elem " << i;
    }

    std::vector<float> gw_til(w_size), gw_fast(w_size);
    std::vector<float> gb_til(s.out_c), gb_fast(s.out_c);
    std::vector<float> gx_til(x_size), gx_fast(x_size);
    kernels::conv2d_backward(KernelKind::kTiled, s, grad_out.data(), w.data(),
                             cols_til.data(), gw_til.data(), gb_til.data(),
                             gx_til.data(), ws_til);
    kernels::conv2d_backward(KernelKind::kFast, s, grad_out.data(), w.data(),
                             cols_fast.data(), gw_fast.data(), gb_fast.data(),
                             gx_fast.data(), ws_fast);
    const std::size_t dw_red = s.n * s.out_h() * s.out_w();
    const std::size_t dx_red = s.out_c / s.groups * s.kernel * s.kernel;
    for (std::size_t i = 0; i < w_size; ++i) {
      ASSERT_NEAR(gw_til[i], gw_fast[i], drift_tol(dw_red, gw_til[i]))
          << "dW n=" << c.n << " k=" << c.k << " g=" << c.groups << " elem "
          << i;
    }
    for (std::size_t i = 0; i < s.out_c; ++i) {
      ASSERT_NEAR(gb_til[i], gb_fast[i], drift_tol(dw_red, gb_til[i]))
          << "dB elem " << i;
    }
    for (std::size_t i = 0; i < x_size; ++i) {
      ASSERT_NEAR(gx_til[i], gx_fast[i], drift_tol(dx_red, gx_til[i]))
          << "dX n=" << c.n << " k=" << c.k << " g=" << c.groups << " elem "
          << i;
    }
  }
}

TEST(FastParity, ModelZooForwardLogitsTrackTiled) {
  ModeGuard guard;
  for (const std::string& arch : model_zoo_names()) {
    ModelSpec spec;
    spec.arch = arch;
    spec.image_size = 8;
    spec.num_classes = 4;
    Rng xrng(403);
    const Tensor x = Tensor::randn({3, 3, 8, 8}, xrng, 1.0f);

    auto logits = [&](KernelKind kind) {
      kernels::set_active_kernel(kind);
      Rng mrng(77);  // same weights for both kinds
      auto model = make_model(spec, mrng);
      return model->forward(x, /*train=*/false);
    };
    const Tensor til = logits(KernelKind::kTiled);
    const Tensor fast = logits(KernelKind::kFast);
    ASSERT_EQ(til.size(), fast.size()) << arch;
    for (std::size_t i = 0; i < til.size(); ++i) {
      // Whole-network budget: drift compounds across layers but stays far
      // below anything that would flip an argmax on separated logits.
      ASSERT_NEAR(til[i], fast[i], 1e-2f) << arch << " logit " << i;
    }
  }
}

}  // namespace
}  // namespace hetero

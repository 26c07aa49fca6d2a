// Kernel-wave-2 tests (DESIGN.md §13):
//   * strict HS_KERNEL parsing — unknown modes are rejected with an error
//     naming the valid ones;
//   * fast-kind parity: FMA contraction and f32 nt accumulators drift from
//     tiled, but the drift is bounded per reduction length across the GEMM
//     shapes, the conv layer inventory, and whole model-zoo forwards;
//   * intra-op parallelism: tiled kernels split across a worker pool stay
//     bit-identical to the serial run (fixed task grids, disjoint output
//     ownership), at the raw-kernel level and through the scheduler's
//     lone-straggler grant.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "fl/algorithm.h"
#include "fl/simulation.h"
#include "kernels/kernels.h"
#include "nn/model_zoo.h"
#include "runtime/thread_pool.h"
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
// enough to engage every micro-kernel cascade and the intra-op task grids.
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

// ---------------------------------------------------- intra-op determinism --

TEST(IntraOp, TiledGemmsBitIdenticalUnderWorkerPool) {
  // Shapes past the intra-op flop threshold with multi-task grids, so the
  // parallel branch genuinely engages.
  const std::size_t m = 128, k = 96, n = 72;
  Rng rng(406);
  std::vector<float> a(m * k), b(k * n), bt(n * k), tnb(m * n);
  fill_random(a, rng);
  fill_random(b, rng);
  fill_random(bt, rng);
  fill_random(tnb, rng);
  std::vector<float> nn_s(m * n), nt_s(m * n), tn_s(k * n);
  kernels::gemm_nn(KernelKind::kTiled, a.data(), b.data(), nn_s.data(), m, k,
                   n, false);
  kernels::gemm_nt(KernelKind::kTiled, a.data(), bt.data(), nt_s.data(), m, k,
                   n, false);
  kernels::gemm_tn(KernelKind::kTiled, a.data(), tnb.data(), tn_s.data(), m,
                   k, n, false);

  for (std::size_t workers : {std::size_t{2}, std::size_t{3}}) {
    ThreadPool pool(workers);
    const kernels::ScopedIntraOp intra(
        [&pool](std::size_t tasks,
                const std::function<void(std::size_t)>& fn) {
          pool.parallel_for(tasks, fn);
        },
        workers);
    std::vector<float> nn_p(m * n), nt_p(m * n), tn_p(k * n);
    kernels::gemm_nn(KernelKind::kTiled, a.data(), b.data(), nn_p.data(), m,
                     k, n, false);
    kernels::gemm_nt(KernelKind::kTiled, a.data(), bt.data(), nt_p.data(), m,
                     k, n, false);
    kernels::gemm_tn(KernelKind::kTiled, a.data(), tnb.data(), tn_p.data(),
                     m, k, n, false);
    for (std::size_t i = 0; i < nn_s.size(); ++i) {
      ASSERT_EQ(nn_s[i], nn_p[i]) << workers << " workers, nn elem " << i;
    }
    for (std::size_t i = 0; i < nt_s.size(); ++i) {
      ASSERT_EQ(nt_s[i], nt_p[i]) << workers << " workers, nt elem " << i;
    }
    for (std::size_t i = 0; i < tn_s.size(); ++i) {
      ASSERT_EQ(tn_s[i], tn_p[i]) << workers << " workers, tn elem " << i;
    }
  }
}

TEST(IntraOp, TiledConvBitIdenticalUnderWorkerPool) {
  // A pointwise and a generic layer, both large enough to split over the
  // sample-level task grids.
  const ConvCase cases[] = {{4, 32, 32, 1, 1, 0, 1}, {4, 8, 16, 3, 1, 1, 1}};
  Rng rng(407);
  for (const ConvCase& c : cases) {
    const ConvShape s = make_shape(c, 16);
    const std::size_t w_size = s.out_c * s.group_in_c() * s.kernel * s.kernel;
    const std::size_t y_size = s.n * s.out_c * s.out_h() * s.out_w();
    const std::size_t x_size = s.n * s.in_c * s.in_h * s.in_w;
    std::vector<float> x(x_size), w(w_size), bias(s.out_c), go(y_size);
    fill_random(x, rng);
    fill_random(w, rng);
    fill_random(bias, rng);
    fill_random(go, rng);

    auto run = [&](bool pooled) {
      std::vector<float> y(y_size), cols(s.cols_size());
      std::vector<float> gw(w_size), gb(s.out_c), gx(x_size);
      kernels::Workspace ws;
      auto body = [&] {
        kernels::conv2d_forward(KernelKind::kTiled, s, x.data(), w.data(),
                                bias.data(), y.data(), cols.data(), ws);
        kernels::conv2d_backward(KernelKind::kTiled, s, go.data(), w.data(),
                                 cols.data(), gw.data(), gb.data(), gx.data(),
                                 ws);
      };
      if (pooled) {
        ThreadPool pool(3);
        const kernels::ScopedIntraOp intra(
            [&pool](std::size_t tasks,
                    const std::function<void(std::size_t)>& fn) {
              pool.parallel_for(tasks, fn);
            },
            3);
        body();
      } else {
        body();
      }
      return std::make_tuple(y, gw, gb, gx);
    };
    const auto [y_s, gw_s, gb_s, gx_s] = run(false);
    const auto [y_p, gw_p, gb_p, gx_p] = run(true);
    for (std::size_t i = 0; i < y_size; ++i) {
      ASSERT_EQ(y_s[i], y_p[i]) << "k=" << c.k << " y elem " << i;
    }
    for (std::size_t i = 0; i < w_size; ++i) {
      ASSERT_EQ(gw_s[i], gw_p[i]) << "k=" << c.k << " gw elem " << i;
    }
    for (std::size_t i = 0; i < s.out_c; ++i) {
      ASSERT_EQ(gb_s[i], gb_p[i]) << "k=" << c.k << " gb elem " << i;
    }
    for (std::size_t i = 0; i < x_size; ++i) {
      ASSERT_EQ(gx_s[i], gx_p[i]) << "k=" << c.k << " gx elem " << i;
    }
  }
}

/// Synthetic separable two-class image set (label encoded in brightness).
Dataset make_separable(std::size_t n, std::size_t seed) {
  Rng rng(seed);
  Tensor xs({n, 3, 8, 8});
  std::vector<std::size_t> labels(n);
  for (std::size_t j = 0; j < n; ++j) {
    labels[j] = j % 2;
    const float base = labels[j] == 0 ? 0.2f : 0.8f;
    for (std::size_t p = 0; p < 3 * 64; ++p) {
      xs[j * 3 * 64 + p] = base + rng.uniform_f(-0.05f, 0.05f);
    }
  }
  return Dataset(std::move(xs), std::move(labels));
}

SimulationResult run_lone_straggler_sim(std::size_t num_threads) {
  ModeGuard guard;
  kernels::set_active_kernel(KernelKind::kTiled);
  Rng mrng(31);
  ModelSpec spec;
  spec.arch = "squeeze-mini";
  spec.image_size = 8;
  spec.num_classes = 2;
  auto model = make_model(spec, mrng);

  FlPopulation data;
  for (std::size_t i = 0; i < 4; ++i) {
    data.client_train.push_back(make_separable(8, 600 + i));
    data.client_device.push_back(0);
  }
  data.device_test.push_back(make_separable(8, 700));
  data.device_names.push_back("synthetic");
  const MaterializedPopulation pop(std::move(data));

  LocalTrainConfig cfg;
  cfg.lr = 0.05f;
  cfg.epochs = 1;
  cfg.batch_size = 4;
  FedAvg algo(cfg);
  SimulationConfig sim;
  sim.rounds = 3;
  // One client per round: with a pool this takes the scheduler's inline
  // lone-straggler path, granting the whole pool to the client's kernels.
  sim.clients_per_round = 1;
  sim.seed = 31;
  sim.num_threads = num_threads;
  return run_simulation(*model, algo, pop, sim);
}

TEST(IntraOp, LoneStragglerBitIdenticalAcrossThreadCounts) {
  const SimulationResult serial = run_lone_straggler_sim(1);
  const SimulationResult pooled = run_lone_straggler_sim(4);
  ASSERT_EQ(serial.train_loss_history.size(),
            pooled.train_loss_history.size());
  for (std::size_t t = 0; t < serial.train_loss_history.size(); ++t) {
    EXPECT_EQ(serial.train_loss_history[t], pooled.train_loss_history[t])
        << "round " << t;
  }
  ASSERT_EQ(serial.final_metrics.per_device.size(),
            pooled.final_metrics.per_device.size());
  for (std::size_t i = 0; i < serial.final_metrics.per_device.size(); ++i) {
    EXPECT_EQ(serial.final_metrics.per_device[i],
              pooled.final_metrics.per_device[i]);
  }
  EXPECT_EQ(serial.final_metrics.average, pooled.final_metrics.average);
}

}  // namespace
}  // namespace hetero

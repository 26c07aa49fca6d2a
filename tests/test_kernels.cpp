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
//   * The tiled conv/linear hot paths perform zero heap allocations in
//     steady state (global operator new hook + Workspace::grow_count()).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "fl/algorithm.h"
#include "fl/simulation.h"
#include "kernels/kernels.h"
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

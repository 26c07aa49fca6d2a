// Kernel dispatch (HS_KERNEL) and the plane reductions shared by
// BatchNorm2d and the SE block. The reductions keep the seed accumulation
// order and precision exactly (f64, increasing index), so routing the
// layers through them changes no results.
#include "kernels/kernels.h"

#include <atomic>
#include <stdexcept>
#include <utility>

#include "util/config.h"

namespace hetero::kernels {

namespace {

// Unknown HS_KERNEL values used to silently mean "tiled", which turned
// typos (HS_KERNEL=Fast, HS_KERNEL=tilde) into quiet wrong-mode runs; the
// knob now rejects anything outside its mode list.
KernelKind kind_from_env() {
  const auto v = env_string("HS_KERNEL");
  return v ? parse_kernel_kind(*v) : KernelKind::kTiled;
}

std::atomic<KernelKind>& active_slot() {
  static std::atomic<KernelKind> slot{kind_from_env()};
  return slot;
}

// Thread-local intra-op state. A plain thread_local: it is strictly
// scope-managed (RAII installs/restores) and never observed from another
// thread.
thread_local IntraOpContext t_intra_op;

}  // namespace

KernelKind active_kernel() {
  return active_slot().load(std::memory_order_relaxed);
}

void set_active_kernel(KernelKind kind) {
  active_slot().store(kind, std::memory_order_relaxed);
}

const char* kernel_name(KernelKind kind) {
  switch (kind) {
    case KernelKind::kReference:
      return "reference";
    case KernelKind::kFast:
      return "fast";
    default:
      return "tiled";
  }
}

KernelKind parse_kernel_kind(const std::string& value) {
  if (value == "reference") return KernelKind::kReference;
  if (value == "tiled") return KernelKind::kTiled;
  if (value == "fast") return KernelKind::kFast;
  throw std::invalid_argument("HS_KERNEL: unknown kernel kind '" + value +
                              "' (valid modes: reference, tiled, fast)");
}

const IntraOpContext& intra_op() { return t_intra_op; }

ScopedIntraOp::ScopedIntraOp(
    std::function<void(std::size_t, const std::function<void(std::size_t)>&)>
        run,
    std::size_t ways)
    : saved_(std::move(t_intra_op)) {
  t_intra_op.run = std::move(run);
  t_intra_op.ways = ways;
}

ScopedIntraOp::~ScopedIntraOp() { t_intra_op = std::move(saved_); }

void plane_moments(const float* p, std::size_t count, double& sum,
                   double& sumsq) {
  double s = sum, sq = sumsq;
  for (std::size_t i = 0; i < count; ++i) {
    s += p[i];
    sq += static_cast<double>(p[i]) * p[i];
  }
  sum = s;
  sumsq = sq;
}

namespace {

/// Channels whose reduction chains advance together: each chain is bound
/// by f64 add latency, and four of them fill the adders.
constexpr std::size_t kChannelBlock = 4;

/// Runs B channels' two-chain reductions (channels c0..c0+B-1 of
/// (n, channels, count) tensors a and b) one element at a time. term(a, b)
/// yields the element's (first, second) chain terms.
template <std::size_t B, typename Term>
void reduce_channel_block(const float* a, const float* b, std::size_t n,
                          std::size_t channels, std::size_t count,
                          std::size_t c0, double* first, double* second,
                          Term term) {
  double f[B] = {}, g[B] = {};
  for (std::size_t smp = 0; smp < n; ++smp) {
    const std::size_t base = (smp * channels + c0) * count;
    for (std::size_t i = 0; i < count; ++i) {
      for (std::size_t k = 0; k < B; ++k) {
        const std::size_t at = base + k * count + i;
        const auto [tf, tg] = term(a[at], b[at]);
        f[k] += tf;
        g[k] += tg;
      }
    }
  }
  for (std::size_t k = 0; k < B; ++k) {
    first[c0 + k] = f[k];
    second[c0 + k] = g[k];
  }
}

template <typename Term>
void reduce_channels(const float* a, const float* b, std::size_t n,
                     std::size_t channels, std::size_t count, double* first,
                     double* second, Term term) {
  std::size_t c = 0;
  for (; c + kChannelBlock <= channels; c += kChannelBlock) {
    reduce_channel_block<kChannelBlock>(a, b, n, channels, count, c, first,
                                        second, term);
  }
  for (; c < channels; ++c) {
    reduce_channel_block<1>(a, b, n, channels, count, c, first, second, term);
  }
}

}  // namespace

void channel_moments(const float* x, std::size_t n, std::size_t channels,
                     std::size_t count, double* sum, double* sumsq) {
  reduce_channels(x, x, n, channels, count, sum, sumsq, [](float v, float) {
    return std::pair<double, double>(v, static_cast<double>(v) * v);
  });
}

void bn_normalize_plane(const float* src, float* dst, float* xhat,
                        std::size_t count, float mean, float inv, float g,
                        float b) {
  for (std::size_t i = 0; i < count; ++i) {
    const float xh = (src[i] - mean) * inv;
    if (xhat) xhat[i] = xh;
    dst[i] = g * xh + b;
  }
}

void bn_reduce_plane(const float* dy, const float* xh, std::size_t count,
                     double& sum_dy, double& sum_dy_xhat) {
  double s = sum_dy, sx = sum_dy_xhat;
  for (std::size_t i = 0; i < count; ++i) {
    s += dy[i];
    sx += static_cast<double>(dy[i]) * xh[i];
  }
  sum_dy = s;
  sum_dy_xhat = sx;
}

void bn_reduce_channels(const float* dy, const float* xh, std::size_t n,
                        std::size_t channels, std::size_t count,
                        double* sum_dy, double* sum_dy_xhat) {
  reduce_channels(dy, xh, n, channels, count, sum_dy, sum_dy_xhat,
                  [](float d, float h) {
                    return std::pair<double, double>(
                        d, static_cast<double>(d) * h);
                  });
}

void bn_apply_plane(const float* dy, const float* xh, float* dx,
                    std::size_t count, float g_inv, float k1, float k2) {
  for (std::size_t i = 0; i < count; ++i) {
    dx[i] = g_inv * (dy[i] - k1 - xh[i] * k2);
  }
}

void scale_plane(float* plane, std::size_t count, float s) {
  for (std::size_t i = 0; i < count; ++i) plane[i] *= s;
}

double se_backward_plane(const float* dy, const float* x, float* dx,
                         std::size_t count, float g) {
  double acc = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    acc += static_cast<double>(dy[i]) * x[i];
    dx[i] = dy[i] * g;
  }
  return acc;
}

}  // namespace hetero::kernels

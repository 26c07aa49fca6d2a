// Kernel dispatch (HS_KERNEL), and the batch-norm and SE-gate passes. The
// passes keep the per-element float expressions and the per-plane f64
// chain orders of the layer loops they replaced, so they change no results.
#include "kernels/kernels.h"

#include <atomic>
#include <stdexcept>
#include <type_traits>

#include "kernels/internal.h"
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

namespace {

using detail::chain_blocks;
using detail::plane_block;
using detail::plane_chains;
using detail::transpose_lanes4;
using detail::v4d;
using detail::v4f;
using detail::v8f;
using detail::vload;
using detail::vstore;

/// Calls f(std::integral_constant<Nonlinearity, A>{}) for the runtime act,
/// so each activation gets its own inlined loop.
template <class F>
HS_ALWAYS_INLINE void with_act(Nonlinearity act, F f) {
  using N = Nonlinearity;
  switch (act) {
    case N::kReLU:
      return f(std::integral_constant<N, N::kReLU>{});
    case N::kHSwish:
      return f(std::integral_constant<N, N::kHSwish>{});
    default:
      return f(std::integral_constant<N, N::kNone>{});
  }
}

/// act(z): ReLU as std::max(z, 0), i.e. (z < 0) ? 0 : z, so -0 and NaN
/// pass through; h-swish as z·hsigmoid(z).
template <Nonlinearity A, class V>
HS_ALWAYS_INLINE V activate(V z) {
  if constexpr (A == Nonlinearity::kReLU) {
    return z < 0.0f ? V{} : z;
  } else if constexpr (A == Nonlinearity::kHSwish) {
    return z * hsigmoid(z);
  } else {
    return z;
  }
}

/// dy through the activation at pre-activation z: ReLU passes dy where
/// z > 0 and 0 elsewhere; h-swish scales it by hsigmoid(z) + z·hsigmoid'(z).
template <Nonlinearity A, class V>
HS_ALWAYS_INLINE V activate_grad(V z, V dy) {
  if constexpr (A == Nonlinearity::kReLU) {
    return z > 0.0f ? dy : V{};
  } else if constexpr (A == Nonlinearity::kHSwish) {
    return dy * (hsigmoid(z) + z * hsigmoid_grad(z));
  } else {
    return dy;
  }
}

/// y = act(g·x̂ + b) with x̂ = (x - mean)·inv on one plane, x̂ stored when
/// kTrain.
template <Nonlinearity A, bool kTrain>
HS_ALWAYS_INLINE void bn_forward_plane(const float* HS_RESTRICT x,
                                       float* HS_RESTRICT xhat,
                                       float* HS_RESTRICT y, std::size_t count,
                                       float mean, float inv, float g,
                                       float b) {
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const v8f xh = (vload<v8f>(x + i) - mean) * inv;
    if constexpr (kTrain) vstore(xhat + i, xh);
    vstore(y + i, activate<A>(g * xh + b));
  }
  for (; i < count; ++i) {
    const float xh = (x[i] - mean) * inv;
    if constexpr (kTrain) xhat[i] = xh;
    y[i] = activate<A>(g * xh + b);
  }
}

/// Whether the backward stores d = act'(z)·dy between its two passes:
/// h-swish's derivative costs a division per element, so its reduction
/// pass stages d in dx for the last pass; ReLU's mask is cheaper to
/// recompute than a store and a reload.
template <Nonlinearity A>
constexpr bool kStagesD = A == Nonlinearity::kHSwish;

/// The backward's reduction pass for channels c0..c0+4G-1: the Σd and
/// Σd·x̂ chains of bn_moments' order, d = act'(gamma·x̂ + beta)·dy, stored
/// to d_out when kStagesD<A>.
template <Nonlinearity A, std::size_t G>
HS_ALWAYS_INLINE void bn_grad_chains(const float* dy, const float* xhat,
                                     float* d_out, std::size_t n,
                                     std::size_t channels, std::size_t count,
                                     std::size_t c0, const float* gamma,
                                     const float* beta, double* sum_d,
                                     double* sum_d_xhat) {
  constexpr std::size_t L = 4 * G;
  float gam[L], bet[L];
  for (std::size_t k = 0; k < L; ++k) {
    const std::size_t c = std::min(c0 + k, channels - 1);
    gam[k] = gamma[c];
    bet[k] = beta[c];
  }
  v4d s[G] = {}, sx[G] = {};
  for (std::size_t smp = 0; smp < n; ++smp) {
    const std::size_t base = smp * channels * count;
    const float *dyl[L], *xl[L];
    plane_block<G>(dy + base, c0, channels, count, dyl);
    plane_block<G>(xhat + base, c0, channels, count, xl);
    // Lanes past the last channel store the last channel's d again.
    float* dl[L];
    for (std::size_t k = 0; k < L; ++k) dl[k] = d_out + (dyl[k] - dy);
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
      v4d u[G][4], v[G][4];
      for (std::size_t g = 0; g < G; ++g) {
        v4f rd[4], rx[4];
        for (std::size_t k = 0; k < 4; ++k) {
          const std::size_t l = 4 * g + k;
          rx[k] = vload<v4f>(xl[l] + i);
          rd[k] = activate_grad<A>(gam[l] * rx[k] + bet[l],
                                   vload<v4f>(dyl[l] + i));
          if constexpr (kStagesD<A>) vstore(dl[l] + i, rd[k]);
        }
        transpose_lanes4(rd, u[g]);
        transpose_lanes4(rx, v[g]);
      }
      for (std::size_t j = 0; j < 4; ++j) {
        for (std::size_t g = 0; g < G; ++g) {
          s[g] += u[g][j];
          sx[g] += u[g][j] * v[g][j];
        }
      }
    }
    for (; i < count; ++i) {
      for (std::size_t g = 0; g < G; ++g) {
        float dv[4], xv[4];
        for (std::size_t k = 0; k < 4; ++k) {
          const std::size_t l = 4 * g + k;
          xv[k] = xl[l][i];
          dv[k] = activate_grad<A>(gam[l] * xv[k] + bet[l], dyl[l][i]);
          if constexpr (kStagesD<A>) dl[l][i] = dv[k];
        }
        const v4d u = {dv[0], dv[1], dv[2], dv[3]};
        s[g] += u;
        sx[g] += u * v4d{xv[0], xv[1], xv[2], xv[3]};
      }
    }
  }
  for (std::size_t k = 0; k < L && c0 + k < channels; ++k) {
    sum_d[c0 + k] = s[k / 4][k % 4];
    sum_d_xhat[c0 + k] = sx[k / 4][k % 4];
  }
}

/// dx = g_inv·(d - k1 - x̂·k2) on one plane, d read back from dx when
/// kStagesD<A>, else recomputed as act'(g·x̂ + b)·dy (the same bits).
template <Nonlinearity A>
HS_ALWAYS_INLINE void bn_input_grad_plane(const float* HS_RESTRICT dy,
                                          const float* HS_RESTRICT xhat,
                                          float* HS_RESTRICT dx,
                                          std::size_t count, float g, float b,
                                          float g_inv, float k1, float k2) {
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const v8f xh = vload<v8f>(xhat + i);
    v8f d;
    if constexpr (kStagesD<A>) {
      d = vload<v8f>(dx + i);
    } else {
      d = activate_grad<A>(g * xh + b, vload<v8f>(dy + i));
    }
    vstore(dx + i, g_inv * (d - k1 - xh * k2));
  }
  for (; i < count; ++i) {
    float d;
    if constexpr (kStagesD<A>) {
      d = dx[i];
    } else {
      d = activate_grad<A>(g * xhat[i] + b, dy[i]);
    }
    dx[i] = g_inv * (d - k1 - xhat[i] * k2);
  }
}

}  // namespace

HS_TILED_CLONES
void bn_moments(const float* x, std::size_t n, std::size_t channels,
                std::size_t count, double* sum, double* sumsq) {
  chain_blocks(channels, [&](std::size_t c0, auto groups)
                             __attribute__((always_inline)) {
    constexpr std::size_t G = decltype(groups)::value;
    v4d s[G] = {}, sq[G] = {};
    for (std::size_t smp = 0; smp < n; ++smp) {
      const float* lane[4 * G];
      plane_block<G>(x + smp * channels * count, c0, channels, count, lane);
      plane_chains<G>(lane, lane, count,
                      [&](std::size_t g, v4d u, v4d)
                          __attribute__((always_inline)) {
                            s[g] += u;
                            sq[g] += u * u;
                          });
    }
    for (std::size_t k = 0; k < 4 * G && c0 + k < channels; ++k) {
      sum[c0 + k] = s[k / 4][k % 4];
      sumsq[c0 + k] = sq[k / 4][k % 4];
    }
  });
}

HS_TILED_CLONES
void bn_act_forward(Nonlinearity act, const float* x, std::size_t n,
                    std::size_t channels, std::size_t count, const float* mean,
                    const float* inv, const float* gamma, const float* beta,
                    float* xhat, float* y) {
  with_act(act, [&](auto a) __attribute__((always_inline)) {
    constexpr Nonlinearity A = decltype(a)::value;
    for (std::size_t smp = 0; smp < n; ++smp) {
      for (std::size_t c = 0; c < channels; ++c) {
        const std::size_t at = (smp * channels + c) * count;
        if (xhat) {
          bn_forward_plane<A, true>(x + at, xhat + at, y + at, count,
                                    mean[c], inv[c], gamma[c], beta[c]);
        } else {
          bn_forward_plane<A, false>(x + at, nullptr, y + at, count, mean[c],
                                     inv[c], gamma[c], beta[c]);
        }
      }
    }
  });
}

HS_TILED_CLONES
void bn_act_backward(Nonlinearity act, const float* dy, const float* xhat,
                     std::size_t n, std::size_t channels, std::size_t count,
                     const float* inv, const float* gamma, const float* beta,
                     float* dx, double* sum_d, double* sum_d_xhat) {
  // Two passes, the reduction and then dx, over d = act'(γ·x̂ + β)·dy, the
  // gradient at the batch norm's output (kStagesD: stored or recomputed).
  with_act(act, [&](auto a) __attribute__((always_inline)) {
    constexpr Nonlinearity A = decltype(a)::value;
    chain_blocks(channels, [&](std::size_t c0, auto groups)
                               __attribute__((always_inline)) {
      bn_grad_chains<A, decltype(groups)::value>(dy, xhat, dx, n, channels,
                                                 count, c0, gamma, beta, sum_d,
                                                 sum_d_xhat);
    });
    const double m = static_cast<double>(n * count);
    for (std::size_t smp = 0; smp < n; ++smp) {
      for (std::size_t c = 0; c < channels; ++c) {
        const std::size_t at = (smp * channels + c) * count;
        bn_input_grad_plane<A>(dy + at, xhat + at, dx + at, count, gamma[c],
                               beta[c], gamma[c] * inv[c],
                               static_cast<float>(sum_d[c] / m),
                               static_cast<float>(sum_d_xhat[c] / m));
      }
    }
  });
}

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

void bn_apply_plane(const float* dy, const float* xh, float* dx,
                    std::size_t count, float g_inv, float k1, float k2) {
  for (std::size_t i = 0; i < count; ++i) {
    dx[i] = g_inv * (dy[i] - k1 - xh[i] * k2);
  }
}

HS_TILED_CLONES
void se_scale(const float* x, const float* gate, std::size_t planes,
              std::size_t count, float* y) {
  for (std::size_t p = 0; p < planes; ++p) {
    const float* HS_RESTRICT src = x + p * count;
    float* HS_RESTRICT dst = y + p * count;
    const float g = gate[p];
    std::size_t i = 0;
    for (; i + 8 <= count; i += 8) vstore(dst + i, vload<v8f>(src + i) * g);
    for (; i < count; ++i) dst[i] = src[i] * g;
  }
}

HS_TILED_CLONES
void se_gate_grad(const float* dy, const float* x, std::size_t planes,
                  std::size_t count, float* dgate) {
  chain_blocks(planes, [&](std::size_t p0, auto groups)
                           __attribute__((always_inline)) {
    constexpr std::size_t G = decltype(groups)::value;
    const float *dl[4 * G], *xl[4 * G];
    plane_block<G>(dy, p0, planes, count, dl);
    plane_block<G>(x, p0, planes, count, xl);
    v4d acc[G] = {};
    plane_chains<G>(
        dl, xl, count,
        [&](std::size_t g, v4d u, v4d v) __attribute__((always_inline)) {
          acc[g] += u * v;
        });
    for (std::size_t k = 0; k < 4 * G && p0 + k < planes; ++k) {
      dgate[p0 + k] = static_cast<float>(acc[k / 4][k % 4]);
    }
  });
}

HS_TILED_CLONES
void se_input_grad(const float* dy, const float* gate, const float* pool,
                   std::size_t planes, std::size_t count, float* dx) {
  const float scale = 1.0f / static_cast<float>(count);
  for (std::size_t p = 0; p < planes; ++p) {
    const float* HS_RESTRICT src = dy + p * count;
    float* HS_RESTRICT dst = dx + p * count;
    const float g = gate[p], back = pool[p] * scale;
    std::size_t i = 0;
    for (; i + 8 <= count; i += 8) {
      vstore(dst + i, vload<v8f>(src + i) * g + back);
    }
    for (; i < count; ++i) dst[i] = src[i] * g + back;
  }
}

}  // namespace hetero::kernels

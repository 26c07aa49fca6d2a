// Batched, cache-blocked compute kernels for the training hot paths.
//
// This layer sits below src/tensor and src/nn: it works on raw float
// buffers only, so the NN layers can run their hot loops without
// constructing intermediate Tensors. Two implementations of every GEMM and
// convolution entry point are kept:
//
//   * kReference — the original scalar loops, byte-for-byte the seed
//     implementation. The oracle for the parity tests.
//   * kTiled     — cache-blocked, register-tiled loops with branch-free,
//     vectorizable inner kernels, and batched convolution (one im2col +
//     one GEMM per layer per group for the whole mini-batch instead of
//     per sample).
//   * kFast      — the tiled structure recompiled for x86-64-v3 with FMA
//     contraction and f32 nt accumulators: faster, but with documented
//     drift against tiled/reference (DESIGN.md §13; the parity suite
//     bounds it per layer). Opt-in via HS_KERNEL=fast.
//
// Determinism contract (DESIGN.md §9/§13): for a fixed kernel kind, results
// are bit-identical run-to-run and across thread counts: every call runs on
// its calling thread, and each output element's reduction chain is fixed by
// the problem shape alone. The tiled GEMMs reduce over k in increasing
// order with the same accumulation precision as the reference loops, so
// gemm_nn / gemm_nt / gemm_tn — and therefore
// conv2d_forward and the conv input gradient — are bit-identical across the
// reference and tiled kinds for finite inputs. The only reference↔tiled
// drift is the convolution weight/bias gradient for batch sizes > 1, where
// batching replaces per-sample rounding with one reduction over the whole
// batch (called out in DESIGN.md §9; parity tests bound it).
//
// HS_KERNEL=reference|tiled|fast selects the process default (tiled when
// unset; any other value is rejected with an error listing the valid
// modes); set_active_kernel() overrides it programmatically.
#pragma once

#include <cstddef>
#include <string>

#include "kernels/isa.h"
#include "kernels/workspace.h"

namespace hetero::kernels {

enum class KernelKind { kReference, kTiled, kFast };

/// Process-wide kernel selection: HS_KERNEL env var on first use
/// ("reference", "tiled" or "fast"; unset means tiled, anything else
/// throws), overridable at runtime via set_active_kernel(). Thread-safe.
KernelKind active_kernel();
void set_active_kernel(KernelKind kind);
const char* kernel_name(KernelKind kind);

/// Strict mode parsing: returns the kind for "reference" / "tiled" /
/// "fast", throws std::invalid_argument listing the valid modes otherwise.
KernelKind parse_kernel_kind(const std::string& value);

// ---------------------------------------------------------------- GEMM ----
// All shapes are row-major. When `accumulate` is true the result is added
// onto C (which must be initialized); otherwise C is overwritten.

/// C(m,n) = A(m,k) · B(k,n). f32 accumulation, increasing k.
void gemm_nn(KernelKind kind, const float* a, const float* b, float* c,
             std::size_t m, std::size_t k, std::size_t n, bool accumulate);

/// C(m,n) = A(m,k) · B(n,k)^T. f64 accumulation per element, increasing k.
void gemm_nt(KernelKind kind, const float* a, const float* b, float* c,
             std::size_t m, std::size_t k, std::size_t n, bool accumulate);

/// C(k,n) = A(m,k)^T · B(m,n). f32 accumulation, increasing m.
void gemm_tn(KernelKind kind, const float* a, const float* b, float* c,
             std::size_t m, std::size_t k, std::size_t n, bool accumulate);

// --------------------------------------------------------- Convolution ----

/// Geometry of a batched, grouped 2-D convolution (cross-correlation).
struct ConvShape {
  std::size_t n = 1;            ///< batch size
  std::size_t in_c = 0, in_h = 0, in_w = 0;
  std::size_t out_c = 0;
  std::size_t kernel = 1, stride = 1, pad = 0;
  std::size_t groups = 1;

  std::size_t out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  std::size_t out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
  std::size_t group_in_c() const { return in_c / groups; }
  std::size_t group_out_c() const { return out_c / groups; }
  /// Rows of a group's im2col matrix: (in_c/groups) * kernel * kernel.
  std::size_t patch() const { return group_in_c() * kernel * kernel; }
  /// Floats needed to retain the batched patch matrices of all groups.
  std::size_t cols_size() const {
    return groups * patch() * n * out_h() * out_w();
  }
};

/// Unfolds image `img` (c,h,w sub-view described by `s`, channels
/// [c0, c0+s.group_in_c())) into patch-matrix columns. The destination has
/// leading dimension `ld` (floats between consecutive rows) and the window
/// columns are written starting at column `col0`. Out-of-bounds (padding)
/// samples read as zero.
void im2col_strided(const float* img, const ConvShape& s, std::size_t c0,
                    float* dst, std::size_t ld, std::size_t col0);

/// Adjoint of im2col_strided: folds patch-matrix columns [col0, col0+ohw)
/// of `src` (leading dimension `ld`) back into image channels [c0, ...),
/// accumulating overlapping contributions onto `img` (not zeroed here).
void col2im_strided_add(const float* src, const ConvShape& s, std::size_t c0,
                        std::size_t ld, std::size_t col0, float* img);

/// Floats a training forward retains for backward: the input (n·c·h·w)
/// on the tiled/fast pointwise and depthwise-direct paths, whose backward
/// replays from the input, and cols_size() on the reference and general
/// im2col paths.
std::size_t conv2d_retained_size(KernelKind kind, const ConvShape& s);

/// Batched grouped convolution forward: y(n,out_c,oh,ow) = x * w (+ bias).
/// w is (out_c, in_c/groups, k, k); bias is (out_c) or nullptr. When
/// `cols_retained` is non-null (a training forward) it receives what
/// backward replays from (conv2d_retained_size() floats, caller-stable
/// until backward). Otherwise only the reference and general im2col paths
/// take patch-matrix scratch from `ws`; the direct paths need none.
/// Allocation-free in steady state.
void conv2d_forward(KernelKind kind, const ConvShape& s, const float* x,
                    const float* w, const float* bias, float* y,
                    float* cols_retained, Workspace& ws);

/// Batched grouped convolution backward. Inputs: grad_out (n,out_c,oh,ow),
/// weights w, and what conv2d_forward retained. Outputs:
/// gw (+=, shape of w), gb (+= per-channel sums, nullptr to skip), and
/// grad_in (n,in_c,h,w), which must be zero-initialized — the fold-back
/// accumulates straight into it (no intermediate image). Allocation-free in
/// steady state.
void conv2d_backward(KernelKind kind, const ConvShape& s,
                     const float* grad_out, const float* w, const float* cols,
                     float* gw, float* gb, float* grad_in, Workspace& ws);

// ------------------------------------------ Batch norm and activations ----
// BatchNorm2d runs its statistics, normalization and the activation that
// follows it as a few wide passes (DESIGN.md §9). Every element keeps the
// float expression of the separate layers, and every per-channel f64 chain
// keeps the per-plane loop's order (sample-major, position ascending), so
// the fused layer has the bits of BatchNorm2d followed by ReLU or HSwish.

/// The activation a batch norm applies to its output.
enum class Nonlinearity { kNone, kReLU, kHSwish };

/// h-sigmoid(x) = clamp(x / 6 + 0.5, 0, 1), the ReLU6(x + 3) / 6 form; V is
/// float or a GCC float vector, with the same bits either way. A division,
/// not a multiply by 1/6, clamped in std::clamp's compare order, so -0 and
/// NaN pass through as std::clamp passes them.
template <class V>
HS_ALWAYS_INLINE V hsigmoid(V x) {
  const V t = x / 6.0f + 0.5f;
  const V lo = t < 0.0f ? V{} : t;
  return 1.0f < lo ? V{} + 1.0f : lo;
}

/// d/dx hsigmoid: 1/6 inside (-3, 3), 0 elsewhere.
template <class V>
HS_ALWAYS_INLINE V hsigmoid_grad(V x) {
  return (x > -3.0f) & (x < 3.0f) ? V{} + 1.0f / 6.0f : V{};
}

/// Per-channel moments of an (n, channels, count) tensor: sum[c] = Σx and
/// sumsq[c] = Σx², f64 chains from 0 over channel c's planes in sample
/// order, position ascending (the plane_moments loop's order).
void bn_moments(const float* x, std::size_t n, std::size_t channels,
                std::size_t count, double* sum, double* sumsq);

/// y = act(gamma[c]·x̂ + beta[c]) with x̂ = (x - mean[c])·inv[c], over an
/// (n, channels, count) tensor; records x̂ in xhat unless it is null (a
/// training forward does, an eval forward does not).
void bn_act_forward(Nonlinearity act, const float* x, std::size_t n,
                    std::size_t channels, std::size_t count, const float* mean,
                    const float* inv, const float* gamma, const float* beta,
                    float* xhat, float* y);

/// Backward of a training bn_act_forward, from its x̂ and the output
/// gradient dy. d = act'(gamma·x̂ + beta)·dy (the recomputed pre-activation
/// has the forward's bits); sum_d[c] = Σd and sum_d_xhat[c] = Σd·x̂ in
/// bn_moments' chain order; dx = (gamma·inv)·(d - k1 - x̂·k2) with
/// k1 = Σd/m and k2 = Σd·x̂/m over the m = n·count elements of a channel.
/// dx is written in full.
void bn_act_backward(Nonlinearity act, const float* dy, const float* xhat,
                     std::size_t n, std::size_t channels, std::size_t count,
                     const float* inv, const float* gamma, const float* beta,
                     float* dx, double* sum_d, double* sum_d_xhat);

// The per-plane loops bn_moments and bn_act_* replace, kept as their oracle
// (BatchNormKernels.ChannelBlocksMatchThePerPlaneLoop).

/// sum += Σ p[i]; sumsq += Σ p[i]².
void plane_moments(const float* p, std::size_t count, double& sum,
                   double& sumsq);

/// dst[i] = g * (src[i] - mean) * inv + b; optionally records the
/// normalized value in xhat (pass nullptr to skip).
void bn_normalize_plane(const float* src, float* dst, float* xhat,
                        std::size_t count, float mean, float inv, float g,
                        float b);

/// sum_dy += Σ dy[i]; sum_dy_xhat += Σ dy[i]·xh[i].
void bn_reduce_plane(const float* dy, const float* xh, std::size_t count,
                     double& sum_dy, double& sum_dy_xhat);

/// dx[i] = g_inv * (dy[i] - k1 - xh[i] * k2).
void bn_apply_plane(const float* dy, const float* xh, float* dx,
                    std::size_t count, float g_inv, float k1, float k2);

// ------------------------------------------------------------- SE gate ----
// Squeeze-and-excitation scales each (sample, channel) plane p of an
// activation by a gate value gate[p].

/// y = x·gate[p] over `planes` planes of `count` floats.
void se_scale(const float* x, const float* gate, std::size_t planes,
              std::size_t count, float* y);

/// dgate[p] = Σ dy·x over plane p: an f64 chain from 0, position
/// ascending, rounded to float.
void se_gate_grad(const float* dy, const float* x, std::size_t planes,
                  std::size_t count, float* dgate);

/// dx = dy·gate[p] + pool[p]·(1/count): the gated path's gradient plus the
/// value GlobalAvgPool::backward broadcasts for the pooled gradient pool[p],
/// rounded in that order.
void se_input_grad(const float* dy, const float* gate, const float* pool,
                   std::size_t planes, std::size_t count, float* dx);

}  // namespace hetero::kernels

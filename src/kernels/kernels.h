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
// are bit-identical run-to-run and across thread counts — including any
// intra-op worker count (ScopedIntraOp below): GEMMs split over a task grid
// fixed by the problem shape, each task owning a disjoint output region
// whose per-element reduction chains are untouched. The tiled GEMMs reduce
// over k in increasing order with the same accumulation precision as the
// reference loops, so gemm_nn / gemm_nt / gemm_tn — and therefore
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
#include <functional>
#include <string>

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

// ---------------------------------------------------- intra-op parallelism --
// A thread-local context carrying an optional worker handle (type-erased so
// this layer never depends on src/runtime). While installed, large GEMMs
// and conv lowerings split their fixed task grids across it; results stay
// bit-identical to the serial run for any worker count because block
// ownership is a function of the problem shape alone (DESIGN.md §13).

struct IntraOpContext {
  /// Runs fn(t) for every t in [0, tasks), in any order, possibly
  /// concurrently, and returns when all calls finished. Null → serial.
  std::function<void(std::size_t, const std::function<void(std::size_t)>&)>
      run;
  /// Workers behind `run` (1 → serial; contexts with ways <= 1 are ignored).
  std::size_t ways = 1;
};

/// The calling thread's current intra-op context (a serial default when no
/// ScopedIntraOp is live).
const IntraOpContext& intra_op();

/// Installs an intra-op context on the calling thread for the scope's
/// lifetime, restoring the previous one on exit. The context is
/// deliberately not inherited by the workers `run` fans out to, so nested
/// kernel calls inside a task run serially (no fork-bomb, no pool
/// deadlock).
class ScopedIntraOp {
 public:
  ScopedIntraOp(
      std::function<void(std::size_t,
                         const std::function<void(std::size_t)>&)> run,
      std::size_t ways);
  ~ScopedIntraOp();
  ScopedIntraOp(const ScopedIntraOp&) = delete;
  ScopedIntraOp& operator=(const ScopedIntraOp&) = delete;

 private:
  IntraOpContext saved_;
};

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

/// Batched grouped convolution forward: y(n,out_c,oh,ow) = x * w (+ bias).
/// w is (out_c, in_c/groups, k, k); bias is (out_c) or nullptr. When
/// `cols_retained` is non-null it receives the batched per-group patch
/// matrices (ConvShape::cols_size() floats, caller-stable until backward);
/// otherwise scratch from `ws` is used. Allocation-free in steady state.
void conv2d_forward(KernelKind kind, const ConvShape& s, const float* x,
                    const float* w, const float* bias, float* y,
                    float* cols_retained, Workspace& ws);

/// Batched grouped convolution backward. Inputs: grad_out (n,out_c,oh,ow),
/// weights w, and the patch matrices retained by conv2d_forward. Outputs:
/// gw (+=, shape of w), gb (+= per-channel sums, nullptr to skip), and
/// grad_in (n,in_c,h,w), which must be zero-initialized — the fold-back
/// accumulates straight into it (no intermediate image). Allocation-free in
/// steady state.
void conv2d_backward(KernelKind kind, const ConvShape& s,
                     const float* grad_out, const float* w, const float* cols,
                     float* gw, float* gb, float* grad_in, Workspace& ws);

// ----------------------------------------------- Row/plane reductions ----
// Shared by BatchNorm2d and the SE block: contiguous-plane reductions and
// affine maps with pinned accumulation order (f64, increasing index), so
// moving them here changes no results.

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

/// plane[i] *= s.
void scale_plane(float* plane, std::size_t count, float s);

/// Fused SE-gate backward on one plane: dx[i] = dy[i] * g and returns
/// Σ dy[i]·x[i] in f64.
double se_backward_plane(const float* dy, const float* x, float* dx,
                         std::size_t count, float g);

}  // namespace hetero::kernels

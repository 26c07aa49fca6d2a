// Batched grouped convolution on raw buffers.
//
// Patch-matrix ("cols") layout is kind-dependent and the backward pass must
// be called with the same kind that produced the buffer (src/nn/conv2d
// caches the kind used at forward):
//   kReference — (sample, group)-major blocks, each a contiguous
//                (patch, oh*ow) matrix: the seed cache, one slab per
//                (sample, group), driving one GEMM per sample per group.
//   kTiled/kFast — group-major blocks, each a batched (patch, n*oh*ow)
//                matrix whose column s*oh*ow + i is output pixel i of
//                sample s: one GEMM per group for the whole mini-batch.
//                Two layer shapes skip the unfold and retain the input
//                tensor verbatim instead ((n, in_c, h*w) order): 1x1/
//                stride-1/pad-0 layers run per-sample GEMMs straight on
//                the x/y/grad slabs, and depthwise layers (one input and
//                one output channel per group) convolve the image planes
//                directly.
//
// im2col/col2im here are copies/adjoint-scatters — exact in either
// direction — so both kinds share one strided implementation; the per-row
// valid-range precomputation only removes the per-pixel bounds branches,
// visiting elements in the seed loop order.
//
// The fast kind shares every structural path (and the cols layout) with
// tiled — only the GEMMs it dispatches to differ — so Conv2d's cached-kind
// contract holds for it unchanged.
//
// Forward activations, input gradients and bias gradients are bit-identical
// across the reference and tiled kinds: every structural fast path
// preserves the reference per-element chains
// (patch rows reduced in ascending order, col2im's add order, zero-weight
// rows skipped, padded taps contributing exact zeros). The weight gradient
// is the one tensor that drifts: the tiled kind reduces it in f32 over the
// whole mini-batch (vector-friendly association) where the reference takes
// one f64 dot per sample — the parity suite bounds the difference and
// DESIGN.md §9 calls it out.
#include "kernels/kernels.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "kernels/internal.h"
#include "kernels/isa.h"

namespace hetero::kernels {

// Blocked transpose of a (rows, ld) matrix into (ld, rows) order, so the
// weight-gradient GEMM can reduce over the batched column index with
// unit-stride loads.
HS_TILED_CLONES
void detail::transpose_to(const float* HS_RESTRICT src, std::size_t rows,
                          std::size_t ld, float* HS_RESTRICT dst) {
  constexpr std::size_t kB = 32;
  for (std::size_t i0 = 0; i0 < ld; i0 += kB) {
    const std::size_t ib = std::min(kB, ld - i0);
    for (std::size_t r0 = 0; r0 < rows; r0 += kB) {
      const std::size_t rb = std::min(kB, rows - r0);
      for (std::size_t i = i0; i < i0 + ib; ++i) {
        float* HS_RESTRICT drow = dst + i * rows + r0;
        for (std::size_t r = 0; r < rb; ++r) {
          drow[r] = src[(r0 + r) * ld + i];
        }
      }
    }
  }
}

namespace {

using detail::transpose_to;

// Workspace slot map: slot 0 is left to the caller (src/nn keeps the
// retained cols buffer there); forward/backward scratch lives above it.
constexpr std::size_t kSlotYt = 1;
constexpr std::size_t kSlotGo = 2;
constexpr std::size_t kSlotDcols = 3;
constexpr std::size_t kSlotCols = 4;   // non-retained (inference) cols
constexpr std::size_t kSlotColsT = 5;  // transposed cols for the dW GEMM

struct ValidRange {
  std::size_t lo, hi;  // valid output index range [lo, hi)
};

// Output positions o with 0 <= o*stride + k - pad < extent.
ValidRange valid_range(std::size_t out, std::size_t stride, std::size_t k,
                       std::size_t pad, std::size_t extent) {
  const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(k) -
                             static_cast<std::ptrdiff_t>(pad);
  const std::ptrdiff_t st = static_cast<std::ptrdiff_t>(stride);
  std::ptrdiff_t lo = 0;
  if (off < 0) lo = (-off + st - 1) / st;
  std::ptrdiff_t hi =
      (static_cast<std::ptrdiff_t>(extent) - off + st - 1) / st;
  lo = std::clamp<std::ptrdiff_t>(lo, 0, static_cast<std::ptrdiff_t>(out));
  hi = std::clamp<std::ptrdiff_t>(hi, lo, static_cast<std::ptrdiff_t>(out));
  return {static_cast<std::size_t>(lo), static_cast<std::size_t>(hi)};
}

/// 1x1, stride-1, unpadded convolution: im2col is the identity reshape, so
/// the tiled kind bypasses it entirely (see the layout note above).
bool pointwise(const ConvShape& s) {
  return s.kernel == 1 && s.stride == 1 && s.pad == 0;
}

/// Depthwise layers (one input and one output channel per group) convolve
/// the image planes directly in the tiled kind. The last clause guarantees
/// the per-channel patch matrix is at least as large as the image plane, so
/// the retained-input copy fits in the caller's cols buffer.
bool depthwise_direct(const ConvShape& s) {
  return s.group_in_c() == 1 && s.group_out_c() == 1 && s.kernel > 1 &&
         s.kernel * s.kernel * s.out_h() * s.out_w() >= s.in_h * s.in_w;
}

/// One depthwise output plane, accumulated straight from the shifted input
/// rows: the same per-element chain (patch rows ascending, zero-weight rows
/// skipped, padded taps contributing exact zeros, bias added last) as
/// im2col + the reference GEMM + the bias pass, so the result is
/// bit-identical to the reference kind.
HS_TILED_CLONES
void depthwise_forward_plane(const ConvShape& s,
                             const float* HS_RESTRICT chan,
                             const float* HS_RESTRICT wrow, const float* bias,
                             float* HS_RESTRICT dst) {
  const std::size_t oh = s.out_h(), ow = s.out_w();
  std::fill(dst, dst + oh * ow, 0.0f);
  std::size_t row = 0;
  for (std::size_t ky = 0; ky < s.kernel; ++ky) {
    const ValidRange ry = valid_range(oh, s.stride, ky, s.pad, s.in_h);
    for (std::size_t kx = 0; kx < s.kernel; ++kx, ++row) {
      const float wv = wrow[row];
      if (wv == 0.0f) continue;  // the reference GEMM's zero-skip
      const ValidRange rx = valid_range(ow, s.stride, kx, s.pad, s.in_w);
      const std::ptrdiff_t off_x = static_cast<std::ptrdiff_t>(kx) -
                                   static_cast<std::ptrdiff_t>(s.pad);
      for (std::size_t oy = ry.lo; oy < ry.hi; ++oy) {
        const std::size_t iy = oy * s.stride + ky - s.pad;
        const float* HS_RESTRICT srow = chan + iy * s.in_w;
        float* HS_RESTRICT orow = dst + oy * ow;
        if (s.stride == 1) {
          const float* HS_RESTRICT src =
              srow + static_cast<std::ptrdiff_t>(rx.lo) + off_x;
          const std::size_t len = rx.hi - rx.lo;
          for (std::size_t i = 0; i < len; ++i) {
            orow[rx.lo + i] += wv * src[i];
          }
        } else {
          const float* HS_RESTRICT src =
              srow + static_cast<std::ptrdiff_t>(rx.lo * s.stride) + off_x;
          float* HS_RESTRICT op = orow + rx.lo;
          const std::size_t st = s.stride, len = rx.hi - rx.lo;
          for (std::size_t i = 0; i < len; ++i) op[i] += wv * src[i * st];
        }
      }
    }
  }
  if (bias) {
    const float bv = *bias;
    for (std::size_t i = 0; i < oh * ow; ++i) dst[i] += bv;
  }
}

/// One depthwise plane of the backward pass. dX replays col2im's exact add
/// order (patch row outer, output pixel inner; zero-weight rows contribute
/// exact zeros and are skipped), so grad_in is bit-identical to the
/// reference kind. dW reduces each patch tap in four striped f32 lanes
/// summed at the end — the tiled weight-gradient reassociation.
HS_TILED_CLONES
void depthwise_backward_plane(const ConvShape& s, const float* HS_RESTRICT go,
                              const float* HS_RESTRICT chan,
                              const float* HS_RESTRICT wrow,
                              float* HS_RESTRICT gwrow,
                              float* HS_RESTRICT gin) {
  const std::size_t oh = s.out_h(), ow = s.out_w();
  std::size_t row = 0;
  for (std::size_t ky = 0; ky < s.kernel; ++ky) {
    const ValidRange ry = valid_range(oh, s.stride, ky, s.pad, s.in_h);
    for (std::size_t kx = 0; kx < s.kernel; ++kx, ++row) {
      const ValidRange rx = valid_range(ow, s.stride, kx, s.pad, s.in_w);
      const std::ptrdiff_t off_x = static_cast<std::ptrdiff_t>(kx) -
                                   static_cast<std::ptrdiff_t>(s.pad);
      const float wv = wrow[row];
      float lanes[4] = {0.0f};
      for (std::size_t oy = ry.lo; oy < ry.hi; ++oy) {
        const std::size_t iy = oy * s.stride + ky - s.pad;
        const float* HS_RESTRICT grow = go + oy * ow;
        const float* HS_RESTRICT srow = chan + iy * s.in_w;
        float* HS_RESTRICT drow = gin + iy * s.in_w;
        const std::size_t len = rx.hi - rx.lo;
        if (s.stride == 1) {
          const std::ptrdiff_t o =
              static_cast<std::ptrdiff_t>(rx.lo) + off_x;
          const float* HS_RESTRICT sp = srow + o;
          float* HS_RESTRICT dp = drow + o;
          const float* HS_RESTRICT gp = grow + rx.lo;
          std::size_t i = 0;
          for (; i + 4 <= len; i += 4) {
            for (std::size_t l = 0; l < 4; ++l) {
              lanes[l] += gp[i + l] * sp[i + l];
            }
          }
          for (; i < len; ++i) lanes[i & 3] += gp[i] * sp[i];
          if (wv != 0.0f) {
            for (std::size_t j = 0; j < len; ++j) dp[j] += wv * gp[j];
          }
        } else {
          const float* HS_RESTRICT sp =
              srow + static_cast<std::ptrdiff_t>(rx.lo * s.stride) + off_x;
          float* HS_RESTRICT dp =
              drow + static_cast<std::ptrdiff_t>(rx.lo * s.stride) + off_x;
          const float* HS_RESTRICT gp = grow + rx.lo;
          const std::size_t st = s.stride;
          std::size_t i = 0;
          for (; i + 4 <= len; i += 4) {
            for (std::size_t l = 0; l < 4; ++l) {
              lanes[l] += gp[i + l] * sp[(i + l) * st];
            }
          }
          for (; i < len; ++i) lanes[i & 3] += gp[i] * sp[i * st];
          if (wv != 0.0f) {
            for (std::size_t j = 0; j < len; ++j) dp[j * st] += wv * gp[j];
          }
        }
      }
      gwrow[row] += ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]));
    }
  }
}

// ------------------------------------------- fixed-shape depthwise planes --
//
// The depthwise layers of the paper models are tiny (4-16 px planes), so
// runtime-length inner loops spend more time on bookkeeping than on math.
// For the handful of (out_w, kernel, stride) combinations those models
// produce, the templates below compile fully unrolled tap loops with
// register accumulators over a zero-padded stack copy of the plane.
//
// Padding keeps this bit-identical to the reference chain: every tap is
// applied at full width, with halo taps contributing the same exact zeros
// the reference reads out of its patch matrix. Adding (or skipping) signed
// zeros cannot diverge either, because an accumulator that starts at +0
// and only ever adds terms can never become -0.
constexpr std::size_t kDwPadPlane = 18 * 18;  // largest padded plane (16+2)^2

template <std::size_t OW, std::size_t K, std::size_t ST>
inline void dw_fwd_body(const ConvShape& s, const float* HS_RESTRICT chan,
                        const float* HS_RESTRICT wrow, const float* bias,
                        float* HS_RESTRICT dst) {
  const std::size_t p = s.pad, ih = s.in_h, iw = s.in_w, oh = s.out_h();
  const std::size_t pw = iw + 2 * p, ph = ih + 2 * p;
  float xpad[kDwPadPlane];
  std::fill(xpad, xpad + ph * pw, 0.0f);
  for (std::size_t r = 0; r < ih; ++r) {
    std::copy(chan + r * iw, chan + (r + 1) * iw, xpad + (r + p) * pw + p);
  }
  for (std::size_t oy = 0; oy < oh; ++oy) {
    const float* HS_RESTRICT base = xpad + oy * ST * pw;
    float acc[OW] = {};
    for (std::size_t ky = 0; ky < K; ++ky) {
      const float* HS_RESTRICT r0 = base + ky * pw;
      for (std::size_t kx = 0; kx < K; ++kx) {
        const float wv = wrow[ky * K + kx];
        for (std::size_t l = 0; l < OW; ++l) acc[l] += wv * r0[l * ST + kx];
      }
    }
    float* HS_RESTRICT orow = dst + oy * OW;
    if (bias) {
      const float bv = *bias;
      for (std::size_t l = 0; l < OW; ++l) orow[l] = acc[l] + bv;
    } else {
      for (std::size_t l = 0; l < OW; ++l) orow[l] = acc[l];
    }
  }
}

template <std::size_t OW, std::size_t K, std::size_t ST>
inline void dw_bwd_body(const ConvShape& s, const float* HS_RESTRICT go,
                        const float* HS_RESTRICT chan,
                        const float* HS_RESTRICT wrow,
                        float* HS_RESTRICT gwrow, float* HS_RESTRICT gin) {
  const std::size_t p = s.pad, ih = s.in_h, iw = s.in_w, oh = s.out_h();
  const std::size_t pw = iw + 2 * p, ph = ih + 2 * p;
  float xpad[kDwPadPlane], gpad[kDwPadPlane];
  std::fill(xpad, xpad + ph * pw, 0.0f);
  std::fill(gpad, gpad + ph * pw, 0.0f);
  for (std::size_t r = 0; r < ih; ++r) {
    std::copy(chan + r * iw, chan + (r + 1) * iw, xpad + (r + p) * pw + p);
  }
  // Tap-major, like col2im, so the dX chains match the reference exactly;
  // dW reduces per-tap lane accumulators (the weight-gradient drift).
  for (std::size_t ky = 0; ky < K; ++ky) {
    for (std::size_t kx = 0; kx < K; ++kx) {
      const float wv = wrow[ky * K + kx];
      float lanes[OW] = {};
      for (std::size_t oy = 0; oy < oh; ++oy) {
        const float* HS_RESTRICT grow = go + oy * OW;
        const float* HS_RESTRICT xr = xpad + (oy * ST + ky) * pw + kx;
        float* HS_RESTRICT gr = gpad + (oy * ST + ky) * pw + kx;
        for (std::size_t l = 0; l < OW; ++l) {
          lanes[l] += grow[l] * xr[l * ST];
          gr[l * ST] += wv * grow[l];
        }
      }
      float tap = 0.0f;
      for (std::size_t l = 0; l < OW; ++l) tap += lanes[l];
      gwrow[ky * K + kx] += tap;
    }
  }
  // Drop the halo; the interior chains equal col2im's adds onto the
  // zero-initialized grad_in, so a straight copy preserves every bit.
  for (std::size_t r = 0; r < ih; ++r) {
    const float* HS_RESTRICT src = gpad + (r + p) * pw + p;
    float* HS_RESTRICT drow = gin + r * iw;
    for (std::size_t c = 0; c < iw; ++c) drow[c] = src[c];
  }
}

using DwFwdFn = void (*)(const ConvShape&, const float*, const float*,
                         const float*, float*);
using DwBwdFn = void (*)(const ConvShape&, const float*, const float*,
                         const float*, float*, float*);

#define HS_DW_FIXED(OW, K, ST)                                              \
  HS_TILED_CLONES void dw_fwd_##OW##_##K##_##ST(                            \
      const ConvShape& s, const float* chan, const float* wrow,             \
      const float* bias, float* dst) {                                      \
    dw_fwd_body<OW, K, ST>(s, chan, wrow, bias, dst);                       \
  }                                                                         \
  HS_TILED_CLONES void dw_bwd_##OW##_##K##_##ST(                            \
      const ConvShape& s, const float* go, const float* chan,               \
      const float* wrow, float* gwrow, float* gin) {                        \
    dw_bwd_body<OW, K, ST>(s, go, chan, wrow, gwrow, gin);                  \
  }

HS_DW_FIXED(16, 3, 1)
HS_DW_FIXED(8, 3, 1)
HS_DW_FIXED(8, 3, 2)
HS_DW_FIXED(4, 3, 1)
HS_DW_FIXED(4, 3, 2)
HS_DW_FIXED(4, 5, 2)

#undef HS_DW_FIXED

/// Fixed-shape plane kernels for the square depthwise geometries the paper
/// models use; nullptr when no specialization fits (the strided generic
/// planes handle everything else).
std::pair<DwFwdFn, DwBwdFn> dw_fixed(const ConvShape& s) {
  const std::size_t ow = s.out_w();
  if (s.out_h() != ow ||
      (s.in_h + 2 * s.pad) * (s.in_w + 2 * s.pad) > kDwPadPlane) {
    return {nullptr, nullptr};
  }
  if (s.kernel == 3 && s.stride == 1) {
    if (ow == 16) return {dw_fwd_16_3_1, dw_bwd_16_3_1};
    if (ow == 8) return {dw_fwd_8_3_1, dw_bwd_8_3_1};
    if (ow == 4) return {dw_fwd_4_3_1, dw_bwd_4_3_1};
  }
  if (s.kernel == 3 && s.stride == 2) {
    if (ow == 8) return {dw_fwd_8_3_2, dw_bwd_8_3_2};
    if (ow == 4) return {dw_fwd_4_3_2, dw_bwd_4_3_2};
  }
  if (s.kernel == 5 && s.stride == 2 && ow == 4) {
    return {dw_fwd_4_5_2, dw_bwd_4_5_2};
  }
  return {nullptr, nullptr};
}

void add_bias_channel_sums(const ConvShape& s, const float* grad_out,
                           float* gb) {
  const std::size_t ohow = s.out_h() * s.out_w();
  for (std::size_t smp = 0; smp < s.n; ++smp) {
    for (std::size_t c = 0; c < s.out_c; ++c) {
      const float* src = grad_out + ((smp * s.out_c) + c) * ohow;
      double acc = 0.0;
      for (std::size_t i = 0; i < ohow; ++i) acc += src[i];
      gb[c] += static_cast<float>(acc);
    }
  }
}

// Shared im2col/col2im bodies. The public entry points below compile on the
// baseline ISA (the reference kind uses them as the seed did); the tiled
// conv paths call the *_tiled twins, whose runtime-dispatched clones
// vectorize the same copies/adjoint scatters — pure data movement, so the
// results are identical whichever twin runs.
inline void im2col_impl(const float* img, const ConvShape& s, std::size_t c0,
                        float* dst, std::size_t ld, std::size_t col0) {
  const std::size_t oh = s.out_h(), ow = s.out_w();
  const std::size_t gic = s.group_in_c();
  std::size_t row = 0;
  for (std::size_t c = 0; c < gic; ++c) {
    const float* chan = img + (c0 + c) * s.in_h * s.in_w;
    for (std::size_t ky = 0; ky < s.kernel; ++ky) {
      const ValidRange ry = valid_range(oh, s.stride, ky, s.pad, s.in_h);
      for (std::size_t kx = 0; kx < s.kernel; ++kx, ++row) {
        const ValidRange rx = valid_range(ow, s.stride, kx, s.pad, s.in_w);
        const std::ptrdiff_t off_x = static_cast<std::ptrdiff_t>(kx) -
                                     static_cast<std::ptrdiff_t>(s.pad);
        float* out_row = dst + row * ld + col0;
        if (s.stride == 1 && s.in_w == ow && ry.lo < ry.hi) {
          // Same row stride on both sides (k = 2*pad + 1), so the valid
          // rows form one contiguous span in the image and in the patch
          // row alike: copy them in a single block, then zero the edge
          // columns the block brought along from neighbouring image rows.
          // Same values as the per-row path, ~one memcpy instead of oh.
          const std::size_t iy0 = ry.lo * s.stride + ky - s.pad;
          const float* src = chan + iy0 * s.in_w +
                             static_cast<std::ptrdiff_t>(rx.lo) + off_x;
          float* blk = out_row + ry.lo * ow + rx.lo;
          const std::size_t len =
              (ry.hi - ry.lo - 1) * ow + (rx.hi - rx.lo);
          std::copy(src, src + len, blk);
          std::fill(out_row, out_row + ry.lo * ow + rx.lo, 0.0f);
          std::fill(out_row + (ry.hi - 1) * ow + rx.hi, out_row + oh * ow,
                    0.0f);
          if (rx.lo > 0 || rx.hi < ow) {
            for (std::size_t oy = ry.lo; oy + 1 < ry.hi; ++oy) {
              float* edge = out_row + oy * ow + rx.hi;
              std::fill(edge, edge + (ow - (rx.hi - rx.lo)), 0.0f);
            }
          }
          continue;
        }
        for (std::size_t oy = 0; oy < oh; ++oy) {
          float* orow = out_row + oy * ow;
          if (oy < ry.lo || oy >= ry.hi) {
            std::fill(orow, orow + ow, 0.0f);
            continue;
          }
          const std::size_t iy = oy * s.stride + ky - s.pad;
          const float* srow = chan + iy * s.in_w;
          std::fill(orow, orow + rx.lo, 0.0f);
          if (s.stride == 1) {
            const float* src = srow + static_cast<std::ptrdiff_t>(rx.lo) +
                               off_x;
            std::copy(src, src + (rx.hi - rx.lo), orow + rx.lo);
          } else {
            for (std::size_t ox = rx.lo; ox < rx.hi; ++ox) {
              orow[ox] =
                  srow[static_cast<std::ptrdiff_t>(ox * s.stride) + off_x];
            }
          }
          std::fill(orow + rx.hi, orow + ow, 0.0f);
        }
      }
    }
  }
}

inline void col2im_impl(const float* src, const ConvShape& s, std::size_t c0,
                        std::size_t ld, std::size_t col0, float* img) {
  const std::size_t oh = s.out_h(), ow = s.out_w();
  const std::size_t gic = s.group_in_c();
  std::size_t row = 0;
  for (std::size_t c = 0; c < gic; ++c) {
    float* chan = img + (c0 + c) * s.in_h * s.in_w;
    for (std::size_t ky = 0; ky < s.kernel; ++ky) {
      const ValidRange ry = valid_range(oh, s.stride, ky, s.pad, s.in_h);
      for (std::size_t kx = 0; kx < s.kernel; ++kx, ++row) {
        const ValidRange rx = valid_range(ow, s.stride, kx, s.pad, s.in_w);
        const std::ptrdiff_t off_x = static_cast<std::ptrdiff_t>(kx) -
                                     static_cast<std::ptrdiff_t>(s.pad);
        const float* in_row = src + row * ld + col0;
        for (std::size_t oy = ry.lo; oy < ry.hi; ++oy) {
          const std::size_t iy = oy * s.stride + ky - s.pad;
          float* drow = chan + iy * s.in_w;
          const float* irow = in_row + oy * ow;
          for (std::size_t ox = rx.lo; ox < rx.hi; ++ox) {
            drow[static_cast<std::ptrdiff_t>(ox * s.stride) + off_x] +=
                irow[ox];
          }
        }
      }
    }
  }
}

HS_TILED_CLONES
void im2col_tiled(const float* img, const ConvShape& s, std::size_t c0,
                  float* dst, std::size_t ld, std::size_t col0) {
  im2col_impl(img, s, c0, dst, ld, col0);
}

HS_TILED_CLONES
void col2im_tiled_add(const float* src, const ConvShape& s, std::size_t c0,
                      std::size_t ld, std::size_t col0, float* img) {
  col2im_impl(src, s, c0, ld, col0, img);
}

}  // namespace

void im2col_strided(const float* img, const ConvShape& s, std::size_t c0,
                    float* dst, std::size_t ld, std::size_t col0) {
  im2col_impl(img, s, c0, dst, ld, col0);
}

void col2im_strided_add(const float* src, const ConvShape& s, std::size_t c0,
                        std::size_t ld, std::size_t col0, float* img) {
  col2im_impl(src, s, c0, ld, col0, img);
}

void conv2d_forward(KernelKind kind, const ConvShape& s, const float* x,
                    const float* w, const float* bias, float* y,
                    float* cols, Workspace& ws) {
  const std::size_t ohow = s.out_h() * s.out_w();
  const std::size_t gic = s.group_in_c(), goc = s.group_out_c();
  const std::size_t patch = s.patch();
  const std::size_t img_stride = s.in_c * s.in_h * s.in_w;
  // A caller-provided cols slab means a training forward: backward will
  // replay from it, so the direct (pointwise/depthwise) paths must retain
  // the input there. Eval forwards pass none — skip that copy entirely.
  const bool retain = cols != nullptr;
  if (!cols) cols = ws.get(kSlotCols, s.cols_size());

  if (kind == KernelKind::kReference) {
    // Seed path: one im2col + one GEMM per sample per group, with fresh
    // weight/output slabs per call — the parity and performance oracle.
    for (std::size_t smp = 0; smp < s.n; ++smp) {
      for (std::size_t grp = 0; grp < s.groups; ++grp) {
        float* cols_sg = cols + (smp * s.groups + grp) * patch * ohow;
        im2col_strided(x + smp * img_stride, s, grp * gic, cols_sg, ohow, 0);
        std::vector<float> wg(w + grp * goc * patch,
                              w + (grp + 1) * goc * patch);
        std::vector<float> out(goc * ohow);
        gemm_nn(kind, wg.data(), cols_sg, out.data(), goc, patch, ohow,
                false);
        std::copy(out.begin(), out.end(),
                  y + ((smp * s.out_c) + grp * goc) * ohow);
      }
      if (bias) {
        for (std::size_t c = 0; c < s.out_c; ++c) {
          float* dst = y + ((smp * s.out_c) + c) * ohow;
          for (std::size_t i = 0; i < ohow; ++i) dst[i] += bias[c];
        }
      }
    }
    return;
  }

  if (pointwise(s)) {
    // Retain the input verbatim for backward; run the GEMMs directly on
    // the x/y slabs (contiguous per sample per group), no gather/scatter.
    // Samples write disjoint y slabs, so the intra-op split over them is
    // bit-exact for any worker count.
    if (retain) std::copy(x, x + s.n * img_stride, cols);
    detail::intra_for(
        s.n, 2.0 * static_cast<double>(s.n) * s.out_c * gic * ohow,
        [&](std::size_t smp) {
          for (std::size_t grp = 0; grp < s.groups; ++grp) {
            gemm_nn(kind, w + grp * goc * gic,
                    x + smp * img_stride + grp * gic * ohow,
                    y + ((smp * s.out_c) + grp * goc) * ohow, goc, gic, ohow,
                    false);
          }
          if (bias) {
            for (std::size_t c = 0; c < s.out_c; ++c) {
              float* dst = y + ((smp * s.out_c) + c) * ohow;
              for (std::size_t i = 0; i < ohow; ++i) dst[i] += bias[c];
            }
          }
        });
    return;
  }

  if (depthwise_direct(s)) {
    // Retain the input verbatim (backward reads it for dW) and convolve
    // each plane directly — no patch matrix, no per-group GEMM setup.
    // Every (sample, channel) plane is independent.
    if (retain) std::copy(x, x + s.n * img_stride, cols);
    const std::size_t ihw = s.in_h * s.in_w;
    const DwFwdFn fixed = dw_fixed(s).first;
    const DwFwdFn plane = fixed ? fixed : depthwise_forward_plane;
    detail::intra_for(
        s.n * s.out_c,
        2.0 * static_cast<double>(s.n) * s.out_c * patch * ohow,
        [&](std::size_t t) {
          const std::size_t smp = t / s.out_c, c = t % s.out_c;
          plane(s, x + smp * img_stride + c * ihw, w + c * patch,
                bias ? bias + c : nullptr, y + ((smp * s.out_c) + c) * ohow);
        });
    return;
  }

  const std::size_t ld = s.n * ohow;
  for (std::size_t grp = 0; grp < s.groups; ++grp) {
    float* cols_g = cols + grp * patch * ld;
    // Samples own disjoint column ranges of the group's patch matrix.
    detail::intra_for(s.n, 2.0 * static_cast<double>(patch) * ld,
                      [&](std::size_t smp) {
                        im2col_tiled(x + smp * img_stride, s, grp * gic,
                                     cols_g, ld, smp * ohow);
                      });
    float* yt = ws.get(kSlotYt, goc * ld);
    gemm_nn(kind, w + grp * goc * patch, cols_g, yt, goc, patch, ld, false);
    // Scatter the (goc, n*oh*ow) result into (n, out_c, oh, ow) order,
    // fusing the bias add (same per-element arithmetic as the seed's
    // copy-then-add).
    for (std::size_t oc = 0; oc < goc; ++oc) {
      const std::size_t ch = grp * goc + oc;
      const float* src = yt + oc * ld;
      for (std::size_t smp = 0; smp < s.n; ++smp) {
        float* dst = y + ((smp * s.out_c) + ch) * ohow;
        const float* ssrc = src + smp * ohow;
        if (bias) {
          const float bv = bias[ch];
          for (std::size_t i = 0; i < ohow; ++i) dst[i] = ssrc[i] + bv;
        } else {
          std::copy(ssrc, ssrc + ohow, dst);
        }
      }
    }
  }
}

void conv2d_backward(KernelKind kind, const ConvShape& s,
                     const float* grad_out, const float* w, const float* cols,
                     float* gw, float* gb, float* grad_in, Workspace& ws) {
  const std::size_t ohow = s.out_h() * s.out_w();
  const std::size_t gic = s.group_in_c(), goc = s.group_out_c();
  const std::size_t patch = s.patch();
  const std::size_t img_stride = s.in_c * s.in_h * s.in_w;

  if (kind == KernelKind::kReference) {
    for (std::size_t smp = 0; smp < s.n; ++smp) {
      for (std::size_t grp = 0; grp < s.groups; ++grp) {
        const float* go =
            grad_out + ((smp * s.out_c) + grp * goc) * ohow;  // (goc, ohow)
        const float* cols_sg =
            cols + (smp * s.groups + grp) * patch * ohow;
        // dW_g += go * cols^T -> (goc, patch), via a fresh slab (seed
        // rounding: per-sample reduction, then one f32 add per sample).
        std::vector<float> dwg(goc * patch);
        gemm_nt(kind, go, cols_sg, dwg.data(), goc, ohow, patch, false);
        float* gws = gw + grp * goc * patch;
        for (std::size_t i = 0; i < goc * patch; ++i) gws[i] += dwg[i];
        // dCols = W_g^T * go -> (patch, ohow), folded straight into the
        // grad_in slab (bit-identical to folding into a zeroed scratch
        // image and adding it on).
        std::vector<float> wg(w + grp * goc * patch,
                              w + (grp + 1) * goc * patch);
        std::vector<float> dcols(patch * ohow);
        gemm_tn(kind, wg.data(), go, dcols.data(), goc, patch, ohow, false);
        col2im_strided_add(dcols.data(), s, grp * gic, ohow, 0,
                           grad_in + smp * img_stride);
      }
    }
    if (gb) add_bias_channel_sums(s, grad_out, gb);
    return;
  }

  if (pointwise(s)) {
    // cols holds the forward input verbatim. Per-sample GEMMs straight on
    // the slabs: dW reduces in f32 over a transposed input pack (the tiled
    // weight-gradient reassociation), and dX folds into the
    // zero-initialized grad_in (the 1x1 col2im is the identity add).
    for (std::size_t smp = 0; smp < s.n; ++smp) {
      for (std::size_t grp = 0; grp < s.groups; ++grp) {
        const float* go = grad_out + ((smp * s.out_c) + grp * goc) * ohow;
        const float* xs = cols + smp * img_stride + grp * gic * ohow;
        if (kind == KernelKind::kFast) {
          // The fast nt kernel packs its own B tiles, so the explicit
          // transpose below is pure overhead for it. Same ascending
          // reduction over oh*ow per element; FMA drift only.
          gemm_nt(kind, go, xs, gw + grp * goc * gic, goc, ohow, gic, true);
        } else {
          float* xt = ws.get(kSlotColsT, ohow * gic);
          transpose_to(xs, gic, ohow, xt);
          gemm_nn(kind, go, xt, gw + grp * goc * gic, goc, ohow, gic, true);
        }
        gemm_tn(kind, w + grp * goc * gic, go,
                grad_in + smp * img_stride + grp * gic * ohow, goc, gic,
                ohow, true);
      }
    }
    if (gb) add_bias_channel_sums(s, grad_out, gb);
    return;
  }

  if (depthwise_direct(s)) {
    // cols holds the forward input verbatim; one direct pass per plane.
    // Split over channels, not samples: each channel's dW taps accumulate
    // across the batch, so one task owns a channel and walks its samples in
    // ascending order — the same per-tap chain as the serial smp-outer
    // loop, which only interleaved independent channels differently.
    const std::size_t ihw = s.in_h * s.in_w;
    const DwBwdFn fixed = dw_fixed(s).second;
    const DwBwdFn plane = fixed ? fixed : depthwise_backward_plane;
    detail::intra_for(
        s.out_c, 4.0 * static_cast<double>(s.n) * s.out_c * patch * ohow,
        [&](std::size_t c) {
          for (std::size_t smp = 0; smp < s.n; ++smp) {
            plane(s, grad_out + ((smp * s.out_c) + c) * ohow,
                  cols + smp * img_stride + c * ihw, w + c * patch,
                  gw + c * patch, grad_in + smp * img_stride + c * ihw);
          }
        });
    if (gb) add_bias_channel_sums(s, grad_out, gb);
    return;
  }

  const std::size_t ld = s.n * ohow;
  for (std::size_t grp = 0; grp < s.groups; ++grp) {
    // Gather the group's gradient rows into batched (goc, n*oh*ow) order.
    float* go_b = ws.get(kSlotGo, goc * ld);
    for (std::size_t oc = 0; oc < goc; ++oc) {
      for (std::size_t smp = 0; smp < s.n; ++smp) {
        const float* src =
            grad_out + ((smp * s.out_c) + grp * goc + oc) * ohow;
        std::copy(src, src + ohow, go_b + oc * ld + smp * ohow);
      }
    }
    const float* cols_g = cols + grp * patch * ld;
    // dW_g += go_b · cols_g^T, computed as an f32 GEMM against the packed
    // transpose — one reduction over the whole batch per element, in
    // ascending column order (the tiled weight-gradient reassociation).
    // The fast nt kernel packs its own B tiles, so it takes cols_g
    // directly and the explicit transpose is skipped.
    if (kind == KernelKind::kFast) {
      gemm_nt(kind, go_b, cols_g, gw + grp * goc * patch, goc, ld, patch,
              true);
    } else {
      float* colst = ws.get(kSlotColsT, ld * patch);
      transpose_to(cols_g, patch, ld, colst);
      gemm_nn(kind, go_b, colst, gw + grp * goc * patch, goc, ld, patch,
              true);
    }
    // dCols = W_g^T · go_b, folded per sample straight into grad_in.
    float* dcols = ws.get(kSlotDcols, patch * ld);
    gemm_tn(kind, w + grp * goc * patch, go_b, dcols, goc, patch, ld, false);
    // Each sample folds its own column range into its own grad_in slab.
    detail::intra_for(s.n, 2.0 * static_cast<double>(patch) * ld,
                      [&](std::size_t smp) {
                        col2im_tiled_add(dcols, s, grp * gic, ld, smp * ohow,
                                         grad_in + smp * img_stride);
                      });
  }
  if (gb) add_bias_channel_sums(s, grad_out, gb);
}

}  // namespace hetero::kernels

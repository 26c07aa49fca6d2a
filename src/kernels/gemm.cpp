// GEMM kernels. The reference variants are the seed repository's scalar
// loops; the tiled variants block for cache and tile registers while
// reducing over k in increasing order with the same accumulation precision,
// which makes every tiled GEMM bit-identical to its reference twin for
// finite inputs (the parity suite asserts exact equality). The fast
// variants (gemm_fast.cpp) reuse the same blocking under FMA contraction.
//
// The public dispatch functions own the cache blocking: a tiled or fast
// GEMM walks regions along fixed row/column block boundaries, row blocks
// outer, and each region computes its outputs' full reduction chains.
#include "kernels/kernels.h"

#include <algorithm>

#include "kernels/internal.h"
#include "kernels/isa.h"

namespace hetero::kernels {

namespace {

// Cache-block sizes (floats). The j block keeps one B panel plus the active
// C rows streaming through L1/L2; the k block bounds the panel height.
constexpr std::size_t kJBlock = 1024;
constexpr std::size_t kKBlock = 256;

// ------------------------------------------------------------- reference --

void gemm_nn_reference(const float* a, const float* b, float* c,
                       std::size_t m, std::size_t k, std::size_t n) {
  // i-k-j loop order keeps the inner loop contiguous over B and C rows.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = a[i * k + kk];
      if (aik == 0.0f) continue;
      const float* brow = b + kk * n;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

void gemm_nt_reference(const float* a, const float* b, float* c,
                       std::size_t m, std::size_t k, std::size_t n,
                       bool accumulate) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      double s = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) s += arow[kk] * brow[kk];
      float* dst = c + i * n + j;
      if (accumulate) {
        *dst += static_cast<float>(s);
      } else {
        *dst = static_cast<float>(s);
      }
    }
  }
}

void gemm_tn_reference(const float* a, const float* b, float* c,
                       std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    const float* brow = b + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      float* crow = c + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// ----------------------------------------------------------------- tiled --

// C += A·B restricted to rows [i0, i0+ib) and the (k0, j0) block. Four
// independent C-row accumulators per pass share each B row; every C element
// still receives its k contributions in increasing order, in f32 — the same
// per-element arithmetic as the reference i-k-j loop.
HS_TILED_CLONES
void gemm_nn_block(const float* HS_RESTRICT a, const float* HS_RESTRICT b,
                   float* HS_RESTRICT c, std::size_t k, std::size_t n,
                   std::size_t i0, std::size_t ib, std::size_t k0,
                   std::size_t kb, std::size_t j0, std::size_t jb) {
  const std::size_t iend = i0 + ib;
  std::size_t i = i0;
  for (; i + 4 <= iend; i += 4) {
    float* HS_RESTRICT c0 = c + (i + 0) * n + j0;
    float* HS_RESTRICT c1 = c + (i + 1) * n + j0;
    float* HS_RESTRICT c2 = c + (i + 2) * n + j0;
    float* HS_RESTRICT c3 = c + (i + 3) * n + j0;
    for (std::size_t kk = k0; kk < k0 + kb; ++kk) {
      const float a0 = a[(i + 0) * k + kk];
      const float a1 = a[(i + 1) * k + kk];
      const float a2 = a[(i + 2) * k + kk];
      const float a3 = a[(i + 3) * k + kk];
      const float* HS_RESTRICT br = b + kk * n + j0;
      for (std::size_t j = 0; j < jb; ++j) {
        c0[j] += a0 * br[j];
        c1[j] += a1 * br[j];
        c2[j] += a2 * br[j];
        c3[j] += a3 * br[j];
      }
    }
  }
  for (; i < iend; ++i) {
    float* HS_RESTRICT crow = c + i * n + j0;
    for (std::size_t kk = k0; kk < k0 + kb; ++kk) {
      const float aik = a[i * k + kk];
      const float* HS_RESTRICT br = b + kk * n + j0;
      for (std::size_t j = 0; j < jb; ++j) crow[j] += aik * br[j];
    }
  }
}

// One cache-block region of the tiled nn GEMM: rows [i0, i0+ib), columns
// [j0, j0+jb), all of k (blocks ascend, so each C element reduces over k in
// increasing order).
void gemm_nn_tiled_region(const float* a, const float* b, float* c,
                          std::size_t k, std::size_t n, std::size_t i0,
                          std::size_t ib, std::size_t j0, std::size_t jb) {
  for (std::size_t k0 = 0; k0 < k; k0 += kKBlock) {
    const std::size_t kb = std::min(kKBlock, k - k0);
    gemm_nn_block(a, b, c, k, n, i0, ib, k0, kb, j0, jb);
  }
}

// Column-tile widths and row-chunk height of the nt kernel. A (kKBlock x
// JT) transposed B tile lives on the stack and is shared by a chunk of
// kNtMI A rows, so the inner loop reads both operands contiguously and the
// widening f64 adds vectorize across JT independent outputs. The wide
// 32-column tile keeps eight f64 vector accumulators in flight per row —
// enough independent add chains to hide the add latency that capped the
// old 8-column layout; 8 and scalar handle column remainders.
constexpr std::size_t kNtJT = 32;
constexpr std::size_t kNtJT2 = 8;
constexpr std::size_t kNtMI = 32;
constexpr std::size_t kNtJBlock = 512;

// One JT-wide column tile of the nt GEMM for rows [i0, i0+ib), ib <= kNtMI.
// Each output's f64 accumulator runs over k in increasing order (k blocks
// ascend, one accumulator per output held across blocks) — the reference
// per-element arithmetic, float product widened into a double sum.
template <std::size_t JT>
HS_ALWAYS_INLINE void nt_tile(const float* HS_RESTRICT a,
                    const float* HS_RESTRICT b,
                    float* HS_RESTRICT c, std::size_t k, std::size_t n,
                    std::size_t i0, std::size_t ib, std::size_t j,
                    bool accumulate) {
  float bt[kKBlock * JT];    // transposed B tile
  double acc[kNtMI * JT];    // per-(row, column) accumulators
  std::fill(acc, acc + ib * JT, 0.0);
  for (std::size_t k0 = 0; k0 < k; k0 += kKBlock) {
    const std::size_t kb = std::min(kKBlock, k - k0);
    for (std::size_t kk = 0; kk < kb; ++kk) {
      for (std::size_t jj = 0; jj < JT; ++jj) {
        bt[kk * JT + jj] = b[(j + jj) * k + k0 + kk];
      }
    }
    for (std::size_t ii = 0; ii < ib; ++ii) {
      const float* HS_RESTRICT arow = a + (i0 + ii) * k + k0;
      double* HS_RESTRICT srow = acc + ii * JT;
      for (std::size_t kk = 0; kk < kb; ++kk) {
        const float av = arow[kk];
        const float* HS_RESTRICT btr = bt + kk * JT;
        for (std::size_t jj = 0; jj < JT; ++jj) {
          srow[jj] += static_cast<double>(av * btr[jj]);
        }
      }
    }
  }
  for (std::size_t ii = 0; ii < ib; ++ii) {
    float* dst = c + (i0 + ii) * n + j;
    const double* srow = acc + ii * JT;
    if (accumulate) {
      for (std::size_t jj = 0; jj < JT; ++jj) {
        dst[jj] += static_cast<float>(srow[jj]);
      }
    } else {
      for (std::size_t jj = 0; jj < JT; ++jj) {
        dst[jj] = static_cast<float>(srow[jj]);
      }
    }
  }
}

// One cache-block region of the tiled nt GEMM: rows [i0, i0+ib)
// (ib <= kNtMI), columns [j0, j0+jb), cascading 32-wide -> 8-wide ->
// scalar column tiles.
// Tile-width boundaries depend only on the region bounds, and every path
// computes the identical per-element chain (f32 product, f64 sum over
// ascending k), so the cascade cannot change bits.
HS_TILED_CLONES
void gemm_nt_tiled_region(const float* HS_RESTRICT a,
                          const float* HS_RESTRICT b, float* HS_RESTRICT c,
                          std::size_t k, std::size_t n, std::size_t i0,
                          std::size_t ib, std::size_t j0, std::size_t jb,
                          bool accumulate) {
  const std::size_t jend = j0 + jb;
  std::size_t j = j0;
  for (; j + kNtJT <= jend; j += kNtJT) {
    nt_tile<kNtJT>(a, b, c, k, n, i0, ib, j, accumulate);
  }
  for (; j + kNtJT2 <= jend; j += kNtJT2) {
    nt_tile<kNtJT2>(a, b, c, k, n, i0, ib, j, accumulate);
  }
  for (; j < jend; ++j) {
    const float* HS_RESTRICT brow = b + j * k;
    for (std::size_t ii = 0; ii < ib; ++ii) {
      const float* HS_RESTRICT arow = a + (i0 + ii) * k;
      double s = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) s += arow[kk] * brow[kk];
      float* dst = c + (i0 + ii) * n + j;
      if (accumulate) {
        *dst += static_cast<float>(s);
      } else {
        *dst = static_cast<float>(s);
      }
    }
  }
}

// tn region granularity: panels of eight C rows (two four-row passes in
// gemm_tn_region_body) by j blocks sized to keep the active C rows in L1
// while B streams through.
constexpr std::size_t kTnPanel = 8;
constexpr std::size_t kTnJBlock = 512;

HS_TILED_CLONES
void gemm_tn_tiled_region(const float* a, const float* b, float* c,
                          std::size_t m, std::size_t k, std::size_t n,
                          std::size_t kk0, std::size_t kb, std::size_t j0,
                          std::size_t jb) {
  detail::gemm_tn_region_body(a, b, c, m, k, n, kk0, kb, j0, jb);
}

}  // namespace

void gemm_nn(KernelKind kind, const float* a, const float* b, float* c,
             std::size_t m, std::size_t k, std::size_t n, bool accumulate) {
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  if (kind == KernelKind::kReference) {
    gemm_nn_reference(a, b, c, m, k, n);
    return;
  }
  constexpr std::size_t kIChunk = 8;
  for (std::size_t i0 = 0; i0 < m; i0 += kIChunk) {
    const std::size_t ib = std::min(kIChunk, m - i0);
    for (std::size_t j0 = 0; j0 < n; j0 += kJBlock) {
      const std::size_t jb = std::min(kJBlock, n - j0);
      if (kind == KernelKind::kFast) {
        detail::gemm_nn_fast_region(a, b, c, m, k, n, i0, ib, j0, jb);
      } else {
        gemm_nn_tiled_region(a, b, c, k, n, i0, ib, j0, jb);
      }
    }
  }
}

void gemm_nt(KernelKind kind, const float* a, const float* b, float* c,
             std::size_t m, std::size_t k, std::size_t n, bool accumulate) {
  if (kind == KernelKind::kReference) {
    gemm_nt_reference(a, b, c, m, k, n, accumulate);
    return;
  }
  for (std::size_t i0 = 0; i0 < m; i0 += kNtMI) {
    const std::size_t ib = std::min(kNtMI, m - i0);
    for (std::size_t j0 = 0; j0 < n; j0 += kNtJBlock) {
      const std::size_t jb = std::min(kNtJBlock, n - j0);
      if (kind == KernelKind::kFast) {
        detail::gemm_nt_fast_region(a, b, c, m, k, n, i0, ib, j0, jb,
                                    accumulate);
      } else {
        gemm_nt_tiled_region(a, b, c, k, n, i0, ib, j0, jb, accumulate);
      }
    }
  }
}

void gemm_tn(KernelKind kind, const float* a, const float* b, float* c,
             std::size_t m, std::size_t k, std::size_t n, bool accumulate) {
  if (!accumulate) std::fill(c, c + k * n, 0.0f);
  if (kind == KernelKind::kReference) {
    gemm_tn_reference(a, b, c, m, k, n);
    return;
  }
  for (std::size_t kk0 = 0; kk0 < k; kk0 += kTnPanel) {
    const std::size_t kb = std::min(kTnPanel, k - kk0);
    for (std::size_t j0 = 0; j0 < n; j0 += kTnJBlock) {
      const std::size_t jb = std::min(kTnJBlock, n - j0);
      if (kind == KernelKind::kFast) {
        detail::gemm_tn_fast_region(a, b, c, m, k, n, kk0, kb, j0, jb);
      } else {
        gemm_tn_tiled_region(a, b, c, m, k, n, kk0, kb, j0, jb);
      }
    }
  }
}

}  // namespace hetero::kernels

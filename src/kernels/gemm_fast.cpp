// Fast-kind (HS_KERNEL=fast) GEMM regions. This translation unit compiles
// with -ffp-contract=fast and x86-64-v3 target clones, so mul+add chains
// fuse into FMAs: per-element reductions still ascend over k / m, but each
// contraction rounds once instead of twice — and the accumulators are f32
// where the tiled nt kernel uses f64 — so results carry a documented,
// parity-suite-bounded drift against tiled/reference (DESIGN.md §13).
//
// The hot loops are written with explicit 8-lane vector-extension types
// (v8f) instead of relying on the autovectorizer: GCC fully unrolls a
// constant-trip-8 column loop before vectorization, then vectorizes the
// surrounding reduction loop instead — outer-loop vectorization whose
// in-loop shuffle/horizontal-add storm ran ~9x slower than these explicit
// register tiles. Lane arithmetic is identical to the scalar loop (per-lane
// mul/add, contracted to FMA like everything else in this TU), so the
// vector form changes codegen, not results. On the "default" clone the
// 32-byte vectors lower to paired SSE ops — still correct, just narrower.
//
// Region boundaries are chosen by the public dispatch in gemm.cpp; each
// region owns a disjoint C sub-matrix and computes its outputs' full
// reduction chains.
#include <algorithm>

#include "kernels/internal.h"
#include "kernels/isa.h"

namespace hetero::kernels::detail {

namespace {

// ------------------------------------------------------------------- nn ----
// C(m x n) += A(m x k) · B(k x n). B rows are contiguous in j, so a column
// tile needs no packing: four A-row broadcasts and U row-tile loads feed
// 4*U independent FMA chains whose accumulators live in registers across
// the whole k loop (ascending k — the reference per-element order).

template <int U>
HS_ALWAYS_INLINE void nn_tile_v(const float* HS_RESTRICT a,
                                const float* HS_RESTRICT b,
                                float* HS_RESTRICT c, std::size_t k,
                                std::size_t n, std::size_t i0, std::size_t ib,
                                std::size_t j) {
  const std::size_t iend = i0 + ib;
  std::size_t i = i0;
  for (; i + 4 <= iend; i += 4) {
    v8f s0[U], s1[U], s2[U], s3[U];
    for (int u = 0; u < U; ++u) {
      s0[u] = vload<v8f>(c + (i + 0) * n + j + 8 * u);
      s1[u] = vload<v8f>(c + (i + 1) * n + j + 8 * u);
      s2[u] = vload<v8f>(c + (i + 2) * n + j + 8 * u);
      s3[u] = vload<v8f>(c + (i + 3) * n + j + 8 * u);
    }
    for (std::size_t kk = 0; kk < k; ++kk) {
      const v8f a0 = v8f{} + a[(i + 0) * k + kk];
      const v8f a1 = v8f{} + a[(i + 1) * k + kk];
      const v8f a2 = v8f{} + a[(i + 2) * k + kk];
      const v8f a3 = v8f{} + a[(i + 3) * k + kk];
      const float* HS_RESTRICT br = b + kk * n + j;
      for (int u = 0; u < U; ++u) {
        const v8f bv = vload<v8f>(br + 8 * u);
        s0[u] += a0 * bv;
        s1[u] += a1 * bv;
        s2[u] += a2 * bv;
        s3[u] += a3 * bv;
      }
    }
    for (int u = 0; u < U; ++u) {
      vstore(c + (i + 0) * n + j + 8 * u, s0[u]);
      vstore(c + (i + 1) * n + j + 8 * u, s1[u]);
      vstore(c + (i + 2) * n + j + 8 * u, s2[u]);
      vstore(c + (i + 3) * n + j + 8 * u, s3[u]);
    }
  }
  for (; i < iend; ++i) {
    v8f sr[U];
    for (int u = 0; u < U; ++u) sr[u] = vload<v8f>(c + i * n + j + 8 * u);
    for (std::size_t kk = 0; kk < k; ++kk) {
      const v8f av = v8f{} + a[i * k + kk];
      const float* HS_RESTRICT br = b + kk * n + j;
      for (int u = 0; u < U; ++u) sr[u] += av * vload<v8f>(br + 8 * u);
    }
    for (int u = 0; u < U; ++u) vstore(c + i * n + j + 8 * u, sr[u]);
  }
}

// Scalar column tail: four rows per pass for independent FMA chains.
HS_ALWAYS_INLINE void nn_col_scalar(const float* HS_RESTRICT a,
                                    const float* HS_RESTRICT b,
                                    float* HS_RESTRICT c, std::size_t k,
                                    std::size_t n, std::size_t i0,
                                    std::size_t ib, std::size_t j) {
  const std::size_t iend = i0 + ib;
  std::size_t i = i0;
  for (; i + 4 <= iend; i += 4) {
    float s0 = c[(i + 0) * n + j], s1 = c[(i + 1) * n + j];
    float s2 = c[(i + 2) * n + j], s3 = c[(i + 3) * n + j];
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float bv = b[kk * n + j];
      s0 += a[(i + 0) * k + kk] * bv;
      s1 += a[(i + 1) * k + kk] * bv;
      s2 += a[(i + 2) * k + kk] * bv;
      s3 += a[(i + 3) * k + kk] * bv;
    }
    c[(i + 0) * n + j] = s0;
    c[(i + 1) * n + j] = s1;
    c[(i + 2) * n + j] = s2;
    c[(i + 3) * n + j] = s3;
  }
  for (; i < iend; ++i) {
    float s = c[i * n + j];
    for (std::size_t kk = 0; kk < k; ++kk) s += a[i * k + kk] * b[kk * n + j];
    c[i * n + j] = s;
  }
}

// ------------------------------------------------------------------- nt ----
// C(m x n) ?= A(m x k) · B(n x k)^T. A kKBlock x JT transposed B tile on
// the stack turns the strided B columns into contiguous rows; per-(row,
// column) f32 accumulators persist across ascending k blocks.

constexpr std::size_t kKBlock = 256;
constexpr std::size_t kNtMI = 32;  // must match gemm.cpp's nt row chunk

template <int U>
HS_ALWAYS_INLINE void nt_fast_tile(const float* HS_RESTRICT a,
                                   const float* HS_RESTRICT b,
                                   float* HS_RESTRICT c, std::size_t k,
                                   std::size_t n, std::size_t i0,
                                   std::size_t ib, std::size_t j,
                                   bool accumulate) {
  constexpr int JT = 8 * U;
  float bt[kKBlock * JT];
  float acc[kNtMI * JT];
  std::fill(acc, acc + ib * JT, 0.0f);
  for (std::size_t k0 = 0; k0 < k; k0 += kKBlock) {
    const std::size_t kb = std::min(kKBlock, k - k0);
    for (std::size_t kk = 0; kk < kb; ++kk) {
      for (int jj = 0; jj < JT; ++jj) {
        bt[kk * JT + jj] = b[(j + jj) * k + k0 + kk];
      }
    }
    std::size_t ii = 0;
    for (; ii + 4 <= ib; ii += 4) {
      const float* HS_RESTRICT a0 = a + (i0 + ii + 0) * k + k0;
      const float* HS_RESTRICT a1 = a + (i0 + ii + 1) * k + k0;
      const float* HS_RESTRICT a2 = a + (i0 + ii + 2) * k + k0;
      const float* HS_RESTRICT a3 = a + (i0 + ii + 3) * k + k0;
      v8f s0[U], s1[U], s2[U], s3[U];
      for (int u = 0; u < U; ++u) {
        s0[u] = vload<v8f>(acc + (ii + 0) * JT + 8 * u);
        s1[u] = vload<v8f>(acc + (ii + 1) * JT + 8 * u);
        s2[u] = vload<v8f>(acc + (ii + 2) * JT + 8 * u);
        s3[u] = vload<v8f>(acc + (ii + 3) * JT + 8 * u);
      }
      for (std::size_t kk = 0; kk < kb; ++kk) {
        const float* HS_RESTRICT btr = bt + kk * JT;
        const v8f v0 = v8f{} + a0[kk];
        const v8f v1 = v8f{} + a1[kk];
        const v8f v2 = v8f{} + a2[kk];
        const v8f v3 = v8f{} + a3[kk];
        for (int u = 0; u < U; ++u) {
          const v8f bv = vload<v8f>(btr + 8 * u);
          s0[u] += v0 * bv;
          s1[u] += v1 * bv;
          s2[u] += v2 * bv;
          s3[u] += v3 * bv;
        }
      }
      for (int u = 0; u < U; ++u) {
        vstore(acc + (ii + 0) * JT + 8 * u, s0[u]);
        vstore(acc + (ii + 1) * JT + 8 * u, s1[u]);
        vstore(acc + (ii + 2) * JT + 8 * u, s2[u]);
        vstore(acc + (ii + 3) * JT + 8 * u, s3[u]);
      }
    }
    for (; ii < ib; ++ii) {
      const float* HS_RESTRICT arow = a + (i0 + ii) * k + k0;
      v8f sr[U];
      for (int u = 0; u < U; ++u) sr[u] = vload<v8f>(acc + ii * JT + 8 * u);
      for (std::size_t kk = 0; kk < kb; ++kk) {
        const v8f av = v8f{} + arow[kk];
        const float* HS_RESTRICT btr = bt + kk * JT;
        for (int u = 0; u < U; ++u) sr[u] += av * vload<v8f>(btr + 8 * u);
      }
      for (int u = 0; u < U; ++u) vstore(acc + ii * JT + 8 * u, sr[u]);
    }
  }
  for (std::size_t ii = 0; ii < ib; ++ii) {
    float* dst = c + (i0 + ii) * n + j;
    const float* srow = acc + ii * JT;
    if (accumulate) {
      for (int jj = 0; jj < JT; ++jj) dst[jj] += srow[jj];
    } else {
      for (int jj = 0; jj < JT; ++jj) dst[jj] = srow[jj];
    }
  }
}

// Narrow nt regions (few C rows) take a dot-product form instead: the
// transpose tile above amortizes its packing over the row block, and for
// row blocks this small the packing costs as much as the FMAs it feeds.
// In the nt layout both A rows and B rows are contiguous over k, so eight
// lanes of products accumulate straight from the streams and fold once at
// the end with a fixed-shape horizontal sum. This splits each reduction
// into eight interleaved chains — a reassociation inside the fast kind's
// documented drift budget (the parity suite covers this path), and still
// a pure function of the region, so thread count cannot change bits.

constexpr std::size_t kNtDotRows = 16;  // widest row block routed here

HS_ALWAYS_INLINE float hsum8(v8f v) {
  return ((v[0] + v[4]) + (v[1] + v[5])) + ((v[2] + v[6]) + (v[3] + v[7]));
}

HS_ALWAYS_INLINE void nt_dot_cols4(const float* HS_RESTRICT a,
                                   const float* HS_RESTRICT b,
                                   float* HS_RESTRICT c, std::size_t k,
                                   std::size_t n, std::size_t i0,
                                   std::size_t ib, std::size_t j,
                                   bool accumulate) {
  const float* HS_RESTRICT b0 = b + (j + 0) * k;
  const float* HS_RESTRICT b1 = b + (j + 1) * k;
  const float* HS_RESTRICT b2 = b + (j + 2) * k;
  const float* HS_RESTRICT b3 = b + (j + 3) * k;
  const std::size_t k8 = k & ~static_cast<std::size_t>(7);
  const std::size_t iend = i0 + ib;
  std::size_t i = i0;
  for (; i + 2 <= iend; i += 2) {
    const float* HS_RESTRICT a0 = a + (i + 0) * k;
    const float* HS_RESTRICT a1 = a + (i + 1) * k;
    v8f s00{}, s01{}, s02{}, s03{};
    v8f s10{}, s11{}, s12{}, s13{};
    for (std::size_t kk = 0; kk < k8; kk += 8) {
      const v8f av0 = vload<v8f>(a0 + kk);
      const v8f av1 = vload<v8f>(a1 + kk);
      const v8f bv0 = vload<v8f>(b0 + kk);
      s00 += av0 * bv0;
      s10 += av1 * bv0;
      const v8f bv1 = vload<v8f>(b1 + kk);
      s01 += av0 * bv1;
      s11 += av1 * bv1;
      const v8f bv2 = vload<v8f>(b2 + kk);
      s02 += av0 * bv2;
      s12 += av1 * bv2;
      const v8f bv3 = vload<v8f>(b3 + kk);
      s03 += av0 * bv3;
      s13 += av1 * bv3;
    }
    float r00 = hsum8(s00), r01 = hsum8(s01), r02 = hsum8(s02),
          r03 = hsum8(s03);
    float r10 = hsum8(s10), r11 = hsum8(s11), r12 = hsum8(s12),
          r13 = hsum8(s13);
    for (std::size_t kk = k8; kk < k; ++kk) {
      r00 += a0[kk] * b0[kk];
      r01 += a0[kk] * b1[kk];
      r02 += a0[kk] * b2[kk];
      r03 += a0[kk] * b3[kk];
      r10 += a1[kk] * b0[kk];
      r11 += a1[kk] * b1[kk];
      r12 += a1[kk] * b2[kk];
      r13 += a1[kk] * b3[kk];
    }
    float* d0 = c + (i + 0) * n + j;
    float* d1 = c + (i + 1) * n + j;
    if (accumulate) {
      d0[0] += r00;
      d0[1] += r01;
      d0[2] += r02;
      d0[3] += r03;
      d1[0] += r10;
      d1[1] += r11;
      d1[2] += r12;
      d1[3] += r13;
    } else {
      d0[0] = r00;
      d0[1] = r01;
      d0[2] = r02;
      d0[3] = r03;
      d1[0] = r10;
      d1[1] = r11;
      d1[2] = r12;
      d1[3] = r13;
    }
  }
  if (i < iend) {
    const float* HS_RESTRICT a0 = a + i * k;
    v8f s0{}, s1{}, s2{}, s3{};
    for (std::size_t kk = 0; kk < k8; kk += 8) {
      const v8f av = vload<v8f>(a0 + kk);
      s0 += av * vload<v8f>(b0 + kk);
      s1 += av * vload<v8f>(b1 + kk);
      s2 += av * vload<v8f>(b2 + kk);
      s3 += av * vload<v8f>(b3 + kk);
    }
    float r0 = hsum8(s0), r1 = hsum8(s1), r2 = hsum8(s2), r3 = hsum8(s3);
    for (std::size_t kk = k8; kk < k; ++kk) {
      r0 += a0[kk] * b0[kk];
      r1 += a0[kk] * b1[kk];
      r2 += a0[kk] * b2[kk];
      r3 += a0[kk] * b3[kk];
    }
    float* d = c + i * n + j;
    if (accumulate) {
      d[0] += r0;
      d[1] += r1;
      d[2] += r2;
      d[3] += r3;
    } else {
      d[0] = r0;
      d[1] = r1;
      d[2] = r2;
      d[3] = r3;
    }
  }
}

// Scalar column tail of the nt region: four dot products at a time so the
// reduction chains overlap.
HS_ALWAYS_INLINE void nt_col_scalar(const float* HS_RESTRICT a,
                                    const float* HS_RESTRICT b,
                                    float* HS_RESTRICT c, std::size_t k,
                                    std::size_t n, std::size_t i0,
                                    std::size_t ib, std::size_t j,
                                    bool accumulate) {
  const float* HS_RESTRICT brow = b + j * k;
  const std::size_t iend = i0 + ib;
  std::size_t i = i0;
  for (; i + 4 <= iend; i += 4) {
    float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
    const float* HS_RESTRICT a0 = a + (i + 0) * k;
    const float* HS_RESTRICT a1 = a + (i + 1) * k;
    const float* HS_RESTRICT a2 = a + (i + 2) * k;
    const float* HS_RESTRICT a3 = a + (i + 3) * k;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float bv = brow[kk];
      s0 += a0[kk] * bv;
      s1 += a1[kk] * bv;
      s2 += a2[kk] * bv;
      s3 += a3[kk] * bv;
    }
    float* dst = c + i * n + j;
    if (accumulate) {
      dst[0 * n] += s0;
      dst[1 * n] += s1;
      dst[2 * n] += s2;
      dst[3 * n] += s3;
    } else {
      dst[0 * n] = s0;
      dst[1 * n] = s1;
      dst[2 * n] = s2;
      dst[3 * n] = s3;
    }
  }
  for (; i < iend; ++i) {
    const float* HS_RESTRICT arow = a + i * k;
    float s = 0.0f;
    for (std::size_t kk = 0; kk < k; ++kk) s += arow[kk] * brow[kk];
    float* dst = c + i * n + j;
    if (accumulate) {
      *dst += s;
    } else {
      *dst = s;
    }
  }
}

// ------------------------------------------------------------------- tn ----
// C(k x n) += A(m x k)^T · B(m x n), reducing over m (ascending — the
// reference per-element order). Four C rows x U vectors of C columns stay
// in registers across the whole m loop; both A broadcasts and B row loads
// are contiguous enough that no packing is needed.

template <int U>
HS_ALWAYS_INLINE void tn_tile_v(const float* HS_RESTRICT a,
                                const float* HS_RESTRICT b,
                                float* HS_RESTRICT c, std::size_t m,
                                std::size_t k, std::size_t n, std::size_t kk0,
                                std::size_t kb, std::size_t j) {
  const std::size_t kend = kk0 + kb;
  std::size_t kk = kk0;
  for (; kk + 4 <= kend; kk += 4) {
    v8f s0[U], s1[U], s2[U], s3[U];
    for (int u = 0; u < U; ++u) {
      s0[u] = vload<v8f>(c + (kk + 0) * n + j + 8 * u);
      s1[u] = vload<v8f>(c + (kk + 1) * n + j + 8 * u);
      s2[u] = vload<v8f>(c + (kk + 2) * n + j + 8 * u);
      s3[u] = vload<v8f>(c + (kk + 3) * n + j + 8 * u);
    }
    for (std::size_t i = 0; i < m; ++i) {
      const float* HS_RESTRICT arow = a + i * k + kk;
      const v8f a0 = v8f{} + arow[0];
      const v8f a1 = v8f{} + arow[1];
      const v8f a2 = v8f{} + arow[2];
      const v8f a3 = v8f{} + arow[3];
      const float* HS_RESTRICT br = b + i * n + j;
      for (int u = 0; u < U; ++u) {
        const v8f bv = vload<v8f>(br + 8 * u);
        s0[u] += a0 * bv;
        s1[u] += a1 * bv;
        s2[u] += a2 * bv;
        s3[u] += a3 * bv;
      }
    }
    for (int u = 0; u < U; ++u) {
      vstore(c + (kk + 0) * n + j + 8 * u, s0[u]);
      vstore(c + (kk + 1) * n + j + 8 * u, s1[u]);
      vstore(c + (kk + 2) * n + j + 8 * u, s2[u]);
      vstore(c + (kk + 3) * n + j + 8 * u, s3[u]);
    }
  }
  for (; kk < kend; ++kk) {
    v8f sr[U];
    for (int u = 0; u < U; ++u) sr[u] = vload<v8f>(c + kk * n + j + 8 * u);
    for (std::size_t i = 0; i < m; ++i) {
      const v8f av = v8f{} + a[i * k + kk];
      const float* HS_RESTRICT br = b + i * n + j;
      for (int u = 0; u < U; ++u) sr[u] += av * vload<v8f>(br + 8 * u);
    }
    for (int u = 0; u < U; ++u) vstore(c + kk * n + j + 8 * u, sr[u]);
  }
}

// Scalar column tail of the tn region: four C rows at a time.
HS_ALWAYS_INLINE void tn_col_scalar(const float* HS_RESTRICT a,
                                    const float* HS_RESTRICT b,
                                    float* HS_RESTRICT c, std::size_t m,
                                    std::size_t k, std::size_t n,
                                    std::size_t kk0, std::size_t kb,
                                    std::size_t j) {
  const std::size_t kend = kk0 + kb;
  std::size_t kk = kk0;
  for (; kk + 4 <= kend; kk += 4) {
    float s0 = c[(kk + 0) * n + j], s1 = c[(kk + 1) * n + j];
    float s2 = c[(kk + 2) * n + j], s3 = c[(kk + 3) * n + j];
    for (std::size_t i = 0; i < m; ++i) {
      const float bv = b[i * n + j];
      const float* HS_RESTRICT arow = a + i * k + kk;
      s0 += arow[0] * bv;
      s1 += arow[1] * bv;
      s2 += arow[2] * bv;
      s3 += arow[3] * bv;
    }
    c[(kk + 0) * n + j] = s0;
    c[(kk + 1) * n + j] = s1;
    c[(kk + 2) * n + j] = s2;
    c[(kk + 3) * n + j] = s3;
  }
  for (; kk < kend; ++kk) {
    float s = c[kk * n + j];
    for (std::size_t i = 0; i < m; ++i) s += a[i * k + kk] * b[i * n + j];
    c[kk * n + j] = s;
  }
}

}  // namespace

HS_FAST_CLONES
void gemm_nn_fast_region(const float* a, const float* b, float* c,
                         std::size_t /*m*/, std::size_t k, std::size_t n,
                         std::size_t i0, std::size_t ib, std::size_t j0,
                         std::size_t jb) {
  const std::size_t jend = j0 + jb;
  std::size_t j = j0;
  for (; j + 16 <= jend; j += 16) nn_tile_v<2>(a, b, c, k, n, i0, ib, j);
  for (; j + 8 <= jend; j += 8) nn_tile_v<1>(a, b, c, k, n, i0, ib, j);
  for (; j < jend; ++j) nn_col_scalar(a, b, c, k, n, i0, ib, j);
}

HS_FAST_CLONES
void gemm_nt_fast_region(const float* a, const float* b, float* c,
                         std::size_t /*m*/, std::size_t k, std::size_t n,
                         std::size_t i0, std::size_t ib, std::size_t j0,
                         std::size_t jb, bool accumulate) {
  const std::size_t jend = j0 + jb;
  std::size_t j = j0;
  if (ib <= kNtDotRows) {
    for (; j + 4 <= jend; j += 4) {
      nt_dot_cols4(a, b, c, k, n, i0, ib, j, accumulate);
    }
    for (; j < jend; ++j) nt_col_scalar(a, b, c, k, n, i0, ib, j, accumulate);
    return;
  }
  for (; j + 16 <= jend; j += 16) {
    nt_fast_tile<2>(a, b, c, k, n, i0, ib, j, accumulate);
  }
  for (; j + 8 <= jend; j += 8) {
    nt_fast_tile<1>(a, b, c, k, n, i0, ib, j, accumulate);
  }
  for (; j < jend; ++j) nt_col_scalar(a, b, c, k, n, i0, ib, j, accumulate);
}

HS_FAST_CLONES
void gemm_tn_fast_region(const float* a, const float* b, float* c,
                         std::size_t m, std::size_t k, std::size_t n,
                         std::size_t kk0, std::size_t kb, std::size_t j0,
                         std::size_t jb) {
  const std::size_t jend = j0 + jb;
  std::size_t j = j0;
  for (; j + 16 <= jend; j += 16) tn_tile_v<2>(a, b, c, m, k, n, kk0, kb, j);
  for (; j + 8 <= jend; j += 8) tn_tile_v<1>(a, b, c, m, k, n, kk0, kb, j);
  for (; j < jend; ++j) tn_col_scalar(a, b, c, m, k, n, kk0, kb, j);
}

}  // namespace hetero::kernels::detail

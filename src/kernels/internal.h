// Cross-TU internals of the kernel layer: the fast-kind GEMM entry points
// (gemm_fast.cpp), the blocked transpose (defined in conv.cpp), and the
// vector types and plane-chain reductions the kernel TUs share. Not
// installed with the public kernels.h API.
#pragma once

#include <algorithm>
#include <cstddef>
#include <type_traits>

#include "kernels/isa.h"
#include "kernels/kernels.h"

namespace hetero::kernels::detail {

// ----------------------------------------------------- shared tn region ----

/// The gemm_tn inner structure: outer products reducing over m, four C rows
/// per pass sharing each streamed B row, restricted to C rows [kk0, kk0+kb)
/// and columns [j0, j0+jb). Four NAMED restrict pointers — not a pointer
/// array, and not more rows: restrict does not propagate through array
/// elements, and a wider pass pushes the vectorizer's runtime alias-check
/// count (one per write/write and write/read stream pair) past its limit,
/// silently de-vectorizing the j loop. Every C element accumulates in
/// increasing i, in f32 — the reference arithmetic — so the tiled
/// instantiation is bit-exact; the fast TU re-instantiates the same body
/// under FMA contraction.
HS_ALWAYS_INLINE void gemm_tn_region_body(const float* HS_RESTRICT a,
                                const float* HS_RESTRICT b,
                                float* HS_RESTRICT c, std::size_t m,
                                std::size_t k, std::size_t n, std::size_t kk0,
                                std::size_t kb, std::size_t j0,
                                std::size_t jb) {
  const std::size_t kend = kk0 + kb;
  std::size_t kk = kk0;
  for (; kk + 4 <= kend; kk += 4) {
    float* HS_RESTRICT c0 = c + (kk + 0) * n + j0;
    float* HS_RESTRICT c1 = c + (kk + 1) * n + j0;
    float* HS_RESTRICT c2 = c + (kk + 2) * n + j0;
    float* HS_RESTRICT c3 = c + (kk + 3) * n + j0;
    for (std::size_t i = 0; i < m; ++i) {
      const float* HS_RESTRICT arow = a + i * k + kk;
      const float a0 = arow[0], a1 = arow[1], a2 = arow[2], a3 = arow[3];
      const float* HS_RESTRICT br = b + i * n + j0;
      for (std::size_t j = 0; j < jb; ++j) {
        const float bv = br[j];
        c0[j] += a0 * bv;
        c1[j] += a1 * bv;
        c2[j] += a2 * bv;
        c3[j] += a3 * bv;
      }
    }
  }
  for (; kk < kend; ++kk) {
    float* HS_RESTRICT crow = c + kk * n + j0;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = a[i * k + kk];
      const float* HS_RESTRICT br = b + i * n + j0;
      for (std::size_t j = 0; j < jb; ++j) crow[j] += av * br[j];
    }
  }
}

// ------------------------------------------------------ fast-kind GEMMs ----
// Region forms matching the tiled region functions in gemm.cpp (C already
// zeroed by the public dispatch when not accumulating; per-element
// reductions ascend), compiled in the -ffp-contract=fast TU with
// x86-64-v3 clones. gemm_nt_fast_region accumulates in f32, not f64.

void gemm_nn_fast_region(const float* a, const float* b, float* c,
                         std::size_t m, std::size_t k, std::size_t n,
                         std::size_t i0, std::size_t ib, std::size_t j0,
                         std::size_t jb);
void gemm_nt_fast_region(const float* a, const float* b, float* c,
                         std::size_t m, std::size_t k, std::size_t n,
                         std::size_t i0, std::size_t ib, std::size_t j0,
                         std::size_t jb, bool accumulate);
void gemm_tn_fast_region(const float* a, const float* b, float* c,
                         std::size_t m, std::size_t k, std::size_t n,
                         std::size_t kk0, std::size_t kb, std::size_t j0,
                         std::size_t jb);

// --------------------------------------------------------- plane chains ----
// Sums of per-plane f64 chains (batch-norm statistics, bias and SE-gate
// gradients) are bound by add latency when one chain runs at a time. Here
// the chains of 4·G planes run as the lanes of G v4d vectors: four
// contiguous floats of each plane are loaded and transposed 4x4, so every
// lane still adds its plane's terms in ascending position, the scalar
// loop's order. Blocks of two groups (eight planes) keep enough
// independent adds in flight to hide the add latency; a remainder of four
// planes or fewer takes one group.

typedef float v4f __attribute__((vector_size(16)));
typedef float v8f __attribute__((vector_size(32)));
typedef double v4d __attribute__((vector_size(32)));

template <class V>
HS_ALWAYS_INLINE V vload(const float* p) {
  V v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

template <class V>
HS_ALWAYS_INLINE void vstore(float* p, V v) {
  __builtin_memcpy(p, &v, sizeof(v));
}

/// Four planes' values at positions i..i+3 (r[k] from plane k) as four
/// lane vectors: out[j] holds r[k][j] in lane k, widened to f64.
HS_ALWAYS_INLINE void transpose_lanes4(const v4f r[4], v4d out[4]) {
  const v4f lo01 = __builtin_shufflevector(r[0], r[1], 0, 4, 1, 5);
  const v4f hi01 = __builtin_shufflevector(r[0], r[1], 2, 6, 3, 7);
  const v4f lo23 = __builtin_shufflevector(r[2], r[3], 0, 4, 1, 5);
  const v4f hi23 = __builtin_shufflevector(r[2], r[3], 2, 6, 3, 7);
  out[0] = __builtin_convertvector(
      __builtin_shufflevector(lo01, lo23, 0, 1, 4, 5), v4d);
  out[1] = __builtin_convertvector(
      __builtin_shufflevector(lo01, lo23, 2, 3, 6, 7), v4d);
  out[2] = __builtin_convertvector(
      __builtin_shufflevector(hi01, hi23, 0, 1, 4, 5), v4d);
  out[3] = __builtin_convertvector(
      __builtin_shufflevector(hi01, hi23, 2, 3, 6, 7), v4d);
}

/// Position i of planes p[0..3] as one lane vector, in f64.
HS_ALWAYS_INLINE void lane_column(const float* const p[4], std::size_t i,
                                  v4d& out) {
  out = v4d{p[0][i], p[1][i], p[2][i], p[3][i]};
}

/// Calls block(first, std::integral_constant<std::size_t, G>{}) for the
/// lane blocks covering `total` planes: G = 2 (eight planes) while more
/// than four remain, then G = 1 for the last four or fewer.
template <class Block>
HS_ALWAYS_INLINE void chain_blocks(std::size_t total, Block block) {
  std::size_t first = 0;
  for (; first + 4 < total; first += 8) {
    block(first, std::integral_constant<std::size_t, 2>{});
  }
  if (first < total) block(first, std::integral_constant<std::size_t, 1>{});
}

/// Pointers to planes first..first+4G-1 of a tensor of `planes` contiguous
/// planes of `count` floats. Lanes past the last plane repeat it, so a
/// partial block reads only valid memory; callers drop those lanes.
template <std::size_t G>
HS_ALWAYS_INLINE void plane_block(const float* base, std::size_t first,
                                  std::size_t planes, std::size_t count,
                                  const float* out[4 * G]) {
  for (std::size_t k = 0; k < 4 * G; ++k) {
    out[k] = base + std::min(first + k, planes - 1) * count;
  }
}

/// Runs the chains of planes a[0..4G) and b[0..4G) over positions
/// 0..count-1 in ascending order: step(g, u, v) per position and group g,
/// u holding the element of plane a[4g + k] in lane k and v that of
/// b[4g + k]. A one-input chain passes its planes as both a and b; the
/// compiler merges the repeated loads.
template <std::size_t G, class Step>
HS_ALWAYS_INLINE void plane_chains(const float* const a[4 * G],
                                   const float* const b[4 * G],
                                   std::size_t count, Step step) {
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    v4d u[G][4], v[G][4];
    for (std::size_t g = 0; g < G; ++g) {
      const float* const* qa = a + 4 * g;
      const float* const* qb = b + 4 * g;
      const v4f ra[4] = {vload<v4f>(qa[0] + i), vload<v4f>(qa[1] + i),
                         vload<v4f>(qa[2] + i), vload<v4f>(qa[3] + i)};
      const v4f rb[4] = {vload<v4f>(qb[0] + i), vload<v4f>(qb[1] + i),
                         vload<v4f>(qb[2] + i), vload<v4f>(qb[3] + i)};
      transpose_lanes4(ra, u[g]);
      transpose_lanes4(rb, v[g]);
    }
    for (std::size_t j = 0; j < 4; ++j) {
      for (std::size_t g = 0; g < G; ++g) step(g, u[g][j], v[g][j]);
    }
  }
  for (; i < count; ++i) {
    for (std::size_t g = 0; g < G; ++g) {
      v4d u, v;
      lane_column(a + 4 * g, i, u);
      lane_column(b + 4 * g, i, v);
      step(g, u, v);
    }
  }
}

// ------------------------------------------------------------ transpose ----

/// Blocked transpose of a (rows, ld) matrix into (ld, rows) order. Defined
/// in conv.cpp (the dW packing).
void transpose_to(const float* src, std::size_t rows, std::size_t ld,
                  float* dst);

}  // namespace hetero::kernels::detail

// Cross-TU internals of the kernel layer: the fast-kind GEMM entry points
// (gemm_fast.cpp), the blocked transpose (defined in conv.cpp), and the
// intra-op task-grid helper. Not installed with the public kernels.h API.
#pragma once

#include <cstddef>
#include <functional>

#include "kernels/isa.h"
#include "kernels/kernels.h"

namespace hetero::kernels::detail {

// ------------------------------------------------------------ intra-op ----

/// Runs fn(t) for every task t in [0, tasks) — on the thread-local intra-op
/// context's workers when one is installed and the grid is worth splitting,
/// inline otherwise. Tasks must write disjoint outputs; because the grid
/// shape is fixed by the problem shape (never by the worker count), results
/// are bit-identical for any thread count (DESIGN.md §13).
template <typename Fn>
void intra_for(std::size_t tasks, double flops, Fn&& fn) {
  // Below ~1 MFLOP the fork/join overhead dominates any split.
  constexpr double kMinFlops = 1 << 20;
  const IntraOpContext& ctx = intra_op();
  if (ctx.run != nullptr && ctx.ways > 1 && tasks > 1 && flops >= kMinFlops) {
    ctx.run(tasks, std::function<void(std::size_t)>(std::forward<Fn>(fn)));
    return;
  }
  for (std::size_t t = 0; t < tasks; ++t) fn(t);
}

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

// ------------------------------------------------------------ transpose ----

/// Blocked transpose of a (rows, ld) matrix into (ld, rows) order. Defined
/// in conv.cpp (the dW packing).
void transpose_to(const float* src, std::size_t rows, std::size_t ld,
                  float* dst);

}  // namespace hetero::kernels::detail

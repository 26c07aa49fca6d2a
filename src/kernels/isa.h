// Internal ISA helpers shared by the tiled kernel translation units.
// kernels.h includes it only for HS_ALWAYS_INLINE on its h-sigmoid
// templates, which the vector loops instantiate.
#pragma once

#if defined(__GNUC__) || defined(__clang__)
#define HS_RESTRICT __restrict__
#else
#define HS_RESTRICT
#endif

#ifndef __has_attribute
#define __has_attribute(x) 0
#endif

// Helpers called from a target_clones function MUST be force-inlined into
// it: an out-of-line helper compiles for the default target only, so the
// wide clone would funnel its hot loops through baseline-ISA code. GCC
// honours always_inline across target boundaries when the callee has no
// target attribute of its own (the inlined body adopts the caller's ISA).
// A plain `inline` is not enough for a large helper (GCC may still emit it
// out of line), and a helper defined in another translation unit cannot
// inline at all: look those up in the caller and pass the result in.
// tools/check_clones.sh (a ctest) fails the build's tests when any wide
// clone calls or jumps into project code that is not itself a wide clone.
#if defined(__GNUC__) || defined(__clang__)
#define HS_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define HS_ALWAYS_INLINE inline
#endif

// Tiled kernels carry a runtime-dispatched AVX2 clone (GNU ifunc, picked by
// cpuid at load time). The clone list deliberately excludes "fma":
// vectorization only widens across independent output lanes and never
// reorders a per-element reduction chain, and without contraction the wide
// path computes bit-identical results to the baseline build — so the
// determinism contract holds on every CPU. Reference kernels stay on the
// baseline ISA: they are the seed loops, compiled as the seed compiled them.
#if defined(__x86_64__) && defined(__ELF__) &&            \
    __has_attribute(target_clones) &&                     \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define HS_TILED_CLONES __attribute__((target_clones("default", "avx2")))
// The fast kernels (HS_KERNEL=fast) are the opposite trade: their clone
// targets x86-64-v3 (AVX2 *and* FMA) and their translation unit compiles
// with -ffp-contract=fast, so mul+add chains fuse into FMAs. Fused
// contractions round once instead of twice, so fast results drift from the
// tiled/reference bits by a documented, parity-suite-bounded amount
// (DESIGN.md §13) — which is why they are a separate opt-in kind rather
// than a wider tiled clone.
#define HS_FAST_CLONES \
  __attribute__((target_clones("default", "arch=x86-64-v3")))
#else
#define HS_TILED_CLONES
#define HS_FAST_CLONES
#endif

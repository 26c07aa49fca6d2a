// Imaging-substrate fast-path dispatch and scratch arenas.
//
// The capture path (scene render -> sensor -> denoise -> demosaic -> WB ->
// gamut -> tone -> JPEG) ships two implementations of every hot per-pixel
// loop:
//   * reference - the seed scalar loops, kept verbatim as the oracle;
//   * fast      - plane/row-major passes over raw row pointers with AVX2
//                 target_clones dispatch and grow-only scratch arenas.
// Unlike HS_KERNEL=fast, the fast path here is *bit-exact by construction*:
// every per-pixel FP evaluation order is preserved (vectorization only
// widens across independent pixels, clones exclude FMA), so reference and
// fast outputs are byte-identical — asserted stage-by-stage across every
// Table-3 option and device profile by tests/test_isp_parity.cpp.
//
// Every run takes the fast path. set_active_path() switches the process to
// the reference loops for the parity tests and the micro benches that time
// one against the other; no knob does, since a switch could only slow a run.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hetero::img {

enum class PathKind {
  kReference,  ///< seed scalar loops (the parity oracle)
  kFast,       ///< row-major + target_clones passes, bit-exact (default)
};

/// Process-wide active path; kFast until set_active_path. Thread-safe.
PathKind active_path();
void set_active_path(PathKind kind);

/// True when the fast implementations should run.
inline bool fast_path() { return active_path() == PathKind::kFast; }

/// Thread-local scratch arena for the fast stages: returns a buffer of at
/// least `count` floats for `slot`, growing the backing store only when a
/// new geometry exceeds everything seen before — steady-state captures of a
/// fixed raw size perform no heap allocation inside the stages. Contents
/// are undefined on entry. Slots are per-thread, so stages running on
/// different workers never share a buffer.
float* scratch(std::size_t slot, std::size_t count);

/// Distinct scratch slot ids (one per fast-stage temporary family).
enum ScratchSlot : std::size_t {
  kSlotDemosaicA = 0,  // AHD horizontal candidate / binning half-res
  kSlotDemosaicB,      // AHD vertical candidate
  kSlotDenoise,        // FBDD border medians / wavelet planes
  kSlotQuantile,       // white-balance channel quantile copies
  kSlotTone,           // tone-equalization luminance plane
  kSlotJpegA,          // JPEG YCbCr planes
  kSlotJpegB,          // JPEG channel plane scratch
  kSlotResize,         // resize_bilinear per-column tables
  kSlotScene,          // scene/flair per-column coordinate tables
  kSlotCount
};

/// Process-wide count of arena (re)allocations; the parity/bench suites
/// assert it stays flat across warmed-up captures of one geometry.
std::uint64_t scratch_grow_count();

}  // namespace hetero::img

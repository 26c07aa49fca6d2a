#!/usr/bin/env bash
# Builds the tree with AddressSanitizer + UndefinedBehaviorSanitizer and
# runs the suites that feed untrusted input to the program.
#
# Usage: tools/check_asan.sh [extra ctest args]
#
# Uses a dedicated build directory (build-asan) so the regular build stays
# untouched. Three trust boundaries are the point, and ASan/UBSan turn any
# out-of-bounds read, overflow, or misaligned load that survives their
# checks into a hard failure instead of silent corruption:
#   * wire frames: the net suite feeds truncated, bit-flipped, and
#     random-garbage byte streams through the FrameParser and the protocol
#     decoders (the util/bytes.h codec);
#   * checkpoint files: the serialize suite flips every bit of a checkpoint,
#     truncates it at every length and forges its counts and tensor
#     volumes, all of which the CRC-checked, length-bounded reader (the same
#     codec) must reject;
#   * env and CLI specs: the faults, sched and stats suites hold the
#     HS_FAULTS, HS_SCHED and BenchConfig parser tests.
# The tensor tests ride along with the codecs, and the population tests
# with the checkpoint files they resume from. The kernel tests run every
# conv path with workspace slabs sized to what that path reads (the direct
# paths retain only the input), so a read past a trimmed slab is an ASan
# report; they also pin the batch-norm, bias and SE-gate vector loops,
# whose scalar tails and partial lane blocks run at odd plane sizes and
# channel counts. The nn layer and block suites drive the same loops
# through the layer API (fused BatchNorm2d, SEBlock, conv_bn_act units,
# gradient checks). The isp-parity tests put the fast ISP rewrites under
# the same watch: their pointer arithmetic over raw scratch arenas
# (geometry-keyed, grow-only) and the SoA block transposes with
# clamped-edge fallbacks are exactly the kind of code where an off-by-one
# survives functional tests.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-asan}

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DHETERO_SANITIZE=address,undefined
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target test_net test_serialize \
  test_faults test_sched test_stats test_population test_tensor \
  test_isp_parity test_kernels test_nn_layers test_nn_blocks

# halt_on_error fails the run on the first report; detect_leaks catches
# frames or datasets dropped on the quarantine paths.
ASAN_OPTIONS=${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1} \
UBSAN_OPTIONS=${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1} \
  ctest --test-dir "${BUILD_DIR}" \
  -R '^(test_net|test_serialize|test_faults|test_sched|test_stats|test_population|test_tensor|test_isp_parity|test_kernels|test_nn_layers|test_nn_blocks)$' \
  --output-on-failure "$@"

echo "ASan/UBSan check passed."

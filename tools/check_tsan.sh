#!/usr/bin/env bash
# Builds the tree with ThreadSanitizer and runs the parallel-runtime tests.
#
# Usage: tools/check_tsan.sh [extra ctest args]
#
# Uses a dedicated build directory (build-tsan) so the regular build stays
# untouched. The runtime tests exercise the ThreadPool and the event
# scheduler's parallel training batches, which is where any data race in
# the client fan-out would surface, and its evaluation fan-out: workers
# forward fixed 8-row slices of the device test sets on their own replicas
# and write per-slice logits the calling thread stacks afterwards. The
# kernel tests run tiled-kernel training steps across
# thread counts on top of them (isa.h compiles the ifunc clones out under
# TSan, so the baseline code paths are what gets checked). The fault tests
# add concurrent FaultPlan::decide calls and the fault-aware disposition
# pass to the raced surface. The sched tests run the event scheduler's
# lazy parallel training batches across thread counts, asserting
# bit-identical async/buffered results and one-client batches while TSan
# watches the fan-out. The population tests run multi-threaded simulations
# over VirtualPopulation, where worker threads materialize client datasets
# concurrently, each into its own slot, sharing only the provider's atomic
# counters — the provider's const-purity contract under watch. The
# isp-parity tests run the fast ISP rewrites against the reference
# loops (the clones compile out under TSan; the fast row-major loops and
# their scratch arenas are what gets checked). The
# fast-kernel tests add the HS_KERNEL=fast dispatch to the raced surface.
# The net tests run loopback daemon rounds, where the scheduler
# hands each wave to the root as its remote train step instead of its
# pool.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-tsan}

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DHETERO_SANITIZE=thread
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target test_runtime test_kernels test_kernels_fast test_faults test_sched test_population test_isp_parity test_net

# halt_on_error makes a race fail the run instead of just logging it.
TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1} \
  ctest --test-dir "${BUILD_DIR}" -R '^(test_runtime|test_kernels|test_kernels_fast|test_faults|test_sched|test_population|test_isp_parity|test_net)$' \
  --output-on-failure "$@"

echo "TSan check passed."

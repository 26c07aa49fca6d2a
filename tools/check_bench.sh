#!/usr/bin/env bash
# Bench regression gate: re-runs the end-to-end round bench and compares the
# per-mode round throughput against the committed BENCH_round_e2e.json
# baseline. A mode that lands more than TOLERANCE (default 10%) below its
# committed rounds_per_s fails the gate. Also re-runs the ISP microbench,
# whose own exit code enforces the fast ISP path's >= 3x paired-median contract
# on the full raw->RGB pipeline (bench/micro_isp.cpp).
#
# Usage: tools/check_bench.sh [tolerance-fraction]
#   tools/check_bench.sh          # 10% tolerance
#   tools/check_bench.sh 0.25     # sloppier box: allow 25%
#
# Environment:
#   BUILD_DIR   build tree holding bench/micro_round_e2e (default: build)
#   HS_E2E_MODES  modes to re-measure (default: tiled,fast — the two that
#                 matter for the fast>=1.3x contract; reference is slow, so
#                 it does not gate by default)
#
# The bench writes BENCH_round_e2e.json into its working directory, so we
# run it from a scratch dir and leave the committed baseline untouched.
# Throughput gates on a shared box are noisy (+-15% single-run swings have
# been observed here); the bench itself takes best-of-repeats per mode and
# gates fast-vs-tiled on a median of PAIRED per-rep ratios, which is far
# more stable than any absolute number this script compares. Treat a
# one-off failure here as "re-run", and a repeated failure as real.
set -euo pipefail

cd "$(dirname "$0")/.."
REPO_ROOT=$(pwd)

TOLERANCE=${1:-0.10}
BUILD_DIR=${BUILD_DIR:-build}
case "${BUILD_DIR}" in
  /*) BENCH="${BUILD_DIR}/bench/micro_round_e2e" ;;        # absolute (ctest)
  *)  BENCH="${REPO_ROOT}/${BUILD_DIR}/bench/micro_round_e2e" ;;
esac
BASELINE="${REPO_ROOT}/BENCH_round_e2e.json"

case "${BUILD_DIR}" in
  /*) ISP_BENCH="${BUILD_DIR}/bench/micro_isp" ;;
  *)  ISP_BENCH="${REPO_ROOT}/${BUILD_DIR}/bench/micro_isp" ;;
esac

if [[ ! -x "${BENCH}" ]]; then
  echo "check_bench: ${BENCH} not built; run: cmake --build ${BUILD_DIR} --target micro_round_e2e" >&2
  exit 2
fi
if [[ ! -x "${ISP_BENCH}" ]]; then
  echo "check_bench: ${ISP_BENCH} not built; run: cmake --build ${BUILD_DIR} --target micro_isp" >&2
  exit 2
fi
if [[ ! -f "${BASELINE}" ]]; then
  echo "check_bench: no committed baseline at ${BASELINE}" >&2
  exit 2
fi

SCRATCH=$(mktemp -d)
trap 'rm -rf "${SCRATCH}"' EXIT

# The bench's own exit code already enforces the fast>=1.3x paired-median
# contract whenever both tiled and fast are selected; a regression there
# fails before we even compare against the baseline.
(
  cd "${SCRATCH}"
  HS_E2E_MODES=${HS_E2E_MODES:-tiled,fast} HS_SEED=${HS_SEED:-1} "${BENCH}"
)

FRESH="${SCRATCH}/BENCH_round_e2e.json"

# Compare rounds_per_s per mode: fresh must be >= baseline * (1 - tolerance).
awk -v tol="${TOLERANCE}" '
  function field(line, key,   rest) {
    if (!match(line, "\"" key "\":\"?[^,}\"]*")) return ""
    rest = substr(line, RSTART, RLENGTH)
    sub("\"" key "\":\"?", "", rest)
    return rest
  }
  NR == FNR { base[field($0, "mode")] = field($0, "rounds_per_s") + 0; next }
  {
    mode = field($0, "mode")
    if (!(mode in base)) next   # mode not in baseline: nothing to gate
    fresh = field($0, "rounds_per_s") + 0
    floor = base[mode] * (1 - tol)
    verdict = (fresh >= floor) ? "ok  " : "FAIL"
    printf "[%s] %-10s fresh %7.3f r/s vs baseline %7.3f (floor %7.3f)\n", \
           verdict, mode, fresh, base[mode], floor
    if (fresh < floor) bad = 1
    seen = 1
  }
  END {
    if (!seen) { print "check_bench: no comparable modes in fresh run" > "/dev/stderr"; exit 2 }
    exit bad ? 1 : 0
  }
' "${BASELINE}" "${FRESH}"

# ISP vectorization gate: micro_isp exits nonzero if the fast ISP path drops
# below 3x reference on the full ISP pipeline (median of paired per-rep
# ratios, so box-speed noise cancels). No baseline-file comparison — the
# contract is the ratio itself.
(
  cd "${SCRATCH}"
  HS_SEED=${HS_SEED:-1} "${ISP_BENCH}"
)

echo "Bench regression gate passed (tolerance $(awk -v t="${TOLERANCE}" 'BEGIN{printf "%.0f", t*100}')%)."

#!/bin/sh
# Trace smoke test (wired into ctest): run one tiny bench with HS_TRACE set
# and validate the emitted JSONL with trace_check. A bench that exits
# nonzero (one of its own gates failed) fails the smoke as well.
#
#   run_trace_smoke.sh <bench-binary> <trace_check-binary> <work-dir>
set -eu

BENCH="$1"
CHECK="$2"
WORKDIR="$3"

mkdir -p "$WORKDIR"
TRACE="$WORKDIR/smoke_trace.jsonl"

# Two rounds keep the smoke fast; the bench sweeps several thread counts,
# so the trace exercises both the serial and the parallel training paths.
cd "$WORKDIR"
HS_TRACE="$TRACE" HS_ROUNDS=2 HS_SCALE=0 "$BENCH" > /dev/null

test -s "$TRACE" || { echo "run_trace_smoke: empty trace at $TRACE" >&2; exit 1; }
"$CHECK" "$TRACE"

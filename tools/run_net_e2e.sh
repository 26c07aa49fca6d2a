#!/usr/bin/env bash
# Daemon end-to-end test over real sockets on 127.0.0.1 (wired into ctest).
#
#   run_net_e2e.sh <hsctl-binary> <work-dir>
#
# (a) `hsctl serve --workers 2` with two `hsctl client` workers, faults on,
#     must print the same result block and `faults:` line as `hsctl fl`
#     with the same flags;
# (b) the same through two `hsctl edge` aggregators with one worker each,
#     against `hsctl fl --edges 2`;
# (c) a worker killed with SIGKILL mid-run must make serve exit nonzero
#     within 30 s, naming the lost worker.
# Every listener binds port 0 and the script reads the port it printed.
set -u

HSCTL="$1"
WORK="$2"
rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK" || exit 1

PIDS=()
cleanup() {
  for pid in "${PIDS[@]}"; do kill -9 "$pid" 2>/dev/null; done
}
trap cleanup EXIT

fail() {
  echo "run_net_e2e: $*" >&2
  exit 1
}

# Prints the port of the first line of $1 matching $2 ("... on HOST:PORT"),
# waiting up to 60 s for it.
wait_port() {
  for _ in $(seq 600); do
    local line
    line=$(grep -m1 "$2" "$1" 2>/dev/null)
    if [ -n "$line" ]; then
      echo "$line" | sed -E 's/^[^:]*:([0-9]+).*/\1/'
      return 0
    fi
    sleep 0.1
  done
  return 1
}

# The result block: the faults line through the final train loss.
result_block() { sed -n '/^faults:/,$p' "$1"; }

# Waits for every pid given; fails naming $1 if any exits nonzero.
wait_ok() {
  local what=$1
  shift
  for pid in "$@"; do wait "$pid" || fail "$what: a process exited nonzero"; done
}

FLAGS=(--method fedavg --rounds 6 --clients 12 --per-round 4 --seed 5
       --faults drop=0.2,corrupt=0.1)

# (a) flat: serve + two workers.
"$HSCTL" fl "${FLAGS[@]}" > a_fl.out || fail "(a) hsctl fl failed"
grep -q '^faults:' a_fl.out || fail "(a) hsctl fl printed no faults line"
"$HSCTL" serve --port 0 --workers 2 "${FLAGS[@]}" > a_serve.out 2> a_serve.err &
SERVE=$!
PIDS+=("$SERVE")
PORT=$(wait_port a_serve.out "^serving on") || fail "(a) serve never listened"
CLIENTS=()
for i in 0 1; do
  "$HSCTL" client --connect "127.0.0.1:$PORT" --index "$i" "${FLAGS[@]}" \
    > "a_client$i.out" 2>&1 &
  CLIENTS+=("$!")
done
PIDS+=("${CLIENTS[@]}")
wait_ok "(a) serve" "$SERVE"
wait_ok "(a) client" "${CLIENTS[@]}"
diff <(result_block a_fl.out) <(result_block a_serve.out) ||
  fail "(a) serve's result differs from hsctl fl"

# (b) edge tree: serve + two edges with one worker each.
"$HSCTL" fl "${FLAGS[@]}" --edges 2 > b_fl.out || fail "(b) hsctl fl failed"
"$HSCTL" serve --port 0 --edges 2 "${FLAGS[@]}" > b_serve.out 2> b_serve.err &
SERVE=$!
PIDS+=("$SERVE")
PORT=$(wait_port b_serve.out "^serving on") || fail "(b) serve never listened"
NODES=()
for e in 0 1; do
  "$HSCTL" edge --connect "127.0.0.1:$PORT" --port 0 --index "$e" \
    --workers 1 "${FLAGS[@]}" > "b_edge$e.out" 2>&1 &
  NODES+=("$!")
  PIDS+=("$!")
  EPORT=$(wait_port "b_edge$e.out" "^edge $e on") ||
    fail "(b) edge $e never listened"
  "$HSCTL" client --connect "127.0.0.1:$EPORT" --index 0 "${FLAGS[@]}" \
    > "b_client$e.out" 2>&1 &
  NODES+=("$!")
  PIDS+=("$!")
done
wait_ok "(b) serve" "$SERVE"
wait_ok "(b) edge or client" "${NODES[@]}"
diff <(result_block b_fl.out) <(result_block b_serve.out) ||
  fail "(b) serve's edge-tree result differs from hsctl fl --edges 2"

# (c) a worker killed mid-run.
FLAGS_C=(--method fedavg --rounds 100000 --clients 12 --per-round 4 --seed 5)
"$HSCTL" serve --port 0 --workers 2 "${FLAGS_C[@]}" > c_serve.out 2> c_serve.err &
SERVE=$!
PIDS+=("$SERVE")
PORT=$(wait_port c_serve.out "^serving on") || fail "(c) serve never listened"
CLIENTS=()
for i in 0 1; do
  "$HSCTL" client --connect "127.0.0.1:$PORT" --index "$i" "${FLAGS_C[@]}" \
    > "c_client$i.out" 2>&1 &
  CLIENTS+=("$!")
done
PIDS+=("${CLIENTS[@]}")
wait_port c_serve.out "^  round 0 " > /dev/null || fail "(c) no progress line"
kill -9 "${CLIENTS[1]}"
for _ in $(seq 300); do
  kill -0 "$SERVE" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$SERVE" 2>/dev/null && fail "(c) serve still running 30 s after losing a worker"
wait "$SERVE" && fail "(c) serve exited 0 after losing a worker"
grep -q "lost worker 1" c_serve.err || fail "(c) serve did not name the lost worker"

echo "run_net_e2e: ok"

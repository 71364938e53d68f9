#!/usr/bin/env bash
# Live loopback smoke: start bftbcd clusters on 127.0.0.1, run
# bftbc_bench against them over real UDP, and validate the emitted bench
# JSON. This is the end-to-end proof that the simulator's protocol state
# machines also run deployed — CI runs it as the live-smoke job, and it
# works identically by hand:
#
#   scripts/run_live_smoke.sh [build_dir] [out.json]
#
# Two legs:
#   1. single shard — 4 replicas (f=1) from bench/cluster_localhost.json
#   2. two shards   — 8 replicas (two f=1 groups) from
#      bench/cluster_localhost_2shard.json, driven through the bench's
#      routing client with a zipfian read/write mix; artifact lands next
#      to out.json with a `_2shard` suffix.
#
# Exit 0 iff both benches completed and their artifacts pass
# scripts/check_bench_json.py.
set -u

BUILD_DIR="${1:-build}"
OUT_JSON="${2:-BENCH_live_smoke.json}"
OUT_JSON_2SHARD="${OUT_JSON%.json}_2shard.json"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
CONFIG="$REPO_ROOT/bench/cluster_localhost.json"
CONFIG_2SHARD="$REPO_ROOT/bench/cluster_localhost_2shard.json"
BFTBCD="$BUILD_DIR/tools/bftbcd"
BENCH="$BUILD_DIR/tools/bftbc_bench"

if [[ ! -x "$BFTBCD" || ! -x "$BENCH" ]]; then
  echo "run_live_smoke: build $BFTBCD and $BENCH first" >&2
  exit 2
fi

PIDS=()
LOG_DIRS=()
# Runs on every exit, after any failure path has printed its logs: stops
# the daemons, then removes the legs' log directories.
cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null
  done
  wait 2>/dev/null
  for dir in "${LOG_DIRS[@]:-}"; do
    [[ -n "$dir" ]] && rm -rf "$dir"
  done
}
trap cleanup EXIT

stop_daemons() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null
  done
  wait 2>/dev/null
  PIDS=()
}

# wait_ready <log_dir> <count>: each daemon prints a "listening on" line
# once bound.
wait_ready() {
  local log_dir="$1" want="$2" ready=0
  for _ in $(seq 1 50); do
    ready=$(grep -l "listening on" "$log_dir"/replica*.log 2>/dev/null | wc -l)
    [[ "$ready" -eq "$want" ]] && return 0
    sleep 0.1
  done
  echo "run_live_smoke: replicas failed to start; logs:" >&2
  cat "$log_dir"/replica*.log >&2
  return 1
}

# ---------------------------------------------------------- leg 1: 1 shard
LOG_DIR="$(mktemp -d)"
LOG_DIRS+=("$LOG_DIR")
for r in 0 1 2 3; do
  "$BFTBCD" --config "$CONFIG" --replica "$r" \
    >"$LOG_DIR/replica$r.log" 2>&1 &
  PIDS+=($!)
done
wait_ready "$LOG_DIR" 4 || exit 1

"$BENCH" --config "$CONFIG" --smoke --json "$OUT_JSON"
status=$?
if [[ $status -ne 0 ]]; then
  echo "run_live_smoke: bench failed (exit $status); replica logs:" >&2
  tail -n 20 "$LOG_DIR"/replica*.log >&2
  exit 1
fi
stop_daemons

# --------------------------------------------------------- leg 2: 2 shards
# Each shard is an independent f=1 group with its own keystore seed; the
# bench routes per key through shard::RoutingClient. The zipfian mixed
# workload exercises the cross-shard window and both groups' read paths.
LOG_DIR2="$(mktemp -d)"
LOG_DIRS+=("$LOG_DIR2")
for s in 0 1; do
  for r in 0 1 2 3; do
    "$BFTBCD" --config "$CONFIG_2SHARD" --shard "$s" --replica "$r" \
      >"$LOG_DIR2/replica_s${s}_r${r}.log" 2>&1 &
    PIDS+=($!)
  done
done
wait_ready "$LOG_DIR2" 8 || exit 1

"$BENCH" --config "$CONFIG_2SHARD" --smoke --json "$OUT_JSON_2SHARD" \
  --key-dist zipfian --theta 0.9 --read-fraction 0.2
status=$?
if [[ $status -ne 0 ]]; then
  echo "run_live_smoke: 2-shard bench failed (exit $status); logs:" >&2
  tail -n 20 "$LOG_DIR2"/replica*.log >&2
  exit 1
fi
stop_daemons

python3 "$REPO_ROOT/scripts/check_bench_json.py" "$OUT_JSON" \
  "$OUT_JSON_2SHARD"

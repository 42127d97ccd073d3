#!/usr/bin/env bash
# Golden-output regression gate.
#
# Every paper bench is deterministic (simulated cycles, seeded RNG), so its
# stdout must reproduce bench/golden/<bench>.txt byte-for-byte. Any drift —
# an intended recalibration or an accidental perturbation of the event
# schedule — fails this gate and must be reviewed; refresh the goldens
# explicitly once the new numbers are understood:
#
#   bench/check_golden.sh             # verify; exit 1 on any byte difference
#   bench/check_golden.sh --update    # rewrite goldens from a fresh run
#
# BUILD_DIR selects the build tree (default: build). Binaries must already be
# built; this script never compiles.
#
# Each RUNS entry is "<golden>:<bench> [args...]": the golden file
# bench/golden/<golden>.txt pins the stdout of `<bench> [args...]`. A bare
# bench name is shorthand for "<bench>:<bench>" (no arguments). The faulted
# runs (directed kills, chaos seeds) are pinned this way so a change to the
# retry, recovery or re-steer code cannot drift unseen.
#
# THREADS=<n> appends --threads=<n> to every bench invocation. The goldens
# are recorded at one host thread; re-running the gate with THREADS=4 proves
# the parallel engine's promise that host thread count never changes a
# schedule (sim/parallel.h). Goldens are never updated at THREADS != 1.
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
GOLDEN_DIR=bench/golden
THREADS="${THREADS:-1}"
extra_args=()
if [[ "$THREADS" != "1" ]]; then
  extra_args+=("--threads=$THREADS")
fi

RUNS=(
  table1_lrpc
  table2_urpc
  table3_ipc
  table4_loopback
  fig3_shm_vs_msg
  fig6_shootdown
  fig7_unmap
  fig8_twopc
  fig9_compute
  sync_scaling
  sec54_netperf
  sec54_webserver
  sec54_scaleout
  sec54_failover
  store_readwrite
  rack_serving
  polling_model
  ablation_urpc
  conn_scale
  "sec54_failover.quick-kill:sec54_failover --quick --kill"
  "sec54_failover.quick-kill-db:sec54_failover --quick --kill-db"
  "sec54_failover.quick-chaos-seed-1:sec54_failover --quick --chaos-seed=1"
  "store_readwrite.quick-kill-leader:store_readwrite --quick --kill-leader"
  "store_readwrite.quick-chaos-seed-3:store_readwrite --quick --chaos-seed=3"
  "rack_serving.quick-kill:rack_serving --quick --kill"
  "rack_serving.quick-chaos-seed-7:rack_serving --quick --chaos-seed=7"
)

update=0
if [[ "${1:-}" == "--update" ]]; then
  update=1
  mkdir -p "$GOLDEN_DIR"
fi

fail=0
for run in "${RUNS[@]}"; do
  if [[ "$run" == *:* ]]; then
    g="${run%%:*}"
    read -r -a cmd <<< "${run#*:}"
  else
    g="$run"
    cmd=("$run")
  fi
  bin="$BUILD_DIR/bench/${cmd[0]}"
  args=("${cmd[@]:1}")
  if [[ ! -x "$bin" ]]; then
    echo "check_golden: missing binary $bin (build first)" >&2
    exit 2
  fi
  if [[ $update == 1 ]]; then
    if [[ "$THREADS" != "1" ]]; then
      echo "check_golden: refusing --update with THREADS=$THREADS (goldens are recorded at 1 thread)" >&2
      exit 2
    fi
    "$bin" ${args[@]+"${args[@]}"} > "$GOLDEN_DIR/$g.txt"
    echo "updated: $g"
    continue
  fi
  if [[ ! -f "$GOLDEN_DIR/$g.txt" ]]; then
    echo "GOLDEN MISSING: $GOLDEN_DIR/$g.txt (run with --update)" >&2
    fail=1
    continue
  fi
  if diff -u "$GOLDEN_DIR/$g.txt" \
      <("$bin" ${args[@]+"${args[@]}"} ${extra_args[@]+"${extra_args[@]}"}) > /tmp/golden_diff_$g; then
    echo "ok: $g"
  else
    echo "GOLDEN MISMATCH: $g" >&2
    cat /tmp/golden_diff_$g >&2
    fail=1
  fi
done

if [[ $fail != 0 ]]; then
  echo "check_golden: FAILED — output drifted from bench/golden/" >&2
fi
exit $fail

#!/usr/bin/env bash
# Record the structured BENCH_*.json perf trajectories.
#
# Builds the JSON-capable benches (Release) and rewrites
#   bench/BENCH_topology_balance.json  (balancer sweep + grid orientations)
#   bench/BENCH_fig4_repack.json       (forced + automatic re-packing)
#   bench/BENCH_payoff_window.json     (payoff acceptance vs. cadence)
#   bench/BENCH_elastic.json           (elastic shrink/expand thresholds)
#   bench/BENCH_fleet.json             (fleet arbiter vs static equal-split)
#   bench/BENCH_trace_overhead.json    (telemetry observer-effect gate)
#   bench/BENCH_fault.json             (MTBF x checkpoint-cadence sweep)
#   bench/BENCH_micro_comm.json        (per-op comm volume, both transports)
#   bench/BENCH_scale.json             (decision-path work counters, 1k-16k)
#   bench/BENCH_fig3_<use_case>.json   (the six Figure-3 panels)
# with the current aggregates.  All bench arithmetic is deterministic
# (fixed seeds, analytic cost models), so the recorded numbers are
# machine-independent and diffs in the JSON are real behavior changes —
# commit the files alongside the change that moved them.  See
# docs/BENCHMARKS.md for the schemas.
#
# Usage: bench/record_bench.sh [--only <name>]... [build-dir]
#   --only <name>   re-record just BENCH_<name>.json (repeatable);
#                   default records every bench below.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHES=(
  topology_balance
  fig4_repack
  payoff_window
  elastic
  fleet
  trace_overhead
  fault
  micro_comm
  scale
  fig3_early_exit
  fig3_freezing
  fig3_mod
  fig3_moe
  fig3_pruning
  fig3_sparse_attn
)

BUILD_DIR=build
ONLY=()
while [ $# -gt 0 ]; do
  case "$1" in
    --only)
      [ $# -ge 2 ] || { echo "--only needs a bench name" >&2; exit 2; }
      ONLY+=("$2")
      shift 2
      ;;
    *)
      BUILD_DIR=$1
      shift
      ;;
  esac
done
if [ ${#ONLY[@]} -gt 0 ]; then
  for o in "${ONLY[@]}"; do
    ok=0
    for b in "${BENCHES[@]}"; do [ "$b" = "$o" ] && ok=1; done
    [ $ok -eq 1 ] || { echo "unknown bench '$o' (known: ${BENCHES[*]})" >&2; exit 2; }
  done
  BENCHES=("${ONLY[@]}")
fi

cmake -B "$BUILD_DIR" -S . -DDYNMO_BUILD_BENCH=ON >/dev/null
for b in "${BENCHES[@]}"; do
  cmake --build "$BUILD_DIR" --target "bench_$b" -j >/dev/null
done
for b in "${BENCHES[@]}"; do
  "$BUILD_DIR/bench_$b" --json "bench/BENCH_$b.json"
done

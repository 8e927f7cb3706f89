#!/usr/bin/env bash
# Non-test coverage audit of libdynmo.
#
# Builds an instrumented copy of the library (-O1 --coverage) with the
# benches, examples and tools but without the unit tests, plus perfbench
# against its own instrumented copy of the library.  Then it runs a fixed
# driver set:
#
#   - every example (dynmo_sim with examples/dynmo_sim.cfg and a Chrome
#     trace);
#   - every golden_trace_gen scenario, on both decision paths and both
#     transports;
#   - every bench_* with --smoke where a bench has it.  The two Google
#     Benchmark harnesses are never built, so the set of instrumented
#     objects does not depend on whether the host has the package;
#   - perfbench's four workloads at --trace 0 and --trace 1.
#
# Finally tools/non_test_coverage.py merges `gcov --json-format` per
# function across both library builds, prints the counts of never-run
# lines and functions under src/ and lists each never-run function.  It
# exits 1 on a never-run function that tools/non_test_coverage.allow does
# not list, and on an allow-list entry that no longer exists or now runs.
#
# The allow-list keys are g++ demangled names, and the set of functions a
# compiler instruments can shift between major versions: the list was made
# with g++ 12, so run the audit with CXX=g++-12 where that is not the
# default compiler.
#
# Usage: tools/non_test_coverage.sh [BUILD_DIR]   (default: build-coverage)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build-coverage}"
mkdir -p "$BUILD"
BUILD="$(cd "$BUILD" && pwd)"
# The build trees below are wiped first; BUILD_DIR/perfbench must not be
# the perfbench sources.
[ "$BUILD" != "$ROOT" ] || { echo "BUILD_DIR must not be the source root"; exit 2; }
JOBS="$(nproc 2>/dev/null || echo 2)"
[ "$JOBS" -gt 4 ] && JOBS=4

FLAGS=(-DCMAKE_BUILD_TYPE=None "-DCMAKE_CXX_FLAGS=-O1 --coverage"
       -DCMAKE_EXE_LINKER_FLAGS=--coverage)

# Run a build step quietly; show its log only when it fails.
quiet() {
    "$@" >"$BUILD/build.log" 2>&1 || { tail -40 "$BUILD/build.log"; exit 2; }
}

# Fresh build trees, so the instrumented objects (and the counters) are
# exactly those of this configuration: no leftover target, .gcno or .gcda
# from an earlier configure or run.
rm -rf "$BUILD/main" "$BUILD/perfbench"

echo "== build (instrumented, no unit tests)"
quiet cmake -S "$ROOT" -B "$BUILD/main" "${FLAGS[@]}" -DDYNMO_BUILD_TESTS=OFF \
    -DDYNMO_BUILD_BENCH=ON -DDYNMO_BUILD_EXAMPLES=ON \
    -DCMAKE_DISABLE_FIND_PACKAGE_benchmark=ON
quiet cmake --build "$BUILD/main" -j "$JOBS"
quiet cmake -S "$ROOT/perfbench" -B "$BUILD/perfbench" "${FLAGS[@]}"
quiet cmake --build "$BUILD/perfbench" --target perfbench -j "$JOBS"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
BIN="$BUILD/main"
failed=0

drive() {
    local t0=$SECONDS
    if ! "$@" >"$TMP/out.log" 2>&1; then
        echo "   warning: exited non-zero: $*"
        tail -3 "$TMP/out.log" | sed 's/^/      /'
        failed=$((failed + 1))
    fi
    printf '   %4ds  %s\n' $((SECONDS - t0)) "${*#$BUILD/}"
}

echo "== examples"
for exe in "$BIN"/example_*; do
    case "$(basename "$exe")" in
        example_dynmo_sim)
            drive "$exe" --config "$ROOT/examples/dynmo_sim.cfg" \
                --trace "$TMP/chrome.json" ;;
        example_trace_replay) drive "$exe" "$TMP/trace_replay" ;;
        *) drive "$exe" ;;
    esac
done

echo "== golden scenarios"
for s in session large_grid session_elastic session_repack; do
    for p in incremental rescan; do
        drive "$BIN/golden_trace_gen" --scenario "$s" --decision-path "$p" \
            --out "$TMP/golden_${s}_$p"
    done
done
for t in inproc socket; do
    drive "$BIN/golden_trace_gen" --scenario threaded_fault --transport "$t" \
        --out "$TMP/golden_fault_$t"
done

echo "== benches"
for exe in "$BIN"/bench_*; do
    name="$(basename "$exe")"
    case "$name" in
        bench_micro_comm) drive "$exe" --transport both ;;
        bench_elastic | bench_fault | bench_payoff_window | bench_trace_overhead)
            drive "$exe" --smoke --trace-dir "$TMP/$name" ;;
        bench_fleet | bench_scale) drive "$exe" --smoke ;;
        *) drive "$exe" ;;
    esac
done

echo "== perfbench"
for w in moe_routing deep_diffusion deep_partition_faults threaded_migrate; do
    for trace in 0 1; do
        drive "$BUILD/perfbench/perfbench" --workload "$w" --seed 1 \
            --seconds 1 --trace "$trace"
    done
done
[ "$failed" -eq 0 ] || echo "   $failed driver(s) exited non-zero (coverage still counted)"

echo "== report"
python3 "$ROOT/tools/non_test_coverage.py" "$BUILD"

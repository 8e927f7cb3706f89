#!/usr/bin/env bash
# Golden-trace CI gate (docs/TRANSPORT.md "Golden-trace gate").
#
# Replays the canonical deterministic scenarios with golden_trace_gen and
# byte-compares every telemetry table against the committed goldens in
# tests/golden/:
#
#   session         -- modeled 8-stage session; pins the trace format.
#                      Transport-independent (no comm::World behind it).
#                      Replayed with the incremental decision path forced
#                      ON and OFF -- both must match the one golden.
#   large_grid      -- 2x32 DP*PP grid on 8 DGX-H100 nodes, diffusion
#                      every frame; the canonical scenario for the
#                      incremental cost surfaces.  Also replayed under
#                      both decision paths: identical bytes here are the
#                      session-level proof that incremental caching
#                      changes no decision (docs/COST_MODEL.md
#                      "Incremental recomputation").
#   session_elastic -- every checkpoint-coordinated restart trigger in one
#                      run: worker loss, request_shrink() preemption,
#                      elastic shrink/expand (accepted and payoff-rejected),
#                      straggler window, periodic checkpoints.
#   session_repack  -- throughput-preserving re-packing under a payoff
#                      window: one accepted pack (post-pack polish), two
#                      payoff-rejected ones.  Both session_* scenarios are
#                      replayed under both decision paths like session.
#   threaded_fault  -- heartbeat-detected worker-loss recovery; replayed on
#                      BOTH transport backends.  The same bytes must come
#                      out of inproc and socket: this is the proof that the
#                      transport never leaks into the math (checksums.txt)
#                      or the telemetry (JSONL tables, declared-measured
#                      columns aside).
#
# Every .jsonl table and checksums.txt must match byte-for-byte, except
# the columns the golden's catalog declares "deterministic": false (the
# threaded runtime's wall-clock measurements): those are blanked on both
# sides first.  The gate names no column itself.  The catalog.json is
# compared modulo its two machine-dependent metadata lines ("transport",
# "machine") -- trace_writer emits each on its own line for exactly this
# reason.  Any other drift fails the gate with exit 1.
#
# Usage: tools/check_golden_trace.sh [BUILD_DIR]   (default: build)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
GEN="$BUILD/golden_trace_gen"
GOLD="$ROOT/tests/golden"

if [ ! -x "$GEN" ]; then
    echo "error: $GEN not built (cmake --build $BUILD --target golden_trace_gen)" >&2
    exit 2
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
fail=0

# catalog.json minus the per-machine / per-backend metadata lines.
strip_catalog() {
    grep -vE '^    "(transport|machine)": ' "$1"
}

# blank CATALOG FILE: FILE with each column CATALOG declares
# "deterministic": false for FILE's table set to _.
blank() {
    python3 - "$1" "$2" <<'PY'
import json, os, re, sys
catalog, path = sys.argv[1:]
cols = [c["name"] for t in json.load(open(catalog))["tables"]
        if t["file"] == os.path.basename(path)
        for c in t["columns"] if c.get("deterministic") is False]
for line in open(path):
    for c in cols:
        line = re.sub(f'"{c}":[^,}}]*', f'"{c}":_', line)
    sys.stdout.write(line)
PY
}

# compare_dir GOLDEN_DIR REPLAY_DIR LABEL
compare_dir() {
    local gold="$1" replay="$2" label="$3" base
    # Same file set on both sides: a table appearing or vanishing is drift
    # just as much as a row changing.
    if ! diff <(cd "$gold" && ls) <(cd "$replay" && ls) >/dev/null; then
        echo "DRIFT[$label]: file set differs from golden:"
        diff <(cd "$gold" && ls) <(cd "$replay" && ls) | sed 's/^/    /'
        fail=1
    fi
    for f in "$gold"/*; do
        base="$(basename "$f")"
        [ -f "$replay/$base" ] || continue
        if [ "$base" = catalog.json ]; then
            if ! diff <(strip_catalog "$f") <(strip_catalog "$replay/$base") >/dev/null; then
                echo "DRIFT[$label]: catalog.json differs beyond transport/machine:"
                { diff <(strip_catalog "$f") <(strip_catalog "$replay/$base") || true; } | head -8 | sed 's/^/    /'
                fail=1
            fi
        elif ! cmp -s <(blank "$gold/catalog.json" "$f") \
                      <(blank "$gold/catalog.json" "$replay/$base"); then
            echo "DRIFT[$label]: $base differs from golden:"
            { diff <(blank "$gold/catalog.json" "$f") \
                   <(blank "$gold/catalog.json" "$replay/$base") || true; } |
                head -6 | sed 's/^/    /'
            fail=1
        fi
    done
}

# Both decision paths must reproduce the same committed golden: the
# incremental cost surface may change no decision, bottleneck, priced
# cost, or telemetry byte relative to the full-rescan reference.
for s in session large_grid session_elastic session_repack; do
    for p in incremental rescan; do
        mkdir "$TMP/${s}_$p"
        "$GEN" --scenario "$s" --out "$TMP/${s}_$p" --decision-path "$p" >/dev/null
        compare_dir "$GOLD/$s" "$TMP/${s}_$p" "$s/$p"
    done
done

for t in inproc socket; do
    mkdir "$TMP/fault_$t"
    # golden_trace_gen itself exits 2 if the recovery checksums diverge
    # from the fault-free twin, so a passing replay already proves the
    # bit-identical-recovery contract on this backend.
    "$GEN" --scenario threaded_fault --out "$TMP/fault_$t" --transport "$t" >/dev/null
    compare_dir "$GOLD/threaded_fault" "$TMP/fault_$t" "threaded_fault/$t"
done

if [ "$fail" -ne 0 ]; then
    echo "golden-trace gate: DRIFT (see above; if intentional, regenerate" \
         "tests/golden/ with golden_trace_gen and commit)"
    exit 1
fi
echo "golden-trace gate: OK (session, large_grid, session_elastic and" \
     "session_repack on both decision paths," \
     "threaded_fault on inproc and socket)"

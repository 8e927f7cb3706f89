#!/usr/bin/env python3
"""Wall-clock benchmark of the DynMo simulator itself.

Run from the repository root:

    python3 perfbench/run.py --workload moe_routing --seed 1 --seconds 10 --trace 0

Builds perfbench/ and the `dynmo` library it times in Release mode under
.bench_build/perfbench, runs one workload in its own process, and prints
every metric by name with its unit.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics of a traced
run with --trace 1.  BENCHMARK.json names the metrics; perfbench/README.md
explains them.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("moe_routing", "deep_diffusion", "deep_partition_faults",
             "threaded_migrate")
TIMING_BUILD_TYPES = ("Release", "RelWithDebInfo")
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Run a build step; its output goes to stderr only when it fails."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"{' '.join(cmd)} exited with code {proc.returncode}")


def cmake_cache(path):
    entries = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            m = re.match(r"^([A-Za-z0-9_]+):[A-Z]+=(.*)$", line.rstrip("\n"))
            if m:
                entries[m.group(1)] = m.group(2)
    return entries


def build():
    cache_path = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache_path):
        run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    run_logged(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                "-j", str(os.cpu_count() or 1)], timeout=840)
    # Refuse to time a build that is not optimized or uses sanitizers (the
    # binary checks its own compile macros too).
    cache = cmake_cache(cache_path)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    if build_type not in TIMING_BUILD_TYPES:
        fail(f"refusing to time a '{build_type}' build; "
             f"use one of {', '.join(TIMING_BUILD_TYPES)}")
    flags = " ".join(cache.get(k, "") for k in (
        "CMAKE_CXX_FLAGS", f"CMAKE_CXX_FLAGS_{build_type.upper()}",
        "CMAKE_EXE_LINKER_FLAGS"))
    if "-fsanitize" in flags or re.search(r"(^|\s)-O0(\s|$)", flags):
        fail(f"refusing to time a build with flags '{flags.strip()}'")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        fail("--seed must be in [0, 2^64)")
    if not 0 < args.seconds <= 600:
        fail("--seconds must be in (0, 600]")

    expected = expected_metrics(args.trace)
    build()
    proc = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=args.seconds + 150)
    lines = proc.stdout.splitlines()
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"{args.workload} exited with code {proc.returncode}")

    result = json.loads(lines[-1])
    if tuple(result) != RESULT_KEYS:
        fail(f"result keys {list(result)} are not {list(RESULT_KEYS)}")
    if list(result["metrics"]) != expected:
        fail(f"metrics {list(result['metrics'])} differ from BENCHMARK.json's "
             f"{expected}")
    if result["attempted"] < 1:
        fail("no op was attempted")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Merge the gcov counters of a non-test coverage run and gate on them.

    python3 tools/non_test_coverage.py BUILD_DIR

BUILD_DIR is what tools/non_test_coverage.sh built and ran: every
instrumented object under it (both library builds, benches, examples,
tools, perfbench) is read with the `gcov --json-format` of the compiler
that built it (g++-12 -> gcov-12).  Counters are merged per source line
and per function (by demangled name, so each template instantiation and
overload stays its own entry) over every object that compiled it.  Only
sources under src/ are reported; every never-run function is listed with
its never-run line count.

Exit status 1 when a never-run function is missing from
tools/non_test_coverage.allow, or when an allow-list entry names a
function that no longer exists or now runs.  Each allow-list line is

    <file> <demangled function> — <reason>
"""
import argparse
import concurrent.futures
import gzip
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src") + os.sep
ALLOW = os.path.join(ROOT, "tools", "non_test_coverage.allow")
SEP = " — "


def gcov_for(build):
    """The gcov that reads the .gcno files of BUILD_DIR's compiler."""
    with open(os.path.join(build, "main", "CMakeCache.txt"),
              encoding="utf-8") as f:
        for line in f:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                cxx = os.path.realpath(line.split("=", 1)[1].strip())
                gcov = os.path.join(os.path.dirname(cxx),
                                    os.path.basename(cxx).replace("g++",
                                                                  "gcov"))
                if gcov != cxx and os.path.exists(gcov):
                    return gcov
    return "gcov"


def gcov_json(gcov, obj):
    """gcov's JSON report for one object file (x.cpp.o -> x.cpp.gcda)."""
    proc = subprocess.run(
        [gcov, "--json-format", "--stdout", "--demangled-names", obj],
        cwd=os.path.dirname(obj), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, check=True)
    out = proc.stdout
    if out[:2] == b"\x1f\x8b":
        out = gzip.decompress(out)
    return [json.loads(doc) for doc in out.decode().splitlines() if doc]


def objects(build):
    for dirpath, _, files in os.walk(build):
        for f in files:
            if f.endswith(".gcno"):
                yield os.path.join(dirpath, f[:-len(".gcno")] + ".o")


def merge(gcov, build):
    lines = {}   # (file, line) -> count
    funcs = {}   # (file, name) -> [count, start, end]
    objs = sorted(objects(build))
    if not objs:
        sys.exit(f"non_test_coverage: no instrumented objects under {build}")
    with concurrent.futures.ThreadPoolExecutor(4) as pool:
        for docs in pool.map(lambda obj: gcov_json(gcov, obj), objs):
            for doc in docs:
                for f in doc["files"]:
                    path = os.path.normpath(
                        os.path.join(doc.get("current_working_directory", ""),
                                     f["file"]))
                    if not path.startswith(SRC):
                        continue
                    rel = os.path.relpath(path, ROOT)
                    for ln in f["lines"]:
                        key = (rel, ln["line_number"])
                        lines[key] = lines.get(key, 0) + ln["count"]
                    for fn in f["functions"]:
                        key = (rel, fn["demangled_name"])
                        entry = funcs.setdefault(
                            key, [0, fn["start_line"], fn["end_line"]])
                        entry[0] += fn["execution_count"]
    return lines, funcs


def read_allow():
    allow = {}
    with open(ALLOW, encoding="utf-8") as f:
        for n, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            head, sep, reason = line.partition(SEP)
            parts = head.split(None, 1)
            if not sep or len(parts) != 2 or not reason.strip():
                sys.exit(f"{ALLOW}:{n}: expected '<file> <function>"
                         f"{SEP}<reason>'")
            allow[(parts[0], parts[1].strip())] = n
    return allow


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("build")
    args = ap.parse_args()

    build = os.path.abspath(args.build)
    gcov = gcov_for(build)
    version = subprocess.run([gcov, "--version"], stdout=subprocess.PIPE,
                             text=True, check=True).stdout.splitlines()[0]
    print(f"non-test coverage: {version}")
    lines, funcs = merge(gcov, build)
    dead_lines = {k for k, c in lines.items() if c == 0}
    dead = {k: v for k, v in funcs.items() if v[0] == 0}

    def unrun(key):
        _, start, end = funcs[key]
        return sum((key[0], ln) in dead_lines for ln in range(start, end + 1))

    allow = read_allow()
    unlisted = sorted(k for k in dead if k not in allow)
    stale = sorted((n, k) for k, n in allow.items() if k not in dead)

    print(f"non-test coverage: src/ has {len(lines)} executable lines; "
          f"{len(dead_lines)} never ran, in {len(dead)} never-run functions "
          f"({len(dead) - len(unlisted)} allow-listed)")
    for key in sorted(dead):
        print(f"  {unrun(key):4d}  {key[0]} {key[1]}")
    for key in unlisted:
        print(f"never-run, not allow-listed: {key[0]} {key[1]} "
              f"({unrun(key)} lines)")
    for n, key in stale:
        what = "now runs" if key in funcs else "no longer exists"
        print(f"{ALLOW}:{n}: stale entry ({what}): {key[0]} {key[1]}")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())

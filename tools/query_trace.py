#!/usr/bin/env python3
"""Query and validate DynMo telemetry traces (docs/TELEMETRY.md).

A trace directory holds catalog.json plus one JSONL file per table; the
catalog declares every table's columns, types, and units, so this tool
never hard-codes a schema — discovery first, reading second.

Usage:
  query_trace.py TRACE_DIR                        # catalog summary
  query_trace.py TRACE_DIR --validate             # full consistency check
  query_trace.py TRACE_DIR TABLE                  # dump rows (TSV)
  query_trace.py TRACE_DIR TABLE -c iter,load_s   # column selection
  query_trace.py TRACE_DIR TABLE -w 'stage=3' -w 'load_s>0.1'
  query_trace.py TRACE_DIR TABLE --json           # JSONL output

Fleet traces (producer "fleet", docs/FLEET.md) add the fleet_decisions
table — every arbiter verdict with its payoff pricing:
  query_trace.py TRACE_DIR fleet_decisions -w 'kind=preempt'

Fault-enabled runs (docs/FAULT.md) add the fault_events table — losses
with their stall breakdown, straggler onsets/recoveries:
  query_trace.py TRACE_DIR fault_events -w 'kind=worker_loss'
--validate additionally checks each worker_loss row's stall identity
(stall_s = alpha_s + bootstrap_s + ckpt_write_s + ckpt_read_s +
lost_work_s) unless the catalog declares stall_s measured
("deterministic": false: a wall-clock stall has no modeled breakdown).  Tables declaring column types this tool does not know are
skipped with a note instead of failing, so traces from newer producers
stay queryable (forward compatibility).
"""

import argparse
import json
import os
import re
import sys

SCHEMA_VERSION = 1
TRACE_FORMAT = "dynmo-trace"

# JSON value shapes allowed per declared column type.
_TYPE_CHECKS = {
    "int64": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float64": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool),
    "bool": lambda v: isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "list<float64>": lambda v: isinstance(v, list)
    and all(isinstance(x, (int, float)) and not isinstance(x, bool)
            for x in v),
}

_WHERE_RE = re.compile(r"^(\w+)\s*(==|=|!=|>=|<=|>|<)\s*(.+)$")
_OPS = {
    "=": lambda a, b: a == b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
}


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def load_catalog(trace_dir):
    path = os.path.join(trace_dir, "catalog.json")
    if not os.path.isfile(path):
        fail(f"{path} not found (not a trace directory?)")
    with open(path, encoding="utf-8") as f:
        catalog = json.load(f)
    if catalog.get("format") != TRACE_FORMAT:
        fail(f"not a dynmo trace (format {catalog.get('format')!r})")
    if catalog.get("schema_version") != SCHEMA_VERSION:
        fail(f"trace schema version {catalog.get('schema_version')} != "
             f"tool version {SCHEMA_VERSION}")
    return catalog


def iter_rows(trace_dir, table):
    path = os.path.join(trace_dir, table["file"])
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{table['name']}:{lineno}: unparseable row: {e}")


def _check_fault_event(row, measured):
    """Semantic check for one fault_events row; returns a problem or None."""
    if row.get("kind") == "worker_loss" and "stall_s" not in measured:
        parts = (row.get("alpha_s", 0) + row.get("bootstrap_s", 0) +
                 row.get("ckpt_write_s", 0) + row.get("ckpt_read_s", 0) +
                 row.get("lost_work_s", 0))
        if abs(row.get("stall_s", 0) - parts) > 1e-9 * max(1.0, parts):
            return (f"stall_s {row.get('stall_s')} != breakdown sum "
                    f"{parts} (docs/FAULT.md ledger rule)")
    elif row.get("kind") in ("straggler_onset", "straggler_recovery"):
        if row.get("workers_before") != row.get("workers_after"):
            return "straggler event changed the worker count"
    return None


_SEMANTIC_CHECKS = {"fault_events": _check_fault_event}


def validate(trace_dir, catalog):
    """Cross-check every declared table against its file; exit 1 on drift."""
    problems = []
    run = catalog.get("run")
    if not isinstance(run, dict):
        problems.append("catalog has no 'run' object")
    for table in catalog.get("tables", []):
        name = table.get("name", "?")
        path = os.path.join(trace_dir, table.get("file", ""))
        if not os.path.isfile(path):
            problems.append(f"{name}: declared file {table.get('file')} "
                            "missing")
            continue
        columns = table.get("columns", [])
        if not columns:
            problems.append(f"{name}: catalog declares no columns")
            continue
        expected = {c["name"]: c["type"] for c in columns}
        # Forward compatibility: a newer producer may declare column types
        # this tool does not know.  That is the producer speaking a newer
        # dialect, not trace corruption — note it and skip the table.
        unknown = sorted({t for t in expected.values()
                          if t not in _TYPE_CHECKS})
        if unknown:
            print(f"SKIP {name}: unknown column types {unknown} "
                  "(newer producer?)")
            continue
        semantic = _SEMANTIC_CHECKS.get(name)
        measured = {c["name"] for c in columns
                    if c.get("deterministic") is False}
        count = 0
        for lineno, row in iter_rows(trace_dir, table):
            count += 1
            if row.get("_v") != SCHEMA_VERSION:
                problems.append(f"{name}:{lineno}: row _v {row.get('_v')} "
                                f"!= {SCHEMA_VERSION}")
                continue
            keys = [k for k in row if k != "_v"]
            if set(keys) != set(expected):
                missing = sorted(set(expected) - set(keys))
                extra = sorted(set(keys) - set(expected))
                problems.append(f"{name}:{lineno}: columns drifted "
                                f"(missing {missing}, extra {extra})")
                continue
            for col, typ in expected.items():
                if not _TYPE_CHECKS[typ](row[col]):
                    problems.append(f"{name}:{lineno}: column {col} is not "
                                    f"a {typ}: {row[col]!r}")
            if semantic is not None:
                issue = semantic(row, measured)
                if issue:
                    problems.append(f"{name}:{lineno}: {issue}")
        if count != table.get("rows"):
            problems.append(f"{name}: catalog declares {table.get('rows')} "
                            f"rows, file has {count}")
    if problems:
        for p in problems[:20]:
            print(f"FAIL {p}", file=sys.stderr)
        if len(problems) > 20:
            print(f"... and {len(problems) - 20} more", file=sys.stderr)
        sys.exit(1)
    total = sum(t.get("rows", 0) for t in catalog.get("tables", []))
    print(f"OK: {len(catalog.get('tables', []))} tables, {total} rows, "
          f"schema v{SCHEMA_VERSION}, producer "
          f"{catalog.get('run', {}).get('producer', '?')}")


def parse_where(expr):
    m = _WHERE_RE.match(expr)
    if not m:
        fail(f"bad --where expression {expr!r} (want col<op>value)")
    col, op, raw = m.group(1), m.group(2), m.group(3).strip()
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare string, e.g. -w trigger=periodic
    return col, _OPS[op], value


def summarize(catalog):
    run = catalog.get("run", {})
    # transport is empty for modeled producers (no comm::World behind them)
    # and absent entirely in pre-transport-split traces.
    transport = run.get("transport") or "n/a"
    print(f"format {catalog['format']} v{catalog['schema_version']}, "
          f"producer {run.get('producer', '?')}, "
          f"transport {transport}, "
          f"mode {run.get('mode', '?')}, "
          f"{run.get('pipeline_stages', '?')} stages x "
          f"dp {run.get('data_parallel', '?')}, "
          f"{run.get('iterations', '?')} iterations")
    for table in catalog.get("tables", []):
        cols = ", ".join(
            f"{c['name']}:{c['type']}" for c in table.get("columns", []))
        print(f"\n{table['name']} ({table['rows']} rows, {table['file']})")
        print(f"  {table.get('description', '')}")
        print(f"  columns: {cols}")


def dump(trace_dir, catalog, args):
    table = next((t for t in catalog.get("tables", [])
                  if t["name"] == args.table), None)
    if table is None:
        names = ", ".join(t["name"] for t in catalog.get("tables", []))
        fail(f"unknown table {args.table!r} (have: {names})")
    declared = [c["name"] for c in table.get("columns", [])]
    columns = declared
    if args.columns:
        columns = [c.strip() for c in args.columns.split(",")]
        for c in columns:
            if c not in declared:
                fail(f"unknown column {c!r} (have: {', '.join(declared)})")
    filters = [parse_where(w) for w in args.where]

    if not args.json:
        print("\t".join(columns))
    emitted = 0
    for _, row in iter_rows(trace_dir, table):
        if any(col not in row or not op(row[col], value)
               for col, op, value in filters):
            continue
        if args.json:
            print(json.dumps({c: row[c] for c in columns}))
        else:
            print("\t".join(json.dumps(row[c]) if isinstance(row[c], list)
                            else str(row[c]) for c in columns))
        emitted += 1
        if args.limit and emitted >= args.limit:
            break


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("trace_dir", help="trace directory (holds catalog.json)")
    ap.add_argument("table", nargs="?",
                    help="table to dump; omit for a catalog summary")
    ap.add_argument("-c", "--columns",
                    help="comma-separated column selection")
    ap.add_argument("-w", "--where", action="append", default=[],
                    metavar="EXPR",
                    help="row filter, e.g. 'stage=3' or 'load_s>0.1' "
                         "(repeatable, ANDed)")
    ap.add_argument("-n", "--limit", type=int, default=0,
                    help="stop after N rows")
    ap.add_argument("--json", action="store_true",
                    help="emit JSONL instead of TSV")
    ap.add_argument("--validate", action="store_true",
                    help="check every declared table: files present, rows "
                         "parse, _v and column types match, counts agree")
    args = ap.parse_args()

    catalog = load_catalog(args.trace_dir)
    if args.validate:
        validate(args.trace_dir, catalog)
    elif args.table:
        dump(args.trace_dir, catalog, args)
    else:
        summarize(catalog)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""QoR drift ledger (DESIGN.md §13): append-only JSONL history of quality-
of-results figures, with a drift check against the committed baseline.

Rows come from two inputs:
  * flight records (spool/flights/*.flight.json, see src/svc/flight.hpp):
    the per-job QoR figures — cells, area, wirelength, violations, critical
    path, rows. Keyed by the job's name, so CI submits with stable --name.
  * traced benchmark runs (the stdout of `perfbench/run.py --workload W
    --seed N --trace 1`): the per-layer work counters the run lists on its
    `# deterministic counters` line, with their values from its final JSON
    line. Keyed `perfbench:<W>-seed<N>`.
Older "bench" rows (from retired BENCH_*.json tables) stay in the file as
history; nothing checks them.

Each ledger row:  {"source": ..., "kind": "flight"|"perfbench"|"bench",
                   "metrics": {...}}
New rows for a source supersede old ones (the history stays in the file).

`check` compares fresh inputs against each source's latest ledger row:
  * QoR metrics must match to --rel-tol (default 1e-6 — the repo's
    determinism contract makes QoR bit-identical across machines and thread
    counts, so any real drift is a synthesis change, not noise);
  * perfbench counters must match exactly: they count work, and a single
    extra maze pop in millions is a behavior change that a relative
    tolerance would hide;
  * perf metrics of flight rows (names matching ms / seconds / wall /
    jobs_per_s / speedup / _us) are machine-dependent and are reported but
    never enforced.

Usage:
    qor_ledger.py append --ledger QOR_LEDGER.jsonl [--flight F...] [--perfbench P...]
    qor_ledger.py check  --ledger QOR_LEDGER.jsonl [--flight F...] [--perfbench P...]
                         [--rel-tol 1e-6] [--allow-new]

Exit 0 when every checked metric is within tolerance (or on append), 1 on
drift, a missing baseline (unless --allow-new), or malformed input.
"""
import argparse
import json
import re
import sys

PERF_METRIC = re.compile(
    r"(^|[._])(ms|seconds|wall(_s)?|jobs_per_s|speedup|us)([._]|$)|_ms$|_s$|_us$")

# QoR figures lifted from a flight record: deterministic by the repo's
# bit-identical contract, so they drift only when synthesis behavior changes.
FLIGHT_QOR_KEYS = (
    "k_factor", "num_cells", "cell_area_um2", "wirelength_um",
    "routing_violations", "routable", "critical_path_ns", "num_rows",
)


def fail(message: str) -> None:
    print(f"qor_ledger: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def is_perf_metric(name: str) -> bool:
    return PERF_METRIC.search(name) is not None


def load_json(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")


def row_from_flight(path: str) -> dict:
    doc = load_json(path)
    if doc.get("schema") != "cals-flight-v1":
        fail(f"{path}: not a flight record (schema {doc.get('schema')!r})")
    if doc.get("state") != "done":
        fail(f"{path}: ledger rows need a done job, got '{doc.get('state')}'")
    name = doc.get("name") or path
    metrics = {}
    for key in FLIGHT_QOR_KEYS:
        if key in doc:
            metrics[key] = float(doc[key])
    # Perf figures ride along for the record but are never enforced.
    for key in ("queue_seconds", "exec_seconds", "map_seconds",
                "place_seconds", "route_seconds", "sta_seconds"):
        if key in doc:
            metrics[key] = float(doc[key])
    return {"source": f"flight:{name}", "kind": "flight", "metrics": metrics}


COUNTERS_NOTE = "# deterministic counters"
SPANS_NOTE = re.compile(r"^# spans: (?:.*/)?(\w+)-seed(\d+)\.trace\.json$")


def row_from_perfbench(path: str) -> dict:
    try:
        with open(path) as f:
            lines = [line.rstrip("\n") for line in f if line.strip()]
    except OSError as e:
        fail(f"{path}: {e}")
    names = source = None
    for line in lines:
        if line.startswith(COUNTERS_NOTE):
            names = line.split(":", 1)[1].split()
        elif SPANS_NOTE.match(line):
            workload, seed = SPANS_NOTE.match(line).groups()
            source = f"perfbench:{workload}-seed{seed}"
    if names is None or source is None:
        fail(f"{path}: not the output of a traced perfbench run "
             f"(needs the '{COUNTERS_NOTE}' and '# spans:' lines)")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        fail(f"{path}: last line is not the result JSON: {e}")
    if not result.get("correct"):
        fail(f"{path}: the run failed its correctness checks")
    values = result.get("metrics", {})
    missing = [name for name in names if name not in values]
    if missing:
        fail(f"{path}: result lacks counters {', '.join(missing)}")
    metrics = {name: float(values[name]["value"]) for name in names}
    return {"source": source, "kind": "perfbench", "metrics": metrics}


def collect_rows(args) -> list:
    rows = [row_from_flight(p) for p in args.flight]
    rows += [row_from_perfbench(p) for p in args.perfbench]
    if not rows:
        fail("nothing to process: give --flight or --perfbench inputs")
    return rows


def read_ledger(path: str) -> dict:
    """source -> latest row. Missing file is an empty ledger."""
    latest: dict = {}
    try:
        with open(path) as f:
            for line_no, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as e:
                    fail(f"{path}:{line_no}: bad ledger row: {e}")
                if "source" not in row or "metrics" not in row:
                    fail(f"{path}:{line_no}: row missing source/metrics")
                latest[row["source"]] = row
    except FileNotFoundError:
        pass
    return latest


def cmd_append(args) -> None:
    rows = collect_rows(args)
    with open(args.ledger, "a") as f:
        for row in rows:
            f.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"qor_ledger: appended {len(rows)} row(s) to {args.ledger}")


def cmd_check(args) -> None:
    rows = collect_rows(args)
    baseline = read_ledger(args.ledger)
    drifted = 0
    checked = 0
    for row in rows:
        base = baseline.get(row["source"])
        if base is None:
            if args.allow_new:
                print(f"qor_ledger: NEW   {row['source']} (no baseline row)")
                continue
            fail(f"{row['source']}: no baseline in {args.ledger} "
                 "(append it, or pass --allow-new)")
        for name, value in sorted(row["metrics"].items()):
            if name not in base["metrics"]:
                continue  # schema growth: new metrics start untracked
            expected = float(base["metrics"][name])
            if row["kind"] == "flight" and is_perf_metric(name):
                continue  # machine-dependent: recorded, never enforced
            checked += 1
            tol = 0.0 if row["kind"] == "perfbench" else args.rel_tol
            scale = max(abs(expected), abs(value), 1e-30)
            if abs(value - expected) / scale > tol:
                drifted += 1
                print(f"qor_ledger: DRIFT {row['source']} {name}: "
                      f"{expected:.17g} -> {value:.17g}", file=sys.stderr)
    if drifted:
        fail(f"{drifted} metric(s) drifted ({checked} checked; QoR rel-tol "
             f"{args.rel_tol:g}, perfbench counters exact)")
    print(f"qor_ledger: OK: {checked} metric(s) match (QoR within rel-tol "
          f"{args.rel_tol:g}, perfbench counters exactly) across {len(rows)} source(s)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (("append", cmd_append), ("check", cmd_check)):
        p = sub.add_parser(name)
        p.add_argument("--ledger", required=True)
        p.add_argument("--flight", nargs="*", default=[],
                       help="flight record JSON files")
        p.add_argument("--perfbench", nargs="*", default=[],
                       help="stdout files of traced perfbench runs")
        p.set_defaults(func=func)
        if name == "check":
            p.add_argument("--rel-tol", type=float, default=1e-6)
            p.add_argument("--allow-new", action="store_true",
                           help="tolerate sources with no baseline row")
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()

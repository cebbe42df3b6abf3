#!/usr/bin/env python3
"""Validate cals telemetry artifacts.

Default mode checks a Chrome trace_event JSON file (as written by --trace):
the document parses and has the trace_event top-level shape, event
timestamps are monotone non-decreasing, every thread's B/E spans are balanced
and close innermost-first, and all four flow phases appear as spans.

--flight mode checks one or more flight record files (the
spool/flights/*.flight.json records cals_serve publishes, DESIGN.md §13):
schema marker, required keys with the right JSON types, internally
consistent route telemetry (route_iterations == trajectory length ==
dirty-edge series length), a terminal state, and sane provenance (a
cache-hit record cannot also claim a flow ran).

Exit 0 on success, 1 with a message on any violation. Used by CI
(trace-validate and telemetry-smoke jobs) and handy locally:

    ./build/bench/figure3_flow --trace trace.json
    python3 tools/check_trace.py trace.json
    python3 tools/check_trace.py --flight spool/flights/*.flight.json
"""
import json
import sys

REQUIRED_PHASES = {"flow.map", "flow.place", "flow.route", "flow.sta"}

FLIGHT_SCHEMA = "cals-flight-v1"
# key -> allowed JSON types. Vectors ride as joined strings in the flat codec.
FLIGHT_REQUIRED = {
    "schema": str,
    "job_id": (int,),
    "name": str,
    "state": str,
    "run_sequence": (int,),
    "cache_key": str,
    "dataset_key": str,
    "queue_seconds": (int, float),
    "exec_seconds": (int, float),
    "queue_depth_at_submit": (int,),
    "cache_hit": bool,
    "coalesced": bool,
    "dataset": bool,
    "dataset_version": (int,),
    "status": str,
    "map_seconds": (int, float),
    "place_seconds": (int, float),
    "route_seconds": (int, float),
    "sta_seconds": (int, float),
    "route_iterations": (int,),
    "overflow_trajectory": str,
    "dirty_edges": str,
    "ripups": (int,),
    "maze_pops": (int,),
    "rcm_passes": (int,),
    "rcm_cells_moved": (int,),
    "rcm_overflow_removed": (int,),
    "rcm_overflow_trajectory": str,
    "k_factor": (int, float),
    "num_cells": (int,),
    "wirelength_um": (int, float),
    "routing_violations": (int,),
    "routable": bool,
}
FLIGHT_TERMINAL_STATES = {"done", "failed", "cancelled"}


def fail(message: str) -> None:
    print(f"check_trace: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def series_len(joined: str) -> int:
    return len(joined.split(",")) if joined else 0


def check_flight(path: str) -> None:
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        fail(f"{path}: flight record must be a JSON object")
    for key, kinds in FLIGHT_REQUIRED.items():
        if key not in doc:
            fail(f"{path}: missing required key '{key}'")
        value = doc[key]
        # bool is an int subclass in Python: check it explicitly so a true/
        # false in a numeric field (or vice versa) is caught.
        if kinds is bool:
            ok = isinstance(value, bool)
        elif kinds is str:
            ok = isinstance(value, str)
        else:
            ok = isinstance(value, kinds) and not isinstance(value, bool)
        if not ok:
            fail(f"{path}: key '{key}' has wrong type {type(value).__name__}")
    if doc["schema"] != FLIGHT_SCHEMA:
        fail(f"{path}: schema '{doc['schema']}' != '{FLIGHT_SCHEMA}'")
    if doc["state"] not in FLIGHT_TERMINAL_STATES:
        fail(f"{path}: non-terminal state '{doc['state']}'")
    overflow_n = series_len(doc["overflow_trajectory"])
    dirty_n = series_len(doc["dirty_edges"])
    if doc["route_iterations"] != overflow_n:
        fail(f"{path}: route_iterations {doc['route_iterations']} != "
             f"overflow trajectory length {overflow_n}")
    if overflow_n != dirty_n:
        fail(f"{path}: overflow trajectory length {overflow_n} != "
             f"dirty-edge series length {dirty_n}")
    if doc["cache_hit"] and doc["route_iterations"] > 0:
        fail(f"{path}: cache hit cannot carry route iterations")
    # rcm_passes rides in the (cacheable) metrics; the per-pass overflow
    # trajectory only exists when repair ran live in this execution.
    rcm_n = series_len(doc["rcm_overflow_trajectory"])
    if doc["cache_hit"]:
        if rcm_n != 0:
            fail(f"{path}: cache hit cannot carry a live repair trajectory")
    elif rcm_n != doc["rcm_passes"]:
        fail(f"{path}: rcm_passes {doc['rcm_passes']} != repair trajectory "
             f"length {rcm_n}")
    if doc["state"] == "done" and doc["status"] != "ok":
        fail(f"{path}: done record with status '{doc['status']}'")
    for field in ("queue_seconds", "exec_seconds", "map_seconds",
                  "place_seconds", "route_seconds", "sta_seconds"):
        if doc[field] < 0:
            fail(f"{path}: negative {field}")


def main_flight(paths: list[str]) -> None:
    if not paths:
        fail("usage: check_trace.py --flight <record.flight.json>...")
    for path in paths:
        check_flight(path)
    print(f"check_trace: OK: {len(paths)} flight record(s) valid")


def main() -> None:
    if len(sys.argv) >= 2 and sys.argv[1] == "--flight":
        main_flight(sys.argv[2:])
        return
    if len(sys.argv) != 2:
        fail(f"usage: {sys.argv[0]} <trace.json> | --flight <record>...")
    with open(sys.argv[1]) as f:
        doc = json.load(f)

    if "traceEvents" not in doc:
        fail("missing traceEvents key")
    if "displayTimeUnit" not in doc:
        fail("missing displayTimeUnit key")

    events = doc["traceEvents"]
    stacks: dict[int, list[str]] = {}
    seen_names: set[str] = set()
    last_ts = -1.0
    counted = 0
    for e in events:
        phase = e["ph"]
        if phase == "M":
            continue  # metadata: no ordering contract
        counted += 1
        ts, tid, name = e["ts"], e["tid"], e["name"]
        if ts < last_ts:
            fail(f"timestamp went backwards at {name}: {ts} < {last_ts}")
        last_ts = ts
        if phase == "B":
            stacks.setdefault(tid, []).append(name)
            seen_names.add(name)
        elif phase == "E":
            stack = stacks.get(tid, [])
            if not stack:
                fail(f"E '{name}' without open B on tid {tid}")
            if stack[-1] != name:
                fail(f"E '{name}' closes '{stack[-1]}' on tid {tid} (bad nesting)")
            stack.pop()

    for tid, stack in stacks.items():
        if stack:
            fail(f"unclosed spans on tid {tid}: {stack}")
    missing = REQUIRED_PHASES - seen_names
    if missing:
        fail(f"flow phases missing from trace: {sorted(missing)}")
    if counted == 0:
        fail("trace contains no events")
    print(f"check_trace: OK: {counted} events, spans balanced, "
          f"all {len(REQUIRED_PHASES)} flow phases present")


if __name__ == "__main__":
    main()

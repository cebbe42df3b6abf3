#!/usr/bin/env bash
# Fault-injection sweep (DESIGN.md §9): arm every probe point via CALS_FAULTS
# and drive the full CLI flow through it. The contract under test is that an
# injected fault NEVER crashes the process — every run must end in a normal
# exit (0 = flow degraded but completed, 1 = diagnosed failure), not an
# abort/segfault (exit >= 126). CI runs this against the sanitizer build.
#
# usage: tools/fault_sweep.sh [build-dir]
set -u

BUILD_DIR="${1:-build}"
CALS_FLOW="$BUILD_DIR/tools/cals_flow"
CALS_SERVE="$BUILD_DIR/tools/cals_serve"
CALS_SUBMIT="$BUILD_DIR/tools/cals_submit"
CORPUS="$(dirname "$0")/../tests/corpus"
FAILURES=0

if [[ ! -x "$CALS_FLOW" ]]; then
  echo "fault_sweep: $CALS_FLOW not built" >&2
  exit 2
fi

run_case() {
  local faults="$1" expected="$2"
  shift 2
  local out rc
  out="$(CALS_FAULTS="$faults" "$CALS_FLOW" --quiet "$@" 2>&1)"
  rc=$?
  if (( rc >= 126 )); then
    echo "FAIL  [$faults] crashed (exit $rc): $out" >&2
    FAILURES=$((FAILURES + 1))
  elif [[ "$expected" != "any" && "$rc" != "$expected" ]]; then
    echo "FAIL  [$faults] exit $rc, expected $expected: $out" >&2
    FAILURES=$((FAILURES + 1))
  else
    echo "ok    [$faults] exit $rc"
  fi
}

PLA="$CORPUS/pla/seed_ok.pla"
BLIF="$CORPUS/blif/seed_ok.blif"
GENLIB="$CORPUS/genlib/seed_ok.genlib"

# Parser probes: an injected throw must surface as a one-line internal-error
# diagnostic, exit 1.
run_case "parse.pla"    1 "$PLA"
run_case "parse.blif"   1 "$BLIF"
run_case "parse.genlib" 1 --library "$GENLIB" "$PLA"

# Flow phase probes (throw): best-effort policy converts to Status, exit 1.
# count=0 fires at every visit: the default --k auto run evaluates a window of
# K points at once, and a one-shot fault can land in a point past the
# converged K, whose result the flow discards (a clean exit 0).
run_case "flow.map:count=0"   1 "$PLA"
run_case "flow.place:count=0" 1 "$PLA"
run_case "flow.route:count=0" 1 "$PLA"
run_case "flow.sta:count=0"   1 "$PLA"

# Cooperative router degradation: the flow completes with the best
# (possibly unconverged) run — a normal exit either way.
run_case "route.ripup:action=fail:count=0" any "$PLA"

# Congestion-repair probes: repair is strictly best-effort. An injected
# throw inside the repair phase is absorbed by the flow, which restores the
# pre-repair placement and re-routes — the run completes with the
# unrepaired-but-valid result (exit 0), never a crash or a failed flow.
run_case "flow.repair" 0 --repair-passes 1 "$PLA"
# kFail at the probe skips repair quietly: same unrepaired-but-valid result.
run_case "flow.repair:action=fail:count=0" 0 --repair-passes 1 "$PLA"

# Injected delay + tight phase budget: bounded-time kBudgetExceeded, exit 1
# (every visit delayed, as above).
run_case "flow.place:action=delay:delay_ms=400:count=0" 1 --time-budget 0.1 "$PLA"

# Pool-task dispatch: the TaskGroup captures the throw, wait() rethrows, the
# CLI's top-level handler reports it — still a normal exit.
run_case "pool.dispatch" 1 --threads 2 "$PLA"

# Late fires: skip the first visits so the fault lands mid-run if the flow
# gets that far (a converging run may finish first — either exit is fine,
# crashing is not).
run_case "flow.route:after=2"              any "$PLA"
run_case "pool.dispatch:after=5" any --threads 2 "$PLA"

# ---- service-layer probes ---------------------------------------------------
# Contract: a fault in one dispatched job marks THAT job failed; the server
# keeps draining the rest and exits 0 (the daemon never dies with the job).
run_serve_case() {
  local faults="$1" expect_done="$2" expect_failed="$3"
  shift 3
  local spool out rc
  spool="$(mktemp -d)"
  for k in 0.01 0.02 0.03; do
    if ! "$CALS_SUBMIT" --spool "$spool" --preset spla --scale 0.1 --k "$k" \
        --quiet >/dev/null; then
      echo "FAIL  [svc:$faults] cals_submit failed" >&2
      FAILURES=$((FAILURES + 1)); rm -rf "$spool"; return
    fi
  done
  out="$(CALS_FAULTS="$faults" "$CALS_SERVE" --spool "$spool" --drain \
         --poll-ms 20 --quiet "$@" 2>&1)"
  rc=$?
  local done_n failed_n
  done_n="$(ls "$spool/done" 2>/dev/null | wc -l)"
  failed_n="$(ls "$spool/failed" 2>/dev/null | wc -l)"
  if (( rc != 0 )); then
    echo "FAIL  [svc:$faults] server exited $rc (must survive job faults): $out" >&2
    FAILURES=$((FAILURES + 1))
  elif [[ "$done_n" != "$expect_done" || "$failed_n" != "$expect_failed" ]]; then
    echo "FAIL  [svc:$faults] $done_n done / $failed_n failed," \
         "expected $expect_done / $expect_failed" >&2
    FAILURES=$((FAILURES + 1))
  else
    echo "ok    [svc:$faults] server exit 0, $done_n done / $failed_n failed"
  fi
  rm -rf "$spool"
}

if [[ -x "$CALS_SERVE" && -x "$CALS_SUBMIT" ]]; then
  # One poisoned dispatch: that job fails, the other two drain normally.
  run_serve_case "svc.dispatch:count=1" 2 1
  # Every dispatch poisoned: all jobs fail, the server still exits cleanly.
  run_serve_case "svc.dispatch:count=0" 0 3
  # Same poison under a retry budget: the failed attempts re-enqueue with
  # backoff until the cap, then resolve failed — still a clean server exit.
  run_serve_case "svc.dispatch:count=1" 3 0 --retries 1
  # Cache faults degrade to misses/skipped stores; no job is affected.
  run_serve_case "svc.cache:count=0" 3 0 --cache "$(mktemp -d)"
  # Journal faults: the write-ahead journal is an availability aid, never a
  # correctness gate — every append degrades to a warning and serving
  # continues untouched.
  journal_spool="$(mktemp -d)"
  for k in 0.01 0.02 0.03; do
    "$CALS_SUBMIT" --spool "$journal_spool" --preset spla --scale 0.1 --k "$k" \
        --quiet >/dev/null
  done
  journal_out="$(CALS_FAULTS="svc.journal:count=0" "$CALS_SERVE" \
      --spool "$journal_spool" --drain --poll-ms 20 2>&1)"
  journal_rc=$?
  journal_done="$(ls "$journal_spool/done" 2>/dev/null | wc -l)"
  journal_failed="$(ls "$journal_spool/failed" 2>/dev/null | wc -l)"
  if (( journal_rc != 0 )) || [[ "$journal_done" != 3 || "$journal_failed" != 0 ]]; then
    echo "FAIL  [svc:svc.journal:count=0] exit $journal_rc," \
         "$journal_done done / $journal_failed failed (journal fault must not" \
         "touch jobs): $journal_out" >&2
    FAILURES=$((FAILURES + 1))
  elif ! grep -q "journal degraded" <<<"$journal_out"; then
    echo "FAIL  [svc:svc.journal:count=0] degradation never reported: $journal_out" >&2
    FAILURES=$((FAILURES + 1))
  else
    echo "ok    [svc:svc.journal:count=0] 3 done, journal degradation reported"
  fi
  rm -rf "$journal_spool"
  # A throw at the cancel checkpoint is an internal error, so under a retry
  # budget the hit job re-runs clean and everything still drains to done/.
  run_serve_case "flow.cancel:count=1" 3 0 --retries 1
  # kFail at the checkpoint IS a cancellation: every job unwinds with the
  # typed kCancelled status, publishes to failed/, and — unlike the internal
  # error above — is never retried even with budget to spare.
  run_serve_case "flow.cancel:action=fail:count=0" 0 3 --retries 2

  # Flight-recorder faults: telemetry is strictly best-effort — every job
  # still drains to done/, the flights/ directory just stays empty and the
  # server says so instead of failing anything.
  flight_spool="$(mktemp -d)"
  for k in 0.01 0.02 0.03; do
    "$CALS_SUBMIT" --spool "$flight_spool" --preset spla --scale 0.1 --k "$k" \
        --quiet >/dev/null
  done
  flight_out="$(CALS_FAULTS="svc.flight:count=0" "$CALS_SERVE" \
      --spool "$flight_spool" --drain --poll-ms 20 2>&1)"
  flight_rc=$?
  flight_done="$(ls "$flight_spool/done" 2>/dev/null | wc -l)"
  flight_failed="$(ls "$flight_spool/failed" 2>/dev/null | wc -l)"
  flight_files="$(ls "$flight_spool/flights" 2>/dev/null | wc -l)"
  if (( flight_rc != 0 )) || [[ "$flight_done" != 3 || "$flight_failed" != 0 ]]; then
    echo "FAIL  [svc:svc.flight:count=0] exit $flight_rc," \
         "$flight_done done / $flight_failed failed (telemetry fault must not" \
         "touch jobs): $flight_out" >&2
    FAILURES=$((FAILURES + 1))
  elif [[ "$flight_files" != 0 ]]; then
    echo "FAIL  [svc:svc.flight:count=0] $flight_files flight file(s) written" \
         "despite the armed fault" >&2
    FAILURES=$((FAILURES + 1))
  elif ! grep -q "telemetry degraded" <<<"$flight_out"; then
    echo "FAIL  [svc:svc.flight:count=0] degradation never reported: $flight_out" >&2
    FAILURES=$((FAILURES + 1))
  else
    echo "ok    [svc:svc.flight:count=0] 3 done, 0 flight files, degradation reported"
  fi
  rm -rf "$flight_spool"
else
  echo "fault_sweep: skipping svc cases ($CALS_SERVE not built)" >&2
fi

if (( FAILURES > 0 )); then
  echo "fault_sweep: $FAILURES case(s) failed" >&2
  exit 1
fi
echo "fault_sweep: all cases survived injection"

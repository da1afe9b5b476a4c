#!/usr/bin/env bash
# Check pipeline for the lightbulb-system workspace.
#
#   scripts/ci.sh          — the fast PR lane: clippy, tests, docs,
#                            examples, tables, budgeted perf bins, the
#                            bounded fault-sweep smoke, and the
#                            perf-regression gate.
#   scripts/ci.sh --deep   — everything above plus the nightly deep lane:
#                            the full 1000-seed fault sweep.
#
# `--json` runs print their record on stdout only; every record this
# script makes is redirected to /tmp/*.json (the CI workflows upload
# them), so the committed BENCH_*.json baselines are never touched.
set -euo pipefail
cd "$(dirname "$0")/.."

DEEP=0
if [ "${1:-}" = "--deep" ]; then
  DEEP=1
fi

# Wall-clock budgets (seconds) for the performance bins. These are
# enforced, not advisory: a bin blowing through its budget fails the run.
# They are sized for an order-of-magnitude regression (a slow CI runner
# fits comfortably; an accidentally quadratic check does not) — the
# fine-grained regression gate is scripts/bench_gate.sh. CI_BUDGET_MULT
# scales all budgets for unusually slow machines.
BUDGET_MULT="${CI_BUDGET_MULT:-1}"

# run_budgeted NAME BUDGET_SECONDS CMD... — runs CMD, prints its wall
# clock, and fails if it exceeded BUDGET_SECONDS * CI_BUDGET_MULT. The
# report goes to stderr so callers can redirect CMD's stdout freely.
run_budgeted() {
  local name="$1" budget="$2"
  shift 2
  local start end elapsed
  start=$(date +%s.%N)
  "$@"
  end=$(date +%s.%N)
  elapsed=$(echo "$end $start" | awk '{printf "%.2f", $1 - $2}')
  if echo "$elapsed $budget $BUDGET_MULT" | awk '{exit !($1 > $2 * $3)}'; then
    echo "-- $name: ${elapsed} s — OVER BUDGET (${budget} s × ${BUDGET_MULT})" >&2
    return 1
  fi
  echo "-- $name: ${elapsed} s (budget ${budget} s)" >&2
}

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tests (release) =="
cargo test --workspace --release

echo "== docs =="
# Warnings are errors: a doc link left dangling by a deleted item fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== examples =="
for e in quickstart lightbulb_demo malformed_packet_fuzz differential_compiler pipeline_trace packet_counter observed_run; do
  echo "-- $e"
  cargo run --release --example "$e" >/dev/null
done

echo "== evaluation tables =="
for b in table1 table2 table3 table4; do
  echo "-- $b"
  cargo run --release -p bench --bin "$b" >/dev/null
done

echo "== performance bins (budgeted wall clock) =="
run_budgeted fig_perf 180 cargo run --release -p bench --bin fig_perf >/dev/null
run_budgeted verif_perf 120 cargo run --release -p bench --bin verif_perf >/dev/null
run_budgeted spec_throughput 120 cargo run --release -p bench --bin spec_throughput >/dev/null

echo "== fault-sweep smoke (budgeted wall clock) =="
# Bounded version of the full 1000-seed sweep (BENCH_fault_sweep.json):
# every seeded fault plan must stay recoverable on both machine models,
# and the report must be shard-count invariant (the binary self-checks).
run_budgeted "fault_sweep --seeds 96" 300 \
  cargo run --release -p bench --bin fault_sweep -- --seeds 96

echo "== fault-sweep triage demo =="
# A deliberately unrecoverable plan (bring-up junk past the driver's
# retry budget, buried in noise) must fail, shrink to a strictly smaller
# 1-minimal plan, name its divergence site, write the triage artifact,
# and reproduce from it — the whole red-sweep workflow, kept working by
# running it on every CI pass.
run_budgeted "triage demo" 120 \
  cargo run --release -p bench --bin fault_sweep -- --triage-demo
test -s TRIAGE_fault_sweep_demo.json
echo "-- triage demo: shrink + replay passed, artifact written"

echo "== bench --json =="
# emit_json re-parses its own output before printing, so a successful run
# already proves the document is valid; the python pass is an independent
# parser double-checking the same bytes when one is available.
cargo run --release -p bench --bin table1 -- --json > /tmp/bench_table1.json
test -s /tmp/bench_table1.json
# Machine-readable sweep record: this smoke only proves the --json path
# still emits a valid record (the committed BENCH_fault_sweep.json is the
# recorded full 1000-seed run).
cargo run --release -p bench --bin fault_sweep -- --seeds 48 --json > /tmp/bench_fault_sweep.json
test -s /tmp/bench_fault_sweep.json
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool < /tmp/bench_table1.json > /dev/null
  echo "-- BENCH_table1.json parses (python3)"
fi

echo "== perf-regression gate =="
# Compare a fresh record against the committed baseline ±tolerance.
cargo run --release -p bench --bin spec_throughput -- --json > /tmp/fresh_spec_throughput.json
scripts/bench_gate.sh /tmp/fresh_spec_throughput.json

if [ "$DEEP" = "1" ]; then
  echo "== deep: full 1000-seed fault sweep =="
  # The nightly workflow uploads the record as an artifact, so drift
  # from the committed BENCH_fault_sweep.json is visible without
  # committing from CI.
  run_budgeted "fault_sweep --seeds 1000" 3600 \
    cargo run --release -p bench --bin fault_sweep -- --seeds 1000 --json > /tmp/bench_fault_sweep_deep.json
  test -s /tmp/bench_fault_sweep_deep.json
fi

echo "ALL CHECKS PASSED"

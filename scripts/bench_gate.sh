#!/usr/bin/env bash
# CI perf-regression gate.
#
# Compares a freshly generated spec_throughput record against the
# committed baseline and fails on regression:
#
#   * BENCH_spec_throughput.json — the decode-cache speedup (cached vs
#     uncached spec core, a machine-independent ratio) must not fall more
#     than the tolerance below the baseline's.
#   * BENCH_spec_throughput.json — the single-cycle and pipelined
#     hardware models' throughput and the single-cycle replay's, each
#     divided by the cached spec machine's (machine-independent ratios),
#     must not fall more than the tolerance below the baseline's.
#   * BENCH_spec_throughput.json — the trace monitor's events matched per
#     second (cold monitor per fault-sweep seed), divided by the cached
#     spec machine's steps per second, must not fall more than the
#     tolerance below the baseline's.
#
# Absolute seconds are deliberately NOT gated by default — they measure
# the runner, not the code; the ratios above move only when the code does.
#
# Usage: scripts/bench_gate.sh [FRESH_SPEC_THROUGHPUT]
#   default: /tmp/fresh_spec_throughput.json
#   baseline: the committed BENCH_spec_throughput.json at the repo root
#   tolerance: BENCH_GATE_TOL (fraction, default 0.25)
#
# Override: a failing gate is accepted by committing the fresh record as
# the new baseline, or skipped once with BENCH_GATE_SKIP=1.
set -euo pipefail
cd "$(dirname "$0")/.."

FRESH_SPEC="${1:-/tmp/fresh_spec_throughput.json}"
TOL="${BENCH_GATE_TOL:-0.25}"

if [ "${BENCH_GATE_SKIP:-0}" = "1" ]; then
  echo "bench_gate: BENCH_GATE_SKIP=1 — gate skipped"
  exit 0
fi

if ! command -v python3 >/dev/null 2>&1; then
  echo "bench_gate: python3 unavailable — gate skipped"
  exit 0
fi

python3 - "$FRESH_SPEC" "$TOL" <<'EOF'
import json
import os
import sys

fresh_spec_path, tol = sys.argv[1], float(sys.argv[2])
failures = []


def load(path):
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


# --- spec_throughput: the decode-cache speedup ratio.
def cache_ratio(doc):
    cores = doc["data"]["cores"]
    cached = next(c for c in cores
                  if "cached" in c["config"] and "uncached" not in c["config"])
    uncached = next(c for c in cores if "uncached" in c["config"])
    return cached["steps_per_sec"] / uncached["steps_per_sec"]


fresh = load(fresh_spec_path)
base = load("BENCH_spec_throughput.json")
if fresh is None:
    failures.append(f"spec_throughput: fresh record {fresh_spec_path} missing "
                    "(run: cargo run --release -p bench --bin spec_throughput -- --json)")
elif base is not None:
    fresh_ratio, base_ratio = cache_ratio(fresh), cache_ratio(base)
    floor = base_ratio * (1 - tol)
    if fresh_ratio < floor:
        failures.append(
            f"spec_throughput: decode-cache speedup {fresh_ratio:.2f}x fell below "
            f"{floor:.2f}x (baseline {base_ratio:.2f}x, tolerance {tol:.0%})")
    else:
        print(f"bench_gate: spec_throughput ok — decode-cache speedup "
              f"{fresh_ratio:.2f}x (baseline {base_ratio:.2f}x)")

# --- spec_throughput: the hardware models' and the replay's speed relative
# to the cached spec machine, so a slower host moves numerator and
# denominator together.
def hw_ratios(doc):
    cores = {c["config"]: c["steps_per_sec"] for c in doc["data"]["cores"]}
    spec = next(v for k, v in cores.items() if "cached" in k and "uncached" not in k)
    return {model: cores[model] / spec
            for model in ("single-cycle hardware model", "pipelined hardware model",
                          "single-cycle replay")}


if fresh is not None and base is not None:
    fresh_hw, base_hw = hw_ratios(fresh), hw_ratios(base)
    for model, base_ratio in base_hw.items():
        floor = base_ratio * (1 - tol)
        if fresh_hw[model] < floor:
            failures.append(
                f"spec_throughput: {model} at {fresh_hw[model]:.3f}x the cached spec "
                f"machine fell below {floor:.3f}x (baseline {base_ratio:.3f}x, "
                f"tolerance {tol:.0%})")
        else:
            print(f"bench_gate: spec_throughput ok — {model} at {fresh_hw[model]:.3f}x "
                  f"the cached spec machine (baseline {base_ratio:.3f}x)")

# --- spec_throughput: the trace monitor's speed relative to the cached
# spec machine, measured in the same interleaved rounds.
def match_ratio(doc):
    return doc["data"]["matcher"]["vs_cached_spec"]


if fresh is not None and base is not None:
    fresh_m, base_m = match_ratio(fresh), match_ratio(base)
    floor = base_m * (1 - tol)
    if fresh_m < floor:
        failures.append(
            f"spec_throughput: trace monitor at {fresh_m:.4f}x the cached spec machine "
            f"fell below {floor:.4f}x (baseline {base_m:.4f}x, tolerance {tol:.0%})")
    else:
        print(f"bench_gate: spec_throughput ok — trace monitor at {fresh_m:.4f}x "
              f"the cached spec machine (baseline {base_m:.4f}x)")

if failures:
    print()
    for f in failures:
        print(f"bench_gate FAIL: {f}")
    print()
    print("bench_gate: if the new numbers are intended, commit the fresh record as "
          "the new baseline (cp it over BENCH_spec_throughput.json); to skip this "
          "gate once, rerun with BENCH_GATE_SKIP=1.")
    sys.exit(1)

print("bench_gate: no perf regressions")
EOF

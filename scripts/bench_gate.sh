#!/usr/bin/env bash
# CI perf-regression gate.
#
# Compares freshly generated bench records against the committed baselines
# and fails on regression:
#
#   * BENCH_verif_perf.json — the obligation-cache warm/cold speedup must
#     stay >= 2x (the incremental-verification contract) and must not fall
#     more than the tolerance below the committed baseline's speedup; the
#     warm run must re-prove nothing and every corpus obligation must
#     still prove.
#   * BENCH_spec_throughput.json — the decode-cache speedup (cached vs
#     uncached spec core, a machine-independent ratio) must not fall more
#     than the tolerance below the baseline's.
#   * BENCH_spec_throughput.json — the single-cycle and pipelined
#     hardware models' throughput, each divided by the cached spec
#     machine's (machine-independent ratios), must not fall more than the
#     tolerance below the baseline's.
#
# Absolute seconds are deliberately NOT gated by default — they measure
# the runner, not the code; the ratios above move only when the code does.
#
# Usage: scripts/bench_gate.sh [FRESH_VERIF_PERF FRESH_SPEC_THROUGHPUT]
#   defaults: /tmp/fresh_verif_perf.json /tmp/fresh_spec_throughput.json
#   baselines: the committed BENCH_*.json at the repo root
#   tolerance: BENCH_GATE_TOL (fraction, default 0.25)
#
# Override: a failing gate is accepted by committing the fresh records as
# the new baselines, or skipped once with BENCH_GATE_SKIP=1.
set -euo pipefail
cd "$(dirname "$0")/.."

FRESH_VERIF="${1:-/tmp/fresh_verif_perf.json}"
FRESH_SPEC="${2:-/tmp/fresh_spec_throughput.json}"
TOL="${BENCH_GATE_TOL:-0.25}"

if [ "${BENCH_GATE_SKIP:-0}" = "1" ]; then
  echo "bench_gate: BENCH_GATE_SKIP=1 — gate skipped"
  exit 0
fi

if ! command -v python3 >/dev/null 2>&1; then
  echo "bench_gate: python3 unavailable — gate skipped"
  exit 0
fi

python3 - "$FRESH_VERIF" "$FRESH_SPEC" "$TOL" <<'EOF'
import json
import os
import sys

fresh_verif_path, fresh_spec_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])
failures = []


def load(path):
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


# --- verif_perf: the incremental engine's speedup trajectory.
fresh = load(fresh_verif_path)
base = load("BENCH_verif_perf.json")
if fresh is None:
    failures.append(f"verif_perf: fresh record {fresh_verif_path} missing "
                    "(run: cargo run --release -p bench --bin verif_perf -- --json)")
else:
    eng = fresh["data"].get("engine")
    if eng is None:
        failures.append("verif_perf: fresh record has no engine section")
    else:
        floor = 2.0
        base_eng = base["data"].get("engine") if base else None
        if base_eng and base_eng.get("warm_speedup", 0) > 0:
            # The warm run is sub-millisecond, so its timing is the
            # noisiest number in the record: give the speedup ratio twice
            # the usual headroom before calling a regression.
            floor = max(floor, base_eng["warm_speedup"] * (1 - 2 * tol))
        speedup = eng["warm_speedup"]
        if speedup < floor:
            failures.append(
                f"verif_perf: warm-cache speedup {speedup:.1f}x is below the "
                f"floor {floor:.1f}x (baseline {base_eng['warm_speedup']:.1f}x, "
                f"tolerance {tol:.0%})" if base_eng else
                f"verif_perf: warm-cache speedup {speedup:.1f}x is below the 2x contract")
        if eng["warm"]["misses"] != 0:
            failures.append(
                f"verif_perf: warm run re-proved {eng['warm']['misses']} obligations "
                "(the cache stopped answering)")
        if eng["proved"] != eng["obligations"]:
            failures.append(
                f"verif_perf: only {eng['proved']} of {eng['obligations']} corpus "
                "obligations proved (the solver regressed)")
        if not failures:
            print(f"bench_gate: verif_perf ok — warm speedup {speedup:.1f}x "
                  f"(floor {floor:.1f}x), {eng['proved']}/{eng['obligations']} proved")

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

# --- spec_throughput: the hardware models' speed relative to the cached
# spec machine, so a slower host moves numerator and denominator together.
def hw_ratios(doc):
    cores = {c["config"]: c["steps_per_sec"] for c in doc["data"]["cores"]}
    spec = next(v for k, v in cores.items() if "cached" in k and "uncached" not in k)
    return {model: cores[model] / spec
            for model in ("single-cycle hardware model", "pipelined hardware model")}


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

if failures:
    print()
    for f in failures:
        print(f"bench_gate FAIL: {f}")
    print()
    print("bench_gate: if the new numbers are intended, commit the fresh records as "
          "the new baselines (cp the fresh *.json over BENCH_*.json); to skip this "
          "gate once, rerun with BENCH_GATE_SKIP=1.")
    sys.exit(1)

print("bench_gate: no perf regressions")
EOF

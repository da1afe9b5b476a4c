#!/usr/bin/env python3
"""Steadiness proof for the benchmark: run every workload once per seed,
then report each end-to-end metric's spread across seeds.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads fault_sweep,triage]
    python3 perfbench/steadiness.py --compare perfbench/out/steady_1-10.json \
                                              perfbench/out/steady_1001-1010.json

Spread is (Q3 - Q1) / median over the runs, with the quartiles of
`statistics.quantiles(values, n=4)`. Every metric's spread, set-up time
included, must stay within the metric's bound in BENCHMARK.json; the
target is a third of the bound. `--compare` checks that the second set's
medians are not worse than the first's by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def collect(workloads, seed_list, seconds):
    values = {w: {m: [] for m in METRICS} for w in workloads}
    for w in workloads:
        for s in seed_list:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(s),
                   "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {s}: run not correct: {result}")
            for m in METRICS:
                values[w][m].append(result["metrics"][m]["value"])
            print(f"{w} seed {s}: " + ", ".join(
                f"{m}={result['metrics'][m]['value']:.6g}" for m in METRICS), flush=True)
    return values


def report(values):
    ok = True
    for w, per_metric in values.items():
        for m, vs in per_metric.items():
            bound = METRICS[m]["bound"]
            s = spread(vs)
            ok &= s <= bound
            verdict = "ok" if s < bound / 3 else "above bound/3" if s <= bound else "ABOVE BOUND"
            print(f"{w:>14} {m:>12}: median {statistics.median(vs):12.6g}  "
                  f"spread {s:7.2%}  bound {bound:4.0%}  {verdict}")
    return ok


def compare(a, b):
    ok = True
    for w in a:
        for m, vs in a[w].items():
            ma, mb = statistics.median(vs), statistics.median(b[w][m])
            worse = (mb - ma) / ma if METRICS[m]["better"] == "lower" else (ma - mb) / ma
            fine = worse <= METRICS[m]["bound"]
            ok &= fine
            print(f"{w:>14} {m:>12}: {ma:12.6g} -> {mb:12.6g}  worse by {worse:7.2%}  "
                  f"bound {METRICS[m]['bound']:.0%}  {'ok' if fine else 'REGRESSED'}")
    return ok


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--compare", nargs=2, metavar="SET")
    args = p.parse_args()
    if args.compare:
        a, b = (json.loads(Path(f).read_text()) for f in args.compare)
        return 0 if compare(a, b) else 1
    workloads = args.workloads.split(",")
    values = collect(workloads, seeds(args.seeds), args.seconds)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    every = workloads == [w["name"] for w in SPEC["workloads"]]
    path = out / (f"steady_{args.seeds}.json" if every
                  else f"steady_{args.seeds}_{'+'.join(workloads)}.json")
    path.write_text(json.dumps(values, indent=1) + "\n")
    print(f"wrote {path}")
    return 0 if report(values) else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the lightbulb stack's benchmark.

One workload, as a checked run (run from the repository root):

    python3 perfbench/run.py --workload fault_sweep --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: every end-to-end metric of
BENCHMARK.json with `--trace 0`, every per-layer metric with `--trace 1`.
The line before it carries the run's host metadata and check details.

All four workloads, untraced then traced, with a summary table, failed
fractions and tracing overhead (written to perfbench/out/summary.json):

    python3 perfbench/run.py [--seed 1] [--seconds 25]

`--seconds` defaults to `run_seconds` of BENCHMARK.json.

The benchmark's own tests (tampered references must fail, one-op smoke run
of every workload):

    python3 perfbench/run.py --selftest

Each workload runs in its own single-threaded process, built in release
mode into $CARGO_TARGET_DIR (default: .bench_build at the repository root).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
WORKLOADS = ["fault_sweep", "triage", "refinement", "driver_verify"]
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))


def cargo(*args):
    cmd = ["cargo", *args, "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    return subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    if cargo("build", "--quiet") != 0:
        return None
    binary = target_dir() / "release" / "perfbench"
    return binary if binary.exists() else None


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """SHA-256 over the sources the benchmark builds (a git revision
    substitute for checkouts that are not repositories)."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", HERE / "Cargo.toml", HERE / "Cargo.lock"]
    for d in ["src", "crates", "vendor", "perfbench/src"]:
        files += sorted(p for p in (ROOT / d).rglob("*") if p.is_file() and "target" not in p.parts)
    for p in files:
        if p.exists():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def host_metadata(workload, seed):
    git_rev = None
    if (ROOT / ".git").exists():
        git_rev = command_output(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
    return {
        "cpus": os.cpu_count(),
        "profile": "release",
        "rustc": command_output(["rustc", "--version"]),
        "git_rev": git_rev,
        "source_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
    }


def run_binary(binary, workload, seed, seconds, trace):
    """Runs one measuring process and returns its result object."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--reference", str(REFERENCE)]
    if trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--chrome", str(OUT / f"chrome_{workload}_seed{seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: benchmark process exited with {proc.returncode}")
    return json.loads(lines[-1])


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics(trace):
    return {m["name"] for m in spec()["per_layer" if trace else "end_to_end"]}


def measure(binary, workload, seed, seconds, trace):
    """One benchmark run: the measuring process, with the declared metric
    set checked."""
    detail = run_binary(binary, workload, seed, seconds, trace)
    metrics = detail.pop("metrics")
    missing = declared_metrics(trace) ^ set(metrics)
    if missing:
        raise RuntimeError(f"{workload}: metrics differ from BENCHMARK.json: {sorted(missing)}")
    return detail, metrics


def print_table(rows):
    width = max(len(r[0]) for r in rows)
    for name, value, unit in rows:
        log(f"  {name:<{width}}  {value:>14.6g}  {unit}")


def one(args, binary):
    detail, metrics = measure(binary, args.workload, args.seed, args.seconds, args.trace == 1)
    host = host_metadata(args.workload, args.seed)
    record = {"host": host, "detail": detail, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    log(f"{args.workload} (seed {args.seed}, trace {args.trace}): "
        f"{detail['attempted']} ops, {detail['failed']} failed")
    print_table([(k, v["value"], v["unit"]) for k, v in metrics.items()])
    print(json.dumps({"host": host, "detail": detail}))
    print(json.dumps({"correct": detail["correct"], "attempted": detail["attempted"],
                      "failed": detail["failed"], "metrics": metrics}))
    return 0


def run_all(args, binary):
    summary = {"host": host_metadata("all", args.seed), "workloads": {}}
    ok = True
    for w in WORKLOADS:
        plain, metrics = measure(binary, w, args.seed, args.seconds, False)
        traced, layers = measure(binary, w, args.seed, args.seconds, True)
        failed_frac = plain["failed"] / plain["attempted"]
        overhead = 1 - layers["trace.ops_per_s"]["value"] / metrics["ops_per_s"]["value"]
        ok &= plain["correct"] and traced["correct"]
        summary["workloads"][w] = {
            "untraced": {"detail": plain, "metrics": metrics},
            "traced": {"detail": traced, "metrics": layers},
            "failed_frac": failed_frac,
            "tracing_overhead": overhead,
        }
        log(f"\n== {w}: {plain['attempted']} ops, failed_frac {failed_frac:g}, "
            f"traced/untraced ops_per_s overhead {overhead:.1%}")
        print_table([(k, v["value"], v["unit"]) for k, v in metrics.items()]
                    + [("failed_frac", failed_frac, "fraction"),
                       ("op_p50_ms", plain["op_p50_ms"], "ms")])
        log("  -- traced, per layer --")
        print_table([(k, v["value"], v["unit"]) for k, v in layers.items()])
    OUT.mkdir(exist_ok=True)
    (OUT / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    log(f"\nwrote {OUT / 'summary.json'}")
    print(json.dumps({w: {k: v["value"] for k, v in s["untraced"]["metrics"].items()}
                      for w, s in summary["workloads"].items()}))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--record", action="store_true",
                   help="re-record perfbench/reference.json from the current program")
    args = p.parse_args()
    if args.selftest:
        return cargo("test", "--quiet")
    try:
        if args.seconds is None:
            args.seconds = spec()["run_seconds"]
    except (OSError, ValueError, KeyError) as e:
        log(f"perfbench: cannot read run_seconds from BENCHMARK.json: {e}")
        return 1
    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1
    if args.record:
        return subprocess.run([str(binary), "--record", "--reference", str(REFERENCE)]).returncode
    try:
        return one(args, binary) if args.workload else run_all(args, binary)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())

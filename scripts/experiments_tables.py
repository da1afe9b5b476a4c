#!/usr/bin/env python3
"""Regenerates the record-derived tables in EXPERIMENTS.md.

Each table sits between a `<!-- begin NAME -->` and an `<!-- end NAME -->`
marker and is rewritten from the committed BENCH_*.json record it names,
so the document never quotes a hand-copied figure. Run from anywhere:

    python3 scripts/experiments_tables.py

`crates/bench/tests/experiments_doc.rs` fails when a quoted figure and its
record disagree at the printed precision.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec_throughput():
    data = json.loads((ROOT / "BENCH_spec_throughput.json").read_text())["data"]
    cores = data["cores"]
    spec = cores[0]["steps_per_sec"]
    lines = [
        "<!-- generated from BENCH_spec_throughput.json by scripts/experiments_tables.py -->",
        "",
        "| core | throughput | vs cached spec machine |",
        "|------|-----------:|-----------------------:|",
    ]
    for c in cores:
        lines.append(f"| {c['config']} | {c['steps_per_sec'] / 1e6:.1f} Msteps/s "
                     f"| {c['steps_per_sec'] / spec:.3f}× |")
    hits, misses = data["icache"]["hits"], data["icache"]["misses"]
    lines += [
        "",
        f"Decode cache vs seed path: **{data['cached_vs_seed_speedup']:.2f}×**; "
        f"decode-cache hit rate {100 * hits / (hits + misses):.2f}% "
        f"({hits} hits, {misses} misses).",
    ]
    m = data["matcher"]
    lines += [
        "",
        f"Trace monitor, cold per seed, on the quick-pass traces of fault-sweep "
        f"plan seeds 0–{m['seeds'] - 1} (both models, {m['events']} events): "
        f"**{m['events_per_sec'] / 1e6:.2f} Mevents/s**, "
        f"{m['vs_cached_spec']:.4f}× the cached spec machine's steps/s.",
    ]
    return "\n".join(lines)


def fault_sweep():
    d = json.loads((ROOT / "BENCH_fault_sweep.json").read_text())["data"]
    return "\n".join([
        "<!-- generated from BENCH_fault_sweep.json by scripts/experiments_tables.py -->",
        "",
        "| metric | value |",
        "|---|---|",
        f"| seeds swept / conclusive / failures | {d['seeds']} / {d['conclusive']} / {d['failures']} |",
        f"| wall clock | {d['seconds']:.1f} s ({d['seeds_per_sec']:.1f} seeds/s; adaptive "
        f"{d['quick_cycles']}-cycle quick pass, continued to {d['max_cycles']} cycles) |",
        f"| faults injected (device side) | {d['faults_injected']} |",
        f"| driver retries observed in traces | {d['driver_retries']} |",
        f"| driver re-initializations | {d['driver_reinits']} |",
    ])


def table3():
    rows = json.loads((ROOT / "BENCH_table3.json").read_text())["data"]["rows"]
    lines = [
        "<!-- generated from BENCH_table3.json by scripts/experiments_tables.py -->",
        "",
        "| component | file | LoC | paper's corresponding row |",
        "|---|---|---:|---|",
    ]
    for r in rows:
        file = f"`{r['file']}`" if r["file"] else ""
        paper = r["paper's corresponding row"]
        lines.append(f"| {r['component']} | {file} | {r['LoC']} | {paper} |")
    return "\n".join(lines)


def table4():
    rows = json.loads((ROOT / "BENCH_table4.json").read_text())["data"]["rows"]
    lines = [
        "<!-- generated from BENCH_table4.json by scripts/experiments_tables.py -->",
        "",
        "| layer | implementation | checking (tests) | overhead |",
        "|---|---:|---:|---:|",
    ]
    for r in rows:
        lines.append(f"| {r['layer']} | {r['implementation']} | {r['checking (tests)']} "
                     f"| {r['overhead']} |")
    return "\n".join(lines)


def verif_perf():
    checks = json.loads((ROOT / "BENCH_verif_perf.json").read_text())["data"]["checks"]
    lines = [
        "<!-- generated from BENCH_verif_perf.json by scripts/experiments_tables.py -->",
        "",
        "| check | wall clock | work |",
        "|---|---:|---|",
    ]
    for c in checks:
        lines.append(f"| {c['check']} | {c['seconds']:.3f} s | {c['work']} |")
    return "\n".join(lines)


def driver_proofs():
    d = json.loads((ROOT / "BENCH_verif_perf.json").read_text())["data"]["driver_proofs"]
    lines = [
        "<!-- generated from BENCH_verif_perf.json by scripts/experiments_tables.py -->",
        "",
        "| proof | obligations | paths | solver queries | wall clock |",
        "|---|---:|---:|---:|---:|",
    ]
    for name, r in [(p["function"], p) for p in d["proofs"]] + [("total", d)]:
        lines.append(f"| {name} | {r['obligations']} | {r['paths']} | {r['solver_queries']} "
                     f"| {1e3 * r['seconds']:.2f} ms |")
    return "\n".join(lines)


FIG_PERF_LABELS = {
    "SPI pipelining": "SPI pipelining (interleaved → pipelined driver)",
    "timeout logic": "timeout logic (on → off)",
    "compiler optimizations": "compiler optimizations (naive verified-style → optimizing)",
    "processor": "processor (4-stage pipelined → idealized 1-IPC core)",
}


def fig_perf_record():
    return json.loads((ROOT / "BENCH_fig_perf.json").read_text())["data"]


def fig_perf():
    d = fig_perf_record()
    configs = d["configs"]
    lines = [
        "<!-- generated from BENCH_fig_perf.json by scripts/experiments_tables.py -->",
        "",
        "| factor | paper | measured (recorded run) | cycles |",
        "|---|---|---|---|",
    ]
    for f in d["factors"]:
        lines.append(f"| {FIG_PERF_LABELS[f['factor']]} | {f['paper']:.1f}× | {f['measured']:.2f}× "
                     f"| {f['cycles_before']} → {f['cycles_after']} |")
    lines.append(f"| **product** | ≈{d['total_paper']:.0f}× | **{d['total_measured']:.2f}×** "
                 f"| {configs[0]['latency_cycles']} → {configs[-1]['latency_cycles']} |")
    return "\n".join(lines)


def fig_perf_regalloc():
    a = fig_perf_record()["regalloc_ablation"]
    return (f"compiling the same sources with every variable spilled costs "
            f"{a['spill_all_cycles']} cycles vs {a['regalloc_cycles']} with the allocator — "
            f"the allocator buys {a['ratio']:.2f}×.")


def fig_perf_spi():
    lines = [
        "<!-- generated from BENCH_fig_perf.json by scripts/experiments_tables.py -->",
        "",
        "| SPI cycles/byte | latency (cycles) |",
        "|---|---|",
    ]
    for r in fig_perf_record()["spi_sweep"]:
        lines.append(f"| {r['spi_cycles_per_byte']} | {r['latency_cycles']} |")
    return "\n".join(lines)


def fig4_btb():
    b = fig_perf_record()["btb_ablation"]
    return (f"the nested-loop workload finishes in {b['with_btb_cycles']} cycles with the "
            f"BTB vs {b['without_btb_cycles']} without: a {b['speedup']:.2f}× speedup "
            f"(IPC {b['with_btb_ipc']:.2f} → {b['without_btb_ipc']:.2f}).")


def telemetry():
    c = json.loads((ROOT / "BENCH_table1.json").read_text())["data"]["counters"]
    cycles = c["pipeline.cycles"]
    hits, misses = c["pipeline.btb.hit"], c["pipeline.btb.miss"]
    return (f"IPC {c['pipeline.retired'] / cycles:.2f}, "
            f"stall rate {100 * c['pipeline.stall.total'] / cycles:.1f}% "
            f"({c['pipeline.stall.raw']} RAW and {c['pipeline.stall.waw']} WAW stall cycles), "
            f"flush rate {100 * c['pipeline.flush.total'] / cycles:.2f}% "
            f"({c['pipeline.flush.total']} flushes, {c['pipeline.flush.mispredict']} of them "
            f"BTB mispredicts), BTB hit rate {100 * hits / (hits + misses):.1f}%, "
            f"SPI wire busy {100 * c['board.spi.busy_ticks'] / c['board.ticks']:.2f}% "
            f"of board ticks.")


TABLES = {
    "spec_throughput": spec_throughput,
    "fault_sweep": fault_sweep,
    "table3": table3,
    "table4": table4,
    "verif_perf": verif_perf,
    "driver_proofs": driver_proofs,
    "fig_perf": fig_perf,
    "fig_perf_regalloc": fig_perf_regalloc,
    "fig_perf_spi": fig_perf_spi,
    "fig4_btb": fig4_btb,
    "telemetry": telemetry,
}


def main():
    path = ROOT / "EXPERIMENTS.md"
    text = path.read_text()
    for name, render in TABLES.items():
        pattern = re.compile(
            rf"(<!-- begin {name} -->).*?(<!-- end {name} -->)", re.DOTALL)
        if not pattern.search(text):
            raise SystemExit(f"EXPERIMENTS.md has no '{name}' markers")
        text = pattern.sub(lambda m: f"{m.group(1)}\n{render()}\n{m.group(2)}", text)
    path.write_text(text)


if __name__ == "__main__":
    main()

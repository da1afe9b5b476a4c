//! The fault-injection sweep: thousands of seeded device-fault plans run
//! against the hardened lightbulb stack on both the pipelined processor
//! and the ISA spec machine, each run checked for spec satisfaction and
//! replay trace equality. `--json` prints a `bench-report/v1` record on
//! stdout (the committed one is `BENCH_fault_sweep.json`); without it the
//! bin prints the EXPERIMENTS.md block rendered from that record.
//!
//! Every seed derives a deterministic `FaultPlan` (delayed/never-ready
//! registers, SPI wire garbage, RX stalls, dropped/truncated/corrupted
//! frames, spurious RX flags) and must be *recoverable*: the drivers'
//! bounded retries and re-initialization keep every trace inside
//! `goodHlTrace`. The sweep also self-checks determinism: the same seed
//! range swept twice (and with different shard counts) must publish
//! byte-identical counter reports.
//!
//! Per-seed panics are caught and reported. Each seed is checked once, at
//! the sweep's config, so `--replay-plan` on a triage artifact reruns the
//! check the seed failed. Failing seeds are triaged automatically —
//! delta-debugged to a 1-minimal fault plan with a named divergence site,
//! written as `TRIAGE_fault_sweep_seed<N>.json`.
//!
//! Flags (`--help` lists them; an unknown flag, a missing value or a
//! number that does not parse exits 2 before any work):
//! * `--seeds N` (default 1000), `--shards N` (default: one per hardware
//!   thread), `--json`;
//! * `--triage-dir DIR` (where triage artifacts go; default: the
//!   workspace root);
//! * `--triage-demo` (run a planted unrecoverable plan through the full
//!   triage path and write its artifact — the CI exercise that keeps the
//!   red-sweep workflow from rotting);
//! * `--replay-plan PATH` (re-run one plan from a `fault-plan/v1` or
//!   `triage-report/v1` file: the one-liner a triage artifact names).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use bench::{
    cli, counters_json, emit_json, experiments, render_table, workspace_root, Flag, Takes, JSON,
};
use lightbulb_system::devices::FaultPlan;
use lightbulb_system::integration::differential::{
    default_shards, fault_check_plan, fault_sweep, fault_sweep_with, FaultSweepConfig,
    FaultSweepOptions,
};
use lightbulb_system::integration::triage::write_atomic;
use lightbulb_system::integration::{build_image, triage_plan};
use obs::json::Value;

/// The flags `fault_sweep` takes.
const FLAGS: &[Flag] = &[
    Flag {
        name: "--seeds",
        takes: Takes::Number,
        help: "plan seeds to sweep, from 0 (default 1000)",
    },
    Flag {
        name: "--shards",
        takes: Takes::Number,
        help: "shards (default: one per hardware thread)",
    },
    JSON,
    Flag {
        name: "--triage-dir",
        takes: Takes::Path,
        help: "where triage artifacts go (default: the workspace root)",
    },
    Flag {
        name: "--triage-demo",
        takes: Takes::Nothing,
        help: "run the planted unrecoverable plan through triage and write its artifact",
    },
    Flag {
        name: "--replay-plan",
        takes: Takes::Path,
        help: "re-run one plan from a fault-plan/v1 or triage-report/v1 file",
    },
];

/// The planted unrecoverable plan for `--triage-demo`: BYTE_TEST junk far
/// past the driver's bring-up budget (initialization can never succeed,
/// so no frame is ever delivered — a liveness failure under
/// `require_done`), buried in noise atoms the minimizer must strip.
fn demo_plan() -> FaultPlan {
    FaultPlan {
        byte_test_junk_reads: 10_000,
        spurious_rx_reads: vec![40, 90],
        wire_garbage: vec![(25, 0x5A), (130, 0xA5)],
        rx_stalls: vec![(60, 9)],
        ..FaultPlan::none()
    }
}

/// `--triage-demo`: exercise the whole red-sweep workflow on the planted
/// plan — fail, shrink, locate, write the artifact — and verify the
/// artifact round-trips. Exits nonzero if any triage promise breaks.
fn run_triage_demo(triage_dir: &std::path::Path) -> ExitCode {
    let cfg = FaultSweepConfig {
        require_done: true,
        ..FaultSweepConfig::default()
    };
    let image = build_image(&cfg.system);
    let plan = demo_plan();
    let Some(report) = triage_plan(&plan, &cfg, &image) else {
        eprintln!("triage demo: the planted plan unexpectedly passes — demo is broken");
        return ExitCode::from(2);
    };
    let original = report.original.atoms().len();
    let minimal = report.minimal.atoms().len();
    let path = triage_dir.join("TRIAGE_fault_sweep_demo.json");
    if let Err(e) = write_atomic(&path, &report.to_json().render()) {
        eprintln!("triage demo: could not write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    let table = vec![
        vec!["original atoms".to_string(), original.to_string()],
        vec!["minimal atoms".to_string(), minimal.to_string()],
        vec!["probes".to_string(), report.probes.to_string()],
        vec!["error".to_string(), report.error.to_string()],
        vec!["divergence".to_string(), report.site.description.clone()],
        vec!["artifact".to_string(), path.display().to_string()],
    ];
    print!(
        "{}",
        render_table(
            "triage demo (planted unrecoverable plan)",
            &["metric", "value"],
            &table
        )
    );
    if minimal >= original {
        eprintln!("triage demo: shrinking removed nothing ({original} -> {minimal} atoms)");
        return ExitCode::from(2);
    }
    // The artifact's repro path must work: replaying the minimal plan
    // from the file we just wrote must reproduce the failure.
    match replay_file(&path, true) {
        Ok(Some(_)) => ExitCode::SUCCESS,
        Ok(None) => {
            eprintln!("triage demo: replaying the minimal plan did not reproduce the failure");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("triage demo: replay failed: {e}");
            ExitCode::from(2)
        }
    }
}

/// Loads a plan from a `fault-plan/v1` or `triage-report/v1` document and
/// runs [`fault_check_plan`] on it once. Returns the error the plan
/// produces (`None`: the plan passes).
fn replay_file(path: &std::path::Path, quiet: bool) -> Result<Option<String>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = obs::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    // A triage report embeds the minimal plan and remembers whether the
    // failure was a liveness one (workload_incomplete needs require_done
    // to reproduce); a bare plan document replays in safety mode.
    let (plan_doc, require_done) = match doc.get("schema").and_then(Value::as_str) {
        Some("triage-report/v1") => (
            doc.get("minimal")
                .ok_or("triage report without a minimal plan")?,
            doc.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Value::as_str)
                == Some("workload_incomplete"),
        ),
        _ => (&doc, false),
    };
    let plan = FaultPlan::from_json(plan_doc).map_err(|e| format!("{}: {e}", path.display()))?;
    let cfg = FaultSweepConfig {
        require_done,
        ..FaultSweepConfig::default()
    };
    let image = build_image(&cfg.system);
    let mut counters = obs::Counters::new();
    match fault_check_plan(&plan, &cfg, &image, &mut counters) {
        Ok(()) => {
            if !quiet {
                println!(
                    "replay: plan (seed {}, {} atoms) passes",
                    plan.seed,
                    plan.atoms().len()
                );
            }
            Ok(None)
        }
        Err(e) => {
            if !quiet {
                println!(
                    "replay: plan (seed {}, {} atoms) fails: {e}",
                    plan.seed,
                    plan.atoms().len()
                );
            }
            Ok(Some(e.to_string()))
        }
    }
}

fn main() -> ExitCode {
    let args = cli(env!("CARGO_BIN_NAME"), FLAGS);
    let triage_dir = args
        .text("--triage-dir")
        .map_or_else(workspace_root, PathBuf::from);

    if args.has("--triage-demo") {
        return run_triage_demo(&triage_dir);
    }
    if let Some(path) = args.text("--replay-plan") {
        return match replay_file(std::path::Path::new(&path), false) {
            Ok(None) => ExitCode::SUCCESS,
            Ok(Some(_)) => ExitCode::from(1),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }

    let seeds = args.number("--seeds").unwrap_or(1000);
    let shards = args
        .number("--shards")
        .map_or_else(default_shards, |n| n as usize);
    let cfg = FaultSweepConfig::default();

    let opts = FaultSweepOptions {
        triage_dir: Some(triage_dir),
    };

    let t0 = Instant::now();
    let report = fault_sweep_with(0..seeds, shards, &cfg, &opts);
    let secs = t0.elapsed().as_secs_f64();
    report.expect_clean("fault sweep");

    // Determinism self-check on a small prefix: same seeds, different
    // shard count, byte-identical counter report.
    let probe = seeds.min(16);
    let serial = fault_sweep(0..probe, 1, &cfg);
    let sharded = fault_sweep(0..probe, 4, &cfg);
    let strip = |c: &obs::Counters| {
        let mut out = obs::Counters::new();
        for (k, v) in c.iter() {
            if k != "core.diff.shards" {
                out.set(k, v);
            }
        }
        counters_json(&out).render()
    };
    let deterministic = strip(&serial.counters) == strip(&sharded.counters);
    assert!(deterministic, "fault sweep must be shard-count invariant");

    let injected = report.counters.get("devices.faults.injected");
    let retries = report.counters.get("driver.retries");
    let reinits = report.counters.get("driver.reinit");

    let data = Value::obj()
        .field(
            "workload",
            Value::Str("seeded fault plans vs hardened drivers".into()),
        )
        .field("seeds", Value::UInt(seeds))
        .field("shards", Value::UInt(report.shards as u64))
        .field("conclusive", Value::UInt(report.conclusive))
        .field("failures", Value::UInt(report.failures.len() as u64))
        .field("panicked", Value::UInt(report.panicked.len() as u64))
        .field("seconds", Value::Float(secs))
        .field("seeds_per_sec", Value::Float(seeds as f64 / secs))
        .field("frames_per_run", Value::UInt(cfg.frames as u64))
        .field("quick_cycles", Value::UInt(cfg.quick_cycles))
        .field("max_cycles", Value::UInt(cfg.max_cycles))
        .field("faults_injected", Value::UInt(injected))
        .field("driver_retries", Value::UInt(retries))
        .field("driver_reinits", Value::UInt(reinits))
        .field("deterministic", Value::Bool(deterministic))
        .field(
            "triage",
            Value::Arr(report.triage.iter().map(|t| t.to_json()).collect()),
        )
        .field("counters", counters_json(&report.counters));
    if args.has("--json") {
        emit_json("fault_sweep", data);
    } else {
        experiments::print_blocks("fault_sweep", data);
        println!("determinism: shard-count invariance self-check passed");
    }
    ExitCode::SUCCESS
}

//! The fault-injection sweep: thousands of seeded device-fault plans run
//! against the hardened lightbulb stack on both the pipelined processor
//! and the ISA spec machine, each run checked for spec satisfaction and
//! replay trace equality. `--json` prints a `bench-report/v1` record on
//! stdout (the committed one is `BENCH_fault_sweep.json`).
//!
//! Every seed derives a deterministic `FaultPlan` (delayed/never-ready
//! registers, SPI wire garbage, RX stalls, dropped/truncated/corrupted
//! frames, spurious RX flags) and must be *recoverable*: the drivers'
//! bounded retries and re-initialization keep every trace inside
//! `goodHlTrace`. The sweep also self-checks determinism: the same seed
//! range swept twice (and with different shard counts) must publish
//! byte-identical counter reports.
//!
//! The sweep is crash-resilient: per-seed panics are caught and reported,
//! transient budget exhaustion retries with escalating budgets, and
//! `--checkpoint`/`--resume` make a killed run continue where it stopped
//! with a byte-identical final report. Failing seeds are triaged
//! automatically — delta-debugged to a 1-minimal fault plan with a named
//! divergence site, written as `TRIAGE_fault_sweep_seed<N>.json`.
//!
//! Flags:
//! * `--seeds N` (default 1000), `--shards N` (default: one per hardware
//!   thread), `--json`;
//! * `--checkpoint PATH` (write progress atomically; default cadence
//!   every 64 seeds, `--checkpoint-every N` to change);
//! * `--resume PATH` (continue a killed sweep from its checkpoint);
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

use bench::{counters_json, emit_json, json_mode, render_table, workspace_root};
use lightbulb_system::devices::FaultPlan;
use lightbulb_system::integration::differential::{
    default_shards, fault_check_plan, fault_sweep, fault_sweep_with, CheckpointConfig,
    FaultSweepConfig, FaultSweepOptions, RetryPolicy, SweepOptions,
};
use lightbulb_system::integration::{build_image, triage_plan, SweepCheckpoint};
use obs::json::Value;

fn arg_value(name: &str) -> Option<u64> {
    arg_str(name).and_then(|v| v.parse().ok())
}

fn arg_str(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn has_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

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
    if let Err(e) =
        lightbulb_system::integration::checkpoint::write_atomic(&path, &report.to_json().render())
    {
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
    let triage_dir = arg_str("--triage-dir").map_or_else(workspace_root, PathBuf::from);

    if has_flag("--triage-demo") {
        return run_triage_demo(&triage_dir);
    }
    if let Some(path) = arg_str("--replay-plan") {
        return match replay_file(std::path::Path::new(&path), false) {
            Ok(None) => ExitCode::SUCCESS,
            Ok(Some(_)) => ExitCode::from(1),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }

    let seeds = arg_value("--seeds").unwrap_or(1000);
    let shards = arg_value("--shards").unwrap_or(default_shards() as u64) as usize;
    let cfg = FaultSweepConfig::default();

    // Checkpoint/resume plumbing. A resume without an explicit
    // --checkpoint keeps writing to the file it resumed from.
    let resume_path = arg_str("--resume").map(PathBuf::from);
    let checkpoint_path = arg_str("--checkpoint")
        .map(PathBuf::from)
        .or_else(|| resume_path.clone());
    let resume = match &resume_path {
        Some(path) => match SweepCheckpoint::load(path) {
            Ok(cp) => {
                // Validate here, so a wrong --seeds/--shards refuses
                // cleanly instead of panicking inside the sweep.
                if let Err(e) = cp.validate(0..seeds, shards, Some("fault_sweep")) {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
                println!(
                    "resuming from {}: {} of {} seeds already done",
                    path.display(),
                    cp.completed(),
                    cp.total
                );
                Some(cp)
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let opts = FaultSweepOptions {
        sweep: SweepOptions {
            retry: RetryPolicy::escalating(),
            checkpoint: checkpoint_path.as_ref().map(|path| CheckpointConfig {
                path: path.clone(),
                every: arg_value("--checkpoint-every").unwrap_or(64).max(1),
                tag: "fault_sweep".to_string(),
            }),
            resume,
            cancel: None,
        },
        triage: 3,
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
    let retried = report.counters.get("core.diff.retried_seeds");
    let recovered = report.counters.get("core.diff.recovered_seeds");

    if json_mode() {
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
            .field("retried_seeds", Value::UInt(retried))
            .field("recovered_seeds", Value::UInt(recovered))
            .field("resumed", Value::Bool(resume_path.is_some()))
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
        emit_json("fault_sweep", data);
        return ExitCode::SUCCESS;
    }

    let table = vec![
        vec!["seeds swept".to_string(), report.total.to_string()],
        vec!["conclusive".to_string(), report.conclusive.to_string()],
        vec!["failures".to_string(), report.failures.len().to_string()],
        vec!["panicked".to_string(), report.panicked.len().to_string()],
        vec![
            "retried / recovered".to_string(),
            format!("{retried} / {recovered}"),
        ],
        vec!["shards".to_string(), report.shards.to_string()],
        vec!["wall clock".to_string(), format!("{secs:.2} s")],
        vec![
            "throughput".to_string(),
            format!("{:.2} seeds/s", seeds as f64 / secs),
        ],
        vec!["faults injected".to_string(), injected.to_string()],
        vec!["driver retries".to_string(), retries.to_string()],
        vec!["driver re-inits".to_string(), reinits.to_string()],
    ];
    print!(
        "{}",
        render_table(
            "fault-injection sweep (pipelined + spec machine, per seed)",
            &["metric", "value"],
            &table
        )
    );
    println!();
    println!(
        "determinism: shard-count invariance self-check {}",
        if deterministic { "passed" } else { "FAILED" }
    );
    ExitCode::SUCCESS
}

//! The lightbulb stack's benchmark: four checked workloads, each run in
//! its own process, timed through the entry points users call, with a
//! separate traced mode that times the calls into each layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--chrome <path>] [--reference <path>]
//! perfbench --record [--reference <path>]      # re-record reference.json
//! ```
//!
//! The last stdout line is one JSON object: the op counts, the check
//! verdict, and the measured metrics (end-to-end untraced, per-layer
//! traced). `run.py` wraps this binary and prints the benchmark's result.

mod common;
mod driver_verify;
mod fault_sweep;
mod reference;
mod refinement;
mod triage;

#[cfg(test)]
mod selftest;

use common::{median, peak_rss_mb, per_layer, timed, Run, PER_LAYER};
use lightbulb_system::obs::json::Value;
use reference::Reference;
use std::path::PathBuf;
use std::process::ExitCode;

pub const WORKLOADS: [&str; 4] = ["fault_sweep", "triage", "refinement", "driver_verify"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    chrome: Option<PathBuf>,
    reference: PathBuf,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: 1,
        seconds: None,
        trace: false,
        chrome: None,
        reference: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/reference.json")),
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<f64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = WORKLOADS
                    .into_iter()
                    .find(|w| *w == name)
                    .ok_or(format!("--workload must be one of {WORKLOADS:?}"))?;
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = Some(number(value()?)?),
            "--trace" => args.trace = value()? == "1",
            "--chrome" => args.chrome = Some(PathBuf::from(value()?)),
            "--reference" => args.reference = PathBuf::from(value()?),
            "--record" => args.record = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.record && (args.workload.is_empty() || args.seconds.is_none()) {
        return Err("a run needs --workload and --seconds".to_string());
    }
    Ok(args)
}

/// A workload's set-up product.
enum Prepared {
    FaultSweep(fault_sweep::Setup),
    Triage(Box<triage::Setup>),
    Refinement(refinement::Setup),
    DriverVerify(driver_verify::Setup),
}

fn prepare(workload: &str) -> Prepared {
    match workload {
        "fault_sweep" => Prepared::FaultSweep(fault_sweep::setup()),
        "triage" => Prepared::Triage(Box::new(triage::setup())),
        "refinement" => Prepared::Refinement(refinement::setup()),
        _ => Prepared::DriverVerify(driver_verify::setup()),
    }
}

/// Runs `workload` until the time budget is used, in this process. The
/// set-up is timed here, and an untraced run repeats it after every op.
pub fn run_workload(
    workload: &'static str,
    reference: &Reference,
    seed: u64,
    seconds: f64,
    max_ops: Option<u64>,
    traced: bool,
) -> Run {
    let (prepared, setup_ms) = timed(|| prepare(workload));
    let mut run = Run::new(seed, seconds, max_ops, traced);
    run.setup_ms.push(setup_ms);
    if !traced {
        run.resetup = Some(Box::new(move || {
            timed(|| std::hint::black_box(prepare(workload))).1
        }));
    }
    run.start();
    match &prepared {
        Prepared::FaultSweep(s) => fault_sweep::run(&mut run, reference, s),
        Prepared::Triage(s) => triage::run(&mut run, reference, s),
        Prepared::Refinement(s) => refinement::run(&mut run, reference, s),
        Prepared::DriverVerify(s) => driver_verify::run(&mut run, reference, s),
    }
    run
}

fn metric(value: f64, unit: &str) -> Value {
    Value::obj()
        .field("value", Value::Float(value))
        .field("unit", Value::Str(unit.to_string()))
}

fn result(args: &Args, run: &Run) -> Value {
    let mut metrics = Value::obj();
    if args.trace {
        let values = per_layer(run);
        for &(name, unit) in PER_LAYER {
            metrics = metrics.field(name, metric(values[name], unit));
        }
    } else if !run.op_ms.is_empty() {
        metrics = metrics
            .field("setup_s", metric(median(&run.setup_ms) / 1e3, "s"))
            .field("ops_per_s", metric(run.ops_per_s(), "1/s"))
            .field("peak_rss_mb", metric(peak_rss_mb(), "MiB"));
    }
    Value::obj()
        .field("workload", Value::Str(args.workload.to_string()))
        .field("seed", Value::UInt(args.seed))
        .field("trace", Value::Bool(args.trace))
        .field("correct", Value::Bool(run.failed == 0 && run.attempted > 0))
        .field("attempted", Value::UInt(run.attempted))
        .field("failed", Value::UInt(run.failed))
        .field("latency_samples", Value::UInt(run.op_ms.len() as u64))
        .field("setup_samples", Value::UInt(run.setup_ms.len() as u64))
        .field("busy_s", Value::Float(run.busy_ms / 1e3))
        .field(
            "op_p50_ms",
            Value::Float(if run.op_ms.is_empty() {
                0.0
            } else {
                median(&run.op_ms)
            }),
        )
        .field(
            "op_ms",
            Value::Arr(run.op_ms.iter().map(|&ms| Value::Float(ms)).collect()),
        )
        .field(
            "failures",
            Value::Arr(run.failures.iter().cloned().map(Value::Str).collect()),
        )
        .field("metrics", metrics)
}

fn record(path: &std::path::Path) -> Result<(), String> {
    let mut reference = Reference {
        proofs: Some(driver_verify::record(&driver_verify::setup())),
        ..Reference::default()
    };
    eprintln!("record: driver proofs {:?}", reference.proofs);
    reference.refinement = refinement::record(&refinement::setup());
    eprintln!("record: {} refinement runs", reference.refinement.len());
    let t = triage::setup();
    reference.liveness = triage::record(&t, triage::Kind::Liveness);
    reference.safety = triage::record(&t, triage::Kind::Safety);
    reference.sweep = fault_sweep::record(&fault_sweep::setup());
    eprintln!("record: {} sweep seeds", reference.sweep.len());
    std::fs::write(path, reference.to_json().render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.record {
        return match record(&args.reference) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let reference = match Reference::load(&args.reference) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run = run_workload(
        args.workload,
        &reference,
        args.seed,
        args.seconds.expect("checked by parse_args"),
        None,
        args.trace,
    );
    for f in &run.failures {
        eprintln!("perfbench: {}: check failed: {f}", args.workload);
    }
    if let (Some(path), Some(tracer)) = (&args.chrome, &run.tracer) {
        if let Err(e) = std::fs::write(path, tracer.chrome().render()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "perfbench: {} spans written to {}",
            tracer.len(),
            path.display()
        );
    }
    println!("{}", result(&args, &run).render());
    ExitCode::SUCCESS
}

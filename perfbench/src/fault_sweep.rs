//! `fault_sweep`: checked fault-sweep seeds, the ROADMAP's unit of work.
//!
//! One op is one seed, checked inside `fault_sweep_with` (1 shard, default
//! config and options). A seed family's input is [`FAMILY_SEEDS`]
//! consecutive plan seeds; a run sweeps them in chunks of [`CHUNK`]
//! (per-sweep set-up is paid once per chunk, as in a real sweep), in the
//! order of [`input_index`]. Every chunk must come back clean and its
//! deterministic counters must equal the sum of the recorded per-seed
//! fingerprints.

use crate::common::{input_index, run_plan, timed, Run, FAMILIES};
use crate::reference::{Fingerprint, Reference};
use lightbulb_system::compiler::CompiledProgram;
use lightbulb_system::devices::FaultPlan;
use lightbulb_system::integration::{
    build_image, fault_sweep_with, FaultSweepConfig, FaultSweepOptions, ProcessorKind, SweepReport,
};
use lightbulb_system::lightbulb::{good_hl_trace, probe};
use std::ops::Range;

/// Plan seeds per family: family `f` sweeps `f * FAMILY_SEEDS..`.
pub const FAMILY_SEEDS: u64 = 8;
/// Seeds per `fault_sweep_with` call, and per latency sample.
pub const CHUNK: u64 = 2;

/// `fault_sweep_with` compiles its image inside every call, so the sweep
/// has no set-up of its own. The workload's set-up is that per-call
/// compile, done once on its own; the traced run's attribution runs on
/// its image.
pub struct Setup {
    pub cfg: FaultSweepConfig,
    pub image: CompiledProgram,
}

pub fn setup() -> Setup {
    let cfg = FaultSweepConfig::default();
    Setup {
        image: build_image(&cfg.system),
        cfg,
    }
}

/// The recorded counters a clean sweep over `seeds` must report.
pub fn expected_fingerprint(
    reference: &Reference,
    seeds: Range<u64>,
) -> Result<Fingerprint, String> {
    let mut sum = Fingerprint::new();
    for seed in seeds {
        let per_seed = reference
            .sweep
            .get(seed as usize)
            .ok_or_else(|| format!("no recorded fingerprint for seed {seed}"))?;
        for (k, v) in per_seed {
            *sum.entry(k.clone()).or_insert(0) += v;
        }
    }
    // The shard count is a property of the sweep, not a per-seed sum.
    sum.insert("core.diff.shards".to_string(), 1);
    Ok(sum)
}

/// The sweep's counters as a fingerprint.
pub fn fingerprint(report: &SweepReport) -> Fingerprint {
    report
        .counters
        .iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// Output check of one sweep chunk.
pub fn check(
    report: &SweepReport,
    seeds: Range<u64>,
    expected: &Fingerprint,
) -> Result<(), String> {
    let n = seeds.end - seeds.start;
    if report.total != n || report.conclusive != n || !report.is_clean() {
        return Err(format!(
            "sweep {seeds:?}: {}/{} conclusive, failures {:?}, panics {:?}",
            report.conclusive, report.total, report.failures, report.panicked
        ));
    }
    let got = fingerprint(report);
    if &got != expected {
        return Err(format!(
            "sweep {seeds:?}: counters {got:?} differ from the recorded fingerprint {expected:?}"
        ));
    }
    Ok(())
}

fn chunk(seed: u64, k: u64) -> Range<u64> {
    let start = input_index(seed, (FAMILY_SEEDS / CHUNK) as usize, k) as u64 * CHUNK;
    start..start + CHUNK
}

pub fn run(run: &mut Run, reference: &Reference, setup: &Setup) {
    let (cfg, opts) = (&setup.cfg, FaultSweepOptions::default());
    let mut k = 0;
    while run.more() {
        let seeds = chunk(run.seed, k);
        let expected = expected_fingerprint(reference, seeds.clone());
        if run.tracer.is_some() {
            traced_chunk(run, k, seeds, setup, &opts, expected);
        } else {
            let (report, ms) = timed(|| fault_sweep_with(seeds.clone(), 1, cfg, &opts));
            let verdict = expected.and_then(|e| check(&report, seeds, &e));
            run.record_group(CHUNK, ms, verdict);
        }
        k += 1;
    }
}

/// The sweep call, then each seed's layers called one by one on the same
/// inputs (the work `fault_check_plan` does per seed), so the sweep's
/// per-seed time splits into layer spans plus a residual (the replay into
/// the single-cycle core, trace scanning and the sweep engine).
fn traced_chunk(
    run: &mut Run,
    k: u64,
    seeds: Range<u64>,
    setup: &Setup,
    opts: &FaultSweepOptions,
    expected: Result<Fingerprint, String>,
) {
    let (cfg, image) = (&setup.cfg, &setup.image);
    let first = k == 0;
    let tr = run.tracer.as_mut().expect("traced run");
    tr.set_op(k);
    let op = tr.begin("perfbench", "op");
    let (report, sweep_ms) = tr.span("integration", "fault_sweep_with", || {
        fault_sweep_with(seeds.clone(), 1, cfg, opts)
    });
    let verdict = expected.and_then(|e| check(&report, seeds.clone(), &e));

    let attribution = tr.begin("perfbench", "attribution");
    let (_, compile_ms) = tr.span("compiler", "build_image", || build_image(&cfg.system));
    let mut sums: Vec<(&'static str, f64)> = vec![("compiler.compile_ms", compile_ms)];
    let mut spanned = compile_ms;
    let mut fp: Vec<(&'static str, u64)> = Vec::new();
    for seed in seeds.clone() {
        let seed_span = tr.begin("integration", "seed");
        let plan = FaultPlan::from_seed(seed);
        let (spec, spec_ms) = tr.span("lightbulb", "good_hl_trace", || {
            good_hl_trace(cfg.system.driver)
        });
        sums.push(("lightbulb.spec_build_ms", spec_ms));
        spanned += spec_ms;

        let mut pipeline_events = Vec::new();
        for kind in [ProcessorKind::Pipelined, ProcessorKind::SpecMachine] {
            let model = run_plan(tr, &plan, cfg, image, kind);
            let full = &model.run;
            spanned += model.ms;
            if kind == ProcessorKind::Pipelined {
                if let Some(rerun_ms) = model.rerun_ms {
                    sums.push(("processor.reruns", 1.0));
                    sums.push(("processor.rerun_ms", rerun_ms));
                }
                sums.push(("processor.pipeline_ms", model.ms));
                sums.push(("processor.quick_runs", 1.0));
                sums.push(("processor.pipeline_cycles", full.cycles as f64));
                sums.push((
                    "processor.pipeline_retired",
                    full.report.counters.get("pipeline.retired") as f64,
                ));
                fp.push((
                    "processor.stall_raw",
                    full.report.counters.get("pipeline.stall.raw"),
                ));
                fp.push((
                    "processor.btb_miss",
                    full.report.counters.get("pipeline.btb.miss"),
                ));
            } else {
                sums.push(("riscv.specmachine_ms", model.ms));
                sums.push(("riscv.specmachine_instret", full.cycles as f64));
            }
            let (ok, match_ms) = tr.span("proglogic", "matches_prefix", || {
                spec.matches_prefix(&full.events)
            });
            std::hint::black_box(ok);
            sums.push(("proglogic.match_ms", match_ms));
            sums.push(("proglogic.events_matched", full.events.len() as f64));
            spanned += match_ms;
            if kind == ProcessorKind::Pipelined {
                pipeline_events = model.run.events;
            }
        }
        std::hint::black_box(probe::scan(&pipeline_events));
        tr.end(seed_span);
    }
    tr.end(attribution);
    let op_ms = tr.end(op);

    sums.push(("core.op_ms", sweep_ms));
    sums.push(("core.seed_residual_ms", sweep_ms - spanned));
    sums.push((
        "core.retried_seeds",
        report.counters.get("core.diff.retried_seeds") as f64,
    ));
    for (key, v) in sums {
        run.add(key, v);
    }
    for (key, v) in fp {
        run.fingerprint_add(first, key, v);
    }
    for (key, counter) in [
        ("devices.faults_injected", "devices.faults.injected"),
        ("lightbulb.driver_retries", "driver.retries"),
        ("lightbulb.driver_reinits", "driver.reinit"),
        ("compiler.instructions", ""),
    ] {
        let v = if counter.is_empty() {
            image.stats.counters().get("compiler.code.instructions")
        } else {
            report.counters.get(counter)
        };
        run.fingerprint_add(first, key, v);
    }
    run.record_group(CHUNK, op_ms, verdict);
}

/// Records the per-seed fingerprints of every family's plan seeds.
pub fn record(setup: &Setup) -> Vec<Fingerprint> {
    let (cfg, opts) = (&setup.cfg, FaultSweepOptions::default());
    (0..FAMILIES * FAMILY_SEEDS)
        .map(|seed| {
            let report = fault_sweep_with(seed..seed + 1, 1, cfg, &opts);
            assert!(
                report.is_clean(),
                "seed {seed} is not clean: {:?}",
                report.failures
            );
            let mut fp = fingerprint(&report);
            fp.remove("core.diff.shards");
            fp
        })
        .collect()
}

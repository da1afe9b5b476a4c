//! `triage`: the red path. Each op calls `triage_plan` on one planted
//! failure; liveness and safety plants alternate.
//!
//! A plant is a seeded plan of three noise atoms plus one culprit atom, so
//! every plant has the same shape and ddmin makes the same number of
//! probes on each. A seed family's input is [`FAMILY_PLANTS`] plants of
//! each kind; a run goes through them in liveness/safety pairs, in the
//! order of [`input_index`].
//!
//! * Liveness: culprit `ByteTestJunk(10_000)` (bring-up never succeeds) on
//!   the verified image under `require_done`.
//! * Safety: culprit `RxStall(at, reads)` on an image built without driver
//!   timeouts, checked against the verified spec: the unbounded polling
//!   loop leaves `goodHlTrace`, found by `longest_matching_prefix`.

use crate::common::{input_index, run_plan, splitmix, timed, Run, FAMILIES};
use crate::reference::{Reference, TriageRef};
use lightbulb_system::compiler::CompiledProgram;
use lightbulb_system::devices::{FaultAtom, FaultPlan};
use lightbulb_system::integration::{
    build_image, fault_check_plan, shrink_plan, triage_plan, DiffError, FaultSweepConfig,
    ProcessorKind, SystemConfig, TriageReport,
};
use lightbulb_system::lightbulb::{good_hl_trace, DriverOptions};
use lightbulb_system::obs::Counters;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Plants of each kind per family: family `f` uses `f * FAMILY_PLANTS..`.
pub const FAMILY_PLANTS: usize = 1;
/// The liveness culprit.
pub const JUNK_READS: u32 = 10_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Liveness,
    Safety,
}

pub struct Setup {
    /// The verified image and the liveness configuration.
    pub image: CompiledProgram,
    pub live_cfg: FaultSweepConfig,
    /// The image without driver timeouts and the default configuration.
    pub bad_image: CompiledProgram,
    pub safe_cfg: FaultSweepConfig,
}

pub fn setup() -> Setup {
    let safe_cfg = FaultSweepConfig::default();
    let live_cfg = FaultSweepConfig {
        require_done: true,
        ..safe_cfg.clone()
    };
    let bad_system = SystemConfig {
        driver: DriverOptions {
            timeouts: false,
            ..safe_cfg.system.driver
        },
        ..safe_cfg.system
    };
    Setup {
        image: build_image(&live_cfg.system),
        live_cfg,
        bad_image: build_image(&bad_system),
        safe_cfg,
    }
}

impl Setup {
    fn for_kind(&self, kind: Kind) -> (&FaultSweepConfig, &CompiledProgram) {
        match kind {
            Kind::Liveness => (&self.live_cfg, &self.image),
            Kind::Safety => (&self.safe_cfg, &self.bad_image),
        }
    }
}

/// Plant `i` of `kind`: three seeded noise atoms (MISO garbage twice, one
/// spurious RX flag) and the culprit. The plan seed, which also seeds the
/// traffic, is `i`.
pub fn plant(kind: Kind, i: usize) -> FaultPlan {
    let mut r = splitmix(i as u64 ^ 0x7472_6961_6765);
    let mut next = |n: u64| {
        r = splitmix(r);
        r % n
    };
    let mut atoms = match kind {
        Kind::Liveness => vec![FaultAtom::ByteTestJunk(JUNK_READS)],
        Kind::Safety => vec![],
    };
    atoms.push(FaultAtom::WireGarbage(next(3000), 1 + next(255) as u8));
    atoms.push(FaultAtom::WireGarbage(next(3000), 1 + next(255) as u8));
    atoms.push(FaultAtom::SpuriousRx(next(80)));
    if kind == Kind::Safety {
        atoms.push(FaultAtom::RxStall(700 + next(100), 150 + next(250) as u32));
    }
    FaultPlan::from_atoms(i as u64, &atoms)
}

/// Error kind names used in the reference.
pub fn error_kind(e: &DiffError) -> &'static str {
    match e {
        DiffError::SourceUb(_) => "source_ub",
        DiffError::CompileError(_) => "compile_error",
        DiffError::MachineError(_) => "machine_error",
        DiffError::MachineTimeout => "machine_timeout",
        DiffError::TraceMismatch { .. } => "trace_mismatch",
        DiffError::SpecViolation { .. } => "spec_violation",
        DiffError::WorkloadIncomplete { .. } => "workload_incomplete",
    }
}

/// The event index a triage outcome is reported at: where the trace
/// leaves the spec for a safety failure, the divergence site otherwise.
pub fn outcome(report: &TriageReport) -> TriageRef {
    TriageRef {
        error: error_kind(&report.error).to_string(),
        index: match report.error {
            DiffError::SpecViolation { matched, .. } => matched as u64,
            _ => report.site.index as u64,
        },
        minimal: report
            .minimal
            .atoms()
            .iter()
            .map(|a| format!("{a:?}"))
            .collect(),
        probes: report.probes,
    }
}

/// Output check of one triage op: the planted kind of error, the culprit
/// in the minimal plan (liveness), the recorded violating index (safety),
/// and otherwise the recorded outcome.
pub fn check(
    kind: Kind,
    report: Option<&TriageReport>,
    expected: &TriageRef,
) -> Result<(), String> {
    let report = report.ok_or("the planted plan passed: triage found nothing to shrink")?;
    let got = outcome(report);
    let planted = match kind {
        Kind::Liveness => "workload_incomplete",
        Kind::Safety => "spec_violation",
    };
    if got.error != planted {
        return Err(format!(
            "{kind:?} plant failed with {} instead of {planted}",
            report.error
        ));
    }
    if kind == Kind::Liveness
        && !report
            .minimal
            .atoms()
            .contains(&FaultAtom::ByteTestJunk(JUNK_READS))
    {
        return Err(format!(
            "minimal plan {:?} lost the culprit",
            report.minimal.atoms()
        ));
    }
    if kind == Kind::Safety && got.index != expected.index {
        return Err(format!(
            "violation at event {}, recorded at {}",
            got.index, expected.index
        ));
    }
    if &got != expected {
        return Err(format!(
            "{kind:?} triage outcome {got:?} differs from the recorded {expected:?}"
        ));
    }
    Ok(())
}

fn expected(reference: &Reference, kind: Kind, i: usize) -> Result<&TriageRef, String> {
    match kind {
        Kind::Liveness => &reference.liveness,
        Kind::Safety => &reference.safety,
    }
    .get(i)
    .ok_or_else(|| format!("no recorded {kind:?} plant {i}"))
}

/// Op `k` of a run: plants alternate liveness, safety.
fn op_input(seed: u64, k: u64) -> (Kind, usize) {
    let kind = if k.is_multiple_of(2) {
        Kind::Liveness
    } else {
        Kind::Safety
    };
    (kind, input_index(seed, FAMILY_PLANTS, k / 2))
}

pub fn run(run: &mut Run, reference: &Reference, setup: &Setup) {
    let mut k = 0u64;
    // Ops run in liveness/safety pairs, so every run weighs both alike.
    while run.more() || !k.is_multiple_of(2) {
        let (kind, i) = op_input(run.seed, k);
        let plan = plant(kind, i);
        let (cfg, image) = setup.for_kind(kind);
        if run.tracer.is_some() {
            traced_op(
                run,
                k,
                kind,
                &plan,
                cfg,
                image,
                expected(reference, kind, i),
            );
        } else {
            let (report, ms) = timed(|| triage_plan(&plan, cfg, image));
            let verdict =
                expected(reference, kind, i).and_then(|e| check(kind, report.as_ref(), e));
            run.record(ms, verdict);
        }
        k += 1;
    }
}

/// `triage_plan` itself, then its parts: `shrink_plan` with the
/// benchmark's own probe closure (counted and timed), and the minimal
/// plan's pipelined run and spec match. Locate time is `triage_plan`
/// minus the shrink.
fn traced_op(
    run: &mut Run,
    k: u64,
    kind: Kind,
    plan: &FaultPlan,
    cfg: &FaultSweepConfig,
    image: &CompiledProgram,
    expected: Result<&TriageRef, String>,
) {
    let first = k == 0;
    let tr = run.tracer.as_mut().expect("traced run");
    tr.set_op(k);
    let op = tr.begin("perfbench", "op");
    let (report, triage_ms) = tr.span("integration", "triage_plan", || {
        triage_plan(plan, cfg, image)
    });
    let verdict = expected.and_then(|e| check(kind, report.as_ref(), e));

    let attribution = tr.begin("perfbench", "attribution");
    let (_, compile_ms) = tr.span("compiler", "build_image", || build_image(&cfg.system));
    let mut probe_ms = 0.0;
    let mut probe_counters = Counters::new();
    let shrink = tr.begin("integration", "shrink_plan");
    let shrunk = shrink_plan(plan, |candidate| {
        let (result, ms) = tr.span("integration", "fault_check_plan", || {
            catch_unwind(AssertUnwindSafe(|| {
                fault_check_plan(candidate, cfg, image, &mut probe_counters)
            }))
        });
        probe_ms += ms;
        match result {
            Ok(r) => r.err(),
            Err(_) => Some(DiffError::MachineError("probe panicked".to_string())),
        }
    });
    let shrink_ms = tr.end(shrink);
    let probes = shrunk.as_ref().map_or(0, |s| s.2);
    let minimal = shrunk.map_or_else(|| plan.clone(), |s| s.0);

    // The minimal plan's failing run, as a probe sees it: quick pass,
    // full-budget rerun when the workload is unfinished, then the match.
    let model = run_plan(tr, &minimal, cfg, image, ProcessorKind::Pipelined);
    let mut sums = vec![("processor.quick_runs", 1.0)];
    if let Some(rerun_ms) = model.rerun_ms {
        sums.push(("processor.reruns", 1.0));
        sums.push(("processor.rerun_ms", rerun_ms));
    }
    let (pipeline_ms, full) = (model.ms, model.run);
    let (spec, spec_ms) = tr.span("lightbulb", "good_hl_trace", || {
        good_hl_trace(cfg.system.driver)
    });
    let (ok, match_ms) = tr.span("proglogic", "matches_prefix", || {
        spec.matches_prefix(&full.events)
    });
    if !ok {
        let (at, search_ms) = tr.span("proglogic", "longest_matching_prefix", || {
            spec.longest_matching_prefix(&full.events)
        });
        std::hint::black_box(at);
        sums.push(("proglogic.prefix_search_ms", search_ms));
    }
    tr.end(attribution);
    let op_ms = tr.end(op);

    sums.extend([
        ("core.op_ms", triage_ms),
        ("core.triage_probes", probes as f64),
        ("core.triage_probe_ms", probe_ms),
        ("core.triage_locate_ms", triage_ms - shrink_ms),
        ("compiler.compile_ms", compile_ms),
        ("lightbulb.spec_build_ms", spec_ms),
        ("processor.pipeline_ms", pipeline_ms),
        ("processor.pipeline_cycles", full.cycles as f64),
        (
            "processor.pipeline_retired",
            full.report.counters.get("pipeline.retired") as f64,
        ),
        ("proglogic.match_ms", match_ms),
        ("proglogic.events_matched", full.events.len() as f64),
    ]);
    for (key, v) in sums {
        run.add(key, v);
    }
    for (key, v) in [
        (
            "devices.faults_injected",
            probe_counters.get("devices.faults.injected"),
        ),
        (
            "lightbulb.driver_retries",
            probe_counters.get("driver.retries"),
        ),
        (
            "lightbulb.driver_reinits",
            probe_counters.get("driver.reinit"),
        ),
        (
            "processor.stall_raw",
            full.report.counters.get("pipeline.stall.raw"),
        ),
        (
            "processor.btb_miss",
            full.report.counters.get("pipeline.btb.miss"),
        ),
        (
            "compiler.instructions",
            image.stats.counters().get("compiler.code.instructions"),
        ),
    ] {
        run.fingerprint_add(first, key, v);
    }
    run.record(op_ms, verdict);
}

/// Records the triage outcome of every family's plants.
pub fn record(setup: &Setup, kind: Kind) -> Vec<TriageRef> {
    (0..FAMILIES as usize * FAMILY_PLANTS)
        .map(|i| {
            let (cfg, image) = setup.for_kind(kind);
            let report = triage_plan(&plant(kind, i), cfg, image)
                .unwrap_or_else(|| panic!("{kind:?} plant {i} passes"));
            let got = outcome(&report);
            eprintln!("record: {kind:?} plant {i}: {got:?}");
            got
        })
        .collect()
}

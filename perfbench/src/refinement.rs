//! `refinement`: `processor::check_refinement` from cold boot over seeded
//! mixed traffic with a fixed cycle budget. Pipelined core and
//! single-cycle replay only, no trace spec: the control workload that
//! matcher changes must leave alone.

use crate::common::{input_index, timed, Run, FAMILIES};
use crate::reference::{Reference, RefinementRef};
use lightbulb_system::devices::{Board, FaultPlan, SpiConfig, TrafficGen};
use lightbulb_system::integration::{build_image, ProcessorKind, SystemConfig};
use lightbulb_system::lightbulb::probe;
use lightbulb_system::processor::{check_refinement, Divergence, RefinementReport};

/// Traffic seeds per family: family `f` uses `f * FAMILY_SEEDS..`, in the
/// order of [`input_index`].
pub const FAMILY_SEEDS: usize = 1;
/// Cycle budget of one op.
pub const CYCLES: u64 = 5_000_000;
/// Mixed (valid and malformed) frames injected per op.
pub const FRAMES: usize = 8;

pub struct Setup {
    pub system: SystemConfig,
    pub bytes: Vec<u8>,
    pub instructions: u64,
}

pub fn setup() -> Setup {
    let system = SystemConfig::default();
    let image = build_image(&system);
    Setup {
        system,
        bytes: image.bytes(),
        instructions: image.stats.counters().get("compiler.code.instructions"),
    }
}

fn frames(seed: u64) -> Vec<Vec<u8>> {
    TrafficGen::new(seed).mixed(FRAMES).0
}

fn board(frames: &[Vec<u8>]) -> Board {
    let mut board = Board::new(SpiConfig::default());
    for f in frames {
        board.inject_frame(f);
    }
    board
}

fn op(setup: &Setup, board: Board) -> Result<RefinementReport, Divergence> {
    check_refinement(
        &setup.bytes,
        setup.system.ram_bytes,
        board,
        Board::claims,
        setup.system.pipeline,
        CYCLES,
    )
}

pub fn outcome(r: &RefinementReport) -> RefinementRef {
    RefinementRef {
        events: r.events as u64,
        impl_cycles: r.impl_cycles,
        impl_retired: r.impl_retired,
        spec_cycles: r.spec_cycles,
    }
}

/// Output check: `Ok` with the recorded events, cycles and retired
/// instructions.
pub fn check(
    result: &Result<RefinementReport, Divergence>,
    expected: &RefinementRef,
) -> Result<(), String> {
    match result {
        Err(d) => Err(format!("refinement violated: {d:?}")),
        Ok(r) if &outcome(r) != expected => Err(format!(
            "refinement report {:?} differs from the recorded {expected:?}",
            outcome(r)
        )),
        Ok(_) => Ok(()),
    }
}

pub fn run(run: &mut Run, reference: &Reference, setup: &Setup) {
    let mut k = 0u64;
    while run.more() {
        let seed = input_index(run.seed, FAMILY_SEEDS, k) as u64;
        let input = frames(seed);
        let expected = reference
            .refinement
            .get(seed as usize)
            .ok_or_else(|| format!("no recorded refinement for traffic seed {seed}"));
        let b = board(&input);
        if run.tracer.is_none() {
            let (result, ms) = timed(|| op(setup, b));
            run.record(ms, expected.and_then(|e| check(&result, e)));
            k += 1;
            continue;
        }
        // Traced: the check, then a timed pipelined run of the same input
        // through `SystemConfig::run_faulted`; replay is the difference.
        let first = k == 0;
        let tr = run.tracer.as_mut().expect("traced run");
        tr.set_op(k);
        let span = tr.begin("perfbench", "op");
        let (result, check_ms) = tr.span("processor", "check_refinement", || op(setup, b));
        let attribution = tr.begin("perfbench", "attribution");
        let (image, compile_ms) = tr.span("compiler", "build_image", || build_image(&setup.system));
        let mut sys = setup.system;
        sys.processor = ProcessorKind::Pipelined;
        let (pipe, pipe_ms) = tr.span("processor", "run_faulted", || {
            sys.run_faulted(&image, &FaultPlan::none(), &input, CYCLES)
        });
        tr.end(attribution);
        let op_ms = tr.end(span);
        let events = result.as_ref().map_or(0, |r| r.events) as f64;
        for (key, v) in [
            ("core.op_ms", check_ms),
            ("compiler.compile_ms", compile_ms),
            ("processor.pipeline_ms", pipe_ms),
            ("processor.pipeline_cycles", pipe.cycles as f64),
            (
                "processor.pipeline_retired",
                pipe.report.counters.get("pipeline.retired") as f64,
            ),
            ("processor.replay_ms", check_ms - pipe_ms),
            ("processor.replay_events", events),
        ] {
            run.add(key, v);
        }
        let activity = probe::scan(&pipe.events);
        for (key, v) in [
            ("lightbulb.driver_retries", activity.retries),
            ("lightbulb.driver_reinits", activity.reinits),
            (
                "processor.stall_raw",
                pipe.report.counters.get("pipeline.stall.raw"),
            ),
            (
                "processor.btb_miss",
                pipe.report.counters.get("pipeline.btb.miss"),
            ),
            ("compiler.instructions", setup.instructions),
        ] {
            run.fingerprint_add(first, key, v);
        }
        run.record(op_ms, expected.and_then(|e| check(&result, e)));
        k += 1;
    }
}

/// Records the outcome of every family's traffic seeds.
pub fn record(setup: &Setup) -> Vec<RefinementRef> {
    (0..FAMILIES * FAMILY_SEEDS as u64)
        .map(|seed| match op(setup, board(&frames(seed))) {
            Ok(r) => outcome(&r),
            Err(d) => panic!("traffic seed {seed}: refinement violated: {d:?}"),
        })
        .collect()
}

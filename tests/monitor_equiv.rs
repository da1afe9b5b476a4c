//! The streaming `Monitor` on real lightbulb traces: agreement with the
//! dynamic-programming oracle (`tests/oracle`) on faulted traces of both
//! machine models, negative controls — planted violations the monitor
//! must catch at exactly the planted event — and the fault check, which
//! feeds the monitor while the models run, against the post-hoc check it
//! replaced.

mod oracle;

use lightbulb_system::compiler::CompiledProgram;
use lightbulb_system::devices::{FaultAtom, FaultPlan, FrameFault, TrafficGen};
use lightbulb_system::integration::{
    build_image, fault_check_plan, DiffError, FaultSweepConfig, ProcessorKind, SystemConfig,
};
use lightbulb_system::lightbulb::layout::{GPIO_OUTPUT_VAL, LIGHTBULB_MASK};
use lightbulb_system::lightbulb::{good_hl_trace, probe, DriverOptions};
use lightbulb_system::proglogic::trace::Monitor;
use lightbulb_system::riscv::{MmioEvent, MmioEventKind};
use obs::Counters;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::OnceLock;

/// Faulted seeds recorded on both models.
const SEEDS: std::ops::RangeInclusive<u64> = 1..=8;

/// The sweep's workload for a plan: `cfg.frames` alternating commands.
fn frames(cfg: &FaultSweepConfig, seed: u64) -> Vec<Vec<u8>> {
    let mut gen = TrafficGen::new(seed);
    (0..cfg.frames).map(|i| gen.command(i % 2 == 0)).collect()
}

/// The quick-pass trace of every seed in [`SEEDS`] on both models,
/// pipelined first, recorded once per test binary.
fn recorded_traces() -> &'static [(String, Vec<MmioEvent>)] {
    static TRACES: OnceLock<Vec<(String, Vec<MmioEvent>)>> = OnceLock::new();
    TRACES.get_or_init(record)
}

fn record() -> Vec<(String, Vec<MmioEvent>)> {
    let cfg = FaultSweepConfig::default();
    let image = build_image(&cfg.system);
    let mut out = Vec::new();
    for seed in SEEDS {
        let plan = FaultPlan::from_seed(seed);
        for kind in [ProcessorKind::Pipelined, ProcessorKind::SpecMachine] {
            let sys = SystemConfig {
                processor: kind,
                ..cfg.system
            };
            let run = sys.run_faulted(&image, &plan, &frames(&cfg, seed), cfg.quick_cycles);
            assert!(
                run.error.is_none(),
                "seed {seed} on {kind:?}: {:?}",
                run.error
            );
            out.push((format!("seed {seed} on {kind:?}"), run.events));
        }
    }
    out
}

fn is_gpio_val(e: &MmioEvent, kind: MmioEventKind) -> bool {
    e.kind == kind && e.addr == GPIO_OUTPUT_VAL
}

/// Monitor against oracle on the recorded traces of one model (every
/// second trace, from `first`), at random cuts and on a corrupted copy.
fn agree_with_the_oracle(first: usize) {
    let spec = good_hl_trace(DriverOptions::default());
    let mut rng = StdRng::seed_from_u64(7 + first as u64);
    for (name, t) in recorded_traces().iter().skip(first).step_by(2) {
        let mut cuts: Vec<usize> = (0..3).map(|_| rng.random_range(0..=t.len())).collect();
        cuts.push(t.len());
        cuts.sort_unstable();
        // One pass of the monitor, sampled at each cut.
        let mut m = Monitor::new(&spec);
        let mut k = 0;
        for &cut in &cuts {
            while k < cut {
                assert!(m.step(&t[k]), "{name}: the recorded trace dies at {k}");
                k += 1;
            }
            let (prefix, member) = oracle::prefix_and_member(&spec, &t[..cut]);
            assert!(prefix, "{name}: the oracle rejects cut {cut}");
            assert_eq!(m.accepting(), member, "{name}: membership at cut {cut}");
        }
        // A corrupted event: the monitor's first violation must be the
        // oracle's prefix boundary (prefix acceptance is monotone, so two
        // oracle checks pin it down).
        let at = rng.random_range(0..t.len());
        let mut bad = t.to_vec();
        bad[at].value ^= 0x8000_0001;
        bad[at].kind = match bad[at].kind {
            MmioEventKind::Load => MmioEventKind::Store,
            MmioEventKind::Store => MmioEventKind::Load,
        };
        let v = m.first_violation(&bad).unwrap_or(bad.len());
        assert!(
            v >= at,
            "{name}: violation {v} before the corrupted event {at}"
        );
        assert!(
            oracle::matches_prefix(&spec, &bad[..v]),
            "{name}: {v} accepted"
        );
        if v < bad.len() {
            assert!(
                !oracle::matches_prefix(&spec, &bad[..=v]),
                "{name}: the oracle accepts past the monitor's violation {v}"
            );
        }
    }
}

#[test]
fn monitor_agrees_with_the_oracle_on_pipelined_traces() {
    agree_with_the_oracle(0);
}

#[test]
fn monitor_agrees_with_the_oracle_on_spec_machine_traces() {
    agree_with_the_oracle(1);
}

/// A store to the lightbulb's GPIO register spliced into a good trace at
/// `at`: the monitor must reject exactly the spliced event.
fn assert_rogue_store_caught(name: &str, t: &[MmioEvent], at: usize, what: &str) {
    let spec = good_hl_trace(DriverOptions::default());
    let mut bad = t.to_vec();
    bad.insert(at, MmioEvent::store(GPIO_OUTPUT_VAL, LIGHTBULB_MASK));
    assert_eq!(
        Monitor::new(&spec).first_violation(&bad),
        Some(at),
        "{name}: rogue store {what} at {at}"
    );
}

#[test]
fn rogue_gpio_stores_are_caught_where_they_are_spliced() {
    let mut checked = [0usize; 2];
    for (i, (name, t)) in recorded_traces().iter().enumerate() {
        assert_rogue_store_caught(name, t, 20.min(t.len()), "mid-boot");
        let Some(gpio_ld) = t.iter().position(|e| is_gpio_val(e, MmioEventKind::Load)) else {
            continue;
        };
        let gpio_st = gpio_ld + 1;
        assert!(is_gpio_val(&t[gpio_st], MmioEventKind::Store), "{name}");
        // The command frame's last data words precede the GPIO read.
        assert_rogue_store_caught(name, t, gpio_ld - 40, "inside a Recv");
        assert_rogue_store_caught(name, t, gpio_st + 1, "between interactions");
        checked[i % 2] += 1;
    }
    assert!(
        checked.iter().all(|&n| n >= 4),
        "too few traces with a command per model: {checked:?}"
    );
}

#[test]
fn a_flipped_bulb_command_is_caught_at_the_store() {
    let spec = good_hl_trace(DriverOptions::default());
    let mut checked = 0;
    for (name, t) in recorded_traces() {
        for (i, e) in t.iter().enumerate() {
            if !is_gpio_val(e, MmioEventKind::Store) {
                continue;
            }
            let mut bad = t.to_vec();
            bad[i].value ^= LIGHTBULB_MASK;
            assert_eq!(
                Monitor::new(&spec).first_violation(&bad),
                Some(i),
                "{name}: flipped command store at {i}"
            );
            checked += 1;
        }
    }
    assert!(checked >= 8, "only {checked} command stores found");
}

/// The image whose drivers poll without timeouts.
fn unguarded_image(cfg: &FaultSweepConfig) -> CompiledProgram {
    build_image(&SystemConfig {
        driver: DriverOptions {
            timeouts: false,
            ..cfg.system.driver
        },
        ..cfg.system
    })
}

#[test]
fn an_rx_stall_without_timeouts_is_located_like_the_oracle() {
    // One pass per model (no full-budget rerun), so the checked trace can
    // be recorded again here.
    let cfg = FaultSweepConfig {
        max_cycles: 250_000,
        ..FaultSweepConfig::default()
    };
    let image = unguarded_image(&cfg);
    let plan = FaultPlan::from_atoms(3, &[FaultAtom::RxStall(750, 300)]);
    let err = fault_check_plan(&plan, &cfg, &image, &mut Counters::new())
        .expect_err("an unbounded poll under an RX stall must leave the spec");
    let DiffError::SpecViolation { matched, model } = err else {
        panic!("expected a spec violation, got {err}");
    };
    assert_eq!(model, "pipelined");
    let run = cfg
        .system
        .run_faulted(&image, &plan, &frames(&cfg, plan.seed), cfg.quick_cycles);
    let spec = good_hl_trace(cfg.system.driver);
    assert_eq!(matched, oracle::longest_matching_prefix(&spec, &run.events));
    assert!(matched < run.events.len());
}

/// The fault check as it was before traces were checked while the models
/// run: each model run from reset at the adaptive budget (the quick pass,
/// then a fresh full-budget run when the workload is unfinished), and each
/// whole trace matched afterwards, here by the oracle. Only the
/// spec-matching verdicts: `cfg` must not set `require_done`, and the
/// replay step is left out.
fn post_hoc_check(
    plan: &FaultPlan,
    cfg: &FaultSweepConfig,
    image: &CompiledProgram,
    counters: &mut Counters,
) -> Result<(), DiffError> {
    assert!(!cfg.require_done);
    let spec = good_hl_trace(cfg.system.driver);
    let run = |processor| {
        let sys = SystemConfig {
            processor,
            ..cfg.system
        };
        let frames = frames(cfg, plan.seed);
        let quick = sys.run_faulted(image, plan, &frames, cfg.quick_cycles);
        let c = &quick.report.counters;
        let dropped = plan
            .frame_faults
            .iter()
            .filter(|(i, f)| (*i as usize) < cfg.frames && matches!(f, FrameFault::Drop))
            .count();
        let done = c.get("board.lan9250.frames_delivered") >= (cfg.frames - dropped) as u64
            && c.get("board.lan9250.frames_pending") == 0;
        if done {
            quick
        } else {
            sys.run_faulted(image, plan, &frames, cfg.max_cycles)
        }
    };
    let leaves = |events: &[MmioEvent]| {
        let matched = oracle::longest_matching_prefix(&spec, events);
        (matched < events.len()).then_some(matched)
    };
    let pipe = run(ProcessorKind::Pipelined);
    let activity = probe::scan(&pipe.events);
    counters.add(
        "devices.faults.injected",
        pipe.report.counters.get("devices.faults.injected"),
    );
    counters.add("driver.retries", activity.retries);
    counters.add("driver.reinit", activity.reinits);
    if let Some(matched) = leaves(&pipe.events) {
        let model = "pipelined";
        return Err(DiffError::SpecViolation { matched, model });
    }
    let sm = run(ProcessorKind::SpecMachine);
    if let Some(e) = sm.error {
        return Err(DiffError::MachineError(format!(
            "spec machine under fault plan {}: {e}",
            plan.seed
        )));
    }
    match leaves(&sm.events) {
        Some(matched) => Err(DiffError::SpecViolation {
            matched,
            model: "spec machine",
        }),
        None => Ok(()),
    }
}

/// The checker the streaming check replaced is its oracle: over clean
/// plan seeds and RX stalls that drive the unguarded image out of the
/// spec, both give the same verdict (error kind, `matched` and model), and
/// on passing plans the same recovery counters.
#[test]
fn the_streaming_check_agrees_with_the_post_hoc_check() {
    let cfg = FaultSweepConfig::default();
    let image = build_image(&cfg.system);
    let unguarded = unguarded_image(&cfg);
    let stalls = [(0, 700, 150), (1, 720, 390), (2, 790, 200), (3, 750, 300)];
    let cases = (0..24)
        .map(|seed| (FaultPlan::from_seed(seed), &image))
        .chain(stalls.iter().map(|&(seed, at, reads)| {
            let plan = FaultPlan::from_atoms(seed, &[FaultAtom::RxStall(at, reads)]);
            (plan, &unguarded)
        }));
    let mut violations = 0;
    for (plan, image) in cases {
        let (mut streamed, mut post_hoc) = (Counters::new(), Counters::new());
        let got = fault_check_plan(&plan, &cfg, image, &mut streamed);
        let want = post_hoc_check(&plan, &cfg, image, &mut post_hoc);
        let label = format!("plan {:?}", plan.atoms());
        assert_eq!(got, want, "{label}");
        if got.is_ok() {
            assert_eq!(streamed, post_hoc, "{label}");
        } else {
            violations += 1;
        }
    }
    assert_eq!(
        violations,
        stalls.len(),
        "only the RX stalls leave the spec"
    );
}

/// Advancing a run in small blocks of odd sizes, as the checks do, ends
/// where one `run_to` over the whole budget ends, and hands every event to
/// the observer exactly once.
#[test]
fn a_run_advanced_in_small_blocks_equals_one_run_to() {
    let cfg = FaultSweepConfig::default();
    let image = build_image(&cfg.system);
    // Seed 4 keeps its workload busy past the quick pass.
    let plan = FaultPlan::from_seed(4);
    let frames = frames(&cfg, plan.seed);
    for processor in [ProcessorKind::Pipelined, ProcessorKind::SpecMachine] {
        let sys = SystemConfig {
            processor,
            ..cfg.system
        };
        let whole = sys.run_faulted(&image, &plan, &frames, cfg.quick_cycles);
        let mut run = sys.start(&image, &plan, &frames, None);
        let mut observed = Vec::new();
        let budgets = (997..cfg.quick_cycles).step_by(997);
        for budget in budgets.chain([cfg.quick_cycles]) {
            assert!(run.advance(budget, |new| {
                observed.extend_from_slice(new);
                true
            }));
        }
        // The run is at its budget: this only reports.
        let blocked = run.run_to(cfg.quick_cycles);
        let name = format!("{processor:?}");
        assert_eq!(blocked.cycles, whole.cycles, "{name}");
        assert_eq!(observed, blocked.events, "{name}");
        assert_eq!(blocked.events, whole.events, "{name}");
        assert_eq!(blocked.bulb_history, whole.bulb_history, "{name}");
        assert_eq!(blocked.report.final_pc, whole.report.final_pc, "{name}");
        assert_eq!(blocked.report.counters, whole.report.counters, "{name}");
    }
}

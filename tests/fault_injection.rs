//! Fault-injection properties: the zero-cost default, seeded determinism,
//! and the fault-sweep harness itself (tentpole checks of the robustness
//! work — see `DESIGN.md` "Deterministic fault injection").

use lightbulb_system::devices::{FaultPlan, TrafficGen};
use lightbulb_system::integration::differential::{
    fault_sweep, resilient_sweep, FaultSweepConfig, RetryPolicy, SweepReport,
};
use lightbulb_system::integration::{
    build_image, DiffError, ProcessorKind, SystemConfig, TriageSummary,
};

const BUDGET: u64 = 250_000;

fn frames(seed: u64, n: usize) -> Vec<Vec<u8>> {
    let mut gen = TrafficGen::new(seed);
    (0..n).map(|i| gen.command(i % 2 == 0)).collect()
}

/// `FaultPlan::none()` must be unobservable: a board built with the empty
/// plan produces a byte-identical MMIO trace to a plain board, on both
/// machine models. This is the trace-level statement of the "zero cost
/// when absent" property the device hot paths rely on.
#[test]
fn empty_fault_plan_is_byte_identical_to_no_fault_plan() {
    for processor in [ProcessorKind::Pipelined, ProcessorKind::SpecMachine] {
        let config = SystemConfig {
            processor,
            ..SystemConfig::default()
        };
        let image = build_image(&config);
        let plain = config.run(&frames(5, 2), BUDGET);
        let faulted = config.run_faulted(&image, &FaultPlan::none(), &frames(5, 2), BUDGET);
        assert_eq!(
            plain.events, faulted.events,
            "{processor:?}: FaultPlan::none() altered the trace"
        );
        assert_eq!(plain.bulb_history, faulted.bulb_history);
    }
}

/// Same seed ⇒ same trace, run-to-run: every fault trigger is keyed on
/// interaction counts, never ticks or wall time.
#[test]
fn seeded_faults_are_deterministic_run_to_run() {
    let config = SystemConfig::default();
    let image = build_image(&config);
    let plan = FaultPlan::from_seed(7);
    let a = config.run_faulted(&image, &plan, &frames(7, 2), BUDGET);
    let b = config.run_faulted(&image, &plan, &frames(7, 2), BUDGET);
    assert_eq!(a.events, b.events, "same seed must replay identically");
    assert!(
        a.report.counters.get("devices.faults.injected") > 0,
        "seed 7 must actually inject something for this test to mean anything"
    );
}

/// The sweep harness end to end on a few seeds: every plan is recoverable
/// (spec satisfaction + replay equality on both models), and the rendered
/// report is invariant under the shard count — including its
/// fault/recovery counters, which are summed per-seed and so merge
/// order-insensitively. Only the fields that describe the split (`shards`,
/// `chunk`, `core.diff.shards`) may differ.
#[test]
fn fault_sweep_smoke_is_clean_and_shard_count_invariant() {
    let cfg = FaultSweepConfig::default();
    let serial = fault_sweep(0..6, 1, &cfg);
    serial.expect_clean("fault sweep smoke (serial)");
    assert_eq!(serial.conclusive, 6);

    let sharded = fault_sweep(0..6, 3, &cfg);
    sharded.expect_clean("fault sweep smoke (sharded)");
    assert_eq!((sharded.shards, sharded.chunk), (3, 2));
    assert_eq!(sharded.counters.get("core.diff.shards"), 3);

    let masked = |r: &SweepReport| {
        let mut r = r.clone();
        (r.shards, r.chunk) = (0, 0);
        r.counters.set("core.diff.shards", 0);
        r.to_json().render()
    };
    assert_eq!(masked(&serial), masked(&sharded));
    assert!(
        serial.counters.get("devices.faults.injected") > 0,
        "six seeds must inject at least one fault: {:?}",
        serial.counters
    );
}

/// `expect_clean` must name both the failing seed and its shard, so a
/// sweep failure in CI reproduces with a one-liner — and when the sweep
/// carried triage summaries, the message must quote them too: the panic
/// string is the only thing CI shows, so it is the contract.
#[test]
fn expect_clean_names_the_failing_seed_and_shard() {
    let report = SweepReport {
        total: 40,
        conclusive: 39,
        inconclusive: 0,
        failures: vec![(13, DiffError::MachineTimeout)],
        shards: 4,
        start: 0,
        chunk: 10,
        triage: vec![TriageSummary {
            seed: 13,
            original_atoms: 9,
            minimal_atoms: 2,
            divergence: "workload stalls after event 41".to_string(),
            artifact: None,
        }],
        ..SweepReport::default()
    };
    assert_eq!(report.shard_of(13), 1);
    let panic = std::panic::catch_unwind(|| report.expect_clean("doomed"))
        .expect_err("a report with failures must panic");
    let msg = panic
        .downcast_ref::<String>()
        .expect("panic payload is a formatted string");
    assert!(msg.contains("seed 13"), "message must name the seed: {msg}");
    assert!(
        msg.contains("shard 1/4"),
        "message must name the shard: {msg}"
    );
    assert!(
        msg.contains("13..14"),
        "message must give a one-liner repro range: {msg}"
    );
    assert!(
        msg.contains("shrank 9 -> 2 fault atoms"),
        "message must quote the triage summary: {msg}"
    );
    assert!(
        msg.contains("workload stalls after event 41"),
        "message must name the divergence site: {msg}"
    );
}

/// A panicking seed must not abort the sweep: the panic is caught, the
/// seed recorded, and every other seed still classified. `expect_clean`
/// then fails with the panicking seed named.
#[test]
fn a_panicking_seed_is_isolated_and_reported() {
    let report = resilient_sweep(0..20, 4, RetryPolicy::default(), |seed, _, _| {
        assert!(seed != 13, "planted panic on seed 13");
        Ok(())
    });
    assert_eq!(report.conclusive, 19, "the other seeds must still run");
    assert_eq!(report.panicked.len(), 1);
    assert_eq!(report.panicked[0].0, 13);
    assert!(
        report.panicked[0].1.contains("planted panic"),
        "payload must carry the panic message: {:?}",
        report.panicked[0].1
    );
    assert_eq!(report.counters.get("core.diff.panicked"), 1);
    assert!(!report.is_clean());
    let panic = std::panic::catch_unwind(|| report.expect_clean("doomed"))
        .expect_err("a report with panicked seeds must fail expect_clean");
    let msg = panic.downcast_ref::<String>().expect("formatted payload");
    assert!(msg.contains("seed 13"), "must name the seed: {msg}");
}

/// Transient failures (here: planted `MachineTimeout`s that clear on the
/// second attempt) are retried under the policy and end up conclusive,
/// with the recovery visible in the counters.
#[test]
fn transient_failures_are_retried_and_recover() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let first_attempts = AtomicU64::new(0);
    let report = resilient_sweep(0..10, 2, RetryPolicy { attempts: 3 }, |seed, attempt, _| {
        if seed % 3 == 0 && attempt == 0 {
            first_attempts.fetch_add(1, Ordering::Relaxed);
            return Err(DiffError::MachineTimeout);
        }
        Ok(())
    });
    report.expect_clean("retried sweep");
    assert_eq!(report.conclusive, 10);
    assert_eq!(first_attempts.load(Ordering::Relaxed), 4, "seeds 0,3,6,9");
    assert_eq!(report.counters.get("core.diff.retried_seeds"), 4);
    assert_eq!(report.counters.get("core.diff.recovered_seeds"), 4);
    assert_eq!(report.counters.get("core.diff.retry_attempts"), 4);
}

/// Hard (non-transient) failures must classify on the first attempt: the
/// retry budget is for budget exhaustion, not for reproducing a real
/// disagreement three times.
#[test]
fn hard_failures_are_not_retried() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let calls = AtomicU64::new(0);
    let report = resilient_sweep(5..6, 1, RetryPolicy { attempts: 3 }, |_, _, _| {
        calls.fetch_add(1, Ordering::Relaxed);
        Err(DiffError::SpecViolation {
            matched: 1,
            total: 2,
            model: "pipelined",
        })
    });
    assert_eq!(calls.load(Ordering::Relaxed), 1, "no retry on hard failure");
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.counters.get("core.diff.retry_attempts"), 0);
}

/// The triage path end to end on the real stack: a hand-built
/// unrecoverable plan (bring-up junk far beyond the driver's retry
/// budget, plus independent noise atoms) fails the liveness-mode check;
/// triage must shrink it to a strictly smaller plan that still fails and
/// name the divergence site.
#[test]
fn an_unrecoverable_plan_shrinks_to_a_smaller_failing_plan() {
    let cfg = FaultSweepConfig {
        require_done: true,
        ..FaultSweepConfig::default()
    };
    let image = build_image(&cfg.system);
    // The culprit: BYTE_TEST junk for 10_000 reads, far past the driver's
    // bring-up budget, so initialization never succeeds and no frame is
    // ever delivered. The noise: faults triage should strip.
    let plan = FaultPlan {
        byte_test_junk_reads: 10_000,
        spurious_rx_reads: vec![40, 90],
        wire_garbage: vec![(25, 0x5A)],
        ..FaultPlan::none()
    };
    let report = lightbulb_system::integration::triage_plan(&plan, &cfg, &image)
        .expect("the planted plan must fail and therefore triage");
    let original = report.original.atoms().len();
    let minimal = report.minimal.atoms().len();
    assert!(
        minimal < original,
        "triage must strip noise: {minimal} of {original} atoms left"
    );
    assert!(minimal >= 1, "the culprit atom must survive");
    assert!(
        report.minimal.byte_test_junk_reads == 10_000,
        "the culprit (bring-up junk) must be in the minimal plan: {:?}",
        report.minimal
    );
    assert!(
        matches!(report.error, DiffError::WorkloadIncomplete { .. }),
        "liveness mode must classify the stall: {:?}",
        report.error
    );
    assert!(
        !report.site.description.is_empty(),
        "the divergence site must be named"
    );
    // The artifact is a complete, self-describing JSON document whose
    // minimal plan round-trips for --replay-plan.
    let doc = obs::json::parse(&report.to_json().render()).expect("artifact is valid JSON");
    assert_eq!(
        doc.get("schema").and_then(obs::json::Value::as_str),
        Some("triage-report/v1")
    );
    let replayed = FaultPlan::from_json(doc.get("minimal").expect("minimal plan present"))
        .expect("minimal plan parses back");
    assert_eq!(replayed, report.minimal);
}

//! Golden-file tests for triage artifacts.
//!
//! A `triage-report/v1` artifact is what a red sweep hands its reader and
//! what `fault_sweep --replay-plan` reads back, so its bytes must not drift
//! when the checks underneath get faster: the minimal plan, the probe
//! count, the error and both trace windows are all fixed by the plan. The
//! expected text lives in `tests/golden/`; if a change is intentional,
//! regenerate the file from the artifact the test prints.
//!
//! * `triage_demo.json` — the liveness plan `fault_sweep --triage-demo`
//!   runs, byte for byte the artifact that command writes;
//! * `triage_rx_stall.json` — a safety failure: an RX stall that keeps
//!   the drivers of an image built without timeouts polling past what
//!   `goodHlTrace` allows.

use devices::{FaultAtom, FaultPlan};
use integration::{build_image, triage_plan, FaultSweepConfig, SystemConfig};
use lightbulb::DriverOptions;

/// Triages `plan` and compares its artifact, as `write_atomic` writes it,
/// with the golden file.
fn assert_matches_golden(
    plan: &FaultPlan,
    cfg: &FaultSweepConfig,
    system: &SystemConfig,
    want: &str,
    file: &str,
) {
    let image = build_image(system);
    let report = triage_plan(plan, cfg, &image).expect("the plan fails");
    let got = format!("{}\n", report.to_json().render());
    assert!(
        got == want,
        "triage artifact drifted from tests/golden/{file}:\n{got}"
    );
}

#[test]
fn the_triage_demo_artifact_matches_its_golden_file() {
    // The planted plan of `fault_sweep --triage-demo`: BYTE_TEST junk past
    // the bring-up budget, buried in noise atoms.
    let plan = FaultPlan {
        byte_test_junk_reads: 10_000,
        spurious_rx_reads: vec![40, 90],
        wire_garbage: vec![(25, 0x5A), (130, 0xA5)],
        rx_stalls: vec![(60, 9)],
        ..FaultPlan::none()
    };
    let cfg = FaultSweepConfig {
        require_done: true,
        ..FaultSweepConfig::default()
    };
    let want = include_str!("golden/triage_demo.json");
    assert_matches_golden(&plan, &cfg, &cfg.system, want, "triage_demo.json");
}

#[test]
fn an_rx_stall_triage_artifact_matches_its_golden_file() {
    let cfg = FaultSweepConfig::default();
    let unguarded = SystemConfig {
        driver: DriverOptions {
            timeouts: false,
            ..cfg.system.driver
        },
        ..cfg.system
    };
    let plan = FaultPlan::from_atoms(3, &[FaultAtom::RxStall(750, 300)]);
    let want = include_str!("golden/triage_rx_stall.json");
    assert_matches_golden(&plan, &cfg, &unguarded, want, "triage_rx_stall.json");
}

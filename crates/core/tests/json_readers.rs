//! The JSON readers never panic on bad input. `fault_sweep --replay-plan`
//! reads a plan or triage artifact from disk, so a truncated write or a
//! flipped byte must come back as an `Err` (or, if the damage happens to
//! stay well-formed, as a value), never as a panic.
//!
//! Each real document — a `fault-plan/v1` plan and a `triage-report/v1`
//! report — is fed through `obs::json::parse` and its reader under
//! `catch_unwind`: every truncation, and a seeded set of single-byte
//! corruptions.

use devices::FaultPlan;
use integration::differential::DiffError;
use integration::triage::{DivergenceSite, TriageReport};
use obs::json::parse;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use riscv_spec::MmioEvent;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Single-byte corruptions tried per document.
const CORRUPTIONS: usize = 3000;

/// Bytes a corruption writes: JSON's structural characters, the starts of
/// literals, numbers and escapes, and a non-ASCII byte.
const NASTY: &[u8] = b"\"{}[]:,\\-+.0123456789eEunlltf \x00\xC3";

/// A seeded plan with atoms of every kind, as `fault-plan/v1`.
fn plan() -> FaultPlan {
    let plan = (1..)
        .map(FaultPlan::from_seed)
        .find(|p| {
            !p.wire_garbage.is_empty()
                && !p.rx_stalls.is_empty()
                && !p.spurious_rx_reads.is_empty()
                && p.frame_faults.len() >= 2
        })
        .expect("some seed schedules every kind of fault");
    assert!(plan.atoms().len() >= 5, "{plan:?}");
    plan
}

/// A triage artifact as `fault_sweep` writes it.
fn triage_document() -> String {
    let original = plan();
    let minimal = FaultPlan {
        wire_garbage: original.wire_garbage[..1].to_vec(),
        ..FaultPlan::none()
    };
    TriageReport {
        seed: original.seed,
        original,
        minimal,
        probes: 9,
        error: DiffError::SpecViolation {
            matched: 118,
            total: 131,
            model: "spec machine",
        },
        site: DivergenceSite {
            index: 118,
            description: "pipelined stores 0x1 to GPIO, spec machine stores 0x0".to_string(),
            pipelined_suffix: vec![
                MmioEvent::load(0x1002_4040, 3),
                MmioEvent::store(0x1001_200c, 1),
            ],
            spec_suffix: vec![
                MmioEvent::load(0x1002_4040, 3),
                MmioEvent::store(0x1001_200c, 0),
            ],
        },
    }
    .to_json()
    .render()
}

fn read_plan(text: &str) {
    if let Ok(doc) = parse(text) {
        let _ = FaultPlan::from_json(&doc);
    }
}

/// The `--replay-plan` path for a triage artifact: the embedded minimal
/// plan.
fn read_triage(text: &str) {
    if let Ok(doc) = parse(text) {
        if let Some(minimal) = doc.get("minimal") {
            let _ = FaultPlan::from_json(minimal);
        }
    }
}

/// Every truncation and `CORRUPTIONS` seeded single-byte corruptions of
/// `doc`, as text (damaged UTF-8 is replaced, as a lossy read would).
fn damaged(doc: &str, seed: u64) -> Vec<String> {
    let bytes = doc.as_bytes();
    let mut out: Vec<String> = (0..bytes.len())
        .map(|n| String::from_utf8_lossy(&bytes[..n]).into_owned())
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..CORRUPTIONS {
        let mut b = bytes.to_vec();
        let at = rng.random_range(0..b.len());
        b[at] = NASTY[rng.random_range(0..NASTY.len())];
        out.push(String::from_utf8_lossy(&b).into_owned());
    }
    out
}

/// Runs `read` on every input and fails with the inputs that panicked.
fn assert_never_panics(name: &str, read: fn(&str), inputs: &[String]) {
    let panicked: Vec<&String> = inputs
        .iter()
        .filter(|text| catch_unwind(AssertUnwindSafe(|| read(text))).is_err())
        .collect();
    assert!(
        panicked.is_empty(),
        "{name}: {} of {} damaged documents panicked the reader; first: {:?}",
        panicked.len(),
        inputs.len(),
        panicked[0]
    );
}

#[test]
fn the_undamaged_documents_read_back() {
    assert_eq!(FaultPlan::from_json(&plan().to_json()).unwrap(), plan());
    let report = parse(&triage_document()).unwrap();
    assert!(FaultPlan::from_json(report.get("minimal").unwrap()).is_ok());
}

#[test]
fn damaged_fault_plans_never_panic_the_reader() {
    let inputs = damaged(&plan().to_json().render(), 0xFA17);
    assert_never_panics("fault-plan/v1", read_plan, &inputs);
}

#[test]
fn damaged_triage_reports_never_panic_the_reader() {
    let inputs = damaged(&triage_document(), 0x7A1A6E);
    assert_never_panics("triage-report/v1", read_triage, &inputs);
}

//! The JSON readers never panic on bad input. A sweep resumes from a
//! checkpoint file and `fault_sweep --replay-plan` reads a plan or triage
//! artifact from disk, so a truncated write or a flipped byte must come
//! back as an `Err` (or, if the damage happens to stay well-formed, as a
//! value), never as a panic.
//!
//! Each real document — a checkpoint written by a small checkpointed
//! `resilient_sweep`, a `fault-plan/v1` plan and a `triage-report/v1`
//! report — is fed through `obs::json::parse` and its reader under
//! `catch_unwind`: every truncation, and a seeded set of single-byte
//! corruptions.

use devices::FaultPlan;
use integration::checkpoint::SweepCheckpoint;
use integration::differential::{resilient_sweep, CheckpointConfig, DiffError, SweepOptions};
use integration::triage::{DivergenceSite, TriageReport};
use obs::json::parse;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use riscv_spec::MmioEvent;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Single-byte corruptions tried per document.
const CORRUPTIONS: usize = 3000;

/// Bytes a corruption writes: JSON's structural characters, the starts of
/// literals, numbers and escapes, and a non-ASCII byte.
const NASTY: &[u8] = b"\"{}[]:,\\-+.0123456789eEunlltf \x00\xC3";

/// The document as the sweep's checkpoint writer leaves it on disk: two
/// shards holding passes, inconclusive seeds, failures of every error
/// kind, caught panics and per-seed counters.
fn checkpoint_document() -> String {
    // Tests run in parallel threads of one process: one directory per call.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("json-readers-{}-{call}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("sweep.cp.json");
    let opts = SweepOptions {
        checkpoint: Some(CheckpointConfig {
            path: path.clone(),
            every: 1,
            tag: "json-readers".to_string(),
        }),
        ..SweepOptions::default()
    };
    let report = resilient_sweep(0..16, 2, &opts, |seed, _, counters| {
        counters.add("test.seed_sum", seed);
        match seed % 8 {
            0 => Ok(()),
            1 => Err(DiffError::SourceUb(format!("fuel ran out at seed {seed}"))),
            2 => Err(DiffError::TraceMismatch {
                index: seed as usize,
                source: Some(MmioEvent::load(0x1002_4040, 7)),
                machine: None,
            }),
            3 => Err(DiffError::SpecViolation {
                matched: 12,
                total: 40,
                model: "pipelined",
            }),
            4 => Err(DiffError::WorkloadIncomplete {
                delivered: 1,
                expected: 3,
            }),
            5 => Err(DiffError::MachineTimeout),
            6 => panic!("planted panic at seed {seed}"),
            _ => Err(DiffError::MachineError("trap \"ecall\"".to_string())),
        }
    });
    assert_eq!(report.panicked.len(), 2, "the planted panics are caught");
    let text = std::fs::read_to_string(&path).expect("the sweep wrote its checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    text
}

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

fn read_checkpoint(text: &str) {
    if let Ok(doc) = parse(text) {
        if let Ok(cp) = SweepCheckpoint::from_json(&doc) {
            let _ = cp.validate(0..16, 2, Some("json-readers"));
        }
    }
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
    let cp = SweepCheckpoint::from_json(&parse(&checkpoint_document()).unwrap()).unwrap();
    cp.validate(0..16, 2, Some("json-readers")).unwrap();
    assert_eq!(cp.shard_states.iter().map(|s| s.done).sum::<u64>(), 16);
    assert_eq!(FaultPlan::from_json(&plan().to_json()).unwrap(), plan());
    let report = parse(&triage_document()).unwrap();
    assert!(FaultPlan::from_json(report.get("minimal").unwrap()).is_ok());
}

#[test]
fn damaged_checkpoints_never_panic_the_reader() {
    let inputs = damaged(&checkpoint_document(), 0xC0FFEE);
    assert_never_panics("sweep-checkpoint/v1", read_checkpoint, &inputs);
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

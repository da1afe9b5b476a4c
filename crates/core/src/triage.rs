//! Automatic failure triage: fault-plan shrinking and divergence location.
//!
//! A red [`crate::differential::fault_sweep`] seed hands the investigator a
//! [`devices::FaultPlan`] with a dozen-odd scheduled faults and a trace
//! thousands of events long — almost all of it irrelevant. This module
//! automates the first hour of that investigation, mirroring how the
//! paper's authors worked: a failed end-to-end proof attempt was reduced
//! to the smallest lemma-level counterexample before anyone stared at a
//! trace (§6's integration bugs were all found this way).
//!
//! * [`shrink_plan`] — delta debugging (ddmin) over the plan's
//!   [`devices::FaultAtom`]s: repeatedly re-check sub-plans, keeping any
//!   subset that still fails, until the plan is 1-minimal (removing any
//!   single remaining atom makes the failure disappear). Atoms are
//!   interaction-count-keyed and independent, so any subset is a valid
//!   plan ([`devices::FaultPlan::from_atoms`]).
//! * [`triage_seed`] / [`triage_plan`] — run the minimizer on a failing
//!   seed, then rerun both machine models under the minimal plan to name
//!   the divergence site: the first MMIO event index where the models (or
//!   the trace and its spec) part ways, with a trace-suffix window from
//!   each model around that index.
//!
//! The output is a [`TriageReport`]: minimal plan, named divergence site,
//! both suffixes, and a one-line repro command — everything
//! `SweepReport::expect_clean` quotes and `fault_sweep --triage-dir`
//! writes to disk.

use crate::differential::{fault_check_against, run_model, DiffError, FaultSweepConfig};
use crate::system::ProcessorKind;
use bedrock2_compiler::CompiledProgram;
use devices::FaultPlan;
use lightbulb::good_hl_trace;
use obs::json::Value;
use obs::Counters;
use proglogic::trace::{Monitor, TracePred};
use riscv_spec::{MmioEvent, MmioEventKind};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Events shown before the divergence index in each suffix window.
const SUFFIX_BEFORE: usize = 4;
/// Events shown from the divergence index onward.
const SUFFIX_AFTER: usize = 8;

/// The one-line form of a [`TriageReport`], carried inside
/// [`crate::differential::SweepReport`] and quoted by `expect_clean`.
#[derive(Clone, Debug)]
pub struct TriageSummary {
    /// The failing seed.
    pub seed: u64,
    /// Fault atoms in the original seeded plan.
    pub original_atoms: usize,
    /// Fault atoms left after shrinking.
    pub minimal_atoms: usize,
    /// Human-readable divergence site (see [`DivergenceSite`]).
    pub divergence: String,
    /// Path of the full JSON artifact, when one was written.
    pub artifact: Option<String>,
}

impl TriageSummary {
    /// The summary as JSON (embedded in `sweep-report/v2`).
    pub fn to_json(&self) -> Value {
        Value::obj()
            .field("seed", Value::UInt(self.seed))
            .field("original_atoms", Value::UInt(self.original_atoms as u64))
            .field("minimal_atoms", Value::UInt(self.minimal_atoms as u64))
            .field("divergence", Value::Str(self.divergence.clone()))
            .field(
                "artifact",
                match &self.artifact {
                    Some(p) => Value::Str(p.clone()),
                    None => Value::Null,
                },
            )
    }
}

/// Where a failing run leaves the specification (or the models leave each
/// other), located by rerunning both machine models under the *minimal*
/// plan.
#[derive(Clone, Debug)]
pub struct DivergenceSite {
    /// MMIO-event index of the first disagreement.
    pub index: usize,
    /// What diverged from what, in words.
    pub description: String,
    /// The pipelined model's events around `index`
    /// (a few events before, several from it on).
    pub pipelined_suffix: Vec<MmioEvent>,
    /// The ISA spec machine's events around the same window.
    pub spec_suffix: Vec<MmioEvent>,
}

/// Everything the minimizer learned about one failing seed.
#[derive(Clone, Debug)]
pub struct TriageReport {
    /// The failing seed.
    pub seed: u64,
    /// The seeded plan as the sweep ran it.
    pub original: FaultPlan,
    /// The 1-minimal failing sub-plan.
    pub minimal: FaultPlan,
    /// Checks the minimizer spent (original confirmation included).
    pub probes: u64,
    /// The error the minimal plan produces.
    pub error: DiffError,
    /// The located divergence.
    pub site: DivergenceSite,
}

impl TriageReport {
    /// The one-line reproduction command for the minimal counterexample.
    pub fn repro(&self) -> String {
        format!(
            "cargo run --release --bin fault_sweep -- --replay-plan \
             TRIAGE_fault_sweep_seed{}.json",
            self.seed
        )
    }

    /// Collapses the report to its summary line.
    pub fn summary(&self, artifact: Option<String>) -> TriageSummary {
        TriageSummary {
            seed: self.seed,
            original_atoms: self.original.atoms().len(),
            minimal_atoms: self.minimal.atoms().len(),
            divergence: self.site.description.clone(),
            artifact,
        }
    }

    /// The full report as JSON (`triage-report/v1`). The `minimal` field
    /// is a complete `fault-plan/v1` document, so `--replay-plan` can
    /// consume the artifact directly.
    pub fn to_json(&self) -> Value {
        let suffix = |events: &[MmioEvent]| Value::Arr(events.iter().map(event_to_json).collect());
        Value::obj()
            .field("schema", Value::Str("triage-report/v1".into()))
            .field("seed", Value::UInt(self.seed))
            .field("original", self.original.to_json())
            .field("minimal", self.minimal.to_json())
            .field(
                "original_atoms",
                Value::UInt(self.original.atoms().len() as u64),
            )
            .field(
                "minimal_atoms",
                Value::UInt(self.minimal.atoms().len() as u64),
            )
            .field("probes", Value::UInt(self.probes))
            .field("error", error_to_json(&self.error))
            .field(
                "site",
                Value::obj()
                    .field("index", Value::UInt(self.site.index as u64))
                    .field("description", Value::Str(self.site.description.clone()))
                    .field("pipelined_suffix", suffix(&self.site.pipelined_suffix))
                    .field("spec_suffix", suffix(&self.site.spec_suffix)),
            )
            .field("repro", Value::Str(self.repro()))
    }
}

/// Delta-debugs `original` down to a 1-minimal failing plan under `fails`
/// (`Some(error)` = still fails). Returns `(minimal, its error, probes)`,
/// or `None` when `original` itself does not fail — there is nothing to
/// shrink, and "minimizing" a passing plan would fabricate a
/// counterexample.
///
/// This is Zeller's ddmin restricted to complement testing: partition the
/// atoms into `n` chunks, try dropping one chunk at a time, restart at
/// coarse granularity whenever a drop sticks, refine to single atoms
/// otherwise. Termination at `n == len` with no successful drop is
/// exactly 1-minimality. Probe count is `O(len²)` checks worst case, on
/// plans of at most a few dozen atoms.
pub fn shrink_plan<F>(original: &FaultPlan, mut fails: F) -> Option<(FaultPlan, DiffError, u64)>
where
    F: FnMut(&FaultPlan) -> Option<DiffError>,
{
    let mut probes = 1u64;
    let mut error = fails(original)?;
    let mut atoms = original.atoms();
    let mut n = 2usize;
    while atoms.len() >= 2 {
        let chunk = atoms.len().div_ceil(n);
        let mut dropped = false;
        for i in 0..atoms.len().div_ceil(chunk) {
            let (lo, hi) = (i * chunk, ((i + 1) * chunk).min(atoms.len()));
            let complement: Vec<_> = atoms[..lo].iter().chain(&atoms[hi..]).copied().collect();
            let candidate = FaultPlan::from_atoms(original.seed, &complement);
            probes += 1;
            if let Some(e) = fails(&candidate) {
                atoms = complement;
                error = e;
                // Back to coarse granularity over the smaller set: big
                // drops first keeps the probe count near-linear when
                // most atoms are noise.
                n = 2.max(n - 1).min(atoms.len().max(1));
                dropped = true;
                break;
            }
        }
        if !dropped {
            if n >= atoms.len() {
                break; // single-atom removals all pass: 1-minimal
            }
            n = (n * 2).min(atoms.len());
        }
    }
    Some((FaultPlan::from_atoms(original.seed, &atoms), error, probes))
}

/// Triages one failing sweep seed: shrink its seeded plan, then locate the
/// divergence under the minimal plan. Returns `None` when the seed does
/// not actually fail under `cfg` (e.g. it only failed at a smaller budget).
pub fn triage_seed(
    seed: u64,
    cfg: &FaultSweepConfig,
    image: &CompiledProgram,
) -> Option<TriageReport> {
    triage_plan(&FaultPlan::from_seed(seed), cfg, image)
}

/// [`triage_seed`] on an explicit plan (hand-built plans included).
pub fn triage_plan(
    plan: &FaultPlan,
    cfg: &FaultSweepConfig,
    image: &CompiledProgram,
) -> Option<TriageReport> {
    let spec = good_hl_trace(cfg.system.driver);
    // A probe that panics still "fails" — the minimizer must be able to
    // shrink panicking counterexamples, and an unwinding probe would
    // otherwise tear down the triage pass itself.
    let fails = |candidate: &FaultPlan| -> Option<DiffError> {
        match catch_unwind(AssertUnwindSafe(|| {
            fault_check_against(candidate, cfg, image, &spec, &mut Counters::new())
        })) {
            Ok(result) => result.err(),
            Err(_) => Some(DiffError::MachineError(
                "check panicked under this plan".to_string(),
            )),
        }
    };
    let (minimal, error, probes) = shrink_plan(plan, fails)?;
    let site = locate_divergence(&minimal, &error, cfg, image, &spec);
    Some(TriageReport {
        seed: plan.seed,
        original: plan.clone(),
        minimal,
        probes,
        error,
        site,
    })
}

/// Runs both machine models under `plan` at the full budget and names the
/// first MMIO event where the failure manifests, with a context window
/// from each model's trace.
fn locate_divergence(
    plan: &FaultPlan,
    error: &DiffError,
    cfg: &FaultSweepConfig,
    image: &CompiledProgram,
    spec: &TracePred,
) -> DivergenceSite {
    let run = |kind: ProcessorKind| {
        catch_unwind(AssertUnwindSafe(|| {
            run_model(kind, plan, cfg, image, |sys, image, plan, frames, cfg| {
                sys.run_faulted(image, plan, frames, cfg.max_cycles)
            })
            .events
        }))
        .unwrap_or_default()
    };
    let pipe = run(ProcessorKind::Pipelined);
    let sm = run(ProcessorKind::SpecMachine);

    let first_model_mismatch = || {
        (0..pipe.len().max(sm.len()))
            .find(|&i| pipe.get(i) != sm.get(i))
            .unwrap_or(pipe.len().min(sm.len()))
    };
    let (index, description) = match error {
        DiffError::TraceMismatch { index, .. } => (
            *index,
            format!("single-cycle replay diverges from the pipelined trace at event {index}"),
        ),
        DiffError::SpecViolation { matched, model, .. } => (
            *matched,
            format!("the {model} trace leaves goodHlTrace after event {matched}"),
        ),
        DiffError::WorkloadIncomplete {
            delivered,
            expected,
        } => {
            // Liveness failure: neither trace is wrong, one just stops
            // making progress. Point at where the models' traces part
            // ways (or at the shorter trace's end when they agree).
            let i = first_model_mismatch();
            (
                i,
                format!(
                    "workload stalls after event {i} with {delivered} of {expected} \
                     frames delivered"
                ),
            )
        }
        other => {
            // Machine errors and the like have no intrinsic index; fall
            // back to where the spec stops matching the pipelined trace,
            // then to the model mismatch point.
            let i = Monitor::new(spec)
                .first_violation(&pipe)
                .unwrap_or_else(first_model_mismatch);
            (i, format!("fails at event {i}: {other}"))
        }
    };
    let window = |events: &[MmioEvent]| {
        let lo = index.saturating_sub(SUFFIX_BEFORE).min(events.len());
        let hi = index.saturating_add(SUFFIX_AFTER).min(events.len());
        events[lo..hi].to_vec()
    };
    DivergenceSite {
        index,
        description,
        pipelined_suffix: window(&pipe),
        spec_suffix: window(&sm),
    }
}

/// Writes `text` to `path` atomically: the bytes land in `<path>.tmp`
/// first and are renamed over the target, so a reader (or a process kill)
/// never observes a torn artifact.
///
/// # Errors
///
/// The underlying I/O error, as a printable message.
pub fn write_atomic(path: &Path, text: &str) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, format!("{text}\n"))
        .map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))
}

/// One MMIO event as JSON (`{"kind": "ld"|"st", "addr", "value"}`).
fn event_to_json(e: &MmioEvent) -> Value {
    Value::obj()
        .field(
            "kind",
            Value::Str(match e.kind {
                MmioEventKind::Load => "ld".into(),
                MmioEventKind::Store => "st".into(),
            }),
        )
        .field("addr", Value::UInt(e.addr as u64))
        .field("value", Value::UInt(e.value as u64))
}

fn opt_event_to_json(e: &Option<MmioEvent>) -> Value {
    match e {
        Some(e) => event_to_json(e),
        None => Value::Null,
    }
}

/// A [`DiffError`] as JSON, tagged by `kind` (what `--replay-plan` reads
/// back from a triage artifact).
pub(crate) fn error_to_json(e: &DiffError) -> Value {
    let kind = |k: &str| Value::obj().field("kind", Value::Str(k.into()));
    match e {
        DiffError::SourceUb(m) => kind("source_ub").field("msg", Value::Str(m.clone())),
        DiffError::CompileError(m) => kind("compile_error").field("msg", Value::Str(m.clone())),
        DiffError::MachineError(m) => kind("machine_error").field("msg", Value::Str(m.clone())),
        DiffError::MachineTimeout => kind("machine_timeout"),
        DiffError::TraceMismatch {
            index,
            source,
            machine,
        } => kind("trace_mismatch")
            .field("index", Value::UInt(*index as u64))
            .field("source", opt_event_to_json(source))
            .field("machine", opt_event_to_json(machine)),
        DiffError::SpecViolation {
            matched,
            total,
            model,
        } => kind("spec_violation")
            .field("matched", Value::UInt(*matched as u64))
            .field("total", Value::UInt(*total as u64))
            .field("model", Value::Str((*model).to_string())),
        DiffError::WorkloadIncomplete {
            delivered,
            expected,
        } => kind("workload_incomplete")
            .field("delivered", Value::UInt(*delivered))
            .field("expected", Value::UInt(*expected)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use devices::FaultAtom;

    /// A synthetic predicate: fails iff the plan still schedules garbage
    /// on wires ≥ `threshold` interactions in. Atom-local, so ddmin must
    /// keep exactly the offending atoms.
    fn garbage_after(threshold: u64) -> impl FnMut(&FaultPlan) -> Option<DiffError> {
        move |p: &FaultPlan| {
            p.wire_garbage
                .iter()
                .any(|&(at, _)| at >= threshold)
                .then_some(DiffError::MachineTimeout)
        }
    }

    fn noisy_plan() -> FaultPlan {
        let atoms = [
            FaultAtom::ByteTestJunk(3),
            FaultAtom::SpuriousRx(5),
            FaultAtom::WireGarbage(10, 0xAA),
            FaultAtom::WireGarbage(90, 0x55),
            FaultAtom::RxStall(40, 7),
        ];
        FaultPlan::from_atoms(7, &atoms)
    }

    #[test]
    fn shrink_keeps_only_the_culprit_atom() {
        let (minimal, _, probes) =
            shrink_plan(&noisy_plan(), garbage_after(50)).expect("plan fails");
        assert_eq!(minimal.atoms(), vec![FaultAtom::WireGarbage(90, 0x55)]);
        assert!(probes > 1);
    }

    #[test]
    fn shrink_refuses_passing_plans() {
        assert!(shrink_plan(&noisy_plan(), garbage_after(1000)).is_none());
    }

    #[test]
    fn shrink_result_is_one_minimal() {
        // Two culprit atoms that must *both* survive: the failure needs a
        // pair, so ddmin cannot drop either, but must drop all noise.
        let both = |p: &FaultPlan| (p.wire_garbage.len() >= 2).then_some(DiffError::MachineTimeout);
        let (minimal, _, _) = shrink_plan(&noisy_plan(), both).expect("plan fails");
        let atoms = minimal.atoms();
        assert_eq!(
            atoms,
            vec![
                FaultAtom::WireGarbage(10, 0xAA),
                FaultAtom::WireGarbage(90, 0x55)
            ]
        );
        // 1-minimality, checked directly: every single-atom removal passes.
        for i in 0..atoms.len() {
            let mut fewer = atoms.clone();
            fewer.remove(i);
            let sub = FaultPlan::from_atoms(minimal.seed, &fewer);
            assert!(sub.wire_garbage.len() < 2, "removal {i} still fails");
        }
    }

    #[test]
    fn shrink_is_deterministic() {
        let a = shrink_plan(&noisy_plan(), garbage_after(50)).expect("fails");
        let b = shrink_plan(&noisy_plan(), garbage_after(50)).expect("fails");
        assert_eq!(a.0, b.0);
        assert_eq!(a.2, b.2);
    }

    #[test]
    fn atomic_write_replaces_not_appends() {
        let dir = std::env::temp_dir().join("lightbulb-atomic-write-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("artifact.json");
        write_atomic(&path, "first").expect("write");
        write_atomic(&path, "second").expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text, "second\n");
        assert!(
            !path.with_extension("tmp").exists(),
            "tmp file renamed away"
        );
        std::fs::remove_file(&path).ok();
    }
}

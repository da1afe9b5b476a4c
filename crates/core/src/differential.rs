//! The proof-shaped interface checks, as differential tests.
//!
//! Each function here corresponds to one proof in the paper's stack
//! (Figure 3), restated as "run both sides of the interface and compare
//! the observables":
//!
//! | paper proof                         | here                              |
//! |-------------------------------------|-----------------------------------|
//! | compiler correctness (§5.3)         | [`check_compiler_differential`]   |
//! | compiler phase 1 simulation         | `check_flattening_differential`   |
//! | optimizer soundness (our §7.2.1 baseline) | [`check_optimizer_differential`] |
//! | processor–ISA consistency (§5.8)    | [`check_isa_consistency`]         |
//! | pipelined ⊑ single-cycle (§5.7)     | re-exported `processor::refinement` |
//!
//! Source-level runs that hit undefined behavior or fuel exhaustion prove
//! nothing (the compiler promises nothing about them) and are reported as
//! [`DiffError::SourceUb`] so harnesses can discard them.

use crate::debug_dev::DebugDevice;
use crate::progen::ProgGen;
use crate::system::LightbulbRun;
use crate::system::{build_image, ProcessorKind, SystemConfig};
use bedrock2::ast::Program;
use bedrock2::semantics::Interp;
use bedrock2_compiler::{compile, CompileOptions, CompiledProgram, MmioExtCompiler};
use devices::{Board, FaultPlan, FrameFault, TrafficGen};
use lightbulb::{good_hl_trace, probe, MmioBridge};
use obs::json::Value;
use obs::Counters;
use processor::{replay_trace, Divergence};
use proglogic::trace::{Monitor, TracePred};
use riscv_spec::{Memory, MmioEvent, SpecMachine, StepOutcome};
use std::fmt::Write as _;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Mutex;

/// Fuel for source-level runs.
const SOURCE_FUEL: u64 = 4_000_000;
/// Instruction budget for machine-level runs.
const MACHINE_FUEL: u64 = 40_000_000;
/// RAM for machine-level runs.
const RAM: u32 = 0x1_0000;

/// A differential-check failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiffError {
    /// The source run hit UB or ran out of fuel: the run is inconclusive
    /// (not a compiler bug).
    SourceUb(String),
    /// The program failed to compile.
    CompileError(String),
    /// The compiled program hit a machine error although the source ran
    /// clean — a compiler or machine bug.
    MachineError(String),
    /// The compiled program did not halt within the budget.
    MachineTimeout,
    /// The observable traces differ.
    TraceMismatch {
        /// First differing index.
        index: usize,
        /// Source-side event (if any).
        source: Option<MmioEvent>,
        /// Machine-side event (if any).
        machine: Option<MmioEvent>,
    },
    /// A run's MMIO trace fell outside the top-level trace specification —
    /// a driver-hardening bug, or a fault shape the spec does not classify.
    SpecViolation {
        /// Events matched before the trace left the specification.
        matched: usize,
        /// Total events in the trace.
        total: usize,
        /// Which machine model produced the trace.
        model: &'static str,
    },
    /// The run stayed inside the spec but the workload did not complete
    /// within the cycle budget. Transient under a bigger budget; a
    /// liveness failure once retries exhaust the escalation schedule.
    /// Produced only when [`FaultSweepConfig::require_done`] is set.
    WorkloadIncomplete {
        /// Frames the board delivered before the budget ran out.
        delivered: u64,
        /// Frames the plan lets through (injected minus dropped).
        expected: u64,
    },
}

impl DiffError {
    /// True for failures a bigger budget might clear (fuel/cycle
    /// exhaustion): the sweep engine retries these with escalating budgets
    /// before classifying the seed as failed. Everything else is a hard
    /// disagreement and retrying would only reproduce it.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            DiffError::MachineTimeout | DiffError::WorkloadIncomplete { .. }
        )
    }
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffError::SourceUb(e) => write!(f, "source run inconclusive: {e}"),
            DiffError::CompileError(e) => write!(f, "compile error: {e}"),
            DiffError::MachineError(e) => write!(f, "machine error on clean source: {e}"),
            DiffError::MachineTimeout => write!(f, "compiled program did not halt"),
            DiffError::TraceMismatch {
                index,
                source,
                machine,
            } => write!(
                f,
                "trace mismatch at {index}: source {source:?} vs machine {machine:?}"
            ),
            DiffError::SpecViolation {
                matched,
                total,
                model,
            } => write!(
                f,
                "spec violation on the {model} model: trace leaves goodHlTrace \
                 after {matched} of {total} events"
            ),
            DiffError::WorkloadIncomplete {
                delivered,
                expected,
            } => write!(
                f,
                "workload incomplete: {delivered} of {expected} frames delivered \
                 within the cycle budget"
            ),
        }
    }
}

impl std::error::Error for DiffError {}

/// Runs `main` at the source level, returning its observation trace.
///
/// # Errors
///
/// [`DiffError::SourceUb`] when the run is inconclusive.
pub fn run_source(prog: &Program) -> Result<Vec<MmioEvent>, DiffError> {
    let mut interp = Interp::new(
        prog,
        Memory::with_size(RAM),
        MmioBridge::new(DebugDevice::new()),
    )
    .with_fuel(SOURCE_FUEL);
    interp
        .call("main", &[])
        .map_err(|e| DiffError::SourceUb(e.to_string()))?;
    Ok(interp.ext.events)
}

/// Compiles `main` and runs it on the ISA spec machine, returning the
/// observation trace.
///
/// # Errors
///
/// Compilation failures, machine errors, and timeouts.
pub fn run_compiled(prog: &Program, optimize: bool) -> Result<Vec<MmioEvent>, DiffError> {
    run_compiled_with(
        prog,
        CompileOptions {
            optimize,
            ..CompileOptions::default()
        },
    )
}

/// Like [`run_compiled`] with explicit options (used by the spill-all
/// ablation sweep).
///
/// # Errors
///
/// Compilation failures, machine errors, and timeouts.
pub fn run_compiled_with(
    prog: &Program,
    opts: CompileOptions,
) -> Result<Vec<MmioEvent>, DiffError> {
    let image = compile(prog, &MmioExtCompiler, &opts)
        .map_err(|e| DiffError::CompileError(e.to_string()))?;
    let mut m = SpecMachine::new(Memory::with_size(RAM), DebugDevice::new());
    m.load_program(0, &image.words());
    match m.run_block(MACHINE_FUEL) {
        Ok(StepOutcome::Halted { .. }) => Ok(m.trace),
        Ok(StepOutcome::OutOfFuel) => Err(DiffError::MachineTimeout),
        Err(e) => Err(DiffError::MachineError(e.to_string())),
    }
}

fn compare(a: &[MmioEvent], b: &[MmioEvent]) -> Result<(), DiffError> {
    let n = a.len().max(b.len());
    for i in 0..n {
        if a.get(i) != b.get(i) {
            return Err(DiffError::TraceMismatch {
                index: i,
                source: a.get(i).copied(),
                machine: b.get(i).copied(),
            });
        }
    }
    Ok(())
}

/// Compiler correctness on one program: the compiled code's I/O trace on
/// the ISA spec machine equals the interpreter's.
///
/// # Errors
///
/// [`DiffError::SourceUb`] for inconclusive runs; any other variant is a
/// genuine bug.
pub fn check_compiler_differential(prog: &Program, optimize: bool) -> Result<(), DiffError> {
    let source = run_source(prog)?;
    let machine = run_compiled(prog, optimize)?;
    compare(&source, &machine)
}

/// Compiler correctness with the spill-everything ablation: the degenerate
/// no-register allocation must still be correct (it exercises every spill
/// path of the code generator).
///
/// # Errors
///
/// Like [`check_compiler_differential`].
pub fn check_spill_all_differential(prog: &Program) -> Result<(), DiffError> {
    let source = run_source(prog)?;
    let machine = run_compiled_with(
        prog,
        CompileOptions {
            spill_everything: true,
            ..CompileOptions::default()
        },
    )?;
    compare(&source, &machine)
}

/// Phase-1 (flattening) correctness on one program.
///
/// # Errors
///
/// Like [`check_compiler_differential`], at the FlatImp level.
pub fn check_flattening_differential(prog: &Program) -> Result<(), DiffError> {
    let source = run_source(prog)?;
    let flat = bedrock2_compiler::flatten::flatten_program(prog);
    let mut fi = bedrock2_compiler::flatimp::FlatInterp::new(
        &flat,
        Memory::with_size(RAM),
        MmioBridge::new(DebugDevice::new()),
    );
    fi.call("main", &[])
        .map_err(|e| DiffError::MachineError(format!("{e:?}")))?;
    let flat_events: Vec<MmioEvent> = fi
        .trace
        .iter()
        .map(|io| match io.action.as_str() {
            "MMIOREAD" => MmioEvent::load(io.args[0], io.rets[0]),
            "MMIOWRITE" => MmioEvent::store(io.args[0], io.args[1]),
            other => panic!("unexpected action {other}"),
        })
        .collect();
    compare(&source, &flat_events)
}

/// Optimizer soundness on one program: optimized and unoptimized binaries
/// produce the same trace. The source interpreter only screens out
/// programs with undefined behaviour, on which the two may rightly
/// differ.
///
/// # Errors
///
/// Like [`check_compiler_differential`]; a
/// [`DiffError::TraceMismatch`] reports the unoptimized binary's event as
/// `source` and the optimized one's as `machine`.
pub fn check_optimizer_differential(prog: &Program) -> Result<(), DiffError> {
    run_source(prog)?;
    let unoptimized = run_compiled(prog, false)?;
    let optimized = run_compiled(prog, true)?;
    compare(&unoptimized, &optimized)
}

/// ISA consistency (§5.8) on one program: the single-cycle Kami spec core
/// agrees with the riscv-spec machine on every observable, provided the
/// software contract holds (which the spec-machine run itself checks).
///
/// # Errors
///
/// [`DiffError::SourceUb`] when even the spec machine flags the program;
/// mismatches otherwise.
pub fn check_isa_consistency(prog: &Program, optimize: bool) -> Result<(), DiffError> {
    let opts = CompileOptions {
        optimize,
        ..CompileOptions::default()
    };
    let image = compile(prog, &MmioExtCompiler, &opts)
        .map_err(|e| DiffError::CompileError(e.to_string()))?;

    let mut m = SpecMachine::new(Memory::with_size(RAM), DebugDevice::new());
    m.load_program(0, &image.words());
    match m.run_block(MACHINE_FUEL) {
        Ok(StepOutcome::Halted { .. }) => {}
        // Fuel exhaustion and UB are both outside the consistency
        // statement (§5.8): the run proves nothing about the cores.
        Ok(StepOutcome::OutOfFuel) => {
            return Err(DiffError::SourceUb("machine fuel exhausted".to_string()))
        }
        Err(e) => return Err(DiffError::SourceUb(e.to_string())),
    }

    let mut core = processor::SingleCycle::new(&image.bytes(), RAM, DebugDevice::new());
    core.run(MACHINE_FUEL);
    if !core.halted {
        return Err(DiffError::MachineTimeout);
    }
    compare(&m.trace, &core.mem.events())?;

    // Architectural state must agree too.
    for r in 1..32u8 {
        let (a, b) = (m.regs[r as usize], core.rf.read(r));
        if a != b {
            return Err(DiffError::TraceMismatch {
                index: usize::MAX,
                source: Some(MmioEvent::load(r as u32, a)),
                machine: Some(MmioEvent::load(r as u32, b)),
            });
        }
    }
    Ok(())
}

/// The classified result of one seed, after panic isolation and retries.
/// The engine folds these into the [`SweepReport`] aggregates; the enum is
/// public so custom harnesses can pattern-match checkpoint/triage output.
#[derive(Clone, Debug)]
pub enum SeedOutcome {
    /// The check passed (possibly after retries).
    Passed {
        /// The seed that passed.
        seed: u64,
    },
    /// Discarded as [`DiffError::SourceUb`] (outside every theorem).
    Inconclusive {
        /// The seed discarded.
        seed: u64,
        /// Why the run proves nothing.
        reason: String,
    },
    /// A genuine disagreement (transient errors already retried).
    Failed {
        /// The failing seed.
        seed: u64,
        /// What went wrong.
        error: DiffError,
    },
    /// The check panicked; the panic was caught, the seed recorded, and
    /// the rest of the sweep continued.
    Panicked {
        /// The seed whose check panicked.
        seed: u64,
        /// The panic payload (message), when it was a string.
        payload: String,
    },
}

/// How the sweep engine retries transiently-failing seeds
/// ([`DiffError::is_transient`]): up to `attempts` tries per seed, the
/// attempt index passed to the check so it can escalate its budget. Retries
/// follow at once: the checks are deterministic, so waiting cannot change
/// what a retry returns.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts per seed (≥ 1; 1 means no retry).
    pub attempts: u32,
}

impl Default for RetryPolicy {
    /// No retries: every error classifies immediately.
    fn default() -> RetryPolicy {
        RetryPolicy { attempts: 1 }
    }
}

impl RetryPolicy {
    /// The fault-sweep default: three attempts (quick, escalated,
    /// escalated-again budgets).
    pub fn escalating() -> RetryPolicy {
        RetryPolicy { attempts: 3 }
    }
}

/// Knobs for [`resilient_sweep`] beyond the seed range and shard count.
#[derive(Clone, Debug, Default)]
pub struct SweepOptions {
    /// Retry schedule for transient failures.
    pub retry: RetryPolicy,
    /// Write a [`crate::checkpoint::SweepCheckpoint`] to this path as the
    /// sweep progresses.
    pub checkpoint: Option<CheckpointConfig>,
    /// Resume from a previously written checkpoint: completed seeds are
    /// skipped and their recorded outcomes merged as if just computed.
    pub resume: Option<crate::checkpoint::SweepCheckpoint>,
    /// Cooperative cancellation: when set to `true` mid-sweep, every shard
    /// stops at its next seed boundary, a final checkpoint is written, and
    /// the report comes back with `interrupted = true`.
    pub cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

/// Where and how often checkpoints are written.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Checkpoint file path (written atomically: temp file + rename).
    pub path: std::path::PathBuf,
    /// Write after every N completed seeds (across all shards).
    pub every: u64,
    /// Workload tag recorded in the file; resume refuses a tag mismatch so
    /// a checkpoint can never silently resume a different sweep.
    pub tag: String,
}

/// The outcome of a sharded seed sweep ([`parallel_sweep`],
/// [`resilient_sweep`]).
#[derive(Clone, Debug, Default)]
pub struct SweepReport {
    /// Seeds swept.
    pub total: u64,
    /// Runs where both sides completed and agreed.
    pub conclusive: u64,
    /// Runs discarded as [`DiffError::SourceUb`] (outside every theorem).
    pub inconclusive: u64,
    /// Genuine disagreements, in ascending-seed order.
    pub failures: Vec<(u64, DiffError)>,
    /// Seeds whose check panicked (caught per seed; the sweep completed
    /// without them), in ascending-seed order.
    pub panicked: Vec<(u64, String)>,
    /// `core.diff.*` counters, merged from the per-shard registries in
    /// shard order (summed counters make the merge order-insensitive, so
    /// reports are identical across shard counts).
    pub counters: Counters,
    /// Shards the sweep actually used.
    pub shards: usize,
    /// First seed of the sweep.
    pub start: u64,
    /// Seeds per shard (the last shard may run fewer).
    pub chunk: u64,
    /// True when the sweep was cancelled before covering every seed; the
    /// checkpoint (if configured) holds the exact resume point.
    pub interrupted: bool,
    /// Path of the last checkpoint written, for error messages.
    pub checkpoint_path: Option<String>,
    /// Shrunken counterexamples for failing seeds (filled by
    /// [`fault_sweep_with`] when triage is enabled).
    pub triage: Vec<crate::triage::TriageSummary>,
}

impl SweepReport {
    /// Which shard a seed ran in: seeds are split into contiguous chunks,
    /// shard 0 first.
    pub fn shard_of(&self, seed: u64) -> usize {
        seed.saturating_sub(self.start)
            .checked_div(self.chunk)
            .unwrap_or(0) as usize
    }

    /// True when nothing failed, nothing panicked, and the sweep ran to
    /// completion.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty() && self.panicked.is_empty() && !self.interrupted
    }

    /// Panics with the first failing seed — and the shard it ran in — if
    /// any: the sweep analogue of `Result::unwrap` for test harnesses.
    /// The message carries everything a reproduction needs: the one-liner
    /// seed-range repro, the checkpoint path when one was written, and the
    /// triage summaries (minimal plan size + divergence site) when
    /// shrinking ran. Panicked seeds and interrupted sweeps fail too —
    /// a sweep that did not cover its range proves nothing.
    pub fn expect_clean(&self, name: &str) {
        if self.is_clean() {
            return;
        }
        let mut msg = String::new();
        if let Some((seed, e)) = self.failures.first() {
            let _ = write!(
                msg,
                "{name}: {} of {} seeds failed; first is seed {seed} in shard {}/{} \
                 (reproduce: rerun the check on seed range {seed}..{} with 1 shard): {e}",
                self.failures.len(),
                self.total,
                self.shard_of(*seed),
                self.shards,
                seed + 1,
            );
        } else if let Some((seed, payload)) = self.panicked.first() {
            let _ = write!(
                msg,
                "{name}: {} of {} seeds panicked; first is seed {seed} in shard {}/{}: {payload}",
                self.panicked.len(),
                self.total,
                self.shard_of(*seed),
                self.shards,
            );
        } else {
            let _ = write!(
                msg,
                "{name}: sweep interrupted after {} of {} seeds",
                self.conclusive + self.inconclusive,
                self.total,
            );
        }
        if !self.failures.is_empty() && !self.panicked.is_empty() {
            let _ = write!(msg, "; plus {} panicked seed(s)", self.panicked.len());
        }
        for t in &self.triage {
            let _ = write!(
                msg,
                "\n  triage: seed {} shrank {} -> {} fault atoms; {}",
                t.seed, t.original_atoms, t.minimal_atoms, t.divergence
            );
        }
        if let Some(path) = &self.checkpoint_path {
            let _ = write!(msg, "\n  checkpoint: {path}");
        }
        panic!("{msg}");
    }

    /// The canonical JSON rendering of the report (`sweep-report/v1`).
    /// Two sweeps over the same seeds with the same check render
    /// byte-identically, regardless of shard count and regardless of
    /// whether either was interrupted and resumed — the property the
    /// checkpoint tests pin down. `checkpoint_path` is deliberately
    /// excluded: it describes how the sweep was driven, not what it found.
    pub fn to_json(&self) -> Value {
        Value::obj()
            .field("schema", Value::Str("sweep-report/v1".into()))
            .field("total", Value::UInt(self.total))
            .field("conclusive", Value::UInt(self.conclusive))
            .field("inconclusive", Value::UInt(self.inconclusive))
            .field("interrupted", Value::Bool(self.interrupted))
            .field(
                "failures",
                Value::Arr(
                    self.failures
                        .iter()
                        .map(|(seed, e)| {
                            Value::obj()
                                .field("seed", Value::UInt(*seed))
                                .field("error", crate::checkpoint::error_to_json(e))
                        })
                        .collect(),
                ),
            )
            .field(
                "panicked",
                Value::Arr(
                    self.panicked
                        .iter()
                        .map(|(seed, payload)| {
                            Value::obj()
                                .field("seed", Value::UInt(*seed))
                                .field("payload", Value::Str(payload.clone()))
                        })
                        .collect(),
                ),
            )
            .field("shards", Value::UInt(self.shards as u64))
            .field("start", Value::UInt(self.start))
            .field("chunk", Value::UInt(self.chunk))
            .field(
                "triage",
                Value::Arr(self.triage.iter().map(|t| t.to_json()).collect()),
            )
            .field(
                "counters",
                Value::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.to_string(), Value::UInt(v)))
                        .collect(),
                ),
            )
    }
}

/// Shard count matching the host: one per available hardware thread.
pub fn default_shards() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Sweeps `seeds` through `check` on programs from the default
/// [`ProgGen`], sharded across `shards` OS threads.
///
/// Results are deterministic regardless of `shards`: seeds are split into
/// contiguous chunks, each shard reports into its own [`Counters`], and
/// shard results are merged in shard (= ascending seed) order.
pub fn parallel_sweep<C>(seeds: Range<u64>, shards: usize, check: C) -> SweepReport
where
    C: Fn(&Program) -> Result<(), DiffError> + Sync,
{
    parallel_sweep_with(
        seeds,
        shards,
        |seed| ProgGen::new(seed).gen_program(),
        check,
    )
}

/// [`parallel_sweep`] with a custom seed-to-program generator (e.g. a
/// [`ProgGen`] with a non-default `GenConfig`).
pub fn parallel_sweep_with<G, C>(
    seeds: Range<u64>,
    shards: usize,
    generate: G,
    check: C,
) -> SweepReport
where
    G: Fn(u64) -> Program + Sync,
    C: Fn(&Program) -> Result<(), DiffError> + Sync,
{
    // No retries and no checkpointing, as befits a smoke-test sweep.
    resilient_sweep(seeds, shards, &SweepOptions::default(), |seed, _, _| {
        check(&generate(seed))
    })
}

/// Extracts a printable message from a caught panic payload.
fn panic_payload(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one seed to a classified [`SeedOutcome`]: the check is guarded by
/// `catch_unwind` (a panicking seed is an outcome, not a poisoned sweep),
/// and transient failures are retried up to the policy's attempt budget
/// with the attempt index passed through so the check can escalate fuel.
fn run_seed<C>(seed: u64, retry: &RetryPolicy, counters: &mut Counters, check: &C) -> SeedOutcome
where
    C: Fn(u64, u32, &mut Counters) -> Result<(), DiffError> + Sync,
{
    let attempts = retry.attempts.max(1);
    let mut attempt = 0;
    loop {
        // The closure touches the shard's counters across the unwind
        // boundary; a panicking seed may leave partial telemetry behind,
        // which stays deterministic because the same partial work happens
        // at every shard count.
        let result = catch_unwind(AssertUnwindSafe(|| check(seed, attempt, &mut *counters)));
        match result {
            Err(payload) => {
                // Panics are deterministic here (no I/O, no wall-clock in
                // the checks), so retrying would only panic again.
                return SeedOutcome::Panicked {
                    seed,
                    payload: panic_payload(payload),
                };
            }
            Ok(Ok(())) => {
                if attempt > 0 {
                    counters.add("core.diff.recovered_seeds", 1);
                }
                return SeedOutcome::Passed { seed };
            }
            Ok(Err(DiffError::SourceUb(reason))) => {
                return SeedOutcome::Inconclusive { seed, reason }
            }
            Ok(Err(e)) if e.is_transient() && attempt + 1 < attempts => {
                if attempt == 0 {
                    counters.add("core.diff.retried_seeds", 1);
                }
                counters.add("core.diff.retry_attempts", 1);
                attempt += 1;
            }
            Ok(Err(error)) => return SeedOutcome::Failed { seed, error },
        }
    }
}

/// How [`resilient_sweep`] splits `seeds` over `shards` requested shards:
/// `(shards used, seeds per shard)`. Seeds go out in contiguous chunks of
/// equal size (the last may be short), so fewer shards than requested can
/// end up used; an empty range uses one.
pub(crate) fn sweep_geometry(seeds: &Range<u64>, shards: usize) -> (usize, u64) {
    let n = seeds.end.saturating_sub(seeds.start);
    if n == 0 {
        return (1, 0);
    }
    let chunk = n.div_ceil(shards.max(1) as u64);
    (n.div_ceil(chunk) as usize, chunk)
}

/// The crash-resilient sharding engine behind every sweep: runs `check`
/// once per seed (attempt index second), split into contiguous chunks
/// across OS threads. Per seed, panics are caught and recorded
/// ([`SeedOutcome::Panicked`]) and transient failures retried
/// ([`RetryPolicy`]); per sweep, progress can be checkpointed atomically
/// and resumed ([`SweepOptions::checkpoint`] / [`SweepOptions::resume`]),
/// with the resumed report byte-identical to an uninterrupted run's.
///
/// `check` may record per-seed telemetry into the shard's [`Counters`];
/// summed counters merge order-insensitively, so reports stay identical
/// across shard counts.
///
/// # Panics
///
/// Panics when `opts.resume` carries a checkpoint whose geometry or tag
/// does not match this sweep — resuming a different sweep would silently
/// fabricate results. CLI frontends validate first via
/// [`crate::checkpoint::SweepCheckpoint::validate`].
pub fn resilient_sweep<C>(
    seeds: Range<u64>,
    shards: usize,
    opts: &SweepOptions,
    check: C,
) -> SweepReport
where
    C: Fn(u64, u32, &mut Counters) -> Result<(), DiffError> + Sync,
{
    use crate::checkpoint::{ShardProgress, SweepCheckpoint};

    if let Some(cp) = &opts.resume {
        let tag = opts.checkpoint.as_ref().map(|c| c.tag.as_str());
        cp.validate(seeds.clone(), shards, tag)
            .unwrap_or_else(|e| panic!("cannot resume this sweep from the checkpoint: {e}"));
    }
    let start = seeds.start;
    let (shards_used, chunk) = sweep_geometry(&seeds, shards);
    let all: Vec<u64> = seeds.collect();

    // One live progress record per shard, shared with the checkpoint
    // writer. Writes go through a temp-file rename, so a kill at any
    // moment leaves either the previous or the next complete checkpoint.
    let progress: Mutex<SweepCheckpoint> = Mutex::new(match &opts.resume {
        Some(cp) => cp.clone(),
        None => SweepCheckpoint::fresh(
            opts.checkpoint.as_ref().map_or("", |c| c.tag.as_str()),
            start,
            all.len() as u64,
            shards_used,
            chunk,
        ),
    });
    let written = std::sync::atomic::AtomicU64::new(0);

    let checkpoint_tick = |shard_idx: usize, state: &ShardProgress, force: bool| {
        let Some(cfg) = &opts.checkpoint else { return };
        let mut cp = progress
            .lock()
            .expect("checkpoint mutex poisoned: a previous tick panicked while writing");
        cp.shard_states[shard_idx] = state.clone();
        let n = written.fetch_add(1, Ordering::Relaxed) + 1;
        if force || n.is_multiple_of(cfg.every.max(1)) {
            if let Err(e) = cp.write_atomic(&cfg.path) {
                // A failed checkpoint write must not kill the sweep it
                // exists to protect; the sweep still completes, only
                // resumability degrades to the previous snapshot.
                eprintln!(
                    "warning: checkpoint write to {} failed: {e}",
                    cfg.path.display()
                );
            }
        }
    };

    let cancelled = || {
        opts.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    };

    let run_shard = |shard_idx: usize, seeds: &[u64]| -> ShardProgress {
        let mut state = match &opts.resume {
            Some(cp) => cp.shard_states[shard_idx].clone(),
            None => ShardProgress::default(),
        };
        for &seed in seeds.iter().skip(state.done as usize) {
            if cancelled() {
                checkpoint_tick(shard_idx, &state, true);
                return state;
            }
            match run_seed(seed, &opts.retry, &mut state.counters, &check) {
                SeedOutcome::Passed { .. } => state.conclusive += 1,
                SeedOutcome::Inconclusive { .. } => state.inconclusive += 1,
                SeedOutcome::Failed { seed, error } => state.failures.push((seed, error)),
                SeedOutcome::Panicked { seed, payload } => {
                    state.counters.add("core.diff.panicked", 1);
                    state.panicked.push((seed, payload));
                }
            }
            state.done += 1;
            checkpoint_tick(shard_idx, &state, false);
        }
        state
    };

    let results: Vec<ShardProgress> = if shards_used == 1 {
        vec![run_shard(0, &all)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = all
                .chunks(chunk as usize)
                .enumerate()
                .map(|(i, c)| s.spawn(move || run_shard(i, c)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    // The per-seed check is unwind-guarded, so a shard
                    // thread can only die if the engine's own bookkeeping
                    // panicked — that is a bug worth aborting on, with a
                    // message saying whose fault it is.
                    h.join()
                        .expect("sweep shard thread died outside the guarded check (engine bug)")
                })
                .collect()
        })
    };

    let done: u64 = results.iter().map(|s| s.done).sum();
    let mut report = SweepReport {
        total: all.len() as u64,
        shards: shards_used,
        start,
        chunk,
        interrupted: done < all.len() as u64,
        checkpoint_path: opts
            .checkpoint
            .as_ref()
            .map(|c| c.path.display().to_string()),
        ..SweepReport::default()
    };
    for state in &results {
        let mut counters = state.counters.clone();
        counters.set("core.diff.seeds", state.done);
        counters.set("core.diff.conclusive", state.conclusive);
        counters.set("core.diff.inconclusive", state.inconclusive);
        counters.set("core.diff.failures", state.failures.len() as u64);
        report.conclusive += state.conclusive;
        report.inconclusive += state.inconclusive;
        report.failures.extend(state.failures.iter().cloned());
        report.panicked.extend(state.panicked.iter().cloned());
        report.counters.merge(&counters);
    }
    report.counters.set("core.diff.shards", shards_used as u64);
    // Seal the checkpoint with every shard's final state so a resume of a
    // finished sweep is a no-op that reproduces the same report.
    if let Some(last) = results.len().checked_sub(1) {
        checkpoint_tick(last, &results[last], true);
    }
    report
}

/// Configuration for [`fault_sweep`]: the system under test and the
/// per-seed workload.
#[derive(Clone, Debug)]
pub struct FaultSweepConfig {
    /// Base system configuration — driver options, SPI wire speed,
    /// pipeline shape. The sweep runs it on both the pipelined core and
    /// the ISA spec machine regardless of its `processor` field.
    pub system: SystemConfig,
    /// Command frames injected per run (alternating on/off), each subject
    /// to the plan's frame faults.
    pub frames: usize,
    /// First-pass cycle budget. Most plans finish their whole workload
    /// well within it; spec-checking cost is linear in trace length, so
    /// keeping easy runs short is what makes thousand-seed sweeps cheap.
    pub quick_cycles: u64,
    /// Full cycle budget, used only when the quick pass did not consume
    /// the workload (hard register faults and long stalls). Sized so a
    /// plan's worst case — two failed bring-up attempts plus an RX stall
    /// and re-initialization — still reaches steady state.
    pub max_cycles: u64,
    /// Additionally require the workload to *finish* (every non-dropped
    /// frame delivered, pending queue drained) within the full budget,
    /// reporting [`DiffError::WorkloadIncomplete`] otherwise. Off by
    /// default: the base sweep checks safety (spec satisfaction and
    /// refinement), and recoverable plans are calibrated for that; this
    /// flag turns the sweep into a liveness check, the mode the triage
    /// demo uses to plant a deliberate failure.
    pub require_done: bool,
}

impl Default for FaultSweepConfig {
    fn default() -> FaultSweepConfig {
        FaultSweepConfig {
            system: SystemConfig::default(),
            frames: 3,
            quick_cycles: 250_000,
            max_cycles: 800_000,
            require_done: false,
        }
    }
}

/// Checks one seeded fault plan end to end (one [`fault_sweep`] unit):
///
/// 1. the **pipelined processor** runs the image against a board faulted
///    by `FaultPlan::from_seed(seed)`; its trace must stay a prefix of
///    `goodHlTrace` (the hardened drivers must classify every injected
///    fault as a recoverable-failure shape);
/// 2. the **ISA spec machine** runs against a fresh, identically faulted
///    board; the run must be UB-free and its trace must also satisfy the
///    spec (faults are interaction-keyed, so the same plan is meaningful
///    on both models even though their tick rates differ);
/// 3. the pipelined trace is **replayed** into the single-cycle spec core
///    ([`replay_trace`]): under the same input nondeterminism the spec
///    core must produce the identical trace, so the faulted run still
///    refines the ISA.
///
/// Driver-recovery telemetry (`devices.faults.injected`, `driver.retries`,
/// `driver.reinit`) is added to `counters`. Reproduce a sweep failure with
/// `fault_check(seed, &cfg, &build_image(&cfg.system), &mut Counters::new())`.
///
/// # Errors
///
/// [`DiffError::SpecViolation`] when a trace leaves the specification,
/// [`DiffError::MachineError`] when the spec machine flags UB, and
/// [`DiffError::TraceMismatch`] when the replay diverges.
pub fn fault_check(
    seed: u64,
    cfg: &FaultSweepConfig,
    image: &CompiledProgram,
    counters: &mut Counters,
) -> Result<(), DiffError> {
    fault_check_plan(&FaultPlan::from_seed(seed), cfg, image, counters)
}

/// [`fault_check`] on an explicit plan instead of a seeded one: the unit
/// the triage minimizer probes with candidate sub-plans, and what
/// `fault_sweep --replay-plan` runs on a minimized artifact. The traffic
/// workload is still derived from `plan.seed`, so a sub-plan faces the
/// same frames its parent did.
///
/// # Errors
///
/// Like [`fault_check`], plus [`DiffError::WorkloadIncomplete`] when
/// [`FaultSweepConfig::require_done`] is set and the workload stalls.
pub fn fault_check_plan(
    plan: &FaultPlan,
    cfg: &FaultSweepConfig,
    image: &CompiledProgram,
    counters: &mut Counters,
) -> Result<(), DiffError> {
    fault_check_against(
        plan,
        cfg,
        image,
        &good_hl_trace(cfg.system.driver),
        counters,
    )
}

/// [`fault_check_plan`] against a prebuilt `spec` (which must be
/// `good_hl_trace(cfg.system.driver)`), so a sweep or a triage pass builds
/// the specification once. One [`Monitor`] checks the pipelined trace and
/// then the spec-machine trace, reusing the states the first trace built.
pub(crate) fn fault_check_against(
    plan: &FaultPlan,
    cfg: &FaultSweepConfig,
    image: &CompiledProgram,
    spec: &TracePred,
    counters: &mut Counters,
) -> Result<(), DiffError> {
    check_runs(plan, cfg, image, spec, counters, run_adaptive)
}

/// One model's run under the adaptive budget: a quick pass suffices for
/// most plans; when faults kept the workload from finishing, the same
/// machine runs on to the full budget. Runs are pure functions of the
/// seed, so the continued run equals a fresh one with the full budget, and
/// results stay deterministic across runs and shard counts.
fn run_adaptive(
    sys: &SystemConfig,
    image: &CompiledProgram,
    plan: &FaultPlan,
    frames: &[Vec<u8>],
    cfg: &FaultSweepConfig,
) -> LightbulbRun {
    let mut run = sys.start(image, plan, frames, None);
    let quick = run.run_to(cfg.quick_cycles);
    if workload_done(&quick, plan, cfg) || cfg.max_cycles <= cfg.quick_cycles {
        quick
    } else {
        run.run_to(cfg.max_cycles)
    }
}

/// How [`check_runs`] runs one machine model on a plan.
pub(crate) type ModelRunner =
    fn(&SystemConfig, &CompiledProgram, &FaultPlan, &[Vec<u8>], &FaultSweepConfig) -> LightbulbRun;

/// Runs `plan` on the `kind` model with `run_on`, against the plan seed's
/// traffic: `cfg.frames` commands, alternately on and off.
pub(crate) fn run_model(
    kind: ProcessorKind,
    plan: &FaultPlan,
    cfg: &FaultSweepConfig,
    image: &CompiledProgram,
    run_on: ModelRunner,
) -> LightbulbRun {
    let mut gen = TrafficGen::new(plan.seed);
    let frames: Vec<Vec<u8>> = (0..cfg.frames).map(|i| gen.command(i % 2 == 0)).collect();
    let sys = SystemConfig {
        processor: kind,
        ..cfg.system
    };
    run_on(&sys, image, plan, &frames, cfg)
}

/// Frames the plan drops never reach the chip; everything else must be
/// delivered and consumed (status popped, pending queue empty) for a run
/// to count as "workload done".
fn expected_arrivals(plan: &FaultPlan, cfg: &FaultSweepConfig) -> u64 {
    cfg.frames as u64
        - plan
            .frame_faults
            .iter()
            .filter(|(i, f)| (*i as usize) < cfg.frames && matches!(f, FrameFault::Drop))
            .count() as u64
}

fn workload_done(run: &LightbulbRun, plan: &FaultPlan, cfg: &FaultSweepConfig) -> bool {
    run.report.counters.get("board.lan9250.frames_delivered") >= expected_arrivals(plan, cfg)
        && run.report.counters.get("board.lan9250.frames_pending") == 0
}

/// The body of [`fault_check_against`], with each model run by `run_on`.
fn check_runs(
    plan: &FaultPlan,
    cfg: &FaultSweepConfig,
    image: &CompiledProgram,
    spec: &TracePred,
    counters: &mut Counters,
    run_on: ModelRunner,
) -> Result<(), DiffError> {
    let mut monitor = Monitor::new(spec);
    let pipe = run_model(ProcessorKind::Pipelined, plan, cfg, image, run_on);
    let activity = probe::scan(&pipe.events);
    counters.add(
        "devices.faults.injected",
        pipe.report.counters.get("devices.faults.injected"),
    );
    counters.add("driver.retries", activity.retries);
    counters.add("driver.reinit", activity.reinits);
    if let Some(matched) = monitor.first_violation(&pipe.events) {
        return Err(DiffError::SpecViolation {
            matched,
            total: pipe.events.len(),
            model: "pipelined",
        });
    }

    let sm = run_model(ProcessorKind::SpecMachine, plan, cfg, image, run_on);
    if let Some(e) = sm.error {
        return Err(DiffError::MachineError(format!(
            "spec machine under fault plan {}: {e}",
            plan.seed
        )));
    }
    if let Some(matched) = monitor.first_violation(&sm.events) {
        return Err(DiffError::SpecViolation {
            matched,
            total: sm.events.len(),
            model: "spec machine",
        });
    }

    if cfg.require_done && (!workload_done(&pipe, plan, cfg) || !workload_done(&sm, plan, cfg)) {
        let delivered = pipe
            .report
            .counters
            .get("board.lan9250.frames_delivered")
            .min(sm.report.counters.get("board.lan9250.frames_delivered"));
        return Err(DiffError::WorkloadIncomplete {
            delivered,
            expected: expected_arrivals(plan, cfg),
        });
    }

    replay_into_spec_core(image, cfg.system.ram_bytes, &pipe.events, cfg.max_cycles)
}

/// Replays a recorded MMIO trace into the single-cycle spec core and
/// requires it to reproduce the trace exactly (the §5.7 refinement
/// statement, applied to a faulted run whose trace we already hold). The
/// event loop never halts, so the replay ends once every event is consumed.
fn replay_into_spec_core(
    image: &CompiledProgram,
    ram_bytes: u32,
    events: &[MmioEvent],
    max_cycles: u64,
) -> Result<(), DiffError> {
    let bytes = image.bytes();
    match replay_trace(&bytes, ram_bytes, events, Board::claims, false, max_cycles) {
        Ok(_) => Ok(()),
        Err(Divergence::TraceMismatch {
            index,
            implementation,
            spec,
        }) => Err(DiffError::TraceMismatch {
            index,
            source: implementation,
            machine: Some(spec),
        }),
        Err(other) => Err(DiffError::MachineError(format!(
            "replay divergence: {other:?}"
        ))),
    }
}

/// Knobs for [`fault_sweep_with`] beyond the sweep itself.
#[derive(Clone, Debug)]
pub struct FaultSweepOptions {
    /// Engine options (retry schedule, checkpoint/resume, cancellation).
    pub sweep: SweepOptions,
    /// Shrink up to this many failing seeds into
    /// [`crate::triage::TriageReport`]s after the sweep (0 disables).
    pub triage: usize,
    /// Directory where full `TRIAGE_fault_sweep_seed<N>.json` artifacts
    /// are written (`None`: summaries only, no files).
    pub triage_dir: Option<std::path::PathBuf>,
}

impl Default for FaultSweepOptions {
    /// Escalating retries, triage of the first three failures, no
    /// checkpointing, no artifact files.
    fn default() -> FaultSweepOptions {
        FaultSweepOptions {
            sweep: SweepOptions {
                retry: RetryPolicy::escalating(),
                ..SweepOptions::default()
            },
            triage: 3,
            triage_dir: None,
        }
    }
}

/// The per-attempt budget escalation: each retry of a transiently-failing
/// seed doubles the full budget, capped at two doublings — bounded, like
/// the backoff schedule, so a genuinely dead seed classifies quickly.
pub fn escalate_budget(cfg: &FaultSweepConfig, attempt: u32) -> FaultSweepConfig {
    let mut out = cfg.clone();
    out.max_cycles = cfg.max_cycles << attempt.min(2);
    out
}

/// Sweeps seeded fault plans through [`fault_check`], sharded like
/// [`parallel_sweep`]. The boot image and the `goodHlTrace` predicate are
/// built once and shared across shards; each seed's check builds its own
/// [`Monitor`] state table. The report's counters carry the sweep's
/// aggregate fault/recovery telemetry. This is [`fault_sweep_with`] under
/// default options: escalating retries, automatic triage of the first few
/// failures, no checkpointing.
pub fn fault_sweep(seeds: Range<u64>, shards: usize, cfg: &FaultSweepConfig) -> SweepReport {
    fault_sweep_with(seeds, shards, cfg, &FaultSweepOptions::default())
}

/// [`fault_sweep`] with explicit [`FaultSweepOptions`]: panic-isolated,
/// retrying, checkpointable, and self-triaging. After the sweep, each
/// failing seed (up to `opts.triage`) is shrunk to a locally-minimal
/// fault plan with a named divergence site; summaries land in
/// [`SweepReport::triage`] (and in [`SweepReport::expect_clean`]'s panic
/// message), full reports in `opts.triage_dir` when set.
pub fn fault_sweep_with(
    seeds: Range<u64>,
    shards: usize,
    cfg: &FaultSweepConfig,
    opts: &FaultSweepOptions,
) -> SweepReport {
    let image = build_image(&cfg.system);
    let spec = good_hl_trace(cfg.system.driver);
    let mut report = resilient_sweep(seeds, shards, &opts.sweep, |seed, attempt, counters| {
        fault_check_against(
            &FaultPlan::from_seed(seed),
            &escalate_budget(cfg, attempt),
            &image,
            &spec,
            counters,
        )
    });

    // Failing seeds were classified at full escalation; triage probes the
    // same (deterministic) configuration the failure was confirmed at.
    let final_cfg = escalate_budget(cfg, opts.sweep.retry.attempts.saturating_sub(1));
    for (seed, _) in report.failures.iter().take(opts.triage) {
        let Some(tr) = crate::triage::triage_seed(*seed, &final_cfg, &image) else {
            continue;
        };
        let artifact = opts.triage_dir.as_ref().and_then(|dir| {
            let path = dir.join(format!("TRIAGE_fault_sweep_seed{seed}.json"));
            match crate::checkpoint::write_atomic(&path, &tr.to_json().render()) {
                Ok(()) => Some(path.display().to_string()),
                Err(e) => {
                    eprintln!("warning: could not write {}: {e}", path.display());
                    None
                }
            }
        });
        report.triage.push(tr.summary(artifact));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One seed sweep shared by the in-crate smoke tests; the heavyweight
    /// sweeps live in `tests/` and the bench harness.
    fn sweep(
        check: impl Fn(&Program) -> Result<(), DiffError> + Sync,
        seeds: std::ops::Range<u64>,
    ) {
        let r = parallel_sweep(seeds, default_shards(), check);
        r.expect_clean("smoke sweep");
        assert!(
            r.conclusive * 2 >= r.total,
            "too few conclusive runs: {}/{}",
            r.conclusive,
            r.total
        );
    }

    #[test]
    fn compiler_differential_smoke() {
        sweep(|p| check_compiler_differential(p, false), 0..15);
    }

    #[test]
    fn optimizer_differential_smoke() {
        sweep(check_optimizer_differential, 100..115);
    }

    #[test]
    fn flattening_differential_smoke() {
        sweep(check_flattening_differential, 200..215);
    }

    #[test]
    fn isa_consistency_smoke() {
        sweep(|p| check_isa_consistency(p, false), 300..315);
    }

    #[test]
    fn sweep_reports_are_shard_count_invariant() {
        let serial = parallel_sweep(0..12, 1, |p| check_compiler_differential(p, false));
        let sharded = parallel_sweep(0..12, 4, |p| check_compiler_differential(p, false));
        assert_eq!(serial.total, sharded.total);
        assert_eq!(serial.conclusive, sharded.conclusive);
        assert_eq!(serial.inconclusive, sharded.inconclusive);
        let strip = |c: &Counters| {
            c.iter()
                .filter(|(k, _)| *k != "core.diff.shards")
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(&serial.counters), strip(&sharded.counters));
        assert_eq!(sharded.shards, 4);
    }

    /// The adaptive budget before runs were resumable: when the quick pass
    /// leaves the workload unfinished, rerun from reset with the full
    /// budget. The oracle for [`run_adaptive`].
    fn run_from_scratch(
        sys: &SystemConfig,
        image: &CompiledProgram,
        plan: &FaultPlan,
        frames: &[Vec<u8>],
        cfg: &FaultSweepConfig,
    ) -> LightbulbRun {
        let quick = sys.run_faulted(image, plan, frames, cfg.quick_cycles);
        if workload_done(&quick, plan, cfg) || cfg.max_cycles <= cfg.quick_cycles {
            quick
        } else {
            sys.run_faulted(image, plan, frames, cfg.max_cycles)
        }
    }

    /// True when `plan` leaves the workload unfinished on `kind` after the
    /// quick pass, so [`run_adaptive`] has to continue the run.
    fn escalates(
        plan: &FaultPlan,
        cfg: &FaultSweepConfig,
        image: &CompiledProgram,
        kind: ProcessorKind,
    ) -> bool {
        let quick = run_model(kind, plan, cfg, image, |sys, image, plan, frames, cfg| {
            sys.run_faulted(image, plan, frames, cfg.quick_cycles)
        });
        !workload_done(&quick, plan, cfg)
    }

    #[test]
    fn resuming_the_quick_pass_equals_rerunning_from_reset() {
        let cfg = FaultSweepConfig::default();
        let image = build_image(&cfg.system);
        let spec = good_hl_trace(cfg.system.driver);
        // Seed 4 leaves the pipelined workload unfinished after the quick
        // pass; seeds 3 and 5 finish within it.
        let seeds = 3..6;
        let pipelined = ProcessorKind::Pipelined;
        assert!(escalates(&FaultPlan::from_seed(4), &cfg, &image, pipelined));
        assert!(!escalates(
            &FaultPlan::from_seed(5),
            &cfg,
            &image,
            pipelined
        ));
        let sweep = |runner: ModelRunner| {
            resilient_sweep(
                seeds.clone(),
                1,
                &SweepOptions::default(),
                |seed, _, counters| {
                    check_runs(
                        &FaultPlan::from_seed(seed),
                        &cfg,
                        &image,
                        &spec,
                        counters,
                        runner,
                    )
                },
            )
        };
        let (resumed, rerun) = (sweep(run_adaptive), sweep(run_from_scratch));
        assert_eq!(resumed.total, 3);
        assert_eq!(resumed.to_json().render(), rerun.to_json().render());
        for seed in seeds.clone() {
            let plan = FaultPlan::from_seed(seed);
            let (mut a, mut b) = (Counters::new(), Counters::new());
            let ra = check_runs(&plan, &cfg, &image, &spec, &mut a, run_adaptive);
            let rb = check_runs(&plan, &cfg, &image, &spec, &mut b, run_from_scratch);
            assert_eq!(ra, rb, "seed {seed}");
            assert_eq!(a, b, "seed {seed}");
        }

        // A liveness failure escalates on both models, the spec machine
        // included, and must fail identically either way.
        let live = FaultSweepConfig {
            require_done: true,
            ..cfg.clone()
        };
        let plan = FaultPlan::from_atoms(7, &[devices::FaultAtom::ByteTestJunk(10_000)]);
        assert!(escalates(&plan, &live, &image, pipelined));
        assert!(escalates(&plan, &live, &image, ProcessorKind::SpecMachine));
        let (mut a, mut b) = (Counters::new(), Counters::new());
        let ra = check_runs(&plan, &live, &image, &spec, &mut a, run_adaptive);
        let rb = check_runs(&plan, &live, &image, &spec, &mut b, run_from_scratch);
        assert!(
            matches!(ra, Err(DiffError::WorkloadIncomplete { .. })),
            "{ra:?}"
        );
        assert_eq!(ra, rb);
        assert_eq!(a, b);
    }

    /// Negative controls for the replay step of [`check_runs`]: a real
    /// quick-pass pipelined trace (plan seed 4) replays clean, and each of
    /// three single-event corruptions is caught at exactly its index.
    #[test]
    fn replay_catches_each_corrupted_event_at_its_index() {
        use riscv_spec::MmioEventKind;
        let cfg = FaultSweepConfig::default();
        let image = build_image(&cfg.system);
        let plan = FaultPlan::from_seed(4);
        let pipelined = ProcessorKind::Pipelined;
        let events = run_model(
            pipelined,
            &plan,
            &cfg,
            &image,
            |sys, image, plan, frames, cfg| sys.run_faulted(image, plan, frames, cfg.quick_cycles),
        )
        .events;
        let replay = |events: &[MmioEvent]| {
            replay_into_spec_core(&image, cfg.system.ram_bytes, events, cfg.max_cycles)
        };
        assert_eq!(replay(&events), Ok(()));

        // A store whose successor differs in kind or address, so deleting
        // it shows at its own index, and a load; both mid-trace.
        let site = |e: &MmioEvent| (e.kind, e.addr);
        let store = (events.len() / 2..events.len() - 1)
            .find(|&k| {
                events[k].kind == MmioEventKind::Store && site(&events[k + 1]) != site(&events[k])
            })
            .expect("a store mid-trace");
        let load = (events.len() / 2..events.len())
            .find(|&k| events[k].kind == MmioEventKind::Load)
            .expect("a load mid-trace");
        let mut flipped = events.clone();
        flipped[store].value ^= 1;
        let mut moved = events.clone();
        moved[load].addr ^= 4;
        let mut deleted = events.clone();
        deleted.remove(store);
        for (what, bad, k) in [
            ("store value flipped", flipped, store),
            ("load address changed", moved, load),
            ("event deleted", deleted, store),
        ] {
            match replay(&bad) {
                Err(DiffError::TraceMismatch { index, .. }) => assert_eq!(index, k, "{what}"),
                other => panic!("{what} at {k}: {other:?}"),
            }
        }
    }

    #[test]
    fn a_planted_compiler_bug_is_caught() {
        // "Compile" a different program than we interpret: the traces must
        // differ, proving the harness has teeth.
        use bedrock2::dsl::*;
        use bedrock2::Function;
        let honest = Program::from_functions([Function::new(
            "main",
            &[],
            &[],
            interact(
                &[],
                "MMIOWRITE",
                [lit(crate::debug_dev::DEBUG_BASE), lit(1)],
            ),
        )]);
        let crooked = Program::from_functions([Function::new(
            "main",
            &[],
            &[],
            interact(
                &[],
                "MMIOWRITE",
                [lit(crate::debug_dev::DEBUG_BASE), lit(2)],
            ),
        )]);
        let source = run_source(&honest).unwrap();
        let machine = run_compiled(&crooked, false).unwrap();
        assert!(compare(&source, &machine).is_err());
    }
}

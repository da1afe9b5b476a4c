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
use crate::system::{build_image, ProcessorKind, SystemConfig, SystemRun};
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
    /// The run stopped there, so how long it would have gone on is not
    /// known.
    SpecViolation {
        /// Events matched before the trace left the specification.
        matched: usize,
        /// Which machine model produced the trace.
        model: &'static str,
    },
    /// The run stayed inside the spec but the workload did not complete
    /// within the cycle budget: a liveness failure at that budget.
    /// Produced only when [`FaultSweepConfig::require_done`] is set.
    WorkloadIncomplete {
        /// Frames the board delivered before the budget ran out.
        delivered: u64,
        /// Frames the plan lets through (injected minus dropped).
        expected: u64,
    },
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
            DiffError::SpecViolation { matched, model } => write!(
                f,
                "spec violation on the {model} model: trace leaves goodHlTrace \
                 after {matched} events"
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
    /// Shrunken counterexamples for the first few failing seeds (filled
    /// by [`fault_sweep_with`]).
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

    /// True when nothing failed and nothing panicked.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty() && self.panicked.is_empty()
    }

    /// Panics with the first failing seed — and the shard it ran in — if
    /// any: the sweep analogue of `Result::unwrap` for test harnesses.
    /// The message carries everything a reproduction needs: the one-liner
    /// seed-range repro and the triage summaries (minimal plan size +
    /// divergence site) when shrinking ran. Panicked seeds fail too — a
    /// sweep that did not check its whole range proves nothing.
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
        panic!("{msg}");
    }

    /// The canonical JSON rendering of the report (`sweep-report/v2`).
    /// Two sweeps over the same seeds with the same check render
    /// byte-identically at the same shard count. Across shard counts only
    /// the fields that describe the split differ: `shards`, `chunk` and
    /// the `core.diff.shards` counter.
    pub fn to_json(&self) -> Value {
        Value::obj()
            .field("schema", Value::Str("sweep-report/v2".into()))
            .field("total", Value::UInt(self.total))
            .field("conclusive", Value::UInt(self.conclusive))
            .field("inconclusive", Value::UInt(self.inconclusive))
            .field(
                "failures",
                Value::Arr(
                    self.failures
                        .iter()
                        .map(|(seed, e)| {
                            Value::obj()
                                .field("seed", Value::UInt(*seed))
                                .field("error", crate::triage::error_to_json(e))
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
    resilient_sweep(seeds, shards, |seed, _| check(&generate(seed)))
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

/// The sharding engine behind every sweep: runs `check` once per seed,
/// split into contiguous chunks of equal size (the last may be short)
/// across OS threads, so fewer shards than requested can end up used. Per
/// seed, panics are caught and recorded ([`SweepReport::panicked`]). Each
/// shard builds a partial report over its chunk, and the partial reports
/// are merged in shard (= ascending seed) order.
///
/// `check` may record per-seed telemetry into the shard's [`Counters`];
/// summed counters merge order-insensitively, so reports stay identical
/// across shard counts.
pub fn resilient_sweep<C>(seeds: Range<u64>, shards: usize, check: C) -> SweepReport
where
    C: Fn(u64, &mut Counters) -> Result<(), DiffError> + Sync,
{
    let start = seeds.start;
    let all: Vec<u64> = seeds.collect();
    let chunk = (all.len() as u64).div_ceil(shards.max(1) as u64).max(1);

    let run_shard = |seeds: &[u64]| -> SweepReport {
        let mut part = SweepReport::default();
        for &seed in seeds {
            // A panicking seed is an outcome, not a poisoned sweep. The
            // check touches the shard's counters across the unwind
            // boundary, so it may leave partial telemetry behind, which
            // stays deterministic because the same partial work happens
            // at every shard count.
            let counters = &mut part.counters;
            match catch_unwind(AssertUnwindSafe(|| check(seed, counters))) {
                Ok(Ok(())) => part.conclusive += 1,
                Ok(Err(DiffError::SourceUb(_))) => part.inconclusive += 1,
                Ok(Err(error)) => part.failures.push((seed, error)),
                Err(payload) => {
                    part.counters.add("core.diff.panicked", 1);
                    part.panicked.push((seed, panic_payload(payload)));
                }
            }
        }
        part.counters.set("core.diff.seeds", seeds.len() as u64);
        part.counters.set("core.diff.conclusive", part.conclusive);
        part.counters
            .set("core.diff.inconclusive", part.inconclusive);
        let failures = part.failures.len() as u64;
        part.counters.set("core.diff.failures", failures);
        part
    };

    let parts: Vec<SweepReport> = if all.len() as u64 <= chunk {
        vec![run_shard(&all)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = all
                .chunks(chunk as usize)
                .map(|c| s.spawn(move || run_shard(c)))
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

    let mut report = SweepReport {
        total: all.len() as u64,
        shards: parts.len(),
        start,
        chunk: if all.is_empty() { 0 } else { chunk },
        ..SweepReport::default()
    };
    for mut part in parts {
        report.conclusive += part.conclusive;
        report.inconclusive += part.inconclusive;
        report.failures.append(&mut part.failures);
        report.panicked.append(&mut part.panicked);
        report.counters.merge(&part.counters);
    }
    report
        .counters
        .set("core.diff.shards", report.shards as u64);
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
/// The traces are checked while the models run, a block of cycles at a
/// time: a run that leaves the specification stops in that block, and the
/// check reports that violation, not what the run would have done later
/// (such as a spec-machine error).
///
/// Driver-recovery telemetry (`devices.faults.injected`, `driver.retries`,
/// `driver.reinit`) is added to `counters`; on a violating run it covers
/// the pipelined run up to its stop. Reproduce a sweep failure with
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
    let spec = good_hl_trace(cfg.system.driver);
    fault_check_against(plan, cfg, image, &spec, counters).0
}

/// One model's run under a fault plan: its MMIO trace and the machine, so
/// a triage pass can continue a run where a check stopped it.
pub(crate) struct PlanRun {
    kind: ProcessorKind,
    /// The machine, unless the check dropped it once it needed only the
    /// trace.
    run: Option<SystemRun>,
    /// The run's MMIO trace, taken when the run last stopped.
    pub(crate) events: Vec<MmioEvent>,
    /// The run reached the full budget or stopped for good, so `events`
    /// is the whole trace of a full-budget run. Kept when the machine is
    /// dropped.
    finished: bool,
}

/// How a check's run ended.
struct RunEnd {
    /// The board's counters.
    board: Counters,
    /// The machine error that stopped the run, if any.
    error: Option<String>,
}

impl PlanRun {
    /// Builds the `kind` model's system under `plan`, fed the plan seed's
    /// traffic: `cfg.frames` commands, alternately on and off.
    pub(crate) fn start(
        kind: ProcessorKind,
        plan: &FaultPlan,
        cfg: &FaultSweepConfig,
        image: &CompiledProgram,
    ) -> PlanRun {
        let mut gen = TrafficGen::new(plan.seed);
        let frames: Vec<Vec<u8>> = (0..cfg.frames).map(|i| gen.command(i % 2 == 0)).collect();
        let sys = SystemConfig {
            processor: kind,
            ..cfg.system
        };
        PlanRun {
            kind,
            run: Some(sys.start(image, plan, &frames, None)),
            events: Vec::new(),
            finished: false,
        }
    }

    /// Runs on, up to the full budget, until the trace holds `needed`
    /// events: the machine goes on, or, if the check dropped it before the
    /// run finished, a fresh run of the same plan starts from reset.
    pub(crate) fn extend_to(
        &mut self,
        needed: usize,
        plan: &FaultPlan,
        cfg: &FaultSweepConfig,
        image: &CompiledProgram,
    ) {
        if self.finished || self.events.len() >= needed {
            return;
        }
        if self.run.is_none() {
            *self = PlanRun::start(self.kind, plan, cfg, image);
        }
        let mut seen = self.events.len();
        self.run_with(cfg, |run| {
            run.advance(cfg.max_cycles, |new| {
                seen += new.len();
                seen < needed
            });
        });
    }

    /// Runs under the adaptive budget, calling `check(new, from)` after
    /// each block with the block's events and the index of the first; the
    /// run stops once `check` returns `false`. A quick pass suffices for
    /// most plans; when faults kept the workload from finishing, the same
    /// machine runs on to the full budget. Runs are pure functions of the
    /// plan, so the continued run equals a fresh one with the full budget,
    /// and results stay deterministic across runs and shard counts.
    fn run_adaptive(
        &mut self,
        plan: &FaultPlan,
        cfg: &FaultSweepConfig,
        mut check: impl FnMut(&[MmioEvent], usize) -> bool,
    ) -> RunEnd {
        let mut seen = 0;
        let mut observe = |new: &[MmioEvent]| {
            seen += new.len();
            check(new, seen - new.len())
        };
        self.run_with(cfg, |run| {
            if run.advance(cfg.quick_cycles, &mut observe)
                && !workload_done(&run.board().counters(), plan, cfg)
            {
                run.advance(cfg.max_cycles, &mut observe);
            }
            RunEnd {
                board: run.board().counters(),
                error: run.error(),
            }
        })
    }

    /// Runs the machine with `run`, then takes its trace.
    fn run_with<T>(&mut self, cfg: &FaultSweepConfig, run: impl FnOnce(&mut SystemRun) -> T) -> T {
        let machine = self.run.as_mut().expect("a run with its machine");
        let out = run(machine);
        self.events = machine.events();
        let m = machine.model();
        self.finished = m.halted() || m.cycles() >= cfg.max_cycles;
        out
    }
}

/// The model runs of one check, as far as the check took them.
pub(crate) struct CheckRuns {
    pub(crate) pipelined: PlanRun,
    /// Absent when the pipelined run already failed the check.
    pub(crate) spec_machine: Option<PlanRun>,
}

/// [`fault_check_plan`] against a prebuilt `spec` (which must be
/// `good_hl_trace(cfg.system.driver)`), so a sweep or a triage pass builds
/// the specification once. Returns the verdict and the model runs as the
/// check left them.
///
/// One [`Monitor`] checks the pipelined trace as it is produced. The spec
/// machine's trace is then compared with the pipelined one as it arrives
/// ([`SecondTrace`]): the monitor steps only on the events where it leaves
/// or outgrows that already accepted trace.
pub(crate) fn fault_check_against(
    plan: &FaultPlan,
    cfg: &FaultSweepConfig,
    image: &CompiledProgram,
    spec: &TracePred,
    counters: &mut Counters,
) -> (Result<(), DiffError>, CheckRuns) {
    let mut monitor = Monitor::new(spec);
    let mut violation = None;
    let mut pipe = PlanRun::start(ProcessorKind::Pipelined, plan, cfg, image);
    let pipe_end = pipe.run_adaptive(plan, cfg, |new, from| {
        violation = new.iter().position(|e| !monitor.step(e)).map(|k| from + k);
        violation.is_none()
    });
    let activity = probe::scan(&pipe.events);
    counters.add(
        "devices.faults.injected",
        pipe_end.board.get("devices.faults.injected"),
    );
    counters.add("driver.retries", activity.retries);
    counters.add("driver.reinit", activity.reinits);
    if let Some(matched) = violation {
        let error = DiffError::SpecViolation {
            matched,
            model: "pipelined",
        };
        let runs = CheckRuns {
            pipelined: pipe,
            spec_machine: None,
        };
        return (Err(error), runs);
    }
    // From here on the check needs only the pipelined trace, so the
    // machine does not stay in memory next to the spec machine.
    pipe.run = None;

    let mut sm = PlanRun::start(ProcessorKind::SpecMachine, plan, cfg, image);
    let mut second = SecondTrace {
        first: &pipe.events,
        monitor: &mut monitor,
        follows: true,
    };
    let sm_end = sm.run_adaptive(plan, cfg, |new, from| {
        violation = second.check(new, from);
        violation.is_none()
    });
    let result = check_spec_machine_run(&pipe_end, &sm_end, violation, plan, cfg).and_then(|()| {
        replay_into_spec_core(image, cfg.system.ram_bytes, &pipe.events, cfg.max_cycles)
    });
    let runs = CheckRuns {
        pipelined: pipe,
        spec_machine: Some(sm),
    };
    (result, runs)
}

/// The verdicts on a finished spec-machine run, `violation` being where
/// its trace left the specification: the violation (the run stopped
/// there), the machine error, then (under
/// [`FaultSweepConfig::require_done`]) the workload on both models.
fn check_spec_machine_run(
    pipe: &RunEnd,
    sm: &RunEnd,
    violation: Option<usize>,
    plan: &FaultPlan,
    cfg: &FaultSweepConfig,
) -> Result<(), DiffError> {
    if let Some(matched) = violation {
        return Err(DiffError::SpecViolation {
            matched,
            model: "spec machine",
        });
    }
    if let Some(e) = &sm.error {
        return Err(DiffError::MachineError(format!(
            "spec machine under fault plan {}: {e}",
            plan.seed
        )));
    }
    if cfg.require_done
        && (!workload_done(&pipe.board, plan, cfg) || !workload_done(&sm.board, plan, cfg))
    {
        let delivered = pipe
            .board
            .get("board.lan9250.frames_delivered")
            .min(sm.board.get("board.lan9250.frames_delivered"));
        return Err(DiffError::WorkloadIncomplete {
            delivered,
            expected: expected_arrivals(plan, cfg),
        });
    }
    Ok(())
}

/// Checks a second trace of the same plan against the specification, as
/// it arrives, after the `first` trace passed whole with `monitor`. While
/// the second trace follows the first, its events are known good and the
/// monitor does not step. Past the first trace's end, the monitor goes on
/// from where the first trace left it. Where the second trace departs
/// earlier, the monitor re-matches it from the start and steps on from
/// there.
struct SecondTrace<'f, 'm, 's> {
    first: &'f [MmioEvent],
    monitor: &'m mut Monitor<'s>,
    /// The second trace so far equals the first trace's prefix.
    follows: bool,
}

impl SecondTrace<'_, '_, '_> {
    /// Checks `new`, the second trace's events from index `from` on: the
    /// index of the first event after which the trace is no longer a
    /// prefix of a member, if any.
    fn check(&mut self, new: &[MmioEvent], from: usize) -> Option<usize> {
        for (i, e) in (from..).zip(new) {
            if self.follows {
                if self.first.get(i) == Some(e) {
                    continue;
                }
                self.follows = false;
                if i < self.first.len() {
                    // The second trace so far is the first one's prefix,
                    // which passed.
                    let passed = self.monitor.first_violation(&self.first[..i]).is_none();
                    debug_assert!(passed, "a prefix of a passing trace passes");
                }
            }
            if !self.monitor.step(e) {
                return Some(i);
            }
        }
        None
    }
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

fn workload_done(board: &Counters, plan: &FaultPlan, cfg: &FaultSweepConfig) -> bool {
    board.get("board.lan9250.frames_delivered") >= expected_arrivals(plan, cfg)
        && board.get("board.lan9250.frames_pending") == 0
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

/// Failing seeds [`fault_sweep_with`] shrinks after the sweep: the first
/// few, since each triage pass reruns its seed's check many times.
const TRIAGED_FAILURES: usize = 3;

/// Where [`fault_sweep_with`] puts what it writes.
#[derive(Clone, Debug, Default)]
pub struct FaultSweepOptions {
    /// Directory where full `TRIAGE_fault_sweep_seed<N>.json` artifacts
    /// are written (`None`, the default: summaries only, no files).
    pub triage_dir: Option<std::path::PathBuf>,
}

/// Sweeps seeded fault plans through [`fault_check`], sharded like
/// [`parallel_sweep`]. The boot image and the `goodHlTrace` predicate are
/// built once and shared across shards; each seed's check builds its own
/// [`Monitor`] state table. The report's counters carry the sweep's
/// aggregate fault/recovery telemetry. This is [`fault_sweep_with`] under
/// default options: automatic triage of the first few failures, no
/// artifact files.
pub fn fault_sweep(seeds: Range<u64>, shards: usize, cfg: &FaultSweepConfig) -> SweepReport {
    fault_sweep_with(seeds, shards, cfg, &FaultSweepOptions::default())
}

/// [`fault_sweep`] with explicit [`FaultSweepOptions`]: panic-isolated and
/// self-triaging. Each seed is checked once, at `cfg`, so a seed fails the
/// sweep exactly when [`fault_check`] at `cfg` fails it. After the sweep,
/// each of the first three failing seeds is shrunk under `cfg`, the config
/// it failed at, to a locally-minimal fault plan with a named divergence
/// site; summaries land in [`SweepReport::triage`] (and in
/// [`SweepReport::expect_clean`]'s panic message), full reports in
/// `opts.triage_dir` when set.
pub fn fault_sweep_with(
    seeds: Range<u64>,
    shards: usize,
    cfg: &FaultSweepConfig,
    opts: &FaultSweepOptions,
) -> SweepReport {
    let image = build_image(&cfg.system);
    let spec = good_hl_trace(cfg.system.driver);
    let mut report = resilient_sweep(seeds, shards, |seed, counters| {
        fault_check_against(&FaultPlan::from_seed(seed), cfg, &image, &spec, counters).0
    });

    for (seed, _) in report.failures.iter().take(TRIAGED_FAILURES) {
        let Some(tr) = crate::triage::triage_plan(&FaultPlan::from_seed(*seed), cfg, &image) else {
            continue;
        };
        let artifact = opts.triage_dir.as_ref().and_then(|dir| {
            let path = dir.join(format!("TRIAGE_fault_sweep_seed{seed}.json"));
            match crate::triage::write_atomic(&path, &tr.to_json().render()) {
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

    /// One model's run at the adaptive budget, rebuilt from reset: the
    /// quick pass and, when it left the workload unfinished, a fresh run
    /// with the full budget. Returns the run and whether it escalated.
    fn run_from_reset(
        kind: ProcessorKind,
        plan: &FaultPlan,
        cfg: &FaultSweepConfig,
        image: &CompiledProgram,
    ) -> (crate::LightbulbRun, bool) {
        let mut gen = TrafficGen::new(plan.seed);
        let frames: Vec<Vec<u8>> = (0..cfg.frames).map(|i| gen.command(i % 2 == 0)).collect();
        let sys = SystemConfig {
            processor: kind,
            ..cfg.system
        };
        let quick = sys.run_faulted(image, plan, &frames, cfg.quick_cycles);
        if workload_done(&quick.report.counters, plan, cfg) {
            (quick, false)
        } else {
            (sys.run_faulted(image, plan, &frames, cfg.max_cycles), true)
        }
    }

    #[test]
    fn resuming_the_quick_pass_equals_rerunning_from_reset() {
        let cfg = FaultSweepConfig::default();
        let image = build_image(&cfg.system);
        // Seed 4 leaves the pipelined workload unfinished after the quick
        // pass; seeds 3 and 5 finish within it. The bring-up junk plan
        // never finishes, on either model.
        let junk = FaultPlan::from_atoms(7, &[devices::FaultAtom::ByteTestJunk(10_000)]);
        let plans = [3, 4, 5].map(FaultPlan::from_seed);
        let mut escalated = Vec::new();
        for plan in plans.iter().chain([&junk]) {
            for kind in [ProcessorKind::Pipelined, ProcessorKind::SpecMachine] {
                let label = format!("plan seed {} on {kind:?}", plan.seed);
                let (fresh, escalates) = run_from_reset(kind, plan, &cfg, &image);
                let mut resumed = PlanRun::start(kind, plan, &cfg, &image);
                let end = resumed.run_adaptive(plan, &cfg, |_, _| true);
                assert_eq!(resumed.events, fresh.events, "{label}");
                for (name, value) in end.board.iter() {
                    assert_eq!(value, fresh.report.counters.get(name), "{label}: {name}");
                }
                // Only a run that went on to the full budget is finished.
                assert_eq!(resumed.finished, escalates, "{label}");
                escalated.push((plan.seed, kind, escalates));
            }
        }
        let pipelined = ProcessorKind::Pipelined;
        assert!(escalated.contains(&(4, pipelined, true)));
        assert!(escalated.contains(&(5, pipelined, false)));
        assert!(escalated.contains(&(7, pipelined, true)));
        assert!(escalated.contains(&(7, ProcessorKind::SpecMachine, true)));
    }

    /// An image whose drivers poll without timeouts, and a plan whose RX
    /// stall keeps them polling past what `goodHlTrace` allows.
    fn unbounded_poll(cfg: &FaultSweepConfig) -> (CompiledProgram, FaultPlan) {
        let system = SystemConfig {
            driver: lightbulb::DriverOptions {
                timeouts: false,
                ..cfg.system.driver
            },
            ..cfg.system
        };
        let plan = FaultPlan::from_atoms(3, &[devices::FaultAtom::RxStall(750, 300)]);
        (build_image(&system), plan)
    }

    #[test]
    fn a_violating_pipelined_run_stops_before_the_quick_budget() {
        let cfg = FaultSweepConfig::default();
        let (image, plan) = unbounded_poll(&cfg);
        let spec = good_hl_trace(cfg.system.driver);
        let (result, mut runs) =
            fault_check_against(&plan, &cfg, &image, &spec, &mut Counters::new());
        let Err(DiffError::SpecViolation { matched, model }) = result else {
            panic!("expected a spec violation, got {result:?}");
        };
        assert_eq!(model, "pipelined");
        assert!(runs.spec_machine.is_none(), "the spec machine never ran");
        let pipe = &mut runs.pipelined;
        assert!(matched < pipe.events.len(), "the violating event was run");
        let machine = pipe.run.as_mut().expect("a stopped run keeps its machine");
        let cycles = machine.model().cycles();
        assert!(
            cycles < cfg.quick_cycles,
            "the run went on to cycle {cycles} after leaving the spec at event {matched}"
        );
    }

    /// The events of `pattern` (`a` to `d` are stores to addresses 1
    /// to 4).
    fn synthetic(pattern: &str) -> Vec<MmioEvent> {
        pattern
            .bytes()
            .map(|c| MmioEvent::store(u32::from(c - b'a') + 1, 0))
            .collect()
    }

    /// [`SecondTrace::check`] on `second` after `first` passed whole, fed
    /// in blocks of `block` events.
    fn check_second(spec: &TracePred, first: &str, second: &str, block: usize) -> Option<usize> {
        let (first, second) = (synthetic(first), synthetic(second));
        let mut monitor = Monitor::new(spec);
        assert_eq!(monitor.first_violation(&first), None, "first trace passes");
        let mut check = SecondTrace {
            first: &first,
            monitor: &mut monitor,
            follows: true,
        };
        second
            .chunks(block)
            .enumerate()
            .find_map(|(k, new)| check.check(new, k * block))
    }

    #[test]
    fn a_second_trace_is_checked_where_it_leaves_the_first() {
        use proglogic::trace::st;
        // a b c* | a b d*: which loop runs is fixed by the first event
        // after `ab`, so a trace's state depends on where it is.
        let (a, b) = (st(1), st(2));
        let spec = a.then(&b).then(&st(3).star().or(&st(4).star()));
        for block in [1, 2, 3, 64] {
            let check = |second| check_second(&spec, "abcc", second, block);
            // Following the first trace, or stopping short of its end.
            assert_eq!(check("abcc"), None);
            assert_eq!(check("ab"), None);
            // Past the first trace's end, from where it left the monitor.
            assert_eq!(check("abcccc"), None);
            assert_eq!(check("abccd"), Some(4));
            // Leaving the first trace before its end, and violating there.
            assert_eq!(check("ac"), Some(1));
            assert_eq!(check("abcd"), Some(3));
            // Leaving it early onto the other loop, re-matched from the
            // start, and violating later.
            assert_eq!(check("abdd"), None);
            assert_eq!(check("abdc"), Some(3));
        }
    }

    /// Negative controls for the replay step of [`fault_check_against`]: a
    /// real quick-pass pipelined trace (plan seed 4) replays clean, and
    /// each of three single-event corruptions is caught at exactly its
    /// index.
    #[test]
    fn replay_catches_each_corrupted_event_at_its_index() {
        use riscv_spec::MmioEventKind;
        let cfg = FaultSweepConfig::default();
        let image = build_image(&cfg.system);
        let plan = FaultPlan::from_seed(4);
        let quick = FaultSweepConfig {
            max_cycles: cfg.quick_cycles,
            ..cfg.clone()
        };
        let mut run = PlanRun::start(ProcessorKind::Pipelined, &plan, &quick, &image);
        run.extend_to(usize::MAX, &plan, &quick, &image);
        let events = run.events;
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

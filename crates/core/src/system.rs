//! Building and running the complete system.
//!
//! [`build_image`] is the software half of the paper's bring-up recipe
//! (§5.9): compile the Bedrock2 sources with the event-loop entry
//! (`init(); while(1) loop()`) into a binary for address 0.
//! [`SystemConfig::run`] is the hardware half: attach the image to a
//! machine model and the simulated board, drive traffic in, and collect
//! the MMIO trace.

use bedrock2_compiler::{compile, CompileOptions, CompiledProgram, Entry, MmioExtCompiler};
use devices::{Board, FaultPlan, SpiConfig};
use lightbulb::{lightbulb_program, DriverOptions};
use obs::{Counters, Event, MemSink};
use processor::{Model, PipelineConfig, Pipelined, SingleCycle};
use riscv_spec::{Memory, MmioEvent, SpecMachine};

/// Which machine model executes the binary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcessorKind {
    /// The riscv-spec software-oriented machine (UB-checking).
    SpecMachine,
    /// The single-cycle Kami spec core (also the idealized ~1 IPC
    /// commercial-core stand-in of §7.2.1).
    SingleCycle,
    /// The 4-stage pipelined core — the shipping configuration of the
    /// paper's theorem.
    Pipelined,
}

/// A full system configuration — the §7.2.1 evaluation grid.
#[derive(Clone, Copy, Debug)]
pub struct SystemConfig {
    /// Driver variants (timeouts, SPI pipelining).
    pub driver: DriverOptions,
    /// Compile with the optimizing pipeline (the gcc-like baseline) or the
    /// naive verified-style compiler.
    pub optimize: bool,
    /// Which machine model runs it.
    pub processor: ProcessorKind,
    /// Pipeline configuration (BTB etc.), used when `processor` is
    /// [`ProcessorKind::Pipelined`].
    pub pipeline: PipelineConfig,
    /// RAM size in bytes (the image must fit; the stack starts at the
    /// top).
    pub ram_bytes: u32,
    /// SPI wire speed (device ticks per transferred byte); the knob behind
    /// the "SPI transfer dominates runtime" observation of §7.2.1.
    pub spi: SpiConfig,
}

impl Default for SystemConfig {
    /// The verified configuration the end-to-end theorem is about.
    fn default() -> SystemConfig {
        SystemConfig {
            driver: DriverOptions::default(),
            optimize: false,
            processor: ProcessorKind::Pipelined,
            pipeline: PipelineConfig::default(),
            ram_bytes: 0x1_0000,
            spi: SpiConfig::default(),
        }
    }
}

impl SystemConfig {
    /// The layout of this configuration's boot image: the stack at the top
    /// of RAM with a quarter of RAM for it, and the event-loop entry
    /// (`lightbulb_init(); while(1) lightbulb_loop()`).
    pub fn compile_options(&self) -> CompileOptions {
        CompileOptions {
            stack_top: self.ram_bytes,
            stack_size: Some(self.ram_bytes / 4),
            entry: Entry::EventLoop {
                init: Some("lightbulb_init".to_string()),
                step: "lightbulb_loop".to_string(),
            },
            optimize: self.optimize,
            spill_everything: false,
        }
    }
}

/// Compiles the lightbulb program for this configuration.
///
/// # Panics
///
/// Panics if the lightbulb sources fail to compile — they are part of this
/// workspace, so that is a bug, not an input error.
pub fn build_image(config: &SystemConfig) -> CompiledProgram {
    let program = lightbulb_program(config.driver);
    compile(&program, &MmioExtCompiler, &config.compile_options())
        .expect("lightbulb sources must compile")
}

/// Machine-readable telemetry of one system run, carried alongside the
/// MMIO trace in [`LightbulbRun`].
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Counters aggregated from every instrumented layer, under the
    /// `layer.component.metric` naming scheme: `compiler.*` (pass wall
    /// times, code size, spill slots), `pipeline.*` or `spec.*` (whichever
    /// machine model ran), and `board.*` (SPI wire and LAN9250 activity).
    pub counters: Counters,
    /// The final pc: fetch pc for the hardware models, architectural pc
    /// for the spec machine.
    pub final_pc: u32,
    /// Structured trace events, non-empty only for traced runs
    /// ([`SystemConfig::run_traced`]).
    pub trace_events: Vec<Event>,
}

impl RunReport {
    /// The plain-text counter summary (see [`obs::summary`]).
    pub fn summary(&self) -> String {
        obs::summary::render(&self.counters)
    }

    /// The trace events as Chrome trace-event JSON, for Perfetto.
    pub fn chrome_trace(&self) -> String {
        obs::chrome::render(&self.trace_events)
    }
}

/// The outcome of one system run.
#[derive(Clone, Debug)]
pub struct LightbulbRun {
    /// The recorded MMIO trace.
    pub events: Vec<MmioEvent>,
    /// Lightbulb states after each GPIO `OUTPUT_VAL` write.
    pub bulb_history: Vec<bool>,
    /// Whether the bulb is on at the end.
    pub bulb_on: bool,
    /// Cycles (or retired instructions, for the spec machine) executed.
    pub cycles: u64,
    /// Machine error, if the run aborted (possible only on
    /// [`ProcessorKind::SpecMachine`], which checks the software
    /// contract).
    pub error: Option<String>,
    /// Cross-layer telemetry for this run.
    pub report: RunReport,
}

impl SystemConfig {
    /// Builds the system, injects `frames`, runs for up to `max_cycles`,
    /// and reports. The returned [`LightbulbRun::report`] aggregates
    /// counters from every layer; its `trace_events` stay empty (use
    /// [`SystemConfig::run_traced`] for those).
    pub fn run(&self, frames: &[Vec<u8>], max_cycles: u64) -> LightbulbRun {
        self.run_faulted(&build_image(self), &FaultPlan::none(), frames, max_cycles)
    }

    /// Like [`SystemConfig::run`], but on the pipelined core the run also
    /// records structured trace events (redirects, `fence.i`, sampled IPC)
    /// into [`RunReport::trace_events`] for the Chrome/Perfetto exporter.
    /// The other machine models emit no events and run as [`run`].
    ///
    /// [`run`]: SystemConfig::run
    pub fn run_traced(&self, frames: &[Vec<u8>], max_cycles: u64) -> LightbulbRun {
        let image = build_image(self);
        self.start(&image, &FaultPlan::none(), frames, Some(MemSink::default()))
            .run_to(max_cycles)
    }

    /// Like [`SystemConfig::run`], but on a prebuilt `image` and a board
    /// whose devices misbehave according to `plan`. Fault sweeps compile
    /// the image once and call this per seed; with [`FaultPlan::none`] it
    /// is exactly [`SystemConfig::run`] minus the compile.
    pub fn run_faulted(
        &self,
        image: &CompiledProgram,
        plan: &FaultPlan,
        frames: &[Vec<u8>],
        max_cycles: u64,
    ) -> LightbulbRun {
        self.start(image, plan, frames, None).run_to(max_cycles)
    }

    /// Builds the system of [`SystemConfig::run_faulted`] (traced when
    /// `sink` is given) without running it. The returned [`SystemRun`]
    /// keeps its machine between [`SystemRun::run_to`] calls, so a run can
    /// be continued to a larger budget instead of restarted from reset.
    pub fn start(
        &self,
        image: &CompiledProgram,
        plan: &FaultPlan,
        frames: &[Vec<u8>],
        sink: Option<MemSink>,
    ) -> SystemRun {
        let mut board = Board::with_faults(self.spi, plan);
        for f in frames {
            board.inject_frame(f);
        }
        let (bytes, ram, pipe) = (image.bytes(), self.ram_bytes, self.pipeline);
        let model: Box<dyn Model<Board>> = match self.processor {
            ProcessorKind::Pipelined => match sink {
                Some(sink) => Box::new(Pipelined::with_sink(&bytes, ram, board, pipe, sink)),
                None => Box::new(Pipelined::new(&bytes, ram, board, pipe)),
            },
            ProcessorKind::SingleCycle => Box::new(SingleCycle::new(&bytes, ram, board)),
            ProcessorKind::SpecMachine => {
                let mut m = SpecMachine::new(Memory::with_size(ram), board);
                m.load_program(0, &image.words());
                Box::new(m)
            }
        };
        SystemRun {
            model,
            compiler: image.stats.counters(),
            seen: 0,
        }
    }
}

/// Cycles (retired instructions, for the spec machine) per block of
/// [`SystemRun::advance`]: long enough that a block's dynamic call and
/// event copy cost nothing next to its simulation, short enough that a
/// checked run stops soon after its trace leaves the specification.
const BLOCK: u64 = 4096;

/// A built system whose machine model keeps its state between runs.
pub struct SystemRun {
    model: Box<dyn Model<Board>>,
    /// The image's compile counters, the base of every report.
    compiler: Counters,
    /// MMIO events already handed to an observer of
    /// [`SystemRun::advance`].
    seen: usize,
}

impl SystemRun {
    /// Runs on in blocks until `max_cycles` cycles (retired instructions,
    /// for the spec machine) have elapsed since reset, handing each
    /// block's new MMIO events to `observe`. The run stops after the first
    /// block `observe` returns `false` for, which is what `advance` then
    /// returns; it returns `true` when the run reached `max_cycles` or
    /// the machine halted or hit an error (such a machine does not run
    /// again). Runs are deterministic, so a run continued to `max_cycles`
    /// equals one started with that budget, whatever its blocks.
    pub fn advance(
        &mut self,
        max_cycles: u64,
        mut observe: impl FnMut(&[MmioEvent]) -> bool,
    ) -> bool {
        let m = &mut *self.model;
        while m.cycles() < max_cycles && !m.halted() {
            m.run_to(max_cycles.min(m.cycles() + BLOCK));
            let new = m.events_since(self.seen);
            self.seen += new.len();
            if !observe(&new) {
                return false;
            }
        }
        true
    }

    /// [`SystemRun::advance`] with no observer, reporting the whole run
    /// so far.
    pub fn run_to(&mut self, max_cycles: u64) -> LightbulbRun {
        self.advance(max_cycles, |_| true);
        let m = &*self.model;
        let board = m.device();
        let mut counters = self.compiler.clone();
        counters.merge(&m.counters());
        counters.merge(&board.counters());
        LightbulbRun {
            events: m.events_since(0),
            bulb_history: board.gpio.lightbulb_history(),
            bulb_on: board.lightbulb_on(),
            cycles: m.cycles(),
            error: m.error(),
            report: RunReport {
                counters,
                final_pc: m.pc(),
                trace_events: m.trace_events().to_vec(),
            },
        }
    }

    /// The machine model, for drivers that step it themselves.
    pub fn model(&mut self) -> &mut dyn Model<Board> {
        &mut *self.model
    }

    /// The MMIO trace so far.
    pub(crate) fn events(&self) -> Vec<MmioEvent> {
        self.model.events_since(0)
    }

    /// The board the machine model drives.
    pub(crate) fn board(&self) -> &Board {
        self.model.device()
    }

    /// The machine error that stopped the run, if any.
    pub(crate) fn error(&self) -> Option<String> {
        self.model.error()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_builds_and_reports_stack_usage() {
        let image = build_image(&SystemConfig::default());
        assert!(image.image_size() > 1000, "nontrivial image");
        assert!(image.max_stack_usage >= lightbulb::layout::RX_BUFFER_BYTES);
        assert!(image.function_addrs.contains_key("lightbulb_loop"));
    }

    #[test]
    fn all_processors_boot_the_system() {
        for processor in [
            ProcessorKind::SpecMachine,
            ProcessorKind::SingleCycle,
            ProcessorKind::Pipelined,
        ] {
            let config = SystemConfig {
                processor,
                ..SystemConfig::default()
            };
            let run = config.run(&[], 250_000);
            assert!(run.error.is_none(), "{processor:?}: {:?}", run.error);
            assert!(
                !run.events.is_empty(),
                "{processor:?} must produce boot-sequence I/O"
            );
            assert!(!run.bulb_on);
        }
    }

    #[test]
    fn the_bulb_switches_on_hardware() {
        let mut gen = devices::TrafficGen::new(61);
        let config = SystemConfig::default();
        let run = config.run(&[gen.command(true)], 500_000);
        assert!(
            run.bulb_on,
            "after {} cycles: {:?}",
            run.cycles, run.bulb_history
        );
    }
}

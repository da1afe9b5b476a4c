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
use obs::{Counters, Event, MemSink, Sink};
use processor::{PipelineConfig, Pipelined, SingleCycle};
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

/// Compiles the lightbulb program for this configuration.
///
/// # Panics
///
/// Panics if the lightbulb sources fail to compile — they are part of this
/// workspace, so that is a bug, not an input error.
pub fn build_image(config: &SystemConfig) -> CompiledProgram {
    let program = lightbulb_program(config.driver);
    let opts = CompileOptions {
        stack_top: config.ram_bytes,
        stack_size: Some(config.ram_bytes / 4),
        entry: Entry::EventLoop {
            init: Some("lightbulb_init".to_string()),
            step: "lightbulb_loop".to_string(),
        },
        optimize: config.optimize,
        spill_everything: false,
    };
    compile(&program, &MmioExtCompiler, &opts).expect("lightbulb sources must compile")
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
        self.run_inner(frames, max_cycles, None)
    }

    /// Like [`SystemConfig::run`], but on the pipelined core the run also
    /// records structured trace events (redirects, `fence.i`, sampled IPC)
    /// into [`RunReport::trace_events`] for the Chrome/Perfetto exporter.
    /// The other machine models emit no events and run as [`run`].
    ///
    /// [`run`]: SystemConfig::run
    pub fn run_traced(&self, frames: &[Vec<u8>], max_cycles: u64) -> LightbulbRun {
        self.run_inner(frames, max_cycles, Some(MemSink::default()))
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
        self.run_built(image, plan, frames, max_cycles, None)
    }

    fn run_inner(
        &self,
        frames: &[Vec<u8>],
        max_cycles: u64,
        sink: Option<MemSink>,
    ) -> LightbulbRun {
        let image = build_image(self);
        self.run_built(&image, &FaultPlan::none(), frames, max_cycles, sink)
    }

    fn run_built(
        &self,
        image: &CompiledProgram,
        plan: &FaultPlan,
        frames: &[Vec<u8>],
        max_cycles: u64,
        sink: Option<MemSink>,
    ) -> LightbulbRun {
        self.start(image, plan, frames, sink).run_to(max_cycles)
    }

    /// Builds the system of [`SystemConfig::run_faulted`] (traced when
    /// `sink` is given) without running it. The returned [`SystemRun`]
    /// keeps its machine between [`SystemRun::run_to`] calls, so a run can
    /// be continued to a larger budget instead of restarted from reset.
    pub(crate) fn start(
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
        let bytes = image.bytes();
        let machine = match (self.processor, sink) {
            (ProcessorKind::Pipelined, Some(sink)) => Machine::Traced(Box::new(
                Pipelined::with_sink(&bytes, self.ram_bytes, board, self.pipeline, sink),
            )),
            (ProcessorKind::Pipelined, None) => Machine::Pipelined(Box::new(Pipelined::new(
                &bytes,
                self.ram_bytes,
                board,
                self.pipeline,
            ))),
            (ProcessorKind::SingleCycle, _) => {
                Machine::SingleCycle(Box::new(SingleCycle::new(&bytes, self.ram_bytes, board)))
            }
            (ProcessorKind::SpecMachine, _) => {
                let mut m = SpecMachine::new(Memory::with_size(self.ram_bytes), board);
                m.load_program(0, &image.words());
                Machine::Spec(Box::new(m), None)
            }
        };
        SystemRun {
            machine,
            compiler: image.stats.counters(),
        }
    }
}

/// A built system whose machine keeps its state between runs.
pub(crate) struct SystemRun {
    machine: Machine,
    /// The image's compile counters, the base of every report.
    compiler: Counters,
}

enum Machine {
    Pipelined(Box<Pipelined<Board>>),
    Traced(Box<Pipelined<Board, MemSink>>),
    SingleCycle(Box<SingleCycle<Board>>),
    /// The spec machine and the error that stopped it, if any.
    Spec(Box<SpecMachine<Board>>, Option<String>),
}

impl SystemRun {
    /// Runs on until `max_cycles` cycles (retired instructions, for the
    /// spec machine) have elapsed since reset, and reports the whole run
    /// so far. Runs are deterministic, so a run continued to `max_cycles`
    /// equals one started with that budget. A machine that halted or hit
    /// an error does not run again.
    pub(crate) fn run_to(&mut self, max_cycles: u64) -> LightbulbRun {
        let mut report = RunReport {
            counters: self.compiler.clone(),
            ..RunReport::default()
        };
        match &mut self.machine {
            Machine::Pipelined(cpu) => {
                cpu.run(max_cycles.saturating_sub(cpu.cycle));
                pipelined_run(cpu, report)
            }
            Machine::Traced(cpu) => {
                cpu.run(max_cycles.saturating_sub(cpu.cycle));
                report.trace_events = cpu.sink.events.clone();
                pipelined_run(cpu, report)
            }
            Machine::SingleCycle(cpu) => {
                cpu.run(max_cycles.saturating_sub(cpu.cycle));
                report.counters.merge(&cpu.mem.mmio.counters());
                report.counters.set("pipeline.cycles", cpu.cycle);
                report.counters.set("pipeline.retired", cpu.retired);
                report.final_pc = cpu.pc;
                LightbulbRun {
                    events: cpu.mem.events(),
                    bulb_history: cpu.mem.mmio.gpio.lightbulb_history(),
                    bulb_on: cpu.mem.mmio.lightbulb_on(),
                    cycles: cpu.cycle,
                    error: None,
                    report,
                }
            }
            Machine::Spec(m, error) => {
                if error.is_none() {
                    *error = m
                        .run(max_cycles.saturating_sub(m.instret))
                        .err()
                        .map(|e| e.to_string());
                }
                report.counters.merge(&m.stats.counters());
                report.counters.merge(&m.mmio.counters());
                report.final_pc = m.pc;
                LightbulbRun {
                    events: m.trace.clone(),
                    bulb_history: m.mmio.gpio.lightbulb_history(),
                    bulb_on: m.mmio.lightbulb_on(),
                    cycles: m.instret,
                    error: error.clone(),
                    report,
                }
            }
        }
    }
}

fn pipelined_run<S: Sink>(cpu: &Pipelined<Board, S>, mut report: RunReport) -> LightbulbRun {
    report.counters.merge(&cpu.counters());
    report.counters.merge(&cpu.mem.mmio.counters());
    report.final_pc = cpu.fetch_pc();
    LightbulbRun {
        events: cpu.mem.events(),
        bulb_history: cpu.mem.mmio.gpio.lightbulb_history(),
        bulb_on: cpu.mem.mmio.lightbulb_on(),
        cycles: cpu.cycle,
        error: None,
        report,
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

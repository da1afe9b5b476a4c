//! One interface over the three machine models. The MMIO trace is the only
//! link between the layers (§5.7, §5.9), so every model is driven alike:
//! run a fuel-bounded block, then read the events, the halted/error state
//! and the counters. The hot loops stay inside each model's own `run`, so a
//! caller pays one dynamic call per block, not per cycle.

use crate::{Pipelined, SingleCycle};
use kami::label::project;
use obs::{Counters, Event, Sink};
use riscv_spec::{MachineError, MmioEvent, MmioHandler, SpecMachine, StepOutcome};

/// A machine model attached to the device `M`, driven in blocks.
pub trait Model<M> {
    /// Runs on until `budget` cycles (retired instructions, for the spec
    /// machine) have elapsed since reset, or until the model halts. An error
    /// stops the model for good: later calls do nothing.
    fn run_to(&mut self, budget: u64);

    /// Cycles (retired instructions, for the spec machine) since reset.
    fn cycles(&self) -> u64;

    /// True once the model halted or stopped on an error.
    fn halted(&self) -> bool;

    /// The error that stopped the model. Only the spec machine checks the
    /// software contract, so only it has one.
    fn error(&self) -> Option<String> {
        None
    }

    /// The architectural pc; for the pipelined core, the pc IF fetches next
    /// (in-flight instructions may be older).
    fn pc(&self) -> u32;

    /// The MMIO events after the first `n`, oldest first.
    fn events_since(&self, n: usize) -> Vec<MmioEvent>;

    /// The attached device.
    fn device(&self) -> &M;

    /// The attached device, for injecting traffic mid-run.
    fn device_mut(&mut self) -> &mut M;

    /// The core's own counters (`pipeline.*` or `spec.*`).
    fn counters(&self) -> Counters;

    /// Structured trace events, kept only by a pipelined core with a
    /// recording sink.
    fn trace_events(&self) -> &[Event] {
        &[]
    }
}

impl<M: MmioHandler, S: Sink> Model<M> for Pipelined<M, S> {
    fn run_to(&mut self, budget: u64) {
        self.run(budget.saturating_sub(self.cycle));
    }

    fn cycles(&self) -> u64 {
        self.cycle
    }

    fn halted(&self) -> bool {
        self.halted
    }

    fn pc(&self) -> u32 {
        self.fetch_pc
    }

    fn events_since(&self, n: usize) -> Vec<MmioEvent> {
        project(&self.mem.trace[n..])
    }

    fn device(&self) -> &M {
        &self.mem.mmio
    }

    fn device_mut(&mut self) -> &mut M {
        &mut self.mem.mmio
    }

    fn counters(&self) -> Counters {
        let mut c = self.stats.counters();
        c.set("pipeline.cycles", self.cycle);
        c.set("pipeline.retired", self.retired);
        c
    }

    fn trace_events(&self) -> &[Event] {
        self.sink.recorded()
    }
}

impl<M: MmioHandler> Model<M> for SingleCycle<M> {
    fn run_to(&mut self, budget: u64) {
        self.run(budget.saturating_sub(self.cycle));
    }

    fn cycles(&self) -> u64 {
        self.cycle
    }

    fn halted(&self) -> bool {
        self.halted
    }

    fn pc(&self) -> u32 {
        self.pc
    }

    fn events_since(&self, n: usize) -> Vec<MmioEvent> {
        project(&self.mem.trace[n..])
    }

    fn device(&self) -> &M {
        &self.mem.mmio
    }

    fn device_mut(&mut self) -> &mut M {
        &mut self.mem.mmio
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::new();
        c.set("pipeline.cycles", self.cycle);
        c.set("pipeline.retired", self.retired);
        c
    }
}

impl<M: MmioHandler> Model<M> for SpecMachine<M> {
    fn run_to(&mut self, budget: u64) {
        if self.stopped.is_none() {
            self.stopped = match self.run_block(budget.saturating_sub(self.instret)) {
                Ok(StepOutcome::OutOfFuel) => None,
                Ok(StepOutcome::Halted { .. }) => Some(MachineError::Breakpoint { addr: self.pc }),
                Err(e) => Some(e),
            };
        }
    }

    fn cycles(&self) -> u64 {
        self.instret
    }

    fn halted(&self) -> bool {
        self.stopped.is_some()
    }

    fn error(&self) -> Option<String> {
        self.stopped.map(|e| e.to_string())
    }

    fn pc(&self) -> u32 {
        self.pc
    }

    fn events_since(&self, n: usize) -> Vec<MmioEvent> {
        self.trace[n..].to_vec()
    }

    fn device(&self) -> &M {
        &self.mmio
    }

    fn device_mut(&mut self) -> &mut M {
        &mut self.mmio
    }

    fn counters(&self) -> Counters {
        self.stats.counters()
    }
}

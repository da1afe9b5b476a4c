//! Integration: composing the verified-lightbulb stack end to end and
//! checking every interface crossing — the paper's primary contribution,
//! as an executable library.
//!
//! The paper's final theorem (§5.9) reads: place the compiled lightbulb
//! binary at address 0 of a memory attached to the pipelined processor;
//! then every I/O trace the system produces is a prefix of a trace allowed
//! by `goodHlTrace`. This crate provides exactly that pipeline:
//!
//! * [`system`] — build the boot image from the Bedrock2 sources and run
//!   it on any of the three machine models (ISA spec machine, single-cycle
//!   core, pipelined core) against the simulated board;
//! * [`end_to_end`] — [`end_to_end::end_to_end_lightbulb`]: run under a
//!   network workload and check the recorded MMIO trace against the
//!   specification with a streaming `proglogic::trace::Monitor`, which
//!   names the first violating event on failure;
//! * [`liveness`] — the always-eventually check of §4.3/§5.2: from every
//!   reachable state the machine returns to the event-loop head within a
//!   bounded number of instructions (which is why the drivers carry
//!   timeout counters);
//! * [`differential`] — the proof-shaped checks between layers:
//!   compiler correctness (Bedrock2 interpreter vs compiled code on the
//!   ISA spec machine), ISA consistency (spec machine vs single-cycle
//!   core, §5.8), and processor refinement (pipelined vs single-cycle,
//!   §5.7), each swept over random programs (or seeded fault plans) by
//!   one sharded engine with per-seed panic isolation and retries;
//! * [`triage`] — delta-debugging minimization of failing fault plans
//!   plus divergence-site location, turning a red sweep seed into a
//!   1-minimal counterexample automatically;
//! * [`progen`] — the random terminating-program generator driving the
//!   differential checks;
//! * [`debug_dev`] — a deterministic observation device that gives
//!   generated programs an I/O channel whose trace both sides must
//!   reproduce exactly.

pub mod debug_dev;
pub mod differential;
pub mod end_to_end;
pub mod liveness;
pub mod progen;
pub mod system;
pub mod triage;

pub use differential::{
    check_compiler_differential, check_isa_consistency, fault_check, fault_check_plan, fault_sweep,
    fault_sweep_with, resilient_sweep, DiffError, FaultSweepConfig, FaultSweepOptions, RetryPolicy,
    SweepReport,
};
pub use end_to_end::{end_to_end_lightbulb, EndToEndError, IntegrationReport};
pub use liveness::{check_event_loop_liveness, LivenessError, LivenessReport};
pub use system::{build_image, LightbulbRun, ProcessorKind, RunReport, SystemConfig};
pub use triage::{shrink_plan, triage_plan, triage_seed, TriageReport, TriageSummary};

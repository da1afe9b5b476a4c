//! Cross-layer telemetry for the lightbulb stack.
//!
//! The paper's end-to-end theorem ties every layer together through one
//! MMIO trace; this crate gives the *executable* stack the matching
//! observability story, so a slow run or a diverging differential test can
//! be localized to a layer without a debugger:
//!
//! * [`Sink`] — the structured-event interface. Instrumented components
//!   take a `S: Sink` type parameter; the default [`NullSink`] has
//!   `ENABLED == false` and empty inlined methods, so the disabled path
//!   monomorphizes to *nothing* (`sink`'s tests const-assert the flag).
//! * [`Counters`] — a named-counter registry. Hot paths keep plain `u64`
//!   fields in their own stats structs (e.g. `PipelineStats`) and dump
//!   them into a registry at reporting time; the registry is for
//!   aggregation and export, never for per-cycle increments.
//! * [`Histogram`] — power-of-two bucketed latency/size histogram.
//! * [`chrome`] — Chrome trace-event JSON (open in Perfetto or
//!   `chrome://tracing`).
//! * [`summary`] — plain-text counter report.
//! * [`json`] — a dependency-free JSON writer and validating parser (used
//!   by the `--json` bench mode and CI validation).
//! * [`fx`] — deterministic FxHash-style mixing, shared by memo tables and
//!   the hash-consed term fingerprints in `proglogic`.
//!
//! # Counter naming scheme
//!
//! `layer.component.metric`, all lowercase, dot-separated:
//! `pipeline.stall.raw`, `spec.retired.load`, `board.spi.bytes_rx`,
//! `compiler.pass.regalloc_micros`, `proglogic.solver.queries`. The layer
//! prefix is what [`summary::render`] groups by.

pub mod chrome;
pub mod fx;
pub mod json;
pub mod summary;

mod counters;
mod event;
mod hist;
mod sink;

pub use counters::Counters;
pub use event::{Event, Phase};
pub use hist::Histogram;
pub use sink::{MemSink, NullSink, Sink};

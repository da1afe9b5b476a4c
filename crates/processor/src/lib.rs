//! Hardware models of the RV32IM processor: a single-cycle specification
//! core and a 4-stage pipelined implementation (Figure 4 of the paper),
//! plus the refinement checker relating them.
//!
//! The decomposition mirrors the paper's (§5.5–§5.8):
//!
//! * [`alu`] holds the *combinational* decode/execute functions shared by
//!   the spec core and the pipeline — in the paper this sharing is what let
//!   the authors extend the ISA "without needing to touch a line of proof";
//!   here it is what makes the refinement check meaningful rather than
//!   vacuous (control, hazards, and caching are the things that differ).
//! * [`SingleCycle`] is the Kami spec processor: one instruction per cycle,
//!   fetching directly from memory. It doubles as the idealized ~1 IPC
//!   "commercial core" cost model in the §7.2.1 performance reproduction.
//! * [`Pipelined`] is the implementation: IF/ID/EX/WB stages connected by
//!   FIFOs, an eagerly-filled instruction cache that does **not** observe
//!   stores (the §5.6 hazard, on purpose), a branch target buffer, and a
//!   scoreboard interlock. It runs as a [`kami::RuleBased`] module.
//! * [`Model`] is the one interface every machine model is driven
//!   through: run a block, then read events, halted/error state and
//!   counters (the ISA spec machine implements it too).
//! * [`refinement`] checks that every pipelined run is a legal spec-core
//!   run by replaying the pipeline's observed MMIO inputs into the spec
//!   core — the executable analogue of `kstep1_sound`/`kstep_star_sound`.
//!
//! Hardware has no undefined behavior: where the software contract says UB
//! (misaligned access, out-of-range address, illegal instruction), these
//! models do *something* total (wrap, mask, treat as nop), exactly the
//! situation §5.8 of the paper describes — and why the end-to-end theorem
//! needs the software side to prove UB never happens.

pub mod alu;
pub mod btb;
pub mod icache;
pub mod memsys;
pub mod model;
pub mod pipeline;
pub mod refinement;
pub mod spec_core;

pub use btb::Btb;
pub use icache::ICache;
pub use memsys::MemSystem;
pub use model::Model;
pub use pipeline::{PipelineConfig, PipelineStats, Pipelined};
pub use refinement::{check_refinement, replay_trace, Divergence, RefinementReport};
pub use spec_core::SingleCycle;

//! The program logic: trace predicates, symbolic terms and formulas, a
//! lightweight prover, and a weakest-precondition-style symbolic executor
//! for Bedrock2.
//!
//! This crate plays the role of the paper's program logic layer (§4.1,
//! §6.1):
//!
//! * [`trace`] — the regex-like trace predicates of §3.1 (`+++`, `|||`,
//!   `^*`, `EX`), used to state `goodHlTrace`, and the streaming
//!   [`trace::Monitor`] that checks recorded MMIO traces against it
//!   (including the *prefix* acceptance the end-to-end theorem needs);
//! * [`term`] / [`formula`] — symbolic 32-bit words and assertions over
//!   them;
//! * [`solver`] — a small decision procedure (simplification, constant
//!   propagation, unsigned interval reasoning) standing in for the Coq
//!   tactics (and their performance woes, §7.3.1) of the paper;
//! * [`symexec`] — a `vcgen`-style symbolic executor: it computes what
//!   must hold for a Bedrock2 statement to run without undefined behavior
//!   and end in a state satisfying a postcondition, handling loops by
//!   user-supplied invariants (exactly the shape of §4.1) and external
//!   calls by a pluggable specification (`vcextern`, §6.1);
//! * [`engine`] — the parallel, incremental face of the prover: terms and
//!   formulas are hash-consed with cached 128-bit fingerprints, proved
//!   obligations are memoized in a [`solver::ProofCache`] (optionally
//!   persisted as `verif-cache/v1`, so re-runs only pay for changed VCs),
//!   and independent obligations shard across `std::thread::scope`
//!   workers with deterministic merge order.
//!
//! The paper machine-checks these obligations in Coq; here the obligations
//! are *generated* the same way and *discharged* by [`solver`], making the
//! logic an executable development tool rather than a foundational proof —
//! the honest equivalent available to a Rust library.

pub mod engine;
pub mod formula;
pub mod solver;
pub mod symexec;
pub mod term;
pub mod trace;

pub use engine::{prove_batch, BatchReport, Obligation};
pub use formula::{Formula, FormulaView};
pub use solver::{contradictory, obligation_fingerprint, prove, Outcome, ProofCache};
pub use symexec::{ExtSpec, SymExec, SymState, VcError};
pub use term::Term;
pub use trace::{Monitor, TracePred};

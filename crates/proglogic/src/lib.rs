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
//!   them, hash-consed so equality and hashing are O(1);
//! * [`solver`] — a small decision procedure (simplification, constant
//!   propagation, unsigned interval reasoning) standing in for the Coq
//!   tactics (and their performance woes, §7.3.1) of the paper;
//! * [`symexec`] — a `vcgen`-style symbolic executor: it computes what
//!   must hold for a Bedrock2 statement to run without undefined behavior
//!   and end in a state satisfying a postcondition, handling loops by
//!   user-supplied invariants (exactly the shape of §4.1) and external
//!   calls by a pluggable specification (`vcextern`, §6.1). It discharges
//!   each obligation eagerly, in exploration order, on the calling thread.
//!
//! The paper machine-checks these obligations in Coq; here the obligations
//! are *generated* the same way and *discharged* by [`solver`], making the
//! logic an executable development tool rather than a foundational proof —
//! the honest equivalent available to a Rust library.

pub mod formula;
pub mod solver;
pub mod symexec;
pub mod term;
pub mod trace;

pub use formula::{Formula, FormulaView};
pub use solver::{contradictory, prove, Outcome};
pub use symexec::{ExtSpec, SymExec, SymState, VcError};
pub use term::Term;
pub use trace::{Monitor, TracePred};

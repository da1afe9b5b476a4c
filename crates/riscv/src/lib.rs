//! RV32IM instruction-set architecture: encoding, decoding, disassembly, and
//! a formal-style specification machine.
//!
//! This crate is the Rust analogue of the riscv-coq formal specification used
//! in *Integration Verification across Software and Hardware for a Simple
//! Embedded System* (PLDI 2021). Like the paper's specification, instruction
//! semantics are written **once**, in terms of a small set of primitives
//! ([`Primitives`]), without committing to a machine-state representation
//! (§5.4 of the paper). Two important consumers exist:
//!
//! * [`SpecMachine`] — the software-oriented, undefined-behavior-aware
//!   machine the compiler is tested against. It tracks the executable-address
//!   set **XAddrs** (§5.6) so that stale-instruction hazards are undefined
//!   behavior, and it dispatches loads/stores outside RAM to a pluggable
//!   [`MmioHandler`], recording every such access in an I/O trace of
//!   [`MmioEvent`]s (§6.2).
//! * The `processor` crate implements the same ISA as a pipelined hardware
//!   model; the `integration` crate checks the two against each other.
//!
//! # Examples
//!
//! Assemble, encode, decode, and run a two-instruction program:
//!
//! ```
//! use riscv_spec::{Instruction, Reg, SpecMachine, Memory, NoMmio, encode, decode};
//!
//! let prog = [
//!     Instruction::Addi { rd: Reg::X5, rs1: Reg::X0, imm: 42 },
//!     Instruction::Sw { rs1: Reg::X0, rs2: Reg::X5, offset: 0x100 },
//! ];
//! let words: Vec<u32> = prog.iter().map(encode).collect();
//! assert_eq!(decode(words[0]), prog[0]);
//!
//! let mut m = SpecMachine::new(Memory::with_size(0x1000), NoMmio);
//! m.load_program(0, &words);
//! m.step().unwrap();
//! m.step().unwrap();
//! assert_eq!(m.mem.load_u32(0x100).unwrap(), 42);
//! ```

pub mod asm;
pub mod decode;
pub mod disasm;
pub mod encode;
pub mod execute;
pub mod icache;
pub mod isa;
pub mod machine;
pub mod mem;
pub mod mmio;
pub mod primitives;
pub mod word;
pub mod xaddrs;

pub use asm::{parse_instruction, parse_program};
pub use decode::decode;
pub use disasm::disassemble;
pub use encode::encode;
pub use execute::execute;
pub use icache::DecodeCache;
pub use isa::{InstrClass, Instruction, Reg, Sources};
pub use machine::{MachineError, SpecMachine, SpecStats, StepOutcome};
pub use mem::Memory;
pub use mmio::{AccessSize, MmioEvent, MmioEventKind, MmioHandler, NoMmio};
pub use primitives::Primitives;
pub use xaddrs::XAddrs;

//! The RV32IM instruction set as an abstract syntax type.
//!
//! Immediates are stored in *decoded* form: sign-extended byte offsets for
//! loads/stores/branches/jumps, the raw 20-bit field for `lui`/`auipc`, and
//! the 5-bit shift amount for shift-immediates. [`crate::encode()`](crate::encode::encode) and
//! [`crate::decode()`](crate::decode::decode) convert between this type and 32-bit instruction words
//! and are exact inverses on valid encodings (see the property tests).

use std::fmt;

/// One of the 32 integer registers `x0`–`x31`.
///
/// `x0` is hard-wired to zero: writes to it are discarded by every machine
/// model in this workspace.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// The zero register.
    pub const X0: Reg = Reg(0);
    /// Return-address register (`ra`) in the standard calling convention.
    pub const X1: Reg = Reg(1);
    /// Stack pointer (`sp`) in the standard calling convention.
    pub const X2: Reg = Reg(2);
    /// First temporary, used freely by generated code.
    pub const X5: Reg = Reg(5);
    /// Second temporary.
    pub const X6: Reg = Reg(6);
    /// Third temporary.
    pub const X7: Reg = Reg(7);
    /// First argument/return register (`a0`).
    pub const X10: Reg = Reg(10);
    /// Second argument/return register (`a1`).
    pub const X11: Reg = Reg(11);

    /// Creates a register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    pub fn new(index: u8) -> Reg {
        assert!(index < 32, "register index out of range: {index}");
        Reg(index)
    }

    /// Creates a register from its index, returning `None` when out of range.
    pub fn try_new(index: u8) -> Option<Reg> {
        if index < 32 {
            Some(Reg(index))
        } else {
            None
        }
    }

    /// The register's index, 0–31.
    #[inline]
    pub fn index(self) -> u8 {
        self.0
    }

    /// True for `x0`.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Iterator over all 32 registers in order.
    pub fn all() -> impl Iterator<Item = Reg> {
        (0..32).map(Reg)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// An RV32IM instruction.
///
/// Field conventions:
/// * `offset` fields are sign-extended byte offsets (branch/jump offsets are
///   even; `jal` offsets fit in 21 signed bits, branches in 13).
/// * `imm` fields are sign-extended 12-bit immediates.
/// * `imm20` is the raw upper-immediate field (0 ≤ imm20 < 2²⁰).
/// * `shamt` is a shift amount (0 ≤ shamt < 32).
///
/// [`Instruction::Invalid`] represents a word the decoder rejected; executing
/// it is undefined behavior at the [`crate::SpecMachine`] level, and traps the
/// hardware models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants mirror the RISC-V mnemonics one-to-one
pub enum Instruction {
    Lui { rd: Reg, imm20: u32 },
    Auipc { rd: Reg, imm20: u32 },
    Jal { rd: Reg, offset: i32 },
    Jalr { rd: Reg, rs1: Reg, offset: i32 },
    Beq { rs1: Reg, rs2: Reg, offset: i32 },
    Bne { rs1: Reg, rs2: Reg, offset: i32 },
    Blt { rs1: Reg, rs2: Reg, offset: i32 },
    Bge { rs1: Reg, rs2: Reg, offset: i32 },
    Bltu { rs1: Reg, rs2: Reg, offset: i32 },
    Bgeu { rs1: Reg, rs2: Reg, offset: i32 },
    Lb { rd: Reg, rs1: Reg, offset: i32 },
    Lh { rd: Reg, rs1: Reg, offset: i32 },
    Lw { rd: Reg, rs1: Reg, offset: i32 },
    Lbu { rd: Reg, rs1: Reg, offset: i32 },
    Lhu { rd: Reg, rs1: Reg, offset: i32 },
    Sb { rs1: Reg, rs2: Reg, offset: i32 },
    Sh { rs1: Reg, rs2: Reg, offset: i32 },
    Sw { rs1: Reg, rs2: Reg, offset: i32 },
    Addi { rd: Reg, rs1: Reg, imm: i32 },
    Slti { rd: Reg, rs1: Reg, imm: i32 },
    Sltiu { rd: Reg, rs1: Reg, imm: i32 },
    Xori { rd: Reg, rs1: Reg, imm: i32 },
    Ori { rd: Reg, rs1: Reg, imm: i32 },
    Andi { rd: Reg, rs1: Reg, imm: i32 },
    Slli { rd: Reg, rs1: Reg, shamt: u32 },
    Srli { rd: Reg, rs1: Reg, shamt: u32 },
    Srai { rd: Reg, rs1: Reg, shamt: u32 },
    Add { rd: Reg, rs1: Reg, rs2: Reg },
    Sub { rd: Reg, rs1: Reg, rs2: Reg },
    Sll { rd: Reg, rs1: Reg, rs2: Reg },
    Slt { rd: Reg, rs1: Reg, rs2: Reg },
    Sltu { rd: Reg, rs1: Reg, rs2: Reg },
    Xor { rd: Reg, rs1: Reg, rs2: Reg },
    Srl { rd: Reg, rs1: Reg, rs2: Reg },
    Sra { rd: Reg, rs1: Reg, rs2: Reg },
    Or { rd: Reg, rs1: Reg, rs2: Reg },
    And { rd: Reg, rs1: Reg, rs2: Reg },
    Mul { rd: Reg, rs1: Reg, rs2: Reg },
    Mulh { rd: Reg, rs1: Reg, rs2: Reg },
    Mulhsu { rd: Reg, rs1: Reg, rs2: Reg },
    Mulhu { rd: Reg, rs1: Reg, rs2: Reg },
    Div { rd: Reg, rs1: Reg, rs2: Reg },
    Divu { rd: Reg, rs1: Reg, rs2: Reg },
    Rem { rd: Reg, rs1: Reg, rs2: Reg },
    Remu { rd: Reg, rs1: Reg, rs2: Reg },
    Fence,
    FenceI,
    Ecall,
    Ebreak,
    Invalid { word: u32 },
}

/// Broad instruction classes, used for the spec machine's retired-mix
/// counters (`spec.retired.*`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// Integer ALU ops, including `lui`/`auipc` and immediates.
    Alu,
    /// M-extension multiply/divide.
    MulDiv,
    /// Memory loads.
    Load,
    /// Memory stores.
    Store,
    /// Conditional branches.
    Branch,
    /// `jal`/`jalr`.
    Jump,
    /// Fences, `ecall`/`ebreak`, and undecodable words.
    System,
}

impl Instruction {
    /// A canonical no-op (`addi x0, x0, 0`).
    pub const NOP: Instruction = Instruction::Addi {
        rd: Reg::X0,
        rs1: Reg::X0,
        imm: 0,
    };

    /// The mnemonic for this instruction (lowercase, no operands).
    pub fn mnemonic(&self) -> &'static str {
        use Instruction::*;
        match self {
            Lui { .. } => "lui",
            Auipc { .. } => "auipc",
            Jal { .. } => "jal",
            Jalr { .. } => "jalr",
            Beq { .. } => "beq",
            Bne { .. } => "bne",
            Blt { .. } => "blt",
            Bge { .. } => "bge",
            Bltu { .. } => "bltu",
            Bgeu { .. } => "bgeu",
            Lb { .. } => "lb",
            Lh { .. } => "lh",
            Lw { .. } => "lw",
            Lbu { .. } => "lbu",
            Lhu { .. } => "lhu",
            Sb { .. } => "sb",
            Sh { .. } => "sh",
            Sw { .. } => "sw",
            Addi { .. } => "addi",
            Slti { .. } => "slti",
            Sltiu { .. } => "sltiu",
            Xori { .. } => "xori",
            Ori { .. } => "ori",
            Andi { .. } => "andi",
            Slli { .. } => "slli",
            Srli { .. } => "srli",
            Srai { .. } => "srai",
            Add { .. } => "add",
            Sub { .. } => "sub",
            Sll { .. } => "sll",
            Slt { .. } => "slt",
            Sltu { .. } => "sltu",
            Xor { .. } => "xor",
            Srl { .. } => "srl",
            Sra { .. } => "sra",
            Or { .. } => "or",
            And { .. } => "and",
            Mul { .. } => "mul",
            Mulh { .. } => "mulh",
            Mulhsu { .. } => "mulhsu",
            Mulhu { .. } => "mulhu",
            Div { .. } => "div",
            Divu { .. } => "divu",
            Rem { .. } => "rem",
            Remu { .. } => "remu",
            Fence => "fence",
            FenceI => "fence.i",
            Ecall => "ecall",
            Ebreak => "ebreak",
            Invalid { .. } => ".word",
        }
    }

    /// The broad class of this instruction, for retired-mix accounting.
    pub fn class(&self) -> InstrClass {
        use Instruction::*;
        match self {
            Lb { .. } | Lh { .. } | Lw { .. } | Lbu { .. } | Lhu { .. } => InstrClass::Load,
            Sb { .. } | Sh { .. } | Sw { .. } => InstrClass::Store,
            Beq { .. } | Bne { .. } | Blt { .. } | Bge { .. } | Bltu { .. } | Bgeu { .. } => {
                InstrClass::Branch
            }
            Jal { .. } | Jalr { .. } => InstrClass::Jump,
            Mul { .. }
            | Mulh { .. }
            | Mulhsu { .. }
            | Mulhu { .. }
            | Div { .. }
            | Divu { .. }
            | Rem { .. }
            | Remu { .. } => InstrClass::MulDiv,
            Fence | FenceI | Ecall | Ebreak | Invalid { .. } => InstrClass::System,
            _ => InstrClass::Alu,
        }
    }

    /// True when this instruction can transfer control somewhere other than
    /// the next sequential instruction.
    #[inline]
    pub fn is_control_flow(&self) -> bool {
        use Instruction::*;
        matches!(
            self,
            Jal { .. }
                | Jalr { .. }
                | Beq { .. }
                | Bne { .. }
                | Blt { .. }
                | Bge { .. }
                | Bltu { .. }
                | Bgeu { .. }
        )
    }

    /// The destination register this instruction writes, if any (writes to
    /// `x0` are still reported; they have no architectural effect).
    #[inline]
    pub fn dest(&self) -> Option<Reg> {
        use Instruction::*;
        match *self {
            Lui { rd, .. } | Auipc { rd, .. } | Jal { rd, .. } | Jalr { rd, .. } => Some(rd),
            Lb { rd, .. } | Lh { rd, .. } | Lw { rd, .. } | Lbu { rd, .. } | Lhu { rd, .. } => {
                Some(rd)
            }
            Addi { rd, .. }
            | Slti { rd, .. }
            | Sltiu { rd, .. }
            | Xori { rd, .. }
            | Ori { rd, .. }
            | Andi { rd, .. }
            | Slli { rd, .. }
            | Srli { rd, .. }
            | Srai { rd, .. } => Some(rd),
            Add { rd, .. }
            | Sub { rd, .. }
            | Sll { rd, .. }
            | Slt { rd, .. }
            | Sltu { rd, .. }
            | Xor { rd, .. }
            | Srl { rd, .. }
            | Sra { rd, .. }
            | Or { rd, .. }
            | And { rd, .. }
            | Mul { rd, .. }
            | Mulh { rd, .. }
            | Mulhsu { rd, .. }
            | Mulhu { rd, .. }
            | Div { rd, .. }
            | Divu { rd, .. }
            | Rem { rd, .. }
            | Remu { rd, .. } => Some(rd),
            _ => None,
        }
    }

    /// The source registers this instruction reads (up to two).
    #[inline]
    pub fn sources(&self) -> Sources {
        use Instruction::*;
        match *self {
            Jalr { rs1, .. } => Sources::one(rs1),
            Beq { rs1, rs2, .. }
            | Bne { rs1, rs2, .. }
            | Blt { rs1, rs2, .. }
            | Bge { rs1, rs2, .. }
            | Bltu { rs1, rs2, .. }
            | Bgeu { rs1, rs2, .. } => Sources::two(rs1, rs2),
            Lb { rs1, .. }
            | Lh { rs1, .. }
            | Lw { rs1, .. }
            | Lbu { rs1, .. }
            | Lhu { rs1, .. } => Sources::one(rs1),
            Sb { rs1, rs2, .. } | Sh { rs1, rs2, .. } | Sw { rs1, rs2, .. } => {
                Sources::two(rs1, rs2)
            }
            Addi { rs1, .. }
            | Slti { rs1, .. }
            | Sltiu { rs1, .. }
            | Xori { rs1, .. }
            | Ori { rs1, .. }
            | Andi { rs1, .. }
            | Slli { rs1, .. }
            | Srli { rs1, .. }
            | Srai { rs1, .. } => Sources::one(rs1),
            Add { rs1, rs2, .. }
            | Sub { rs1, rs2, .. }
            | Sll { rs1, rs2, .. }
            | Slt { rs1, rs2, .. }
            | Sltu { rs1, rs2, .. }
            | Xor { rs1, rs2, .. }
            | Srl { rs1, rs2, .. }
            | Sra { rs1, rs2, .. }
            | Or { rs1, rs2, .. }
            | And { rs1, rs2, .. }
            | Mul { rs1, rs2, .. }
            | Mulh { rs1, rs2, .. }
            | Mulhsu { rs1, rs2, .. }
            | Mulhu { rs1, rs2, .. }
            | Div { rs1, rs2, .. }
            | Divu { rs1, rs2, .. }
            | Rem { rs1, rs2, .. }
            | Remu { rs1, rs2, .. } => Sources::two(rs1, rs2),
            _ => Sources::NONE,
        }
    }
}

/// The source registers of one instruction: at most two, held inline so
/// the hot decode/dispatch paths of the machine models never allocate.
/// Derefs to `&[Reg]` in operand order (`rs1`, then `rs2`).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Sources {
    regs: [Reg; 2],
    len: u8,
}

impl Sources {
    /// No source registers.
    pub const NONE: Sources = Sources {
        regs: [Reg::X0; 2],
        len: 0,
    };

    #[inline]
    fn one(rs1: Reg) -> Sources {
        Sources {
            regs: [rs1, Reg::X0],
            len: 1,
        }
    }

    #[inline]
    fn two(rs1: Reg, rs2: Reg) -> Sources {
        Sources {
            regs: [rs1, rs2],
            len: 2,
        }
    }
}

impl std::ops::Deref for Sources {
    type Target = [Reg];

    #[inline]
    fn deref(&self) -> &[Reg] {
        &self.regs[..usize::from(self.len)]
    }
}

impl fmt::Debug for Sources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::disasm::disassemble(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_construction() {
        assert_eq!(Reg::new(31).index(), 31);
        assert_eq!(Reg::try_new(32), None);
        assert_eq!(Reg::try_new(7), Some(Reg::new(7)));
        assert!(Reg::X0.is_zero());
        assert!(!Reg::X1.is_zero());
        assert_eq!(Reg::all().count(), 32);
    }

    #[test]
    #[should_panic(expected = "register index out of range")]
    fn reg_out_of_range_panics() {
        Reg::new(32);
    }

    #[test]
    fn reg_display() {
        assert_eq!(Reg::new(13).to_string(), "x13");
    }

    #[test]
    fn dest_and_sources() {
        let i = Instruction::Add {
            rd: Reg::X5,
            rs1: Reg::X6,
            rs2: Reg::X7,
        };
        assert_eq!(i.dest(), Some(Reg::X5));
        assert_eq!(*i.sources(), [Reg::X6, Reg::X7]);

        let s = Instruction::Sw {
            rs1: Reg::X2,
            rs2: Reg::X10,
            offset: -4,
        };
        assert_eq!(s.dest(), None);
        assert_eq!(*s.sources(), [Reg::X2, Reg::X10]);

        assert!(Instruction::Ecall.sources().is_empty());
        assert_eq!(
            *Instruction::Jalr {
                rd: Reg::X1,
                rs1: Reg::X6,
                offset: 0,
            }
            .sources(),
            [Reg::X6]
        );
    }

    #[test]
    fn control_flow_classification() {
        assert!(Instruction::Jal {
            rd: Reg::X0,
            offset: 8
        }
        .is_control_flow());
        assert!(!Instruction::NOP.is_control_flow());
        assert!(!Instruction::Fence.is_control_flow());
    }
}

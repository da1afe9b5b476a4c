//! The decode-cache soundness property: a machine with the predecoded
//! instruction cache is observably identical to one without it, on random
//! programs **including self-modifying stores** — the executable analogue
//! of the paper's argument that the Kami I$'s staleness window is exactly
//! the XAddrs revocation discipline (§5.6).
//!
//! Programs here are built adversarially for the cache: short instruction
//! streams heavily biased toward stores aimed *at the code region itself*,
//! plus `fence.i`, branches, and jumps, so runs routinely revisit slots
//! whose bytes were overwritten. Both machines run to completion (halt,
//! error, or fuel) and every observable is compared: outcome, registers,
//! pc, instret, retired mix, RAM contents, XAddrs, and the MMIO trace.

use proptest::prelude::*;
use riscv_spec::{
    encode, Instruction, MachineError, Memory, NoMmio, Reg, SpecMachine, StepOutcome,
};

const RAM: u32 = 0x200; // small, so random stores often hit code
const FUEL: u64 = 2_000;

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(Reg::new)
}

/// Offsets biased to land inside the (small) code/RAM window.
fn arb_off() -> impl Strategy<Value = i32> {
    0i32..(RAM as i32)
}

/// One instruction of the adversarial mix. Stores are over-represented and
/// aimed at low addresses (the code region); `fence.i` appears often enough
/// to re-legalize patched code; branches/jumps keep control flow revisiting
/// cached slots.
fn arb_inst() -> impl Strategy<Value = Instruction> {
    use Instruction::*;
    prop_oneof![
        3 => (arb_reg(), arb_reg(), arb_off()).prop_map(|(rs1, rs2, offset)| Sw {
            rs1,
            rs2,
            offset
        }),
        2 => (arb_reg(), arb_reg(), arb_off()).prop_map(|(rs1, rs2, offset)| Sb {
            rs1,
            rs2,
            offset
        }),
        1 => (arb_reg(), arb_reg(), arb_off()).prop_map(|(rs1, rs2, offset)| Sh {
            rs1,
            rs2,
            offset
        }),
        3 => (arb_reg(), arb_reg(), -2048i32..=2047).prop_map(|(rd, rs1, imm)| Addi {
            rd,
            rs1,
            imm
        }),
        1 => (arb_reg(), arb_reg(), arb_off()).prop_map(|(rd, rs1, offset)| Lw {
            rd,
            rs1,
            offset
        }),
        1 => (arb_reg(), arb_reg(), arb_reg()).prop_map(|(rd, rs1, rs2)| Add { rd, rs1, rs2 }),
        1 => (arb_reg(), arb_reg(), (-16i32..16).prop_map(|x| x * 4)).prop_map(
            |(rs1, rs2, offset)| Beq { rs1, rs2, offset }
        ),
        1 => (arb_reg(), (-16i32..16).prop_map(|x| x * 4)).prop_map(|(rd, offset)| Jal {
            rd,
            offset
        }),
        1 => Just(FenceI),
        1 => Just(Ebreak),
    ]
}

/// The complete observable state of a finished run.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: Result<StepOutcome, MachineError>,
    regs: [u32; 32],
    pc: u32,
    instret: u64,
    retired: [u64; 7],
    mem: Vec<u8>,
    xaddrs_count: u32,
}

fn run_to_completion(words: &[u32], icache: bool) -> Observed {
    let mut m = SpecMachine::new(Memory::with_size(RAM), NoMmio);
    m.set_icache_enabled(icache);
    m.load_program(0, words);
    let outcome = m.run_block(FUEL);
    Observed {
        outcome,
        regs: m.regs,
        pc: m.pc,
        instret: m.instret,
        retired: [
            m.stats.retired_alu,
            m.stats.retired_muldiv,
            m.stats.retired_load,
            m.stats.retired_store,
            m.stats.retired_branch,
            m.stats.retired_jump,
            m.stats.retired_system,
        ],
        mem: m.mem.as_bytes().to_vec(),
        xaddrs_count: m.xaddrs.count(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cached_machine_is_observably_identical(
        prog in proptest::collection::vec(arb_inst(), 1..48)
    ) {
        let words: Vec<u32> = prog.iter().map(encode).collect();
        let cached = run_to_completion(&words, true);
        let uncached = run_to_completion(&words, false);
        prop_assert_eq!(cached, uncached);
    }

    #[test]
    fn cached_machine_is_identical_under_raw_word_soup(
        words in proptest::collection::vec(any::<u32>(), 1..32)
    ) {
        // Arbitrary bit patterns: most decode to Invalid (trapping), some to
        // real instructions with wild operands. The two machines must still
        // agree bit-for-bit.
        let cached = run_to_completion(&words, true);
        let uncached = run_to_completion(&words, false);
        prop_assert_eq!(cached, uncached);
    }
}

/// A directed self-modification scenario on top of the random sweeps: code
/// that patches its own loop body every iteration, with and without
/// `fence.i` — the former must halt identically, the latter must fault
/// identically (stale fetch is UB for *both* machines).
#[test]
fn directed_self_patching_agrees() {
    use Instruction as I;
    let addi_x6 = encode(&I::Addi {
        rd: Reg::X6,
        rs1: Reg::X0,
        imm: 7,
    });
    let hi = addi_x6.wrapping_add(0x800) >> 12;
    let lo = riscv_spec::word::sign_extend(addi_x6 & 0xFFF, 12) as i32;
    for fence in [true, false] {
        let prog = [
            I::Lui {
                rd: Reg::X5,
                imm20: hi,
            },
            I::Addi {
                rd: Reg::X5,
                rs1: Reg::X5,
                imm: lo,
            },
            I::Sw {
                rs1: Reg::X0,
                rs2: Reg::X5,
                offset: 20, // patch the slot after the (optional) fence
            },
            I::NOP,
            if fence { I::FenceI } else { I::NOP },
            I::Ebreak, // patched into `addi x6, x0, 7`
            I::Ebreak,
        ];
        let words: Vec<u32> = prog.iter().map(encode).collect();
        let cached = run_to_completion(&words, true);
        let uncached = run_to_completion(&words, false);
        assert_eq!(cached, uncached, "fence={fence}");
        if fence {
            assert!(
                matches!(cached.outcome, Ok(StepOutcome::Halted { .. })),
                "patched path must run to the final ebreak: {:?}",
                cached.outcome
            );
            assert_eq!(cached.regs[6], 7, "patched instruction must execute");
        } else {
            assert_eq!(
                cached.outcome,
                Err(MachineError::FetchNonExecutable { addr: 20 }),
                "stale fetch without fence.i is UB on both machines"
            );
        }
    }
}

//! Refinement on *raw instruction streams*: beyond compiled programs, the
//! pipelined core must refine the single-cycle core on arbitrary
//! (software-contract-abiding) code. Streams are screened with the
//! `riscv-spec` machine first — exactly the paper's proof structure, where
//! `kstep1_sound` assumes the software side does not reach undefined
//! behavior (§5.8).

use proptest::prelude::*;
use riscv_spec::{encode, Instruction, Memory, NoMmio, Reg, SpecMachine, StepOutcome};

use processor::{check_refinement, PipelineConfig};

const RAM: u32 = 0x1000;
const FUEL: u64 = 5_000;

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..16).prop_map(Reg::new)
}

/// A constrained instruction: ALU ops, small-offset branches, loads and
/// stores through x1, which a preamble points at a data area well away
/// from the code.
fn arb_stream_inst() -> impl Strategy<Value = Instruction> {
    use Instruction::*;
    prop_oneof![
        5 => (arb_reg(), arb_reg(), -64i32..64).prop_map(|(rd, rs1, imm)| Addi { rd, rs1, imm }),
        4 => (arb_reg(), arb_reg(), arb_reg(), 0u8..10).prop_map(|(rd, rs1, rs2, k)| match k {
            0 => Add { rd, rs1, rs2 },
            1 => Sub { rd, rs1, rs2 },
            2 => Xor { rd, rs1, rs2 },
            3 => Or { rd, rs1, rs2 },
            4 => And { rd, rs1, rs2 },
            5 => Sltu { rd, rs1, rs2 },
            6 => Mul { rd, rs1, rs2 },
            7 => Divu { rd, rs1, rs2 },
            8 => Sll { rd, rs1, rs2 },
            _ => Srl { rd, rs1, rs2 },
        }),
        2 => (arb_reg(), 0u32..16).prop_map(|(rd, w)| Lw {
            rd,
            rs1: Reg::X1,
            offset: (w * 4) as i32,
        }),
        2 => (arb_reg(), 0u32..16).prop_map(|(rs2, w)| Sw {
            rs1: Reg::X1,
            rs2,
            offset: (w * 4) as i32,
        }),
        // Short forward branches only: they stay inside the padded stream.
        1 => (arb_reg(), arb_reg(), 1i32..6).prop_map(|(rs1, rs2, k)| Beq {
            rs1,
            rs2,
            offset: k * 4,
        }),
        1 => (arb_reg(), arb_reg(), 1i32..6).prop_map(|(rs1, rs2, k)| Bne {
            rs1,
            rs2,
            offset: k * 4,
        }),
    ]
}

fn image(body: &[Instruction]) -> Vec<u8> {
    // Preamble: x1 = 0x7F8 (the data area, word-aligned, above the code). Epilogue: ebreak, padded so
    // short forward branches always land on real instructions.
    let mut prog = vec![Instruction::Addi {
        rd: Reg::X1,
        rs1: Reg::X0,
        imm: 0x7F8,
    }];
    prog.extend_from_slice(body);
    for _ in 0..8 {
        prog.push(Instruction::NOP);
    }
    prog.push(Instruction::Ebreak);
    prog.iter().flat_map(|i| encode(i).to_le_bytes()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pipelined_refines_single_cycle_on_streams(
        body in proptest::collection::vec(arb_stream_inst(), 1..40),
    ) {
        let img = image(&body);
        // Screen with the software-contract checker.
        let mut spec = SpecMachine::new(Memory::with_size(RAM), NoMmio);
        spec.load_program(0, &img.chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect::<Vec<_>>());
        match spec.run_block(FUEL) {
            Ok(StepOutcome::Halted { .. }) => {}
            _ => return Ok(()), // outside the contract: nothing to check
        }
        let report = check_refinement(
            &img,
            RAM,
            NoMmio,
            |_| false,
            PipelineConfig::default(),
            200_000,
        );
        prop_assert!(report.is_ok(), "refinement violated: {report:?}");
    }

    #[test]
    fn refinement_holds_without_btb_on_streams(
        body in proptest::collection::vec(arb_stream_inst(), 1..24),
    ) {
        let img = image(&body);
        let mut spec = SpecMachine::new(Memory::with_size(RAM), NoMmio);
        spec.load_program(0, &img.chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect::<Vec<_>>());
        match spec.run_block(FUEL) {
            Ok(StepOutcome::Halted { .. }) => {}
            _ => return Ok(()),
        }
        let report = check_refinement(
            &img,
            RAM,
            NoMmio,
            |_| false,
            PipelineConfig { btb_bits: None, fetch_buffer: 3 },
            200_000,
        );
        prop_assert!(report.is_ok(), "refinement violated: {report:?}");
    }
}

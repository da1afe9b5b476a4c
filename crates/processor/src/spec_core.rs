//! The single-cycle specification processor (§5.7).
//!
//! Fetch, decode, execute, memory, and write-back all complete in one
//! cycle; there are no caches, no predictors, and no hazards. This is the
//! model the pipelined processor is checked to refine, and — retiring one
//! instruction per cycle — it doubles as the idealized commercial-core
//! cost model in the §7.2.1 performance reproduction.

use crate::alu;
use crate::memsys::MemSystem;
use kami::{BeMemory, RegFile};
use riscv_spec::{decode, DecodeCache, MmioHandler};

/// The single-cycle core.
#[derive(Clone, Debug)]
pub struct SingleCycle<M> {
    /// Program counter.
    pub pc: u32,
    /// Architectural register file.
    pub rf: RegFile,
    /// Memory + devices + label trace.
    pub mem: MemSystem<M>,
    /// Elapsed cycles (= retired instructions for this core).
    pub cycle: u64,
    /// Retired instruction count.
    pub retired: u64,
    /// Set when `ebreak`/`ecall` retires; the core then refuses to step.
    pub halted: bool,
    /// Predecoded-instruction side table over RAM. Unlike [`SpecMachine`],
    /// this core has no staleness model — fetch always reads current RAM —
    /// so every RAM store invalidates the overlapped slot and the cache is
    /// pure memoization, invisible to all observers.
    ///
    /// [`SpecMachine`]: riscv_spec::SpecMachine
    icache: DecodeCache,
}

impl<M: MmioHandler> SingleCycle<M> {
    /// Builds a core over a boot image placed at address 0 (pc resets to 0,
    /// the paper's no-bootloader bring-up recipe, §5.9).
    pub fn new(image: &[u8], ram_bytes: u32, mmio: M) -> SingleCycle<M> {
        SingleCycle {
            pc: 0,
            rf: RegFile::new(),
            mem: MemSystem::new(BeMemory::from_image(image, ram_bytes), mmio),
            cycle: 0,
            retired: 0,
            halted: false,
            icache: DecodeCache::new(ram_bytes),
        }
    }

    /// Drops every predecoded entry. Required after mutating `mem.ram`
    /// directly (stores issued through [`SingleCycle::run_block`] invalidate
    /// automatically).
    pub fn flush_icache(&mut self) {
        self.icache.flush();
    }

    #[inline]
    fn fetch_decoded(&mut self) -> riscv_spec::Instruction {
        match self.icache.get(self.pc) {
            Some(inst) => inst,
            None => {
                let inst = decode(self.mem.fetch(self.pc));
                self.icache.fill(self.pc, inst);
                inst
            }
        }
    }

    /// One instruction's datapath, minus the device tick.
    #[inline]
    fn step_datapath(&mut self) {
        let inst = self.fetch_decoded();
        let sources = inst.sources();
        let a = sources.first().map_or(0, |r| self.rf.read(r.index()));
        let b = sources.get(1).map_or(0, |r| self.rf.read(r.index()));
        let out = alu::execute(&inst, self.pc, a, b);

        let wb = match out.mem {
            Some(op) if op.kind.is_load() => Some(self.mem.load(self.cycle, op)),
            Some(op) => {
                self.mem.store(self.cycle, op);
                if self.mem.is_ram(op.addr) {
                    // The RAM write lands in the single aligned word
                    // op.addr & !3 (byte enables select lanes within it).
                    self.icache.invalidate_range(op.addr & !3, 4);
                }
                None
            }
            None => out.wb_value,
        };
        if let (Some(v), Some(rd)) = (wb, inst.dest()) {
            self.rf.write(rd.index(), v);
        }
        if out.halt {
            self.halted = true;
        }
        self.pc = out.next_pc;
        self.cycle += 1;
        self.retired += 1;
    }

    /// Runs up to `fuel` instructions with deferred device ticks: the
    /// per-step virtual `tick` is replaced by a counter, flushed in one
    /// `tick_n` before any MMIO interaction and at block exit, so devices
    /// observe identical timing while straight-line runs pay no per-step
    /// dispatch. Returns cycles run.
    pub fn run_block(&mut self, fuel: u64) -> u64 {
        let start = self.cycle;
        while !self.halted && self.cycle - start < fuel {
            self.step_datapath();
            self.mem.tick_deferred();
        }
        self.mem.flush_ticks();
        self.cycle - start
    }

    /// Runs until halted or `max_cycles` elapse; returns cycles run.
    pub fn run(&mut self, max_cycles: u64) -> u64 {
        self.run_block(max_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_spec::{encode, Instruction as I, NoMmio, Reg};

    fn image(prog: &[I]) -> Vec<u8> {
        riscv_spec::encode::encode_to_bytes(prog)
    }

    #[test]
    fn computes_and_halts() {
        let img = image(&[
            I::Addi {
                rd: Reg::X5,
                rs1: Reg::X0,
                imm: 40,
            },
            I::Addi {
                rd: Reg::X6,
                rs1: Reg::X5,
                imm: 2,
            },
            I::Ebreak,
        ]);
        let mut c = SingleCycle::new(&img, 0x1000, NoMmio);
        c.run(100);
        assert!(c.halted);
        assert_eq!(c.rf.read(6), 42);
        assert_eq!(c.retired, 3); // the ebreak itself retires
        c.run(1);
        assert_eq!(c.retired, 3, "halted core must not step");
    }

    #[test]
    fn one_instruction_per_cycle() {
        let img = image(&[
            I::Addi {
                rd: Reg::X5,
                rs1: Reg::X0,
                imm: 1,
            },
            I::Addi {
                rd: Reg::X5,
                rs1: Reg::X5,
                imm: 1,
            },
            I::Addi {
                rd: Reg::X5,
                rs1: Reg::X5,
                imm: 1,
            },
            I::Ebreak,
        ]);
        let mut c = SingleCycle::new(&img, 0x1000, NoMmio);
        c.run(100);
        assert_eq!(c.cycle, c.retired);
    }

    #[test]
    fn illegal_instructions_are_nops() {
        let mut img = image(&[I::Addi {
            rd: Reg::X5,
            rs1: Reg::X0,
            imm: 7,
        }]);
        img.extend_from_slice(&0xFFFF_FFFFu32.to_le_bytes()); // undecodable
        img.extend_from_slice(&encode(&I::Ebreak).to_le_bytes());
        let mut c = SingleCycle::new(&img, 0x1000, NoMmio);
        c.run(100);
        assert!(c.halted);
        assert_eq!(c.rf.read(5), 7);
    }

    #[test]
    fn stores_then_loads_roundtrip() {
        let img = image(&[
            I::Addi {
                rd: Reg::X5,
                rs1: Reg::X0,
                imm: -1,
            },
            I::Sb {
                rs1: Reg::X0,
                rs2: Reg::X5,
                offset: 0x100,
            },
            I::Lbu {
                rd: Reg::X6,
                rs1: Reg::X0,
                offset: 0x100,
            },
            I::Lb {
                rd: Reg::X7,
                rs1: Reg::X0,
                offset: 0x100,
            },
            I::Ebreak,
        ]);
        let mut c = SingleCycle::new(&img, 0x1000, NoMmio);
        c.run(100);
        assert_eq!(c.rf.read(6), 0xFF);
        assert_eq!(c.rf.read(7), u32::MAX);
    }
}

//! The 4-stage pipelined processor (Figure 4 of the paper).
//!
//! ```text
//!  IF ──■──▶ ID ──■──▶ EX ──■──▶ WB
//!  │BTB│      │RF+scoreboard│
//!  │I$ │
//! ```
//!
//! * **IF** fetches from the eagerly-filled [`crate::ICache`] at the pc the
//!   [`crate::Btb`] predicts, tagging each fetch with the current *epoch*.
//!   The simulation's I$ also holds each word predecoded, so the fetched
//!   instruction travels to ID already decoded.
//! * **ID** decodes, drops wrong-epoch instructions (squash after a
//!   redirect), stalls while a source or destination register is busy in
//!   the scoreboard, reads the register file, and dispatches.
//! * **EX** runs the shared combinational [`crate::alu`], performs the
//!   memory access (BRAM or MMIO method call), resolves control flow,
//!   trains the BTB, and on a misprediction flips the epoch, redirects the
//!   fetch pc, and flushes the fetch buffer. `fence.i` refills the I$ and
//!   redirects (younger fetches may be stale).
//! * **WB** writes the register file, clears the scoreboard, and retires.
//!
//! The stages are rules of a [`kami::RuleBased`] module, scheduled
//! downstream-first each cycle — one legal one-rule-at-a-time serialization
//! of the concurrent hardware (§5.7). [`kami::Scheduler`] driving the rules
//! by name is the reference for that serialization; the core's own cycle
//! loop fires the same four rules directly, in the same order, and defers
//! device ticks to the next MMIO access, so it is cycle-exact with the
//! reference while paying no per-rule dispatch or per-cycle device call.

use crate::alu;
use crate::btb::Btb;
use crate::icache::ICache;
use crate::memsys::MemSystem;
use kami::{BeMemory, Fifo, RegFile, RuleBased, RuleOutcome, Scoreboard};
use obs::{Counters, Event, NullSink, Sink};
use riscv_spec::{Instruction, MmioHandler};

/// Cycles between sampled `pipeline.ipc_x1000` counter events when a
/// tracing sink is attached.
const IPC_SAMPLE_PERIOD: u64 = 4096;

/// Configuration knobs (used by the BTB-ablation benchmark).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineConfig {
    /// BTB index bits; `None` disables prediction (always pc+4).
    pub btb_bits: Option<u32>,
    /// Fetch-buffer capacity (the IF→ID FIFO).
    pub fetch_buffer: usize,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            btb_bits: Some(6),
            fetch_buffer: 2,
        }
    }
}

/// Performance counters, kept as plain fields so the hot loop pays one
/// integer increment per event; [`PipelineStats::counters`] exports them
/// under the `pipeline.*` naming scheme at reporting time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Cycles ID spent stalled on the scoreboard (any cause).
    pub stalls: u64,
    /// Stalls caused by a busy *source* register (read-after-write).
    pub stalls_raw: u64,
    /// Stalls caused only by a busy *destination* register
    /// (write-after-write; the in-order WB port must not reorder).
    pub stalls_waw: u64,
    /// Control-flow mispredictions (redirects).
    pub mispredicts: u64,
    /// Instructions squashed by epoch mismatch.
    pub squashed: u64,
    /// Fetch-buffer flushes (every redirect clears IF→ID).
    pub flushes: u64,
    /// `fence.i` instruction-cache refills.
    pub fencei_refills: u64,
    /// Control-flow instructions whose predicted next pc was correct.
    pub btb_hits: u64,
    /// Control-flow instructions whose predicted next pc was wrong.
    pub btb_misses: u64,
    /// Instruction-cache fetches issued by IF (the I$ is eagerly filled,
    /// so every fetch hits; refills happen only on `fence.i`).
    pub icache_fetches: u64,
}

impl PipelineStats {
    /// Exports the stats as `pipeline.*` named counters.
    pub fn counters(&self) -> Counters {
        let mut c = Counters::new();
        c.set("pipeline.stall.total", self.stalls);
        c.set("pipeline.stall.raw", self.stalls_raw);
        c.set("pipeline.stall.waw", self.stalls_waw);
        c.set("pipeline.flush.mispredict", self.mispredicts);
        c.set("pipeline.flush.total", self.flushes);
        c.set("pipeline.squashed", self.squashed);
        c.set("pipeline.btb.hit", self.btb_hits);
        c.set("pipeline.btb.miss", self.btb_misses);
        c.set("pipeline.icache.fetch", self.icache_fetches);
        c.set("pipeline.icache.refill", self.fencei_refills);
        c
    }
}

#[derive(Clone, Copy, Debug)]
struct Fetched {
    pc: u32,
    inst: Instruction,
    pred_next: u32,
    epoch: bool,
}

#[derive(Clone, Copy, Debug)]
struct Dispatched {
    pc: u32,
    inst: Instruction,
    a: u32,
    b: u32,
    pred_next: u32,
    epoch: bool,
}

#[derive(Clone, Copy, Debug)]
struct Executed {
    rd: Option<u8>,
    value: Option<u32>,
    halt: bool,
}

/// The pipelined core.
///
/// `S` is the telemetry sink; the default [`NullSink`] monomorphizes every
/// instrumentation site away (its `ENABLED` is a constant `false`). Use
/// [`Pipelined::with_sink`] to attach a recording sink such as
/// [`obs::MemSink`].
#[derive(Clone, Debug)]
pub struct Pipelined<M, S = NullSink> {
    pub(crate) fetch_pc: u32,
    epoch: bool,
    rf: RegFile,
    sb: Scoreboard,
    icache: ICache,
    btb: Option<Btb>,
    f2d: Fifo<Fetched>,
    d2e: Fifo<Dispatched>,
    e2w: Fifo<Executed>,
    /// Memory + devices + label trace.
    pub mem: MemSystem<M>,
    /// Elapsed hardware cycles.
    pub cycle: u64,
    /// Retired instruction count.
    pub retired: u64,
    /// Set when `ebreak`/`ecall` retires.
    pub halted: bool,
    /// Performance counters.
    pub stats: PipelineStats,
    /// Structured-event sink ([`NullSink`] unless built `with_sink`).
    pub sink: S,
}

impl<M: MmioHandler> Pipelined<M> {
    /// Builds a core over a boot image placed at address 0. The instruction
    /// cache is eagerly filled from the image at reset (§5.5).
    pub fn new(image: &[u8], ram_bytes: u32, mmio: M, config: PipelineConfig) -> Pipelined<M> {
        Pipelined::with_sink(image, ram_bytes, mmio, config, NullSink)
    }
}

impl<M: MmioHandler, S: Sink> Pipelined<M, S> {
    /// Like [`Pipelined::new`], but events go to `sink`.
    pub fn with_sink(
        image: &[u8],
        ram_bytes: u32,
        mmio: M,
        config: PipelineConfig,
        sink: S,
    ) -> Pipelined<M, S> {
        let ram = BeMemory::from_image(image, ram_bytes);
        let icache = ICache::fill(&ram);
        Pipelined {
            fetch_pc: 0,
            epoch: false,
            rf: RegFile::new(),
            sb: Scoreboard::new(),
            icache,
            btb: config.btb_bits.map(Btb::new),
            f2d: Fifo::new(config.fetch_buffer),
            d2e: Fifo::new(1),
            e2w: Fifo::new(1),
            mem: MemSystem::new(ram, mmio),
            cycle: 0,
            retired: 0,
            halted: false,
            stats: PipelineStats::default(),
            sink,
        }
    }

    /// Architectural register value (for end-of-run comparison).
    pub fn reg(&self, r: u8) -> u32 {
        self.rf.read(r)
    }

    /// Snapshot of the architectural register file.
    pub fn rf_snapshot(&self) -> [u32; 32] {
        self.rf.snapshot()
    }

    /// Fires the four stage rules once each, downstream first — the
    /// serialization [`kami::Scheduler`] runs over [`RuleBased::rules`],
    /// without the by-name dispatch.
    #[inline]
    fn fire_rules(&mut self) {
        self.rule_writeback();
        self.rule_execute();
        self.rule_decode();
        self.rule_fetch();
    }

    #[inline]
    fn sample_ipc(&mut self) {
        if S::ENABLED && self.cycle.is_multiple_of(IPC_SAMPLE_PERIOD) {
            let ipc_x1000 = (self.retired * 1000) / self.cycle.max(1);
            self.sink.emit(Event::counter(
                self.cycle,
                "pipeline",
                "ipc_x1000",
                ipc_x1000,
            ));
        }
    }

    /// Completes one cycle's bookkeeping (cycle counter, device time) after
    /// rules have been fired manually — for harnesses exploring other legal
    /// rule serializations (one-rule-at-a-time, §5.7).
    pub fn finish_cycle(&mut self) {
        self.cycle += 1;
        self.mem.tick();
    }

    /// Runs until halted or `max_cycles` cycles elapse; returns cycles run.
    ///
    /// Device ticks are deferred: each cycle adds one to a counter that
    /// [`MemSystem`] delivers in a single `tick_n` before the next MMIO
    /// access and at loop exit, so devices observe exactly the timing of
    /// the per-cycle tick in [`Pipelined::finish_cycle`].
    pub fn run(&mut self, max_cycles: u64) -> u64 {
        let start = self.cycle;
        while !self.halted && self.cycle - start < max_cycles {
            self.fire_rules();
            self.cycle += 1;
            self.mem.tick_deferred();
            self.sample_ipc();
        }
        self.mem.flush_ticks();
        self.cycle - start
    }

    /// Instructions retired per cycle so far.
    pub fn ipc(&self) -> f64 {
        if self.cycle == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycle as f64
        }
    }

    fn rule_writeback(&mut self) -> RuleOutcome {
        if !self.e2w.can_deq() {
            return RuleOutcome::NotReady;
        }
        let e = self.e2w.deq();
        if let (Some(rd), Some(v)) = (e.rd, e.value) {
            self.rf.write(rd, v);
        }
        if let Some(rd) = e.rd {
            self.sb.clear(rd);
        }
        self.retired += 1;
        if e.halt {
            self.halted = true;
            if S::ENABLED {
                self.sink.emit(
                    Event::instant(self.cycle, "pipeline", "halt")
                        .with_arg("retired", self.retired),
                );
            }
        }
        RuleOutcome::Fired
    }

    fn rule_execute(&mut self) -> RuleOutcome {
        if self.halted || !self.d2e.can_deq() || !self.e2w.can_enq() {
            return RuleOutcome::NotReady;
        }
        let d = self.d2e.deq();
        if d.epoch != self.epoch {
            // Squashed after dispatch: release its scoreboard claim.
            if let Some(rd) = d.inst.dest() {
                self.sb.clear(rd.index());
            }
            self.stats.squashed += 1;
            return RuleOutcome::Fired;
        }
        let out = alu::execute(&d.inst, d.pc, d.a, d.b);
        let value = match out.mem {
            Some(op) if op.kind.is_load() => Some(self.mem.load(self.cycle, op)),
            Some(op) => {
                self.mem.store(self.cycle, op);
                None
            }
            None => out.wb_value,
        };

        let taken = out.next_pc != d.pc.wrapping_add(4);
        if d.inst.is_control_flow() {
            if out.next_pc == d.pred_next {
                self.stats.btb_hits += 1;
            } else {
                self.stats.btb_misses += 1;
            }
            if let Some(btb) = &mut self.btb {
                btb.train(d.pc, out.next_pc, taken);
            }
        }
        if out.next_pc != d.pred_next || out.fence_i {
            if out.fence_i {
                self.icache.refill(&self.mem.ram);
                self.stats.fencei_refills += 1;
                if S::ENABLED {
                    self.sink.emit(
                        Event::instant(self.cycle, "pipeline", "fence_i")
                            .with_arg("pc", u64::from(d.pc)),
                    );
                }
            }
            self.stats.mispredicts += 1;
            self.stats.flushes += 1;
            self.epoch = !self.epoch;
            self.fetch_pc = out.next_pc;
            self.f2d.clear();
            if S::ENABLED {
                self.sink.emit(
                    Event::instant(self.cycle, "pipeline", "redirect")
                        .with_arg("next_pc", u64::from(out.next_pc)),
                );
            }
        }

        self.e2w.enq(Executed {
            rd: d.inst.dest().map(|r| r.index()),
            value,
            halt: out.halt,
        });
        RuleOutcome::Fired
    }

    fn rule_decode(&mut self) -> RuleOutcome {
        if self.halted || !self.f2d.can_deq() || !self.d2e.can_enq() {
            return RuleOutcome::NotReady;
        }
        let f = *self.f2d.first().expect("guard checked can_deq");
        if f.epoch != self.epoch {
            self.f2d.deq();
            self.stats.squashed += 1;
            return RuleOutcome::Fired;
        }
        let inst = f.inst;
        let sources = inst.sources();
        let raw = sources.iter().any(|r| self.sb.is_busy(r.index()));
        let waw = inst.dest().is_some_and(|r| self.sb.is_busy(r.index()));
        if raw || waw {
            self.stats.stalls += 1;
            if raw {
                self.stats.stalls_raw += 1;
            } else {
                self.stats.stalls_waw += 1;
            }
            return RuleOutcome::NotReady;
        }
        let a = sources.first().map_or(0, |r| self.rf.read(r.index()));
        let b = sources.get(1).map_or(0, |r| self.rf.read(r.index()));
        if let Some(rd) = inst.dest() {
            self.sb.set_busy(rd.index());
        }
        self.f2d.deq();
        self.d2e.enq(Dispatched {
            pc: f.pc,
            inst,
            a,
            b,
            pred_next: f.pred_next,
            epoch: f.epoch,
        });
        RuleOutcome::Fired
    }

    fn rule_fetch(&mut self) -> RuleOutcome {
        if self.halted || !self.f2d.can_enq() {
            return RuleOutcome::NotReady;
        }
        let pc = self.fetch_pc;
        let inst = self.icache.fetch_decoded(pc);
        self.stats.icache_fetches += 1;
        let pred_next = match &mut self.btb {
            Some(btb) => btb.predict(pc),
            None => pc.wrapping_add(4),
        };
        self.f2d.enq(Fetched {
            pc,
            inst,
            pred_next,
            epoch: self.epoch,
        });
        self.fetch_pc = pred_next;
        RuleOutcome::Fired
    }
}

impl<M: MmioHandler, S: Sink> RuleBased for Pipelined<M, S> {
    fn rules(&self) -> &'static [&'static str] {
        &["writeback", "execute", "decode", "fetch"]
    }

    fn fire(&mut self, rule: &str) -> RuleOutcome {
        match rule {
            "writeback" => self.rule_writeback(),
            "execute" => self.rule_execute(),
            "decode" => self.rule_decode(),
            "fetch" => self.rule_fetch(),
            other => panic!("unknown rule '{other}'"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_spec::{Instruction as I, NoMmio, Reg};

    fn image(prog: &[I]) -> Vec<u8> {
        riscv_spec::encode::encode_to_bytes(prog)
    }

    fn run_prog(prog: &[I]) -> Pipelined<NoMmio> {
        let mut p = Pipelined::new(&image(prog), 0x1000, NoMmio, PipelineConfig::default());
        p.run(100_000);
        assert!(p.halted, "program should halt");
        p
    }

    #[test]
    fn straight_line_code_retires_correctly() {
        let p = run_prog(&[
            I::Addi {
                rd: Reg::X5,
                rs1: Reg::X0,
                imm: 40,
            },
            I::Addi {
                rd: Reg::X6,
                rs1: Reg::X0,
                imm: 2,
            },
            I::Add {
                rd: Reg::X7,
                rs1: Reg::X5,
                rs2: Reg::X6,
            },
            I::Ebreak,
        ]);
        assert_eq!(p.reg(7), 42);
        assert_eq!(p.retired, 4);
    }

    #[test]
    fn data_hazards_stall_but_stay_correct() {
        // Each instruction depends on the previous one.
        let p = run_prog(&[
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
            I::Addi {
                rd: Reg::X5,
                rs1: Reg::X5,
                imm: 1,
            },
            I::Ebreak,
        ]);
        assert_eq!(p.reg(5), 4);
        assert!(p.stats.stalls > 0, "dependent chain must stall");
    }

    #[test]
    fn taken_branches_squash_wrong_path() {
        // beq x0,x0 over a poison instruction.
        let p = run_prog(&[
            I::Beq {
                rs1: Reg::X0,
                rs2: Reg::X0,
                offset: 8,
            },
            I::Addi {
                rd: Reg::X5,
                rs1: Reg::X0,
                imm: 99,
            }, // must be squashed
            I::Ebreak,
        ]);
        assert_eq!(p.reg(5), 0, "wrong-path instruction must not retire");
        assert!(p.stats.mispredicts >= 1);
    }

    #[test]
    fn loop_with_btb_improves_over_no_btb() {
        // A tight 100-iteration countdown loop.
        let prog = [
            I::Addi {
                rd: Reg::X5,
                rs1: Reg::X0,
                imm: 100,
            },
            I::Addi {
                rd: Reg::X5,
                rs1: Reg::X5,
                imm: -1,
            },
            I::Bne {
                rs1: Reg::X5,
                rs2: Reg::X0,
                offset: -4,
            },
            I::Ebreak,
        ];
        let mut with = Pipelined::new(&image(&prog), 0x1000, NoMmio, PipelineConfig::default());
        with.run(1_000_000);
        let mut without = Pipelined::new(
            &image(&prog),
            0x1000,
            NoMmio,
            PipelineConfig {
                btb_bits: None,
                ..PipelineConfig::default()
            },
        );
        without.run(1_000_000);
        assert_eq!(with.reg(5), 0);
        assert_eq!(without.reg(5), 0);
        assert!(
            with.cycle < without.cycle,
            "BTB should speed up the loop: {} vs {} cycles",
            with.cycle,
            without.cycle
        );
    }

    #[test]
    fn stale_instructions_execute_from_the_icache() {
        // Store a different instruction over slot 2, then fall into it.
        // The pipelined core executes the STALE instruction (from the I$),
        // demonstrating the §5.6 hazard the XAddrs discipline guards.
        let addi7 = riscv_spec::encode(&I::Addi {
            rd: Reg::X5,
            rs1: Reg::X0,
            imm: 7,
        });
        // Build: lui/addi x6 <- encode(addi x5,x0,9); sw x6, 16(x0);
        // slot4: addi x5, x0, 7 (stale); ebreak
        let addi9 = riscv_spec::encode(&I::Addi {
            rd: Reg::X5,
            rs1: Reg::X0,
            imm: 9,
        });
        let hi = addi9.wrapping_add(0x800) >> 12;
        let lo = riscv_spec::word::sign_extend(addi9 & 0xFFF, 12) as i32;
        let prog = [
            I::Lui {
                rd: Reg::X6,
                imm20: hi & 0xFFFFF,
            },
            I::Addi {
                rd: Reg::X6,
                rs1: Reg::X6,
                imm: lo,
            },
            I::Sw {
                rs1: Reg::X0,
                rs2: Reg::X6,
                offset: 16,
            },
            I::NOP,
            I::Invalid { word: addi7 }, // placeholder replaced below
            I::Ebreak,
        ];
        let mut img = image(&prog);
        img[16..20].copy_from_slice(&addi7.to_le_bytes());
        let mut p = Pipelined::new(&img, 0x1000, NoMmio, PipelineConfig::default());
        p.run(100_000);
        assert!(p.halted);
        assert_eq!(p.reg(5), 7, "I$ serves the stale instruction");
        // RAM, however, holds the new instruction.
        assert_eq!(p.mem.ram.read(16), addi9);
    }

    #[test]
    fn fence_i_synchronizes_the_icache() {
        let addi9 = riscv_spec::encode(&I::Addi {
            rd: Reg::X5,
            rs1: Reg::X0,
            imm: 9,
        });
        let hi = addi9.wrapping_add(0x800) >> 12;
        let lo = riscv_spec::word::sign_extend(addi9 & 0xFFF, 12) as i32;
        let prog = [
            I::Lui {
                rd: Reg::X6,
                imm20: hi & 0xFFFFF,
            },
            I::Addi {
                rd: Reg::X6,
                rs1: Reg::X6,
                imm: lo,
            },
            I::Sw {
                rs1: Reg::X0,
                rs2: Reg::X6,
                offset: 20,
            },
            I::FenceI,
            I::NOP,
            I::Addi {
                rd: Reg::X5,
                rs1: Reg::X0,
                imm: 7,
            }, // overwritten with addi 9
            I::Ebreak,
        ];
        let mut p = Pipelined::new(&image(&prog), 0x1000, NoMmio, PipelineConfig::default());
        p.run(100_000);
        assert!(p.halted);
        assert_eq!(p.reg(5), 9, "fence.i must expose the new instruction");
    }

    #[test]
    fn halted_core_stops_cold() {
        let mut p = run_prog(&[I::Ebreak]);
        let c = p.cycle;
        p.run(1);
        assert_eq!(p.cycle, c);
    }
}

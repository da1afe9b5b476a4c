//! The refinement checker: pipelined ⊑ single-cycle.
//!
//! The paper proves that every trace of the pipelined processor is a trace
//! of the single-cycle spec processor (§5.7). Traces differ only through
//! *input nondeterminism* — the values the environment returns for MMIO
//! loads — so the executable check mirrors the proof's structure exactly:
//!
//! 1. run the pipelined implementation against the real devices and record
//!    its label trace;
//! 2. run the spec core against a [`ReplayHandler`] that answers each MMIO
//!    load with the value the implementation observed (the environment
//!    "chooses" the same inputs) and checks each store matches;
//! 3. the run refines iff the spec core consumes exactly the same label
//!    sequence and, when both runs halt, the architectural state agrees.
//!
//! Like `kstep1_sound`, the statement is conditional on the software
//! contract: programs that trigger software-level undefined behavior
//! (self-modifying code without `fence.i`, misaligned MMIO, …) are outside
//! it, and callers are expected to screen them with the `riscv-spec`
//! machine first (the `integration` crate's differential tests do).

use crate::pipeline::{PipelineConfig, Pipelined};
use crate::spec_core::SingleCycle;
use riscv_spec::{AccessSize, MmioEvent, MmioEventKind, MmioHandler};
use std::collections::VecDeque;

/// How a pipelined run failed to refine the spec core.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Divergence {
    /// The spec core performed an MMIO access the implementation never did
    /// (or in a different order / with different data).
    TraceMismatch {
        /// Index of the first mismatching event.
        index: usize,
        /// What the implementation's trace holds there, if anything.
        implementation: Option<MmioEvent>,
        /// What the spec core attempted.
        spec: MmioEvent,
    },
    /// The spec core halted having consumed only a prefix of the
    /// implementation's trace (or vice versa).
    TraceLength {
        /// Events in the implementation trace.
        implementation: usize,
        /// Events the spec consumed.
        spec: usize,
    },
    /// Both halted but architectural register files differ.
    RegisterMismatch {
        /// First differing register index.
        reg: u8,
        /// Implementation value.
        implementation: u32,
        /// Spec value.
        spec: u32,
    },
    /// Both halted but memories differ.
    MemoryMismatch {
        /// First differing byte address.
        addr: u32,
    },
    /// One side halted and the other did not within the cycle budget.
    HaltMismatch {
        /// Did the implementation halt?
        implementation: bool,
        /// Did the spec halt?
        spec: bool,
    },
}

/// Statistics from a successful refinement check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RefinementReport {
    /// Hardware cycles the pipelined implementation ran.
    pub impl_cycles: u64,
    /// Instructions the implementation retired.
    pub impl_retired: u64,
    /// Cycles (= instructions) the spec core ran.
    pub spec_cycles: u64,
    /// MMIO events matched.
    pub events: usize,
}

/// Replays a recorded MMIO trace into a machine, checking each access.
#[derive(Clone, Debug)]
pub struct ReplayHandler<F> {
    queue: VecDeque<MmioEvent>,
    claims: F,
    consumed: usize,
    divergence: Option<Divergence>,
}

impl<F: Fn(u32) -> bool> ReplayHandler<F> {
    /// Creates a handler replaying `events`; `claims` tells which addresses
    /// are MMIO (it must match the device map the trace was recorded
    /// against).
    pub fn new(events: Vec<MmioEvent>, claims: F) -> ReplayHandler<F> {
        ReplayHandler {
            queue: events.into(),
            claims,
            consumed: 0,
            divergence: None,
        }
    }

    /// Number of events consumed so far.
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// The first recorded divergence, if any.
    pub fn divergence(&self) -> Option<&Divergence> {
        self.divergence.as_ref()
    }

    fn expect(&mut self, attempted: MmioEvent) -> u32 {
        if self.divergence.is_some() {
            return 0;
        }
        match self.queue.pop_front() {
            Some(rec)
                if rec.kind == attempted.kind
                    && rec.addr == attempted.addr
                    && (rec.kind == MmioEventKind::Load || rec.value == attempted.value) =>
            {
                self.consumed += 1;
                rec.value
            }
            other => {
                self.divergence = Some(Divergence::TraceMismatch {
                    index: self.consumed,
                    implementation: other,
                    spec: attempted,
                });
                0
            }
        }
    }
}

impl<F: Fn(u32) -> bool> MmioHandler for ReplayHandler<F> {
    fn is_mmio(&self, addr: u32, _size: AccessSize) -> bool {
        (self.claims)(addr)
    }

    fn load(&mut self, addr: u32, _size: AccessSize) -> u32 {
        self.expect(MmioEvent::load(addr, 0))
    }

    fn store(&mut self, addr: u32, _size: AccessSize, value: u32) {
        self.expect(MmioEvent::store(addr, value));
    }
}

/// Checks one program run: builds both cores over `image`, runs the
/// pipelined core against `devices`, replays into the spec core, and
/// compares.
///
/// # Errors
///
/// The first [`Divergence`] found. A bug planted in either core — or a
/// program outside the software contract — produces one.
pub fn check_refinement<M, F>(
    image: &[u8],
    ram_bytes: u32,
    devices: M,
    claims: F,
    config: PipelineConfig,
    max_cycles: u64,
) -> Result<RefinementReport, Divergence>
where
    M: MmioHandler,
    F: Fn(u32) -> bool,
{
    let mut imp = Pipelined::new(image, ram_bytes, devices, config);
    imp.run(max_cycles);
    let events = imp.mem.events();
    let spec = replay_trace(image, ram_bytes, &events, claims, imp.halted, max_cycles)?;

    if imp.halted != spec.halted {
        return Err(Divergence::HaltMismatch {
            implementation: imp.halted,
            spec: spec.halted,
        });
    }
    if imp.halted {
        // The replayed trace is a prefix of the recorded one: it must be
        // all of it.
        if spec.mem.trace.len() != events.len() {
            return Err(Divergence::TraceLength {
                implementation: events.len(),
                spec: spec.mem.trace.len(),
            });
        }
        let (irf, srf) = (imp.rf_snapshot(), spec.rf.snapshot());
        for r in 1..32u8 {
            if irf[r as usize] != srf[r as usize] {
                return Err(Divergence::RegisterMismatch {
                    reg: r,
                    implementation: irf[r as usize],
                    spec: srf[r as usize],
                });
            }
        }
        let (im, sm) = (imp.mem.ram.to_bytes(), spec.mem.ram.to_bytes());
        if let Some(addr) = im.iter().zip(&sm).position(|(a, b)| a != b) {
            return Err(Divergence::MemoryMismatch { addr: addr as u32 });
        }
    }

    Ok(RefinementReport {
        impl_cycles: imp.cycle,
        impl_retired: imp.retired,
        spec_cycles: spec.cycle,
        events: events.len(),
    })
}

/// Replays `events`, the trace of an implementation run, into the
/// single-cycle spec core over `image` (steps 2–3 of the module docs) and
/// returns the core for end-state comparisons. The core runs until it
/// halts, diverges, or reaches `max_cycles`; unless the implementation
/// halted, it also stops once it has consumed every event, since running
/// further would overrun the replay queue, which is not a divergence.
///
/// # Errors
///
/// The first [`Divergence`]: an access the recorded trace does not allow,
/// or the first event where the two traces' common prefix differs.
pub fn replay_trace<F: Fn(u32) -> bool>(
    image: &[u8],
    ram_bytes: u32,
    events: &[MmioEvent],
    claims: F,
    impl_halted: bool,
    max_cycles: u64,
) -> Result<SingleCycle<ReplayHandler<F>>, Divergence> {
    let replay = ReplayHandler::new(events.to_vec(), claims);
    let mut spec = SingleCycle::new(image, ram_bytes, replay);
    // Stepping is batched: since one instruction consumes at most one
    // replay event, a block bounded by the remaining event count can never
    // overrun the queue, and divergence is sticky inside [`ReplayHandler`]
    // (every post-divergence access is a no-op), so checking once per block
    // sees exactly the first divergence the per-step loop would.
    while !spec.halted && spec.cycle < max_cycles {
        let budget = (max_cycles - spec.cycle).min(1024);
        let block = if impl_halted {
            budget
        } else {
            let remaining = events.len() - spec.mem.mmio.consumed();
            if remaining == 0 {
                break;
            }
            budget.min(remaining as u64)
        };
        spec.run_block(block);
        if spec.mem.mmio.divergence().is_some() {
            break;
        }
    }
    if let Some(d) = spec.mem.mmio.divergence() {
        return Err(d.clone());
    }
    let replayed = spec.mem.events();
    if let Some(index) = replayed.iter().zip(events).position(|(s, i)| s != i) {
        return Err(Divergence::TraceMismatch {
            index,
            implementation: Some(events[index]),
            spec: replayed[index],
        });
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_spec::{Instruction as I, Reg};

    /// A counter device: reads return successive values, writes set the
    /// counter. Deliberately time-independent so both cores see the same
    /// values per access index.
    #[derive(Clone, Debug, Default)]
    struct Counter {
        value: u32,
    }
    impl MmioHandler for Counter {
        fn is_mmio(&self, addr: u32, _s: AccessSize) -> bool {
            claims(addr)
        }
        fn load(&mut self, _a: u32, _s: AccessSize) -> u32 {
            self.value += 1;
            self.value
        }
        fn store(&mut self, _a: u32, _s: AccessSize, v: u32) {
            self.value = v;
        }
    }
    fn claims(addr: u32) -> bool {
        (0x1000_0000..0x1000_0100).contains(&addr)
    }

    fn image(prog: &[I]) -> Vec<u8> {
        riscv_spec::encode::encode_to_bytes(prog)
    }

    #[test]
    fn compute_program_refines() {
        let img = image(&[
            I::Addi {
                rd: Reg::X5,
                rs1: Reg::X0,
                imm: 100,
            },
            I::Addi {
                rd: Reg::X6,
                rs1: Reg::X0,
                imm: 0,
            },
            I::Add {
                rd: Reg::X6,
                rs1: Reg::X6,
                rs2: Reg::X5,
            },
            I::Addi {
                rd: Reg::X5,
                rs1: Reg::X5,
                imm: -1,
            },
            I::Bne {
                rs1: Reg::X5,
                rs2: Reg::X0,
                offset: -8,
            },
            I::Ebreak,
        ]);
        let r = check_refinement(
            &img,
            0x1000,
            Counter::default(),
            claims,
            PipelineConfig::default(),
            1_000_000,
        )
        .expect("refinement must hold");
        assert!(
            r.impl_cycles >= r.spec_cycles,
            "pipeline can only be slower"
        );
        assert_eq!(r.events, 0);
    }

    #[test]
    fn mmio_program_refines_with_replay() {
        // x5 = 0x10000000; write 5; read twice; ebreak.
        let img = image(&[
            I::Lui {
                rd: Reg::X5,
                imm20: 0x10000,
            },
            I::Addi {
                rd: Reg::X6,
                rs1: Reg::X0,
                imm: 5,
            },
            I::Sw {
                rs1: Reg::X5,
                rs2: Reg::X6,
                offset: 0,
            },
            I::Lw {
                rd: Reg::X7,
                rs1: Reg::X5,
                offset: 0,
            },
            I::Lw {
                rd: Reg::new(8),
                rs1: Reg::X5,
                offset: 0,
            },
            I::Ebreak,
        ]);
        let r = check_refinement(
            &img,
            0x1000,
            Counter::default(),
            claims,
            PipelineConfig::default(),
            1_000_000,
        )
        .expect("refinement must hold");
        assert_eq!(r.events, 3);
    }

    #[test]
    fn replay_handler_catches_wrong_store_data() {
        let mut h = ReplayHandler::new(vec![MmioEvent::store(0x10, 1)], |_| true);
        h.store(0x10, AccessSize::Word, 2);
        assert!(matches!(
            h.divergence(),
            Some(Divergence::TraceMismatch { .. })
        ));
    }

    #[test]
    fn replay_handler_answers_loads_in_order() {
        let mut h = ReplayHandler::new(
            vec![MmioEvent::load(0x10, 7), MmioEvent::load(0x10, 9)],
            |_| true,
        );
        assert_eq!(h.load(0x10, AccessSize::Word), 7);
        assert_eq!(h.load(0x10, AccessSize::Word), 9);
        assert!(h.divergence().is_none());
        assert_eq!(h.consumed(), 2);
    }

    #[test]
    fn planted_bug_is_caught() {
        // Simulate a "buggy pipeline" by checking a program that violates
        // the software contract: self-modifying code without fence.i. The
        // spec core (no I$) sees the new instruction; the pipeline sees the
        // stale one — refinement must fail.
        let addi9 = riscv_spec::encode(&I::Addi {
            rd: Reg::X5,
            rs1: Reg::X0,
            imm: 9,
        });
        let hi = addi9.wrapping_add(0x800) >> 12;
        let lo = riscv_spec::word::sign_extend(addi9 & 0xFFF, 12) as i32;
        let store_target_insn = 4 * 4; // slot 4
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
                offset: store_target_insn,
            },
            I::NOP,
            I::Addi {
                rd: Reg::X5,
                rs1: Reg::X0,
                imm: 7,
            }, // overwritten
            I::Sw {
                rs1: Reg::X0,
                rs2: Reg::X5,
                offset: 0x100,
            },
            I::Ebreak,
        ];
        let err = check_refinement(
            &image(&prog),
            0x1000,
            Counter::default(),
            claims,
            PipelineConfig::default(),
            1_000_000,
        );
        assert!(
            err.is_err(),
            "stale-instruction divergence must be detected"
        );
    }
}

//! The pipelined core's fast run loop against the reference serialization.
//!
//! `Pipelined::run` fires the four stage rules directly and defers device
//! ticks to the next MMIO access; `kami::Scheduler` driving the rules by
//! name, with one immediate tick per cycle, is the reference. On the
//! lightbulb image, against a faulted board with traffic, the two must
//! agree cycle for cycle: cycle-stamped label trace, pipeline statistics,
//! retired count, register file, board counters, and the device time at
//! which the board saw each access. The fast loop is also
//! checked end to end with `check_refinement`, and on self-modifying code
//! whose `fence.i` refills must expose the new instructions.

use devices::{Board, FaultPlan, SpiConfig, TrafficGen};
use integration::{build_image, SystemConfig};
use kami::Scheduler;
use processor::{check_refinement, Model, PipelineConfig, Pipelined};
use riscv_spec::{encode, AccessSize, Instruction as I, MmioHandler, NoMmio, Reg};

/// A device wrapper that logs, for every access, how many ticks the device
/// had received before it: deferred ticks must reach the device before the
/// access, exactly as immediate per-cycle ticks would.
#[derive(Debug)]
struct Stamped<M> {
    inner: M,
    ticks: u64,
    log: Vec<(u64, u32)>,
}

impl<M: MmioHandler> MmioHandler for Stamped<M> {
    fn is_mmio(&self, addr: u32, size: AccessSize) -> bool {
        self.inner.is_mmio(addr, size)
    }

    fn load(&mut self, addr: u32, size: AccessSize) -> u32 {
        self.log.push((self.ticks, addr));
        self.inner.load(addr, size)
    }

    fn store(&mut self, addr: u32, size: AccessSize, value: u32) {
        self.log.push((self.ticks, addr));
        self.inner.store(addr, size, value);
    }

    fn tick(&mut self) {
        self.ticks += 1;
        self.inner.tick();
    }

    fn tick_n(&mut self, n: u64) {
        self.ticks += n;
        self.inner.tick_n(n);
    }
}

type Core = Pipelined<Stamped<Board>>;

/// A faulted board with `frames` command frames queued.
fn board(plan_seed: u64, frames: usize) -> Stamped<Board> {
    let mut board = Board::with_faults(SpiConfig::default(), &FaultPlan::from_seed(plan_seed));
    let mut gen = TrafficGen::new(plan_seed);
    for i in 0..frames {
        board.inject_frame(&gen.command(i % 2 == 0));
    }
    Stamped {
        inner: board,
        ticks: 0,
        log: Vec::new(),
    }
}

/// Asserts two logs are equal, naming the first difference.
fn assert_same_log<T: PartialEq + std::fmt::Debug>(fast: &[T], reference: &[T], what: &str) {
    if let Some(i) = (0..fast.len().min(reference.len())).find(|&i| fast[i] != reference[i]) {
        panic!(
            "{what}: entry {i} differs: fast {:?}, reference {:?}",
            fast[i], reference[i]
        );
    }
    assert_eq!(fast.len(), reference.len(), "{what}: length");
}

/// Asserts every observable of the two cores is equal.
fn assert_same(fast: &Core, reference: &Core, at: u64) {
    assert_eq!(fast.cycle, reference.cycle, "cycle count at {at}");
    assert_same_log(
        &fast.mem.trace,
        &reference.mem.trace,
        &format!("label trace at cycle {at}"),
    );
    assert_eq!(fast.stats, reference.stats, "pipeline stats at {at}");
    assert_eq!(fast.retired, reference.retired, "retired at {at}");
    assert_eq!(fast.halted, reference.halted, "halted at {at}");
    assert_eq!(fast.pc(), reference.pc(), "fetch pc at {at}");
    assert_eq!(
        fast.rf_snapshot(),
        reference.rf_snapshot(),
        "registers at {at}"
    );
    assert_eq!(
        fast.mem.mmio.inner.counters(),
        reference.mem.mmio.inner.counters(),
        "board counters at {at}"
    );
    assert_eq!(fast.mem.mmio.ticks, at, "device time at {at}");
    assert_same_log(
        &fast.mem.mmio.log,
        &reference.mem.mmio.log,
        &format!("device time of each access at cycle {at}"),
    );
}

/// Runs the lightbulb image for `total` cycles both ways, comparing at
/// every `chunk` boundary (so each of the fast loop's exits, where
/// deferred ticks are flushed, is observed).
fn lockstep(plan_seed: u64, total: u64, chunk: u64) -> Core {
    let system = SystemConfig::default();
    let image = build_image(&system).bytes();
    let new = || {
        Pipelined::new(
            &image,
            system.ram_bytes,
            board(plan_seed, 3),
            system.pipeline,
        )
    };
    let (mut fast, mut reference) = (new(), new());
    let scheduler = Scheduler::new();
    while fast.cycle < total {
        let n = chunk.min(total - fast.cycle);
        fast.run(n);
        for _ in 0..n {
            scheduler.cycle(&mut reference);
            reference.finish_cycle();
        }
        assert_same(&fast, &reference, fast.cycle);
    }
    fast
}

#[test]
fn fast_run_loop_matches_the_scheduler_on_a_faulted_board() {
    // Plan seed 4 keeps the driver busy with faults past the quick-pass
    // budget of the fault sweep: retries, re-inits and frame traffic.
    let p = lockstep(4, 520_000, 65_536 + 7);
    assert!(
        p.mem.trace.len() > 1_000,
        "the run must exercise the devices ({} labels)",
        p.mem.trace.len()
    );
    assert!(p.mem.mmio.inner.faults_injected() > 0, "the plan must fire");
    assert!(
        p.stats.stalls > 0 && p.stats.mispredicts > 0,
        "the run must stall and redirect"
    );
}

#[test]
fn fast_run_loop_refines_the_single_cycle_core() {
    let system = SystemConfig::default();
    let image = build_image(&system).bytes();
    for seed in [11, 12, 13] {
        let (frames, _) = TrafficGen::new(seed).mixed(4);
        let mut board = Board::new(SpiConfig::default());
        for f in &frames {
            board.inject_frame(f);
        }
        let report = check_refinement(
            &image,
            system.ram_bytes,
            board,
            Board::claims,
            system.pipeline,
            600_000,
        )
        .unwrap_or_else(|d| panic!("traffic seed {seed}: {d:?}"));
        assert!(report.events > 100, "traffic seed {seed}: {report:?}");
    }
}

/// A loop that rewrites its own `addi x5, x5, k` slot with `k + 1`,
/// executes `fence.i`, and runs the new instruction, five times over.
fn self_modifying_image() -> Vec<u8> {
    let patched = 13 * 4; // byte address of the rewritten slot
    let prog = [
        // x7 <- encoding of `addi x5, x5, 0`; x8 <- 1 << 20 (imm += 1).
        I::Lui {
            rd: Reg::new(7),
            imm20: 0x28,
        },
        I::Addi {
            rd: Reg::new(7),
            rs1: Reg::new(7),
            imm: 0x293,
        },
        I::Lui {
            rd: Reg::new(8),
            imm20: 0x100,
        },
        I::Addi {
            rd: Reg::new(9),
            rs1: Reg::X0,
            imm: 5,
        },
        // loop: x7 += 1 << 20; store it over the slot; fence.i
        I::Add {
            rd: Reg::new(7),
            rs1: Reg::new(7),
            rs2: Reg::new(8),
        },
        I::Sw {
            rs1: Reg::X0,
            rs2: Reg::new(7),
            offset: patched,
        },
        I::FenceI,
        I::Jal {
            rd: Reg::X0,
            offset: (patched - 7 * 4),
        },
        I::NOP,
        I::NOP,
        I::NOP,
        I::NOP,
        I::NOP,
        // slot: addi x5, x5, k (the initial image holds k = 100)
        I::Addi {
            rd: Reg::X5,
            rs1: Reg::X5,
            imm: 100,
        },
        I::Addi {
            rd: Reg::new(9),
            rs1: Reg::new(9),
            imm: -1,
        },
        I::Bne {
            rs1: Reg::new(9),
            rs2: Reg::X0,
            offset: -(15 * 4 - 4 * 4),
        },
        I::Ebreak,
    ];
    prog.iter().flat_map(|i| encode(i).to_le_bytes()).collect()
}

#[test]
fn fence_i_refills_expose_rewritten_code() {
    let img = self_modifying_image();
    let slot = I::Addi {
        rd: Reg::X5,
        rs1: Reg::X5,
        imm: 0,
    };
    assert_eq!(encode(&slot), (0x28 << 12) + 0x293);
    let mut p = Pipelined::new(&img, 0x1000, NoMmio, PipelineConfig::default());
    p.run(100_000);
    assert!(p.halted);
    // The slot runs with k = 1, 2, 3, 4, 5 in turn.
    assert_eq!(p.reg(5), 15);
    assert_eq!(p.stats.fencei_refills, 5);
    check_refinement(
        &img,
        0x1000,
        NoMmio,
        |_| false,
        PipelineConfig::default(),
        100_000,
    )
    .expect("fence.i-disciplined code refines the single-cycle core");
}

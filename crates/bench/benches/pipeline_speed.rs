//! Simulator throughput: wall-clock cost per simulated cycle for the
//! pipelined core, the single-cycle core, and the ISA spec machine, all
//! running the real lightbulb image against the board.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lightbulb_system::devices::{Board, SpiConfig};
use lightbulb_system::integration::{build_image, SystemConfig};
use lightbulb_system::processor::{PipelineConfig, Pipelined, SingleCycle};
use lightbulb_system::riscv::{Memory, SpecMachine};

const CYCLES: u64 = 50_000;

fn bench_simulators(c: &mut Criterion) {
    let image = build_image(&SystemConfig::default());
    let bytes = image.bytes();
    let words = image.words();

    let mut g = c.benchmark_group("simulate_50k_cycles");
    g.sample_size(20);

    g.bench_function("pipelined", |b| {
        b.iter_batched(
            || {
                Pipelined::new(
                    &bytes,
                    0x1_0000,
                    Board::new(SpiConfig::default()),
                    PipelineConfig::default(),
                )
            },
            |mut cpu| {
                cpu.run(CYCLES);
                cpu.cycle
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("single_cycle", |b| {
        b.iter_batched(
            || SingleCycle::new(&bytes, 0x1_0000, Board::new(SpiConfig::default())),
            |mut cpu| {
                cpu.run(CYCLES);
                cpu.cycle
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("spec_machine", |b| {
        b.iter_batched(
            || {
                let mut m = SpecMachine::new(
                    Memory::with_size(0x1_0000),
                    Board::new(SpiConfig::default()),
                );
                m.load_program(0, &words);
                m
            },
            |mut m| {
                let _ = m.run_block(CYCLES);
                m.instret
            },
            BatchSize::SmallInput,
        )
    });

    g.finish();
}

criterion_group!(benches, bench_simulators);
criterion_main!(benches);

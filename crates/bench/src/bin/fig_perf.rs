//! The §7.2.1 performance decomposition: the paper reports the verified
//! system 10× slower than the unverified gcc+FE310 prototype, factored as
//!
//! ```text
//! 10× ≈ (1.4× SPI pipelining · 1.2× timeouts) · 2.1× compiler · 2.7× core
//! ```
//!
//! This binary regenerates the decomposition in *simulated cycles* of
//! packet-handover → GPIO-actuation latency, walking the same
//! configuration grid: each factor toggles exactly one design choice,
//! ending at the "unverified prototype analogue" (pipelined SPI driver, no
//! timeouts, optimizing compiler, idealized 1-IPC core). Absolute numbers
//! differ from the paper's testbed; the claim being reproduced is the
//! *shape*: every factor ≥ 1 and a several-fold product.
//!
//! It also runs Figure 4's BTB ablation ([`bench::btb_ablation`]) and
//! panics unless the branch target buffer pays for itself. Without
//! `--json` it prints the EXPERIMENTS.md blocks rendered from the record
//! it would emit.

use bench::{btb_ablation, cli, emit_json, experiments, packet_to_actuation_latency, JSON};
use lightbulb_system::compiler::{compile, MmioExtCompiler};
use lightbulb_system::devices::SpiConfig;
use lightbulb_system::integration::{build_image, ProcessorKind, SystemConfig};
use lightbulb_system::lightbulb::{lightbulb_program, DriverOptions};
use obs::json::Value;

/// The SPI wire speeds of the SPI-boundedness sweep.
const SPI_CYCLES_PER_BYTE: [u32; 4] = [2, 8, 32, 128];

fn main() {
    let json = cli(env!("CARGO_BIN_NAME"), &[JSON]).has("--json");
    let verified = SystemConfig::default();
    let spi_pipelined = SystemConfig {
        driver: DriverOptions {
            timeouts: true,
            pipelined_spi: true,
        },
        ..verified
    };
    let no_timeouts = SystemConfig {
        driver: DriverOptions {
            timeouts: false,
            pipelined_spi: true,
        },
        ..verified
    };
    let optimized = SystemConfig {
        optimize: true,
        ..no_timeouts
    };
    let fast_core = SystemConfig {
        processor: ProcessorKind::SingleCycle,
        ..optimized
    };

    let configs = [
        ("A: verified system (paper's shipping config)", verified),
        ("B: + SPI pipelining", spi_pipelined),
        ("C: + no timeout counters", no_timeouts),
        ("D: + optimizing compiler", optimized),
        ("E: + idealized 1-IPC core (FE310 stand-in)", fast_core),
    ];

    eprintln!("measuring packet→actuation latency (5 configurations)…");
    let lat: Vec<u64> = configs
        .iter()
        .map(|(name, c)| {
            let l = packet_to_actuation_latency(c, &build_image(c), 1234).cycles();
            eprintln!("  {name}: {l} cycles");
            l
        })
        .collect();

    // Design-choice ablation: what does the register allocator buy? The
    // paper implemented it as one of its few optimizations (§7.2); the
    // spill-everything mode removes it.
    eprintln!("\nmeasuring the register-allocation ablation…");
    let mut spill_all = verified.compile_options();
    spill_all.spill_everything = true;
    let spill_image = compile(
        &lightbulb_program(verified.driver),
        &MmioExtCompiler,
        &spill_all,
    )
    .expect("spill-all image compiles");
    let spill_latency = packet_to_actuation_latency(&verified, &spill_image, 1234).cycles();

    // Second observation of §7.2.1: "the vast majority of the running time
    // is spent transferring incoming packet data … over SPI". Sweep the
    // SPI wire speed: if the system is SPI-bound, latency tracks it.
    eprintln!("\nsweeping SPI wire speed (cycles per byte)…");
    let spi_sweep: Vec<(u32, u64)> = SPI_CYCLES_PER_BYTE
        .iter()
        .map(|&cycles_per_byte| {
            let cfg = SystemConfig {
                spi: SpiConfig { cycles_per_byte },
                ..verified
            };
            let l = packet_to_actuation_latency(&cfg, &build_image(&cfg), 99).cycles();
            (cycles_per_byte, l)
        })
        .collect();

    // Figure 4: the BTB the paper added to the Kami pipeline must pay for
    // itself on a branch-heavy workload.
    eprintln!("\nrunning the BTB ablation…");
    let btb = btb_ablation();
    assert!(
        btb.with_btb.cycles < btb.without_btb.cycles,
        "the BTB must pay for itself on loops: {btb:?}"
    );

    let paper = [1.4, 1.2, 2.1, 2.7];
    let names = [
        "SPI pipelining",
        "timeout logic",
        "compiler optimizations",
        "processor",
    ];
    let product: f64 = (0..4).map(|i| lat[i] as f64 / lat[i + 1] as f64).product();

    let factors = Value::Arr(
        (0..4)
            .map(|i| {
                Value::obj()
                    .field("factor", Value::Str(names[i].to_string()))
                    .field("paper", Value::Float(paper[i]))
                    .field("measured", Value::Float(lat[i] as f64 / lat[i + 1] as f64))
                    .field("cycles_before", Value::UInt(lat[i]))
                    .field("cycles_after", Value::UInt(lat[i + 1]))
            })
            .collect(),
    );
    let grid = Value::Arr(
        configs
            .iter()
            .zip(&lat)
            .map(|((name, _), l)| {
                Value::obj()
                    .field("config", Value::Str(name.to_string()))
                    .field("latency_cycles", Value::UInt(*l))
            })
            .collect(),
    );
    let ablation = Value::obj()
        .field("regalloc_cycles", Value::UInt(lat[0]))
        .field("spill_all_cycles", Value::UInt(spill_latency))
        .field("ratio", Value::Float(spill_latency as f64 / lat[0] as f64));
    let sweep = Value::Arr(
        spi_sweep
            .iter()
            .map(|&(cycles_per_byte, l)| {
                Value::obj()
                    .field(
                        "spi_cycles_per_byte",
                        Value::UInt(u64::from(cycles_per_byte)),
                    )
                    .field("latency_cycles", Value::UInt(l))
            })
            .collect(),
    );
    let data = Value::obj()
        .field("configs", grid)
        .field("factors", factors)
        .field("total_measured", Value::Float(product))
        .field("total_paper", Value::Float(10.0))
        .field("regalloc_ablation", ablation)
        .field("spi_sweep", sweep)
        .field(
            "btb_ablation",
            Value::obj()
                .field("with_btb_cycles", Value::UInt(btb.with_btb.cycles))
                .field("without_btb_cycles", Value::UInt(btb.without_btb.cycles))
                .field("with_btb_ipc", Value::Float(btb.with_btb.ipc()))
                .field("without_btb_ipc", Value::Float(btb.without_btb.ipc()))
                .field("speedup", Value::Float(btb.speedup())),
        );
    if json {
        emit_json("fig_perf", data);
        return;
    }
    experiments::print_blocks("fig_perf", data);
    println!("shape check: every factor should be ≥ ~1 and the product several-fold.");
    println!("(absolute values are simulated cycles; the paper measured 5.5 ms vs");
    println!("0.55 ms on a 12 MHz FPGA and a 320 MHz-class FE310.) At high SPI cost the");
    println!("latency grows with the wire speed: the packet transfer dominates.");
}

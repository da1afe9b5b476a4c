//! End-to-end latency (§7.2.1): wall-clock cost of measuring one
//! packet→actuation latency on the two extreme configurations of the
//! evaluation grid. The *simulated-cycle* decomposition itself (the
//! figure) is produced by the `fig_perf` binary; this bench tracks the
//! harness's own speed so regressions in the simulators show up.

use criterion::{criterion_group, criterion_main, Criterion};
use lightbulb_system::integration::{build_image, ProcessorKind, SystemConfig};
use lightbulb_system::lightbulb::DriverOptions;

fn bench_latency(c: &mut Criterion) {
    let verified = SystemConfig::default();
    let prototype = SystemConfig {
        driver: DriverOptions {
            timeouts: false,
            pipelined_spi: true,
        },
        optimize: true,
        processor: ProcessorKind::SingleCycle,
        ..SystemConfig::default()
    };

    let mut g = c.benchmark_group("packet_to_actuation");
    g.sample_size(10);
    g.bench_function("verified_config", |b| {
        b.iter(|| {
            bench::packet_to_actuation_latency(&verified, &build_image(&verified), 42).cycles()
        })
    });
    g.bench_function("prototype_analogue", |b| {
        b.iter(|| {
            bench::packet_to_actuation_latency(&prototype, &build_image(&prototype), 42).cycles()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_latency);
criterion_main!(benches);

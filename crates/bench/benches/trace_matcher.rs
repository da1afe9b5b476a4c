//! Trace-matcher performance: checking a real system trace against
//! `goodHlTrace` with a streaming `Monitor`, the §7.2.2 analogue for the
//! specification layer. Three cases, each on its own:
//!
//! * `build_and_pass` — a fresh monitor (every state built on first
//!   visit) over the whole trace: what one check pays;
//! * `warm_pass` — the same trace again through a monitor whose states
//!   are already built: the per-event stepping cost alone;
//! * `locate_violation` — a fresh monitor over the trace with a rogue
//!   GPIO store appended, down to the violating index.

use criterion::{criterion_group, criterion_main, Criterion};
use lightbulb_system::devices::TrafficGen;
use lightbulb_system::integration::SystemConfig;
use lightbulb_system::lightbulb::good_hl_trace;
use lightbulb_system::lightbulb::layout::GPIO_OUTPUT_VAL;
use lightbulb_system::proglogic::trace::Monitor;
use lightbulb_system::riscv::MmioEvent;
use std::hint::black_box;

fn bench_matcher(c: &mut Criterion) {
    let config = SystemConfig::default();
    let mut gen = TrafficGen::new(5);
    let frames = vec![gen.command(true), gen.command(false)];
    let run = config.run(&frames, 400_000);
    assert!(run.error.is_none());
    let spec = good_hl_trace(config.driver);
    let events = &run.events;
    let n = events.len();

    let mut warm = Monitor::new(&spec);
    assert_eq!(warm.first_violation(events), None);
    let mut bad = events.clone();
    bad.push(MmioEvent::store(GPIO_OUTPUT_VAL, 0));
    assert_eq!(Monitor::new(&spec).first_violation(&bad), Some(n));

    let mut g = c.benchmark_group("trace_matching");
    g.sample_size(20);
    g.bench_function(format!("build_and_pass_{n}_events"), |b| {
        b.iter(|| Monitor::new(&spec).first_violation(black_box(events)))
    });
    g.bench_function(format!("warm_pass_{n}_events"), |b| {
        b.iter(|| warm.first_violation(black_box(events)))
    });
    g.bench_function(format!("locate_violation_{n}_events"), |b| {
        b.iter(|| Monitor::new(&spec).first_violation(black_box(&bad)))
    });
    g.finish();
}

criterion_group!(benches, bench_matcher);
criterion_main!(benches);

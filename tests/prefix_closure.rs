//! The prefix closure of the end-to-end theorem (§5.9): "this theorem
//! holds at any point during the execution, without reference to any
//! notion of the software having 'completed' a loop iteration." One long
//! run is recorded and the specification must accept *every* prefix —
//! checked at many random cut points, including mid-SPI-transaction ones.

use lightbulb_system::devices::TrafficGen;
use lightbulb_system::integration::SystemConfig;
use lightbulb_system::lightbulb::good_hl_trace;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

#[test]
fn every_prefix_of_a_long_run_matches() {
    let config = SystemConfig::default();
    let mut gen = TrafficGen::new(97);
    let frames = vec![gen.command(true), gen.command(false)];
    let run = config.run(&frames, 500_000);
    assert!(run.error.is_none());
    let spec = good_hl_trace(config.driver);
    assert!(spec.matches_prefix(&run.events));

    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..60 {
        let cut = rng.random_range(0..=run.events.len());
        assert!(
            spec.matches_prefix(&run.events[..cut]),
            "prefix of length {cut} (of {}) must match",
            run.events.len()
        );
    }
}

#[test]
fn prefix_acceptance_is_monotone_on_system_traces() {
    // Check the theoretical property prefix checking rests on: if a prefix
    // matches, every shorter one does (a monitor that dies stays dead).
    // Violations would indicate a combinator bug.
    let config = SystemConfig::default();
    let mut gen = TrafficGen::new(101);
    let run = config.run(&[gen.command(true)], 300_000);
    let spec = good_hl_trace(config.driver);
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..20 {
        let long = rng.random_range(0..=run.events.len());
        let short = rng.random_range(0..=long);
        if spec.matches_prefix(&run.events[..long]) {
            assert!(
                spec.matches_prefix(&run.events[..short]),
                "{short} ≤ {long}"
            );
        }
    }
}

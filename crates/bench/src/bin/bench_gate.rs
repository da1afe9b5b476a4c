//! The CI perf-regression gate: compares a fresh `spec_throughput` record
//! with the committed `BENCH_spec_throughput.json` and exits 1 when any of
//! its machine-independent ratios falls more than 25 % below the committed
//! one (`bench::experiments::gate`), or when either record cannot be read.
//!
//! ```sh
//! cargo run --release -p bench --bin spec_throughput -- --json > /tmp/fresh.json
//! cargo run --release -p bench --bin bench_gate -- /tmp/fresh.json
//! ```
//!
//! A failure that the new numbers are meant to cause is accepted by
//! committing the fresh record as the new baseline.

use bench::experiments::{gate, Record};
use bench::{cli, workspace_root, Flag, Takes};
use std::path::Path;

const FRESH: Flag = Flag {
    name: "FRESH",
    takes: Takes::Operand,
    help: "the fresh record (spec_throughput --json)",
};

fn main() {
    let args = cli(env!("CARGO_BIN_NAME"), &[FRESH]);
    let fresh = Path::new(args.text(FRESH.name).expect("operands are required"));
    let base = workspace_root().join("BENCH_spec_throughput.json");
    let verdicts = Record::read(fresh)
        .and_then(|fresh| gate(&fresh, &Record::read(&base)?))
        .unwrap_or_else(|e| {
            eprintln!("bench_gate: {e}");
            std::process::exit(1);
        });
    for v in &verdicts {
        println!("bench_gate: {v}");
    }
    if verdicts.iter().all(|v| v.passed()) {
        println!("bench_gate: no perf regressions");
    } else {
        eprintln!(
            "bench_gate: if the new numbers are intended, commit the fresh record as {}",
            base.display()
        );
        std::process::exit(1);
    }
}

//! Rewrites EXPERIMENTS.md's generated blocks from the committed
//! `BENCH_*.json` records (`bench::experiments`). Every block is rendered
//! before anything is written, so a damaged record or a missing marker
//! leaves the document as it was and exits 1.
//!
//! ```sh
//! cargo run --release -p bench --bin experiments
//! ```

use bench::{cli, experiments, workspace_root};

fn main() {
    cli(env!("CARGO_BIN_NAME"), &[]);
    match experiments::regenerate(&workspace_root()) {
        Ok(true) => println!("{}: blocks regenerated", experiments::DOC),
        Ok(false) => println!("{}: blocks already match their records", experiments::DOC),
        Err(e) => {
            eprintln!("experiments: {e}");
            std::process::exit(1);
        }
    }
}

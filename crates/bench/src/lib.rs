//! Benchmark and evaluation harness: regenerates every table and figure of
//! the paper's evaluation section (§7). See EXPERIMENTS.md for the
//! experiment index and recorded results.
//!
//! Binaries (one per evaluation artifact):
//!
//! * `table1` — the verified-stack criteria matrix, with this project's
//!   column derived from what the workspace actually implements;
//! * `table2` — the parameterization-across-layers summary, checked
//!   against the real generic parameters in the crates;
//! * `table3` — trusted-code-base line counts;
//! * `table4` — implementation/checking line counts and overhead ratios
//!   per layer;
//! * `fig_perf` — the §7.2.1 latency decomposition
//!   (10× ≈ 1.4× · 1.2× · 2.1× · 2.7× in the paper), measured in
//!   simulated cycles over the same configuration grid;
//! * `verif_perf` — §7.2.2: wall-clock costs of the checking machinery.
//!
//! Criterion benches (`cargo bench`) measure the wall-clock performance of
//! the simulators and checkers themselves.

use lightbulb_system::compiler::CompiledProgram;
use lightbulb_system::devices::{FaultPlan, TrafficGen};
use lightbulb_system::integration::SystemConfig;
use lightbulb_system::lightbulb::layout::GPIO_OUTPUT_VAL;
use obs::json::Value;
use riscv_spec::MmioEventKind;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Workspace root (this crate lives at `crates/bench`).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench is two levels below the root")
        .to_path_buf()
}

/// Line counts for one file: code vs `#[cfg(test)]` checking code.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Loc {
    /// Non-blank lines outside test modules.
    pub code: u32,
    /// Non-blank lines inside `#[cfg(test)]` modules (and test files).
    pub tests: u32,
}

impl std::ops::AddAssign for Loc {
    fn add_assign(&mut self, rhs: Loc) {
        self.code += rhs.code;
        self.tests += rhs.tests;
    }
}

/// Counts lines in one Rust file, splitting at the `#[cfg(test)]` marker
/// (our convention puts the test module last in each file).
pub fn count_file(path: &Path) -> Loc {
    let Ok(text) = fs::read_to_string(path) else {
        return Loc::default();
    };
    let mut loc = Loc::default();
    let mut in_tests = false;
    for line in text.lines() {
        if line.trim_start().starts_with("#[cfg(test)]") {
            in_tests = true;
        }
        if line.trim().is_empty() {
            continue;
        }
        if in_tests {
            loc.tests += 1;
        } else {
            loc.code += 1;
        }
    }
    loc
}

/// Recursively counts a directory of Rust sources. Files under a `tests/`
/// directory count entirely as checking code.
pub fn count_dir(path: &Path) -> Loc {
    let mut total = Loc::default();
    let Ok(entries) = fs::read_dir(path) else {
        return total;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            total += count_dir(&p);
        } else if p.extension().is_some_and(|e| e == "rs") {
            let mut loc = count_file(&p);
            if p.ancestors()
                .any(|a| a.file_name().is_some_and(|n| n == "tests"))
            {
                loc = Loc {
                    code: 0,
                    tests: loc.code + loc.tests,
                };
            }
            total += loc;
        }
    }
    total
}

/// Renders a simple aligned text table.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let line = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    let _ = writeln!(out, "{}", line(&hdr, &widths));
    let _ = writeln!(
        out,
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1))
    );
    for row in rows {
        let _ = writeln!(out, "{}", line(row, &widths));
    }
    out
}

/// True when the binary was invoked with `--json`: emit a machine-readable
/// record (via [`emit_json`]) instead of the human table.
pub fn json_mode() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// The machine-readable twin of [`render_table`]: each row becomes an
/// object keyed by the column headers.
pub fn table_json(headers: &[&str], rows: &[Vec<String>]) -> Value {
    Value::Arr(
        rows.iter()
            .map(|row| {
                let mut obj = Value::obj();
                for (h, cell) in headers.iter().zip(row) {
                    obj = obj.field(h, Value::Str(cell.clone()));
                }
                obj
            })
            .collect(),
    )
}

/// A [`obs::Counters`] registry as a JSON object, name → value, in the
/// registry's (lexicographic) order.
pub fn counters_json(c: &obs::Counters) -> Value {
    Value::Obj(
        c.iter()
            .map(|(name, value)| (name.to_string(), Value::UInt(value)))
            .collect(),
    )
}

/// Wraps `data` in the `BENCH_*.json` record envelope (schema tag, bench
/// name) without printing or writing anything.
pub fn json_record(bin: &str, data: Value) -> Value {
    Value::obj()
        .field("schema", Value::Str("bench-report/v1".into()))
        .field("bench", Value::Str(bin.into()))
        .field("data", data)
}

/// Emits one bench record: prints it to stdout as a single JSON document.
/// The rendered text is parsed back with [`obs::json::parse`] first — a
/// bench must never publish an invalid record. Re-record a committed
/// baseline by redirecting stdout:
/// `cargo run --release -p bench --bin X -- --json > BENCH_X.json`.
///
/// # Panics
///
/// Panics if the rendered document fails to re-parse (an `obs::json` bug,
/// not an input error).
pub fn emit_json(bin: &str, data: Value) {
    let text = json_record(bin, data).render();
    obs::json::parse(&text).unwrap_or_else(|e| panic!("{bin}: emitted invalid JSON: {e}"));
    println!("{text}");
}

/// One latency measurement: packet handover → GPIO actuation.
#[derive(Clone, Copy, Debug)]
pub struct LatencyReport {
    /// Cycle at which the frame was injected (steady-state polling).
    pub injected_at: u64,
    /// Cycle of the actuating GPIO write.
    pub actuated_at: u64,
}

impl LatencyReport {
    /// The latency in simulated cycles.
    pub fn cycles(&self) -> u64 {
        self.actuated_at - self.injected_at
    }
}

/// Warm-up budget: boot plus a few idle polls, all configurations.
const WARMUP_CYCLES: u64 = 400_000;
/// Post-injection budget.
const ACTUATION_BUDGET: u64 = 10_000_000;

/// Measures packet→actuation latency in simulated cycles for one system
/// configuration running `image` (the measurement behind `fig_perf`): a
/// fixed warm-up boots the system into its polling loop, one "on" command
/// is handed to the network chip, and the model then runs a cycle at a
/// time until the GPIO write.
///
/// # Panics
///
/// Panics if the system fails to boot or actuate within generous budgets —
/// that would be a workspace bug, not a measurement.
pub fn packet_to_actuation_latency(
    config: &SystemConfig,
    image: &CompiledProgram,
    seed: u64,
) -> LatencyReport {
    let mut run = config.start(image, &FaultPlan::none(), &[], None);
    let model = run.model();
    model.run_to(WARMUP_CYCLES);
    let mut seen = model.events_since(0).len();
    assert!(seen > 0, "boot must produce I/O");
    let injected_at = model.cycles();
    model
        .device_mut()
        .inject_frame(&TrafficGen::new(seed).command(true));
    while model.cycles() < injected_at + ACTUATION_BUDGET && !model.halted() {
        // Events are stamped with the cycle that performs them: the one
        // this step starts at.
        let cycle = model.cycles();
        model.run_to(cycle + 1);
        let new = model.events_since(seen);
        seen += new.len();
        if new
            .iter()
            .any(|e| e.kind == MmioEventKind::Store && e.addr == GPIO_OUTPUT_VAL)
        {
            return LatencyReport {
                injected_at,
                actuated_at: cycle,
            };
        }
    }
    panic!("system must actuate within budget");
}

/// The rows of Table 3, the spec-role code one must read and trust:
/// component, file, and the paper's corresponding row. Each file counts
/// its non-blank lines before `#[cfg(test)]` ([`count_file`]).
pub const TABLE3_ROWS: &[(&str, &str, &str)] = &[
    (
        "Lightbulb app + driver trace spec",
        "crates/lightbulb/src/spec.rs",
        "lightbulb app (27) + LAN9250 (77) + SPI (30) + outputs (10) = 144",
    ),
    (
        "Trace predicate notations",
        "crates/proglogic/src/trace.rs",
        "trace predicate notations (25)",
    ),
    (
        "Platform memory map",
        "crates/lightbulb/src/layout.rs",
        "(folded into driver specs in the paper)",
    ),
    (
        "ISA semantics (execute)",
        "crates/riscv/src/execute.rs",
        "(riscv-coq, excluded from the paper's count)",
    ),
    (
        "Hardware substrate (kami fifo)",
        "crates/kami/src/fifo.rs",
        "semantics of Kami HDL (~400), spread across",
    ),
    (
        "Hardware substrate (kami mem)",
        "crates/kami/src/mem.rs",
        "the kami crate's primitive modules",
    ),
    (
        "Hardware substrate (kami module)",
        "crates/kami/src/module.rs",
        "",
    ),
];

/// The layers of Table 4: name, source directories, and the paper's
/// figures for the same layer.
pub const TABLE4_LAYERS: &[(&str, &[&str], &str)] = &[
    (
        "lightbulb app+drivers",
        &["crates/lightbulb/src"],
        "paper: m=176 n=130 p=33 q=1443 → 10.1×",
    ),
    (
        "program logic",
        &["crates/proglogic/src"],
        "paper: m=10044 n=208 p=552 q=1785 (impl incl. framework)",
    ),
    (
        "compiler",
        &["crates/compiler/src"],
        "paper: m=1907+931 n=1114 p=1325 q=6654 → 10.8×",
    ),
    (
        "SW/HW interface (ISA+cores)",
        &[
            "crates/riscv/src",
            "crates/kami/src",
            "crates/processor/src",
        ],
        "paper: m=354 n=2053 p=991 q=3804",
    ),
    (
        "end-to-end (integration)",
        &["crates/core/src"],
        "paper: m=48294(excluded libs) n=254 p=74 q=539",
    ),
    (
        "devices & workloads",
        &["crates/devices/src"],
        "paper: physical hardware (not code)",
    ),
];

/// Table 4's counts over the tree at `root`: one [`Loc`] per
/// [`TABLE4_LAYERS`] entry, then the workspace-level `tests/` directory
/// (all of it checking code).
pub fn table4_counts(root: &Path) -> (Vec<Loc>, Loc) {
    let layers = TABLE4_LAYERS
        .iter()
        .map(|(_, dirs, _)| {
            let mut loc = Loc::default();
            for d in *dirs {
                loc += count_dir(&root.join(d));
            }
            loc
        })
        .collect();
    (layers, count_dir(&root.join("tests")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_counting_splits_tests() {
        let root = workspace_root();
        let loc = count_file(&root.join("crates/riscv/src/word.rs"));
        assert!(loc.code > 50, "{loc:?}");
        assert!(loc.tests > 30, "{loc:?}");
    }

    #[test]
    fn workspace_root_is_found() {
        assert!(workspace_root().join("Cargo.toml").exists());
        assert!(workspace_root().join("DESIGN.md").exists());
    }

    #[test]
    fn json_records_round_trip() {
        let data = table_json(&["name", "value"], &[vec!["stalls".into(), "17".into()]]);
        let text = json_record("demo", data).render();
        let doc = obs::json::parse(&text).unwrap();
        assert_eq!(doc.get("bench").unwrap().as_str(), Some("demo"));
        let rows = doc.get("data").unwrap().as_arr().unwrap();
        assert_eq!(rows[0].get("value").unwrap().as_str(), Some("17"));
    }

    #[test]
    fn latency_is_measured_on_every_model() {
        use lightbulb_system::integration::{build_image, ProcessorKind};
        for processor in [
            ProcessorKind::SpecMachine,
            ProcessorKind::SingleCycle,
            ProcessorKind::Pipelined,
        ] {
            let config = SystemConfig {
                processor,
                ..SystemConfig::default()
            };
            let l = packet_to_actuation_latency(&config, &build_image(&config), 1234);
            assert_eq!(l.injected_at, WARMUP_CYCLES, "{processor:?}");
            assert!(l.cycles() > 1000, "{processor:?}: {l:?}");
        }
    }

    #[test]
    fn tables_render() {
        let t = render_table(
            "demo",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(t.contains("== demo =="));
        assert!(t.contains("333"));
    }
}

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
//!   simulated cycles over the same configuration grid, plus Figure 4's
//!   BTB ablation;
//! * `verif_perf` — §7.2.2: wall-clock costs of the checking machinery;
//! * `spec_throughput` — spec-machine, hardware-model and trace-monitor
//!   throughput, gated against its record by `bench_gate`;
//! * `fault_sweep` — the seeded fault-plan sweep, with shrinking triage of
//!   any failing plan;
//! * `spec_listing` — prints `goodHlTrace` as the combinator structure
//!   `lightbulb::spec` builds (§3.1's one-page spec);
//! * `experiments` — rewrites EXPERIMENTS.md's generated blocks from the
//!   records ([`experiments`]);
//! * `bench_gate FRESH` — fails when a fresh `spec_throughput` record's
//!   ratios fall more than 25 % below the committed record's.

use lightbulb_system::compiler::CompiledProgram;
use lightbulb_system::devices::{FaultPlan, TrafficGen};
use lightbulb_system::integration::SystemConfig;
use lightbulb_system::lightbulb::layout::GPIO_OUTPUT_VAL;
use obs::json::Value;
use riscv_spec::MmioEventKind;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

pub mod experiments;

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

/// What a command-line flag takes after it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Takes {
    /// Nothing: the flag is a switch.
    Nothing,
    /// A non-negative integer.
    Number,
    /// A path.
    Path,
    /// Nothing: the "flag" is a required operand, a path given on its own
    /// and named by the flag's `name` (say `FRESH`) in the usage text.
    Operand,
}

/// One flag a bin accepts.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    /// The flag as typed, `--name`.
    pub name: &'static str,
    /// What follows it.
    pub takes: Takes,
    /// One line for the usage text.
    pub help: &'static str,
}

/// `--json`: print a machine-readable record (via [`emit_json`]) instead
/// of the human table. Every bin that writes a `BENCH_*.json` takes it.
pub const JSON: Flag = Flag {
    name: "--json",
    takes: Takes::Nothing,
    help: "print a bench-report/v1 record on stdout instead of the table",
};

/// A parsed command line: the flags given, with their values.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Args(std::collections::BTreeMap<&'static str, String>);

impl Args {
    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    /// The value given with `name`.
    pub fn text(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }

    /// The value given with a [`Takes::Number`] flag `name`.
    pub fn number(&self, name: &str) -> Option<u64> {
        self.text(name)
            .map(|v| v.parse().expect("numbers are checked when parsed"))
    }
}

/// Why a command line was not run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgsError {
    /// `--help` was given.
    Help,
    /// An unknown flag, a missing value or a value that is not a number.
    Bad(String),
}

/// Parses `args` (without the program name) against the bin's `flags`.
/// A flag given twice keeps its last value. Each [`Takes::Operand`] is
/// the next argument that is not a flag, and is required.
///
/// # Errors
///
/// [`ArgsError::Help`] on `--help`, [`ArgsError::Bad`] on anything
/// `flags` does not describe or a missing operand.
pub fn parse_args(flags: &[Flag], args: &[String]) -> Result<Args, ArgsError> {
    let mut parsed = Args::default();
    let unfilled = |parsed: &Args| {
        let mut operands = flags.iter().filter(|f| f.takes == Takes::Operand);
        operands.find(|f| !parsed.has(f.name))
    };
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if arg == "--help" {
            return Err(ArgsError::Help);
        }
        let flag = flags
            .iter()
            .find(|f| f.name == arg && f.takes != Takes::Operand)
            .or_else(|| unfilled(&parsed).filter(|_| !arg.starts_with('-')))
            .ok_or_else(|| ArgsError::Bad(format!("unknown argument `{arg}`")))?;
        let value = match flag.takes {
            Takes::Nothing => String::new(),
            Takes::Operand => arg.clone(),
            Takes::Number | Takes::Path => rest
                .next()
                .ok_or_else(|| ArgsError::Bad(format!("`{arg}` needs a value")))?
                .clone(),
        };
        if flag.takes == Takes::Number && value.parse::<u64>().is_err() {
            return Err(ArgsError::Bad(format!(
                "`{arg}` needs a number, not `{value}`"
            )));
        }
        parsed.0.insert(flag.name, value);
    }
    match unfilled(&parsed) {
        Some(missing) => Err(ArgsError::Bad(format!("missing {}", missing.name))),
        None => Ok(parsed),
    }
}

/// The usage text of bin `bin` with `flags`.
pub fn usage(bin: &str, flags: &[Flag]) -> String {
    let shown = |f: &Flag| match f.takes {
        Takes::Nothing | Takes::Operand => f.name.to_string(),
        Takes::Number => format!("{} N", f.name),
        Takes::Path => format!("{} PATH", f.name),
    };
    let width = flags
        .iter()
        .map(|f| shown(f).len())
        .fold("--help".len(), usize::max);
    let operands: String = flags
        .iter()
        .filter(|f| f.takes == Takes::Operand)
        .map(|f| format!(" {}", f.name))
        .collect();
    let mut out = format!("usage: {bin} [options]{operands}\n\noptions:\n");
    for f in flags {
        let _ = writeln!(out, "  {:<width$}  {}", shown(f), f.help);
    }
    let _ = writeln!(out, "  {:<width$}  print this text", "--help");
    out
}

/// This process's command line, parsed against `flags`. `--help` prints
/// the usage text and exits 0; a command line that does not parse prints
/// the problem and the usage text to stderr and exits 2, before the bin
/// does any work.
pub fn cli(bin: &str, flags: &[Flag]) -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(flags, &args) {
        Ok(parsed) => parsed,
        Err(ArgsError::Help) => {
            print!("{}", usage(bin, flags));
            std::process::exit(0);
        }
        Err(ArgsError::Bad(problem)) => {
            eprint!("{bin}: {problem}\n\n{}", usage(bin, flags));
            std::process::exit(2);
        }
    }
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
/// name, host metadata) without printing or writing anything. Readers
/// take only `data`, so a record with or without `host` reads the same.
pub fn json_record(bin: &str, data: Value) -> Value {
    Value::obj()
        .field("schema", Value::Str("bench-report/v1".into()))
        .field("bench", Value::Str(bin.into()))
        .field("host", host())
        .field("data", data)
}

/// Where a record was made: the hardware threads available, the build
/// profile, the checked-out git revision, and whether the tree had
/// uncommitted changes (`git status --porcelain` printed anything). What
/// cannot be found out (the git fields outside a git checkout or without
/// git) reads `"unknown"`.
fn host() -> Value {
    let cpus = std::thread::available_parallelism().map_or_else(
        |_| Value::Str("unknown".into()),
        |n| Value::UInt(n.get() as u64),
    );
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let unknown = || Value::Str("unknown".into());
    let git_rev =
        git(&["rev-parse", "HEAD"]).map_or_else(unknown, |rev| Value::Str(rev.trim().into()));
    let dirty =
        git(&["status", "--porcelain"]).map_or_else(unknown, |out| Value::Bool(!out.is_empty()));
    Value::obj()
        .field("cpus", cpus)
        .field("profile", Value::Str(profile.into()))
        .field("git_rev", git_rev)
        .field("dirty", dirty)
}

/// The stdout of `git` run with `args` in the workspace root, or `None`
/// when git is absent or fails.
fn git(args: &[&str]) -> Option<String> {
    std::process::Command::new("git")
        .arg("-C")
        .arg(workspace_root())
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
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

/// One run of the BTB-ablation workload to its halt on the pipelined core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HaltRun {
    /// Simulated cycles to the halt.
    pub cycles: u64,
    /// Instructions retired by then.
    pub retired: u64,
}

impl HaltRun {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.retired as f64 / self.cycles as f64
    }
}

/// Figure 4's BTB ablation: the same branch-heavy workload with and
/// without the branch target buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BtbAblation {
    /// The default pipeline configuration (BTB on).
    pub with_btb: HaltRun,
    /// The same pipeline with prediction disabled (always pc+4).
    pub without_btb: HaltRun,
}

impl BtbAblation {
    /// How many times faster the workload finishes with the BTB.
    pub fn speedup(&self) -> f64 {
        self.without_btb.cycles as f64 / self.with_btb.cycles as f64
    }
}

/// Runs Figure 4's BTB ablation (the measurement behind `fig_perf`'s
/// `btb_ablation` record): nested counted loops, 100 × 20 iterations,
/// compiled once and run to their halt on the pipelined core with the
/// default BTB and with prediction disabled. Deterministic: simulated
/// cycles, no wall clock.
///
/// # Panics
///
/// Panics if the workload fails to compile or to halt within 10 M cycles
/// — a workspace bug, not a measurement.
pub fn btb_ablation() -> BtbAblation {
    use bedrock2::dsl::*;
    use bedrock2::{Function, Program};
    use lightbulb_system::compiler::{compile, CompileOptions, NoExtCompiler};
    use lightbulb_system::processor::{PipelineConfig, Pipelined};
    use lightbulb_system::riscv::NoMmio;

    let main = Function::new(
        "main",
        &[],
        &["acc"],
        block([
            set("acc", lit(0)),
            set("i", lit(0)),
            while_(
                ltu(var("i"), lit(100)),
                block([
                    set("j", lit(0)),
                    while_(
                        ltu(var("j"), lit(20)),
                        block([
                            set("acc", add(var("acc"), var("j"))),
                            set("j", add(var("j"), lit(1))),
                        ]),
                    ),
                    set("i", add(var("i"), lit(1))),
                ]),
            ),
        ]),
    );
    let image = compile(
        &Program::from_functions([main]),
        &NoExtCompiler,
        &CompileOptions::default(),
    )
    .expect("the BTB workload compiles")
    .bytes();
    let run_to_halt = |config: PipelineConfig| {
        let mut cpu = Pipelined::new(&image, 0x1_0000, NoMmio, config);
        cpu.run(10_000_000);
        assert!(cpu.halted, "the BTB workload must finish");
        HaltRun {
            cycles: cpu.cycle,
            retired: cpu.retired,
        }
    };
    BtbAblation {
        with_btb: run_to_halt(PipelineConfig::default()),
        without_btb: run_to_halt(PipelineConfig {
            btb_bits: None,
            ..PipelineConfig::default()
        }),
    }
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
        let text = json_record("demo", data.clone()).render();
        let doc = obs::json::parse(&text).unwrap();
        assert_eq!(doc.get("bench").unwrap().as_str(), Some("demo"));
        assert_eq!(doc.get("data").unwrap().render(), data.render());
        let rows = doc.get("data").unwrap().as_arr().unwrap();
        assert_eq!(rows[0].get("value").unwrap().as_str(), Some("17"));

        let host = doc.get("host").expect("the envelope carries host metadata");
        assert!(matches!(host.get("cpus"), Some(Value::UInt(n)) if *n >= 1));
        let profile = host.get("profile").unwrap().as_str().unwrap();
        assert_eq!(profile == "debug", cfg!(debug_assertions), "{profile}");
        let rev = host.get("git_rev").unwrap().as_str().unwrap();
        assert!(
            rev == "unknown" || (rev.len() == 40 && rev.chars().all(|c| c.is_ascii_hexdigit())),
            "git_rev {rev:?}"
        );
        // A revision was read, so git ran and the tree's state is known.
        match host.get("dirty") {
            Some(Value::Bool(_)) => {}
            Some(Value::Str(s)) if s == "unknown" && rev == "unknown" => {}
            other => panic!("dirty {other:?} with git_rev {rev:?}"),
        }
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
    fn command_lines_parse_or_are_refused() {
        const FLAGS: &[Flag] = &[
            JSON,
            Flag {
                name: "--seeds",
                takes: Takes::Number,
                help: "seeds",
            },
            Flag {
                name: "--dir",
                takes: Takes::Path,
                help: "a directory",
            },
        ];
        let parse = |line: &str| {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            parse_args(FLAGS, &args)
        };
        let args = parse("--seeds 96 --json --dir out --seeds 7").expect("parses");
        assert!(args.has("--json"));
        assert_eq!(args.number("--seeds"), Some(7), "the last value wins");
        assert_eq!(args.text("--dir"), Some("out"));
        let none = parse("").expect("parses");
        assert_eq!((none.has("--json"), none.number("--seeds")), (false, None));

        assert_eq!(parse("--json --help"), Err(ArgsError::Help));
        for bad in [
            "--seed 96",
            "--seeds",
            "--seeds x",
            "--seeds -1",
            "--dir",
            "96",
            "--json=1",
            "-h",
        ] {
            assert!(
                matches!(parse(bad), Err(ArgsError::Bad(_))),
                "{bad}: {:?}",
                parse(bad)
            );
        }
        let text = usage("demo", FLAGS);
        assert!(text.starts_with("usage: demo [options]\n"), "{text}");
        assert!(
            text.contains("--seeds N") && text.contains("--dir PATH"),
            "{text}"
        );

        const GATE: &[Flag] = &[Flag {
            name: "FRESH",
            takes: Takes::Operand,
            help: "a record",
        }];
        let parse = |line: &str| {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            parse_args(GATE, &args)
        };
        assert_eq!(parse("new.json").unwrap().text("FRESH"), Some("new.json"));
        for bad in ["", "a.json b.json", "--fresh a.json", "-x"] {
            assert!(matches!(parse(bad), Err(ArgsError::Bad(_))), "{bad}");
        }
        assert!(usage("gate", GATE).starts_with("usage: gate [options] FRESH\n"));
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

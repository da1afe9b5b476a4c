//! The one reader of the committed `BENCH_*.json` records: EXPERIMENTS.md's
//! generated blocks and the perf gate both read them through [`Record`].
//!
//! Every record-derived figure in EXPERIMENTS.md sits between a
//! `<!-- begin NAME -->` and an `<!-- end NAME -->` marker and is rendered
//! by one function of [`BLOCKS`] from the record it names, so the document
//! never quotes a hand-copied number. The `experiments` bin rewrites the
//! blocks ([`regenerate`]); the tier-1 test
//! `generated_blocks_match_their_records` fails when a block and its render
//! differ. [`gate`] is the `bench_gate` bin's comparison of a fresh
//! `spec_throughput` record with the committed one.
//!
//! A damaged record (truncated, the wrong schema, a missing field, a field
//! of the wrong type) is an error that names the file and the field, never
//! a panic and never a rendered block.

use obs::json::{parse, Value};
use std::fmt;
use std::fs;
use std::path::Path;

/// The schema tag of every `BENCH_*.json` record.
pub const SCHEMA: &str = "bench-report/v1";

/// The document whose blocks [`regenerate`] rewrites.
pub const DOC: &str = "EXPERIMENTS.md";

/// The command that regenerates [`DOC`]'s blocks from the records.
pub const REGENERATE: &str = "cargo run --release -p bench --bin experiments";

/// A `bench-report/v1` record: a JSON object whose `schema` is [`SCHEMA`]
/// and which has a `data` field.
#[derive(Debug)]
pub struct Record {
    file: String,
    doc: Value,
}

impl Record {
    /// Reads and checks the record at `path`, which names it in errors.
    pub fn read(path: &Path) -> Result<Record, String> {
        let file = path.display().to_string();
        let text = fs::read_to_string(path).map_err(|e| format!("{file}: {e}"))?;
        Record::parse(&file, &text)
    }

    /// Checks `text` as the record `file`.
    pub fn parse(file: &str, text: &str) -> Result<Record, String> {
        let doc = parse(text).map_err(|e| format!("{file}: {e}"))?;
        let record = Record {
            file: file.to_string(),
            doc,
        };
        let schema = record.get("schema")?;
        match schema.value.as_str() {
            Some(SCHEMA) => {}
            Some(other) => return Err(schema.error(&format!("is {other:?}, not {SCHEMA:?}"))),
            None => return Err(schema.not_a("a string")),
        }
        record.get("data")?;
        Ok(record)
    }

    /// A top-level field of the record (`host`, `data`, …).
    pub fn get(&self, key: &str) -> Result<Field<'_>, String> {
        let top = Field {
            file: &self.file,
            path: String::new(),
            value: &self.doc,
        };
        top.get(key)
    }

    /// The record's `data` section.
    pub fn data(&self) -> Field<'_> {
        self.get("data").expect("checked when parsed")
    }
}

/// A value inside a [`Record`], with the file and the path that name it in
/// errors.
#[derive(Debug)]
pub struct Field<'a> {
    file: &'a str,
    path: String,
    value: &'a Value,
}

impl<'a> Field<'a> {
    /// The JSON value itself.
    pub fn value(&self) -> &'a Value {
        self.value
    }

    fn error(&self, problem: &str) -> String {
        match self.path.as_str() {
            "" => format!("{}: the document {problem}", self.file),
            path => format!("{}: field `{path}` {problem}", self.file),
        }
    }

    fn not_a(&self, wanted: &str) -> String {
        let found = match self.value {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::UInt(_) | Value::Int(_) | Value::Float(_) => "a number",
            Value::Str(_) => "a string",
            Value::Arr(_) => "an array",
            Value::Obj(_) => "an object",
        };
        self.error(&format!("is {found}, not {wanted}"))
    }

    /// The field `key` of this object.
    pub fn get(&self, key: &str) -> Result<Field<'a>, String> {
        let Value::Obj(_) = self.value else {
            return Err(self.not_a("an object"));
        };
        let path = match self.path.as_str() {
            "" => key.to_string(),
            parent => format!("{parent}.{key}"),
        };
        match self.value.get(key) {
            Some(value) => Ok(Field {
                path,
                value,
                ..*self
            }),
            None => Err(format!("{}: field `{path}` is missing", self.file)),
        }
    }

    /// The elements of the array `key`.
    pub fn list(&self, key: &str) -> Result<Vec<Field<'a>>, String> {
        let field = self.get(key)?;
        let Value::Arr(items) = field.value else {
            return Err(field.not_a("an array"));
        };
        let at = |(i, value)| Field {
            path: format!("{}[{i}]", field.path),
            value,
            ..*self
        };
        Ok(items.iter().enumerate().map(at).collect())
    }

    /// The number `key`.
    pub fn num(&self, key: &str) -> Result<f64, String> {
        let field = self.get(key)?;
        field.value.as_f64().ok_or_else(|| field.not_a("a number"))
    }

    /// The non-negative integer `key`.
    pub fn int(&self, key: &str) -> Result<u64, String> {
        let field = self.get(key)?;
        match field.value {
            Value::UInt(n) => Ok(*n),
            _ => Err(field.not_a("a non-negative integer")),
        }
    }

    /// The string `key`.
    pub fn text(&self, key: &str) -> Result<&'a str, String> {
        let field = self.get(key)?;
        field.value.as_str().ok_or_else(|| field.not_a("a string"))
    }

    /// `read` applied to each of `keys`.
    fn all<T, const N: usize>(
        &self,
        keys: [&str; N],
        read: fn(&Self, &str) -> Result<T, String>,
    ) -> Result<[T; N], String> {
        let values: Vec<T> = keys
            .iter()
            .map(|k| read(self, k))
            .collect::<Result<_, _>>()?;
        Ok(values
            .try_into()
            .unwrap_or_else(|_| unreachable!("one value per key")))
    }

    /// The non-negative integers `keys`.
    pub fn ints<const N: usize>(&self, keys: [&str; N]) -> Result<[u64; N], String> {
        self.all(keys, Self::int)
    }

    /// The numbers `keys`.
    pub fn nums<const N: usize>(&self, keys: [&str; N]) -> Result<[f64; N], String> {
        self.all(keys, Self::num)
    }

    /// The strings `keys`.
    pub fn texts<const N: usize>(&self, keys: [&str; N]) -> Result<[&'a str; N], String> {
        self.all(keys, Self::text)
    }
}

/// Renders one block's lines from its record's `data`.
type Render = fn(&Field) -> Result<Vec<String>, String>;

/// Every generated block of [`DOC`], in document order: the marker name
/// (the block sits between `<!-- begin NAME -->` and `<!-- end NAME -->`),
/// the bin whose `BENCH_<bin>.json` it is rendered from, and its renderer.
pub const BLOCKS: &[(&str, &str, Render)] = &[
    ("table3", "table3", table3),
    ("table4", "table4", table4),
    ("fig_perf", "fig_perf", fig_perf),
    ("fig_perf_regalloc", "fig_perf", fig_perf_regalloc),
    ("fig_perf_spi", "fig_perf", fig_perf_spi),
    ("verif_perf", "verif_perf", verif_perf),
    ("driver_proofs", "verif_perf", driver_proofs),
    ("spec_throughput", "spec_throughput", spec_throughput),
    ("fault_sweep", "fault_sweep", fault_sweep),
    ("fig4_btb", "fig_perf", fig4_btb),
    ("telemetry", "table1", telemetry),
];

/// Renders every block of [`BLOCKS`] from the records under `root`: each
/// block's name and the exact text between its markers.
pub fn render(root: &Path) -> Result<Vec<(&'static str, String)>, String> {
    let block = |&(name, bin, render): &(&'static str, &str, Render)| {
        let record = Record::read(&root.join(format!("BENCH_{bin}.json")))?;
        Ok((name, format!("\n{}\n", render(&record.data())?.join("\n"))))
    };
    BLOCKS.iter().map(block).collect()
}

/// Prints the blocks [`BLOCKS`] renders from `BENCH_<bin>.json`, rendered
/// from `data`, the record the bin would emit, without their comment line:
/// a bin's table output is what EXPERIMENTS.md quotes from its record.
///
/// # Panics
///
/// `data` lacks a field a block needs: a bug in the bin that built it.
pub fn print_blocks(bin: &str, data: Value) {
    let record = Record {
        file: format!("{bin}'s record"),
        doc: Value::obj().field("data", data),
    };
    for (_, _, render) in BLOCKS.iter().filter(|block| block.1 == bin) {
        let lines = render(&record.data()).unwrap_or_else(|e| panic!("{e}"));
        let body = lines
            .iter()
            .skip_while(|l| l.is_empty() || l.starts_with("<!--"));
        body.for_each(|line| println!("{line}"));
        println!();
    }
}

/// The byte range between `name`'s markers in `doc`.
fn span(doc: &str, name: &str) -> Result<std::ops::Range<usize>, String> {
    let (begin, end) = (
        format!("<!-- begin {name} -->"),
        format!("<!-- end {name} -->"),
    );
    let missing = |marker| format!("{DOC}: no `{marker}` marker");
    let start = doc.find(&begin).ok_or_else(|| missing(&begin))? + begin.len();
    let stop = doc[start..].find(&end).ok_or_else(|| missing(&end))?;
    Ok(start..start + stop)
}

/// The text between `name`'s markers in `doc`.
pub fn block<'d>(doc: &'d str, name: &str) -> Result<&'d str, String> {
    Ok(&doc[span(doc, name)?])
}

/// Renders every block from the records under `root` and, only when all
/// of them render and every marker is found, rewrites `root/`[`DOC`].
/// Returns whether the document changed; on an error it is left as it was.
pub fn regenerate(root: &Path) -> Result<bool, String> {
    let path = root.join(DOC);
    let doc = fs::read_to_string(&path).map_err(|e| format!("{DOC}: {e}"))?;
    let mut new = doc.clone();
    for (name, text) in render(root)? {
        new.replace_range(span(&new, name)?, &text);
    }
    if new != doc {
        fs::write(&path, &new).map_err(|e| format!("{DOC}: {e}"))?;
    }
    Ok(new != doc)
}

/// A markdown table generated from `BENCH_<bin>.json`: the comment naming
/// the record, a blank line, the column and alignment rows, then `rows`.
fn table(bin: &str, columns: &str, rule: &str, rows: Vec<String>) -> Vec<String> {
    let head = format!("<!-- generated from BENCH_{bin}.json by `{REGENERATE}` -->");
    [head, String::new(), columns.into(), rule.into()]
        .into_iter()
        .chain(rows)
        .collect()
}

/// `100 · part / whole`.
fn percent(part: u64, whole: u64) -> f64 {
    100.0 * part as f64 / whole as f64
}

fn table3(d: &Field) -> Result<Vec<String>, String> {
    let mut rows = Vec::new();
    for r in d.list("rows")? {
        let [component, file, loc, paper] =
            r.texts(["component", "file", "LoC", "paper's corresponding row"])?;
        let file = if file.is_empty() {
            String::new()
        } else {
            format!("`{file}`")
        };
        rows.push(format!("| {component} | {file} | {loc} | {paper} |"));
    }
    let columns = "| component | file | LoC | paper's corresponding row |";
    Ok(table("table3", columns, "|---|---|---:|---|", rows))
}

fn table4(d: &Field) -> Result<Vec<String>, String> {
    let mut rows = Vec::new();
    for r in d.list("rows")? {
        let [layer, code, tests, overhead] =
            r.texts(["layer", "implementation", "checking (tests)", "overhead"])?;
        rows.push(format!("| {layer} | {code} | {tests} | {overhead} |"));
    }
    let columns = "| layer | implementation | checking (tests) | overhead |";
    Ok(table("table4", columns, "|---|---:|---:|---:|", rows))
}

fn fig_perf(d: &Field) -> Result<Vec<String>, String> {
    let mut rows = Vec::new();
    for f in d.list("factors")? {
        let label = match f.text("factor")? {
            "SPI pipelining" => "SPI pipelining (interleaved → pipelined driver)",
            "timeout logic" => "timeout logic (on → off)",
            "compiler optimizations" => {
                "compiler optimizations (naive verified-style → optimizing)"
            }
            "processor" => "processor (4-stage pipelined → idealized 1-IPC core)",
            _ => return Err(f.get("factor")?.error("names no factor of Figure 4")),
        };
        let [paper, measured] = f.nums(["paper", "measured"])?;
        let [before, after] = f.ints(["cycles_before", "cycles_after"])?;
        rows.push(format!(
            "| {label} | {paper:.1}× | {measured:.2}× | {before} → {after} |"
        ));
    }
    let configs = d.list("configs")?;
    let (Some(first), Some(last)) = (configs.first(), configs.last()) else {
        return Err(d.get("configs")?.error("is empty"));
    };
    let (first, last) = (first.int("latency_cycles")?, last.int("latency_cycles")?);
    let [paper, measured] = d.nums(["total_paper", "total_measured"])?;
    rows.push(format!(
        "| **product** | ≈{paper:.0}× | **{measured:.2}×** | {first} → {last} |"
    ));
    let columns = "| factor | paper | measured (recorded run) | cycles |";
    Ok(table("fig_perf", columns, "|---|---|---|---|", rows))
}

fn fig_perf_regalloc(d: &Field) -> Result<Vec<String>, String> {
    let a = d.get("regalloc_ablation")?;
    let [spilled, allocated] = a.ints(["spill_all_cycles", "regalloc_cycles"])?;
    let ratio = a.num("ratio")?;
    Ok(vec![format!(
        "compiling the same sources with every variable spilled costs {spilled} cycles vs \
         {allocated} with the allocator — the allocator buys {ratio:.2}×."
    )])
}

fn fig_perf_spi(d: &Field) -> Result<Vec<String>, String> {
    let mut rows = Vec::new();
    for r in d.list("spi_sweep")? {
        let [speed, latency] = r.ints(["spi_cycles_per_byte", "latency_cycles"])?;
        rows.push(format!("| {speed} | {latency} |"));
    }
    let columns = "| SPI cycles/byte | latency (cycles) |";
    Ok(table("fig_perf", columns, "|---|---|", rows))
}

fn verif_perf(d: &Field) -> Result<Vec<String>, String> {
    let mut rows = Vec::new();
    for c in d.list("checks")? {
        let [check, work] = c.texts(["check", "work"])?;
        rows.push(format!("| {check} | {:.3} s | {work} |", c.num("seconds")?));
    }
    let columns = "| check | wall clock | work |";
    Ok(table("verif_perf", columns, "|---|---:|---|", rows))
}

fn driver_proofs(d: &Field) -> Result<Vec<String>, String> {
    let total = d.get("driver_proofs")?;
    let mut named = Vec::new();
    for p in total.list("proofs")? {
        named.push((p.text("function")?, p));
    }
    named.push(("total", total));
    let mut rows = Vec::new();
    for (name, r) in named {
        let [obligations, paths, queries, contexts, solver] = r.ints([
            "obligations",
            "paths",
            "solver_queries",
            "solver_contexts",
            "solver_micros",
        ])?;
        let (ms, solver_ms) = (1e3 * r.num("seconds")?, solver as f64 / 1e3);
        let share = 100.0 * solver_ms / ms;
        rows.push(format!(
            "| {name} | {obligations} | {paths} | {queries} | {contexts} | {solver_ms:.2} ms ({share:.0} %) | {ms:.2} ms |"
        ));
    }
    let columns =
        "| proof | obligations | paths | solver queries | solver contexts | solver | wall clock |";
    let rule = "|---|---:|---:|---:|---:|---:|---:|";
    Ok(table("verif_perf", columns, rule, rows))
}

fn spec_throughput(d: &Field) -> Result<Vec<String>, String> {
    let cores = d.list("cores")?;
    let Some(spec) = cores.first() else {
        return Err(d.get("cores")?.error("is empty"));
    };
    let spec = spec.num("steps_per_sec")?;
    let mut rows = Vec::new();
    for c in &cores {
        let (config, rate) = (c.text("config")?, c.num("steps_per_sec")?);
        let (msteps, ratio) = (rate / 1e6, rate / spec);
        rows.push(format!("| {config} | {msteps:.1} Msteps/s | {ratio:.3}× |"));
    }
    let [hits, misses] = d.get("icache")?.ints(["hits", "misses"])?;
    let speedup = d.num("cached_vs_seed_speedup")?;
    let hit_rate = percent(hits, hits + misses);
    let m = d.get("matcher")?;
    let [seeds, events] = m.ints(["seeds", "events"])?;
    let [events_per_sec, vs_spec] = m.nums(["events_per_sec", "vs_cached_spec"])?;
    rows.extend([
        String::new(),
        format!(
            "Decode cache vs seed path: **{speedup:.2}×**; decode-cache hit rate {hit_rate:.2}% \
             ({hits} hits, {misses} misses)."
        ),
        String::new(),
        format!(
            "Trace monitor, cold per seed, on the quick-pass traces of fault-sweep plan seeds \
             0–{} (both models, {events} events): **{:.2} Mevents/s**, {vs_spec:.4}× the cached \
             spec machine's steps/s.",
            seeds.saturating_sub(1),
            events_per_sec / 1e6
        ),
    ]);
    let columns = "| core | throughput | vs cached spec machine |";
    let rule = "|------|-----------:|-----------------------:|";
    Ok(table("spec_throughput", columns, rule, rows))
}

fn fault_sweep(d: &Field) -> Result<Vec<String>, String> {
    let [seeds, conclusive, failures] = d.ints(["seeds", "conclusive", "failures"])?;
    let [quick, max] = d.ints(["quick_cycles", "max_cycles"])?;
    let [faults, retries, reinits] =
        d.ints(["faults_injected", "driver_retries", "driver_reinits"])?;
    let [seconds, rate] = d.nums(["seconds", "seeds_per_sec"])?;
    let rows = vec![
        format!("| seeds swept / conclusive / failures | {seeds} / {conclusive} / {failures} |"),
        format!(
            "| wall clock | {seconds:.1} s ({rate:.1} seeds/s; adaptive {quick}-cycle quick \
             pass, continued to {max} cycles) |"
        ),
        format!("| faults injected (device side) | {faults} |"),
        format!("| driver retries observed in traces | {retries} |"),
        format!("| driver re-initializations | {reinits} |"),
    ];
    Ok(table(
        "fault_sweep",
        "| metric | value |",
        "|---|---|",
        rows,
    ))
}

fn fig4_btb(d: &Field) -> Result<Vec<String>, String> {
    let b = d.get("btb_ablation")?;
    let [with, without] = b.ints(["with_btb_cycles", "without_btb_cycles"])?;
    let [speedup, ipc, ipc_without] = b.nums(["speedup", "with_btb_ipc", "without_btb_ipc"])?;
    Ok(vec![format!(
        "the nested-loop workload finishes in {with} cycles with the BTB vs {without} without: \
         a {speedup:.2}× speedup (IPC {ipc:.2} → {ipc_without:.2})."
    )])
}

fn telemetry(d: &Field) -> Result<Vec<String>, String> {
    let c = d.get("counters")?;
    let [cycles, retired] = c.ints(["pipeline.cycles", "pipeline.retired"])?;
    let [stalls, raw, waw] = c.ints([
        "pipeline.stall.total",
        "pipeline.stall.raw",
        "pipeline.stall.waw",
    ])?;
    let [flushes, mispredicts] = c.ints(["pipeline.flush.total", "pipeline.flush.mispredict"])?;
    let [hits, misses] = c.ints(["pipeline.btb.hit", "pipeline.btb.miss"])?;
    let [busy, ticks] = c.ints(["board.spi.busy_ticks", "board.ticks"])?;
    Ok(vec![format!(
        "IPC {:.2}, stall rate {:.1}% ({raw} RAW and {waw} WAW stall cycles), flush rate {:.2}% \
         ({flushes} flushes, {mispredicts} of them BTB mispredicts), BTB hit rate {:.1}%, SPI \
         wire busy {:.2}% of board ticks.",
        retired as f64 / cycles as f64,
        percent(stalls, cycles),
        percent(flushes, cycles),
        percent(hits, hits + misses),
        percent(busy, ticks)
    )])
}

/// How far below the committed record's value a fresh ratio may fall
/// before [`gate`] fails it: 25 %.
pub const GATE_TOLERANCE: f64 = 0.25;

/// One ratio [`gate`] compared.
#[derive(Debug)]
pub struct Verdict {
    /// What the ratio measures.
    pub ratio: &'static str,
    /// Its value in the fresh record.
    pub fresh: f64,
    /// Its value in the committed record.
    pub base: f64,
}

impl Verdict {
    /// Whether the fresh ratio is at most [`GATE_TOLERANCE`] below the
    /// committed one.
    pub fn passed(&self) -> bool {
        self.fresh >= self.base * (1.0 - GATE_TOLERANCE)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Verdict { ratio, fresh, base } = self;
        let verdict = if self.passed() { "ok" } else { "FAIL" };
        let floor = base * (1.0 - GATE_TOLERANCE);
        write!(
            f,
            "{verdict} {ratio}: {fresh:.4}× (baseline {base:.4}×, floor {floor:.4}×)"
        )
    }
}

/// The machine-independent ratios of a `spec_throughput` record that
/// [`gate`] compares: the decode-cache speedup (cached over uncached spec
/// machine); the single-cycle, pipelined and replay rates over the cached
/// spec machine's; and the trace monitor's `vs_cached_spec`. A slower host
/// moves each numerator and denominator together.
fn gate_ratios(d: &Field) -> Result<[(&'static str, f64); 5], String> {
    let cores = d.list("cores")?;
    let rate = |row: &str, pick: &dyn Fn(&str) -> bool| {
        for c in &cores {
            if pick(c.text("config")?) {
                return c.num("steps_per_sec");
            }
        }
        Err(d.get("cores")?.error(&format!("has no {row} row")))
    };
    let spec = rate("cached spec", &|c| {
        c.contains("cached") && !c.contains("uncached")
    })?;
    let uncached = rate("uncached spec", &|c| c.contains("uncached"))?;
    let model = |name: &'static str| rate(name, &|c| c == name).map(|r| (name, r / spec));
    Ok([
        ("decode-cache speedup", spec / uncached),
        model("single-cycle hardware model")?,
        model("pipelined hardware model")?,
        model("single-cycle replay")?,
        ("trace monitor", d.get("matcher")?.num("vs_cached_spec")?),
    ])
}

/// Compares the ratios of a `fresh` `spec_throughput` record with the
/// committed `base` record's, one [`Verdict`] each. Absolute rates are not
/// compared: they measure the host, not the code.
pub fn gate(fresh: &Record, base: &Record) -> Result<Vec<Verdict>, String> {
    let (fresh, base) = (gate_ratios(&fresh.data())?, gate_ratios(&base.data())?);
    let verdict = |(&(ratio, fresh), (_, base))| Verdict { ratio, fresh, base };
    Ok(fresh.iter().zip(base).map(verdict).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace_root;

    fn committed(file: &str) -> String {
        fs::read_to_string(workspace_root().join(file)).unwrap()
    }

    /// `text` with its one `from` replaced by `to`.
    fn edited(text: &str, from: &str, to: &str) -> String {
        assert_eq!(text.matches(from).count(), 1, "{from}");
        text.replacen(from, to, 1)
    }

    /// The field `key` of object `v`.
    fn field<'v>(v: &'v mut Value, key: &str) -> &'v mut Value {
        let Value::Obj(fields) = v else {
            panic!("{key} of a non-object")
        };
        &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1
    }

    #[test]
    fn the_gate_fails_each_ratio_lowered_30_percent_and_passes_20() {
        let text = committed("BENCH_spec_throughput.json");
        let base = Record::parse("base.json", &text).unwrap();
        assert!(gate(&base, &base).unwrap().iter().all(Verdict::passed));
        // The row of `cores` whose rate lowers each ratio when scaled
        // down, or none for the matcher's own ratio. The uncached rate
        // divides, so it is scaled up instead.
        let ratios = [
            ("decode-cache speedup", Some(1)),
            ("single-cycle hardware model", Some(2)),
            ("pipelined hardware model", Some(3)),
            ("single-cycle replay", Some(4)),
            ("trace monitor", None),
        ];
        for (ratio, core) in ratios {
            for (lowered, fails) in [(0.3_f64, true), (0.2, false)] {
                let mut doc = parse(&text).unwrap();
                let data = field(&mut doc, "data");
                let value = match (core, field(data, "cores")) {
                    (Some(i), Value::Arr(cores)) => field(&mut cores[i], "steps_per_sec"),
                    _ => field(field(data, "matcher"), "vs_cached_spec"),
                };
                let scale = (1.0 - lowered).powi(if core == Some(1) { -1 } else { 1 });
                *value = Value::Float(value.as_f64().unwrap() * scale);
                let fresh = Record::parse("fresh.json", &doc.render()).unwrap();
                let verdicts = gate(&fresh, &base).unwrap();
                let failed: Vec<_> = verdicts.iter().filter(|v| !v.passed()).collect();
                match failed[..] {
                    [only] if fails => {
                        assert!(only.to_string().starts_with(&format!("FAIL {ratio}: ")))
                    }
                    [] if !fails => {}
                    _ => panic!("{ratio} lowered {lowered}: {failed:?}"),
                }
            }
        }
    }

    /// Five damaged inputs. Each makes [`regenerate`] fail with an error
    /// naming the file and the field and leave the document byte-identical,
    /// and each damaged record fails the gate with the same error.
    #[test]
    fn damaged_inputs_are_refused_by_file_and_field() {
        let dir = std::env::temp_dir().join(format!("bench-experiments-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        for (_, bin, _) in BLOCKS {
            let file = format!("BENCH_{bin}.json");
            fs::write(dir.join(&file), committed(&file)).unwrap();
        }
        let path = dir.join("BENCH_spec_throughput.json");
        let (record, base) = (
            committed("BENCH_spec_throughput.json"),
            Record::read(&path).unwrap(),
        );
        let doc = committed(DOC);
        // A stale first block, so a partial rewrite would show.
        let stale = edited(&doc, block(&doc, "table3").unwrap(), "\nstale\n");
        let refused = |text: &str, doc: &str| {
            fs::write(&path, text).unwrap();
            fs::write(dir.join(DOC), doc).unwrap();
            let error = regenerate(&dir).unwrap_err();
            assert_eq!(fs::read_to_string(dir.join(DOC)).unwrap(), doc, "{error}");
            error
        };
        let (vs_spec, field) = ("\"vs_cached_spec\":", "field `data.matcher.vs_cached_spec`");
        let wrong_type = edited(&record, vs_spec, &format!("{vs_spec}\"0\",\"x\":"));
        let (truncated, schema) = (&record[..record.len() / 2], edited(&record, SCHEMA, "v0"));
        let damaged = [
            (
                truncated.to_string(),
                "JSON parse error at byte".to_string(),
            ),
            (schema, "field `schema` is \"v0\"".to_string()),
            (
                edited(&record, vs_spec, "\"vs\":"),
                format!("{field} is missing"),
            ),
            (wrong_type, format!("{field} is a string, not a number")),
        ];
        for (text, expected) in damaged {
            let error = refused(&text, &stale);
            assert!(
                error.starts_with(&format!("{}: ", path.display())),
                "{error}"
            );
            assert!(error.contains(&expected), "{error}");
            let gated = Record::read(&path).and_then(|fresh| gate(&fresh, &base));
            assert_eq!(gated.unwrap_err(), error);
        }
        let marker = "<!-- begin spec_throughput -->";
        let error = refused(&record, &edited(&stale, marker, ""));
        assert_eq!(error, format!("{DOC}: no `{marker}` marker"));

        fs::write(dir.join(DOC), &stale).unwrap();
        assert_eq!(regenerate(&dir), Ok(true), "the undamaged copy regenerates");
        assert_eq!(fs::read_to_string(dir.join(DOC)).unwrap(), doc);
        fs::remove_dir_all(&dir).unwrap();
        let missing = Record::read(&dir.join("fresh.json")).unwrap_err();
        assert!(missing.contains("fresh.json: "), "{missing}");
    }
}

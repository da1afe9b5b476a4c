//! EXPERIMENTS.md quotes figures from the committed `BENCH_*.json`
//! records; `scripts/experiments_tables.py` generates those tables. This
//! test fails when a quoted figure disagrees with its record at the
//! precision the document prints, so a re-recorded benchmark cannot leave
//! stale numbers behind.

use bench::workspace_root;
use obs::json::{parse, Value};
use std::fs;

/// The text between `<!-- begin NAME -->` and `<!-- end NAME -->`.
fn block(doc: &str, name: &str) -> String {
    let begin = format!("<!-- begin {name} -->");
    let end = format!("<!-- end {name} -->");
    let start = doc
        .find(&begin)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no {begin}"));
    let stop = doc[start..]
        .find(&end)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no {end}"));
    doc[start + begin.len()..start + stop].to_string()
}

/// Asserts `quoted` (a decimal number as printed) equals `value` rounded
/// to the same number of decimals.
fn assert_quotes(quoted: &str, value: f64, what: &str) {
    let decimals = quoted.split_once('.').map_or(0, |(_, frac)| frac.len());
    assert_eq!(
        quoted,
        format!("{value:.decimals$}"),
        "{what}: EXPERIMENTS.md quotes {quoted}, the record holds {value} \
         (regenerate with `python3 scripts/experiments_tables.py`)"
    );
}

fn num(v: &Value, key: &str) -> f64 {
    match v.get(key) {
        Some(Value::Float(x)) => *x,
        Some(Value::UInt(x)) => *x as f64,
        Some(Value::Int(x)) => *x as f64,
        other => panic!("record field {key}: {other:?}"),
    }
}

/// The leading number of `cell`, e.g. "82.0" of "82.0 Msteps/s".
fn leading_number(cell: &str) -> &str {
    let cell = cell.trim().trim_start_matches("**");
    let end = cell
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(cell.len());
    &cell[..end]
}

/// Every decimal number in `cell`, in order.
fn numbers(cell: &str) -> Vec<&str> {
    cell.split(|c: char| !(c.is_ascii_digit() || c == '.'))
        .map(|t| t.trim_matches('.'))
        .filter(|t| !t.is_empty())
        .collect()
}

/// EXPERIMENTS.md and the `data` section of `BENCH_<bin>.json`.
fn doc_and_record(bin: &str) -> (String, Value) {
    let root = workspace_root();
    let doc = fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let path = format!("BENCH_{bin}.json");
    let record = parse(&fs::read_to_string(root.join(&path)).expect(&path)).expect("JSON record");
    let data = record.get("data").expect("data").clone();
    (doc, data)
}

#[test]
fn fault_sweep_table_matches_its_record() {
    let (doc, data) = doc_and_record("fault_sweep");
    let table = block(&doc, "fault_sweep");
    let rows: [(&str, &[&str]); 5] = [
        (
            "seeds swept / conclusive / failures",
            &["seeds", "conclusive", "failures"],
        ),
        (
            "wall clock",
            &["seconds", "seeds_per_sec", "quick_cycles", "max_cycles"],
        ),
        ("faults injected (device side)", &["faults_injected"]),
        ("driver retries observed in traces", &["driver_retries"]),
        ("driver re-initializations", &["driver_reinits"]),
    ];
    for (label, fields) in rows {
        let line = table
            .lines()
            .find(|l| l.starts_with(&format!("| {label} |")))
            .unwrap_or_else(|| panic!("no '{label}' row"));
        let value = line
            .trim_matches('|')
            .split('|')
            .nth(1)
            .expect("value cell");
        let quoted = numbers(value);
        assert_eq!(quoted.len(), fields.len(), "{label}: {value:?}");
        for (q, field) in quoted.iter().zip(fields) {
            assert_quotes(q, num(&data, field), field);
        }
    }
}

#[test]
fn spec_throughput_table_matches_its_record() {
    let (doc, record) = doc_and_record("spec_throughput");
    let data = &record;
    let Some(Value::Arr(cores)) = data.get("cores") else {
        panic!("record has no cores");
    };
    let config = |c: &Value| match c.get("config") {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("core config: {other:?}"),
    };
    let spec = num(&cores[0], "steps_per_sec");
    let table = block(&doc, "spec_throughput");

    let mut rows = 0;
    for line in table.lines().filter(|l| l.starts_with("| ")) {
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        let Some(core) = cores.iter().find(|c| config(c) == cells[0]) else {
            assert_eq!(cells[0], "core", "row {line:?} names no recorded core");
            continue;
        };
        let rate = num(core, "steps_per_sec");
        assert_quotes(leading_number(cells[1]), rate / 1e6, cells[0]);
        assert_quotes(leading_number(cells[2]), rate / spec, cells[0]);
        rows += 1;
    }
    assert_eq!(rows, cores.len(), "one table row per recorded core");

    let speedup = table
        .split("seed path: ")
        .nth(1)
        .expect("the decode-cache speedup line");
    assert_quotes(
        leading_number(speedup),
        num(data, "cached_vs_seed_speedup"),
        "decode-cache speedup",
    );
    let icache = data.get("icache").expect("icache");
    let (hits, misses) = (num(icache, "hits"), num(icache, "misses"));
    let rate = table
        .split("hit rate ")
        .nth(1)
        .expect("the hit-rate figure");
    assert_quotes(
        leading_number(rate),
        100.0 * hits / (hits + misses),
        "decode-cache hit rate",
    );

    let matcher = data.get("matcher").expect("matcher");
    let sentence = table
        .split("Trace monitor, cold per seed")
        .nth(1)
        .expect("the trace-monitor line");
    let quoted = numbers(sentence);
    let seeds = num(matcher, "seeds");
    let figures = [
        (seeds - 1.0, "last plan seed"),
        (num(matcher, "events"), "events"),
        (num(matcher, "events_per_sec") / 1e6, "events_per_sec"),
        (num(matcher, "vs_cached_spec"), "vs_cached_spec"),
    ];
    // The sentence's numbers after the leading plan seed 0.
    assert_eq!(quoted.len(), 1 + figures.len(), "{sentence:?}");
    for (q, (value, what)) in quoted[1..].iter().zip(figures) {
        assert_quotes(q, value, what);
    }
}

/// The cells of every body row of a generated markdown table (the header
/// and separator rows skipped).
fn body_rows(table: &str) -> Vec<Vec<String>> {
    table
        .lines()
        .filter(|l| l.starts_with("| "))
        .skip(1)
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(|c| c.trim().to_string())
                .collect()
        })
        .collect()
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("record field {key}: {other:?}"),
    }
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Arr(items)) => items,
        other => panic!("record field {key}: {other:?}"),
    }
}

#[test]
fn table3_matches_its_record() {
    let (doc, data) = doc_and_record("table3");
    let records = array(&data, "rows");
    let rows = body_rows(&block(&doc, "table3"));
    assert_eq!(rows.len(), records.len(), "one table row per recorded row");
    for (row, rec) in rows.iter().zip(records) {
        let component = text(rec, "component");
        assert_eq!(row[0], component);
        assert_eq!(row[1].trim_matches('`'), text(rec, "file"), "{component}");
        assert_quotes(&row[2], text(rec, "LoC").parse().expect("LoC"), component);
        assert_eq!(
            row[3],
            text(rec, "paper's corresponding row"),
            "{component}"
        );
    }
    let total = rows.last().expect("a TOTAL row");
    assert_quotes(&total[2], num(&data, "total_spec_loc"), "total_spec_loc");
}

#[test]
fn table4_matches_its_record() {
    let (doc, data) = doc_and_record("table4");
    let records = array(&data, "rows");
    let rows = body_rows(&block(&doc, "table4"));
    assert_eq!(
        rows.len(),
        records.len(),
        "one table row per recorded layer"
    );
    for (row, rec) in rows.iter().zip(records) {
        let layer = text(rec, "layer");
        assert_eq!(row[0], layer);
        let (code, tests) = (text(rec, "implementation"), text(rec, "checking (tests)"));
        assert_quotes(&row[1], code.parse().expect("impl count"), layer);
        assert_quotes(&row[2], tests.parse().expect("checking count"), layer);
        assert_eq!(row[3], text(rec, "overhead"), "{layer} overhead");
        if row[3] != "—" {
            let (code, tests): (f64, f64) = (code.parse().unwrap(), tests.parse().unwrap());
            assert_quotes(
                leading_number(&row[3]),
                (code + tests) / code,
                &format!("{layer} overhead"),
            );
        }
    }
    let total = rows.last().expect("a TOTAL row");
    assert_eq!(total[0], "TOTAL");
    assert_quotes(&total[1], num(&data, "impl_loc"), "impl_loc");
    assert_quotes(&total[2], num(&data, "checking_loc"), "checking_loc");
}

#[test]
fn verif_perf_table_matches_its_record() {
    let (doc, data) = doc_and_record("verif_perf");
    let checks = array(&data, "checks");
    let rows = body_rows(&block(&doc, "verif_perf"));
    assert_eq!(rows.len(), checks.len(), "one table row per recorded check");
    for (row, check) in rows.iter().zip(checks) {
        let name = text(check, "check");
        assert_eq!(row[0], name);
        assert_quotes(leading_number(&row[1]), num(check, "seconds"), name);
        assert_eq!(row[2], text(check, "work"), "{name} work");
    }
}

#[test]
fn driver_proofs_table_matches_its_record() {
    let (doc, data) = doc_and_record("verif_perf");
    let driver = data.get("driver_proofs").expect("driver_proofs");
    let proofs = array(driver, "proofs");
    let rows = body_rows(&block(&doc, "driver_proofs"));
    assert_eq!(
        rows.len(),
        proofs.len() + 1,
        "one row per proof plus the total"
    );
    let expected = proofs
        .iter()
        .map(|p| (text(p, "function"), p))
        .chain([("total", driver)]);
    for (row, (name, rec)) in rows.iter().zip(expected) {
        assert_eq!(row[0], name);
        for (cell, field) in row[1..4]
            .iter()
            .zip(["obligations", "paths", "solver_queries"])
        {
            assert_quotes(cell, num(rec, field), &format!("{name} {field}"));
        }
        assert_quotes(
            leading_number(&row[4]),
            1e3 * num(rec, "seconds"),
            &format!("{name} milliseconds"),
        );
    }
}

#[test]
fn fig_perf_figures_match_their_record() {
    let (doc, data) = doc_and_record("fig_perf");
    let configs = array(&data, "configs");
    let factors = array(&data, "factors");
    let rows = body_rows(&block(&doc, "fig_perf"));
    assert_eq!(
        rows.len(),
        factors.len() + 1,
        "one row per factor plus the product"
    );
    for (row, f) in rows.iter().zip(factors) {
        let name = text(f, "factor");
        assert!(row[0].starts_with(name), "row {:?} is not {name}", row[0]);
        assert_quotes(leading_number(&row[1]), num(f, "paper"), name);
        assert_quotes(leading_number(&row[2]), num(f, "measured"), name);
        let cycles = numbers(&row[3]);
        assert_eq!(cycles.len(), 2, "{name}: {:?}", row[3]);
        assert_quotes(cycles[0], num(f, "cycles_before"), name);
        assert_quotes(cycles[1], num(f, "cycles_after"), name);
    }
    let product = rows.last().expect("the product row");
    assert_quotes(
        leading_number(&product[2]),
        num(&data, "total_measured"),
        "product",
    );
    let ends = numbers(&product[3]);
    let (first, last) = (&configs[0], configs.last().expect("configs"));
    assert_eq!(ends.len(), 2, "product cycles: {:?}", product[3]);
    assert_quotes(ends[0], num(first, "latency_cycles"), "product start");
    assert_quotes(ends[1], num(last, "latency_cycles"), "product end");

    let ablation = data.get("regalloc_ablation").expect("regalloc_ablation");
    let quoted = numbers(&block(&doc, "fig_perf_regalloc"))
        .into_iter()
        .map(str::to_string)
        .collect::<Vec<_>>();
    assert_eq!(quoted.len(), 3, "spill-all, regalloc, ratio: {quoted:?}");
    for (q, field) in quoted
        .iter()
        .zip(["spill_all_cycles", "regalloc_cycles", "ratio"])
    {
        assert_quotes(q, num(ablation, field), field);
    }

    let sweep = array(&data, "spi_sweep");
    let rows = body_rows(&block(&doc, "fig_perf_spi"));
    assert_eq!(rows.len(), sweep.len(), "one row per SPI wire speed");
    for (row, rec) in rows.iter().zip(sweep) {
        let speed = num(rec, "spi_cycles_per_byte");
        assert_quotes(&row[0], speed, "SPI cycles/byte");
        assert_quotes(
            &row[1],
            num(rec, "latency_cycles"),
            &format!("latency at {speed}"),
        );
    }
}

#[test]
fn table4_record_matches_live_count() {
    let (_, data) = doc_and_record("table4");
    let records = array(&data, "rows");
    let (layers, ws_tests) = bench::table4_counts(&workspace_root());
    let live = bench::TABLE4_LAYERS
        .iter()
        .zip(&layers)
        .map(|((name, _, _), loc)| (*name, loc.code, loc.tests))
        .chain([("workspace tests/", 0, ws_tests.code + ws_tests.tests)]);
    for ((name, code, tests), rec) in live.zip(records) {
        assert_eq!(text(rec, "layer"), name);
        let stale = "BENCH_table4.json is stale: re-record it with \
                     `cargo run --release -p bench --bin table4 -- --json > BENCH_table4.json`";
        assert_eq!(
            text(rec, "implementation"),
            code.to_string(),
            "{name}: {stale}"
        );
        assert_eq!(
            text(rec, "checking (tests)"),
            tests.to_string(),
            "{name}: {stale}"
        );
    }
    assert_eq!(records.len(), layers.len() + 2, "layers, tests/ and TOTAL");
}

#[test]
fn table3_record_matches_live_count() {
    let (_, data) = doc_and_record("table3");
    let records = array(&data, "rows");
    let root = workspace_root();
    let stale = "BENCH_table3.json is stale: re-record it with \
                 `cargo run --release -p bench --bin table3 -- --json > BENCH_table3.json`";
    let mut total = 0;
    for ((component, file, _), rec) in bench::TABLE3_ROWS.iter().zip(records) {
        let code = bench::count_file(&root.join(file)).code;
        total += code;
        assert_eq!(text(rec, "component"), *component);
        assert_eq!(text(rec, "file"), *file);
        assert_eq!(text(rec, "LoC"), code.to_string(), "{file}: {stale}");
    }
    assert_eq!(
        records.len(),
        bench::TABLE3_ROWS.len() + 1,
        "files and TOTAL"
    );
    let last = records.last().expect("a TOTAL row");
    assert_eq!(text(last, "LoC"), total.to_string(), "TOTAL: {stale}");
    assert_eq!(num(&data, "total_spec_loc"), f64::from(total), "{stale}");
}

//! EXPERIMENTS.md quotes figures from the committed `BENCH_*.json`
//! records, rendered by `bench::experiments`. These tests fail when a
//! generated block differs from its render, when a record lacks its host
//! metadata, and when a record no longer matches the live tree or a live
//! run, so a re-recorded benchmark cannot leave stale numbers behind.

use bench::experiments::{self, Record, REGENERATE};
use bench::workspace_root;
use obs::json::Value;
use std::fs;

/// The committed `BENCH_<bin>.json`.
fn record(bin: &str) -> Record {
    Record::read(&workspace_root().join(format!("BENCH_{bin}.json"))).unwrap()
}

/// The stale-record message for `bin`.
fn stale(bin: &str) -> String {
    format!(
        "BENCH_{bin}.json is stale: re-record it with `cargo run --release -p bench --bin {bin} \
         -- --json > BENCH_{bin}.json`, then run `{REGENERATE}`"
    )
}

/// Requires each block of `names` in EXPERIMENTS.md to equal its render
/// from its committed record.
fn assert_blocks_match(names: &[&str]) {
    let root = workspace_root();
    let doc = fs::read_to_string(root.join(experiments::DOC)).unwrap();
    let rendered = experiments::render(&root).unwrap();
    for name in names {
        let (_, text) = rendered
            .iter()
            .find(|(block, _)| block == name)
            .unwrap_or_else(|| panic!("`{name}` is not a generated block"));
        let block = experiments::block(&doc, name).unwrap();
        assert_eq!(
            block, text,
            "EXPERIMENTS.md's `{name}` block differs from its record: regenerate it with \
             `{REGENERATE}`"
        );
    }
}

#[test]
fn generated_blocks_match_their_records() {
    let names: Vec<&str> = experiments::BLOCKS.iter().map(|block| block.0).collect();
    assert_blocks_match(&names);
}

/// One test per block or group of blocks, so a stale block fails under
/// the test named for it as well.
macro_rules! block_tests {
    ($($test:ident: $names:expr;)*) => {$(
        #[test]
        fn $test() { assert_blocks_match(&$names) }
    )*};
}

block_tests! {
    table3_matches_its_record: ["table3"];
    table4_matches_its_record: ["table4"];
    fig_perf_figures_match_their_record: ["fig_perf", "fig_perf_regalloc", "fig_perf_spi"];
    verif_perf_table_matches_its_record: ["verif_perf"];
    driver_proofs_table_matches_its_record: ["driver_proofs"];
    spec_throughput_table_matches_its_record: ["spec_throughput"];
    fault_sweep_table_matches_its_record: ["fault_sweep"];
    fig4_btb_sentence_matches_its_record: ["fig4_btb"];
    telemetry_sentence_matches_its_record: ["telemetry"];
}

#[test]
fn every_record_carries_host() {
    let mut missing = Vec::new();
    for entry in fs::read_dir(workspace_root()).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let host = Record::read(&path).and_then(|r| {
            let host = r.get("host")?;
            let keys = ["cpus", "profile", "git_rev", "dirty"];
            keys.iter().try_for_each(|key| host.get(key).map(drop))
        });
        missing.extend(host.err());
    }
    let missing = missing.join("\n");
    assert!(
        missing.is_empty(),
        "re-record these with their bin's `--json`:\n{missing}"
    );
}

#[test]
fn records_read_alike_with_and_without_host() {
    let data = Value::obj().field("seeds", Value::UInt(8));
    let with_host = bench::json_record("demo", data.clone());
    let Value::Obj(fields) = &with_host else {
        panic!("a record is an object");
    };
    assert!(with_host.get("host").is_some());
    let without_host = Value::Obj(
        fields
            .iter()
            .filter(|(k, _)| k != "host")
            .cloned()
            .collect(),
    );
    for doc in [with_host, without_host] {
        let read = Record::parse("demo", &doc.render()).unwrap();
        assert_eq!(read.data().value(), &data);
    }
}

#[test]
fn table4_record_matches_live_count() {
    let table4 = record("table4");
    let data = table4.data();
    let rows = data.list("rows").unwrap();
    let (layers, ws_tests) = bench::table4_counts(&workspace_root());
    let live = bench::TABLE4_LAYERS
        .iter()
        .zip(&layers)
        .map(|((name, _, _), loc)| (*name, loc.code, loc.tests))
        .chain([("workspace tests/", 0, ws_tests.code + ws_tests.tests)]);
    let (mut code_sum, mut tests_sum) = (0, 0);
    for ((name, code, tests), rec) in live.zip(&rows) {
        let [layer, code_rec, tests_rec] = rec
            .texts(["layer", "implementation", "checking (tests)"])
            .unwrap();
        assert_eq!(layer, name);
        let recorded = (code_rec.parse(), tests_rec.parse());
        assert_eq!(
            recorded,
            (Ok(code), Ok(tests)),
            "{name}: {}",
            stale("table4")
        );
        (code_sum, tests_sum) = (code_sum + code, tests_sum + tests);
    }
    assert_eq!(rows.len(), layers.len() + 2, "layers, tests/ and TOTAL");
    // The TOTAL row and the two totals are the column sums, and every
    // overhead cell is (implementation + checking) / implementation.
    let total = rows.last().unwrap();
    let total = total
        .texts(["layer", "implementation", "checking (tests)"])
        .unwrap();
    let sums = [code_sum, tests_sum].map(|n| n.to_string());
    assert_eq!(total, ["TOTAL", &sums[0], &sums[1]]);
    let totals = data.ints(["impl_loc", "checking_loc"]).unwrap();
    assert_eq!(totals, [code_sum, tests_sum].map(u64::from));
    for rec in &rows {
        let [code, tests, overhead] = rec
            .texts(["implementation", "checking (tests)", "overhead"])
            .unwrap();
        let (code, tests): (f64, f64) = (code.parse().unwrap(), tests.parse().unwrap());
        let expected = match code {
            0.0 => "—".to_string(),
            _ => format!("{:.2}×", (code + tests) / code),
        };
        assert_eq!(overhead, expected, "{rec:?}");
    }
}

#[test]
fn table3_record_matches_live_count() {
    let table3 = record("table3");
    let data = table3.data();
    let rows = data.list("rows").unwrap();
    let root = workspace_root();
    let mut total = 0;
    for ((component, file, _), rec) in bench::TABLE3_ROWS.iter().zip(&rows) {
        let code = bench::count_file(&root.join(file)).code;
        total += code;
        let recorded = rec.texts(["component", "file", "LoC"]).unwrap();
        assert_eq!(
            recorded,
            [*component, *file, &code.to_string()],
            "{}",
            stale("table3")
        );
    }
    assert_eq!(rows.len(), bench::TABLE3_ROWS.len() + 1, "files and TOTAL");
    let last = rows.last().unwrap().text("LoC").unwrap();
    assert_eq!(last, total.to_string(), "TOTAL: {}", stale("table3"));
    let total_spec_loc = data.int("total_spec_loc").unwrap();
    assert_eq!(total_spec_loc, u64::from(total), "{}", stale("table3"));
}

#[test]
fn btb_ablation_record_matches_live_run() {
    let fig_perf = record("fig_perf");
    let rec = fig_perf.data().get("btb_ablation").unwrap();
    let recorded = rec
        .nums([
            "with_btb_cycles",
            "without_btb_cycles",
            "speedup",
            "with_btb_ipc",
            "without_btb_ipc",
        ])
        .unwrap();
    let b = bench::btb_ablation();
    let (with, without) = (b.with_btb, b.without_btb);
    let live = [
        with.cycles as f64,
        without.cycles as f64,
        b.speedup(),
        with.ipc(),
        without.ipc(),
    ];
    assert_eq!(recorded, live, "{}", stale("fig_perf"));
}

/// True for the compiler's per-pass wall-clock timings, the only
/// counters of a run that differ between runs.
fn is_wall_clock(counter: &str) -> bool {
    counter.starts_with("compiler.pass.") && counter.ends_with("_micros")
}

#[test]
fn table1_record_matches_live_run() {
    let table1 = record("table1");
    let counters = table1.data().get("counters").unwrap();
    let Value::Obj(recorded) = counters.value() else {
        panic!("BENCH_table1.json's counters are not an object");
    };
    let run = lightbulb_system::integration::SystemConfig::default().run(&[], 250_000);
    let live: Vec<(&str, Result<u64, String>)> = run
        .report
        .counters
        .iter()
        .filter(|(name, _)| !is_wall_clock(name))
        .map(|(name, n)| (name, Ok(n)))
        .collect();
    let recorded: Vec<_> = recorded
        .iter()
        .filter(|(name, _)| !is_wall_clock(name))
        .map(|(name, _)| (name.as_str(), counters.int(name)))
        .collect();
    assert_eq!(recorded, live, "{}", stale("table1"));
}

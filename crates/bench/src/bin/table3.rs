//! Table 3 of the paper: the trusted code base — the specifications one
//! must read and believe (everything else is checked against them).
//!
//! In this reproduction the corresponding artifacts are the trace
//! specifications, the platform layout, the device models (which play the
//! role of the paper's HDL semantics + physical hardware), and the
//! checking substrate itself. Line counts are measured live from the
//! workspace; `BENCH_table3.json` is the recorded run.

use bench::{
    count_file, emit_json, json_mode, render_table, table_json, workspace_root, TABLE3_ROWS,
};
use obs::json::Value;

fn main() {
    let root = workspace_root();
    let count = |rel: &str| count_file(&root.join(rel));

    let mut table = Vec::new();
    let mut total = 0;
    for (name, rel, paper) in TABLE3_ROWS {
        let loc = count(rel);
        total += loc.code;
        table.push(vec![
            name.to_string(),
            loc.code.to_string(),
            rel.to_string(),
            paper.to_string(),
        ]);
    }
    table.push(vec![
        "TOTAL (spec-role code)".into(),
        total.to_string(),
        String::new(),
        "~569".into(),
    ]);

    let headers = ["component", "LoC", "file", "paper's corresponding row"];
    if json_mode() {
        let data = Value::obj()
            .field("rows", table_json(&headers, &table))
            .field("total_spec_loc", Value::UInt(u64::from(total)));
        emit_json("table3", data);
        return;
    }
    print!(
        "{}",
        render_table(
            "Table 3: trusted code base (lines of spec-role code, measured)",
            &headers,
            &table
        )
    );
    println!();
    println!("Other TCB (paper: Verilog wrapper, Kami→Bluespec, bsc, yosys/nextpnr, Coq):");
    println!("  here: the Rust compiler and standard library, the `rand`/`proptest`/");
    println!("  `criterion` dev-dependencies, and this harness itself — the usual");
    println!("  trusted substrate of any testing-based (rather than proof-based) check.");
}

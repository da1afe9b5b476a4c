//! Table 4 of the paper: lines of code per layer, and the overhead of
//! verification ("proof overhead" = (impl + interface + proof) / impl).
//!
//! In this reproduction the proof columns become *checking* code: unit
//! tests, property tests, and the differential/trace checkers. The
//! measured ratios land far below the paper's (proofs in Coq cost ~10× the
//! implementation; executable checking costs ~1–2×) — which is precisely
//! the trade the substitution makes: less assurance per line, far fewer
//! lines (compare the paper's §7.3.2 discussion of accidental proof
//! complexity).

use bench::{
    cli, emit_json, render_table, table4_counts, table_json, workspace_root, Loc, JSON,
    TABLE4_LAYERS,
};
use obs::json::Value;

fn main() {
    let json = cli(env!("CARGO_BIN_NAME"), &[JSON]).has("--json");
    let (layers, ws_tests) = table4_counts(&workspace_root());
    let mut rows = Vec::new();
    let mut grand = Loc::default();
    for ((name, _, paper), loc) in TABLE4_LAYERS.iter().zip(layers) {
        grand += loc;
        let ratio = (loc.code + loc.tests) as f64 / loc.code.max(1) as f64;
        rows.push(vec![
            name.to_string(),
            loc.code.to_string(),
            loc.tests.to_string(),
            format!("{ratio:.2}×"),
            paper.to_string(),
        ]);
    }
    // Workspace-level integration tests count toward the end-to-end row in
    // spirit; report them separately for honesty.
    rows.push(vec![
        "workspace tests/".to_string(),
        "0".to_string(),
        (ws_tests.code + ws_tests.tests).to_string(),
        "—".to_string(),
        String::new(),
    ]);
    let total_checking = grand.tests + ws_tests.code + ws_tests.tests;
    rows.push(vec![
        "TOTAL".to_string(),
        grand.code.to_string(),
        total_checking.to_string(),
        format!(
            "{:.2}×",
            (grand.code + total_checking) as f64 / grand.code as f64
        ),
        "paper: ~2.5k impl, ~23k proof (~10×)".to_string(),
    ]);

    let headers = [
        "layer",
        "implementation",
        "checking (tests)",
        "overhead",
        "paper correspondence",
    ];
    if json {
        let data = Value::obj()
            .field("rows", table_json(&headers, &rows))
            .field("impl_loc", Value::UInt(u64::from(grand.code)))
            .field("checking_loc", Value::UInt(u64::from(total_checking)));
        emit_json("table4", data);
        return;
    }
    print!(
        "{}",
        render_table(
            "Table 4: lines of code per layer (measured)",
            &headers,
            &rows
        )
    );
    println!();
    println!("Shape vs the paper: the paper's machine-checked proofs cost ~10× their");
    println!("implementations, dominated by 'low-insight' proof lines (their Table 4);");
    println!("executable checking costs ~1–2× — the assurance/effort trade-off the");
    println!("paper's §7.3.2 'what if the wishlist were addressed' column anticipates.");
}

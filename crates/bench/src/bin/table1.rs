//! Table 1 of the paper: evaluation criteria for verified stacks.
//!
//! The rows for prior systems are the paper's published assessments
//! (static data); the final column — this reproduction — is re-derived
//! from what the workspace actually implements, with the honest caveat
//! that "integration verification" here means executable cross-layer
//! checking rather than machine-checked proof.

use bench::{cli, counters_json, emit_json, render_table, table_json, JSON};
use lightbulb_system::integration::SystemConfig;
use obs::json::Value;

fn main() {
    let json = cli(env!("CARGO_BIN_NAME"), &[JSON]).has("--json");
    let criteria = [
        "Applications",
        "OS and/or drivers",
        "Source language",
        "Assembly",
        "Machine code",
        "HDL",
        "Integration verification",
        "One proof assistant",
        "Modularity",
        "Standardized ISA",
        "HW optimizations",
        "Realistic I/O",
    ];
    // Columns as printed in the paper (✓ met, ~ partial, ✗ not, − n/a).
    let systems: &[(&str, [&str; 12])] = &[
        (
            "seL4",
            ["~", "✓", "~", "✓", "−", "✗", "✗", "✓", "~", "✓", "−", "~"],
        ),
        (
            "VST+CertiKOS",
            ["~", "✓", "✓", "✓", "−", "✗", "~", "✓", "✓", "✗", "−", "✗"],
        ),
        (
            "CompCertMC",
            ["✗", "✗", "✓", "✓", "✓", "✗", "~", "✓", "~", "✗", "−", "✗"],
        ),
        (
            "Everest",
            ["✓", "✗", "✓", "✓", "−", "✗", "~", "✗", "✓", "✓", "−", "~"],
        ),
        (
            "Serval",
            ["✓", "✓", "✗", "✓", "✓", "✗", "~", "✗", "✗", "✓", "−", "~"],
        ),
        (
            "Vigor",
            ["✓", "✓", "✓", "✓", "✓", "✗", "~", "✗", "~", "✓", "−", "✓"],
        ),
        (
            "CLI stack",
            ["✓", "✗", "✓", "✓", "✓", "✓", "✓", "✓", "~", "✗", "~", "✗"],
        ),
        (
            "Verisoft",
            ["✓", "✓", "✓", "✓", "✓", "✓", "~", "✓", "✓", "✗", "✗", "~"],
        ),
        (
            "CakeML",
            ["✓", "✗", "✓", "✓", "✓", "✓", "✓", "✓", "✓", "✗", "✗", "✗"],
        ),
        (
            "PLDI'21 paper",
            ["✓", "✓", "✓", "✓", "✓", "✓", "✓", "✓", "✓", "✓", "✓", "✓"],
        ),
        // Our column, derived from the workspace: everything is built and
        // cross-checked executably; "one proof assistant" does not apply
        // (no proof assistant at all), so integration verification is ~.
        (
            "this repro",
            ["✓", "✓", "✓", "✓", "✓", "✓", "~", "−", "✓", "✓", "✓", "✓"],
        ),
    ];

    let rows: Vec<Vec<String>> = criteria
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let mut row = vec![c.to_string()];
            row.extend(systems.iter().map(|(_, marks)| marks[i].to_string()));
            row
        })
        .collect();
    let mut headers = vec!["criterion"];
    headers.extend(systems.iter().map(|(n, _)| *n));
    if json {
        // Alongside the static matrix, ship the telemetry of one default
        // verified boot so the record carries measured counters too.
        let run = SystemConfig::default().run(&[], 250_000);
        let data = Value::obj()
            .field("rows", table_json(&headers, &rows))
            .field("counters", counters_json(&run.report.counters));
        emit_json("table1", data);
        return;
    }
    print!(
        "{}",
        render_table(
            "Table 1: evaluation criteria for verified stacks",
            &headers,
            &rows
        )
    );
    println!();
    println!("Key: ✓ met  ~ partially met  ✗ not met  − not applicable");
    println!();
    println!("'this repro' column justification:");
    println!("  Applications/OS+drivers/Source/Asm/Machine code/HDL: every layer is");
    println!("  implemented in this workspace (lightbulb app, SPI+LAN9250 drivers,");
    println!("  Bedrock2, RV32IM binaries, rule-based hardware models).");
    println!("  Integration verification: ~ — each paper theorem is an executable");
    println!("  differential/trace check, not a machine-checked proof.");
    println!("  Standardized ISA: RV32IM. HW optimizations: 4-stage pipeline, BTB,");
    println!("  eagerly-filled I$. Realistic I/O: MMIO to SPI/GPIO, Ethernet frames.");
}

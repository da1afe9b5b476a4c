//! Quickstart: write a Bedrock2 program, compile it to RV32IM, run it on
//! the ISA specification machine, and inspect the result.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use lightbulb_system::bedrock2::dsl::*;
use lightbulb_system::bedrock2::{Function, Program};
use lightbulb_system::compiler::{compile, CompileOptions, NoExtCompiler};
use lightbulb_system::riscv::{Memory, NoMmio, SpecMachine};

fn main() {
    // Euclid's gcd, plus a main that computes gcd(252, 105).
    let gcd = Function::new(
        "gcd",
        &["a", "b"],
        &["a"],
        while_(
            var("b"),
            block([
                set("t", remu(var("a"), var("b"))),
                set("a", var("b")),
                set("b", var("t")),
            ]),
        ),
    );
    let main_fn = Function::new(
        "main",
        &[],
        &["g"],
        call(&["g"], "gcd", [lit(252), lit(105)]),
    );
    let program = Program::from_functions([gcd, main_fn]);
    println!("=== Bedrock2 source ===\n{program}");

    let image =
        compile(&program, &NoExtCompiler, &CompileOptions::default()).expect("program compiles");
    println!("=== RV32IM ({} instructions) ===", image.insts.len());
    println!("{}", image.listing());
    println!(
        "static worst-case stack usage: {} bytes",
        image.max_stack_usage
    );

    let mut machine = SpecMachine::new(Memory::with_size(0x1_0000), NoMmio);
    machine.load_program(0, &image.words());
    let outcome = machine.run_block(1_000_000).expect("no undefined behavior");
    assert!(
        matches!(outcome, lightbulb_system::riscv::StepOutcome::Halted { .. }),
        "program must halt"
    );
    let result = machine
        .mem
        .load_u32(image.stack_top - 4)
        .expect("return slot");
    println!("=== result ===");
    println!(
        "gcd(252, 105) = {result} after {} instructions",
        machine.instret
    );
    assert_eq!(result, 21);
}

//! The Bedrock2 compiler: a faithful executable reproduction of the
//! three-phase verified compiler of *Integration Verification across
//! Software and Hardware for a Simple Embedded System* (PLDI 2021, §5.3).
//!
//! ```text
//! Bedrock2 source ──[flatten]──▶ FlatImp (variables)
//!                 ──[regalloc]─▶ FlatImp (registers)
//!                 ──[rv32]─────▶ position-independent RV32IM
//!                 ──[link]─────▶ boot image for address 0
//! ```
//!
//! The paper's compiler-correctness *proof* is replaced here by pervasive
//! differential testing: the integration tests run every generated binary
//! on the `riscv-spec` machine and compare observable behavior (I/O trace
//! and results) against the Bedrock2 interpreter, over both hand-written
//! and randomly generated programs.
//!
//! Like the paper's compiler, this one is parameterized over an
//! *external-calls compiler* ([`ExtCallCompiler`], §6.3) that decides how
//! to realize `Interact` statements — [`MmioExtCompiler`] turns `MMIOREAD`
//! and `MMIOWRITE` into bare `lw`/`sw` — and it statically bounds stack
//! usage so the generated program provably (here: checkably) never runs
//! out of memory (§5.3).
//!
//! # Examples
//!
//! Compile and run a function that computes 6·7:
//!
//! ```
//! use bedrock2::dsl::*;
//! use bedrock2::{Function, Program};
//! use bedrock2_compiler::{compile, CompileOptions, NoExtCompiler};
//! use riscv_spec::{Memory, NoMmio, SpecMachine};
//!
//! let main = Function::new("main", &[], &["r"], set("r", mul(lit(6), lit(7))));
//! let prog = Program::from_functions([main]);
//! let image = compile(&prog, &NoExtCompiler, &CompileOptions::default()).unwrap();
//!
//! let mut m = SpecMachine::new(Memory::with_size(0x1_0000), NoMmio);
//! m.load_program(0, &image.words());
//! m.run_block(10_000).unwrap();
//! // The single return value is at stack_top - 4 by the calling convention.
//! assert_eq!(m.mem.load_u32(image.stack_top - 4).unwrap(), 42);
//! ```

pub mod flatimp;
pub mod flatten;
pub mod link;
pub mod opt;
pub mod regalloc;
pub mod rv32;

pub use link::{CompileOptions, CompileStats, CompiledProgram, Entry};
pub use regalloc::Loc;
pub use rv32::{CompileError, ExtCallCompiler, ExtEmitter, MmioExtCompiler, NoExtCompiler};

use bedrock2::ast::Program;
use std::collections::BTreeMap;
use std::time::Instant;

/// Compiles a Bedrock2 program to a linked RV32IM boot image.
///
/// # Errors
///
/// * [`CompileError::UnknownFunction`] / [`CompileError::Recursion`] for
///   ill-formed programs (as reported by [`Program::check`]);
/// * [`CompileError::UnsupportedExternal`] when `ext` rejects an action;
/// * [`CompileError::BadEntry`] when the entry function is missing or takes
///   parameters;
/// * [`CompileError::FrameTooLarge`] / [`CompileError::StackTooSmall`] for
///   resource violations.
pub fn compile(
    prog: &Program,
    ext: &dyn ExtCallCompiler,
    opts: &CompileOptions,
) -> Result<CompiledProgram, CompileError> {
    let mut stats = CompileStats::default();
    let micros = |t: Instant| t.elapsed().as_micros() as u64;

    // Well-formedness first (the paper's compiler relies on the program
    // logic having established this; a library must check).
    let t = Instant::now();
    if let Some(problem) = prog.check().into_iter().next() {
        if problem.contains("recursive") {
            return Err(CompileError::Recursion(problem));
        }
        return Err(CompileError::UnknownFunction(problem));
    }
    stats.check_micros = micros(t);

    // Entry functions must take no parameters.
    let entry_names: Vec<&str> = match &opts.entry {
        Entry::MainThenHalt { main } => vec![main.as_str()],
        Entry::EventLoop { init, step } => init
            .iter()
            .map(String::as_str)
            .chain(std::iter::once(step.as_str()))
            .collect(),
    };
    for name in entry_names {
        match prog.function(name) {
            Some(f) if f.params.is_empty() => {}
            _ => return Err(CompileError::BadEntry(name.to_string())),
        }
    }

    let prog = if opts.optimize {
        let t = Instant::now();
        let optimized = opt::optimize_program(prog);
        stats.opt_micros = micros(t);
        optimized
    } else {
        prog.clone()
    };

    let t = Instant::now();
    let flat = flatten::flatten_program(&prog);
    stats.flatten_micros = micros(t);

    let mut codes = BTreeMap::new();
    for (name, f) in &flat.functions {
        let t = Instant::now();
        let alloc = if opts.spill_everything {
            regalloc::allocate_spill_all(f)
        } else {
            regalloc::allocate(f)
        };
        debug_assert!(
            regalloc::verify_allocation(f, &alloc).is_ok(),
            "register allocation failed its own verification for {name}"
        );
        stats.regalloc_micros += micros(t);
        stats.spill_slots += u64::from(alloc.nspills);

        let t = Instant::now();
        let rf = regalloc::apply_allocation(f, &alloc);
        let code = rv32::compile_function(&rf, &alloc.used_regs, alloc.nspills, ext)?;
        stats.codegen_micros += micros(t);
        stats.functions += 1;
        codes.insert(name.clone(), code);
    }

    let t = Instant::now();
    let mut image = link::link(codes, opts)?;
    stats.link_micros = micros(t);
    stats.instructions = image.insts.len() as u64;
    image.stats = stats;
    Ok(image)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bedrock2::ast::Function;
    use bedrock2::dsl::*;
    use riscv_spec::{AccessSize, Memory, MmioHandler, NoMmio, SpecMachine, StepOutcome};

    /// Compiles `prog` and runs it on the spec machine until `ebreak`,
    /// returning the machine for inspection.
    fn run(prog: &Program, opts: &CompileOptions) -> (CompiledProgram, SpecMachine<NoMmio>) {
        let image = compile(prog, &NoExtCompiler, opts).expect("compilation should succeed");
        let mut m = SpecMachine::new(Memory::with_size(0x1_0000), NoMmio);
        m.load_program(0, &image.words());
        match m.run_block(1_000_000) {
            Ok(StepOutcome::Halted { .. }) => {}
            other => panic!(
                "program did not halt cleanly: {other:?}\n{}",
                image.listing()
            ),
        }
        (image, m)
    }

    /// Value of return slot `j` (of `n` total) after `main` returned.
    fn ret_slot(m: &SpecMachine<NoMmio>, image: &CompiledProgram, j: u32, n: u32) -> u32 {
        m.mem
            .load_u32(image.stack_top - 4 * n + 4 * j)
            .expect("return slot in RAM")
    }

    #[test]
    fn constant_return() {
        let main = Function::new("main", &[], &["r"], set("r", lit(12345)));
        let p = Program::from_functions([main]);
        let (image, m) = run(&p, &CompileOptions::default());
        assert_eq!(ret_slot(&m, &image, 0, 1), 12345);
    }

    #[test]
    fn large_literals_via_lui() {
        let main = Function::new("main", &[], &["r"], set("r", lit(0xDEAD_BEEF)));
        let p = Program::from_functions([main]);
        let (image, m) = run(&p, &CompileOptions::default());
        assert_eq!(ret_slot(&m, &image, 0, 1), 0xDEAD_BEEF);
    }

    #[test]
    fn loop_and_arithmetic() {
        // sum of 1..=100 = 5050
        let main = Function::new(
            "main",
            &[],
            &["s"],
            block([
                set("s", lit(0)),
                set("n", lit(100)),
                while_(
                    var("n"),
                    block([
                        set("s", add(var("s"), var("n"))),
                        set("n", sub(var("n"), lit(1))),
                    ]),
                ),
            ]),
        );
        let p = Program::from_functions([main]);
        let (image, m) = run(&p, &CompileOptions::default());
        assert_eq!(ret_slot(&m, &image, 0, 1), 5050);
    }

    #[test]
    fn function_calls_with_tuple_returns() {
        let divmod = Function::new(
            "divmod",
            &["a", "b"],
            &["q", "r"],
            block([
                set("q", divu(var("a"), var("b"))),
                set("r", remu(var("a"), var("b"))),
            ]),
        );
        let main = Function::new(
            "main",
            &[],
            &["x", "y"],
            call(&["x", "y"], "divmod", [lit(47), lit(10)]),
        );
        let p = Program::from_functions([divmod, main]);
        let (image, m) = run(&p, &CompileOptions::default());
        assert_eq!(ret_slot(&m, &image, 0, 2), 4);
        assert_eq!(ret_slot(&m, &image, 1, 2), 7);
    }

    #[test]
    fn nested_calls_preserve_caller_registers() {
        let id = Function::new("id", &["x"], &["x"], bedrock2::ast::Stmt::Skip);
        let main = Function::new(
            "main",
            &[],
            &["r"],
            block([
                set("a", lit(11)),
                set("b", lit(22)),
                call(&["c"], "id", [lit(33)]),
                // a and b must have survived the call.
                set("r", add(add(var("a"), var("b")), var("c"))),
            ]),
        );
        let p = Program::from_functions([id, main]);
        let (image, m) = run(&p, &CompileOptions::default());
        assert_eq!(ret_slot(&m, &image, 0, 1), 66);
    }

    #[test]
    fn memory_and_branches() {
        let main = Function::new(
            "main",
            &[],
            &["r"],
            block([
                store4(lit(0x200), lit(7)),
                store1(lit(0x204), lit(0xFF)),
                if_(
                    ltu(load4(lit(0x200)), load1(lit(0x204))),
                    set("r", lit(1)),
                    set("r", lit(0)),
                ),
            ]),
        );
        let p = Program::from_functions([main]);
        let (image, m) = run(&p, &CompileOptions::default());
        assert_eq!(ret_slot(&m, &image, 0, 1), 1);
        assert_eq!(m.mem.load_u32(0x200).unwrap(), 7);
    }

    #[test]
    fn stackalloc_buffers_work_compiled() {
        let main = Function::new(
            "main",
            &[],
            &["r"],
            stackalloc(
                "buf",
                16,
                block([
                    store4(var("buf"), lit(3)),
                    store4(add(var("buf"), lit(4)), lit(4)),
                    set("r", mul(load4(var("buf")), load4(add(var("buf"), lit(4))))),
                ]),
            ),
        );
        let p = Program::from_functions([main]);
        let (image, m) = run(&p, &CompileOptions::default());
        assert_eq!(ret_slot(&m, &image, 0, 1), 12);
    }

    #[test]
    fn spilling_under_register_pressure_is_correct() {
        // 30 simultaneously live variables forces spills; the checksum
        // verifies every value survived.
        let mut stmts = Vec::new();
        for i in 0..30u32 {
            stmts.push(set(&format!("v{i}"), add(var("x"), lit(i))));
        }
        let mut sum = var("v0");
        for i in 1..30 {
            sum = add(sum, var(&format!("v{i}")));
        }
        stmts.push(set("r", sum));
        let mut all = vec![set("x", lit(1000))];
        all.extend(stmts);
        let main = Function::new("main", &[], &["r"], block(all));
        let p = Program::from_functions([main]);
        let (image, m) = run(&p, &CompileOptions::default());
        // Σ (1000 + i) for i in 0..30 = 30*1000 + 435
        assert_eq!(ret_slot(&m, &image, 0, 1), 30_435);
    }

    #[test]
    fn mmio_external_calls_compile_to_lw_sw() {
        #[derive(Default)]
        struct Dev {
            reg: u32,
        }
        impl MmioHandler for Dev {
            fn is_mmio(&self, addr: u32, _s: AccessSize) -> bool {
                (0x1000_0000..0x1000_0010).contains(&addr)
            }
            fn load(&mut self, _a: u32, _s: AccessSize) -> u32 {
                self.reg + 1
            }
            fn store(&mut self, _a: u32, _s: AccessSize, v: u32) {
                self.reg = v;
            }
        }
        let main = Function::new(
            "main",
            &[],
            &["r"],
            block([
                interact(&[], "MMIOWRITE", [lit(0x1000_0000), lit(41)]),
                interact(&["r"], "MMIOREAD", [lit(0x1000_0004)]),
            ]),
        );
        let p = Program::from_functions([main]);
        let image = compile(&p, &MmioExtCompiler, &CompileOptions::default()).unwrap();
        let mut m = SpecMachine::new(Memory::with_size(0x1_0000), Dev::default());
        m.load_program(0, &image.words());
        m.run_block(100_000).unwrap();
        assert_eq!(m.mem.load_u32(image.stack_top - 4).unwrap(), 42);
        assert_eq!(
            m.trace,
            vec![
                riscv_spec::MmioEvent::store(0x1000_0000, 41),
                riscv_spec::MmioEvent::load(0x1000_0004, 42),
            ]
        );
    }

    #[test]
    fn optimized_and_naive_agree() {
        let helper = Function::new("twice", &["x"], &["y"], set("y", mul(var("x"), lit(2))));
        let main = Function::new(
            "main",
            &[],
            &["r"],
            block([
                set("a", add(lit(20), lit(1))),
                call(&["b"], "twice", [var("a")]),
                set("dead", mul(var("b"), lit(1000))),
                set("r", var("b")),
            ]),
        );
        let p = Program::from_functions([helper, main]);
        let naive = run(&p, &CompileOptions::default()).1;
        let opt = run(
            &p,
            &CompileOptions {
                optimize: true,
                ..CompileOptions::default()
            },
        )
        .1;
        let top = CompileOptions::default().stack_top;
        assert_eq!(
            naive.mem.load_u32(top - 4).unwrap(),
            opt.mem.load_u32(top - 4).unwrap()
        );
        assert_eq!(naive.mem.load_u32(top - 4).unwrap(), 42);
    }

    #[test]
    fn optimizer_shortens_the_program() {
        let helper = Function::new("bump", &["x"], &["y"], set("y", add(var("x"), lit(1))));
        let main = Function::new(
            "main",
            &[],
            &["r"],
            block([
                call(&["a"], "bump", [lit(1)]),
                call(&["b"], "bump", [var("a")]),
                set("r", var("b")),
            ]),
        );
        let p = Program::from_functions([helper, main]);
        let naive = compile(&p, &NoExtCompiler, &CompileOptions::default()).unwrap();
        let opt = compile(
            &p,
            &NoExtCompiler,
            &CompileOptions {
                optimize: true,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        assert!(
            opt.insts.len() < naive.insts.len(),
            "optimizer should shrink code: {} vs {}",
            opt.insts.len(),
            naive.insts.len()
        );
    }

    #[test]
    fn recursion_is_a_compile_error() {
        let f = Function::new("main", &[], &[], call(&[], "main", []));
        let p = Program::from_functions([f]);
        assert!(matches!(
            compile(&p, &NoExtCompiler, &CompileOptions::default()),
            Err(CompileError::Recursion(_))
        ));
    }

    #[test]
    fn entry_with_params_is_rejected() {
        let f = Function::new("main", &["x"], &[], bedrock2::ast::Stmt::Skip);
        let p = Program::from_functions([f]);
        assert!(matches!(
            compile(&p, &NoExtCompiler, &CompileOptions::default()),
            Err(CompileError::BadEntry(_))
        ));
    }

    #[test]
    fn stack_bound_is_enforced() {
        let leaf = Function::new(
            "leaf",
            &[],
            &[],
            stackalloc("b", 512, bedrock2::ast::Stmt::Skip),
        );
        let main = Function::new("main", &[], &[], call(&[], "leaf", []));
        let p = Program::from_functions([leaf, main]);
        let err = compile(
            &p,
            &NoExtCompiler,
            &CompileOptions {
                stack_size: Some(256),
                ..CompileOptions::default()
            },
        );
        assert!(matches!(err, Err(CompileError::StackTooSmall { .. })));
        // With a roomier stack it compiles and reports its true usage.
        let ok = compile(
            &p,
            &NoExtCompiler,
            &CompileOptions {
                stack_size: Some(4096),
                ..CompileOptions::default()
            },
        )
        .unwrap();
        assert!(ok.max_stack_usage >= 512);
    }

    #[test]
    fn event_loop_image_never_halts() {
        let step = Function::new("step", &[], &[], bedrock2::ast::Stmt::Skip);
        let p = Program::from_functions([step]);
        let image = compile(
            &p,
            &NoExtCompiler,
            &CompileOptions {
                entry: Entry::EventLoop {
                    init: None,
                    step: "step".into(),
                },
                ..CompileOptions::default()
            },
        )
        .unwrap();
        let mut m = SpecMachine::new(Memory::with_size(0x1_0000), NoMmio);
        m.load_program(0, &image.words());
        assert_eq!(m.run_block(10_000).unwrap(), StepOutcome::OutOfFuel);
    }
}

//! §7.2.2, reproduced: how long the *verification* machinery itself takes.
//!
//! The paper reports 80 minutes of Coq plus ~2 hours of Kami refinement
//! proof checking per CI run. This binary times the corresponding
//! executable checks: the end-to-end trace check, the processor refinement
//! check, a compiler-differential batch (serial and sharded), and the real
//! driver proofs — `spi_put`, `spi_get` and `lan_tryrecv` through
//! `SymExec::check_function`. A driver proof that fails verification
//! panics, so the binary exits non-zero. Without `--json` it prints the
//! EXPERIMENTS.md blocks rendered from the record it would emit.

use std::rc::Rc;
use std::time::Instant;

use bench::{cli, emit_json, experiments, JSON};
use lightbulb_system::bedrock2::Program;
use lightbulb_system::devices::{Board, SpiConfig, TrafficGen};
use lightbulb_system::integration::differential::{
    check_compiler_differential, default_shards, parallel_sweep, DiffError,
};
use lightbulb_system::integration::progen::ProgGen;
use lightbulb_system::integration::{build_image, end_to_end_lightbulb, SystemConfig};
use lightbulb_system::lightbulb::{lan9250_driver, layout, spi_driver};
use lightbulb_system::processor::{check_refinement, PipelineConfig};
use obs::json::Value;
use proglogic::symexec::{Invariant, MmioExtSpec, SymExec, VcError, VcReport};
use proglogic::{Formula, Term};

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn mmio() -> MmioExtSpec {
    MmioExtSpec {
        ranges: layout::mmio_ranges(),
    }
}

/// The trivial invariant of a polling loop: havoc what it assigns,
/// assume nothing.
fn polling_invariant(havoc: &[&str]) -> Invariant {
    Invariant {
        havoc: havoc.iter().map(|s| s.to_string()).collect(),
        holds: Rc::new(|_| vec![]),
    }
}

/// The three driver proofs of `lightbulb/tests/driver_verification.rs`:
/// the SPI byte transfers against the MMIO contract (`spi_get` also
/// returns a byte), and `lan_tryrecv` memory-safe for every frame length
/// with a result code below 4.
///
/// # Panics
///
/// Panics when a proof fails: every obligation of the real drivers must
/// prove.
fn driver_proofs() -> Vec<(&'static str, VcReport, f64)> {
    let put = Program::from_functions([spi_driver::spi_put(true)]);
    let get = Program::from_functions([spi_driver::spi_get(true)]);
    let mut fns = spi_driver::functions(true);
    fns.extend(lan9250_driver::functions(true, false));
    let recv = Program::from_functions(fns);

    let prove = |name: &'static str, check: &dyn Fn() -> Result<VcReport, VcError>| {
        let (report, secs) = timed(check);
        let report = report.unwrap_or_else(|e| panic!("{name} failed verification: {e}"));
        (name, report, secs)
    };
    vec![
        prove("spi_put", &|| {
            let mut se = SymExec::new(&put, mmio());
            se.set_invariant(0, polling_invariant(&["v", "i"]));
            se.check_function("spi_put", |st| vec![st.fresh("b")], |_, _| vec![])
        }),
        prove("spi_get", &|| {
            let mut se = SymExec::new(&get, mmio());
            se.set_invariant(0, polling_invariant(&["v", "i"]));
            se.check_function(
                "spi_get",
                |_| vec![],
                |_, rets| vec![Formula::ltu(&rets[0], &Term::constant(256))],
            )
        }),
        prove("lan_tryrecv", &|| {
            let mut se = SymExec::new(&recv, mmio());
            se.auto_invariants = true;
            se.check_function(
                "lan_tryrecv",
                |st| vec![st.add_region("buf", layout::RX_BUFFER_BYTES)],
                |_, rets| vec![Formula::ltu(&rets[1], &Term::constant(4))],
            )
        }),
    ]
}

fn main() {
    let json = cli(env!("CARGO_BIN_NAME"), &[JSON]).has("--json");
    // (name, seconds, work) of each check.
    let mut measured: Vec<(&str, f64, String)> = Vec::new();

    // 1. End-to-end check: boot + 2 packets + trace matching.
    let mut gen = TrafficGen::new(7);
    let frames = vec![gen.command(true), gen.command(false)];
    let (report, secs) = timed(|| {
        end_to_end_lightbulb(
            &SystemConfig::default(),
            &frames,
            600_000,
            Some(&[true, false]),
        )
        .expect("end-to-end check")
    });
    measured.push((
        "end_to_end",
        secs,
        format!(
            "{} events, {} cycles",
            report.events_checked, report.run.cycles
        ),
    ));

    // 2. Processor refinement over the booted system.
    let image = build_image(&SystemConfig::default());
    let mut board = Board::new(SpiConfig::default());
    board.inject_frame(&gen.command(true));
    let (r, secs) = timed(|| {
        check_refinement(
            &image.bytes(),
            0x1_0000,
            board,
            Board::claims,
            PipelineConfig::default(),
            2_000_000,
        )
        .expect("refinement")
    });
    measured.push(("refinement", secs, format!("{} events matched", r.events)));

    // 3. Compiler differential batch.
    let (n, secs) = timed(|| {
        let mut conclusive = 0;
        for seed in 0..40u64 {
            match check_compiler_differential(&ProgGen::new(seed).gen_program(), false) {
                Ok(()) => conclusive += 1,
                Err(DiffError::SourceUb(_)) => {}
                Err(e) => panic!("seed {seed}: {e}"),
            }
        }
        conclusive
    });
    measured.push(("compiler_differential", secs, format!("{n} conclusive")));

    // 3b. The same batch, sharded across every hardware thread.
    let shards = default_shards();
    let (r, secs) = timed(|| {
        let r = parallel_sweep(0..40, shards, |p| check_compiler_differential(p, false));
        r.expect_clean("verif_perf parallel differential");
        r
    });
    measured.push((
        "compiler_differential_parallel",
        secs,
        format!("{} conclusive, {} shards", r.conclusive, r.shards),
    ));

    // 4. The real driver proofs, one symbolic execution each.
    let proofs = driver_proofs();
    let work = |r: &VcReport| {
        format!(
            "{} obligations, {} paths, {} solver queries",
            r.obligations, r.paths, r.solver_queries
        )
    };
    let mut all = VcReport::default();
    for (_, r, _) in &proofs {
        all.obligations += r.obligations;
        all.paths += r.paths;
        all.solver_queries += r.solver_queries;
        all.solver_contexts += r.solver_contexts;
    }
    let proof_secs: f64 = proofs.iter().map(|(_, _, s)| s).sum();
    measured.push(("driver_proofs", proof_secs, work(&all)));

    let checks = Value::Arr(
        measured
            .iter()
            .map(|(name, secs, work)| {
                Value::obj()
                    .field("check", Value::Str((*name).to_string()))
                    .field("seconds", Value::Float(*secs))
                    .field("work", Value::Str(work.clone()))
            })
            .collect(),
    );
    let counts = |obj: Value, r: &VcReport, secs: f64| {
        obj.field("obligations", Value::UInt(r.obligations as u64))
            .field("paths", Value::UInt(r.paths as u64))
            .field("solver_queries", Value::UInt(r.solver_queries))
            .field("solver_contexts", Value::UInt(r.solver_contexts))
            .field("seconds", Value::Float(secs))
    };
    let per_proof = Value::Arr(
        proofs
            .iter()
            .map(|(name, r, secs)| {
                counts(
                    Value::obj().field("function", Value::Str((*name).into())),
                    r,
                    *secs,
                )
            })
            .collect(),
    );
    let driver = counts(Value::obj(), &all, proof_secs).field("proofs", per_proof);
    let data = Value::obj()
        .field("checks", checks)
        .field("driver_proofs", driver);
    if json {
        emit_json("verif_perf", data);
        return;
    }
    experiments::print_blocks("verif_perf", data);
    println!("paper: ~80 min Coq build + ~2 h Kami refinement checking per CI run.");
    println!("The executable checks trade assurance for a ~3-orders-of-magnitude");
    println!("faster feedback loop — the accidental-complexity point of §7.3.");
}

//! `driver_verify`: the real driver proofs through
//! `SymExec::check_function` — `spi_put`, `spi_get`, and `lan_tryrecv`
//! with automatic loop invariants — plus the guard-stripped
//! `lan_tryrecv`, which must fail with a bounds `ProofFailed`. Symbolic
//! execution and the solver only; no simulation, no matching. The input
//! is fixed; the seed is unused.

use crate::common::{timed, Run};
use crate::reference::{ProofCounts, Reference};
use lightbulb_system::bedrock2::ast::Stmt;
use lightbulb_system::bedrock2::Program;
use lightbulb_system::lightbulb::{lan9250_driver, layout, spi_driver};
use lightbulb_system::proglogic::symexec::{Invariant, MmioExtSpec, VcReport};
use lightbulb_system::proglogic::{Formula, SymExec, Term, VcError};
use std::rc::Rc;

pub struct Setup {
    put: Program,
    get: Program,
    recv: Program,
    /// `lan_tryrecv` without its frame-length guard.
    stripped: Program,
}

/// Replaces the `if (len < MIN) | (MAX < len)` guard with its else-arm:
/// the copy loop then runs for any length the device reports.
fn strip_guard(s: &Stmt) -> Stmt {
    match s {
        Stmt::If(c, t, e) if format!("{c:?}").contains("1520") => (**e).clone(),
        Stmt::If(c, t, e) => Stmt::If(
            c.clone(),
            Box::new(strip_guard(t)),
            Box::new(strip_guard(e)),
        ),
        Stmt::Block(ss) => Stmt::Block(ss.iter().map(strip_guard).collect()),
        Stmt::While(c, b) => Stmt::While(c.clone(), Box::new(strip_guard(b))),
        Stmt::Stackalloc(x, n, b) => Stmt::Stackalloc(x.clone(), *n, Box::new(strip_guard(b))),
        other => other.clone(),
    }
}

pub fn setup() -> Setup {
    let mut fns = spi_driver::functions(true);
    fns.extend(lan9250_driver::functions(true, false));
    let recv = Program::from_functions(fns);
    let mut stripped = recv.clone();
    let f = stripped
        .functions
        .get_mut("lan_tryrecv")
        .expect("the driver defines lan_tryrecv");
    f.body = strip_guard(&f.body);
    Setup {
        put: Program::from_functions([spi_driver::spi_put(true)]),
        get: Program::from_functions([spi_driver::spi_get(true)]),
        recv,
        stripped,
    }
}

fn mmio() -> MmioExtSpec {
    MmioExtSpec {
        ranges: layout::mmio_ranges(),
    }
}

fn polling_invariant(havoc: &[&str]) -> Invariant {
    Invariant {
        havoc: havoc.iter().map(|s| s.to_string()).collect(),
        holds: Rc::new(|_| vec![]),
    }
}

/// The four proofs of one op, in order. Each returns the executor's
/// result; the caller times them.
pub fn proofs(setup: &Setup) -> [Box<dyn Fn() -> Result<VcReport, VcError> + '_>; 4] {
    [
        Box::new(|| {
            let mut se = SymExec::new(&setup.put, mmio());
            se.set_invariant(0, polling_invariant(&["v", "i"]));
            se.check_function("spi_put", |st| vec![st.fresh("b")], |_, _| vec![])
        }),
        Box::new(|| {
            let mut se = SymExec::new(&setup.get, mmio());
            se.set_invariant(0, polling_invariant(&["v", "i"]));
            se.check_function(
                "spi_get",
                |_| vec![],
                |_, rets| vec![Formula::ltu(&rets[0], &Term::constant(256))],
            )
        }),
        Box::new(|| {
            let mut se = SymExec::new(&setup.recv, mmio());
            se.auto_invariants = true;
            se.check_function(
                "lan_tryrecv",
                |st| vec![st.add_region("buf", layout::RX_BUFFER_BYTES)],
                |_, rets| vec![Formula::ltu(&rets[1], &Term::constant(4))],
            )
        }),
        Box::new(|| {
            let mut se = SymExec::new(&setup.stripped, mmio());
            se.auto_invariants = true;
            se.check_function(
                "lan_tryrecv",
                |st| vec![st.add_region("buf", layout::RX_BUFFER_BYTES)],
                |_, _| vec![],
            )
        }),
    ]
}

/// The per-op totals of the three driver proofs, after checking that
/// each succeeded and that the negative control failed on a bounds
/// obligation.
pub fn totals(results: &[Result<VcReport, VcError>]) -> Result<ProofCounts, String> {
    let mut got = ProofCounts {
        obligations: 0,
        paths: 0,
        solver_queries: 0,
    };
    for (name, r) in ["spi_put", "spi_get", "lan_tryrecv"].iter().zip(results) {
        let r = r
            .as_ref()
            .map_err(|e| format!("{name} failed verification: {e:?}"))?;
        got.obligations += r.obligations as u64;
        got.paths += r.paths as u64;
        got.solver_queries += r.solver_queries;
    }
    match results.get(3) {
        Some(Err(VcError::ProofFailed { context, .. })) if context.contains("bounds") => Ok(got),
        other => Err(format!(
            "the guard-stripped lan_tryrecv must fail on bounds: {other:?}"
        )),
    }
}

/// Output check of one op: [`totals`] equal to the recorded ones.
pub fn check(
    results: &[Result<VcReport, VcError>],
    expected: Option<ProofCounts>,
) -> Result<ProofCounts, String> {
    let got = totals(results)?;
    match expected {
        Some(e) if e == got => Ok(got),
        Some(e) => Err(format!(
            "proof counts {got:?} differ from the recorded {e:?}"
        )),
        None => Err("no recorded proof counts".to_string()),
    }
}

pub fn run(run: &mut Run, reference: &Reference, setup: &Setup) {
    let mut k = 0;
    while run.more() {
        let proofs = proofs(setup);
        if run.tracer.is_none() {
            let (results, ms) = timed(|| proofs.iter().map(|p| p()).collect::<Vec<_>>());
            run.record(ms, check(&results, reference.proofs).map(drop));
            k += 1;
            continue;
        }
        let tr = run.tracer.as_mut().expect("traced run");
        tr.set_op(k);
        let op = tr.begin("perfbench", "op");
        let mut results = Vec::new();
        let mut solver_ms = 0.0;
        for p in &proofs {
            let (r, _) = tr.span("proglogic", "check_function", p);
            if let Ok(report) = &r {
                solver_ms += report.solver_micros as f64 / 1e3;
            }
            results.push(r);
        }
        let op_ms = tr.end(op);
        if let Ok(counts) = totals(&results) {
            run.add("proglogic.obligations", counts.obligations as f64);
            run.add("proglogic.paths", counts.paths as f64);
            run.add("proglogic.solver_queries", counts.solver_queries as f64);
        }
        run.add("core.op_ms", op_ms);
        run.add("proglogic.symexec_ms", op_ms);
        run.add("proglogic.solver_ms", solver_ms);
        run.record(op_ms, check(&results, reference.proofs).map(drop));
        k += 1;
    }
}

/// Records the proof totals of one op (the input is fixed).
pub fn record(setup: &Setup) -> ProofCounts {
    let results: Vec<_> = proofs(setup).iter().map(|p| p()).collect();
    totals(&results).unwrap_or_else(|e| panic!("driver proofs: {e}"))
}

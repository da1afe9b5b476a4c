//! A `vcgen`-style symbolic executor for Bedrock2.
//!
//! Mirrors §4.1 of the paper: for a statement `c`, a starting symbolic
//! state, and a postcondition, it computes what must be proved for `c` to
//! execute without undefined behavior and end in states satisfying the
//! postcondition — then discharges those obligations with
//! [`crate::solver`]. The correspondences:
//!
//! * undefined behavior (out-of-bounds/unresolved/misaligned memory,
//!   unbound variables) surfaces as a [`VcError`] — there is no "assume it
//!   is fine";
//! * loops are handled by user-supplied *invariants* (with havocking of the
//!   modified state), or bounded unrolling for statically short loops —
//!   the same choice the paper's `vcgen` offers (§4.1);
//! * external calls go through a pluggable [`ExtSpec`] — the `vcextern`
//!   parameter of §6.1 — which states the precondition the programmer
//!   must prove (e.g. "the address is in MMIO range") and universally
//!   quantifies the result (a fresh symbolic variable);
//! * the interaction trace is tracked symbolically so postconditions can
//!   constrain it; its events are shared between the states a fork makes,
//!   so a fork copies pointers, not events.
//!
//! Memory is a bag of disjoint *regions* (separation-logic style): symbolic
//! base, word-granular symbolic contents, with address resolution by
//! `base + constant-offset` decomposition. A havoc starts a new generation
//! of a region's contents in O(1): it reserves one fresh variable id per
//! word, and a word's variable is built only when it is read.

use crate::formula::Formula;
use crate::solver::{Context, Outcome};
use crate::term::Term;
use bedrock2::ast::{Expr, Program, Size, Stmt};
use obs::Counters;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt::{self, Write};
use std::rc::Rc;
use std::time::Instant;

/// Verification failure.
#[derive(Clone, Debug)]
pub enum VcError {
    /// Read of a variable with no symbolic value.
    UnboundVariable(String),
    /// A memory address did not decompose to a known region base plus a
    /// constant offset.
    UnresolvedAddress {
        /// Rendering of the offending address term.
        addr: String,
    },
    /// A resolved access fell outside its region.
    OutOfBounds {
        /// Region name.
        region: String,
        /// Byte offset of the access.
        offset: u32,
        /// Access width in bytes.
        size: u32,
    },
    /// A resolved access was not aligned to its width.
    Misaligned {
        /// Byte offset of the access.
        offset: u32,
        /// Access width in bytes.
        size: u32,
    },
    /// Call to an unknown function.
    UnknownFunction(String),
    /// An obligation could not be proved.
    ProofFailed {
        /// Rendering of the failed goal.
        goal: String,
        /// Where it arose ("external call precondition", …).
        context: String,
    },
    /// A loop had no invariant and did not exit within the unroll budget.
    UnsupportedLoop {
        /// The loop's static id (registration key for invariants).
        id: usize,
    },
    /// The external specification rejected a call outright.
    ExtRefused {
        /// The action name.
        action: String,
        /// Why.
        reason: String,
    },
    /// Call nesting exceeded the depth budget.
    TooDeep,
}

impl fmt::Display for VcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VcError::UnboundVariable(x) => write!(f, "unbound variable '{x}'"),
            VcError::UnresolvedAddress { addr } => write!(f, "cannot resolve address {addr}"),
            VcError::OutOfBounds {
                region,
                offset,
                size,
            } => {
                write!(
                    f,
                    "{size}-byte access at offset {offset} outside region '{region}'"
                )
            }
            VcError::Misaligned { offset, size } => {
                write!(f, "misaligned {size}-byte access at offset {offset}")
            }
            VcError::UnknownFunction(n) => write!(f, "unknown function '{n}'"),
            VcError::ProofFailed { goal, context } => {
                write!(f, "could not prove {goal} ({context})")
            }
            VcError::UnsupportedLoop { id } => {
                write!(f, "loop #{id} needs an invariant or a smaller bound")
            }
            VcError::ExtRefused { action, reason } => {
                write!(f, "external call '{action}' refused: {reason}")
            }
            VcError::TooDeep => write!(f, "call nesting too deep"),
        }
    }
}

impl std::error::Error for VcError {}

/// A separation-logic-style memory region with symbolic word contents.
///
/// The contents are one *generation* of fresh variables plus the words
/// stored since: after allocation or a havoc, word `i` is variable
/// `first + i`, named `name[i]` (or `name'[i]` once havocked), and it is
/// built only when read. A havoc therefore costs O(1) yet allocates the
/// same ids a word-by-word havoc would.
#[derive(Clone, Debug)]
pub struct Region {
    /// Diagnostic name.
    pub name: String,
    /// Symbolic base address (assumed word-aligned by construction).
    pub base: Term,
    /// Number of words.
    len: usize,
    /// Id of word 0's variable in the current generation.
    first: u32,
    /// The current generation comes from a havoc (`name'[i]`), not from
    /// allocation (`name[i]`).
    primed: bool,
    /// Words stored since the current generation began, by index.
    written: Vec<(usize, Term)>,
}

impl Region {
    /// Number of words.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a region of no words.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Word `i`, holding bytes `[4i, 4i+4)`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is not below [`Region::len`].
    pub fn word(&self, i: usize) -> Term {
        assert!(i < self.len, "word {i} outside region '{}'", self.name);
        if let Some((_, t)) = self.written.iter().find(|(w, _)| *w == i) {
            return t.clone();
        }
        let prime = if self.primed { "'" } else { "" };
        Term::var(self.first + i as u32, &format!("{}{prime}[{i}]", self.name))
    }

    fn write(&mut self, i: usize, t: Term) {
        match self.written.iter_mut().find(|(w, _)| *w == i) {
            Some(slot) => slot.1 = t,
            None => self.written.push((i, t)),
        }
    }
}

/// One symbolic interaction-trace record: `(action, args, rets)`.
pub type SymEvent = (String, Vec<Term>, Vec<Term>);

/// The symbolic machine state: locals, path condition, memory, trace.
#[derive(Clone, Debug, Default)]
pub struct SymState {
    /// Bedrock2 locals, symbolically.
    pub locals: HashMap<String, Term>,
    /// Path condition (conjunction of assumptions).
    pub path: Vec<Formula>,
    /// Disjoint memory regions.
    pub regions: Vec<Region>,
    /// Symbolic interaction trace, oldest first. Events are shared, so a
    /// fork copies pointers.
    pub trace: Vec<Rc<SymEvent>>,
    next_var: u32,
}

impl SymState {
    /// A fresh symbolic variable.
    pub fn fresh(&mut self, name: &str) -> Term {
        let t = Term::var(self.next_var, name);
        self.next_var += 1;
        t
    }

    /// Reserves `n` consecutive variable ids; returns the first.
    fn reserve(&mut self, n: usize) -> u32 {
        let first = self.next_var;
        self.next_var += n as u32;
        first
    }

    /// Adds an assumption to the path condition.
    pub fn assume(&mut self, f: Formula) {
        if !f.is_true() {
            self.path.push(f);
        }
    }

    /// Allocates a region of `nbytes` (rounded up to words) with fresh
    /// symbolic contents and a fresh symbolic base; returns the base term.
    pub fn add_region(&mut self, name: &str, nbytes: u32) -> Term {
        let base = self.fresh(&format!("{name}_base"));
        let len = nbytes.div_ceil(4) as usize;
        let first = self.reserve(len);
        self.regions.push(Region {
            name: name.to_string(),
            base: base.clone(),
            len,
            first,
            primed: false,
            written: Vec::new(),
        });
        base
    }

    fn region_of(&mut self, base: &Term) -> Option<usize> {
        self.regions.iter().position(|r| r.base == *base)
    }

    fn mem_access(&mut self, size: Size, addr: &Term) -> Result<(usize, usize, u32), VcError> {
        let (base, off) = addr.split_offset();
        let Some(ri) = self.region_of(&base) else {
            return Err(VcError::UnresolvedAddress {
                addr: format!("{addr:?}"),
            });
        };
        let n = size.bytes();
        let r = &self.regions[ri];
        if (off as u64) + (n as u64) > (r.len as u64) * 4 {
            return Err(VcError::OutOfBounds {
                region: r.name.clone(),
                offset: off,
                size: n,
            });
        }
        if off % n != 0 {
            return Err(VcError::Misaligned {
                offset: off,
                size: n,
            });
        }
        Ok((ri, (off / 4) as usize, off % 4))
    }

    /// Decomposes `addr` as `region_base + symbolic_offset` where exactly
    /// one addend of the (flattened) sum is a region base. Returns the
    /// region index and the offset term. This is the symbolic-index path
    /// (e.g. `buf + 4·i`): the caller must *prove* bounds and alignment of
    /// the offset instead of checking them syntactically.
    fn linear_access(&self, addr: &Term) -> Option<(usize, Term)> {
        fn addends(t: &Term, out: &mut Vec<Term>) {
            if let Some((bedrock2::ast::BinOp::Add, a, b)) = t.as_op() {
                addends(a, out);
                addends(b, out);
            } else {
                out.push(t.clone());
            }
        }
        let mut parts = Vec::new();
        addends(addr, &mut parts);
        let mut region = None;
        let mut offset_parts = Vec::new();
        for p in parts {
            match self.regions.iter().position(|r| r.base == p) {
                Some(ri) if region.is_none() => region = Some(ri),
                Some(_) => return None, // two bases: not a single region
                None => offset_parts.push(p),
            }
        }
        let ri = region?;
        let mut offset = Term::constant(0);
        for p in offset_parts {
            offset = offset.add(&p);
        }
        Some((ri, offset))
    }

    /// Weak update: the region's contents become unknown (sound for
    /// safety; symbolic-index stores lose value precision). Every word
    /// becomes a fresh `name'[i]` of a new generation, and the stores of
    /// the old one are forgotten.
    fn havoc_region(&mut self, ri: usize) {
        let first = self.reserve(self.regions[ri].len);
        let r = &mut self.regions[ri];
        r.first = first;
        r.primed = true;
        r.written.clear();
    }

    fn load(&mut self, size: Size, addr: &Term) -> Result<Term, VcError> {
        let (ri, wi, lane) = self.mem_access(size, addr)?;
        Ok(extract(size, lane, &self.regions[ri].word(wi)))
    }

    fn store(&mut self, size: Size, addr: &Term, value: &Term) -> Result<(), VcError> {
        let (ri, wi, lane) = self.mem_access(size, addr)?;
        let r = &mut self.regions[ri];
        r.write(wi, inject(size, lane, &r.word(wi), value));
        Ok(())
    }

    /// Havocs every memory word and the listed locals (used when entering
    /// a loop whose invariant abstracts the modified state).
    fn havoc(&mut self, locals: &[String]) {
        for ri in 0..self.regions.len() {
            self.havoc_region(ri);
        }
        let mut buf = String::new();
        for x in locals {
            buf.clear();
            let _ = write!(buf, "{x}'");
            let fresh = self.fresh(&buf);
            self.locals.insert(x.clone(), fresh);
        }
    }
}

fn extract(size: Size, lane: u32, w: &Term) -> Term {
    use bedrock2::ast::BinOp::*;
    match size {
        Size::Four => w.clone(),
        Size::One | Size::Two => {
            let sh = Term::constant(8 * lane);
            let mask = Term::constant(size.mask());
            Term::op(And, &Term::op(Sru, w, &sh), &mask)
        }
    }
}

fn inject(size: Size, lane: u32, old: &Term, value: &Term) -> Term {
    use bedrock2::ast::BinOp::*;
    match size {
        Size::Four => value.clone(),
        Size::One | Size::Two => {
            let sh = Term::constant(8 * lane);
            let keep = Term::constant(!(size.mask() << (8 * lane)));
            let v = Term::op(
                Slu,
                &Term::op(And, value, &Term::constant(size.mask())),
                &sh,
            );
            Term::op(Or, &Term::op(And, old, &keep), &v)
        }
    }
}

/// The result of an external-call specification.
#[derive(Clone, Debug)]
pub struct ExtResult {
    /// Obligations the caller must prove (the call's precondition).
    pub require: Vec<Formula>,
    /// Result terms (typically fresh variables — the universal quantifier
    /// of `vcextern`).
    pub rets: Vec<Term>,
    /// Facts that may be assumed about the results.
    pub assume: Vec<Formula>,
}

/// The `vcextern` parameter (§6.1).
pub trait ExtSpec {
    /// Specifies one external call.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the action is unknown or structurally
    /// misused (wrong arity).
    fn apply(&self, action: &str, args: &[Term], st: &mut SymState) -> Result<ExtResult, String>;
}

/// An MMIO external-call specification over a fixed set of address ranges:
/// `MMIOREAD`/`MMIOWRITE` require a word-aligned address within range and
/// return unconstrained fresh values — the concrete `vcextern` instance of
/// the lightbulb platform (§6.1).
#[derive(Clone, Debug)]
pub struct MmioExtSpec {
    /// Allowed `[lo, hi)` address ranges.
    pub ranges: Vec<(u32, u32)>,
}

impl MmioExtSpec {
    fn in_range(&self, addr: &Term) -> Formula {
        self.ranges
            .iter()
            .map(|(lo, hi)| {
                Formula::leu(&Term::constant(*lo), addr)
                    .and(Formula::ltu(addr, &Term::constant(*hi)))
            })
            .fold(Formula::falsehood(), Formula::or)
    }

    fn aligned(addr: &Term) -> Formula {
        Formula::eq(
            &Term::op(bedrock2::ast::BinOp::And, addr, &Term::constant(3)),
            &Term::constant(0),
        )
    }
}

impl ExtSpec for MmioExtSpec {
    fn apply(&self, action: &str, args: &[Term], st: &mut SymState) -> Result<ExtResult, String> {
        match (action, args) {
            ("MMIOREAD", [addr]) => Ok(ExtResult {
                require: vec![self.in_range(addr), Self::aligned(addr)],
                rets: vec![st.fresh("mmio_read")],
                assume: vec![],
            }),
            ("MMIOWRITE", [addr, _value]) => Ok(ExtResult {
                require: vec![self.in_range(addr), Self::aligned(addr)],
                rets: vec![],
                assume: vec![],
            }),
            _ => Err(format!("unknown external '{action}' or wrong arity")),
        }
    }
}

/// The predicate half of an [`Invariant`]: obligations over a state.
pub type StatePred = Rc<dyn Fn(&SymState) -> Vec<Formula>>;

/// A loop invariant: which locals the body modifies, and what holds at the
/// head of every iteration.
#[derive(Clone)]
pub struct Invariant {
    /// Locals to havoc (everything the body may assign).
    pub havoc: Vec<String>,
    /// The invariant itself, as obligations over the havoced state.
    pub holds: StatePred,
}

/// The symbolic executor.
pub struct SymExec<'p, E> {
    prog: &'p Program,
    /// The external-call specification.
    pub ext: E,
    /// Unroll budget for loops without invariants.
    pub unroll_limit: usize,
    /// Invariants by static loop id (traversal order across the program's
    /// functions, alphabetical then pre-order).
    pub invariants: HashMap<usize, Invariant>,
    /// When set, loops without a registered invariant get an automatic
    /// trivial one (havoc everything the body assigns, assume nothing)
    /// instead of being unrolled. Path facts established *outside* the
    /// loop and the loop condition itself still hold, which is enough for
    /// push-button memory/MMIO **safety** checking of whole drivers —
    /// functional postconditions usually still need real invariants.
    pub auto_invariants: bool,
    call_depth_limit: usize,
    solver_queries: Cell<u64>,
    solver_contexts: Cell<u64>,
    solver_nanos: Cell<u64>,
    /// The solver context of the last path condition asked about: the
    /// queries of one state (its obligations, one after the other) share
    /// it.
    last_context: RefCell<Option<Context>>,
}

/// Statistics from a successful verification, exported as `proglogic.*`
/// counters by [`VcReport::counters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VcReport {
    /// Symbolic paths fully explored.
    pub paths: usize,
    /// Obligations discharged by the solver.
    pub obligations: usize,
    /// Feasible branch continuations explored at `if` forks.
    pub branches: u64,
    /// Solver queries issued (proofs and feasibility checks).
    pub solver_queries: u64,
    /// Solver contexts built: a query whose path condition equals the
    /// previous query's reuses that query's context.
    pub solver_contexts: u64,
    /// Total solver wall time, in microseconds.
    pub solver_micros: u64,
}

impl VcReport {
    /// Exports the report as `proglogic.*` named counters.
    pub fn counters(&self) -> Counters {
        let mut c = Counters::new();
        c.set("proglogic.vc.paths", self.paths as u64);
        c.set("proglogic.vc.obligations", self.obligations as u64);
        c.set("proglogic.symexec.branches", self.branches);
        c.set("proglogic.solver.queries", self.solver_queries);
        c.set("proglogic.solver.contexts", self.solver_contexts);
        c.set("proglogic.solver.micros", self.solver_micros);
        c.set("proglogic.solver.proved", self.obligations as u64);
        c
    }
}

impl<'p, E: ExtSpec> SymExec<'p, E> {
    /// Creates an executor over `prog` with external specification `ext`.
    pub fn new(prog: &'p Program, ext: E) -> SymExec<'p, E> {
        SymExec {
            prog,
            ext,
            unroll_limit: 16,
            invariants: HashMap::new(),
            auto_invariants: false,
            call_depth_limit: 8,
            solver_queries: Cell::new(0),
            solver_contexts: Cell::new(0),
            solver_nanos: Cell::new(0),
            last_context: RefCell::new(None),
        }
    }

    /// Asks `ask` of the solver context of `path`, accounting the query
    /// and its wall time. The context is rebuilt only when `path` differs
    /// from the last one asked about (elementwise `==`, pointer equality
    /// for interned formulas).
    fn query<T>(&self, path: &[Formula], ask: impl FnOnce(&Context) -> T) -> T {
        let t = Instant::now();
        let mut cached = self.last_context.borrow_mut();
        if !matches!(&*cached, Some(ctx) if ctx.assumptions() == path) {
            *cached = Some(Context::new(path));
            self.solver_contexts.set(self.solver_contexts.get() + 1);
        }
        let out = ask(cached.as_ref().expect("context built above"));
        self.solver_nanos
            .set(self.solver_nanos.get() + t.elapsed().as_nanos() as u64);
        self.solver_queries.set(self.solver_queries.get() + 1);
        out
    }

    /// [`Context::prove`] of `goal` under `assumptions`.
    fn solve(&self, assumptions: &[Formula], goal: &Formula) -> Outcome {
        self.query(assumptions, |ctx| ctx.prove(goal))
    }

    /// [`Context::contradictory`] of `path`.
    fn infeasible(&self, path: &[Formula]) -> bool {
        self.query(path, Context::contradictory)
    }

    /// Registers an invariant for the loop with static id `id` (ids are
    /// assigned in pre-order per function, functions in name order; see
    /// [`label_loops`]).
    pub fn set_invariant(&mut self, id: usize, inv: Invariant) {
        self.invariants.insert(id, inv);
    }

    /// Verifies `name` against a precondition (the `setup` closure builds
    /// the initial symbolic state and returns the argument terms) and a
    /// postcondition (obligations over each final state and its returns).
    ///
    /// # Errors
    ///
    /// The first [`VcError`] encountered on any path.
    pub fn check_function(
        &self,
        name: &str,
        setup: impl FnOnce(&mut SymState) -> Vec<Term>,
        post: impl Fn(&SymState, &[Term]) -> Vec<Formula>,
    ) -> Result<VcReport, VcError> {
        let f = self
            .prog
            .function(name)
            .ok_or_else(|| VcError::UnknownFunction(name.to_string()))?;
        let loop_ids = label_loops(self.prog);
        let mut st = SymState::default();
        let args = setup(&mut st);
        for (p, a) in f.params.iter().zip(args) {
            st.locals.insert(p.clone(), a);
        }
        self.solver_queries.set(0);
        self.solver_contexts.set(0);
        self.solver_nanos.set(0);
        self.last_context.replace(None);
        let mut report = VcReport::default();
        let finals = self.exec(&f.body, vec![st], &loop_ids, 0, &mut report)?;
        for st in finals {
            let rets: Vec<Term> = f
                .rets
                .iter()
                .map(|r| {
                    st.locals
                        .get(r)
                        .cloned()
                        .ok_or_else(|| VcError::UnboundVariable(r.clone()))
                })
                .collect::<Result<_, _>>()?;
            for goal in post(&st, &rets) {
                self.discharge(&st, &goal, format_args!("postcondition"), &mut report)?;
            }
            report.paths += 1;
        }
        report.solver_queries = self.solver_queries.get();
        report.solver_contexts = self.solver_contexts.get();
        report.solver_micros = self.solver_nanos.get() / 1_000;
        Ok(report)
    }

    /// Proves an obligation and counts it in `report`.
    fn discharge(
        &self,
        st: &SymState,
        goal: &Formula,
        context: fmt::Arguments<'_>,
        report: &mut VcReport,
    ) -> Result<(), VcError> {
        self.prove_mem(st, goal, context)?;
        report.obligations += 1;
        Ok(())
    }

    /// Proves `goal` under the state's path condition. The `context` is
    /// rendered only when the proof fails.
    fn prove_mem(
        &self,
        st: &SymState,
        goal: &Formula,
        context: fmt::Arguments<'_>,
    ) -> Result<(), VcError> {
        match self.solve(&st.path, goal) {
            Outcome::Proved => Ok(()),
            Outcome::Unknown => Err(VcError::ProofFailed {
                goal: format!("{goal:?}"),
                context: context.to_string(),
            }),
        }
    }

    /// A load through either the constant-offset fast path or the
    /// symbolic-index path (bounds and alignment proved, value unknown).
    fn sym_load(&self, st: &mut SymState, size: Size, addr: &Term) -> Result<Term, VcError> {
        match st.load(size, addr) {
            Err(VcError::UnresolvedAddress { .. }) => {
                let Some((ri, off)) = st.linear_access(addr) else {
                    return Err(VcError::UnresolvedAddress {
                        addr: format!("{addr:?}"),
                    });
                };
                self.prove_symbolic_access(st, ri, &off, size)?;
                Ok(st.fresh("load"))
            }
            other => other,
        }
    }

    /// A store through either path; the symbolic-index path weak-updates
    /// the whole region.
    fn sym_store(
        &self,
        st: &mut SymState,
        size: Size,
        addr: &Term,
        value: &Term,
    ) -> Result<(), VcError> {
        match st.store(size, addr, value) {
            Err(VcError::UnresolvedAddress { .. }) => {
                let Some((ri, off)) = st.linear_access(addr) else {
                    return Err(VcError::UnresolvedAddress {
                        addr: format!("{addr:?}"),
                    });
                };
                self.prove_symbolic_access(st, ri, &off, size)?;
                st.havoc_region(ri);
                Ok(())
            }
            other => other,
        }
    }

    /// Obligations for a symbolic-index access: `off + n ≤ region size`
    /// (no overrun — the §3 property) and `off mod n = 0` (alignment;
    /// region bases are word-aligned by construction).
    fn prove_symbolic_access(
        &self,
        st: &SymState,
        ri: usize,
        off: &Term,
        size: Size,
    ) -> Result<(), VcError> {
        let n = size.bytes();
        let bytes = (st.regions[ri].len as u32) * 4;
        let name = &st.regions[ri].name;
        self.prove_mem(
            st,
            &Formula::leu(&off.add_const(n), &Term::constant(bytes)),
            format_args!("bounds of symbolic access into '{name}'"),
        )?;
        if n > 1 {
            self.prove_mem(
                st,
                &Formula::eq(
                    &Term::op(bedrock2::ast::BinOp::RemU, off, &Term::constant(n)),
                    &Term::constant(0),
                ),
                format_args!("alignment of symbolic access into '{name}'"),
            )?;
        }
        Ok(())
    }

    fn eval(&self, e: &Expr, st: &mut SymState) -> Result<Term, VcError> {
        match e {
            Expr::Literal(c) => Ok(Term::constant(*c)),
            Expr::Var(x) => st
                .locals
                .get(x)
                .cloned()
                .ok_or_else(|| VcError::UnboundVariable(x.clone())),
            Expr::Load(size, a) => {
                let addr = self.eval(a, st)?;
                self.sym_load(st, *size, &addr)
            }
            Expr::Op(op, a, b) => {
                let ta = self.eval(a, st)?;
                let tb = self.eval(b, st)?;
                Ok(Term::op(*op, &ta, &tb))
            }
        }
    }

    fn exec(
        &self,
        s: &Stmt,
        states: Vec<SymState>,
        loop_ids: &HashMap<usize, usize>,
        depth: usize,
        report: &mut VcReport,
    ) -> Result<Vec<SymState>, VcError> {
        let mut out = Vec::new();
        for st in states {
            out.extend(self.exec1(s, st, loop_ids, depth, report)?);
        }
        Ok(out)
    }

    fn exec1(
        &self,
        s: &Stmt,
        mut st: SymState,
        loop_ids: &HashMap<usize, usize>,
        depth: usize,
        report: &mut VcReport,
    ) -> Result<Vec<SymState>, VcError> {
        match s {
            Stmt::Skip => Ok(vec![st]),
            Stmt::Set(x, e) => {
                let t = self.eval(e, &mut st)?;
                st.locals.insert(x.clone(), t);
                Ok(vec![st])
            }
            Stmt::Store(size, ea, ev) => {
                let addr = self.eval(ea, &mut st)?;
                let val = self.eval(ev, &mut st)?;
                self.sym_store(&mut st, *size, &addr, &val)?;
                Ok(vec![st])
            }
            Stmt::If(c, t, e) => {
                let ct = self.eval(c, &mut st)?;
                let tf = Formula::truthy(&ct);
                let mut branches = Vec::new();
                let mut st_t = st.clone();
                st_t.assume(tf.clone());
                if !self.infeasible(&st_t.path) {
                    report.branches += 1;
                    branches.extend(self.exec1(t, st_t, loop_ids, depth, report)?);
                }
                let mut st_f = st;
                st_f.assume(tf.negate());
                if !self.infeasible(&st_f.path) {
                    report.branches += 1;
                    branches.extend(self.exec1(e, st_f, loop_ids, depth, report)?);
                }
                Ok(branches)
            }
            Stmt::While(c, body) => {
                let id = *loop_ids
                    .get(&(s as *const Stmt as usize))
                    .expect("loop labeled in pre-pass");
                if let Some(inv) = self.invariants.get(&id) {
                    self.exec_invariant_loop(c, body, inv, st, loop_ids, depth, report)
                } else if self.auto_invariants {
                    let inv = Invariant {
                        havoc: assigned_locals(body),
                        holds: Rc::new(|_| vec![]),
                    };
                    self.exec_invariant_loop(c, body, &inv, st, loop_ids, depth, report)
                } else {
                    self.exec_unrolled_loop(id, c, body, st, loop_ids, depth, report)
                }
            }
            Stmt::Block(ss) => {
                let mut states = vec![st];
                for s in ss {
                    states = self.exec(s, states, loop_ids, depth, report)?;
                }
                Ok(states)
            }
            Stmt::Call(rets, fname, args) => {
                if depth >= self.call_depth_limit {
                    return Err(VcError::TooDeep);
                }
                let f = self
                    .prog
                    .function(fname)
                    .ok_or_else(|| VcError::UnknownFunction(fname.clone()))?;
                let argv: Vec<Term> = args
                    .iter()
                    .map(|a| self.eval(a, &mut st))
                    .collect::<Result<_, _>>()?;
                // Execute the callee body on callee-local variables.
                let caller_locals = std::mem::take(&mut st.locals);
                st.locals = f.params.iter().cloned().zip(argv).collect();
                let finals = self.exec1(&f.body, st, loop_ids, depth + 1, report)?;
                let mut out = Vec::new();
                for mut fs in finals {
                    let retv: Vec<Term> = f
                        .rets
                        .iter()
                        .map(|r| {
                            fs.locals
                                .get(r)
                                .cloned()
                                .ok_or_else(|| VcError::UnboundVariable(r.clone()))
                        })
                        .collect::<Result<_, _>>()?;
                    fs.locals = caller_locals.clone();
                    for (r, v) in rets.iter().zip(retv) {
                        fs.locals.insert(r.clone(), v);
                    }
                    out.push(fs);
                }
                Ok(out)
            }
            Stmt::Interact(rets, action, args) => {
                let argv: Vec<Term> = args
                    .iter()
                    .map(|a| self.eval(a, &mut st))
                    .collect::<Result<_, _>>()?;
                let result = self.ext.apply(action, &argv, &mut st).map_err(|reason| {
                    VcError::ExtRefused {
                        action: action.clone(),
                        reason,
                    }
                })?;
                for req in &result.require {
                    self.discharge(&st, req, format_args!("precondition of {action}"), report)?;
                }
                st.trace
                    .push(Rc::new((action.clone(), argv, result.rets.clone())));
                for f in result.assume {
                    st.assume(f);
                }
                for (r, v) in rets.iter().zip(result.rets) {
                    st.locals.insert(r.clone(), v);
                }
                Ok(vec![st])
            }
            Stmt::Stackalloc(x, nbytes, body) => {
                let base = st.add_region(x, *nbytes);
                st.locals.insert(x.clone(), base);
                self.exec1(body, st, loop_ids, depth, report)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_unrolled_loop(
        &self,
        id: usize,
        c: &Expr,
        body: &Stmt,
        st: SymState,
        loop_ids: &HashMap<usize, usize>,
        depth: usize,
        report: &mut VcReport,
    ) -> Result<Vec<SymState>, VcError> {
        let mut live = vec![st];
        let mut done = Vec::new();
        for _ in 0..=self.unroll_limit {
            let mut next = Vec::new();
            for mut st in live {
                let ct = self.eval(c, &mut st)?;
                let tf = Formula::truthy(&ct);
                let mut exit = st.clone();
                exit.assume(tf.clone().negate());
                if !self.infeasible(&exit.path) {
                    done.push(exit);
                }
                let mut again = st;
                again.assume(tf);
                if !self.infeasible(&again.path) {
                    next.extend(self.exec1(body, again, loop_ids, depth, report)?);
                }
            }
            live = next;
            if live.is_empty() {
                return Ok(done);
            }
        }
        Err(VcError::UnsupportedLoop { id })
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_invariant_loop(
        &self,
        c: &Expr,
        body: &Stmt,
        inv: &Invariant,
        mut st: SymState,
        loop_ids: &HashMap<usize, usize>,
        depth: usize,
        report: &mut VcReport,
    ) -> Result<Vec<SymState>, VcError> {
        // 1. Establishment.
        for goal in (inv.holds)(&st) {
            self.discharge(
                &st,
                &goal,
                format_args!("loop invariant (establishment)"),
                report,
            )?;
        }
        // 2. Arbitrary iteration: havoc, assume invariant.
        st.havoc(&inv.havoc);
        for f in (inv.holds)(&st) {
            st.assume(f);
        }
        let ct = self.eval(c, &mut st)?;
        let tf = Formula::truthy(&ct);
        // 3. Preservation: body re-establishes the invariant.
        let mut iter = st.clone();
        iter.assume(tf.clone());
        if !self.infeasible(&iter.path) {
            for body_final in self.exec1(body, iter, loop_ids, depth, report)? {
                for goal in (inv.holds)(&body_final) {
                    self.discharge(
                        &body_final,
                        &goal,
                        format_args!("loop invariant (preservation)"),
                        report,
                    )?;
                }
            }
        }
        // 4. Exit.
        let mut exit = st;
        exit.assume(tf.negate());
        Ok(vec![exit])
    }
}

/// Local variables a statement may assign (the automatic havoc set for
/// [`SymExec::auto_invariants`]).
pub fn assigned_locals(s: &Stmt) -> Vec<String> {
    fn walk(s: &Stmt, out: &mut Vec<String>) {
        let mut push = |x: &String| {
            if !out.contains(x) {
                out.push(x.clone());
            }
        };
        match s {
            Stmt::Set(x, _) => push(x),
            Stmt::If(_, t, e) => {
                walk(t, out);
                walk(e, out);
            }
            Stmt::While(_, b) => walk(b, out),
            Stmt::Block(ss) => ss.iter().for_each(|s| walk(s, out)),
            Stmt::Call(rets, _, _) | Stmt::Interact(rets, _, _) => {
                rets.iter().for_each(|r| {
                    if !out.contains(r) {
                        out.push(r.clone());
                    }
                });
            }
            Stmt::Stackalloc(x, _, b) => {
                push(x);
                walk(b, out);
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(s, &mut out);
    out
}

/// Assigns static ids to every `While` in the program: functions in name
/// order, loops in pre-order within each body. The ids key
/// [`SymExec::set_invariant`].
pub fn label_loops(prog: &Program) -> HashMap<usize, usize> {
    let mut ids = HashMap::new();
    let mut next = 0;
    for f in prog.functions.values() {
        label_stmt(&f.body, &mut ids, &mut next);
    }
    ids
}

fn label_stmt(s: &Stmt, ids: &mut HashMap<usize, usize>, next: &mut usize) {
    match s {
        Stmt::While(_, body) => {
            ids.insert(s as *const Stmt as usize, *next);
            *next += 1;
            label_stmt(body, ids, next);
        }
        Stmt::If(_, t, e) => {
            label_stmt(t, ids, next);
            label_stmt(e, ids, next);
        }
        Stmt::Block(ss) => ss.iter().for_each(|s| label_stmt(s, ids, next)),
        Stmt::Stackalloc(_, _, b) => label_stmt(b, ids, next),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bedrock2::ast::Function;
    use bedrock2::dsl::*;

    fn mmio_spec() -> MmioExtSpec {
        MmioExtSpec {
            ranges: vec![(0x1001_2000, 0x1001_3000), (0x1002_4000, 0x1002_5000)],
        }
    }

    #[test]
    fn straight_line_arithmetic_verifies() {
        let f = Function::new("f", &["x"], &["r"], set("r", add(var("x"), lit(1))));
        let p = Program::from_functions([f]);
        let se = SymExec::new(&p, mmio_spec());
        let report = se
            .check_function(
                "f",
                |st| vec![st.fresh("x")],
                |_st, rets| {
                    // r = x + 1 cannot be proved without knowing x, but
                    // r - 1 < 10 follows from an x bound; instead check a
                    // tautology over the result: r = r.
                    vec![Formula::eq(&rets[0], &rets[0])]
                },
            )
            .unwrap();
        assert_eq!(report.paths, 1);
    }

    #[test]
    fn bounds_flow_into_postconditions() {
        // f(len) -> padded: padded = (len + 3) / 4 * 4, prove padded < 2048
        // given len < 1520.
        let f = Function::new(
            "pad",
            &["len"],
            &["p"],
            set("p", mul(divu(add(var("len"), lit(3)), lit(4)), lit(4))),
        );
        let p = Program::from_functions([f]);
        let se = SymExec::new(&p, mmio_spec());
        se.check_function(
            "pad",
            |st| {
                let len = st.fresh("len");
                st.assume(Formula::ltu(&len, &Term::constant(1520)));
                vec![len]
            },
            |_st, rets| vec![Formula::ltu(&rets[0], &Term::constant(2048))],
        )
        .unwrap();
    }

    #[test]
    fn memory_roundtrip_verifies() {
        // store4(p, 7); r = load4(p); prove r = 7.
        let f = Function::new(
            "wr",
            &["p"],
            &["r"],
            block([store4(var("p"), lit(7)), set("r", load4(var("p")))]),
        );
        let p = Program::from_functions([f]);
        let se = SymExec::new(&p, mmio_spec());
        se.check_function(
            "wr",
            |st| vec![st.add_region("buf", 8)],
            |_st, rets| vec![Formula::eq(&rets[0], &Term::constant(7))],
        )
        .unwrap();
    }

    #[test]
    fn byte_store_into_word_verifies() {
        // store1(p+1, 0xAA) then load1(p+1) = 0xAA.
        let f = Function::new(
            "b",
            &["p"],
            &["r"],
            block([
                store4(var("p"), lit(0x11223344)),
                store1(add(var("p"), lit(1)), lit(0xAA)),
                set("r", load1(add(var("p"), lit(1)))),
            ]),
        );
        let p = Program::from_functions([f]);
        let se = SymExec::new(&p, mmio_spec());
        se.check_function(
            "b",
            |st| vec![st.add_region("buf", 4)],
            |_st, rets| vec![Formula::eq(&rets[0], &Term::constant(0xAA))],
        )
        .unwrap();
    }

    #[test]
    fn out_of_bounds_is_a_vc_error() {
        let f = Function::new("oob", &["p"], &[], store4(add(var("p"), lit(8)), lit(1)));
        let p = Program::from_functions([f]);
        let se = SymExec::new(&p, mmio_spec());
        let err = se.check_function("oob", |st| vec![st.add_region("buf", 8)], |_, _| vec![]);
        assert!(matches!(err, Err(VcError::OutOfBounds { .. })), "{err:?}");
    }

    #[test]
    fn mmio_precondition_is_enforced() {
        // Writing a constant in-range address verifies…
        let ok = Function::new(
            "ok",
            &[],
            &[],
            interact(&[], "MMIOWRITE", [lit(0x1001_200C), lit(1)]),
        );
        // …writing an arbitrary address does not.
        let bad = Function::new(
            "bad",
            &["a"],
            &[],
            interact(&[], "MMIOWRITE", [var("a"), lit(1)]),
        );
        let p = Program::from_functions([ok, bad]);
        let se = SymExec::new(&p, mmio_spec());
        se.check_function("ok", |_| vec![], |_, _| vec![]).unwrap();
        let err = se.check_function("bad", |st| vec![st.fresh("a")], |_, _| vec![]);
        assert!(matches!(err, Err(VcError::ProofFailed { .. })), "{err:?}");
    }

    #[test]
    fn guarded_mmio_verifies() {
        // The §6.1 pattern: the *programmer* proves range membership by
        // guarding the call. Nested `when`s keep each conjunct a separate
        // path assumption (the solver deliberately does not decompose
        // bitwise-and of boolean terms).
        let f = Function::new(
            "guarded",
            &["a"],
            &[],
            when(
                ltu(var("a"), lit(0x1001_3000)),
                when(
                    eq(ltu(var("a"), lit(0x1001_2000)), lit(0)),
                    when(
                        eq(and(var("a"), lit(3)), lit(0)),
                        interact(&[], "MMIOWRITE", [var("a"), lit(1)]),
                    ),
                ),
            ),
        );
        let p = Program::from_functions([f]);
        let se = SymExec::new(&p, mmio_spec());
        se.check_function("guarded", |st| vec![st.fresh("a")], |_, _| vec![])
            .unwrap();
    }

    #[test]
    fn trace_postconditions_see_external_calls() {
        // v = MMIOREAD(0x1002404C); then each arm of `if c` reads its own
        // address into w.
        let f = Function::new(
            "io",
            &["c"],
            &["v", "w"],
            block([
                interact(&["v"], "MMIOREAD", [lit(0x1002_404C)]),
                if_(
                    var("c"),
                    interact(&["w"], "MMIOREAD", [lit(0x1002_4050)]),
                    interact(&["w"], "MMIOREAD", [lit(0x1002_4054)]),
                ),
            ]),
        );
        let p = Program::from_functions([f]);
        let se = SymExec::new(&p, mmio_spec());
        let arms = RefCell::new(Vec::new());
        let report = se
            .check_function(
                "io",
                |st| vec![st.fresh("c")],
                |st, rets| {
                    // Both paths share the first event; each holds only
                    // its own arm's second one.
                    assert_eq!(st.trace.len(), 2);
                    assert_eq!(st.trace[0].0, "MMIOREAD");
                    assert_eq!(st.trace[0].1, [Term::constant(0x1002_404C)]);
                    arms.borrow_mut().push(st.trace[1].1[0].as_const());
                    // The results are exactly the traced return values.
                    vec![
                        Formula::eq(&rets[0], &st.trace[0].2[0]),
                        Formula::eq(&rets[1], &st.trace[1].2[0]),
                    ]
                },
            )
            .unwrap();
        assert_eq!(report.paths, 2);
        assert_eq!(*arms.borrow(), [Some(0x1002_4050), Some(0x1002_4054)]);
    }

    #[test]
    fn a_store_before_a_havocking_loop_does_not_survive_it() {
        // store4(p + 4, 7); <between>; r = load4(p + 4); prove r = 7. An
        // automatic invariant havocs memory, so the stored 7 is forgotten.
        let f = |name: &str, between: Stmt| {
            Function::new(
                name,
                &["p", "n"],
                &["r"],
                block([
                    store4(add(var("p"), lit(4)), lit(7)),
                    between,
                    set("r", load4(add(var("p"), lit(4)))),
                ]),
            )
        };
        let spin = while_(var("n"), set("n", sub(var("n"), lit(1))));
        let p = Program::from_functions([f("kept", Stmt::Skip), f("lost", spin)]);
        let mut se = SymExec::new(&p, mmio_spec());
        se.auto_invariants = true;
        let check = |name| {
            se.check_function(
                name,
                |st| vec![st.add_region("buf", 8), st.fresh("n")],
                |_, rets| vec![Formula::eq(&rets[0], &Term::constant(7))],
            )
        };
        check("kept").unwrap();
        let err = check("lost");
        assert!(
            matches!(&err, Err(VcError::ProofFailed { goal, context })
                if goal.contains("buf'[1]") && context == "postcondition"),
            "{err:?}"
        );
    }

    #[test]
    fn havocked_words_take_the_ids_eager_allocation_gave_them() {
        // Allocating word by word numbered the base 0 and buf[0], buf[1]
        // 1 and 2; a havoc then numbered buf'[0], buf'[1] 3 and 4. Later
        // ids, and so every rendered goal, depend on keeping that order.
        let mut st = SymState::default();
        let base = st.add_region("buf", 8);
        assert_eq!(base, Term::var(0, "buf_base"));
        let word = |st: &mut SymState, k: u32| st.load(Size::Four, &base.add_const(4 * k)).unwrap();
        assert_eq!(word(&mut st, 1), Term::var(2, "buf[1]"));
        st.havoc(&[]);
        assert_eq!(st.fresh("x"), Term::var(5, "x"));
        for k in 0..2 {
            assert_eq!(word(&mut st, k), Term::var(3 + k, &format!("buf'[{k}]")));
        }
        assert_eq!(st.regions[0].len(), 2);
    }

    #[test]
    fn bounded_loops_unroll() {
        // i = 0; while (i < 3) i = i + 1; prove i = 3.
        let f = Function::new(
            "count",
            &[],
            &["i"],
            block([
                set("i", lit(0)),
                while_(ltu(var("i"), lit(3)), set("i", add(var("i"), lit(1)))),
            ]),
        );
        let p = Program::from_functions([f]);
        let se = SymExec::new(&p, mmio_spec());
        let report = se
            .check_function(
                "count",
                |_| vec![],
                |_st, rets| vec![Formula::eq(&rets[0], &Term::constant(3))],
            )
            .unwrap();
        assert_eq!(report.paths, 1);
    }

    #[test]
    fn unbounded_loops_need_invariants() {
        let f = Function::new(
            "spin",
            &["n"],
            &[],
            while_(var("n"), set("n", sub(var("n"), lit(1)))),
        );
        let p = Program::from_functions([f]);
        let se = SymExec::new(&p, mmio_spec());
        let err = se.check_function("spin", |st| vec![st.fresh("n")], |_, _| vec![]);
        assert!(
            matches!(err, Err(VcError::UnsupportedLoop { id: 0 })),
            "{err:?}"
        );
    }

    #[test]
    fn invariant_loops_verify() {
        // while (n != 0) { n = n - 1 }; after the loop n = 0.
        // Invariant: true (the exit condition alone gives the post).
        let f = Function::new(
            "drain",
            &["n"],
            &["n"],
            while_(var("n"), set("n", sub(var("n"), lit(1)))),
        );
        let p = Program::from_functions([f]);
        let mut se = SymExec::new(&p, mmio_spec());
        se.set_invariant(
            0,
            Invariant {
                havoc: vec!["n".to_string()],
                holds: Rc::new(|_| vec![]),
            },
        );
        se.check_function(
            "drain",
            |st| vec![st.fresh("n")],
            |_st, rets| vec![Formula::eq(&rets[0], &Term::constant(0))],
        )
        .unwrap();
    }

    #[test]
    fn invariant_preservation_failures_are_reported() {
        // Claim the bogus invariant n < 5 for a loop that increments n.
        let f = Function::new(
            "grow",
            &[],
            &[],
            block([
                set("n", lit(0)),
                while_(ltu(var("n"), lit(100)), set("n", add(var("n"), lit(1)))),
            ]),
        );
        let p = Program::from_functions([f]);
        let mut se = SymExec::new(&p, mmio_spec());
        se.set_invariant(
            0,
            Invariant {
                havoc: vec!["n".to_string()],
                holds: Rc::new(|st| {
                    let n = st
                        .locals
                        .get("n")
                        .cloned()
                        .unwrap_or_else(|| Term::constant(0));
                    vec![Formula::ltu(&n, &Term::constant(5))]
                }),
            },
        );
        let err = se.check_function("grow", |_| vec![], |_, _| vec![]);
        assert!(matches!(err, Err(VcError::ProofFailed { .. })), "{err:?}");
    }

    #[test]
    fn calls_are_verified_interprocedurally() {
        let bump = Function::new("bump", &["x"], &["y"], set("y", add(var("x"), lit(1))));
        let main = Function::new(
            "main",
            &[],
            &["r"],
            block([
                call(&["a"], "bump", [lit(1)]),
                call(&["r"], "bump", [var("a")]),
            ]),
        );
        let p = Program::from_functions([bump, main]);
        let se = SymExec::new(&p, mmio_spec());
        se.check_function(
            "main",
            |_| vec![],
            |_st, rets| vec![Formula::eq(&rets[0], &Term::constant(3))],
        )
        .unwrap();
    }
}

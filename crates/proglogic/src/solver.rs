//! A lightweight prover for word formulas.
//!
//! The paper spent much of its engineering budget fighting Coq tactic
//! performance on exactly these goals — linear arithmetic, bitvectors,
//! bounds (§7.3.1). This module is the corresponding "layer-specific tool":
//! a small, predictable decision procedure combining
//!
//! 1. substitution of variable-equals-constant assumptions,
//! 2. eager term simplification (in [`crate::term`]),
//! 3. unsigned interval analysis seeded by the assumptions, and
//! 4. structural decomposition of the goal.
//!
//! It is deliberately incomplete: [`Outcome::Unknown`] means "not proved",
//! never "false". The symbolic executor treats Unknown as a verification
//! failure, the same stance a proof assistant takes toward an unfinished
//! goal.

use crate::formula::{Formula, FormulaView};
use crate::term::Term;
use bedrock2::ast::BinOp;
use obs::fx;
use std::collections::HashMap;

/// Result of a proof attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The goal follows from the assumptions.
    Proved,
    /// The procedure could not establish the goal (it may still be true).
    Unknown,
}

/// An unsigned interval `[lo, hi]` (inclusive).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Iv {
    lo: u32,
    hi: u32,
}

impl Iv {
    const FULL: Iv = Iv {
        lo: 0,
        hi: u32::MAX,
    };

    fn point(c: u32) -> Iv {
        Iv { lo: c, hi: c }
    }

    fn meet(self, other: Iv) -> Iv {
        Iv {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    fn is_empty(self) -> bool {
        self.lo > self.hi
    }
}

/// What the procedure derives from one assumption list, built once and
/// then asked any number of questions. It is a pure function of the
/// assumptions, so a reused context answers exactly as a fresh one; the
/// free functions [`prove`] and [`contradictory`] build one per call.
pub struct Context {
    /// The assumptions, as given.
    assumptions: Vec<Formula>,
    /// Some assumption is `⊥`, or some interval came out empty.
    vacuous: bool,
    /// Variable-equals-constant substitutions, keyed by the variable term.
    subst: HashMap<Term, Term, fx::FxBuild>,
    facts: HashMap<Term, Iv, fx::FxBuild>,
}

/// Rewrites assumptions that reify comparisons as 0/1-valued *terms* into
/// direct formulas: `(a <u b) = 0` becomes `b ≤u a`, `(a = b) ≠ 0` becomes
/// `a = b`, and so on. Bedrock2 conditions produce exactly these shapes.
fn normalize(a: &Formula, out: &mut Vec<Formula>) {
    let reified = |t: &Term, truth: bool| -> Option<Formula> {
        let (op, x, y) = t.as_op()?;
        match (op, truth) {
            (BinOp::Ltu, true) => Some(Formula::raw_ltu(x, y)),
            (BinOp::Ltu, false) => Some(Formula::raw_leu(y, x)),
            (BinOp::Eq, true) => Some(Formula::raw_eq(x, y)),
            (BinOp::Eq, false) => Some(Formula::raw_ne(x, y)),
            _ => None,
        }
    };
    match a.view() {
        FormulaView::And(x, y) => {
            normalize(x, out);
            normalize(y, out);
        }
        FormulaView::Eq(l, r) | FormulaView::Ne(l, r) => {
            let is_eq = matches!(a.view(), FormulaView::Eq(..));
            // `a | b = 0` holds iff both halves are zero (for any terms),
            // so split it — this is how a source-level guard like
            // `if (len < MIN) | (MAX < len)` delivers both bounds.
            if is_eq {
                let or_operand = match (l.as_const(), r.as_const()) {
                    (_, Some(0)) => Some(l),
                    (Some(0), _) => Some(r),
                    _ => None,
                };
                if let Some(t) = or_operand {
                    if let Some((BinOp::Or, x, y)) = t.as_op() {
                        normalize(&Formula::raw_eq(x, &Term::constant(0)), out);
                        normalize(&Formula::raw_eq(y, &Term::constant(0)), out);
                        return;
                    }
                }
            }
            let negated = is_eq;
            // `t = 0` asserts the comparison is false; `t ≠ 0` that it is
            // true (and symmetrically for a constant on the left).
            let rewritten = match (l.as_const(), r.as_const()) {
                (_, Some(0)) => reified(l, !negated),
                (Some(0), _) => reified(r, !negated),
                (_, Some(1)) if negated => reified(l, true),
                (Some(1), _) if negated => reified(r, true),
                _ => None,
            };
            match rewritten {
                Some(f) => {
                    normalize(&f, out);
                    out.push(a.clone()); // keep the original fact too
                }
                None => out.push(a.clone()),
            }
        }
        _ => out.push(a.clone()),
    }
}

impl Context {
    /// Builds the context of `raw`.
    pub fn new(raw: &[Formula]) -> Context {
        let mut ctx = Context {
            assumptions: raw.to_vec(),
            vacuous: raw.iter().any(Formula::is_false),
            subst: HashMap::default(),
            facts: HashMap::default(),
        };
        if ctx.vacuous {
            return ctx;
        }
        let mut assumptions = Vec::with_capacity(raw.len());
        for a in raw {
            normalize(a, &mut assumptions);
        }
        let assumptions = &assumptions;
        // Pass 1: collect var = const substitutions.
        for a in assumptions {
            if let FormulaView::Eq(l, r) = a.view() {
                match (l.as_var(), r.as_const(), r.as_var(), l.as_const()) {
                    (Some(_), Some(c), _, _) => {
                        ctx.subst.insert(l.clone(), Term::constant(c));
                    }
                    (_, _, Some(_), Some(c)) => {
                        ctx.subst.insert(r.clone(), Term::constant(c));
                    }
                    _ => {}
                }
            }
        }
        // Pass 2: interval facts over substituted terms.
        for a in assumptions {
            match a.view() {
                FormulaView::Ltu(l, r) => {
                    let (l, r) = (ctx.substitute(l), ctx.substitute(r));
                    if let Some(c) = r.as_const() {
                        if c > 0 {
                            ctx.add_fact(l.clone(), Iv { lo: 0, hi: c - 1 });
                        }
                    }
                    if let Some(c) = l.as_const() {
                        if c < u32::MAX {
                            ctx.add_fact(
                                r,
                                Iv {
                                    lo: c + 1,
                                    hi: u32::MAX,
                                },
                            );
                        }
                    }
                }
                FormulaView::Leu(l, r) => {
                    let (l, r) = (ctx.substitute(l), ctx.substitute(r));
                    if let Some(c) = r.as_const() {
                        ctx.add_fact(l.clone(), Iv { lo: 0, hi: c });
                    }
                    if let Some(c) = l.as_const() {
                        ctx.add_fact(
                            r,
                            Iv {
                                lo: c,
                                hi: u32::MAX,
                            },
                        );
                    }
                }
                FormulaView::Eq(l, r) => {
                    let (l, r) = (ctx.substitute(l), ctx.substitute(r));
                    if let Some(c) = r.as_const() {
                        ctx.add_fact(l, Iv::point(c));
                    } else if let Some(c) = l.as_const() {
                        ctx.add_fact(r, Iv::point(c));
                    }
                }
                _ => {}
            }
        }
        // Pass 3 (iterated): comparisons against non-constant terms
        // propagate the right-hand side's *derived* interval — e.g. from
        // `i <u n` and `n ≤ 380` conclude `i ≤ 379`. Two rounds chain
        // one level of indirection each.
        for _ in 0..2 {
            for a in assumptions {
                match a.view() {
                    FormulaView::Ltu(l, r) => {
                        let (l, r) = (ctx.substitute(l), ctx.substitute(r));
                        let (il, ir) = (ctx.interval(&l), ctx.interval(&r));
                        if ir.hi > 0 {
                            ctx.add_fact(
                                l,
                                Iv {
                                    lo: 0,
                                    hi: ir.hi - 1,
                                },
                            );
                        }
                        if il.lo < u32::MAX {
                            ctx.add_fact(
                                r,
                                Iv {
                                    lo: il.lo + 1,
                                    hi: u32::MAX,
                                },
                            );
                        }
                    }
                    FormulaView::Leu(l, r) => {
                        let (l, r) = (ctx.substitute(l), ctx.substitute(r));
                        let (il, ir) = (ctx.interval(&l), ctx.interval(&r));
                        ctx.add_fact(l, Iv { lo: 0, hi: ir.hi });
                        ctx.add_fact(
                            r,
                            Iv {
                                lo: il.lo,
                                hi: u32::MAX,
                            },
                        );
                    }
                    _ => {}
                }
            }
        }
        ctx.vacuous = ctx.facts.values().any(|iv| iv.is_empty());
        ctx
    }

    /// The assumption list this context was built from.
    pub(crate) fn assumptions(&self) -> &[Formula] {
        &self.assumptions
    }

    /// Attempts to prove `goal` from the assumptions. A contradictory
    /// assumption set proves anything (the vacuous case that arises on
    /// infeasible symbolic paths).
    pub fn prove(&self, goal: &Formula) -> Outcome {
        if self.vacuous {
            return Outcome::Proved;
        }
        self.entails(goal)
    }

    /// True when the assumptions are unsatisfiable as far as this
    /// procedure can tell: an empty interval, or some assumption refuted
    /// from the others' intervals.
    pub fn contradictory(&self) -> bool {
        self.vacuous
            || self
                .assumptions
                .iter()
                .any(|a| self.entails(&a.clone().negate()) == Outcome::Proved)
    }

    fn add_fact(&mut self, t: Term, iv: Iv) {
        let cur = self.facts.get(&t).copied().unwrap_or(Iv::FULL);
        self.facts.insert(t, cur.meet(iv));
    }

    fn substitute(&self, t: &Term) -> Term {
        if self.subst.is_empty() {
            return t.clone();
        }
        if t.as_var().is_some() {
            return self.subst.get(t).cloned().unwrap_or_else(|| t.clone());
        }
        if let Some((op, a, b)) = t.as_op() {
            return Term::op(op, &self.substitute(a), &self.substitute(b));
        }
        t.clone()
    }

    /// Bounds on `t`: its operands' intervals combined by `t`'s operator,
    /// met with any fact on `t`. The meet can come out empty, and then an
    /// empty operand interval feeds the arithmetic above it; that happens
    /// only under unsatisfiable assumptions, where any interval is sound,
    /// so the subtractions that a non-empty operand keeps from
    /// underflowing wrap instead of panicking.
    fn interval(&self, t: &Term) -> Iv {
        let computed = if let Some(c) = t.as_const() {
            Iv::point(c)
        } else if let Some((op, a, b)) = t.as_op() {
            let (ia, ib) = (self.interval(a), self.interval(b));
            match op {
                BinOp::Add => {
                    let lo = ia.lo as u64 + ib.lo as u64;
                    let hi = ia.hi as u64 + ib.hi as u64;
                    if hi <= u32::MAX as u64 {
                        Iv {
                            lo: lo as u32,
                            hi: hi as u32,
                        }
                    } else {
                        Iv::FULL
                    }
                }
                BinOp::Sub => {
                    if ia.lo >= ib.hi {
                        Iv {
                            lo: ia.lo - ib.hi,
                            hi: ia.hi.wrapping_sub(ib.lo),
                        }
                    } else {
                        Iv::FULL
                    }
                }
                BinOp::Mul => {
                    let hi = ia.hi as u64 * ib.hi as u64;
                    if hi <= u32::MAX as u64 {
                        Iv {
                            lo: ia.lo.wrapping_mul(ib.lo),
                            hi: hi as u32,
                        }
                    } else {
                        Iv::FULL
                    }
                }
                BinOp::And => {
                    // a & b ≤ min(hi(a), hi(b)).
                    Iv {
                        lo: 0,
                        hi: ia.hi.min(ib.hi),
                    }
                }
                BinOp::RemU => {
                    if ib.lo > 0 {
                        Iv {
                            lo: 0,
                            hi: ia.hi.min(ib.hi.wrapping_sub(1)),
                        }
                    } else {
                        // Remainder by a possibly-zero divisor yields the
                        // dividend in the zero case.
                        Iv { lo: 0, hi: ia.hi }
                    }
                }
                BinOp::DivU => match ia.hi.checked_div(ib.lo) {
                    Some(hi) => Iv { lo: 0, hi },
                    None => Iv::FULL,
                },
                BinOp::Sru => {
                    if let Some(s) = b.as_const() {
                        Iv {
                            lo: ia.lo >> (s & 31),
                            hi: ia.hi >> (s & 31),
                        }
                    } else {
                        Iv { lo: 0, hi: ia.hi }
                    }
                }
                BinOp::Slu => {
                    if let Some(s) = b.as_const() {
                        let s = s & 31;
                        if (ia.hi as u64) << s <= u32::MAX as u64 {
                            Iv {
                                lo: ia.lo << s,
                                hi: ia.hi << s,
                            }
                        } else {
                            Iv::FULL
                        }
                    } else {
                        Iv::FULL
                    }
                }
                BinOp::Eq | BinOp::Ltu | BinOp::Lts => Iv { lo: 0, hi: 1 },
                BinOp::Or | BinOp::Xor => {
                    // Bounded by the next power of two covering both
                    // operands' bounds. Computed in u64: in u32,
                    // `(m + 1).next_power_of_two()` overflows to 0 for
                    // m ≥ 0x8000_0000, which once made this interval
                    // collapse to [0,0] and proved a false goal — found by
                    // the soundness fuzzer (tests/solver_soundness.rs).
                    let m = ia.hi.max(ib.hi) as u64;
                    let hi = u32::try_from((m + 1).next_power_of_two() - 1).unwrap_or(u32::MAX);
                    // a | b is also at least as large as either operand.
                    let lo = if op == BinOp::Or { ia.lo.max(ib.lo) } else { 0 };
                    Iv { lo, hi }
                }
                _ => Iv::FULL,
            }
        } else {
            Iv::FULL
        };
        match self.facts.get(t) {
            Some(f) => computed.meet(*f),
            None => computed,
        }
    }

    /// Structural decomposition of `goal` over the derived facts.
    fn entails(&self, goal: &Formula) -> Outcome {
        match goal.view() {
            FormulaView::True => Outcome::Proved,
            FormulaView::False => Outcome::Unknown,
            FormulaView::And(a, b) => {
                if self.entails(a) == Outcome::Proved && self.entails(b) == Outcome::Proved {
                    Outcome::Proved
                } else {
                    Outcome::Unknown
                }
            }
            FormulaView::Or(a, b) => {
                if self.entails(a) == Outcome::Proved || self.entails(b) == Outcome::Proved {
                    Outcome::Proved
                } else {
                    Outcome::Unknown
                }
            }
            FormulaView::Not(f) => self.entails(&f.clone().negate()),
            FormulaView::Eq(l, r) => {
                let (l, r) = (self.substitute(l), self.substitute(r));
                if l == r {
                    return Outcome::Proved;
                }
                let (il, ir) = (self.interval(&l), self.interval(&r));
                if il.lo == il.hi && ir.lo == ir.hi && il.lo == ir.lo {
                    Outcome::Proved
                } else {
                    Outcome::Unknown
                }
            }
            FormulaView::Ne(l, r) => {
                let (l, r) = (self.substitute(l), self.substitute(r));
                let (il, ir) = (self.interval(&l), self.interval(&r));
                if il.hi < ir.lo || ir.hi < il.lo {
                    Outcome::Proved
                } else {
                    Outcome::Unknown
                }
            }
            FormulaView::Ltu(l, r) => {
                let (l, r) = (self.substitute(l), self.substitute(r));
                let (il, ir) = (self.interval(&l), self.interval(&r));
                if il.hi < ir.lo {
                    Outcome::Proved
                } else {
                    Outcome::Unknown
                }
            }
            FormulaView::Leu(l, r) => {
                let (l, r) = (self.substitute(l), self.substitute(r));
                if l == r {
                    return Outcome::Proved;
                }
                let (il, ir) = (self.interval(&l), self.interval(&r));
                if il.hi <= ir.lo {
                    Outcome::Proved
                } else {
                    Outcome::Unknown
                }
            }
        }
    }
}

/// Attempts to prove `goal` from `assumptions` ([`Context::prove`] of a
/// fresh context).
pub fn prove(assumptions: &[Formula], goal: &Formula) -> Outcome {
    Context::new(assumptions).prove(goal)
}

/// True when the assumptions are unsatisfiable as far as this procedure
/// can tell (used to prune infeasible symbolic paths;
/// [`Context::contradictory`] of a fresh context).
pub fn contradictory(assumptions: &[Formula]) -> bool {
    Context::new(assumptions).contradictory()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(id: u32, name: &str) -> Term {
        Term::var(id, name)
    }
    fn c(x: u32) -> Term {
        Term::constant(x)
    }

    #[test]
    fn constant_goals() {
        assert_eq!(prove(&[], &Formula::ltu(&c(2), &c(3))), Outcome::Proved);
        assert_eq!(prove(&[], &Formula::ltu(&c(3), &c(2))), Outcome::Unknown);
    }

    #[test]
    fn substitution_of_known_vars() {
        let x = v(0, "x");
        let assms = [Formula::eq(&x, &c(10))];
        let goal = Formula::ltu(&x.add_const(5), &c(16));
        assert_eq!(prove(&assms, &goal), Outcome::Proved);
    }

    #[test]
    fn interval_bounds_flow_through_arithmetic() {
        // len < 1520 ⊢ len + 16 < 2048
        let len = v(0, "len");
        let assms = [Formula::ltu(&len, &c(1520))];
        assert_eq!(
            prove(&assms, &Formula::ltu(&len.add_const(16), &c(2048))),
            Outcome::Proved
        );
        // …but not len + 16 < 1000
        assert_eq!(
            prove(&assms, &Formula::ltu(&len.add_const(16), &c(1000))),
            Outcome::Unknown
        );
    }

    #[test]
    fn masking_bounds() {
        // ⊢ (x & 0xFF) < 256, unconditionally
        let x = v(0, "x");
        let masked = Term::op(BinOp::And, &x, &c(0xFF));
        assert_eq!(prove(&[], &Formula::ltu(&masked, &c(256))), Outcome::Proved);
    }

    #[test]
    fn remainder_bounds() {
        let x = v(0, "x");
        let r = Term::op(BinOp::RemU, &x, &c(4));
        assert_eq!(prove(&[], &Formula::ltu(&r, &c(4))), Outcome::Proved);
    }

    #[test]
    fn shifts_and_division() {
        let x = v(0, "x");
        let assms = [Formula::ltu(&x, &c(0x1000))];
        let q = Term::op(BinOp::DivU, &x, &c(16));
        assert_eq!(prove(&assms, &Formula::ltu(&q, &c(0x100))), Outcome::Proved);
        let s = Term::op(BinOp::Sru, &x, &c(4));
        assert_eq!(prove(&assms, &Formula::ltu(&s, &c(0x100))), Outcome::Proved);
    }

    #[test]
    fn disequality_by_disjoint_intervals() {
        let x = v(0, "x");
        let assms = [Formula::ltu(&x, &c(10))];
        assert_eq!(prove(&assms, &Formula::ne(&x, &c(50))), Outcome::Proved);
        assert_eq!(prove(&assms, &Formula::ne(&x, &c(5))), Outcome::Unknown);
    }

    #[test]
    fn contradiction_proves_anything() {
        let x = v(0, "x");
        let assms = [Formula::ltu(&x, &c(3)), Formula::leu(&c(7), &x)];
        assert!(contradictory(&assms));
        assert_eq!(prove(&assms, &Formula::eq(&c(0), &c(1))), Outcome::Proved);
    }

    #[test]
    fn conjunction_and_disjunction() {
        let x = v(0, "x");
        let assms = [Formula::ltu(&x, &c(4))];
        let g = Formula::ltu(&x, &c(8)).and(Formula::leu(&x, &c(3)));
        assert_eq!(prove(&assms, &g), Outcome::Proved);
        let g = Formula::ltu(&c(9), &x).or(Formula::ltu(&x, &c(5)));
        assert_eq!(prove(&assms, &g), Outcome::Proved);
    }

    #[test]
    fn unknown_stays_unknown() {
        let x = v(0, "x");
        let y = v(1, "y");
        assert_eq!(prove(&[], &Formula::ltu(&x, &y)), Outcome::Unknown);
        assert!(!contradictory(&[Formula::ltu(&x, &y)]));
    }
}

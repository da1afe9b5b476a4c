//! Assertions over symbolic words, hash-consed like [`Term`]s.
//!
//! A [`Formula`] is an interned, immutable node carrying a cached 128-bit
//! structural fingerprint, so formula equality has a pointer fast path and
//! `Hash` is O(1), as for terms.
//! Pattern matching goes through [`Formula::view`], which exposes the
//! structure as a borrow without giving up the interned representation:
//!
//! ```
//! use proglogic::{Formula, FormulaView, Term};
//! let f = Formula::ltu(&Term::var(0, "i"), &Term::constant(380));
//! match f.view() {
//!     FormulaView::Ltu(a, b) => assert!(a.as_var().is_some() && b.as_const() == Some(380)),
//!     _ => unreachable!(),
//! }
//! ```

use crate::term::Term;
use bedrock2::ast::BinOp;
use obs::fx;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

#[derive(Debug)]
enum Node {
    True,
    False,
    Eq(Term, Term),
    Ne(Term, Term),
    Ltu(Term, Term),
    Leu(Term, Term),
    And(Formula, Formula),
    Or(Formula, Formula),
    Not(Formula),
}

struct Inner {
    /// Structural fingerprint, fixed at construction: the interner key
    /// and the `Hash` value.
    fp: u128,
    node: Node,
}

/// A formula over symbolic 32-bit words.
#[derive(Clone)]
pub struct Formula {
    inner: Arc<Inner>,
}

/// A borrowed view of a formula's top constructor, for pattern matching.
#[derive(Clone, Copy, Debug)]
pub enum FormulaView<'a> {
    /// Always true.
    True,
    /// Always false.
    False,
    /// `a = b`.
    Eq(&'a Term, &'a Term),
    /// `a ≠ b`.
    Ne(&'a Term, &'a Term),
    /// Unsigned `a < b`.
    Ltu(&'a Term, &'a Term),
    /// Unsigned `a ≤ b`.
    Leu(&'a Term, &'a Term),
    /// Conjunction.
    And(&'a Formula, &'a Formula),
    /// Disjunction.
    Or(&'a Formula, &'a Formula),
    /// Negation.
    Not(&'a Formula),
}

/// Formula-lane fingerprint seed (more π digits), distinct from the term
/// seed so a formula never fingerprints like a term.
const SEED: u128 = 0xA409_3822_299F_31D0_082E_FA98_EC4E_6C89;

const TAG: [u64; 9] = [0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18];

const INTERN_CAP: usize = 1 << 20;

thread_local! {
    static INTERNER: RefCell<HashMap<u128, Formula, fx::FxBuild>> =
        RefCell::new(HashMap::default());
}

fn fold128(h: u128, x: u128) -> u128 {
    fx::mix128(fx::mix128(h, x as u64), (x >> 64) as u64)
}

impl fmt::Debug for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner.node {
            Node::True => write!(f, "⊤"),
            Node::False => write!(f, "⊥"),
            Node::Eq(a, b) => write!(f, "{a:?} = {b:?}"),
            Node::Ne(a, b) => write!(f, "{a:?} ≠ {b:?}"),
            Node::Ltu(a, b) => write!(f, "{a:?} <u {b:?}"),
            Node::Leu(a, b) => write!(f, "{a:?} ≤u {b:?}"),
            Node::And(a, b) => write!(f, "({a:?} ∧ {b:?})"),
            Node::Or(a, b) => write!(f, "({a:?} ∨ {b:?})"),
            Node::Not(a) => write!(f, "¬({a:?})"),
        }
    }
}

impl PartialEq for Formula {
    fn eq(&self, other: &Formula) -> bool {
        if Arc::ptr_eq(&self.inner, &other.inner) {
            return true;
        }
        if self.inner.fp != other.inner.fp {
            return false;
        }
        // Cross-thread or collided allocations: decide structurally (the
        // nested comparisons re-enter the pointer fast path).
        match (&self.inner.node, &other.inner.node) {
            (Node::True, Node::True) | (Node::False, Node::False) => true,
            (Node::Eq(a1, b1), Node::Eq(a2, b2))
            | (Node::Ne(a1, b1), Node::Ne(a2, b2))
            | (Node::Ltu(a1, b1), Node::Ltu(a2, b2))
            | (Node::Leu(a1, b1), Node::Leu(a2, b2)) => a1 == a2 && b1 == b2,
            (Node::And(a1, b1), Node::And(a2, b2)) | (Node::Or(a1, b1), Node::Or(a2, b2)) => {
                a1 == a2 && b1 == b2
            }
            (Node::Not(a1), Node::Not(a2)) => a1 == a2,
            _ => false,
        }
    }
}

impl Eq for Formula {}

impl std::hash::Hash for Formula {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u128(self.inner.fp);
    }
}

impl Formula {
    /// The formula's 128-bit structural fingerprint.
    pub fn fingerprint(&self) -> u128 {
        self.inner.fp
    }

    /// A borrowed view of the top constructor, for pattern matching.
    pub fn view(&self) -> FormulaView<'_> {
        match &self.inner.node {
            Node::True => FormulaView::True,
            Node::False => FormulaView::False,
            Node::Eq(a, b) => FormulaView::Eq(a, b),
            Node::Ne(a, b) => FormulaView::Ne(a, b),
            Node::Ltu(a, b) => FormulaView::Ltu(a, b),
            Node::Leu(a, b) => FormulaView::Leu(a, b),
            Node::And(a, b) => FormulaView::And(a, b),
            Node::Or(a, b) => FormulaView::Or(a, b),
            Node::Not(a) => FormulaView::Not(a),
        }
    }

    /// Whether this is the constant `⊤`.
    pub fn is_true(&self) -> bool {
        matches!(self.inner.node, Node::True)
    }

    /// Whether this is the constant `⊥`.
    pub fn is_false(&self) -> bool {
        matches!(self.inner.node, Node::False)
    }

    fn structurally_same(a: &Node, b: &Node) -> bool {
        match (a, b) {
            (Node::True, Node::True) | (Node::False, Node::False) => true,
            (Node::Eq(a1, b1), Node::Eq(a2, b2))
            | (Node::Ne(a1, b1), Node::Ne(a2, b2))
            | (Node::Ltu(a1, b1), Node::Ltu(a2, b2))
            | (Node::Leu(a1, b1), Node::Leu(a2, b2)) => a1 == a2 && b1 == b2,
            (Node::And(a1, b1), Node::And(a2, b2)) | (Node::Or(a1, b1), Node::Or(a2, b2)) => {
                a1 == a2 && b1 == b2
            }
            (Node::Not(a1), Node::Not(a2)) => a1 == a2,
            _ => false,
        }
    }

    fn intern(fp: u128, node: Node) -> Formula {
        INTERNER.with(|table| {
            let mut table = table.borrow_mut();
            if let Some(existing) = table.get(&fp) {
                if Formula::structurally_same(&existing.inner.node, &node) {
                    return existing.clone();
                }
                // Fingerprint collision: fresh, un-interned allocation.
                return Formula {
                    inner: Arc::new(Inner { fp, node }),
                };
            }
            if table.len() >= INTERN_CAP {
                table.clear();
            }
            let f = Formula {
                inner: Arc::new(Inner { fp, node }),
            };
            table.insert(fp, f.clone());
            f
        })
    }

    fn tag_of(node: &Node) -> u64 {
        match node {
            Node::True => TAG[0],
            Node::False => TAG[1],
            Node::Eq(..) => TAG[2],
            Node::Ne(..) => TAG[3],
            Node::Ltu(..) => TAG[4],
            Node::Leu(..) => TAG[5],
            Node::And(..) => TAG[6],
            Node::Or(..) => TAG[7],
            Node::Not(..) => TAG[8],
        }
    }

    fn make(node: Node) -> Formula {
        let mut fp = fx::mix128(SEED, Formula::tag_of(&node));
        match &node {
            Node::True | Node::False => {}
            Node::Eq(a, b) | Node::Ne(a, b) | Node::Ltu(a, b) | Node::Leu(a, b) => {
                fp = fold128(fp, a.fingerprint());
                fp = fold128(fp, b.fingerprint());
            }
            Node::And(a, b) | Node::Or(a, b) => {
                fp = fold128(fp, a.fingerprint());
                fp = fold128(fp, b.fingerprint());
            }
            Node::Not(a) => {
                fp = fold128(fp, a.fingerprint());
            }
        }
        Formula::intern(fp, node)
    }

    /// The constant `⊤`.
    pub fn truth() -> Formula {
        Formula::make(Node::True)
    }

    /// The constant `⊥`.
    pub fn falsehood() -> Formula {
        Formula::make(Node::False)
    }

    /// `a = b` with no simplification — the solver's normalizer relies on
    /// keeping reified facts in their comparison shape.
    pub(crate) fn raw_eq(a: &Term, b: &Term) -> Formula {
        Formula::make(Node::Eq(a.clone(), b.clone()))
    }

    /// `a ≠ b` with no simplification.
    pub(crate) fn raw_ne(a: &Term, b: &Term) -> Formula {
        Formula::make(Node::Ne(a.clone(), b.clone()))
    }

    /// `a < b` (unsigned) with no simplification.
    pub(crate) fn raw_ltu(a: &Term, b: &Term) -> Formula {
        Formula::make(Node::Ltu(a.clone(), b.clone()))
    }

    /// `a ≤ b` (unsigned) with no simplification.
    pub(crate) fn raw_leu(a: &Term, b: &Term) -> Formula {
        Formula::make(Node::Leu(a.clone(), b.clone()))
    }

    /// `a = b`, simplified when both sides are constant.
    pub fn eq(a: &Term, b: &Term) -> Formula {
        match (a.as_const(), b.as_const()) {
            (Some(x), Some(y)) if x == y => Formula::truth(),
            (Some(_), Some(_)) => Formula::falsehood(),
            _ if a == b => Formula::truth(),
            _ => Formula::raw_eq(a, b),
        }
    }

    /// `a ≠ b`.
    pub fn ne(a: &Term, b: &Term) -> Formula {
        Formula::eq(a, b).negate()
    }

    /// Unsigned `a < b`.
    pub fn ltu(a: &Term, b: &Term) -> Formula {
        match (a.as_const(), b.as_const()) {
            (Some(x), Some(y)) => {
                if x < y {
                    Formula::truth()
                } else {
                    Formula::falsehood()
                }
            }
            (_, Some(0)) => Formula::falsehood(),
            _ if a == b => Formula::falsehood(),
            _ => Formula::raw_ltu(a, b),
        }
    }

    /// Unsigned `a ≤ b`.
    pub fn leu(a: &Term, b: &Term) -> Formula {
        match (a.as_const(), b.as_const()) {
            (Some(x), Some(y)) => {
                if x <= y {
                    Formula::truth()
                } else {
                    Formula::falsehood()
                }
            }
            _ if a == b => Formula::truth(),
            _ => Formula::raw_leu(a, b),
        }
    }

    /// Conjunction, short-circuiting constants.
    pub fn and(self, other: Formula) -> Formula {
        if self.is_true() {
            return other;
        }
        if other.is_true() {
            return self;
        }
        if self.is_false() || other.is_false() {
            return Formula::falsehood();
        }
        Formula::make(Node::And(self, other))
    }

    /// Disjunction, short-circuiting constants.
    pub fn or(self, other: Formula) -> Formula {
        if self.is_false() {
            return other;
        }
        if other.is_false() {
            return self;
        }
        if self.is_true() || other.is_true() {
            return Formula::truth();
        }
        Formula::make(Node::Or(self, other))
    }

    /// Negation, pushed through the structure where cheap.
    pub fn negate(self) -> Formula {
        match &self.inner.node {
            Node::True => return Formula::falsehood(),
            Node::False => return Formula::truth(),
            Node::Eq(a, b) => return Formula::raw_ne(a, b),
            Node::Ne(a, b) => return Formula::raw_eq(a, b),
            Node::Ltu(a, b) => return Formula::raw_leu(b, a),
            Node::Leu(a, b) => return Formula::raw_ltu(b, a),
            Node::Not(f) => return f.clone(),
            _ => {}
        }
        Formula::make(Node::Not(self))
    }

    /// The truth of a Bedrock2 condition term: `t ≠ 0`.
    pub fn truthy(t: &Term) -> Formula {
        // Comparisons produce 0/1; express their truth directly.
        if let Some((op, a, b)) = t.as_op() {
            match op {
                BinOp::Eq => return Formula::eq(a, b),
                BinOp::Ltu => return Formula::ltu(a, b),
                _ => {}
            }
        }
        Formula::ne(t, &Term::constant(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_comparisons_decide() {
        let two = Term::constant(2);
        let three = Term::constant(3);
        assert_eq!(Formula::ltu(&two, &three), Formula::truth());
        assert_eq!(Formula::ltu(&three, &two), Formula::falsehood());
        assert_eq!(Formula::eq(&two, &two), Formula::truth());
    }

    #[test]
    fn nothing_is_below_zero() {
        let x = Term::var(0, "x");
        assert_eq!(Formula::ltu(&x, &Term::constant(0)), Formula::falsehood());
    }

    #[test]
    fn negation_flips_comparisons() {
        let (a, b) = (Term::var(0, "a"), Term::var(1, "b"));
        assert_eq!(Formula::ltu(&a, &b).negate(), Formula::leu(&b, &a));
        assert_eq!(Formula::eq(&a, &b).negate(), Formula::ne(&a, &b));
    }

    #[test]
    fn truthy_unwraps_comparison_terms() {
        let (a, b) = (Term::var(0, "a"), Term::var(1, "b"));
        let cmp = Term::op(BinOp::Ltu, &a, &b);
        assert_eq!(Formula::truthy(&cmp), Formula::ltu(&a, &b));
        assert_eq!(Formula::truthy(&a), Formula::ne(&a, &Term::constant(0)));
    }

    #[test]
    fn connectives_short_circuit() {
        let f = Formula::ltu(&Term::var(0, "a"), &Term::var(1, "b"));
        assert_eq!(Formula::truth().and(f.clone()), f);
        assert_eq!(Formula::falsehood().and(f.clone()), Formula::falsehood());
        assert_eq!(Formula::falsehood().or(f.clone()), f);
        assert_eq!(Formula::truth().or(f), Formula::truth());
    }

    #[test]
    fn hash_consing_interns_equal_formulas() {
        let a = Formula::ltu(&Term::var(0, "i"), &Term::constant(380));
        let b = Formula::ltu(&Term::var(0, "i"), &Term::constant(380));
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Different comparison, same operands: distinct fingerprints.
        let c = Formula::leu(&Term::var(0, "i"), &Term::constant(380));
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn view_round_trips_structure() {
        let (a, b) = (Term::var(0, "a"), Term::var(1, "b"));
        let f = Formula::ltu(&a, &b).and(Formula::eq(&a, &Term::constant(3)));
        match f.view() {
            FormulaView::And(l, r) => {
                assert!(matches!(l.view(), FormulaView::Ltu(..)));
                assert!(matches!(r.view(), FormulaView::Eq(..)));
            }
            other => panic!("expected And, got {other:?}"),
        }
    }
}

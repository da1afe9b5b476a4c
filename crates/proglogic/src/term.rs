//! Symbolic 32-bit words, hash-consed.
//!
//! Terms are built over the same operator set as Bedrock2 expressions
//! ([`bedrock2::ast::BinOp`]), so the symbolic executor can mirror the
//! source semantics one constructor at a time. Construction simplifies
//! eagerly (constant folding and a few identities), which keeps the terms
//! the solver sees small.
//!
//! # Hash-consing
//!
//! Every term carries a 128-bit *structural fingerprint* (two independent
//! FxHash lanes, see [`obs::fx`]) computed once at construction, and
//! construction goes through a thread-local interner keyed by that
//! fingerprint. Within a thread, building the same term twice returns the
//! same allocation, so:
//!
//! * structural equality is usually pointer equality (`Rc::ptr_eq` fast
//!   path, with a fingerprint-guarded structural fallback for terms the
//!   interner did not share: fingerprint collisions, and terms built on
//!   either side of an interner reset at `INTERN_CAP`);
//! * `Hash` is O(1) — it feeds the cached fingerprint, never the tree —
//!   which makes the solver's fact maps cheap;
//! * a variable the interner already holds costs no allocation:
//!   [`Term::var`] looks the fingerprint of `(id, name)` up before it
//!   builds the name `String`.
//!
//! The fallback keeps equality *sound* in the presence of fingerprint
//! collisions: a collision can only cost a missed interning, never a wrong
//! `==`.
//!
//! Terms are single-threaded (`Rc`, not `Send`). The symbolic executor
//! runs each proof on one thread, and with `Arc` the atomic reference
//! counts of clone and drop were over a quarter of a driver proof's
//! profile samples. A [`Term::fingerprint`] is a plain `u128` and may
//! cross threads; two threads building the same term get equal
//! fingerprints.
//!
//! Interning is what keeps the executor's memory flat: with the interners
//! and fingerprints removed here and in `formula` (structural `Eq` and
//! `Hash`), perfbench's `driver_verify` peaked at 29.6–29.8 MiB resident
//! instead of 14.0–14.1 MiB, and ran no faster.

use bedrock2::ast::BinOp;
use obs::fx;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// A symbolic variable: a unique id plus a human-readable name.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SymVar {
    /// Unique within one symbolic execution.
    pub id: u32,
    /// Diagnostic name (e.g. the Bedrock2 variable or `MMIOREAD#3`).
    pub name: String,
}

#[derive(Debug)]
enum Node {
    Const(u32),
    Var(SymVar),
    Op(BinOp, Term, Term),
}

struct Inner {
    /// Structural fingerprint, fixed at construction: the interner key
    /// and the `Hash` value.
    fp: u128,
    node: Node,
}

/// A symbolic word (an interned, immutable DAG node).
#[derive(Clone)]
pub struct Term {
    inner: Rc<Inner>,
}

/// Fingerprint seed (π digits) — any fixed nonzero constant works (see
/// `obs::fx` for why it must not be zero).
const SEED: u128 = 0x243F_6A88_85A3_08D3_1319_8A2E_0370_7344;

const TAG_CONST: u64 = 0xC0;
const TAG_VAR: u64 = 0x7A;
const TAG_OP: u64 = 0x09;

/// Interner size cap per thread; past this the table is dropped and
/// rebuilt, bounding memory for pathological workloads (a cleared table
/// only costs duplicate allocations, never correctness).
const INTERN_CAP: usize = 1 << 20;

thread_local! {
    static INTERNER: RefCell<HashMap<u128, Term, fx::FxBuild>> =
        RefCell::new(HashMap::default());
}

/// Empties this thread's interner, as the `INTERN_CAP` reset does: terms
/// built afterwards do not share allocations with earlier ones.
#[cfg(test)]
fn reset_interner() {
    INTERNER.with(|table| table.borrow_mut().clear());
}

fn fold128(h: u128, x: u128) -> u128 {
    fx::mix128(fx::mix128(h, x as u64), (x >> 64) as u64)
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner.node {
            Node::Const(c) => {
                if *c >= 0x1000 {
                    write!(f, "0x{c:x}")
                } else {
                    write!(f, "{c}")
                }
            }
            Node::Var(v) => write!(f, "{}#{}", v.name, v.id),
            Node::Op(op, a, b) => write!(f, "({a:?} {} {b:?})", op.symbol()),
        }
    }
}

impl PartialEq for Term {
    fn eq(&self, other: &Term) -> bool {
        if Rc::ptr_eq(&self.inner, &other.inner) {
            return true;
        }
        if self.inner.fp != other.inner.fp {
            return false;
        }
        // Same fingerprint but different allocation: either the terms
        // were built on either side of an interner reset or the
        // fingerprints collided. Decide structurally; inner comparisons
        // re-enter the pointer fast path, so this stays shallow.
        match (&self.inner.node, &other.inner.node) {
            (Node::Const(a), Node::Const(b)) => a == b,
            (Node::Var(a), Node::Var(b)) => a == b,
            (Node::Op(op1, a1, b1), Node::Op(op2, a2, b2)) => op1 == op2 && a1 == a2 && b1 == b2,
            _ => false,
        }
    }
}

impl Eq for Term {}

impl std::hash::Hash for Term {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // O(1): the cached fingerprint stands in for the whole tree.
        state.write_u128(self.inner.fp);
    }
}

impl Term {
    /// The term's 128-bit structural fingerprint (equal terms have equal
    /// fingerprints; the converse holds up to hash collisions).
    pub fn fingerprint(&self) -> u128 {
        self.inner.fp
    }

    /// Returns the interned term under `fp` when it is structurally
    /// `same`; otherwise allocates `node()` and interns it (unless a
    /// different term already holds `fp`). `node` runs only on a miss.
    fn intern(fp: u128, same: impl Fn(&Node) -> bool, node: impl FnOnce() -> Node) -> Term {
        INTERNER.with(|table| {
            let mut table = table.borrow_mut();
            if let Some(existing) = table.get(&fp) {
                if same(&existing.inner.node) {
                    return existing.clone();
                }
                // Fingerprint collision: leave the incumbent interned and
                // hand out a fresh allocation (equality stays sound via
                // the structural fallback).
                return Term {
                    inner: Rc::new(Inner { fp, node: node() }),
                };
            }
            if table.len() >= INTERN_CAP {
                table.clear();
            }
            let term = Term {
                inner: Rc::new(Inner { fp, node: node() }),
            };
            table.insert(fp, term.clone());
            term
        })
    }

    /// A constant word.
    pub fn constant(c: u32) -> Term {
        let fp = fx::mix128(fx::mix128(SEED, TAG_CONST), c as u64);
        Term::intern(
            fp,
            |n| matches!(n, Node::Const(x) if *x == c),
            || Node::Const(c),
        )
    }

    /// A symbolic variable. Allocates its name only when the interner
    /// does not hold the variable yet.
    pub fn var(id: u32, name: &str) -> Term {
        let mut fp = fx::mix128(fx::mix128(SEED, TAG_VAR), id as u64);
        fp = fx::mix128(fp, name.len() as u64);
        for b in name.bytes() {
            fp = fx::mix128(fp, b as u64);
        }
        Term::intern(
            fp,
            |n| matches!(n, Node::Var(v) if v.id == id && v.name == name),
            || {
                Node::Var(SymVar {
                    id,
                    name: name.to_string(),
                })
            },
        )
    }

    fn raw_op(op: BinOp, a: &Term, b: &Term) -> Term {
        let mut fp = fx::mix128(fx::mix128(SEED, TAG_OP), op as u64);
        fp = fold128(fp, a.inner.fp);
        fp = fold128(fp, b.inner.fp);
        Term::intern(
            fp,
            |n| matches!(n, Node::Op(o, x, y) if *o == op && x == a && y == b),
            || Node::Op(op, a.clone(), b.clone()),
        )
    }

    /// The constant value, when this term is a constant.
    pub fn as_const(&self) -> Option<u32> {
        match &self.inner.node {
            Node::Const(c) => Some(*c),
            _ => None,
        }
    }

    /// The variable, when this term is a bare variable.
    pub fn as_var(&self) -> Option<&SymVar> {
        match &self.inner.node {
            Node::Var(v) => Some(v),
            _ => None,
        }
    }

    /// Destructures an operator application.
    pub fn as_op(&self) -> Option<(BinOp, &Term, &Term)> {
        match &self.inner.node {
            Node::Op(op, a, b) => Some((*op, a, b)),
            _ => None,
        }
    }

    /// Applies a binary operator, simplifying eagerly.
    pub fn op(op: BinOp, a: &Term, b: &Term) -> Term {
        if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
            return Term::constant(op.eval(x, y));
        }
        match (op, a.as_const(), b.as_const()) {
            // x + 0, x - 0, x | 0, x ^ 0, x >> 0, x << 0
            (BinOp::Add | BinOp::Sub | BinOp::Or | BinOp::Xor, _, Some(0)) => return a.clone(),
            (BinOp::Sru | BinOp::Slu | BinOp::Srs, _, Some(0)) => return a.clone(),
            (BinOp::Add | BinOp::Or | BinOp::Xor, Some(0), _) => return b.clone(),
            (BinOp::Mul, _, Some(1)) => return a.clone(),
            (BinOp::Mul, Some(1), _) => return b.clone(),
            (BinOp::Mul | BinOp::And, _, Some(0)) => return Term::constant(0),
            (BinOp::Mul | BinOp::And, Some(0), _) => return Term::constant(0),
            (BinOp::And, _, Some(u32::MAX)) => return a.clone(),
            (BinOp::And, Some(u32::MAX), _) => return b.clone(),
            _ => {}
        }
        // Divisibility through multiplication: for a power-of-two modulus d
        // dividing the constant factor c, (x·c) mod d = 0 and (x·c) & (d−1)
        // = 0 — valid under wrapping because d divides 2³². These discharge
        // the alignment obligations of symbolic array indexing (buf + 4·i).
        if let (BinOp::RemU | BinOp::And, Some((BinOp::Mul, _x, cf)), Some(m)) =
            (op, a.as_op(), b.as_const())
        {
            if let Some(c) = cf.as_const() {
                let modulus = match op {
                    BinOp::RemU => m,
                    _ => m.wrapping_add(1),
                };
                if modulus != 0 && modulus.is_power_of_two() && c % modulus == 0 {
                    return Term::constant(0);
                }
            }
        }
        if a == b {
            match op {
                BinOp::Sub | BinOp::Xor => return Term::constant(0),
                BinOp::And | BinOp::Or => return a.clone(),
                BinOp::Eq => return Term::constant(1),
                BinOp::Ltu | BinOp::Lts => return Term::constant(0),
                _ => {}
            }
        }
        // Normalize (x + c1) + c2 → x + (c1+c2); likewise for sub mixed in.
        if let (BinOp::Add | BinOp::Sub, Some(c2)) = (op, b.as_const()) {
            let signed2 = if op == BinOp::Sub {
                c2.wrapping_neg()
            } else {
                c2
            };
            if let Some((BinOp::Add, x, c1t)) = a.as_op() {
                if let Some(c1) = c1t.as_const() {
                    return Term::op(BinOp::Add, x, &Term::constant(c1.wrapping_add(signed2)));
                }
            }
            if op == BinOp::Sub {
                return Term::op(BinOp::Add, a, &Term::constant(signed2));
            }
        }
        Term::raw_op(op, a, b)
    }

    /// `self + other`.
    pub fn add(&self, other: &Term) -> Term {
        Term::op(BinOp::Add, self, other)
    }

    /// `self + c`.
    pub fn add_const(&self, c: u32) -> Term {
        self.add(&Term::constant(c))
    }

    /// Decomposes into `(base, offset)` where `self = base + offset` and
    /// `offset` is constant (offset 0 when no addition is present). The
    /// workhorse of symbolic address resolution.
    pub fn split_offset(&self) -> (Term, u32) {
        if let Some((BinOp::Add, x, c)) = self.as_op() {
            if let Some(c) = c.as_const() {
                return (x.clone(), c);
            }
        }
        (self.clone(), 0)
    }

    /// All symbolic variables occurring in the term.
    pub fn vars(&self) -> Vec<SymVar> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<SymVar>) {
        match &self.inner.node {
            Node::Const(_) => {}
            Node::Var(v) => {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            Node::Op(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_fold() {
        let t = Term::op(BinOp::Add, &Term::constant(2), &Term::constant(3));
        assert_eq!(t.as_const(), Some(5));
        let t = Term::op(BinOp::DivU, &Term::constant(7), &Term::constant(0));
        assert_eq!(t.as_const(), Some(u32::MAX));
    }

    #[test]
    fn identities_simplify() {
        let x = Term::var(0, "x");
        assert_eq!(Term::op(BinOp::Add, &x, &Term::constant(0)), x);
        assert_eq!(Term::op(BinOp::Sub, &x, &x).as_const(), Some(0));
        assert_eq!(Term::op(BinOp::Eq, &x, &x).as_const(), Some(1));
        assert_eq!(
            Term::op(BinOp::And, &x, &Term::constant(0)).as_const(),
            Some(0)
        );
    }

    #[test]
    fn offset_chains_normalize() {
        let x = Term::var(0, "x");
        let t = x.add_const(4).add_const(8);
        assert_eq!(t.split_offset(), (x.clone(), 12));
        let t = Term::op(BinOp::Sub, &x.add_const(4), &Term::constant(8));
        assert_eq!(t.split_offset(), (x, 4u32.wrapping_sub(8)));
    }

    #[test]
    fn vars_are_collected_once() {
        let x = Term::var(0, "x");
        let y = Term::var(1, "y");
        let t = Term::op(BinOp::Add, &x, &Term::op(BinOp::Mul, &x, &y));
        assert_eq!(t.vars().len(), 2);
    }

    #[test]
    fn debug_renders_readably() {
        let x = Term::var(3, "len");
        let t = Term::op(BinOp::Ltu, &x, &Term::constant(1520));
        assert_eq!(format!("{t:?}"), "(len#3 < 1520)");
    }

    #[test]
    fn hash_consing_makes_equality_pointer_equality() {
        let a = Term::op(
            BinOp::Add,
            &Term::var(0, "x"),
            &Term::op(BinOp::Mul, &Term::var(1, "i"), &Term::constant(4)),
        );
        let b = Term::op(
            BinOp::Add,
            &Term::var(0, "x"),
            &Term::op(BinOp::Mul, &Term::var(1, "i"), &Term::constant(4)),
        );
        assert!(Rc::ptr_eq(&a.inner, &b.inner));
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn distinct_terms_have_distinct_fingerprints() {
        let x = Term::var(0, "x");
        let y = Term::var(0, "y"); // same id, different name
        assert_ne!(x, y);
        assert_ne!(x.fingerprint(), y.fingerprint());
        // Near-miss shapes that a weak hash might conflate.
        let a = Term::op(BinOp::Sub, &x, &Term::constant(1));
        let b = Term::op(BinOp::Add, &x, &Term::constant(1u32.wrapping_neg()));
        // (note: x - 1 normalizes to x + (-1), so these SHOULD agree)
        assert_eq!(a, b);
        let c = Term::op(BinOp::Xor, &x, &Term::constant(1));
        let d = Term::op(BinOp::Or, &x, &Term::constant(1));
        assert_ne!(c.fingerprint(), d.fingerprint());
    }

    #[test]
    fn fingerprints_agree_across_threads() {
        let here = Term::op(BinOp::Add, &Term::var(7, "len"), &Term::constant(12));
        // Terms are not `Send`; only the fingerprint crosses.
        let there = std::thread::spawn(|| {
            Term::op(BinOp::Add, &Term::var(7, "len"), &Term::constant(12)).fingerprint()
        })
        .join()
        .expect("fingerprint thread panicked");
        assert_eq!(here.fingerprint(), there);
    }

    #[test]
    fn separately_allocated_equal_terms_compare_equal() {
        let build = || Term::op(BinOp::Add, &Term::var(7, "len"), &Term::constant(12));
        let first = build();
        reset_interner();
        let second = build();
        // The reset broke the sharing at every level, so equality must
        // come from the structural fallback, not from the pointers.
        assert!(!Rc::ptr_eq(&first.inner, &second.inner));
        assert_eq!(first, second);
        assert_ne!(
            first,
            Term::op(BinOp::Add, &Term::var(7, "len"), &Term::constant(13))
        );
    }
}

//! The memoized dynamic-programming matcher that decided trace
//! predicates before the streaming `Monitor`, kept as a test-only oracle
//! for it.
//!
//! For each (node, start position) pair it computes the sorted set of
//! positions where a member of the node's set can end, pruned by
//! per-node length bounds, and decides prefix acceptance by recursion over
//! the same table. `longest_matching_prefix` binary-searches over full
//! prefix checks, which is valid because prefix acceptance is monotone.
//! Like the monitor, prefix answers assume every atom is satisfiable.
//!
//! A bounded repetition `P ^{0..n}` is decided through its unrolled form,
//! `ε ||| P +++ (ε ||| P +++ …)` nested `n` deep: the definition the
//! monitor's counters must agree with.

use lightbulb_system::obs::fx::FxBuild;
use lightbulb_system::proglogic::trace::{Node, TracePred};
use lightbulb_system::riscv::MmioEvent;
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

/// Whether `t` can be extended to a member of `p`.
pub fn matches_prefix(p: &TracePred, t: &[MmioEvent]) -> bool {
    Dp::new(t).p(p, 0)
}

/// Whether `t` can be extended to a member of `p`, and whether it is one,
/// from one table.
pub fn prefix_and_member(p: &TracePred, t: &[MmioEvent]) -> (bool, bool) {
    let mut dp = Dp::new(t);
    let prefix = dp.p(p, 0);
    let member = dp.len_ok(p, t.len()) && dp.ends(p, 0).contains(&t.len());
    (prefix, member)
}

/// Length of the longest prefix of `t` accepted by [`matches_prefix`].
pub fn longest_matching_prefix(p: &TracePred, t: &[MmioEvent]) -> usize {
    if matches_prefix(p, t) {
        return t.len();
    }
    let (mut lo, mut hi) = (0usize, t.len()); // lo matches, hi doesn't
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if matches_prefix(p, &t[..mid]) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Nodes are identified by address: they are shared, never copied.
fn key(p: &TracePred) -> usize {
    std::ptr::from_ref(p.node()) as usize
}

struct Dp<'t> {
    t: &'t [MmioEvent],
    ends: HashMap<(usize, usize), Rc<Vec<usize>>, FxBuild>,
    prefix: HashMap<(usize, usize), bool, FxBuild>,
    /// Minimum and maximum (`None` = unbounded) member length per node.
    bounds: HashMap<usize, (usize, Option<usize>), FxBuild>,
    /// The unrolled form of each `Repeat` node, kept alive so its nodes'
    /// addresses stay valid keys.
    unrolled: HashMap<usize, TracePred, FxBuild>,
}

impl<'t> Dp<'t> {
    fn new(t: &'t [MmioEvent]) -> Dp<'t> {
        Dp {
            t,
            ends: HashMap::default(),
            prefix: HashMap::default(),
            bounds: HashMap::default(),
            unrolled: HashMap::default(),
        }
    }

    /// `body ^{0..max}` as nested unions, built once per node.
    fn unroll(&mut self, p: &TracePred) -> TracePred {
        let Node::Repeat { body, max } = p.node() else {
            unreachable!("only Repeat nodes unroll");
        };
        self.unrolled
            .entry(key(p))
            .or_insert_with(|| {
                let mut acc = TracePred::eps();
                for _ in 0..*max {
                    acc = body.then(&acc).or(&TracePred::eps());
                }
                acc
            })
            .clone()
    }

    fn bounds(&mut self, p: &TracePred) -> (usize, Option<usize>) {
        if let Some(&b) = self.bounds.get(&key(p)) {
            return b;
        }
        let b = match p.node() {
            Node::Eps => (0, Some(0)),
            Node::Atom(_) => (1, Some(1)),
            Node::Concat(a, b) => {
                let ((amin, amax), (bmin, bmax)) = (self.bounds(a), self.bounds(b));
                (amin + bmin, amax.zip(bmax).map(|(x, y)| x + y))
            }
            Node::Union(a, b) => {
                let ((amin, amax), (bmin, bmax)) = (self.bounds(a), self.bounds(b));
                (amin.min(bmin), amax.zip(bmax).map(|(x, y)| x.max(y)))
            }
            Node::Star(a) => (0, (self.bounds(a).1 == Some(0)).then_some(0)),
            Node::Repeat { .. } => {
                let u = self.unroll(p);
                self.bounds(&u)
            }
        };
        self.bounds.insert(key(p), b);
        b
    }

    fn len_ok(&mut self, p: &TracePred, n: usize) -> bool {
        let (min, max) = self.bounds(p);
        n >= min && max.is_none_or(|m| n <= m)
    }

    /// The sorted set of positions `e` such that `t[lo..e]` is a member.
    fn ends(&mut self, p: &TracePred, lo: usize) -> Rc<Vec<usize>> {
        if let Some(r) = self.ends.get(&(key(p), lo)) {
            return Rc::clone(r);
        }
        let t = self.t;
        let result: Vec<usize> = match p.node() {
            Node::Eps => vec![lo],
            Node::Atom(pred) => {
                if lo < t.len() && pred.test(&t[lo]) {
                    vec![lo + 1]
                } else {
                    vec![]
                }
            }
            Node::Concat(a, b) => {
                let mut out = Vec::new();
                for m in self.ends(a, lo).iter() {
                    out.extend(self.ends(b, *m).iter().copied());
                }
                out.sort_unstable();
                out.dedup();
                out
            }
            Node::Union(a, b) => {
                let mut out: Vec<usize> = self.ends(a, lo).to_vec();
                out.extend(self.ends(b, lo).iter().copied());
                out.sort_unstable();
                out.dedup();
                out
            }
            Node::Star(a) => {
                // Reachability closure over iteration boundaries.
                let mut seen = BTreeSet::from([lo]);
                let mut queue = vec![lo];
                while let Some(s) = queue.pop() {
                    for e in self.ends(a, s).iter() {
                        if seen.insert(*e) {
                            queue.push(*e);
                        }
                    }
                }
                seen.into_iter().collect()
            }
            Node::Repeat { .. } => {
                let u = self.unroll(p);
                self.ends(&u, lo).to_vec()
            }
        };
        let rc = Rc::new(result);
        self.ends.insert((key(p), lo), Rc::clone(&rc));
        rc
    }

    /// Whether the whole remaining trace `t[lo..]` is a prefix of some
    /// member of `p`.
    fn p(&mut self, p: &TracePred, lo: usize) -> bool {
        let n = self.t.len();
        if let (_, Some(m)) = self.bounds(p) {
            if n - lo > m {
                return false;
            }
        }
        if let Some(&r) = self.prefix.get(&(key(p), lo)) {
            return r;
        }
        // Seed against ε-repetition cycles in Star.
        self.prefix.insert((key(p), lo), false);
        let r = match p.node() {
            Node::Eps => lo == n,
            Node::Atom(pred) => lo == n || (n - lo == 1 && pred.test(&self.t[lo])),
            Node::Concat(a, b) => {
                let a_ends = self.ends(a, lo);
                a_ends.iter().any(|m| self.p(b, *m)) || self.p(a, lo)
            }
            Node::Union(a, b) => self.p(a, lo) || self.p(b, lo),
            Node::Star(a) => {
                // Reachable boundaries; prefix holds if any boundary is the
                // end of the trace or starts a prefix of one more body.
                let mut seen = BTreeSet::from([lo]);
                let mut queue = vec![lo];
                let mut ok = false;
                while let Some(s) = queue.pop() {
                    if s == n || self.p(a, s) {
                        ok = true;
                        break;
                    }
                    for e in self.ends(a, s).iter() {
                        if seen.insert(*e) {
                            queue.push(*e);
                        }
                    }
                }
                ok
            }
            Node::Repeat { .. } => {
                let u = self.unroll(p);
                self.p(&u, lo)
            }
        };
        self.prefix.insert((key(p), lo), r);
        r
    }
}

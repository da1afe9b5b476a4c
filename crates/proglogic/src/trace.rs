//! Trace predicates: the regex-like specification language of §3.1.
//!
//! A [`TracePred`] denotes a set of I/O traces (sequences of
//! [`MmioEvent`]s). The combinators mirror the paper's notation:
//!
//! | paper        | here                   |
//! |--------------|------------------------|
//! | `P +++ Q`    | [`TracePred::then`]    |
//! | `P \|\|\| Q` | [`TracePred::or`]      |
//! | `P ^*`       | [`TracePred::star`]    |
//! | `P ^{0..n}`  | [`TracePred::at_most`] |
//! | `EX b, P b`  | [`TracePred::ex_bool`] |
//!
//! Because trace predicates remain ordinary logical functions in the paper
//! (retaining "the full expressive power of higher-order logic"), atoms
//! here are arbitrary predicates on one event. Predicates are immutable
//! and `Send + Sync`, so one specification can be built once and shared by
//! every thread of a sweep.
//!
//! Traces are checked by a [`Monitor`]: an automaton built lazily from the
//! predicate that consumes one event at a time. A monitor state is a
//! *continuation* — a node of the predicate followed by the rest of the
//! sequence it sits in — and its outgoing transitions are the atoms
//! reachable from it without consuming an event. States are only built
//! when a trace reaches them, because the unfolded automaton of a real
//! specification is far too large to build up front. Bounded loops
//! (`P ^{0..n}`, the drivers' timeout polls) are not unfolded at all: the
//! monitor is a counter automaton, whose states carry no iteration
//! counts. Each live entry carries one counter per loop it sits inside,
//! and each transition a guard (iterate only below the bound) and an
//! update (exit, iterate, enter at one) on those counters.
//!
//! The end-to-end theorem constrains *prefixes* of traces (the system may
//! be mid-interaction when observed). A monitor accepts a prefix while its
//! set of live states is non-empty. That is exact under one assumption,
//! made here once for every prefix query in this module: **every atom is
//! satisfiable** (some event satisfies it), so every live state can still
//! be extended to a member. All of the lightbulb's atoms are.

use obs::fx::FxBuild;
use riscv_spec::MmioEvent;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// A predicate over one I/O event, with a name for diagnostics.
#[derive(Clone)]
pub struct EventPred {
    name: String,
    f: Arc<dyn Fn(&MmioEvent) -> bool + Send + Sync>,
}

impl EventPred {
    /// Whether `e` satisfies the predicate.
    pub fn test(&self, e: &MmioEvent) -> bool {
        (self.f)(e)
    }
}

impl fmt::Debug for EventPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// One node of a [`TracePred`]: the structure interpreters walk
/// ([`TracePred::node`]).
pub enum Node {
    /// The empty trace.
    Eps,
    /// Exactly one event satisfying the predicate.
    Atom(EventPred),
    /// Concatenation (`+++`).
    Concat(TracePred, TracePred),
    /// Union (`|||`).
    Union(TracePred, TracePred),
    /// Zero or more repetitions (`^*`).
    Star(TracePred),
    /// Zero to `max` repetitions (`^{0..max}`).
    Repeat {
        /// The repeated predicate.
        body: TracePred,
        /// The most repetitions a member has.
        max: usize,
    },
}

/// A set of I/O traces, built from regex-like combinators.
#[derive(Clone)]
pub struct TracePred {
    node: Arc<Node>,
    /// Optional display label ([`TracePred::named`]): rendered instead of
    /// the structure, so large sub-specifications print as one token —
    /// how the paper's spec stays "less than a page".
    label: Option<Arc<str>>,
}

impl fmt::Debug for TracePred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(label) = &self.label {
            return write!(f, "{label}");
        }
        match &*self.node {
            Node::Eps => write!(f, "ε"),
            Node::Atom(p) => write!(f, "{p:?}"),
            Node::Concat(a, b) => write!(f, "({a:?} +++ {b:?})"),
            Node::Union(a, b) => write!(f, "({a:?} ||| {b:?})"),
            Node::Star(a) => write!(f, "({a:?})^*"),
            Node::Repeat { body, max } => write!(f, "({body:?})^{{0..{max}}}"),
        }
    }
}

impl TracePred {
    fn mk(node: Node) -> TracePred {
        TracePred {
            node: Arc::new(node),
            label: None,
        }
    }

    /// The predicate's top node. Nodes are shared, not copied, between
    /// the predicates built from them.
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// Attaches a display name: `Debug` renders the name instead of the
    /// full combinator structure (matching is unaffected).
    pub fn named(mut self, name: &str) -> TracePred {
        self.label = Some(Arc::from(name));
        self
    }

    /// The set containing only the empty trace.
    pub fn eps() -> TracePred {
        TracePred::mk(Node::Eps)
    }

    /// The set of single-event traces whose event satisfies `f`.
    pub fn atom(name: &str, f: impl Fn(&MmioEvent) -> bool + Send + Sync + 'static) -> TracePred {
        TracePred::mk(Node::Atom(EventPred {
            name: name.to_string(),
            f: Arc::new(f),
        }))
    }

    /// Concatenation — the paper's `+++`.
    pub fn then(&self, next: &TracePred) -> TracePred {
        TracePred::mk(Node::Concat(self.clone(), next.clone()))
    }

    /// Union — the paper's `|||`.
    pub fn or(&self, other: &TracePred) -> TracePred {
        TracePred::mk(Node::Union(self.clone(), other.clone()))
    }

    /// Zero or more repetitions — the paper's `^*`.
    pub fn star(&self) -> TracePred {
        TracePred::mk(Node::Star(self.clone()))
    }

    /// Zero to `n` repetitions — a bounded loop, such as a driver's
    /// timeout poll. The monitor counts the iterations instead of
    /// unfolding them, so its state table does not grow with `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not fit in a `u32`.
    pub fn at_most(&self, n: usize) -> TracePred {
        assert!(u32::try_from(n).is_ok(), "bound {n} overflows u32");
        TracePred::mk(Node::Repeat {
            body: self.clone(),
            max: n,
        })
    }

    /// One or more repetitions.
    pub fn plus(&self) -> TracePred {
        self.then(&self.star())
    }

    /// Existential over a boolean — the paper's `EX b: bool, P b`
    /// (a finite union).
    pub fn ex_bool(f: impl Fn(bool) -> TracePred) -> TracePred {
        f(false).or(&f(true))
    }

    /// Concatenation of a sequence of predicates.
    pub fn all<I: IntoIterator<Item = TracePred>>(preds: I) -> TracePred {
        let mut it = preds.into_iter();
        let first = it.next().unwrap_or_else(TracePred::eps);
        it.fold(first, |acc, p| acc.then(&p))
    }

    /// Union of a sequence of predicates.
    ///
    /// # Panics
    ///
    /// Panics on an empty sequence (the empty union is the empty set,
    /// which no combinator here denotes).
    pub fn any<I: IntoIterator<Item = TracePred>>(preds: I) -> TracePred {
        let mut it = preds.into_iter();
        let first = it.next().expect("any() needs at least one alternative");
        it.fold(first, |acc, p| acc.or(&p))
    }

    /// Decides membership of `t` in the set.
    pub fn matches(&self, t: &[MmioEvent]) -> bool {
        let mut monitor = Monitor::new(self);
        monitor.first_violation(t).is_none() && monitor.accepting()
    }

    /// Decides whether `t` can be extended to a member (assuming every
    /// atom is satisfiable, see the module docs).
    pub fn matches_prefix(&self, t: &[MmioEvent]) -> bool {
        Monitor::new(self).first_violation(t).is_none()
    }

    /// Length of the longest prefix of `t` accepted by
    /// [`TracePred::matches_prefix`] — the diagnostic for "where did the
    /// trace go wrong". It is the index of the event at which a
    /// [`Monitor`] dies, or `t.len()` when it never does: one pass over
    /// the trace.
    pub fn longest_matching_prefix(&self, t: &[MmioEvent]) -> usize {
        Monitor::new(self).first_violation(t).unwrap_or(t.len())
    }
}

/// The control state with nothing left to match.
const DONE: u32 = 0;

/// A control state of a [`Monitor`]. Control states carry no iteration
/// counts: those live in the live entries, so one control state serves
/// every count of the bounded loops around it.
#[derive(Clone, Copy)]
enum Ctrl<'a> {
    /// Nothing left: the trace may end here.
    Done,
    /// Match the node, then control state `rest`.
    Then(&'a Node, u32),
    /// The end of one iteration of the bounded loop entered at control
    /// state `head` (a `Then(Node::Repeat, rest)` state): exit to `rest`,
    /// or iterate again while the loop's count is below its bound.
    Back(u32),
}

/// One transition of a closure. Consuming an event that satisfies `atom`
/// leads to control state `to`. The entry's counters (one per enclosing
/// bounded loop, outermost first) become the first `keep` of the old
/// ones, the last of those incremented when `bump` is non-zero, followed
/// by `enter` counts of one.
#[derive(Clone, Copy)]
struct Edge<'a> {
    atom: &'a EventPred,
    to: u32,
    /// The loops the path did not exit.
    keep: u32,
    /// When non-zero, the path iterates the innermost kept loop again:
    /// allowed only while its count is below `bump`, its bound.
    bump: u32,
    /// The loops the path entered, each at its first iteration.
    enter: u32,
}

/// The ε-closure of one control state: its transitions are
/// `Monitor::edges[start..end]`, and `accepts` says whether it can finish
/// without consuming another event.
#[derive(Clone, Copy)]
struct Closure {
    start: u32,
    end: u32,
    accepts: bool,
}

/// A live entry: control state `state`, whose counters are
/// `counts[at..at + depth[state]]`.
#[derive(Clone, Copy)]
struct Entry {
    state: u32,
    at: u32,
}

/// A streaming checker for one [`TracePred`]: feed it a trace one event at
/// a time and it says, after each event, whether the trace so far is still
/// a prefix of a member.
///
/// It is a counter automaton. Control states are hash-consed
/// continuations `(node, rest)` — "match `node`, then continuation
/// `rest`" — numbered by `u32`. A bounded loop `P ^{0..n}` is one control
/// state however large `n` is; the iteration count of every loop an
/// entry sits inside is a counter carried by the live entry. A control
/// state's ε-closure (the atoms it can consume next, where each leads,
/// and the counter guard and update on the way) is computed the first
/// time a trace reaches it and kept for the monitor's lifetime, so a
/// second trace through the same interactions reuses the states the first
/// one built.
///
/// The live set keeps, per control state, only counter vectors that no
/// other vector of that state dominates (is no larger in every count).
/// Guards only bound counts from above and updates are monotone, so a
/// dominated entry allows no continuation its dominator does not:
/// dropping it changes no verdict. This is what keeps the live set small
/// when one run of reads can be split across nested or consecutive loops
/// in many ways — each split is a different counter vector of the same
/// control states.
///
/// A closure never iterates a loop twice without consuming an event: a
/// path that comes back to the end of an iteration it started itself
/// matched an empty body, and the same path without that iteration
/// reaches the same control state with a smaller count. Dropping it keeps
/// the language (a smaller count never allows less) and makes loops with
/// nullable bodies terminate.
///
/// Build one monitor per check: the state table grows with every new
/// path a trace takes and is dropped with the monitor.
pub struct Monitor<'a> {
    root: u32,
    states: Vec<Ctrl<'a>>,
    /// Counters per control state: the bounded loops it sits inside.
    depth: Vec<u32>,
    ids: HashMap<(usize, u32), u32, FxBuild>,
    closures: Vec<Option<Closure>>,
    /// Transitions of every computed closure.
    edges: Vec<Edge<'a>>,
    live: Vec<Entry>,
    /// The live entries' counters.
    counts: Vec<u32>,
    next: Vec<Entry>,
    next_counts: Vec<u32>,
    /// Scratch for closure computation: `(state, loops exited, bump)`
    /// path summaries, to visit and visited.
    stack: Vec<(u32, u32, u32)>,
    seen: HashSet<(u32, u32, u32), FxBuild>,
}

impl<'a> Monitor<'a> {
    /// A monitor for `spec`, positioned at the start of a trace.
    pub fn new(spec: &'a TracePred) -> Monitor<'a> {
        let mut m = Monitor {
            root: DONE,
            states: vec![Ctrl::Done],
            depth: vec![0],
            ids: HashMap::default(),
            closures: vec![None],
            edges: Vec::new(),
            live: Vec::new(),
            counts: Vec::new(),
            next: Vec::new(),
            next_counts: Vec::new(),
            stack: Vec::new(),
            seen: HashSet::default(),
        };
        m.root = m.intern(spec, DONE);
        m.reset();
        m
    }

    /// Moves back to the start of a trace, keeping the states built so
    /// far.
    fn reset(&mut self) {
        self.live.clear();
        self.counts.clear();
        self.live.push(Entry {
            state: self.root,
            at: 0,
        });
    }

    /// Consumes one event. Returns whether the trace so far is still a
    /// prefix of a member; once it is not, every later step returns
    /// `false` too, until [`Monitor::first_violation`] starts a new
    /// trace.
    pub fn step(&mut self, e: &MmioEvent) -> bool {
        self.next.clear();
        self.next_counts.clear();
        for i in 0..self.live.len() {
            let Entry { state, at } = self.live[i];
            let c = self.closure(state);
            let from = &self.counts[at as usize..];
            for edge in &self.edges[c.start as usize..c.end as usize] {
                let keep = edge.keep as usize;
                if (edge.bump != 0 && from[keep - 1] >= edge.bump) || !edge.atom.test(e) {
                    continue;
                }
                let to = self.next_counts.len();
                self.next_counts.extend_from_slice(&from[..keep]);
                if edge.bump != 0 {
                    self.next_counts[to + keep - 1] += 1;
                }
                self.next_counts.resize(to + keep + edge.enter as usize, 1);
                self.next.push(Entry {
                    state: edge.to,
                    at: as_u32(to),
                });
            }
        }
        let (depth, counts) = (&self.depth, &self.next_counts);
        let key = |e: &Entry| {
            let at = e.at as usize;
            (e.state, &counts[at..at + depth[e.state as usize] as usize])
        };
        self.next.sort_unstable_by(|a, b| key(a).cmp(&key(b)));
        // Keep the entries no other entry of their control state
        // dominates. Sorted, a dominating vector comes first.
        let (mut kept, mut group) = (0, 0);
        for i in 0..self.next.len() {
            let (state, v) = key(&self.next[i]);
            if kept == 0 || self.next[kept - 1].state != state {
                group = kept;
            }
            let dominated = self.next[group..kept]
                .iter()
                .any(|k| key(k).1.iter().zip(v).all(|(x, y)| x <= y));
            if !dominated {
                self.next[kept] = self.next[i];
                kept += 1;
            }
        }
        self.next.truncate(kept);
        std::mem::swap(&mut self.live, &mut self.next);
        std::mem::swap(&mut self.counts, &mut self.next_counts);
        !self.live.is_empty()
    }

    /// Checks `t` from the start of a trace (resetting the monitor first):
    /// the index of the first event after which `t` is no longer a prefix
    /// of a member, or `None` when all of `t` is.
    pub fn first_violation(&mut self, t: &[MmioEvent]) -> Option<usize> {
        self.reset();
        t.iter().position(|e| !self.step(e))
    }

    /// Whether the events consumed so far form a complete member.
    pub fn accepting(&mut self) -> bool {
        (0..self.live.len()).any(|i| self.closure(self.live[i].state).accepts)
    }

    /// Adds control state `ctrl`, known by `key`, with `depth` counters.
    fn add(&mut self, key: (usize, u32), ctrl: Ctrl<'a>, depth: u32) -> u32 {
        if let Some(&s) = self.ids.get(&key) {
            return s;
        }
        let s = u32::try_from(self.states.len()).expect("monitor state table overflows u32");
        self.states.push(ctrl);
        self.depth.push(depth);
        self.closures.push(None);
        self.ids.insert(key, s);
        s
    }

    /// The control state "match `p`, then state `rest`".
    fn intern(&mut self, p: &'a TracePred, rest: u32) -> u32 {
        let node: &'a Node = &p.node;
        let key = (std::ptr::from_ref(node) as usize, rest);
        self.add(key, Ctrl::Then(node, rest), self.depth[rest as usize])
    }

    /// The end-of-iteration state of the loop entered at `head`. Its key
    /// pairs `head` with address 0, which no node has.
    fn back(&mut self, head: u32) -> u32 {
        self.add((0, head), Ctrl::Back(head), self.depth[head as usize] + 1)
    }

    /// The ε-closure of control state `s`, computed on first use.
    ///
    /// It walks path summaries `(state, exited, bump)`: how many of `s`'s
    /// loops the path has exited, and the bound of the loop it iterated
    /// again (0 for none). The loops entered since are the counters
    /// `state` has beyond the ones kept.
    fn closure(&mut self, s: u32) -> Closure {
        if let Some(c) = self.closures[s as usize] {
            return c;
        }
        let depth = self.depth[s as usize];
        let start = self.edges.len();
        let mut accepts = false;
        self.seen.clear();
        self.stack.push((s, 0, 0));
        while let Some(item @ (c, exited, bump)) = self.stack.pop() {
            if !self.seen.insert(item) {
                continue;
            }
            let keep = depth - exited;
            match self.states[c as usize] {
                Ctrl::Done => accepts = true,
                Ctrl::Then(node, rest) => match node {
                    Node::Eps => self.stack.push((rest, exited, bump)),
                    Node::Atom(p) => self.edges.push(Edge {
                        atom: p,
                        to: rest,
                        keep,
                        bump,
                        enter: self.depth[rest as usize] - keep,
                    }),
                    Node::Concat(a, b) => {
                        let after_a = self.intern(b, rest);
                        let first = self.intern(a, after_a);
                        self.stack.push((first, exited, bump));
                    }
                    Node::Union(a, b) => {
                        let (x, y) = (self.intern(a, rest), self.intern(b, rest));
                        self.stack.extend([(x, exited, bump), (y, exited, bump)]);
                    }
                    Node::Star(a) => {
                        // Each iteration of the body returns to this state.
                        let body = self.intern(a, c);
                        self.stack
                            .extend([(rest, exited, bump), (body, exited, bump)]);
                    }
                    Node::Repeat { body, max } => {
                        // Skip the loop, or start its first iteration:
                        // states inside the body sit under `back`, which
                        // adds the loop's counter (entered at one).
                        self.stack.push((rest, exited, bump));
                        if *max > 0 {
                            let back = self.back(c);
                            let first = self.intern(body, back);
                            self.stack.push((first, exited, bump));
                        }
                    }
                },
                Ctrl::Back(head) => {
                    // This loop's counter is the last one. Unless the
                    // path kept it untouched from the source entry, the
                    // path started the iteration ending here itself, so
                    // the body matched ε: drop it (see `Monitor`).
                    // Otherwise exit the loop, or iterate again under the
                    // guard of the loop's bound.
                    if bump != 0 || self.depth[c as usize] > keep {
                        continue;
                    }
                    let Ctrl::Then(Node::Repeat { body, max }, rest) = self.states[head as usize]
                    else {
                        unreachable!("a loop end belongs to a Repeat state");
                    };
                    let again = self.intern(body, c);
                    self.stack
                        .extend([(rest, exited + 1, 0), (again, exited, as_u32(*max))]);
                }
            }
        }
        let closure = Closure {
            start: as_u32(start),
            end: as_u32(self.edges.len()),
            accepts,
        };
        self.closures[s as usize] = Some(closure);
        closure
    }
}

fn as_u32(n: usize) -> u32 {
    u32::try_from(n).expect("monitor table overflows u32")
}

/// Atom: an MMIO load at `addr` with any value.
pub fn ld(addr: u32) -> TracePred {
    TracePred::atom(&format!("ld@{addr:#x}"), move |e| {
        e.kind == riscv_spec::MmioEventKind::Load && e.addr == addr
    })
}

/// Atom: an MMIO load at `addr` whose value satisfies `f`.
pub fn ld_if(addr: u32, name: &str, f: impl Fn(u32) -> bool + Send + Sync + 'static) -> TracePred {
    TracePred::atom(&format!("ld@{addr:#x}[{name}]"), move |e| {
        e.kind == riscv_spec::MmioEventKind::Load && e.addr == addr && f(e.value)
    })
}

/// Atom: an MMIO store at `addr` with any value.
pub fn st(addr: u32) -> TracePred {
    TracePred::atom(&format!("st@{addr:#x}"), move |e| {
        e.kind == riscv_spec::MmioEventKind::Store && e.addr == addr
    })
}

/// Atom: an MMIO store at `addr` whose value satisfies `f`.
pub fn st_if(addr: u32, name: &str, f: impl Fn(u32) -> bool + Send + Sync + 'static) -> TracePred {
    TracePred::atom(&format!("st@{addr:#x}[{name}]"), move |e| {
        e.kind == riscv_spec::MmioEventKind::Store && e.addr == addr && f(e.value)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_spec::MmioEvent as E;

    fn l(addr: u32, v: u32) -> E {
        E::load(addr, v)
    }
    fn s(addr: u32, v: u32) -> E {
        E::store(addr, v)
    }

    #[test]
    fn atoms_and_concat() {
        let p = ld(0x10).then(&st(0x20));
        assert!(p.matches(&[l(0x10, 5), s(0x20, 1)]));
        assert!(!p.matches(&[l(0x10, 5)]));
        assert!(!p.matches(&[s(0x20, 1), l(0x10, 5)]));
        assert!(!p.matches(&[l(0x10, 5), s(0x20, 1), s(0x20, 1)]));
    }

    #[test]
    fn union_and_star() {
        let p = ld(0x10).or(&st(0x20)).star();
        assert!(p.matches(&[]));
        assert!(p.matches(&[l(0x10, 1), s(0x20, 2), l(0x10, 3)]));
        assert!(!p.matches(&[l(0x30, 1)]));
    }

    #[test]
    fn value_predicates() {
        let busy = ld_if(0x48, "busy", |v| v & 0x8000_0000 != 0);
        assert!(busy.matches(&[l(0x48, 0x8000_0001)]));
        assert!(!busy.matches(&[l(0x48, 1)]));
    }

    #[test]
    fn ex_bool_is_finite_union() {
        let p = TracePred::ex_bool(|b| st_if(0xC, "bit", move |v| v == b as u32));
        assert!(p.matches(&[s(0xC, 0)]));
        assert!(p.matches(&[s(0xC, 1)]));
        assert!(!p.matches(&[s(0xC, 2)]));
    }

    #[test]
    fn prefix_matching() {
        // (ld a; st b)^*
        let p = ld(0xA).then(&st(0xB)).star();
        assert!(p.matches_prefix(&[]));
        assert!(p.matches_prefix(&[l(0xA, 1)]));
        assert!(p.matches_prefix(&[l(0xA, 1), s(0xB, 2)]));
        assert!(p.matches_prefix(&[l(0xA, 1), s(0xB, 2), l(0xA, 3)]));
        assert!(!p.matches_prefix(&[s(0xB, 2)]));
        assert!(!p.matches_prefix(&[l(0xA, 1), l(0xA, 2)]));
    }

    #[test]
    fn longest_matching_prefix_pinpoints_violations() {
        let p = ld(0xA).then(&st(0xB)).star();
        let t = [l(0xA, 1), s(0xB, 1), l(0xA, 2), l(0xFF, 9), s(0xB, 2)];
        assert_eq!(p.longest_matching_prefix(&t), 3);
        let good = [l(0xA, 1), s(0xB, 1)];
        assert_eq!(p.longest_matching_prefix(&good), 2);
    }

    #[test]
    fn star_of_eps_terminates() {
        let p = TracePred::eps().star();
        assert!(p.matches(&[]));
        assert!(!p.matches(&[l(1, 1)]));
        assert!(p.matches_prefix(&[]));
        assert!(!p.matches_prefix(&[l(1, 1)]));
    }

    #[test]
    fn nested_stars_and_unions() {
        // ((a b)* | c)* — nested stars whose bodies can match ε.
        let ab = ld(0xA).then(&ld(0xB));
        let p = ab.star().or(&ld(0xC)).star();
        assert!(p.matches(&[l(0xA, 0), l(0xB, 0), l(0xC, 0), l(0xA, 0), l(0xB, 0)]));
        assert!(!p.matches(&[l(0xA, 0), l(0xC, 0), l(0xB, 0)]));
    }

    #[test]
    fn long_traces_match_quickly() {
        // 3000 repetitions of a 3-event body: one pass, a handful of
        // states.
        let body = ld(0x1).then(&ld(0x2)).then(&st(0x3));
        let p = body.star();
        let mut t = Vec::new();
        for i in 0..3000 {
            t.push(l(0x1, i));
            t.push(l(0x2, i));
            t.push(s(0x3, i));
        }
        assert!(p.matches(&t));
        t.push(l(0x1, 0));
        assert!(p.matches_prefix(&t));
        assert!(!p.matches(&t));
    }

    #[test]
    fn monitor_steps_and_reports_the_first_violation() {
        let p = ld(0xA).then(&st(0xB)).star();
        let mut m = Monitor::new(&p);
        assert!(m.accepting());
        assert!(m.step(&l(0xA, 1)));
        assert!(!m.accepting(), "mid-iteration is a prefix, not a member");
        assert!(m.step(&s(0xB, 1)));
        assert!(m.accepting());
        assert!(!m.step(&s(0xB, 1)));
        assert!(!m.step(&l(0xA, 1)), "a dead monitor stays dead");
        let t = [l(0xA, 1), s(0xB, 1), l(0xA, 2), l(0xFF, 9), s(0xB, 2)];
        assert_eq!(m.first_violation(&t), Some(3), "first_violation resets");
        assert_eq!(m.first_violation(&t[..3]), None);
        assert!(!m.accepting());
    }

    #[test]
    fn monitor_reuses_states_across_traces() {
        let p = ld(0x1).then(&ld(0x2)).then(&st(0x3)).star();
        let t: Vec<E> = (0..50)
            .flat_map(|i| [l(0x1, i), l(0x2, i), s(0x3, i)])
            .collect();
        let mut m = Monitor::new(&p);
        assert_eq!(m.first_violation(&t), None);
        let built = m.states.len();
        assert!(built < 16, "{built} states for a 3-event loop");
        assert_eq!(m.first_violation(&t), None);
        assert_eq!(m.states.len(), built, "a repeated trace builds no state");
    }

    #[test]
    fn monitor_survives_epsilon_cycles() {
        // (ε | a)* and (ε*)* put ε-loops into the closure computation.
        let p = TracePred::eps().or(&ld(0xA)).star();
        assert!(p.matches(&[l(0xA, 0), l(0xA, 0)]));
        assert_eq!(p.longest_matching_prefix(&[l(0xA, 0), l(0xB, 0)]), 1);
        let q = TracePred::eps().star().star().then(&ld(0xA));
        assert!(q.matches(&[l(0xA, 0)]));
        assert!(!q.matches(&[]));
        assert!(q.matches_prefix(&[]));
    }

    #[test]
    fn predicates_are_shareable_across_threads() {
        fn send_sync<T: Send + Sync>(_: &T) {}
        let p = ld(0xA).then(&st(0xB)).star();
        send_sync(&p);
        let t = [l(0xA, 1), s(0xB, 1)];
        std::thread::scope(|sc| {
            let h = sc.spawn(|| p.matches(&t));
            assert!(h.join().expect("matcher thread"));
        });
    }

    #[test]
    fn all_and_any_combinators() {
        let p = TracePred::all([ld(1), ld(2), ld(3)]);
        assert!(p.matches(&[l(1, 0), l(2, 0), l(3, 0)]));
        let q = TracePred::any([ld(1), ld(2)]);
        assert!(q.matches(&[l(2, 0)]));
        assert!(!q.matches(&[l(3, 0)]));
    }

    #[test]
    fn bounded_repeat_builds_the_same_states_whatever_its_bound() {
        let body = ld(0x1).then(&st(0x2));
        let t: Vec<E> = (0..5).flat_map(|i| [l(0x1, i), s(0x2, i)]).collect();
        let built = |n| {
            let p = body.at_most(n);
            let mut m = Monitor::new(&p);
            assert_eq!(m.first_violation(&t), None);
            assert!(m.accepting());
            m.states.len()
        };
        assert_eq!(built(10), built(10_000));
    }

    #[test]
    fn bounded_repeat_dies_at_the_iteration_past_its_bound() {
        let body = ld(0x1).then(&st(0x2));
        for n in [0, 1, 3, 66] {
            let p = body.at_most(n);
            let t: Vec<E> = (0..=n as u32)
                .flat_map(|i| [l(0x1, i), s(0x2, i)])
                .collect();
            assert!(p.matches(&t[..2 * n]), "{n} iterations are a member");
            assert_eq!(
                p.longest_matching_prefix(&t),
                2 * n,
                "iteration {} of {n} is refused at its first event",
                n + 1
            );
        }
    }

    #[test]
    fn bounded_repeat_of_nullable_bodies_terminates() {
        let a = ld(0xA);
        let t = [l(0xA, 0); 6];
        let p = TracePred::eps().or(&a).at_most(3);
        assert!(p.matches(&[]));
        assert!(p.matches(&t[..3]));
        assert_eq!(p.longest_matching_prefix(&t), 3);
        let q = a.star().at_most(2);
        assert!(q.matches(&[]));
        assert!(q.matches(&t));
        assert!(!q.matches_prefix(&[l(0xB, 0)]));
        // Nested: ((ε | a)^{0..2})^{0..2} holds at most four a's.
        let r = TracePred::eps().or(&a).at_most(2).at_most(2);
        assert!(r.matches(&t[..4]));
        assert_eq!(r.longest_matching_prefix(&t), 4);
    }
}

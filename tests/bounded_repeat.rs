//! Property tests for bounded repetition (`TracePred::at_most`, the
//! `Node::Repeat` node): on random predicates with nested and nullable
//! bounded loops, the counter-automaton `Monitor`, the dynamic-programming
//! oracle (`tests/oracle`, which unrolls every `Repeat` into nested
//! unions) and a naive reference matcher agree on membership, prefix
//! acceptance and the first violating index. The monitor also gives the
//! same answers on the spelled-out unrolling as on the `Repeat` node.

mod oracle;

use lightbulb_system::proglogic::trace::{ld, st, Monitor, TracePred};
use lightbulb_system::riscv::{MmioEvent, MmioEventKind};
use proptest::prelude::*;

/// A tiny alphabet of events so random traces actually match sometimes.
fn arb_event() -> impl Strategy<Value = MmioEvent> {
    (0u32..3, any::<bool>(), 0u32..4).prop_map(|(addr, load, value)| {
        if load {
            MmioEvent::load(addr * 4, value)
        } else {
            MmioEvent::store(addr * 4, value)
        }
    })
}

/// A reference description of a predicate, interpretable both as a
/// [`TracePred`] and as a naive recursive matcher.
#[derive(Clone, Debug)]
enum Rx {
    Eps,
    Ld(u32),
    St(u32),
    Seq(Box<Rx>, Box<Rx>),
    Alt(Box<Rx>, Box<Rx>),
    Star(Box<Rx>),
    /// Zero to `n` repetitions.
    Rep(Box<Rx>, usize),
}

fn rep(a: Rx, n: usize) -> Rx {
    Rx::Rep(Box::new(a), n)
}

fn arb_rx() -> impl Strategy<Value = Rx> {
    let leaf = prop_oneof![
        Just(Rx::Eps),
        (0u32..3).prop_map(|a| Rx::Ld(a * 4)),
        (0u32..3).prop_map(|a| Rx::St(a * 4)),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            1 => (inner.clone(), inner.clone()).prop_map(|(a, b)| Rx::Seq(Box::new(a), Box::new(b))),
            1 => (inner.clone(), inner.clone()).prop_map(|(a, b)| Rx::Alt(Box::new(a), Box::new(b))),
            1 => inner.clone().prop_map(|a| Rx::Star(Box::new(a))),
            2 => (inner, 0usize..=4).prop_map(|(a, n)| rep(a, n)),
        ]
    })
}

/// [`arb_rx`] plus the shapes bounded loops make hard: nullable bodies
/// `(ε | x)^{0..n}` and `(x*)^{0..n}`, a loop directly inside a loop, and
/// two loops in a row over the same body (one run of events splits
/// between them in many ways).
fn arb_rx_with_loops() -> impl Strategy<Value = Rx> {
    prop_oneof![
        3 => arb_rx(),
        1 => (arb_rx(), 0usize..=4).prop_map(|(x, n)| rep(Rx::Alt(Box::new(Rx::Eps), Box::new(x)), n)),
        1 => (arb_rx(), 0usize..=4).prop_map(|(x, n)| rep(Rx::Star(Box::new(x)), n)),
        1 => (arb_rx(), 0usize..=4, 0usize..=4).prop_map(|(x, n, m)| rep(rep(x, n), m)),
        1 => (arb_rx(), 0usize..=4, 0usize..=4)
            .prop_map(|(x, n, m)| Rx::Seq(Box::new(rep(x.clone(), n)), Box::new(rep(x, m)))),
    ]
}

/// The predicate, with every `Rep` as a `Repeat` node (`unrolled` false)
/// or spelled out as `ε ||| x +++ (ε ||| x +++ …)` (`unrolled` true).
fn to_pred(rx: &Rx, unrolled: bool) -> TracePred {
    match rx {
        Rx::Eps => TracePred::eps(),
        Rx::Ld(a) => ld(*a),
        Rx::St(a) => st(*a),
        Rx::Seq(x, y) => to_pred(x, unrolled).then(&to_pred(y, unrolled)),
        Rx::Alt(x, y) => to_pred(x, unrolled).or(&to_pred(y, unrolled)),
        Rx::Star(x) => to_pred(x, unrolled).star(),
        Rx::Rep(x, n) if unrolled => {
            let body = to_pred(x, true);
            (0..*n).fold(TracePred::eps(), |acc, _| {
                body.then(&acc).or(&TracePred::eps())
            })
        }
        Rx::Rep(x, n) => to_pred(x, false).at_most(*n),
    }
}

fn is(e: &MmioEvent, kind: MmioEventKind, addr: u32) -> bool {
    e.kind == kind && e.addr == addr
}

/// Naive reference matcher (exponential, fine at these sizes).
fn reference_matches(rx: &Rx, t: &[MmioEvent]) -> bool {
    match rx {
        Rx::Eps => t.is_empty(),
        Rx::Ld(a) => t.len() == 1 && is(&t[0], MmioEventKind::Load, *a),
        Rx::St(a) => t.len() == 1 && is(&t[0], MmioEventKind::Store, *a),
        Rx::Seq(x, y) => {
            (0..=t.len()).any(|i| reference_matches(x, &t[..i]) && reference_matches(y, &t[i..]))
        }
        Rx::Alt(x, y) => reference_matches(x, t) || reference_matches(y, t),
        Rx::Star(x) => {
            t.is_empty()
                || (1..=t.len())
                    .any(|i| reference_matches(x, &t[..i]) && reference_matches(rx, &t[i..]))
        }
        Rx::Rep(x, n) => {
            t.is_empty()
                || (*n > 0
                    && (0..=t.len()).any(|i| {
                        reference_matches(x, &t[..i])
                            && reference_matches(&rep(*x.clone(), n - 1), &t[i..])
                    }))
        }
    }
}

/// Naive reference prefix acceptance: some member of `rx` starts with
/// `t` (every atom here is satisfiable, so a partial match extends).
fn reference_prefix(rx: &Rx, t: &[MmioEvent]) -> bool {
    match rx {
        Rx::Eps => t.is_empty(),
        Rx::Ld(_) | Rx::St(_) => t.is_empty() || reference_matches(rx, t),
        Rx::Seq(x, y) => {
            reference_prefix(x, t)
                || (0..=t.len())
                    .any(|i| reference_matches(x, &t[..i]) && reference_prefix(y, &t[i..]))
        }
        Rx::Alt(x, y) => reference_prefix(x, t) || reference_prefix(y, t),
        Rx::Star(x) => {
            t.is_empty()
                || reference_prefix(x, t)
                || (1..=t.len())
                    .any(|i| reference_matches(x, &t[..i]) && reference_prefix(rx, &t[i..]))
        }
        Rx::Rep(x, n) => {
            t.is_empty()
                || (*n > 0
                    && (reference_prefix(x, t)
                        || (0..=t.len()).any(|i| {
                            reference_matches(x, &t[..i])
                                && reference_prefix(&rep(*x.clone(), n - 1), &t[i..])
                        })))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// At every cut of the trace the monitor, the oracle and the naive
    /// reference agree on prefix acceptance and membership, and all
    /// three put the first violation at the same index.
    #[test]
    fn monitor_agrees_with_oracle_and_reference(
        rx in arb_rx_with_loops(),
        t in proptest::collection::vec(arb_event(), 0..8),
    ) {
        let p = to_pred(&rx, false);
        let mut m = Monitor::new(&p);
        let mut alive = true;
        for k in 0..=t.len() {
            let cut = &t[..k];
            let member = alive && m.accepting();
            prop_assert_eq!((alive, member), oracle::prefix_and_member(&p, cut), "cut {} of {:?}", k, rx);
            prop_assert_eq!(alive, reference_prefix(&rx, cut), "prefix at cut {} of {:?}", k, rx);
            prop_assert_eq!(member, reference_matches(&rx, cut), "member at cut {} of {:?}", k, rx);
            if k < t.len() {
                alive = m.step(&t[k]);
            }
        }
        let first = m.first_violation(&t);
        let reference_first = (0..t.len()).find(|&k| !reference_prefix(&rx, &t[..=k]));
        prop_assert_eq!(first, reference_first, "{:?}", rx);
        prop_assert_eq!(first.unwrap_or(t.len()), oracle::longest_matching_prefix(&p, &t));
    }

    /// The `Repeat` node and its spelled-out unrolling are the same set.
    #[test]
    fn repeat_matches_its_unrolling(
        rx in arb_rx_with_loops(),
        t in proptest::collection::vec(arb_event(), 0..10),
    ) {
        let (p, u) = (to_pred(&rx, false), to_pred(&rx, true));
        prop_assert_eq!(p.matches(&t), u.matches(&t), "{:?}", rx);
        prop_assert_eq!(p.longest_matching_prefix(&t), u.longest_matching_prefix(&t), "{:?}", rx);
    }
}

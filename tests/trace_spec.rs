//! Property tests for the trace-predicate combinators (§3.1): algebraic
//! laws, prefix-monotonicity, and agreement of the streaming `Monitor`
//! with a naive reference regex matcher and with the dynamic-programming
//! oracle (`tests/oracle`) on random predicates and traces.

mod oracle;

use lightbulb_system::proglogic::trace::{ld, st, Monitor, TracePred};
use lightbulb_system::riscv::MmioEvent;
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
}

fn arb_rx() -> impl Strategy<Value = Rx> {
    let leaf = prop_oneof![
        Just(Rx::Eps),
        (0u32..3).prop_map(|a| Rx::Ld(a * 4)),
        (0u32..3).prop_map(|a| Rx::St(a * 4)),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Rx::Seq(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Rx::Alt(Box::new(a), Box::new(b))),
            inner.prop_map(|a| Rx::Star(Box::new(a))),
        ]
    })
}

fn seq(a: Rx, b: Rx) -> Rx {
    Rx::Seq(Box::new(a), Box::new(b))
}
fn alt(a: Rx, b: Rx) -> Rx {
    Rx::Alt(Box::new(a), Box::new(b))
}
fn star(a: Rx) -> Rx {
    Rx::Star(Box::new(a))
}

/// [`arb_rx`] plus the shapes that put ε-loops into the monitor's closure
/// computation: `(ε | x)*`, `((a b)* | c)*`, `(ε*)* x` and `(x*)*`.
fn arb_rx_with_eps_stars() -> impl Strategy<Value = Rx> {
    prop_oneof![
        3 => arb_rx(),
        1 => arb_rx().prop_map(|x| star(alt(Rx::Eps, x))),
        1 => (arb_rx(), arb_rx(), arb_rx()).prop_map(|(a, b, c)| star(alt(star(seq(a, b)), c))),
        1 => arb_rx().prop_map(|x| seq(star(star(Rx::Eps)), x)),
        1 => arb_rx().prop_map(|x| star(star(x))),
    ]
}

fn to_pred(rx: &Rx) -> TracePred {
    match rx {
        Rx::Eps => TracePred::eps(),
        Rx::Ld(a) => ld(*a),
        Rx::St(a) => st(*a),
        Rx::Seq(x, y) => to_pred(x).then(&to_pred(y)),
        Rx::Alt(x, y) => to_pred(x).or(&to_pred(y)),
        Rx::Star(x) => to_pred(x).star(),
    }
}

/// Naive reference matcher (exponential, fine at these sizes).
fn reference_matches(rx: &Rx, t: &[MmioEvent]) -> bool {
    match rx {
        Rx::Eps => t.is_empty(),
        Rx::Ld(a) => {
            t.len() == 1
                && t[0].kind == lightbulb_system::riscv::MmioEventKind::Load
                && t[0].addr == *a
        }
        Rx::St(a) => {
            t.len() == 1
                && t[0].kind == lightbulb_system::riscv::MmioEventKind::Store
                && t[0].addr == *a
        }
        Rx::Seq(x, y) => {
            (0..=t.len()).any(|i| reference_matches(x, &t[..i]) && reference_matches(y, &t[i..]))
        }
        Rx::Alt(x, y) => reference_matches(x, t) || reference_matches(y, t),
        Rx::Star(x) => {
            t.is_empty()
                || (1..=t.len())
                    .any(|i| reference_matches(x, &t[..i]) && reference_matches(rx, &t[i..]))
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
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1200))]

    /// The monitor, the dynamic-programming oracle and the naive reference
    /// agree on full membership and prefix acceptance at every cut of the
    /// trace, and on the first violating index.
    #[test]
    fn monitor_agrees_with_oracle_and_reference(
        rx in arb_rx_with_eps_stars(),
        t in proptest::collection::vec(arb_event(), 0..8),
    ) {
        let p = to_pred(&rx);
        let mut m = Monitor::new(&p);
        let mut alive = true;
        for k in 0..=t.len() {
            let cut = &t[..k];
            let member = alive && m.accepting();
            let oracle_says = oracle::prefix_and_member(&p, cut);
            prop_assert_eq!((alive, member), oracle_says, "cut {} of {:?}", k, rx);
            prop_assert_eq!(alive, reference_prefix(&rx, cut), "prefix at cut {} of {:?}", k, rx);
            prop_assert_eq!(member, reference_matches(&rx, cut), "member at cut {} of {:?}", k, rx);
            if k < t.len() {
                alive = m.step(&t[k]);
            }
        }
        let first = m.first_violation(&t);
        let reference_first = (0..t.len()).find(|&k| !reference_prefix(&rx, &t[..=k]));
        prop_assert_eq!(first, reference_first);
        prop_assert_eq!(first.unwrap_or(t.len()), oracle::longest_matching_prefix(&p, &t));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The combinator matcher agrees with the naive reference semantics.
    #[test]
    fn matches_agrees_with_reference(
        rx in arb_rx(),
        t in proptest::collection::vec(arb_event(), 0..8),
    ) {
        prop_assert_eq!(to_pred(&rx).matches(&t), reference_matches(&rx, &t));
    }

    /// Any full match is also a prefix match, and prefix acceptance is
    /// monotone under truncation.
    #[test]
    fn prefix_laws(
        rx in arb_rx(),
        t in proptest::collection::vec(arb_event(), 0..8),
    ) {
        let p = to_pred(&rx);
        if p.matches(&t) {
            prop_assert!(p.matches_prefix(&t));
        }
        if p.matches_prefix(&t) {
            for k in 0..t.len() {
                prop_assert!(p.matches_prefix(&t[..k]), "truncation to {k} must still match");
            }
        }
    }

    /// `longest_matching_prefix` returns exactly the boundary.
    #[test]
    fn longest_prefix_is_a_boundary(
        rx in arb_rx(),
        t in proptest::collection::vec(arb_event(), 0..8),
    ) {
        let p = to_pred(&rx);
        let k = p.longest_matching_prefix(&t);
        prop_assert!(k <= t.len());
        prop_assert!(p.matches_prefix(&t[..k]));
        if k < t.len() {
            prop_assert!(!p.matches_prefix(&t[..k + 1]));
        }
    }

    /// Algebraic laws: union is commutative and star is idempotent on
    /// membership.
    #[test]
    fn algebraic_laws(
        a in arb_rx(),
        b in arb_rx(),
        t in proptest::collection::vec(arb_event(), 0..6),
    ) {
        let (pa, pb) = (to_pred(&a), to_pred(&b));
        prop_assert_eq!(pa.or(&pb).matches(&t), pb.or(&pa).matches(&t));
        let star = pa.star();
        prop_assert_eq!(star.matches(&t), star.star().matches(&t));
        // ε is a unit for concatenation.
        prop_assert_eq!(
            TracePred::eps().then(&pa).matches(&t),
            pa.matches(&t)
        );
        prop_assert_eq!(pa.then(&TracePred::eps()).matches(&t), pa.matches(&t));
    }

    /// plus = p · p*.
    #[test]
    fn plus_law(a in arb_rx(), t in proptest::collection::vec(arb_event(), 0..6)) {
        let p = to_pred(&a);
        prop_assert_eq!(p.plus().matches(&t), p.then(&p.star()).matches(&t));
    }
}

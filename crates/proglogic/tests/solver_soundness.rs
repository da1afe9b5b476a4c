//! Soundness fuzzing for the prover: whenever [`prove`] answers `Proved`,
//! the goal must hold under every concrete valuation satisfying the
//! assumptions. The test samples random terms, assumptions, and
//! valuations; a single counterexample would demonstrate an unsound
//! inference (the one failure mode a verification tool must not have —
//! incompleteness is fine, unsoundness is not). A second property holds
//! a reused [`Context`] to the answers of fresh ones.

use bedrock2::ast::BinOp;
use proglogic::solver::Context;
use proglogic::{contradictory, prove, Formula, FormulaView, Outcome, Term};
use proptest::prelude::*;
use std::collections::HashMap;

const NVARS: u32 = 3;

fn arb_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        (0u32..NVARS).prop_map(|i| Term::var(i, "v")),
        prop_oneof![
            Just(0u32),
            Just(1),
            Just(4),
            Just(0xFF),
            Just(1520),
            Just(0x8000_0000),
            Just(u32::MAX),
            any::<u32>(),
        ]
        .prop_map(Term::constant),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        (inner.clone(), inner, 0u8..15).prop_map(|(a, b, k)| {
            let op = BinOp::ALL[k as usize];
            Term::op(op, &a, &b)
        })
    })
}

fn arb_cmp() -> impl Strategy<Value = Formula> {
    (arb_term(), arb_term(), 0u8..4).prop_map(|(a, b, k)| match k {
        0 => Formula::eq(&a, &b),
        1 => Formula::ne(&a, &b),
        2 => Formula::ltu(&a, &b),
        _ => Formula::leu(&a, &b),
    })
}

/// A comparison, or a conjunction or disjunction of two.
fn arb_goal() -> impl Strategy<Value = Formula> {
    (arb_cmp(), arb_cmp(), 0u8..3).prop_map(|(a, b, k)| match k {
        0 => a,
        1 => a.and(b),
        _ => a.or(b),
    })
}

fn eval_term(t: &Term, env: &HashMap<u32, u32>) -> u32 {
    if let Some(c) = t.as_const() {
        return c;
    }
    if let Some(v) = t.as_var() {
        return env[&v.id];
    }
    let (op, a, b) = t.as_op().expect("term shapes are exhaustive");
    op.eval(eval_term(a, env), eval_term(b, env))
}

fn eval_formula(f: &Formula, env: &HashMap<u32, u32>) -> bool {
    match f.view() {
        FormulaView::True => true,
        FormulaView::False => false,
        FormulaView::Eq(a, b) => eval_term(a, env) == eval_term(b, env),
        FormulaView::Ne(a, b) => eval_term(a, env) != eval_term(b, env),
        FormulaView::Ltu(a, b) => eval_term(a, env) < eval_term(b, env),
        FormulaView::Leu(a, b) => eval_term(a, env) <= eval_term(b, env),
        FormulaView::And(a, b) => eval_formula(a, env) && eval_formula(b, env),
        FormulaView::Or(a, b) => eval_formula(a, env) || eval_formula(b, env),
        FormulaView::Not(a) => !eval_formula(a, env),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Proved goals hold under every satisfying valuation we can sample.
    #[test]
    fn proved_goals_are_concretely_true(
        assumptions in proptest::collection::vec(arb_cmp(), 0..4),
        goal in arb_cmp(),
        valuations in proptest::collection::vec(
            proptest::collection::vec(any::<u32>(), NVARS as usize),
            1..24,
        ),
    ) {
        if prove(&assumptions, &goal) != Outcome::Proved {
            return Ok(()); // incompleteness is allowed
        }
        for vals in valuations {
            let env: HashMap<u32, u32> =
                (0..NVARS).zip(vals.iter().copied()).collect();
            if assumptions.iter().all(|a| eval_formula(a, &env)) {
                prop_assert!(
                    eval_formula(&goal, &env),
                    "UNSOUND: {goal:?} proved from {assumptions:?} but false at {env:?}"
                );
            }
        }
    }

    /// One context asked a sequence of goals, with feasibility checks in
    /// between, answers each exactly as a context built fresh for it:
    /// the symbolic executor reuses one context across the queries of a
    /// path condition and relies on this.
    #[test]
    fn a_reused_context_answers_as_fresh_ones(
        assumptions in proptest::collection::vec(arb_cmp(), 0..4),
        goals in proptest::collection::vec(arb_goal(), 1..8),
    ) {
        let ctx = Context::new(&assumptions);
        let infeasible = contradictory(&assumptions);
        for goal in &goals {
            prop_assert_eq!(
                ctx.prove(goal),
                prove(&assumptions, goal),
                "{:?} from {:?}", goal, assumptions
            );
            prop_assert_eq!(ctx.contradictory(), infeasible);
        }
    }

    /// Negation is involutive and classical at the evaluation level, so
    /// proving `¬¬g` must be at least as strong as proving `g` concretely.
    #[test]
    fn double_negation_evaluates_identically(
        goal in arb_cmp(),
        vals in proptest::collection::vec(any::<u32>(), NVARS as usize),
    ) {
        let env: HashMap<u32, u32> = (0..NVARS).zip(vals.iter().copied()).collect();
        let neg2 = goal.clone().negate().negate();
        prop_assert_eq!(eval_formula(&goal, &env), eval_formula(&neg2, &env));
    }

    /// Term simplification preserves meaning.
    #[test]
    fn term_simplification_is_sound(
        a in arb_term(),
        b in arb_term(),
        k in 0u8..15,
        vals in proptest::collection::vec(any::<u32>(), NVARS as usize),
    ) {
        let env: HashMap<u32, u32> = (0..NVARS).zip(vals.iter().copied()).collect();
        let op = BinOp::ALL[k as usize];
        // Term::op simplifies eagerly; the unsimplified meaning is
        // op.eval of the operand meanings.
        let combined = Term::op(op, &a, &b);
        prop_assert_eq!(
            eval_term(&combined, &env),
            op.eval(eval_term(&a, &env), eval_term(&b, &env)),
            "simplification changed the meaning of {:?} {:?} {:?}", a, op, b
        );
    }
}

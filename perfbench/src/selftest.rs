//! The benchmark's own checks must go red on a tampered reference or a
//! wrong output, and every workload must complete one checked op.
//! Run with `python3 perfbench/run.py --selftest`.

use crate::common::{input_index, per_layer, FAMILIES, PER_LAYER, SETUP_REPEATS};
use crate::reference::Reference;
use crate::{driver_verify, fault_sweep, refinement, run_workload, triage, WORKLOADS};
use lightbulb_system::devices::FaultPlan;
use lightbulb_system::integration::{
    fault_sweep_with, triage_plan, FaultSweepConfig, FaultSweepOptions,
};

fn reference() -> Reference {
    Reference::load(concat!(env!("CARGO_MANIFEST_DIR"), "/reference.json").as_ref())
        .expect("reference.json loads")
}

#[test]
fn a_wrong_violating_index_is_caught() {
    let reference = reference();
    let setup = triage::setup();
    let (kind, i) = (triage::Kind::Safety, 0);
    let report = triage_plan(&triage::plant(kind, i), &setup.safe_cfg, &setup.bad_image);
    let mut expected = reference.safety[i].clone();
    triage::check(kind, report.as_ref(), &expected).expect("recorded outcome matches");
    expected.index += 1;
    let err = triage::check(kind, report.as_ref(), &expected).expect_err("tampered index");
    assert!(err.contains("violation at event"), "{err}");
    assert!(
        triage::check(kind, None, &reference.safety[i]).is_err(),
        "a passing plant"
    );
}

#[test]
fn a_liveness_plan_without_its_culprit_is_caught() {
    let reference = reference();
    let setup = triage::setup();
    let kind = triage::Kind::Liveness;
    let mut report = triage_plan(&triage::plant(kind, 0), &setup.live_cfg, &setup.image)
        .expect("the plant fails");
    triage::check(kind, Some(&report), &reference.liveness[0]).expect("recorded outcome matches");
    report.minimal = FaultPlan::none();
    let err = triage::check(kind, Some(&report), &reference.liveness[0]).expect_err("no culprit");
    assert!(err.contains("lost the culprit"), "{err}");
}

#[test]
fn a_wrong_obligation_count_is_caught() {
    let reference = reference();
    let setup = driver_verify::setup();
    let results: Vec<_> = driver_verify::proofs(&setup).iter().map(|p| p()).collect();
    let mut expected = reference.proofs.expect("recorded proof counts");
    driver_verify::check(&results, Some(expected)).expect("recorded counts match");
    expected.obligations += 1;
    let err = driver_verify::check(&results, Some(expected)).expect_err("tampered count");
    assert!(err.contains("differ from the recorded"), "{err}");
    // The negative control must fail: a passing stripped driver is red.
    let mut passing = results.clone();
    passing[3] = results[0].clone();
    assert!(driver_verify::totals(&passing).is_err());
}

#[test]
fn a_wrong_sweep_fingerprint_is_caught() {
    let mut reference = reference();
    let cfg = FaultSweepConfig::default();
    let seeds = 0..2;
    let report = fault_sweep_with(seeds.clone(), 1, &cfg, &FaultSweepOptions::default());
    let expected = fault_sweep::expected_fingerprint(&reference, seeds.clone()).expect("recorded");
    fault_sweep::check(&report, seeds.clone(), &expected).expect("recorded fingerprint matches");
    *reference.sweep[1]
        .get_mut("driver.retries")
        .expect("recorded counter") += 1;
    let tampered = fault_sweep::expected_fingerprint(&reference, seeds.clone()).expect("recorded");
    let err = fault_sweep::check(&report, seeds, &tampered).expect_err("tampered fingerprint");
    assert!(
        err.contains("differ from the recorded fingerprint"),
        "{err}"
    );
}

#[test]
fn a_wrong_refinement_event_count_is_caught() {
    let reference = reference();
    let run = run_workload("refinement", &reference, 1, 600.0, Some(1), false);
    assert_eq!((run.attempted, run.failed), (1, 0), "{:?}", run.failures);
    let mut tampered = reference.clone();
    for r in &mut tampered.refinement {
        r.events += 1;
    }
    let run = run_workload("refinement", &tampered, 1, 600.0, Some(1), false);
    assert_eq!(run.failed, 1);
    assert!(
        run.failures[0].contains("differs from the recorded"),
        "{:?}",
        run.failures
    );
    assert_eq!(
        refinement::FAMILY_SEEDS * FAMILIES as usize,
        reference.refinement.len()
    );
}

#[test]
fn every_workload_runs_one_checked_op_untraced_and_traced() {
    let reference = reference();
    for w in WORKLOADS {
        for traced in [false, true] {
            let run = run_workload(w, &reference, 1, 600.0, Some(1), traced);
            assert!(run.attempted >= 1, "{w}: no op ran");
            assert_eq!(run.failed, 0, "{w} (traced {traced}): {:?}", run.failures);
            // Set-up repeats after every recorded call: a sweep call checks
            // two seeds, and triage completes its liveness/safety pair.
            let calls = run.op_ms.len();
            let setup_samples = if traced { 1 } else { 1 + SETUP_REPEATS * calls };
            assert_eq!(run.setup_ms.len(), setup_samples, "{w}: set-up samples");
            if traced {
                let layers = per_layer(&run);
                assert_eq!(layers.len(), PER_LAYER.len());
                assert!(layers["core.op_ms"] > 0.0, "{w}: op time not attributed");
                assert!(
                    run.tracer.as_ref().is_some_and(|t| t.len() > 1),
                    "{w}: no spans"
                );
            }
        }
    }
}

#[test]
fn runs_of_one_family_differ_only_in_their_first_pass_order() {
    let len = 5;
    let inputs = |seed: u64| (0..3 * len as u64).map(move |k| input_index(seed, len, k));
    for seed in [1, 2, 7, 1001, 1002] {
        let family = (seed / 1000 % FAMILIES) as usize;
        let first: Vec<usize> = inputs(seed).take(len).collect();
        let mut sorted = first.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (family * len..(family + 1) * len).collect::<Vec<_>>()
        );
        let later: Vec<usize> = inputs(seed).skip(len).collect();
        let canonical: Vec<usize> = (0..2 * len).map(|k| family * len + k % len).collect();
        assert_eq!(later, canonical, "seed {seed}: repeats are pinned");
    }
    assert_eq!(
        input_index(2001, len, len as u64),
        input_index(1, len, len as u64),
        "seed 2001 wraps onto family 0"
    );
}

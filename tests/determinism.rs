//! Reproducibility: the whole stack — generator, simulator, analyzer — is
//! deterministic in the seed, and different seeds genuinely differ.

use blockoptr_suite::prelude::*;
use workload::spec::ControlVariables;

fn full_run(seed: u64) -> (fabric_sim::report::SimReport, Vec<String>) {
    let cv = ControlVariables {
        transactions: 3_000,
        seed,
        ..Default::default()
    };
    let bundle = workload::synthetic::generate(&cv);
    let output = bundle.run(cv.network_config());
    let analysis = Analyzer::new().analyze_ledger(&output.ledger).unwrap();
    let names = analysis
        .recommendation_names()
        .into_iter()
        .map(String::from)
        .collect();
    (output.report, names)
}

#[test]
fn identical_seeds_reproduce_bit_identical_results() {
    let (a, recs_a) = full_run(42);
    let (b, recs_b) = full_run(42);
    assert_eq!(a.successes, b.successes);
    assert_eq!(a.mvcc_conflicts, b.mvcc_conflicts);
    assert_eq!(a.phantom_conflicts, b.phantom_conflicts);
    assert_eq!(a.blocks, b.blocks);
    assert_eq!(a.duration_s, b.duration_s, "bit-identical timing");
    assert_eq!(a.avg_latency_s, b.avg_latency_s);
    assert_eq!(recs_a, recs_b);
}

#[test]
fn different_seeds_differ_but_agree_qualitatively() {
    let (a, _) = full_run(1);
    let (b, _) = full_run(2);
    assert_ne!(
        (a.successes, a.mvcc_conflicts),
        (b.successes, b.mvcc_conflicts),
        "different draws"
    );
    // Same regime though: both saturated around the same throughput.
    let ratio = a.success_throughput / b.success_throughput;
    assert!((0.8..1.25).contains(&ratio), "{ratio}");
}

#[test]
fn ledger_commit_order_is_stable() {
    let cv = ControlVariables {
        transactions: 2_000,
        ..Default::default()
    };
    let bundle = workload::synthetic::generate(&cv);
    let a = bundle.run(cv.network_config());
    let b = bundle.run(cv.network_config());
    let ids_a: Vec<u64> = a.ledger.transactions().map(|t| t.id.0).collect();
    let ids_b: Vec<u64> = b.ledger.transactions().map(|t| t.id.0).collect();
    assert_eq!(ids_a, ids_b);
}

#[test]
fn analysis_is_deterministic_over_the_same_ledger() {
    let cv = ControlVariables {
        transactions: 2_000,
        ..Default::default()
    };
    let bundle = workload::synthetic::generate(&cv);
    let output = bundle.run(cv.network_config());
    let a = Analyzer::new().analyze_ledger(&output.ledger).unwrap();
    let b = Analyzer::new().analyze_ledger(&output.ledger).unwrap();
    assert_eq!(a.recommendations, b.recommendations);
    assert_eq!(a.metrics.keys.hotkeys, b.metrics.keys.hotkeys);
    assert_eq!(
        a.metrics.correlation.conflicts.len(),
        b.metrics.correlation.conflicts.len()
    );
}

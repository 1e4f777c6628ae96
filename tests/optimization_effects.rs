//! Directional-improvement tests: applying each recommended optimization
//! must move the three paper metrics the way §6 reports — who wins, not by
//! exactly how much.

use blockoptr_suite::prelude::*;
use workload::optimize;
use workload::spec::{ControlVariables, PolicyChoice};
use workload::{drm, dv, ehr, lap, scm, ScenarioSpec, WorkloadSpec};

fn run(bundle: &WorkloadBundle, cfg: NetworkConfig) -> fabric_sim::report::SimReport {
    bundle.run(cfg).report
}

/// `bundle` with the prepared rewrite registered as `id` installed in place
/// of its contract: the same schedule and genesis.
fn rewritten(bundle: WorkloadBundle, id: &str) -> WorkloadBundle {
    bundle.with_contracts(vec![chaincode::registry::resolve(id).unwrap()])
}

#[test]
fn rate_control_raises_success_rate() {
    // Figure 10's universal effect: throttling to 100 tps trades throughput
    // for success rate and latency.
    let cv = ControlVariables {
        transactions: 6_000,
        ..Default::default()
    };
    let bundle = workload::synthetic::generate(&cv);
    let before = run(&bundle, cv.network_config());
    let throttled = bundle
        .clone()
        .with_requests(optimize::rate_control(&bundle.requests, 100.0));
    let after = run(&throttled, cv.network_config());
    assert!(after.success_rate_pct > before.success_rate_pct + 2.0);
    assert!(after.avg_latency_s < before.avg_latency_s * 0.5);
    assert!(after.success_throughput < before.success_throughput);
}

#[test]
fn endorser_restructuring_fixes_p1_bottleneck() {
    // Figure 7: P1 makes Org1 mandatory; OutOf(2, …) spreads the load.
    let cv = ControlVariables {
        policy: PolicyChoice::P1,
        transactions: 6_000,
        ..Default::default()
    };
    let bundle = workload::synthetic::generate(&cv);
    let before = run(&bundle, cv.network_config());
    let mut cfg = cv.network_config();
    cfg.endorsement_policy = EndorsementPolicy::p4();
    let after = run(&bundle, cfg);
    assert!(
        after.success_throughput > before.success_throughput * 1.2,
        "restructuring lifts throughput: {} → {}",
        before.success_throughput,
        after.success_throughput
    );
    assert!(after.avg_latency_s < before.avg_latency_s);
}

#[test]
fn client_boost_cuts_latency_under_invoker_skew() {
    // Figure 8.
    let cv = ControlVariables {
        tx_dist_skew: 0.7,
        transactions: 6_000,
        ..Default::default()
    };
    let bundle = workload::synthetic::generate(&cv);
    let before = run(&bundle, cv.network_config());
    let mut cfg = cv.network_config();
    cfg.client_boost = Some((0, 2));
    let after = run(&bundle, cfg);
    assert!(
        after.avg_latency_s < before.avg_latency_s * 0.8,
        "boost drains the client backlog: {} → {}",
        before.avg_latency_s,
        after.avg_latency_s
    );
    assert!(after.success_throughput >= before.success_throughput);
}

#[test]
fn block_size_adaptation_helps_small_blocks() {
    // Figure 9, block count 50 → match the send rate.
    let cv = ControlVariables {
        block_count: 50,
        transactions: 6_000,
        ..Default::default()
    };
    let bundle = workload::synthetic::generate(&cv);
    let before = run(&bundle, cv.network_config());
    let mut cfg = cv.network_config();
    cfg.block_count = 300;
    let after = run(&bundle, cfg);
    assert!(after.success_throughput > before.success_throughput * 1.2);
    assert!(after.success_rate_pct > before.success_rate_pct);
}

#[test]
fn scm_pruning_improves_success_and_aborts_early() {
    let spec = scm::ScmSpec {
        transactions: 6_000,
        ..Default::default()
    };
    let bundle = scm::generate(&spec);
    let before = run(&bundle, NetworkConfig::default());
    let after = run(&rewritten(bundle, "scm:pruned"), NetworkConfig::default());
    assert!(
        after.early_aborted > 0,
        "anomalous flows abort at endorsement"
    );
    assert!(after.success_rate_pct > before.success_rate_pct);
}

#[test]
fn scm_reordering_improves_both_metrics() {
    // Apply the reordering the analysis itself derives (the conflicting
    // readers move behind the writers), as Figure 13 does. The per-seed
    // magnitude depends on the RNG stream (+2.5 to +11 points across
    // seeds), so assert on the *seed-averaged* improvement over five seeds
    // instead of pinning one lucky schedule: the direction must hold for
    // every seed, and the average must clear a real margin.
    let seeds: [u64; 5] = [0, 1, 2, 3, 4];
    let mut rate_gain = 0.0;
    let mut tput_gain = 0.0;
    for seed in seeds {
        // Only the generator is re-seeded; the network keeps its default
        // seed (`ScenarioSpec::with_seed` would re-seed both).
        let mut spec = ScenarioSpec::builtin("scm").unwrap();
        if let WorkloadSpec::Scm(scm) = &mut spec.workload {
            scm.seed = seed;
        }
        let (bundle, config) = spec.build().unwrap();
        let output = bundle.run(config);
        let analysis = Analyzer::new().analyze_ledger(&output.ledger).unwrap();
        let before = output.report;
        let reordering =
            OptimizationPlan::from_analysis(&analysis).select(&["Activity reordering"]);
        assert!(!reordering.is_empty(), "reordering applied for seed {seed}");
        let (reordered, config) = reordering.apply_to_spec(&spec).0.build().unwrap();
        let after = run(&reordered, config);
        assert!(
            after.success_rate_pct > before.success_rate_pct,
            "seed {seed}: {} → {}",
            before.success_rate_pct,
            after.success_rate_pct
        );
        assert!(
            after.success_throughput > before.success_throughput,
            "seed {seed}: {} → {}",
            before.success_throughput,
            after.success_throughput
        );
        rate_gain += after.success_rate_pct - before.success_rate_pct;
        tput_gain += after.success_throughput - before.success_throughput;
    }
    let n = seeds.len() as f64;
    assert!(
        rate_gain / n > 3.0,
        "avg success-rate gain {:.2} points",
        rate_gain / n
    );
    assert!(
        tput_gain / n > 5.0,
        "avg throughput gain {:.2} tx/s",
        tput_gain / n
    );
}

#[test]
fn drm_delta_writes_eliminate_play_conflicts() {
    let spec = drm::DrmSpec {
        transactions: 6_000,
        ..Default::default()
    };
    let bundle = drm::generate(&spec);
    let before = run(&bundle, NetworkConfig::default());
    let after = run(&rewritten(bundle, "drm:delta"), NetworkConfig::default());
    assert!(
        after.success_rate_pct > before.success_rate_pct * 2.0,
        "{} → {}",
        before.success_rate_pct,
        after.success_rate_pct
    );
    // The paper's caveat: aggregation makes calcRevenue (and thus average
    // latency) slower even as throughput improves.
    assert!(after.avg_latency_s > before.avg_latency_s);
    assert!(after.success_throughput > before.success_throughput);
}

#[test]
fn drm_partitioning_removes_cross_activity_conflicts() {
    let spec = drm::DrmSpec {
        transactions: 6_000,
        ..Default::default()
    };
    let bundle = drm::generate(&spec);
    let before = run(&bundle, NetworkConfig::default());
    let after = run(&drm::partitioned(bundle, &spec), NetworkConfig::default());
    assert!(after.success_rate_pct > before.success_rate_pct + 5.0);
    assert!(after.success_throughput > before.success_throughput * 1.2);
}

#[test]
fn ehr_pruning_and_rate_control_help() {
    let spec = ehr::EhrSpec {
        transactions: 6_000,
        ..Default::default()
    };
    let bundle = ehr::generate(&spec);
    let before = run(&bundle, NetworkConfig::default());
    let pruned = run(
        &rewritten(bundle.clone(), "ehr:pruned"),
        NetworkConfig::default(),
    );
    assert!(pruned.success_rate_pct > before.success_rate_pct);
    let throttled = bundle
        .clone()
        .with_requests(optimize::rate_control(&bundle.requests, 100.0));
    let after = run(&throttled, NetworkConfig::default());
    assert!(after.success_rate_pct > before.success_rate_pct + 10.0);
}

#[test]
fn dv_data_model_alteration_reaches_full_success() {
    // Figure 16's headline: voters are restricted to a single vote, so the
    // re-keyed contract has no transaction dependencies at all.
    let spec = dv::DvSpec {
        queries: 500,
        votes: 3_000,
        ..Default::default()
    };
    let bundle = dv::generate(&spec);
    let before = run(&bundle, NetworkConfig::default());
    assert!(
        before.success_rate_pct < 40.0,
        "party-keyed model collapses"
    );
    let after = run(&rewritten(bundle, "dv:per-voter"), NetworkConfig::default());
    assert!(after.success_rate_pct > 99.9);
    assert_eq!(after.mvcc_conflicts, 0);
}

#[test]
fn lap_rekeying_improves_at_both_rates() {
    // Figure 17: >50 % improvement in success rate at 10 and 300 tps.
    for rate in [10.0, 300.0] {
        let spec = lap::LapSpec {
            applications: 400,
            send_rate: rate,
            ..Default::default()
        };
        let bundle = lap::generate(&spec);
        let before = run(&bundle, NetworkConfig::default());
        let after = run(
            &rewritten(bundle, "lap:by-application"),
            NetworkConfig::default(),
        );
        assert!(
            after.success_rate_pct > before.success_rate_pct * 1.5,
            "@{rate}: {} → {}",
            before.success_rate_pct,
            after.success_rate_pct
        );
    }
}

#[test]
fn fabric_extensions_still_benefit_from_rate_control() {
    // §6.4: even on FabricSharp / Fabric++, higher-level optimizations help.
    for scheduler in [SchedulerKind::FabricSharp, SchedulerKind::FabricPlusPlus] {
        let cv = ControlVariables {
            workload: workload::spec::WorkloadType::UpdateHeavy,
            transactions: 5_000,
            ..Default::default()
        };
        let bundle = workload::synthetic::generate(&cv);
        let cfg = cv.network_config().with_scheduler(scheduler);
        let before = run(&bundle, cfg.clone());
        let throttled = bundle
            .clone()
            .with_requests(optimize::rate_control(&bundle.requests, 100.0));
        let after = run(&throttled, cfg);
        assert!(
            after.success_rate_pct > before.success_rate_pct,
            "{scheduler:?}: {} → {}",
            before.success_rate_pct,
            after.success_rate_pct
        );
    }
}

#[test]
fn fabric_sharp_beats_vanilla_on_update_heavy_but_adds_policy_failures() {
    let cv = ControlVariables {
        workload: workload::spec::WorkloadType::UpdateHeavy,
        key_skew: 2.0,
        transactions: 5_000,
        ..Default::default()
    };
    let bundle = workload::synthetic::generate(&cv);
    let vanilla = run(&bundle, cv.network_config());
    let sharp = run(
        &bundle,
        cv.network_config()
            .with_scheduler(SchedulerKind::FabricSharp),
    );
    assert!(
        sharp.success_rate_pct > vanilla.success_rate_pct,
        "sharp's OCC reordering rescues update conflicts: {} vs {}",
        sharp.success_rate_pct,
        vanilla.success_rate_pct
    );
    assert!(
        sharp.endorsement_failures >= vanilla.endorsement_failures,
        "the documented side effect"
    );
}

//! Integration tests for the extension features: a k-of-n endorsement
//! policy, XES interchange, compliance verification, auto-tuning, and the
//! simulator's byte-based block cutting and endorsement-mismatch paths.

use blockoptr_suite::prelude::*;
use workload::spec::{ControlVariables, PolicyChoice};

#[test]
fn parsed_policies_drive_the_simulator() {
    // An OutOf(2, Org1..Org4) policy drives the simulator end to end.
    let cv = ControlVariables {
        policy: PolicyChoice::P4,
        transactions: 1_000,
        ..Default::default()
    };
    let bundle = workload::synthetic::generate(&cv);
    let mut cfg = cv.network_config();
    cfg.endorsement_policy = EndorsementPolicy::out_of(2, 4);
    let out = bundle.run(cfg);
    assert!(out.report.successes > 0);
    // Every transaction carries exactly two endorsing organizations.
    for tx in out.ledger.transactions() {
        let orgs: std::collections::BTreeSet<u16> = tx.endorsers.iter().map(|p| p.org.0).collect();
        assert_eq!(orgs.len(), 2, "{tx:?}");
    }
}

#[test]
fn block_bytes_threshold_cuts_blocks() {
    let cv = ControlVariables {
        transactions: 800,
        ..Default::default()
    };
    let bundle = workload::synthetic::generate(&cv);
    let mut cfg = cv.network_config();
    cfg.block_bytes = 16 * 1024; // tiny byte budget
    let out = bundle.run(cfg);
    assert!(
        out.report.cut_reasons.contains_key("bytes"),
        "{:?}",
        out.report.cut_reasons
    );
    assert!(
        out.report.avg_block_size < 100.0,
        "byte cuts shrink blocks: {}",
        out.report.avg_block_size
    );
}

#[test]
fn endorsement_mismatch_produces_policy_failures() {
    // A 4-org majority policy (3 endorsers per tx) on a hot-key workload at
    // high rate: endorsements execute at different instants, intervening
    // commits change read versions, and mismatched proposals fail with
    // ENDORSEMENT_POLICY_FAILURE during validation.
    let cv = ControlVariables {
        orgs: 4,
        key_skew: 2.0,
        send_rate: 600.0,
        transactions: 4_000,
        ..Default::default()
    };
    let bundle = workload::synthetic::generate(&cv);
    let out = bundle.run(cv.network_config());
    assert!(
        out.report.endorsement_failures > 0,
        "expected some EPF: {}",
        out.report
    );
}

#[test]
fn xes_exports_a_real_event_log() {
    let bundle = workload::scm::generate(&workload::scm::ScmSpec {
        transactions: 1_500,
        ..Default::default()
    });
    let out = bundle.run(NetworkConfig::default());
    let analysis = Analyzer::new().analyze_ledger(&out.ledger).unwrap();
    let log = &analysis.event_log;
    let xes = process_mining::xes::to_xes(log);
    assert!(log.len() > 1, "the SCM run yields cases");
    assert_eq!(xes.matches("<trace>").count(), log.len());
    assert_eq!(xes.matches("<event>").count(), log.event_count());
    for activity in log.activities() {
        let named = format!("<string key=\"concept:name\" value=\"{activity}\"/>");
        assert!(xes.contains(&named), "{activity} is exported");
    }
}

#[test]
fn compliance_verifies_the_dv_redesign() {
    let spec = workload::dv::DvSpec {
        queries: 400,
        votes: 2_500,
        ..Default::default()
    };
    let bundle = workload::dv::generate(&spec);
    let before_out = bundle.run(NetworkConfig::default());
    let before = Analyzer::new().analyze_ledger(&before_out.ledger).unwrap();

    let per_voter = chaincode::registry::resolve("dv:per-voter").unwrap();
    let after_out = bundle
        .with_contracts(vec![per_voter])
        .run(NetworkConfig::default());
    let after = Analyzer::new().analyze_ledger(&after_out.ledger).unwrap();

    let report = verify_rollout(&before, &after);
    assert!(
        report
            .resolved
            .contains(&"Data model alteration".to_string()),
        "{report}"
    );
    assert!(report.improved(), "{report}");
    assert!(report.success_rate.1 > report.success_rate.0 + 40.0);
    // Votes no longer conflict; at most the one-off seeResults scan can
    // still phantom against in-flight ballot inserts.
    assert!(report.read_conflicts.1 <= 1);
    assert!(report.read_conflicts.1 < report.read_conflicts.0 / 100);
}

#[test]
fn auto_tuned_thresholds_adapt_to_slow_deployments() {
    // A calm 40 tps log: the fixed Rt1=300 would never fire, the tuned one
    // tracks the deployment's own sustainable rate.
    let cv = ControlVariables {
        send_rate: 40.0,
        transactions: 1_500,
        ..Default::default()
    };
    let bundle = workload::synthetic::generate(&cv);
    let out = bundle.run(cv.network_config());
    let log = BlockchainLog::from_ledger(&out.ledger);
    let tuned = auto_tune(&log);
    assert!(
        tuned.thresholds.rt1 < 100.0,
        "tuned to the deployment: {}",
        tuned.thresholds.rt1
    );
    assert!(tuned.thresholds.controlled_rate < tuned.sustainable_rate);
}

//! End-to-end pipeline tests: run each paper workload through the simulated
//! Fabric network, analyze with BlockOptR, and assert the recommendation
//! sets the paper reports (§6.2–6.3, Table 3).

use blockoptr_suite::prelude::*;
use workload::spec::{ControlVariables, PolicyChoice, WorkloadType};
use workload::{drm, dv, ehr, lap, scm};

fn analyze(bundle: &WorkloadBundle, cfg: NetworkConfig) -> Analysis {
    let output = bundle.run(cfg);
    Analyzer::new().analyze_ledger(&output.ledger).unwrap()
}

#[test]
fn scm_recommendations_match_paper() {
    let bundle = scm::generate(&scm::ScmSpec::default());
    let analysis = analyze(&bundle, NetworkConfig::default());
    // Paper §6.2: activity reordering, process model pruning, rate control.
    assert!(
        analysis.recommends("Activity reordering"),
        "{:?}",
        analysis.recommendation_names()
    );
    assert!(
        analysis.recommends("Process model pruning"),
        "{:?}",
        analysis.recommendation_names()
    );
    assert!(
        analysis.recommends("Transaction rate control"),
        "{:?}",
        analysis.recommendation_names()
    );
    // No data-level recommendations for SCM.
    assert!(!analysis.recommends("Delta writes"));
    assert!(!analysis.recommends("Smart contract partitioning"));
    assert!(!analysis.recommends("Data model alteration"));
}

#[test]
fn drm_recommendations_match_paper() {
    let bundle = drm::generate(&drm::DrmSpec::default());
    let analysis = analyze(&bundle, NetworkConfig::default());
    // Paper §6.2: reordering, delta writes, smart contract partitioning.
    assert!(
        analysis.recommends("Activity reordering"),
        "{:?}",
        analysis.recommendation_names()
    );
    assert!(
        analysis.recommends("Delta writes"),
        "{:?}",
        analysis.recommendation_names()
    );
    assert!(
        analysis.recommends("Smart contract partitioning"),
        "{:?}",
        analysis.recommendation_names()
    );
    assert!(!analysis.recommends("Data model alteration"));
}

#[test]
fn ehr_recommendations_match_paper() {
    let bundle = ehr::generate(&ehr::EhrSpec::default());
    let analysis = analyze(&bundle, NetworkConfig::default());
    // Paper §6.2: reordering, pruning, rate control.
    assert!(
        analysis.recommends("Activity reordering"),
        "{:?}",
        analysis.recommendation_names()
    );
    assert!(
        analysis.recommends("Process model pruning"),
        "{:?}",
        analysis.recommendation_names()
    );
    assert!(
        analysis.recommends("Transaction rate control"),
        "{:?}",
        analysis.recommendation_names()
    );
}

#[test]
fn dv_recommendations_match_paper() {
    let bundle = dv::generate(&dv::DvSpec::default());
    let analysis = analyze(&bundle, NetworkConfig::default());
    // Paper §6.2: rate control + data model alteration — NOT partitioning.
    assert!(
        analysis.recommends("Transaction rate control"),
        "{:?}",
        analysis.recommendation_names()
    );
    assert!(
        analysis.recommends("Data model alteration"),
        "{:?}",
        analysis.recommendation_names()
    );
    assert!(!analysis.recommends("Smart contract partitioning"));
}

#[test]
fn lap_recommendations_match_paper() {
    let bundle = lap::generate(&lap::LapSpec::default());
    let analysis = analyze(&bundle, NetworkConfig::default());
    // Paper §6.3: the employee hot key drives a data model alteration.
    assert!(
        analysis.recommends("Data model alteration"),
        "{:?}",
        analysis.recommendation_names()
    );
    assert!(!analysis.recommends("Smart contract partitioning"));
    // The hot key is employee 1 (the paper's "employeeID 1").
    assert_eq!(
        analysis.metrics.keys.hotkeys.first().map(String::as_str),
        Some("lap/E001")
    );
}

#[test]
fn synthetic_key_skew_triggers_partitioning() {
    // Table 3 experiment 8.
    let cv = ControlVariables {
        key_skew: 2.0,
        transactions: 6_000,
        ..Default::default()
    };
    let bundle = workload::synthetic::generate(&cv);
    let analysis = analyze(&bundle, cv.network_config());
    assert!(
        analysis.recommends("Smart contract partitioning"),
        "{:?}",
        analysis.recommendation_names()
    );
    assert!(analysis.recommends("Activity reordering"));
}

#[test]
fn synthetic_p1_triggers_endorser_restructuring() {
    // Table 3 experiments 1–2.
    let cv = ControlVariables {
        policy: PolicyChoice::P1,
        transactions: 4_000,
        ..Default::default()
    };
    let bundle = workload::synthetic::generate(&cv);
    let analysis = analyze(&bundle, cv.network_config());
    assert!(
        analysis.recommends("Endorser restructuring"),
        "{:?}",
        analysis.recommendation_names()
    );
    // Org1 is the overloaded principal.
    let rec = analysis
        .recommendations
        .iter()
        .find(|r| r.name() == "Endorser restructuring")
        .unwrap();
    match rec {
        Recommendation::EndorserRestructuring { overloaded, .. } => {
            assert!(overloaded.contains(&"Org1".to_string()));
        }
        _ => unreachable!(),
    }
}

#[test]
fn synthetic_update_heavy_suppresses_reordering() {
    // Table 3 experiment 5: update self-dependencies are unreorderable.
    let cv = ControlVariables {
        workload: WorkloadType::UpdateHeavy,
        transactions: 6_000,
        ..Default::default()
    };
    let bundle = workload::synthetic::generate(&cv);
    let analysis = analyze(&bundle, cv.network_config());
    assert!(
        !analysis.recommends("Activity reordering"),
        "{:?}",
        analysis.recommendation_names()
    );
}

#[test]
fn synthetic_tx_skew_triggers_client_boost() {
    // Table 3 experiment 15.
    let cv = ControlVariables {
        tx_dist_skew: 0.7,
        transactions: 4_000,
        ..Default::default()
    };
    let bundle = workload::synthetic::generate(&cv);
    let analysis = analyze(&bundle, cv.network_config());
    assert!(
        analysis.recommends("Client resource boost"),
        "{:?}",
        analysis.recommendation_names()
    );
}

#[test]
fn genchain_never_gets_contract_level_recommendations() {
    // §6.1: "process model pruning, delta writes and data model alterations
    // are not recommended here" for the simple synthetic contract.
    let cv = ControlVariables {
        transactions: 6_000,
        ..Default::default()
    };
    let bundle = workload::synthetic::generate(&cv);
    let analysis = analyze(&bundle, cv.network_config());
    assert!(!analysis.recommends("Process model pruning"));
    assert!(!analysis.recommends("Delta writes"));
    assert!(!analysis.recommends("Data model alteration"));
}

#[test]
fn case_ids_derived_per_use_case() {
    let scm_a = analyze(
        &scm::generate(&scm::ScmSpec {
            transactions: 2_000,
            ..Default::default()
        }),
        NetworkConfig::default(),
    );
    assert_eq!(scm_a.case_derivation.family, "P", "products are the cases");

    let lap_a = analyze(
        &lap::generate(&lap::LapSpec {
            applications: 300,
            ..Default::default()
        }),
        NetworkConfig::default(),
    );
    assert_eq!(
        lap_a.case_derivation.family, "APP",
        "applications, not employees (finer family wins the tie)"
    );
}

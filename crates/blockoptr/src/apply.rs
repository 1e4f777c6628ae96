//! Paper-era application helpers (§4.5, Table 4) — thin wrappers over the
//! typed [`Action`] layer.
//!
//! Soft-deprecated: new code should lower recommendations with
//! [`Recommendation::actions`](crate::recommend::Recommendation::actions)
//! and apply them through an
//! [`OptimizationPlan`](crate::plan::OptimizationPlan), which also closes
//! the loop (re-run + before/after deltas). These helpers keep the original
//! free-function signatures for existing call sites: each applies every
//! action of the matching shape and reports the transformations as strings.

use crate::action::Action;
use crate::recommend::Recommendation;
use fabric_sim::config::NetworkConfig;
use fabric_sim::sim::TxRequest;

/// Rewrite the request schedule according to the user-level
/// recommendations (every [`Action::RewriteSchedule`] they lower to).
/// Returns the new schedule and a description of the transformations
/// applied.
pub fn apply_user_level(
    requests: &[TxRequest],
    recommendations: &[Recommendation],
) -> (Vec<TxRequest>, Vec<String>) {
    let mut out = requests.to_vec();
    let mut applied = Vec::new();
    for action in recommendations.iter().flat_map(Recommendation::actions) {
        if let Action::RewriteSchedule(transform) = &action {
            out = transform.apply(&out);
            applied.push(action.describe());
        }
    }
    (out, applied)
}

/// Rewrite the network configuration according to the system-level
/// recommendations (every [`Action::ReconfigureNetwork`] they lower to).
/// Returns the new configuration and the changes applied.
pub fn apply_system_level(
    config: &NetworkConfig,
    recommendations: &[Recommendation],
) -> (NetworkConfig, Vec<String>) {
    let mut out = config.clone();
    let mut applied = Vec::new();
    for action in recommendations.iter().flat_map(Recommendation::actions) {
        if let Some(reconfigured) = action.apply_to_config(&out) {
            applied.push(match &action {
                // Keep the legacy report shape: name the resulting policy.
                Action::ReconfigureNetwork(
                    crate::action::NetworkChange::GeneralizeEndorsementPolicy,
                ) => format!("endorsement policy → {}", reconfigured.endorsement_policy),
                _ => action.describe(),
            });
            out = reconfigured;
        }
    }
    (out, applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::policy::EndorsementPolicy;
    use fabric_sim::types::OrgId;
    use sim_core::time::SimTime;

    fn req(i: u64, activity: &str) -> TxRequest {
        TxRequest {
            send_time: SimTime::from_millis(i * 10),
            contract: "cc".into(),
            activity: activity.into(),
            args: vec![].into(),
            invoker_org: OrgId(0),
        }
    }

    #[test]
    fn reordering_defers_failed_readers() {
        let reqs = vec![req(0, "query"), req(1, "write"), req(2, "query")];
        let recs = vec![Recommendation::ActivityReordering {
            pairs: vec![(("query".into(), "write".into()), 10)],
            share: 0.8,
        }];
        let (out, applied) = apply_user_level(&reqs, &recs);
        let acts: Vec<&str> = out.iter().map(|r| r.activity.as_ref()).collect();
        assert_eq!(acts, vec!["write", "query", "query"]);
        assert_eq!(applied.len(), 1);
        assert!(applied[0].contains("query"));
    }

    #[test]
    fn rate_control_respaces() {
        let reqs = vec![req(0, "a"), req(1, "a"), req(2, "a")];
        let recs = vec![Recommendation::TransactionRateControl {
            intervals: vec![0],
            peak_rate: 300.0,
            suggested_rate: 10.0,
        }];
        let (out, applied) = apply_user_level(&reqs, &recs);
        assert_eq!(
            out[2].send_time.as_micros() - out[0].send_time.as_micros(),
            200_000,
            "2 gaps at 10 tps = 200 ms"
        );
        assert!(applied[0].contains("10 tps"));
    }

    #[test]
    fn system_level_block_count() {
        let cfg = NetworkConfig::default();
        let recs = vec![Recommendation::BlockSizeAdaptation {
            current_avg: 100.0,
            tr: 300.0,
            suggested_count: 300,
        }];
        let (out, applied) = apply_system_level(&cfg, &recs);
        assert_eq!(out.block_count, 300);
        assert_eq!(applied, vec!["block count → 300"]);
    }

    #[test]
    fn system_level_restructures_policy() {
        let cfg = NetworkConfig {
            orgs: 4,
            endorsement_policy: EndorsementPolicy::p1(),
            endorser_skew: 6.0,
            ..NetworkConfig::default()
        };
        let recs = vec![Recommendation::EndorserRestructuring {
            shares: vec![("Org1".into(), 0.5)],
            overloaded: vec!["Org1".into()],
        }];
        let (out, applied) = apply_system_level(&cfg, &recs);
        assert_eq!(
            out.endorsement_policy.to_string(),
            "OutOf(2,Org1,Org2,Org3,Org4)",
            "P1 needs 2 endorsers → generalized to P4"
        );
        assert_eq!(out.endorser_skew, 0.0, "skew removed by the measure");
        assert!(out.endorsement_policy.mandatory_orgs().is_empty());
        assert_eq!(
            applied,
            vec!["endorsement policy → OutOf(2,Org1,Org2,Org3,Org4)".to_string()]
        );
    }

    #[test]
    fn system_level_boosts_clients() {
        let cfg = NetworkConfig::default();
        let recs = vec![Recommendation::ClientResourceBoost {
            org: "Org2".into(),
            share: 0.7,
        }];
        let (out, applied) = apply_system_level(&cfg, &recs);
        assert_eq!(out.client_boost, Some((1, 2)));
        assert!(applied[0].contains("Org2"));
    }

    #[test]
    fn data_level_recommendations_are_left_alone() {
        let cfg = NetworkConfig::default();
        let recs = vec![Recommendation::DeltaWrites {
            activities: vec![("play".into(), 9)],
        }];
        let (out, applied) = apply_system_level(&cfg, &recs);
        assert_eq!(out, cfg);
        assert!(applied.is_empty());
        let reqs = vec![req(0, "play")];
        let (out_reqs, applied_u) = apply_user_level(&reqs, &recs);
        assert_eq!(out_reqs.len(), 1);
        assert!(applied_u.is_empty());
    }
}

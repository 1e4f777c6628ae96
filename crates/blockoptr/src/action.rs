//! Typed optimization actions (paper §4.5, Table 4).
//!
//! A [`Recommendation`] is a *diagnosis*; an [`Action`] is the concrete,
//! individually applicable *change* that implements it. Every
//! recommendation [lowers](Recommendation::actions) to zero or more
//! actions in one of three shapes, matching the paper's three
//! implementation sites (Figure 6):
//!
//! * [`Action::RewriteSchedule`] — the client / workflow engine: reorder
//!   the request schedule, throttle the send rate (a
//!   [`SpecTransform`]);
//! * [`Action::ReconfigureNetwork`] — the channel configuration: block
//!   count, endorsement policy, client fleet;
//! * [`Action::SelectContractVariant`] — the smart contract: swap in a
//!   prepared contract rewrite ([`VariantKind`]), exactly as the paper's
//!   authors selected their modified Go contracts (§7 notes these "need to
//!   be manually implemented by the user" — a workload that ships no
//!   prepared variant reports the action as manual).
//!
//! An action is a *spec edit*: [`Action::apply_to_spec`] is the one way to
//! apply it, and the [`plan`](crate::plan) module measures every
//! configuration as the spec it yields. Schedule rewrites join
//! `spec.transforms`, which [`ScenarioSpec::finish`] applies after the
//! arrival process has re-stamped the schedule, so a throttle also
//! re-spaces an open-loop schedule. Actions are serializable, so a plan can
//! be exported, reviewed, and replayed. A list of recommendations is
//! applied as a plan:
//! [`OptimizationPlan::from_analysis`](crate::plan::OptimizationPlan::from_analysis),
//! then [`select`](crate::plan::OptimizationPlan::select) and
//! [`apply_to_spec`](crate::plan::OptimizationPlan::apply_to_spec).

use crate::recommend::Recommendation;
use fabric_sim::config::NetworkConfig;
use fabric_sim::policy::EndorsementPolicy;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use workload::{ScenarioSpec, SpecTransform, VariantKind};

/// A change to the network configuration (channel-side).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NetworkChange {
    /// Match the block count to the observed transaction rate.
    SetBlockCount {
        /// The new block count.
        count: usize,
    },
    /// Replace the endorsement policy with an `OutOf` policy of the same
    /// strength, satisfiable by any organizations (Table 4's "set
    /// endorsement policy to P4", generalized), and remove endorser skew.
    GeneralizeEndorsementPolicy,
    /// Scale one organization's client fleet.
    BoostClients {
        /// Organization index (0-based).
        org: u16,
        /// Multiplier for its client count (Table 4 doubles).
        factor: usize,
    },
    /// Weaken the endorsement policy by one endorser (floor 1) and open it
    /// to any organizations — the resilience answer to a *sustained* outage:
    /// fewer signatures needed means fewer chances to hit a dead peer.
    RelaxEndorsementPolicy,
}

/// A patch to the client [`RetryPolicy`](fabric_sim::fault::RetryPolicy):
/// each `Some` field overwrites the corresponding policy knob, each `None`
/// leaves it alone. Serializable so a tuned plan replays exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetryChange {
    /// New per-fan-out endorsement timeout, seconds.
    pub endorse_timeout: Option<f64>,
    /// New total attempt budget (first try + retries).
    pub max_attempts: Option<usize>,
    /// New backoff base delay, seconds.
    pub backoff_base: Option<f64>,
    /// New backoff growth factor.
    pub backoff_multiplier: Option<f64>,
}

impl RetryChange {
    /// Apply the patch to a policy.
    pub fn apply(&self, retry: &fabric_sim::fault::RetryPolicy) -> fabric_sim::fault::RetryPolicy {
        let mut out = retry.clone();
        if let Some(t) = self.endorse_timeout {
            out.endorse_timeout = Some(t);
        }
        if let Some(n) = self.max_attempts {
            out.max_attempts = n.max(1);
        }
        if let Some(b) = self.backoff_base {
            out.backoff_base = b.max(0.0);
        }
        if let Some(m) = self.backoff_multiplier {
            out.backoff_multiplier = m.max(1.0);
        }
        out
    }
}

/// One individually applicable optimization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Action {
    /// Rewrite the request schedule (client-side, Table 4's Caliper
    /// settings: deferral, and rate control at 100 tps).
    RewriteSchedule(SpecTransform),
    /// Rewrite the network configuration.
    ReconfigureNetwork(NetworkChange),
    /// Install a prepared smart-contract rewrite.
    SelectContractVariant(VariantKind),
    /// Tune the client retry policy (resilience under injected faults).
    TuneRetry(RetryChange),
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

impl Action {
    /// Human-readable description of the change.
    pub fn describe(&self) -> String {
        match self {
            Action::RewriteSchedule(SpecTransform::DeferActivities { activities }) => {
                format!("activity reordering: deferred {}", activities.join(", "))
            }
            Action::RewriteSchedule(SpecTransform::Throttle { rate }) => {
                format!("rate control: {rate:.0} tps")
            }
            Action::ReconfigureNetwork(NetworkChange::SetBlockCount { count }) => {
                format!("block count → {count}")
            }
            Action::ReconfigureNetwork(NetworkChange::GeneralizeEndorsementPolicy) => {
                "endorsement policy → OutOf(k, all orgs)".to_string()
            }
            Action::ReconfigureNetwork(NetworkChange::BoostClients { org, factor }) => {
                format!("clients of Org{} ×{factor}", org + 1)
            }
            Action::ReconfigureNetwork(NetworkChange::RelaxEndorsementPolicy) => {
                "endorsement policy → OutOf(k−1, all orgs)".to_string()
            }
            Action::SelectContractVariant(kind) => {
                format!("smart contract → {kind} variant")
            }
            Action::TuneRetry(change) => {
                let mut parts = Vec::new();
                if let Some(t) = change.endorse_timeout {
                    parts.push(format!("timeout {t:.2} s"));
                }
                if let Some(n) = change.max_attempts {
                    parts.push(format!("attempts {n}"));
                }
                if let Some(b) = change.backoff_base {
                    parts.push(format!("backoff base {b:.2} s"));
                }
                if let Some(m) = change.backoff_multiplier {
                    parts.push(format!("backoff ×{m:.1}"));
                }
                format!("retry policy → {}", parts.join(", "))
            }
        }
    }

    /// Apply to a network configuration; `None` when this action does not
    /// touch the configuration. This is the network half of
    /// [`apply_to_spec`](Self::apply_to_spec).
    pub fn apply_to_config(&self, config: &NetworkConfig) -> Option<NetworkConfig> {
        match self {
            Action::ReconfigureNetwork(NetworkChange::SetBlockCount { count }) => {
                let mut out = config.clone();
                out.block_count = (*count).max(1);
                Some(out)
            }
            Action::ReconfigureNetwork(NetworkChange::GeneralizeEndorsementPolicy) => {
                let mut out = config.clone();
                let k = config.endorsement_policy.min_endorsers().max(1);
                out.endorsement_policy = EndorsementPolicy::out_of(k, config.orgs);
                out.endorser_skew = 0.0;
                Some(out)
            }
            Action::ReconfigureNetwork(NetworkChange::BoostClients { org, factor }) => {
                let mut out = config.clone();
                out.client_boost = Some((*org, *factor));
                Some(out)
            }
            Action::ReconfigureNetwork(NetworkChange::RelaxEndorsementPolicy) => {
                let mut out = config.clone();
                let k = config
                    .endorsement_policy
                    .min_endorsers()
                    .saturating_sub(1)
                    .max(1);
                out.endorsement_policy = EndorsementPolicy::out_of(k, config.orgs);
                out.endorser_skew = 0.0;
                Some(out)
            }
            _ => None,
        }
    }

    /// Apply the action to a declarative [`ScenarioSpec`], so an optimized
    /// configuration is itself a serializable, replayable spec (the
    /// artifact [`PlanOutcome`](crate::plan::PlanOutcome) emits, and the
    /// configuration the plan grid measures).
    ///
    /// Schedule rewrites append to `spec.transforms`, network changes
    /// rewrite `spec.network`, variant selections join `spec.variants`, and
    /// retry patches rewrite `spec.retry`. Returns `None` when the spec's
    /// workload ships no prepared rewrite for a selected variant — the
    /// action stays manual (paper §7), and recording it anyway would make
    /// the emitted spec unbuildable.
    pub fn apply_to_spec(&self, spec: &ScenarioSpec) -> Option<ScenarioSpec> {
        let mut out = spec.clone();
        match self {
            Action::RewriteSchedule(transform) => out.transforms.push(transform.clone()),
            Action::ReconfigureNetwork(_) => {
                out.network = self.apply_to_config(&spec.network)?;
            }
            Action::SelectContractVariant(kind) => {
                if !spec.workload.variant_table().contains(kind) {
                    return None;
                }
                out.variants.insert(*kind);
            }
            Action::TuneRetry(change) => {
                out.retry = change.apply(&spec.retry);
            }
        }
        Some(out)
    }
}

impl Recommendation {
    /// Lower this recommendation to the actions that implement it
    /// (Table 4). A recommendation whose implementation is irreducibly
    /// manual lowers to nothing.
    pub fn actions(&self) -> Vec<Action> {
        match self {
            Recommendation::ActivityReordering { pairs, .. } => {
                let deferred = deferrable_activities(pairs);
                if deferred.is_empty() {
                    Vec::new()
                } else {
                    vec![Action::RewriteSchedule(SpecTransform::DeferActivities {
                        activities: deferred,
                    })]
                }
            }
            Recommendation::TransactionRateControl { suggested_rate, .. } => {
                vec![Action::RewriteSchedule(SpecTransform::Throttle {
                    rate: *suggested_rate,
                })]
            }
            Recommendation::ProcessModelPruning { .. } => {
                vec![Action::SelectContractVariant(VariantKind::Pruned)]
            }
            Recommendation::DeltaWrites { .. } => {
                vec![Action::SelectContractVariant(VariantKind::DeltaWrites)]
            }
            Recommendation::SmartContractPartitioning { .. } => {
                vec![Action::SelectContractVariant(VariantKind::Partitioned)]
            }
            Recommendation::DataModelAlteration { .. } => {
                vec![Action::SelectContractVariant(VariantKind::Rekeyed)]
            }
            Recommendation::BlockSizeAdaptation {
                suggested_count, ..
            } => vec![Action::ReconfigureNetwork(NetworkChange::SetBlockCount {
                // The typed action must be valid wherever it is replayed,
                // not only through apply_to_config's clamp.
                count: (*suggested_count).max(1),
            })],
            Recommendation::EndorserRestructuring { .. } => {
                vec![Action::ReconfigureNetwork(
                    NetworkChange::GeneralizeEndorsementPolicy,
                )]
            }
            Recommendation::ClientResourceBoost { org, .. } => match parse_org_index(org) {
                Some(idx) => vec![Action::ReconfigureNetwork(NetworkChange::BoostClients {
                    org: idx,
                    factor: 2,
                })],
                None => Vec::new(),
            },
        }
    }
}

/// The activities worth deferring: those that fail against other activities'
/// writes (the conflicting-reader side of each reorderable pair).
fn deferrable_activities(pairs: &[((String, String), usize)]) -> Vec<String> {
    let total: usize = pairs.iter().map(|(_, n)| *n).sum();
    if total == 0 {
        return Vec::new();
    }
    let mut failed_counts: std::collections::BTreeMap<&str, usize> = Default::default();
    for ((failed, _writer), n) in pairs {
        *failed_counts.entry(failed.as_str()).or_insert(0) += *n;
    }
    let writers: BTreeSet<&str> = pairs.iter().map(|((_, w), _)| w.as_str()).collect();
    failed_counts
        .into_iter()
        // Keep significant offenders; never defer an activity that is also a
        // frequent conflict *writer* (deferring it would only move the
        // conflict).
        .filter(|(a, n)| *n * 10 >= total && !writers.contains(a))
        .map(|(a, _)| a.to_string())
        .collect()
}

/// Parse `"Org3"` → organization index 2: the inverse of `OrgId`'s
/// display, whose 1-based numbers run up to `Org65536`.
fn parse_org_index(display: &str) -> Option<u16> {
    let number = display.strip_prefix("Org")?.parse::<u32>().ok()?;
    u16::try_from(number.checked_sub(1)?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::sim::TxRequest;
    use fabric_sim::types::OrgId;
    use sim_core::time::SimTime;

    /// The schedule rewrite an action carries.
    fn transform(action: &Action) -> &SpecTransform {
        match action {
            Action::RewriteSchedule(t) => t,
            other => panic!("not a schedule rewrite: {other:?}"),
        }
    }

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
    fn reordering_lowers_to_deferral_of_failed_readers() {
        let rec = Recommendation::ActivityReordering {
            pairs: vec![(("query".into(), "write".into()), 10)],
            share: 0.8,
        };
        let actions = rec.actions();
        assert_eq!(
            actions,
            vec![Action::RewriteSchedule(SpecTransform::DeferActivities {
                activities: vec!["query".into()],
            })]
        );
        let out =
            transform(&actions[0]).apply(&[req(0, "query"), req(1, "write"), req(2, "query")]);
        let acts: Vec<&str> = out.iter().map(|r| r.activity.as_ref()).collect();
        assert_eq!(acts, vec!["write", "query", "query"]);
    }

    #[test]
    fn reordering_never_defers_writers() {
        // "upd" is both a failed activity and the main writer: deferring it
        // would be self-defeating.
        let rec = Recommendation::ActivityReordering {
            pairs: vec![
                (("upd".into(), "upd".into()), 10),
                (("query".into(), "upd".into()), 10),
            ],
            share: 0.5,
        };
        match &rec.actions()[..] {
            [Action::RewriteSchedule(SpecTransform::DeferActivities { activities })] => {
                assert_eq!(activities, &vec!["query".to_string()]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rate_control_lowers_to_throttle() {
        let rec = Recommendation::TransactionRateControl {
            intervals: vec![0],
            peak_rate: 300.0,
            suggested_rate: 10.0,
        };
        let actions = rec.actions();
        assert_eq!(actions.len(), 1);
        assert!(actions[0].describe().contains("10 tps"));
        let out = transform(&actions[0]).apply(&[req(0, "a"), req(1, "a"), req(2, "a")]);
        assert_eq!(
            out[2].send_time.as_micros() - out[0].send_time.as_micros(),
            200_000,
            "2 gaps at 10 tps = 200 ms"
        );
    }

    #[test]
    fn system_recommendations_lower_to_config_changes() {
        let cfg = NetworkConfig::default();

        let bs = Recommendation::BlockSizeAdaptation {
            current_avg: 100.0,
            tr: 300.0,
            suggested_count: 300,
        };
        let out = bs.actions()[0].apply_to_config(&cfg).unwrap();
        assert_eq!(out.block_count, 300);

        let er = Recommendation::EndorserRestructuring {
            shares: vec![("Org1".into(), 0.5)],
            overloaded: vec!["Org1".into()],
        };
        let skewed = NetworkConfig {
            orgs: 4,
            endorsement_policy: EndorsementPolicy::p1(),
            endorser_skew: 6.0,
            ..NetworkConfig::default()
        };
        let out = er.actions()[0].apply_to_config(&skewed).unwrap();
        assert_eq!(
            out.endorsement_policy.to_string(),
            "OutOf(2,Org1,Org2,Org3,Org4)",
            "P1 needs 2 endorsers → generalized to P4"
        );
        assert_eq!(out.endorser_skew, 0.0);

        let cb = Recommendation::ClientResourceBoost {
            org: "Org2".into(),
            share: 0.7,
        };
        let out = cb.actions()[0].apply_to_config(&cfg).unwrap();
        assert_eq!(out.client_boost, Some((1, 2)));
    }

    #[test]
    fn data_recommendations_lower_to_variant_selection() {
        let rec = Recommendation::DeltaWrites {
            activities: vec![("play".into(), 9)],
        };
        assert_eq!(
            rec.actions(),
            vec![Action::SelectContractVariant(VariantKind::DeltaWrites)]
        );
        // Variant selection touches neither the schedule nor the config, and
        // is manual on a workload that ships no such rewrite.
        assert!(rec.actions()[0]
            .apply_to_config(&NetworkConfig::default())
            .is_none());
        let drm = ScenarioSpec::builtin("drm").unwrap();
        let tuned = rec.actions()[0].apply_to_spec(&drm).unwrap();
        assert!(tuned.transforms.is_empty());
        assert_eq!(tuned.network, drm.network);
        assert!(tuned.variants.contains(&VariantKind::DeltaWrites));
        let scm = ScenarioSpec::builtin("scm").unwrap();
        assert!(rec.actions()[0].apply_to_spec(&scm).is_none());
    }

    #[test]
    fn unlowereable_recommendations_produce_no_actions() {
        let bad_org = Recommendation::ClientResourceBoost {
            org: "weird".into(),
            share: 0.9,
        };
        assert!(bad_org.actions().is_empty());
    }

    #[test]
    fn actions_round_trip_through_json() {
        let actions = vec![
            Action::RewriteSchedule(SpecTransform::DeferActivities {
                activities: vec!["query".into()],
            }),
            Action::RewriteSchedule(SpecTransform::Throttle { rate: 100.0 }),
            Action::ReconfigureNetwork(NetworkChange::SetBlockCount { count: 300 }),
            Action::ReconfigureNetwork(NetworkChange::GeneralizeEndorsementPolicy),
            Action::ReconfigureNetwork(NetworkChange::BoostClients { org: 1, factor: 2 }),
            Action::ReconfigureNetwork(NetworkChange::RelaxEndorsementPolicy),
            Action::SelectContractVariant(VariantKind::Rekeyed),
            Action::TuneRetry(RetryChange {
                endorse_timeout: Some(2.0),
                max_attempts: Some(4),
                backoff_base: None,
                backoff_multiplier: Some(2.0),
            }),
        ];
        for action in actions {
            let json = serde_json::to_string(&action).unwrap();
            let back: Action = serde_json::from_str(&json).unwrap();
            assert_eq!(back, action, "{json}");
        }
    }

    #[test]
    fn relax_endorsement_policy_weakens_by_one_with_floor() {
        let strong = NetworkConfig {
            orgs: 4,
            endorsement_policy: EndorsementPolicy::out_of(3, 4),
            ..NetworkConfig::default()
        };
        let relax = Action::ReconfigureNetwork(NetworkChange::RelaxEndorsementPolicy);
        let out = relax.apply_to_config(&strong).unwrap();
        assert_eq!(out.endorsement_policy.min_endorsers(), 2);
        // Already at the floor: a single-endorser policy stays at one.
        let weak = relax.apply_to_config(&out).unwrap();
        let floor = relax.apply_to_config(&weak).unwrap();
        assert_eq!(floor.endorsement_policy.min_endorsers(), 1);
    }

    #[test]
    fn tune_retry_patches_only_the_named_knobs() {
        let change = RetryChange {
            endorse_timeout: Some(1.5),
            max_attempts: Some(5),
            backoff_base: None,
            backoff_multiplier: None,
        };
        let base = fabric_sim::fault::RetryPolicy::default();
        let tuned = change.apply(&base);
        assert_eq!(tuned.endorse_timeout, Some(1.5));
        assert_eq!(tuned.max_attempts, 5);
        assert_eq!(tuned.backoff_base, base.backoff_base);
        assert_eq!(tuned.backoff_multiplier, base.backoff_multiplier);
        let action = Action::TuneRetry(change);
        assert!(action.describe().contains("timeout 1.50 s"));
        assert!(action.apply_to_config(&NetworkConfig::default()).is_none());
        // Through the spec layer the patch lands on spec.retry only.
        let spec = ScenarioSpec::builtin("scm").unwrap();
        let tuned_spec = action.apply_to_spec(&spec).unwrap();
        assert_eq!(tuned_spec.retry.max_attempts, 5);
        assert!(tuned_spec.transforms.is_empty());
        assert_eq!(tuned_spec.network, spec.network);
    }

    #[test]
    fn org_parsing() {
        assert_eq!(parse_org_index("Org1"), Some(0));
        assert_eq!(parse_org_index("Org12"), Some(11));
        assert_eq!(parse_org_index("weird"), None);
        assert_eq!(parse_org_index("Org0"), None);
        assert_eq!(parse_org_index("Org65537"), None);
    }

    #[test]
    fn org_names_round_trip_through_parsing() {
        for index in [0, 1, 65534, u16::MAX] {
            assert_eq!(parse_org_index(&OrgId(index).to_string()), Some(index));
            assert_eq!(parse_org_index(&OrgId(index).name()), Some(index));
        }
    }
}

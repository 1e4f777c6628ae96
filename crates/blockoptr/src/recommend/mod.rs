//! The multi-level recommendation engine (paper §4.4, Table 1).
//!
//! Detection is organized as a **pluggable rule engine**: every
//! recommendation is produced by a [`Rule`] — a small, stateless
//! detector with an id, an abstraction [`Level`], and a
//! [`detect`](rules::Rule::detect) method over the derived [`Metrics`] — and
//! the rules run through a [`RuleSet`] registry. The default
//! registry, [`RuleSet::paper`](rules::RuleSet::paper), carries the paper's
//! nine-rule catalogue, one module each under [`rules`]:
//!
//! | Level | Rule (module) | Necessary condition (as implemented) |
//! |---|---|---|
//! | user | [`rules::reordering`] | ≥ `reorder_share` of read-conflicts stem from pairs with `corDV = 1 ∧ WS(x) ∩ WS(y) = ∅` |
//! | user | [`rules::pruning`] | an activity has both writing and read-only executions (`A(x) = A(y) ∧ TT(x) ≠ TT(y)`) |
//! | user | [`rules::rate_control`] | ∃ interval: `Trdᵢ ≥ Rt1 ∧ Frdᵢ ≥ Trdᵢ · Rt2` |
//! | data | [`rules::delta_writes`] | adjacent failed single-key writes differing by ±1 (`corPA = 1 ∧ ST = MRC ∧ |WS| = 1 ∧ WS ± 1`) |
//! | data | [`rules::partitioning`] | hotkey with `Ksig > 1` (and more than one hotkey) |
//! | data | [`rules::data_model`] | `|HK| = 1`, or hotkeys with `Ksig = 1` |
//! | system | [`rules::block_size`] | `|Bsizeavg − Tr| > Bt · Tr` |
//! | system | [`rules::endorser`] | some org's endorsement share > `(1 + Et) ·` even share |
//! | system | [`rules::client_boost`] | some org invokes > `It` of all transactions |
//!
//! Defaults follow §6: `Et = 0.5, Rt1 = 300, Rt2 = 0.3, Bt = 0.6, It = 0.5`.
//!
//! The registry is open: deployments plug their own rules in next to the
//! paper catalogue or disable individual rules — both through the
//! [`Analyzer`](crate::session::Analyzer) builder, so streaming
//! [`Session`](crate::session::Session)s evaluate the same registry, against
//! the same thresholds, on every snapshot.
//!
//! ```
//! use blockoptr::recommend::rules::{Finding, Rule, RuleCtx, RuleSet};
//! use blockoptr::recommend::Level;
//! use blockoptr::session::Analyzer;
//! use std::sync::Arc;
//!
//! /// A deployment-specific rule: flag logs that outgrow a volume budget.
//! #[derive(Debug)]
//! struct VolumeAlarm {
//!     budget: usize,
//! }
//!
//! impl Rule for VolumeAlarm {
//!     fn id(&self) -> &str {
//!         "volume-alarm"
//!     }
//!     fn level(&self) -> Level {
//!         Level::System
//!     }
//!     fn detect(&self, ctx: &RuleCtx<'_>) -> Vec<Finding> {
//!         if ctx.metrics.rates.total > self.budget {
//!             vec![Finding::custom(
//!                 self,
//!                 "Volume alarm",
//!                 format!(
//!                     "{} transactions exceed the {}-tx budget",
//!                     ctx.metrics.rates.total, self.budget
//!                 ),
//!             )]
//!         } else {
//!             Vec::new()
//!         }
//!     }
//! }
//!
//! let cv = workload::spec::ControlVariables {
//!     transactions: 500,
//!     ..Default::default()
//! };
//! let output = workload::synthetic::generate(&cv).run(cv.network_config());
//!
//! let rules = RuleSet::paper().with_rule(Arc::new(VolumeAlarm { budget: 100 }));
//! let analysis = Analyzer::new()
//!     .rules(rules)
//!     .analyze_ledger(&output.ledger)
//!     .unwrap();
//! assert!(analysis.recommends("Volume alarm"));
//! ```

use crate::log::BlockchainLog;
use crate::metrics::Metrics;
use fabric_sim::types::TxType;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

pub mod rules;

pub use rules::{Finding, Rule, RuleCtx, RuleSet};

/// Abstraction level of a recommendation (paper Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Level {
    /// Business-process / workload level.
    User,
    /// Smart-contract / data-model level.
    Data,
    /// Configuration / resource level.
    System,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Level::User => "user",
            Level::Data => "data",
            Level::System => "system",
        };
        f.write_str(s)
    }
}

/// User-configurable detection thresholds (paper §4.4 and §6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Thresholds {
    /// `Et`: endorser-imbalance tolerance (an org fires above
    /// `(1 + Et) ·` even share).
    pub et: f64,
    /// `Rt1`: the interval rate (tx/s) considered "high traffic".
    pub rt1: f64,
    /// `Rt2`: the failure fraction within a high interval that triggers rate
    /// control.
    pub rt2: f64,
    /// `Bt`: relative mismatch between `Bsizeavg` and `Tr` that triggers
    /// block-size adaptation.
    pub bt: f64,
    /// `It`: invoker share that triggers the client resource boost.
    pub it: f64,
    /// Share of read conflicts that must be reorderable (§6.1.5 sets 40 %).
    pub reorder_share: f64,
    /// Minimum read conflicts before reordering/pruning analysis fires.
    pub min_conflicts: usize,
    /// Minimum adjacent increment pairs before delta writes fire.
    pub min_delta_pairs: usize,
    /// Minimum anomalous executions before pruning flags an activity.
    pub min_anomalies: usize,
    /// Rate applied when implementing rate control (Table 4: 100 tps).
    pub controlled_rate: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            et: 0.5,
            rt1: 300.0,
            rt2: 0.3,
            bt: 0.6,
            it: 0.5,
            reorder_share: 0.4,
            min_conflicts: 25,
            min_delta_pairs: 5,
            min_anomalies: 10,
            controlled_rate: 100.0,
        }
    }
}

/// An anomalously-used activity (pruning target).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnomalousActivity {
    /// Activity name.
    pub activity: String,
    /// Its dominant (expected) transaction type.
    pub dominant_type: String,
    /// Executions of the dominant type.
    pub dominant_count: usize,
    /// Read-only (anomalous) executions.
    pub anomalous_count: usize,
}

/// One recommendation with its evidence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Recommendation {
    /// Redesign the process so correlated activities stop conflicting.
    ActivityReordering {
        /// `(failed activity, writer activity) → conflicts` — top offenders.
        pairs: Vec<((String, String), usize)>,
        /// Share of read conflicts that are reorderable.
        share: f64,
    },
    /// Prune illogical activity paths (early-abort in the contract or
    /// enforce organizational measures).
    ProcessModelPruning {
        /// The anomalously-used activities.
        anomalous: Vec<AnomalousActivity>,
    },
    /// Throttle clients during high-failure periods.
    TransactionRateControl {
        /// Absolute interval indices (`client_ts / ins`) where the
        /// condition fired — stable across sliding-window evictions.
        intervals: Vec<usize>,
        /// The highest interval rate observed (tx/s).
        peak_rate: f64,
        /// The rate to throttle to (Table 4: 100 tps).
        suggested_rate: f64,
    },
    /// Convert increment/decrement updates into delta writes.
    DeltaWrites {
        /// Activities with adjacent failed increments, with pair counts.
        activities: Vec<(String, usize)>,
    },
    /// Split the smart contract so hot keys live in separate world states.
    SmartContractPartitioning {
        /// Hot keys and the activities failing on them.
        hotkeys: Vec<(String, Vec<String>)>,
    },
    /// Re-key the data model (e.g. `partyID` → `voterID`).
    DataModelAlteration {
        /// Hot keys and the activities failing on them.
        hotkeys: Vec<(String, Vec<String>)>,
        /// Whether the trigger was a single dominant hotkey.
        single_hotkey: bool,
    },
    /// Match the block count to the observed transaction rate.
    BlockSizeAdaptation {
        /// Realized average block size.
        current_avg: f64,
        /// Observed transaction rate `Tr`.
        tr: f64,
        /// Suggested block count (`min{Bcount, Tr · Btimeout} = Tr`).
        suggested_count: usize,
    },
    /// Rebalance the endorsement policy / endorser assignment.
    EndorserRestructuring {
        /// Per-organization endorsement shares, descending.
        shares: Vec<(String, f64)>,
        /// Organizations above the imbalance threshold.
        overloaded: Vec<String>,
    },
    /// Scale the clients of an overloaded organization.
    ClientResourceBoost {
        /// The organization invoking the majority of transactions.
        org: String,
        /// Its invocation share.
        share: f64,
    },
    /// A finding produced by a user-defined [`Rule`] outside
    /// the paper catalogue. It flows through reports, filters, and
    /// compliance checks like any built-in recommendation; implementing it
    /// is up to the deployment (no [`Action`](crate::action::Action)
    /// lowering exists for it).
    Custom {
        /// Display name (the paper rules use their Table 1 names here).
        name: String,
        /// Abstraction level the rule assigned.
        level: Level,
        /// Human-readable evidence.
        rationale: String,
    },
}

impl Recommendation {
    /// The abstraction level this recommendation belongs to.
    pub fn level(&self) -> Level {
        match self {
            Recommendation::ActivityReordering { .. }
            | Recommendation::ProcessModelPruning { .. }
            | Recommendation::TransactionRateControl { .. } => Level::User,
            Recommendation::DeltaWrites { .. }
            | Recommendation::SmartContractPartitioning { .. }
            | Recommendation::DataModelAlteration { .. } => Level::Data,
            Recommendation::BlockSizeAdaptation { .. }
            | Recommendation::EndorserRestructuring { .. }
            | Recommendation::ClientResourceBoost { .. } => Level::System,
            Recommendation::Custom { level, .. } => *level,
        }
    }

    /// Short name matching the paper's vocabulary (custom findings report
    /// the name their rule chose).
    pub fn name(&self) -> &str {
        match self {
            Recommendation::ActivityReordering { .. } => "Activity reordering",
            Recommendation::ProcessModelPruning { .. } => "Process model pruning",
            Recommendation::TransactionRateControl { .. } => "Transaction rate control",
            Recommendation::DeltaWrites { .. } => "Delta writes",
            Recommendation::SmartContractPartitioning { .. } => "Smart contract partitioning",
            Recommendation::DataModelAlteration { .. } => "Data model alteration",
            Recommendation::BlockSizeAdaptation { .. } => "Block size adaptation",
            Recommendation::EndorserRestructuring { .. } => "Endorser restructuring",
            Recommendation::ClientResourceBoost { .. } => "Client resource boost",
            Recommendation::Custom { name, .. } => name,
        }
    }

    /// Human-readable explanation with the supporting evidence.
    pub fn rationale(&self) -> String {
        match self {
            Recommendation::ActivityReordering { pairs, share } => {
                let top: Vec<String> = pairs
                    .iter()
                    .take(3)
                    .map(|((a, b), n)| format!("{a} ↔ {b} ({n}×)"))
                    .collect();
                format!(
                    "{:.0} % of read conflicts involve reorderable activity pairs: {}",
                    share * 100.0,
                    top.join(", ")
                )
            }
            Recommendation::ProcessModelPruning { anomalous } => {
                let list: Vec<String> = anomalous
                    .iter()
                    .map(|a| {
                        format!(
                            "{} ({} anomalous read-only of {} total)",
                            a.activity,
                            a.anomalous_count,
                            a.anomalous_count + a.dominant_count
                        )
                    })
                    .collect();
                format!("activities deviate from expected behaviour: {}", list.join(", "))
            }
            Recommendation::TransactionRateControl {
                intervals,
                peak_rate,
                suggested_rate,
            } => format!(
                "{} high-traffic intervals with high failure rates (peak {:.0} tx/s); throttle to {:.0} tx/s",
                intervals.len(),
                peak_rate,
                suggested_rate
            ),
            Recommendation::DeltaWrites { activities } => {
                let list: Vec<String> = activities
                    .iter()
                    .map(|(a, n)| format!("{a} ({n} increment pairs)"))
                    .collect();
                format!("increment-only updates detected: {}", list.join(", "))
            }
            Recommendation::SmartContractPartitioning { hotkeys } => {
                let list: Vec<String> = hotkeys
                    .iter()
                    .take(3)
                    .map(|(k, acts)| format!("{k} ← {{{}}}", acts.join(",")))
                    .collect();
                format!("hot keys shared by multiple activities: {}", list.join("; "))
            }
            Recommendation::DataModelAlteration {
                hotkeys,
                single_hotkey,
            } => {
                let list: Vec<String> = hotkeys
                    .iter()
                    .take(3)
                    .map(|(k, acts)| format!("{k} ← {{{}}}", acts.join(",")))
                    .collect();
                format!(
                    "{}: {}",
                    if *single_hotkey {
                        "a single dominant hotkey indicates a skewed data model"
                    } else {
                        "hotkeys accessed by a single activity"
                    },
                    list.join("; ")
                )
            }
            Recommendation::BlockSizeAdaptation {
                current_avg,
                tr,
                suggested_count,
            } => format!(
                "average block size {current_avg:.0} mismatches the transaction rate {tr:.0} tx/s; set block count ≈ {suggested_count}"
            ),
            Recommendation::EndorserRestructuring { shares, overloaded } => format!(
                "endorsement load imbalance: {} (top share {:.0} %)",
                overloaded.join(", "),
                shares.first().map(|(_, s)| s * 100.0).unwrap_or(0.0)
            ),
            Recommendation::ClientResourceBoost { org, share } => format!(
                "{org} invokes {:.0} % of transactions; scale its clients",
                share * 100.0
            ),
            Recommendation::Custom { rationale, .. } => rationale.clone(),
        }
    }
}

/// Per-activity transaction-type histogram — the only per-record input the
/// rule engine needs beyond [`Metrics`]. Streaming sessions maintain it
/// incrementally (one [`observe_activity_type`] call per transaction).
pub type ActivityTypeHistogram = BTreeMap<String, BTreeMap<TxType, usize>>;

/// Build the histogram from a full log (the batch path).
pub fn activity_type_histogram(log: &BlockchainLog) -> ActivityTypeHistogram {
    let mut hist = ActivityTypeHistogram::new();
    for r in log.records() {
        observe_activity_type(&mut hist, &r.activity, r.tx_type);
    }
    hist
}

/// Fold one transaction into an [`ActivityTypeHistogram`]. Only an
/// activity seen for the first time allocates (its owned name).
pub fn observe_activity_type(hist: &mut ActivityTypeHistogram, activity: &str, tx_type: TxType) {
    crate::metrics::update(hist, activity, |types| {
        crate::metrics::increment(types, &tx_type)
    });
}

/// Reverse one earlier [`observe_activity_type`] (sliding-window eviction);
/// zeroed type entries and emptied activities are removed, so the histogram
/// matches a fresh build over the retained records exactly.
pub fn retract_activity_type(hist: &mut ActivityTypeHistogram, activity: &str, tx_type: TxType) {
    let types = hist
        .get_mut(activity)
        .expect("retract without a matching observe");
    crate::metrics::decrement(types, &tx_type);
    if types.is_empty() {
        hist.remove(activity);
    }
}

/// Evaluate the paper's nine-rule catalogue against a full log.
///
/// Convenience wrapper over [`RuleSet::paper`]; use a custom
/// [`RuleSet`] (through [`Analyzer::rules`](crate::session::Analyzer::rules)
/// or [`RuleSet::evaluate`]) to extend, disable, or re-threshold rules.
pub fn recommend(
    log: &BlockchainLog,
    metrics: &Metrics,
    thresholds: &Thresholds,
) -> Vec<Recommendation> {
    RuleSet::paper().recommendations(&RuleCtx {
        metrics,
        thresholds,
        type_hist: &activity_type_histogram(log),
        log: Some(log),
    })
}

/// Whether a recommendation list contains a given rule (by name).
pub fn contains(recs: &[Recommendation], name: &str) -> bool {
    recs.iter().any(|r| r.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::test_support::{log_of, Rec};
    use crate::metrics::{MetricConfig, Metrics};
    use fabric_sim::ledger::TxStatus;
    use fabric_sim::types::Value;

    fn analyze(log: &BlockchainLog, thresholds: &Thresholds) -> Vec<Recommendation> {
        let metrics = Metrics::derive(
            log,
            &MetricConfig {
                min_failures_for_hotkeys: 5,
                ..Default::default()
            },
        );
        recommend(log, &metrics, thresholds)
    }

    fn lenient() -> Thresholds {
        Thresholds {
            min_conflicts: 2,
            min_delta_pairs: 1,
            min_anomalies: 1,
            rt1: 5.0,
            ..Default::default()
        }
    }

    #[test]
    fn reordering_fires_on_reorderable_conflicts() {
        let mut records = vec![Rec::new(0, "writer").writes(&["k"]).build()];
        for i in 1..6 {
            records.push(
                Rec::new(i, "reader")
                    .reads(&["k"])
                    .status(TxStatus::MvccReadConflict)
                    .build(),
            );
        }
        let recs = analyze(&log_of(records), &lenient());
        assert!(contains(&recs, "Activity reordering"), "{recs:?}");
    }

    #[test]
    fn reordering_silent_for_self_dependent_updates() {
        // Update-update conflicts are unreorderable (Experiment 5's shape).
        let mut records = vec![Rec::new(0, "upd").reads(&["k"]).writes(&["k"]).build()];
        for i in 1..8 {
            records.push(
                Rec::new(i, "upd")
                    .reads(&["k"])
                    .writes(&["k"])
                    .status(if i % 2 == 0 {
                        TxStatus::MvccReadConflict
                    } else {
                        TxStatus::Success
                    })
                    .build(),
            );
        }
        let recs = analyze(&log_of(records), &lenient());
        assert!(!contains(&recs, "Activity reordering"), "{recs:?}");
    }

    #[test]
    fn pruning_fires_on_mixed_type_activity() {
        let mut records = Vec::new();
        for i in 0..10 {
            records.push(Rec::new(i, "ship").reads(&["p"]).writes(&["p"]).build());
        }
        for i in 10..14 {
            // Anomalous read-only ships.
            records.push(Rec::new(i, "ship").reads(&["p"]).build());
        }
        let recs = analyze(&log_of(records), &lenient());
        let pruning = recs
            .iter()
            .find(|r| r.name() == "Process model pruning")
            .expect("fires");
        match pruning {
            Recommendation::ProcessModelPruning { anomalous } => {
                assert_eq!(anomalous.len(), 1);
                assert_eq!(anomalous[0].activity, "ship");
                assert_eq!(anomalous[0].anomalous_count, 4);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn pruning_silent_for_pure_queries() {
        let records = (0..20)
            .map(|i| Rec::new(i, "query").reads(&["k"]).build())
            .collect();
        let recs = analyze(&log_of(records), &lenient());
        assert!(!contains(&recs, "Process model pruning"));
    }

    #[test]
    fn rate_control_needs_both_rate_and_failures() {
        // 20 txs in one second (rate 20 ≥ rt1=5), half failing.
        let mut records = Vec::new();
        for i in 0..20 {
            records.push(
                Rec::new(i, "a")
                    .client_ts_ms(i as u64 * 50)
                    .status(if i % 2 == 0 {
                        TxStatus::MvccReadConflict
                    } else {
                        TxStatus::Success
                    })
                    .build(),
            );
        }
        let recs = analyze(&log_of(records), &lenient());
        assert!(contains(&recs, "Transaction rate control"), "{recs:?}");

        // Same rate but no failures → silent.
        let healthy: Vec<_> = (0..20)
            .map(|i| Rec::new(i, "a").client_ts_ms(i as u64 * 50).build())
            .collect();
        let recs2 = analyze(&log_of(healthy), &lenient());
        assert!(!contains(&recs2, "Transaction rate control"));
    }

    #[test]
    fn delta_writes_fire_on_increment_chains() {
        let mut records = Vec::new();
        for i in 0..6 {
            records.push(
                Rec::new(i, "play")
                    .reads(&["m"])
                    .writes_value("m", Value::Int(i as i64))
                    .status(if i < 5 {
                        TxStatus::MvccReadConflict
                    } else {
                        TxStatus::Success
                    })
                    .build(),
            );
        }
        let recs = analyze(&log_of(records), &lenient());
        assert!(contains(&recs, "Delta writes"), "{recs:?}");
    }

    #[test]
    fn partitioning_vs_data_model_alteration() {
        // Two hotkeys, each failed on by two well-supported activities →
        // partitioning.
        let mut records = Vec::new();
        for i in 0..24 {
            let act = if i % 2 == 0 { "play" } else { "view" };
            let key = if i < 12 { "m1" } else { "m2" };
            records.push(
                Rec::new(i, act)
                    .reads(&[key])
                    .status(TxStatus::MvccReadConflict)
                    .build(),
            );
        }
        let recs = analyze(&log_of(records), &lenient());
        assert!(contains(&recs, "Smart contract partitioning"), "{recs:?}");
        assert!(!contains(&recs, "Data model alteration"));
    }

    #[test]
    fn single_hotkey_triggers_data_model_alteration() {
        let mut records = Vec::new();
        for i in 0..8 {
            records.push(
                Rec::new(i, "vote")
                    .reads(&["party"])
                    .writes(&["party"])
                    .status(TxStatus::MvccReadConflict)
                    .build(),
            );
        }
        let recs = analyze(&log_of(records), &lenient());
        let dm = recs
            .iter()
            .find(|r| r.name() == "Data model alteration")
            .expect("fires");
        match dm {
            Recommendation::DataModelAlteration { single_hotkey, .. } => {
                assert!(single_hotkey);
            }
            _ => unreachable!(),
        }
        assert!(!contains(&recs, "Smart contract partitioning"));
    }

    #[test]
    fn multiple_single_activity_hotkeys_alter_data_model() {
        // Several hotkeys, each failed on by ONE activity → data model.
        let mut records = Vec::new();
        for i in 0..12 {
            let key = ["p1", "p2", "p3", "p4"][i % 4];
            records.push(
                Rec::new(i, "vote")
                    .reads(&[key])
                    .writes(&[key])
                    .status(TxStatus::MvccReadConflict)
                    .build(),
            );
        }
        let recs = analyze(&log_of(records), &lenient());
        assert!(contains(&recs, "Data model alteration"), "{recs:?}");
        assert!(!contains(&recs, "Smart contract partitioning"));
    }

    #[test]
    fn block_size_adaptation_on_mismatch() {
        // Rate ≈ 100 tx/s, block size 10 → mismatch 90 > 0.6·100.
        let mut records = Vec::new();
        for i in 0..100 {
            records.push(
                Rec::new(i, "a")
                    .client_ts_ms(i as u64 * 10)
                    .block((i / 10) as u64 + 1)
                    .build(),
            );
        }
        let recs = analyze(&log_of(records), &lenient());
        let bs = recs
            .iter()
            .find(|r| r.name() == "Block size adaptation")
            .expect("fires");
        match bs {
            Recommendation::BlockSizeAdaptation {
                suggested_count, ..
            } => assert!((90..=112).contains(suggested_count), "{suggested_count}"),
            _ => unreachable!(),
        }
    }

    #[test]
    fn block_size_silent_when_matched() {
        // Rate ≈ 10 tx/s, block size 10 → no mismatch.
        let mut records = Vec::new();
        for i in 0..100 {
            records.push(
                Rec::new(i, "a")
                    .client_ts_ms(i as u64 * 100)
                    .block((i / 10) as u64 + 1)
                    .build(),
            );
        }
        let recs = analyze(&log_of(records), &lenient());
        assert!(!contains(&recs, "Block size adaptation"), "{recs:?}");
    }

    #[test]
    fn endorser_restructuring_on_imbalance() {
        // Org1 endorses everything (often alone), Org2/3 split the rest.
        let mut records = Vec::new();
        for i in 0..20 {
            let mut rec = Rec::new(i, "a");
            rec = if i % 2 == 0 {
                rec.endorsed_by(&[0])
            } else {
                rec.endorsed_by(&[0, if i % 4 == 1 { 1 } else { 2 }])
            };
            records.push(rec.build());
        }
        let recs = analyze(&log_of(records), &lenient());
        let er = recs
            .iter()
            .find(|r| r.name() == "Endorser restructuring")
            .expect("fires");
        match er {
            Recommendation::EndorserRestructuring { overloaded, .. } => {
                assert_eq!(overloaded, &vec!["Org1".to_string()]);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn endorser_silent_when_even() {
        let mut records = Vec::new();
        for i in 0..20 {
            records.push(Rec::new(i, "a").endorsed_by(&[(i % 2) as u16]).build());
        }
        let recs = analyze(&log_of(records), &lenient());
        assert!(!contains(&recs, "Endorser restructuring"));
    }

    #[test]
    fn client_boost_on_invoker_skew() {
        let mut records = Vec::new();
        for i in 0..20 {
            records.push(
                Rec::new(i, "a")
                    .invoker_org(if i < 14 { 0 } else { 1 })
                    .build(),
            );
        }
        let recs = analyze(&log_of(records), &lenient());
        let cb = recs
            .iter()
            .find(|r| r.name() == "Client resource boost")
            .expect("fires");
        match cb {
            Recommendation::ClientResourceBoost { org, share } => {
                assert_eq!(org, "Org1");
                assert!((share - 0.7).abs() < 1e-9);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn client_boost_silent_on_even_split() {
        let mut records = Vec::new();
        for i in 0..20 {
            records.push(Rec::new(i, "a").invoker_org((i % 2) as u16).build());
        }
        let recs = analyze(&log_of(records), &lenient());
        assert!(!contains(&recs, "Client resource boost"));
    }

    #[test]
    fn levels_and_names_are_consistent() {
        let r = Recommendation::DeltaWrites {
            activities: vec![("play".into(), 7)],
        };
        assert_eq!(r.level(), Level::Data);
        assert_eq!(r.name(), "Delta writes");
        assert!(r.rationale().contains("play"));
        assert_eq!(Level::User.to_string(), "user");
        assert_eq!(Level::System.to_string(), "system");
    }

    #[test]
    fn custom_recommendations_carry_their_own_identity() {
        let r = Recommendation::Custom {
            name: "Volume alarm".into(),
            level: Level::System,
            rationale: "too many transactions".into(),
        };
        assert_eq!(r.name(), "Volume alarm");
        assert_eq!(r.level(), Level::System);
        assert_eq!(r.rationale(), "too many transactions");
        assert!(contains(&[r], "Volume alarm"));
    }

    #[test]
    fn empty_log_yields_no_recommendations() {
        let recs = analyze(&BlockchainLog::default(), &Thresholds::default());
        assert!(recs.is_empty());
    }
}

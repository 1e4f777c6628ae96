//! The pluggable rule engine: [`Rule`], [`RuleCtx`], [`Finding`], and the
//! [`RuleSet`] registry.
//!
//! A [`Rule`] is a stateless detector: it looks at the derived state of one
//! analysis window (a [`RuleCtx`]) and returns zero or more [`Finding`]s.
//! The nine paper rules (§4.4, Table 1) each live in their own submodule
//! and are registered by [`RuleSet::paper`]; deployments extend the
//! registry with [`RuleSet::with_rule`] and silence individual rules with
//! [`RuleSet::disable`] (the CLI's `--disable`). Every rule evaluates
//! against the one analysis-wide [`Thresholds`] set.
//!
//! The engine is streaming-first: built-in rules read only the
//! pre-aggregated inputs ([`Metrics`], the activity-type histogram), so a
//! [`Session`](crate::session::Session) snapshot evaluates the whole
//! registry in O(state), never O(log). The raw [`BlockchainLog`] is offered
//! to custom rules when the caller has it ([`RuleCtx::log`]); rules that
//! need it must tolerate its absence.

pub mod block_size;
pub mod client_boost;
pub mod data_model;
pub mod delta_writes;
pub mod endorser;
pub mod partitioning;
pub mod pruning;
pub mod rate_control;
pub mod reordering;

use crate::log::BlockchainLog;
use crate::metrics::Metrics;
use crate::recommend::{ActivityTypeHistogram, Level, Recommendation, Thresholds};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Everything a rule may look at for one analysis window.
///
/// All fields are borrowed: building a context is free, and the same
/// context serves every rule in a [`RuleSet::evaluate`] pass.
#[derive(Debug, Clone, Copy)]
pub struct RuleCtx<'a> {
    /// The derived metrics (§4.3) — the primary input; everything here is
    /// O(state).
    pub metrics: &'a Metrics,
    /// The analysis-wide thresholds every rule evaluates against.
    pub thresholds: &'a Thresholds,
    /// Per-activity transaction-type histogram (pruning's input).
    pub type_hist: &'a ActivityTypeHistogram,
    /// The raw log, when the caller has one. Batch analyses and streaming
    /// sessions pass it; a caller evaluating pre-aggregated inputs may not.
    /// Built-in rules never read it (the O(state) snapshot guarantee);
    /// custom rules must handle `None`.
    pub log: Option<&'a BlockchainLog>,
}

/// One detection: which rule fired, and the recommendation it produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// Id of the producing rule (see [`Rule::id`]).
    pub rule: String,
    /// The recommendation, with its evidence.
    pub recommendation: Recommendation,
}

impl Finding {
    /// A finding attributed to `rule`.
    pub fn of(rule: &dyn Rule, recommendation: Recommendation) -> Finding {
        Finding {
            rule: rule.id().to_string(),
            recommendation,
        }
    }

    /// A finding for a user-defined rule outside the paper catalogue: the
    /// recommendation is a [`Recommendation::Custom`] carrying the rule's
    /// level, a display `name`, and the evidence `rationale`.
    pub fn custom(
        rule: &dyn Rule,
        name: impl Into<String>,
        rationale: impl Into<String>,
    ) -> Finding {
        Finding {
            rule: rule.id().to_string(),
            recommendation: Recommendation::Custom {
                name: name.into(),
                level: rule.level(),
                rationale: rationale.into(),
            },
        }
    }
}

/// A pluggable detector.
///
/// Implementations must be cheap to call and side-effect free: a streaming
/// session re-evaluates every enabled rule on each snapshot.
pub trait Rule: fmt::Debug + Send + Sync {
    /// Stable identifier, used to disable the rule and to attribute its
    /// findings (the paper rules use kebab-case names, e.g.
    /// `activity-reordering`).
    fn id(&self) -> &str;

    /// The abstraction level this rule diagnoses at.
    fn level(&self) -> Level;

    /// Evaluate the rule against one analysis window.
    fn detect(&self, ctx: &RuleCtx<'_>) -> Vec<Finding>;
}

/// An ordered, user-extensible registry of [`Rule`]s.
///
/// `Default` is the paper catalogue ([`RuleSet::paper`]). Rules are shared
/// (`Arc`), so cloning a rule set — e.g. when cloning an
/// [`Analyzer`](crate::session::Analyzer) — is cheap.
#[derive(Debug, Clone)]
pub struct RuleSet {
    rules: Vec<Arc<dyn Rule>>,
    disabled: BTreeSet<String>,
}

impl Default for RuleSet {
    fn default() -> Self {
        RuleSet::paper()
    }
}

impl RuleSet {
    /// A registry with no rules.
    pub fn empty() -> RuleSet {
        RuleSet {
            rules: Vec::new(),
            disabled: BTreeSet::new(),
        }
    }

    /// The paper's nine-rule catalogue (Table 1), in level order.
    pub fn paper() -> RuleSet {
        RuleSet::empty()
            .with_rule(Arc::new(reordering::ActivityReordering))
            .with_rule(Arc::new(pruning::ProcessModelPruning))
            .with_rule(Arc::new(rate_control::TransactionRateControl))
            .with_rule(Arc::new(delta_writes::DeltaWrites))
            .with_rule(Arc::new(partitioning::SmartContractPartitioning))
            .with_rule(Arc::new(data_model::DataModelAlteration))
            .with_rule(Arc::new(block_size::BlockSizeAdaptation))
            .with_rule(Arc::new(endorser::EndorserRestructuring))
            .with_rule(Arc::new(client_boost::ClientResourceBoost))
    }

    /// Register a rule (builder style). A rule with the same id replaces
    /// the existing one, keeping its position.
    pub fn with_rule(mut self, rule: Arc<dyn Rule>) -> RuleSet {
        self.register(rule);
        self
    }

    /// Register a rule. A rule with the same id replaces the existing one,
    /// keeping its position.
    pub fn register(&mut self, rule: Arc<dyn Rule>) {
        match self.rules.iter_mut().find(|r| r.id() == rule.id()) {
            Some(slot) => *slot = rule,
            None => self.rules.push(rule),
        }
    }

    /// Disable a rule by id (unknown ids are remembered, so a rule can be
    /// disabled before it is registered).
    pub fn disable(&mut self, id: &str) {
        self.disabled.insert(id.to_string());
    }

    /// Builder-style [`disable`](Self::disable).
    pub fn without(mut self, id: &str) -> RuleSet {
        self.disable(id);
        self
    }

    /// Ids of all registered rules, in registration order (including
    /// disabled ones).
    pub fn ids(&self) -> Vec<&str> {
        self.rules.iter().map(|r| r.id()).collect()
    }

    /// Number of registered rules (including disabled ones).
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the registry has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Run every enabled rule and collect the findings, sorted by level,
    /// recommendation name, then rule id.
    pub fn evaluate(&self, ctx: &RuleCtx<'_>) -> Vec<Finding> {
        let mut out = Vec::new();
        for rule in &self.rules {
            if !self.disabled.contains(rule.id()) {
                out.extend(rule.detect(ctx));
            }
        }
        out.sort_by(|a, b| {
            (a.recommendation.level(), a.recommendation.name(), &a.rule).cmp(&(
                b.recommendation.level(),
                b.recommendation.name(),
                &b.rule,
            ))
        });
        out
    }

    /// Like [`evaluate`](Self::evaluate), dropping the rule attribution.
    pub fn recommendations(&self, ctx: &RuleCtx<'_>) -> Vec<Recommendation> {
        self.evaluate(ctx)
            .into_iter()
            .map(|f| f.recommendation)
            .collect()
    }
}

/// Hotkeys with the activities failing on them — shared evidence base of
/// the two hotkey-driven data-level rules (§4.4 rules 5 and 6, which are
/// mutually exclusive by construction).
pub(crate) fn described_hotkeys(metrics: &Metrics) -> Vec<(String, Vec<String>)> {
    metrics
        .keys
        .hotkeys
        .iter()
        .map(|k| (k.clone(), metrics.keys.significant_activities(k)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::test_support::{log_of, Rec};
    use crate::metrics::{MetricConfig, Metrics};
    use crate::recommend::activity_type_histogram;
    use fabric_sim::ledger::TxStatus;

    /// A high-failure log that fires rate control under lenient thresholds.
    fn failing_log() -> crate::log::BlockchainLog {
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
        log_of(records)
    }

    fn lenient() -> Thresholds {
        Thresholds {
            rt1: 5.0,
            ..Default::default()
        }
    }

    #[derive(Debug)]
    struct AlwaysFires;

    impl Rule for AlwaysFires {
        fn id(&self) -> &str {
            "always-fires"
        }
        fn level(&self) -> Level {
            Level::User
        }
        fn detect(&self, _ctx: &RuleCtx<'_>) -> Vec<Finding> {
            vec![Finding::custom(self, "Always", "it always fires")]
        }
    }

    fn ctx_parts(log: &crate::log::BlockchainLog) -> (Metrics, ActivityTypeHistogram) {
        let metrics = Metrics::derive(log, &MetricConfig::default());
        let hist = activity_type_histogram(log);
        (metrics, hist)
    }

    #[test]
    fn paper_registry_matches_the_monolithic_engine() {
        let log = failing_log();
        let (metrics, hist) = ctx_parts(&log);
        let thresholds = lenient();
        let ctx = RuleCtx {
            metrics: &metrics,
            thresholds: &thresholds,
            type_hist: &hist,
            log: Some(&log),
        };
        let rules = RuleSet::paper();
        let findings = rules.evaluate(&ctx);
        assert!(findings
            .iter()
            .any(|f| f.rule == "transaction-rate-control"));
        // Every finding is attributed to a registered rule.
        let ids: BTreeSet<&str> = rules.ids().into_iter().collect();
        for f in &findings {
            assert!(ids.contains(f.rule.as_str()), "{f:?}");
        }
    }

    #[test]
    fn disabling_a_rule_silences_it() {
        let log = failing_log();
        let (metrics, hist) = ctx_parts(&log);
        let thresholds = lenient();
        let ctx = RuleCtx {
            metrics: &metrics,
            thresholds: &thresholds,
            type_hist: &hist,
            log: None,
        };
        assert!(RuleSet::paper()
            .evaluate(&ctx)
            .iter()
            .any(|f| f.rule == "transaction-rate-control"));
        let rules = RuleSet::paper().without("transaction-rate-control");
        assert_eq!(rules.len(), 9, "disabled rules stay registered");
        let findings = rules.evaluate(&ctx);
        assert!(!findings
            .iter()
            .any(|f| f.rule == "transaction-rate-control"));
    }

    #[test]
    fn custom_rules_register_and_fire() {
        let log = failing_log();
        let (metrics, hist) = ctx_parts(&log);
        let thresholds = Thresholds::default();
        let ctx = RuleCtx {
            metrics: &metrics,
            thresholds: &thresholds,
            type_hist: &hist,
            log: Some(&log),
        };
        let rules = RuleSet::paper().with_rule(Arc::new(AlwaysFires));
        assert_eq!(rules.len(), 10);
        let findings = rules.evaluate(&ctx);
        let custom = findings
            .iter()
            .find(|f| f.rule == "always-fires")
            .expect("custom rule fired");
        assert_eq!(custom.recommendation.name(), "Always");
        assert_eq!(custom.recommendation.level(), Level::User);
    }

    #[test]
    fn registering_the_same_id_replaces_in_place() {
        let rules = RuleSet::paper()
            .with_rule(Arc::new(AlwaysFires))
            .with_rule(Arc::new(AlwaysFires));
        assert_eq!(rules.len(), 10, "no duplicate registration");
    }

    #[test]
    fn empty_registry_finds_nothing() {
        let log = failing_log();
        let (metrics, hist) = ctx_parts(&log);
        let thresholds = lenient();
        let ctx = RuleCtx {
            metrics: &metrics,
            thresholds: &thresholds,
            type_hist: &hist,
            log: None,
        };
        assert!(RuleSet::empty().is_empty());
        assert!(RuleSet::empty().evaluate(&ctx).is_empty());
        assert!(RuleSet::empty().ids().is_empty());
    }

    #[test]
    fn findings_sort_by_level_then_name() {
        let log = failing_log();
        let (metrics, hist) = ctx_parts(&log);
        let thresholds = lenient();
        let ctx = RuleCtx {
            metrics: &metrics,
            thresholds: &thresholds,
            type_hist: &hist,
            log: None,
        };
        let findings = RuleSet::paper().evaluate(&ctx);
        let keys: Vec<(Level, String)> = findings
            .iter()
            .map(|f| {
                (
                    f.recommendation.level(),
                    f.recommendation.name().to_string(),
                )
            })
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}

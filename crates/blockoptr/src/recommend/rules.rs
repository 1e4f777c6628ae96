//! The closed rule catalogue: the paper's nine rules (§4.4, Table 1) as
//! one [`Rule`] enum, the [`RuleCtx`] they read, and the [`RuleSet`] that
//! evaluates them.
//!
//! Each rule is a stateless detector over one analysis window: a private
//! function that returns the rule's [`Recommendation`] when it fires.
//! [`Rule`] holds each rule's id, display name and level once, in Table 1
//! order, and [`RuleSet`] holds only the rules the CLI's `--disable` (via
//! [`Analyzer::disable_rule`](crate::session::Analyzer::disable_rule))
//! switched off. Every rule evaluates against the one analysis-wide
//! [`Thresholds`] set.
//!
//! The rules read only pre-aggregated inputs ([`Metrics`], the
//! activity-type histogram), so a [`Session`](crate::session::Session)
//! snapshot evaluates the catalogue in O(state), never O(log).

use crate::log::BlockchainLog;
use crate::metrics::Metrics;
use crate::recommend::{
    ActivityTypeHistogram, AnomalousActivity, Level, Recommendation, Thresholds,
};
use fabric_sim::types::TxType;
use std::collections::BTreeSet;

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
    /// The raw log, when the caller has one. No rule reads it (the
    /// O(state) snapshot guarantee); kept because the benchmark package
    /// builds contexts with it.
    pub log: Option<&'a BlockchainLog>,
}

/// One of the paper's nine rules, in Table 1 order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Activity reordering (user level).
    ActivityReordering,
    /// Process model pruning (user level).
    ProcessModelPruning,
    /// Transaction rate control (user level).
    TransactionRateControl,
    /// Delta writes (data level).
    DeltaWrites,
    /// Smart contract partitioning (data level).
    SmartContractPartitioning,
    /// Data model alteration (data level).
    DataModelAlteration,
    /// Block size adaptation (system level).
    BlockSizeAdaptation,
    /// Endorser restructuring (system level).
    EndorserRestructuring,
    /// Client resource boost (system level).
    ClientResourceBoost,
}

type Detector = fn(&RuleCtx<'_>) -> Option<Recommendation>;

impl Rule {
    /// Every rule, in Table 1 order.
    pub const ALL: [Rule; 9] = [
        Rule::ActivityReordering,
        Rule::ProcessModelPruning,
        Rule::TransactionRateControl,
        Rule::DeltaWrites,
        Rule::SmartContractPartitioning,
        Rule::DataModelAlteration,
        Rule::BlockSizeAdaptation,
        Rule::EndorserRestructuring,
        Rule::ClientResourceBoost,
    ];

    /// The catalogue row: id, display name, level and detector.
    fn row(self) -> (&'static str, &'static str, Level, Detector) {
        use Level::{Data, System, User};
        match self {
            Rule::ActivityReordering => (
                "activity-reordering",
                "Activity reordering",
                User,
                activity_reordering,
            ),
            Rule::ProcessModelPruning => (
                "process-model-pruning",
                "Process model pruning",
                User,
                process_model_pruning,
            ),
            Rule::TransactionRateControl => (
                "transaction-rate-control",
                "Transaction rate control",
                User,
                transaction_rate_control,
            ),
            Rule::DeltaWrites => ("delta-writes", "Delta writes", Data, delta_writes),
            Rule::SmartContractPartitioning => (
                "smart-contract-partitioning",
                "Smart contract partitioning",
                Data,
                smart_contract_partitioning,
            ),
            Rule::DataModelAlteration => (
                "data-model-alteration",
                "Data model alteration",
                Data,
                data_model_alteration,
            ),
            Rule::BlockSizeAdaptation => (
                "block-size-adaptation",
                "Block size adaptation",
                System,
                block_size_adaptation,
            ),
            Rule::EndorserRestructuring => (
                "endorser-restructuring",
                "Endorser restructuring",
                System,
                endorser_restructuring,
            ),
            Rule::ClientResourceBoost => (
                "client-resource-boost",
                "Client resource boost",
                System,
                client_resource_boost,
            ),
        }
    }

    /// Stable kebab-case id, e.g. `activity-reordering` (what `--disable`
    /// takes).
    pub fn id(self) -> &'static str {
        self.row().0
    }

    /// Display name in the paper's vocabulary, e.g. `Activity reordering`.
    pub fn name(self) -> &'static str {
        self.row().1
    }

    /// The abstraction level this rule diagnoses at.
    pub fn level(self) -> Level {
        self.row().2
    }

    /// Evaluate this rule against one analysis window.
    fn detect(self, ctx: &RuleCtx<'_>) -> Option<Recommendation> {
        (self.row().3)(ctx)
    }
}

/// The paper catalogue with the rules the caller disabled.
///
/// `Default` is the full catalogue ([`RuleSet::paper`]).
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    disabled: BTreeSet<Rule>,
}

impl RuleSet {
    /// The paper's nine-rule catalogue (Table 1), every rule enabled.
    pub fn paper() -> RuleSet {
        RuleSet::default()
    }

    /// Disable one rule (see
    /// [`Analyzer::disable_rule`](crate::session::Analyzer::disable_rule)).
    pub(crate) fn disable(&mut self, rule: Rule) {
        self.disabled.insert(rule);
    }

    /// Run every enabled rule and collect the recommendations, sorted by
    /// level, then name.
    pub fn evaluate(&self, ctx: &RuleCtx<'_>) -> Vec<Recommendation> {
        let mut out: Vec<Recommendation> = Rule::ALL
            .into_iter()
            .filter(|rule| !self.disabled.contains(rule))
            .filter_map(|rule| rule.detect(ctx))
            .collect();
        out.sort_by_key(|r| (r.level(), r.name()));
        out
    }
}

/// **Activity reordering** (§6.1.5 / §6.2). Needs ≥ `min_conflicts` read
/// conflicts, then either of two triggers (the paper's global rule, plus
/// the per-activity tier §6.2 uses when hot-key self-conflicts dominate
/// globally):
///
/// * globally, ≥ `reorder_share` of read conflicts are reorderable
///   (`corDV = 1 ∧ WS(x) ∩ WS(y) = ∅`);
/// * the activities whose own conflicts are mostly (≥ 60 %) reorderable
///   together account for ≥ `reorder_share`/2 of all read conflicts.
fn activity_reordering(ctx: &RuleCtx<'_>) -> Option<Recommendation> {
    let corr = &ctx.metrics.correlation;
    if corr.read_conflicts < ctx.thresholds.min_conflicts {
        return None;
    }
    let global = corr.reorderable_share() >= ctx.thresholds.reorder_share;
    let qualifying: usize = corr
        .activity_conflicts
        .values()
        .filter(|(total, reord)| *total > 0 && (*reord as f64) >= 0.6 * (*total as f64))
        .map(|(total, _)| *total)
        .sum();
    let targeted =
        qualifying as f64 / corr.read_conflicts as f64 >= ctx.thresholds.reorder_share / 2.0;
    (global || targeted).then(|| Recommendation::ActivityReordering {
        pairs: corr.top_reorderable_pairs().into_iter().take(8).collect(),
        share: corr.reorderable_share(),
    })
}

/// **Process model pruning.** An activity with ≥ `min_anomalies` writing
/// and ≥ `min_anomalies` read-only executions deviates from its expected
/// behaviour (`A(x) = A(y) ∧ TT(x) ≠ TT(y)`); either side may dominate —
/// under heavy failure cascades most executions degenerate to the
/// read-only path.
fn process_model_pruning(ctx: &RuleCtx<'_>) -> Option<Recommendation> {
    let mut anomalous = Vec::new();
    for (activity, hist) in ctx.type_hist {
        let reads = hist.get(&TxType::Read).copied().unwrap_or(0);
        let writes: usize = hist
            .iter()
            .filter(|(t, _)| !matches!(t, TxType::Read | TxType::RangeRead))
            .map(|(_, c)| *c)
            .sum();
        if writes >= ctx.thresholds.min_anomalies && reads >= ctx.thresholds.min_anomalies {
            let (dominant_type, dominant_count) = hist
                .iter()
                .filter(|(t, _)| !matches!(t, TxType::Read))
                .max_by_key(|(_, c)| **c)
                .map(|(t, c)| (t.to_string(), *c))
                .unwrap_or_default();
            anomalous.push(AnomalousActivity {
                activity: activity.to_string(),
                dominant_type,
                dominant_count,
                anomalous_count: reads,
            });
        }
    }
    (!anomalous.is_empty()).then_some(Recommendation::ProcessModelPruning { anomalous })
}

/// **Transaction rate control.** Some interval is both high-traffic and
/// failure-heavy: `∃ i: Trdᵢ ≥ Rt1 ∧ Frdᵢ ≥ Trdᵢ · Rt2`.
fn transaction_rate_control(ctx: &RuleCtx<'_>) -> Option<Recommendation> {
    let rates = &ctx.metrics.rates;
    let mut fired_intervals = Vec::new();
    let mut peak = 0.0f64;
    for i in 0..rates.intervals() {
        let rate = rates.rate_in(i);
        let fail = rates.failure_rate_in(i);
        peak = peak.max(rate);
        if rate >= ctx.thresholds.rt1 && fail >= rate * ctx.thresholds.rt2 {
            // Report absolute interval indices (client_ts / ins): the
            // stored series starts at first_interval, and under a sliding
            // window that origin moves with every eviction.
            fired_intervals.push(rates.first_interval + i);
        }
    }
    (!fired_intervals.is_empty()).then_some(Recommendation::TransactionRateControl {
        intervals: fired_intervals,
        peak_rate: peak,
        suggested_rate: ctx.thresholds.controlled_rate,
    })
}

/// **Delta writes.** An activity has ≥ `min_delta_pairs` adjacent failed
/// single-key writes differing by ±1 (`corPA = 1 ∧ ST = MRC ∧ |WS| = 1 ∧
/// WS ± 1`) — increment-style updates the contract can rewrite into
/// conflict-free delta records.
fn delta_writes(ctx: &RuleCtx<'_>) -> Option<Recommendation> {
    let activities: Vec<(String, usize)> = ctx
        .metrics
        .correlation
        .delta_candidates
        .iter()
        .filter(|(_, &n)| n >= ctx.thresholds.min_delta_pairs)
        .map(|(a, &n)| (a.clone(), n))
        .collect();
    (!activities.is_empty()).then_some(Recommendation::DeltaWrites { activities })
}

/// Hotkeys with the activities failing on them — shared evidence base of
/// the two hotkey-driven data-level rules (§4.4 rules 5 and 6, which are
/// mutually exclusive by construction).
fn described_hotkeys(metrics: &Metrics) -> Vec<(String, Vec<String>)> {
    metrics
        .keys
        .hotkeys
        .iter()
        .map(|k| (k.clone(), metrics.keys.significant_activities(k)))
        .collect()
}

/// **Smart contract partitioning.** Several hotkeys exist and at least one
/// is failed on by more than one activity (`Ksig > 1`) — the hot keys
/// should live in separate world states. Mutually exclusive with
/// [`data_model_alteration`] by construction.
fn smart_contract_partitioning(ctx: &RuleCtx<'_>) -> Option<Recommendation> {
    if ctx.metrics.keys.hotkeys.len() < 2 {
        return None;
    }
    let hotkeys: Vec<(String, Vec<String>)> = described_hotkeys(ctx.metrics)
        .into_iter()
        .filter(|(_, acts)| acts.len() > 1)
        .collect();
    (!hotkeys.is_empty()).then_some(Recommendation::SmartContractPartitioning { hotkeys })
}

/// **Data model alteration.** The hotkey structure points at the data
/// model itself: a single dominant hotkey (`|HK| = 1`), or several hotkeys
/// that are each failed on by at most one activity (`Ksig ≤ 1`). Mutually
/// exclusive with [`smart_contract_partitioning`] by construction.
fn data_model_alteration(ctx: &RuleCtx<'_>) -> Option<Recommendation> {
    if !ctx.metrics.keys.has_hotkeys() {
        return None;
    }
    let hotkeys = described_hotkeys(ctx.metrics);
    let single_hotkey = hotkeys.len() == 1;
    if !single_hotkey && hotkeys.iter().any(|(_, acts)| acts.len() > 1) {
        // Partitioning's territory.
        return None;
    }
    Some(Recommendation::DataModelAlteration {
        hotkeys,
        single_hotkey,
    })
}

/// Minimum observed blocks before the average block size is trusted.
const MIN_BLOCKS: usize = 5;

/// **Block size adaptation.** Over ≥ [`MIN_BLOCKS`] blocks and a positive
/// rate, the realized block size mismatches the transaction rate:
/// `|Bsizeavg − Tr| > Bt · Tr`.
fn block_size_adaptation(ctx: &RuleCtx<'_>) -> Option<Recommendation> {
    let block = &ctx.metrics.block;
    let tr = ctx.metrics.rates.tr;
    if block.blocks < MIN_BLOCKS || tr <= 0.0 {
        return None;
    }
    let mismatch = (block.avg_block_size - tr).abs();
    (mismatch > ctx.thresholds.bt * tr).then(|| Recommendation::BlockSizeAdaptation {
        current_avg: block.avg_block_size,
        tr,
        // Sub-1 tps rates would otherwise round to an invalid block count
        // of 0.
        suggested_count: (tr.round() as usize).max(1),
    })
}

/// **Endorser restructuring.** Some organization's endorsement share
/// exceeds `(1 + Et) ·` the even share.
fn endorser_restructuring(ctx: &RuleCtx<'_>) -> Option<Recommendation> {
    let endorsers = &ctx.metrics.endorsers;
    let even = endorsers.even_share();
    if even <= 0.0 {
        return None;
    }
    let shares = endorsers.org_shares();
    let overloaded: Vec<String> = shares
        .iter()
        .filter(|(_, s)| *s > (1.0 + ctx.thresholds.et) * even)
        .map(|(o, _)| o.clone())
        .collect();
    (!overloaded.is_empty()).then_some(Recommendation::EndorserRestructuring { shares, overloaded })
}

/// **Client resource boost.** The top organization invokes more than
/// `It + 0.05` of all transactions.
fn client_resource_boost(ctx: &RuleCtx<'_>) -> Option<Recommendation> {
    let (org, share) = ctx.metrics.invokers.org_shares().into_iter().next()?;
    (share > ctx.thresholds.it + 0.05).then_some(Recommendation::ClientResourceBoost { org, share })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::test_support::{log_of, Rec};
    use crate::metrics::MetricConfig;
    use crate::recommend::activity_type_histogram;
    use fabric_sim::ledger::TxStatus;

    /// A high-failure log that fires rate control under lenient thresholds.
    fn failing_log() -> BlockchainLog {
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

    fn ctx_parts(log: &BlockchainLog) -> (Metrics, ActivityTypeHistogram) {
        let metrics = Metrics::derive(log, &MetricConfig::default());
        let hist = activity_type_histogram(log);
        (metrics, hist)
    }

    #[test]
    fn paper_registry_matches_the_monolithic_engine() {
        // Table 1 order: levels never decrease, and every id is the
        // kebab-case spelling of its display name.
        let levels: Vec<Level> = Rule::ALL.iter().map(|r| r.level()).collect();
        let mut sorted = levels.clone();
        sorted.sort();
        assert_eq!(levels, sorted);
        for rule in Rule::ALL {
            assert_eq!(rule.id(), rule.name().to_lowercase().replace(' ', "-"));
        }
        let log = failing_log();
        let (metrics, hist) = ctx_parts(&log);
        let thresholds = lenient();
        let recs = RuleSet::paper().evaluate(&RuleCtx {
            metrics: &metrics,
            thresholds: &thresholds,
            type_hist: &hist,
            log: Some(&log),
        });
        assert!(recs
            .iter()
            .any(|r| r.rule() == Rule::TransactionRateControl));
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
        let full = RuleSet::paper().evaluate(&ctx);
        assert!(!full.is_empty());
        // Disabling a fired rule removes exactly its recommendation, so
        // every detector produces its own rule's variant.
        for fired in &full {
            let mut rules = RuleSet::paper();
            rules.disable(fired.rule());
            let rest: Vec<Recommendation> = full.iter().filter(|r| *r != fired).cloned().collect();
            assert_eq!(rules.evaluate(&ctx), rest);
        }
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
        let mut rules = RuleSet::paper();
        for rule in Rule::ALL {
            rules.disable(rule);
        }
        assert!(rules.evaluate(&ctx).is_empty());
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
        let keys: Vec<(Level, &str)> = RuleSet::paper()
            .evaluate(&ctx)
            .iter()
            .map(|r| (r.level(), r.name()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}

//! Automatic threshold tuning (paper §9 future work).
//!
//! "Presently, the threshold settings of BlockOptR depend on the business
//! network setup. For example, the rate threshold for our setup was 300 TPS
//! as higher rates led to instabilities, but this can vary for other
//! deployments. Therefore, tuning these thresholds automatically in
//! BlockOptR could be a future extension."
//!
//! This module implements that extension: it estimates the deployment's
//! *sustainable rate* from the log itself — the highest interval send rate
//! at which the interval's failure fraction stays low — and derives the rate
//! thresholds from it instead of the hard-coded 300 tps.

use crate::log::BlockchainLog;
use crate::metrics::RateMetrics;
use crate::recommend::Thresholds;
use sim_core::time::SimDuration;

/// How a threshold set was derived.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedThresholds {
    /// The derived thresholds, ready for the recommendation engine.
    pub thresholds: Thresholds,
    /// The estimated sustainable rate (tx/s).
    pub sustainable_rate: f64,
    /// The realized commit throughput over the log window (tx/s).
    pub commit_rate: f64,
}

/// The failure fraction below which an interval counts as "healthy".
const HEALTHY_FAILURE_FRACTION: f64 = 0.10;

/// Derive deployment-specific thresholds from an observed log.
///
/// * `Rt1` (the "high traffic" rate) becomes 110 % of the estimated
///   sustainable rate — rates above what the deployment can absorb are what
///   rate control should catch.
/// * `controlled_rate` becomes ~45 % of the sustainable rate, mirroring the
///   paper's choice of 100 tps for a ~220 tps-sustainable cluster.
/// * The evidence minima scale with log size so small pilot logs still get
///   recommendations and large production logs are noise-robust.
///
/// Everything else keeps the paper's defaults (`Et`, `Rt2`, `Bt`, `It`).
pub fn auto_tune(log: &BlockchainLog) -> TunedThresholds {
    let rates = RateMetrics::derive(log, SimDuration::from_secs(1));
    tune_from_rates(&rates, log.window_secs())
}

/// Derive thresholds from already-computed rate metrics — the streaming
/// entry point: a session hands over its incrementally maintained
/// [`RateMetrics`] plus the observed window (first send → last commit,
/// seconds), so tuning costs O(intervals), not O(log).
pub fn tune_from_rates(rates: &RateMetrics, window_secs: f64) -> TunedThresholds {
    let total = rates.total;
    let commit_rate = if window_secs > 0.0 {
        total as f64 / window_secs
    } else {
        0.0
    };

    // Highest healthy interval rate: intervals where failures stay below
    // HEALTHY_FAILURE_FRACTION of transactions.
    let mut sustainable: f64 = 0.0;
    for i in 0..rates.intervals() {
        let rate = rates.rate_in(i);
        let fail = rates.failure_rate_in(i);
        if rate > 0.0 && fail <= rate * HEALTHY_FAILURE_FRACTION {
            sustainable = sustainable.max(rate);
        }
    }
    // If no interval was healthy, fall back to the realized commit rate
    // (the pipeline's demonstrated capacity).
    // detlint: allow(float-eq, reason = "sentinel: still the literal initializer iff no interval was healthy; healthy intervals force it strictly positive")
    if sustainable == 0.0 {
        sustainable = commit_rate;
    }

    let defaults = Thresholds::default();
    let thresholds = Thresholds {
        rt1: (sustainable * 1.1).max(10.0),
        controlled_rate: (sustainable * 0.45).max(10.0),
        min_conflicts: (total / 400).max(10),
        min_delta_pairs: (total / 2_000).max(3),
        min_anomalies: (total / 1_000).max(5),
        ..defaults
    };

    TunedThresholds {
        thresholds,
        sustainable_rate: sustainable,
        commit_rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::test_support::{log_of, Rec};
    use crate::session::Analyzer;
    use fabric_sim::ledger::TxStatus;
    use workload::spec::ControlVariables;

    #[test]
    fn healthy_intervals_set_the_sustainable_rate() {
        // 1 s at 20 tx/s healthy, then 1 s at 50 tx/s with 40 % failures.
        let mut records = Vec::new();
        for i in 0..20 {
            records.push(Rec::new(i, "a").client_ts_ms(i as u64 * 50).build());
        }
        for i in 0..50 {
            records.push(
                Rec::new(20 + i, "a")
                    .client_ts_ms(1_000 + i as u64 * 20)
                    .status(if i % 5 < 2 {
                        TxStatus::MvccReadConflict
                    } else {
                        TxStatus::Success
                    })
                    .build(),
            );
        }
        let tuned = auto_tune(&log_of(records));
        assert!(
            (19.0..22.0).contains(&tuned.sustainable_rate),
            "healthy interval rate wins: {}",
            tuned.sustainable_rate
        );
        assert!(tuned.thresholds.rt1 > tuned.sustainable_rate);
        assert!(tuned.thresholds.controlled_rate < tuned.sustainable_rate);
    }

    #[test]
    fn all_unhealthy_falls_back_to_commit_rate() {
        let mut records = Vec::new();
        for i in 0..40 {
            records.push(
                Rec::new(i, "a")
                    .client_ts_ms(i as u64 * 25)
                    .status(TxStatus::MvccReadConflict)
                    .build(),
            );
        }
        let tuned = auto_tune(&log_of(records));
        assert!(tuned.sustainable_rate > 0.0);
        assert!((tuned.sustainable_rate - tuned.commit_rate).abs() < 1e-9);
    }

    #[test]
    fn evidence_minima_scale_with_log_size() {
        let small = auto_tune(&log_of((0..50).map(|i| Rec::new(i, "a").build()).collect()));
        assert_eq!(small.thresholds.min_conflicts, 10, "floor for pilot logs");
        let big = auto_tune(&log_of(
            (0..8_000)
                .map(|i| Rec::new(i, "a").client_ts_ms(i as u64 * 3).build())
                .collect(),
        ));
        assert_eq!(big.thresholds.min_conflicts, 20);
        assert!(big.thresholds.min_anomalies >= 8);
    }

    #[test]
    fn tuned_thresholds_still_catch_the_oversaturated_default() {
        // The tuned engine must still recommend rate control for a clearly
        // oversaturated run (the paper's defaults regime).
        let cv = ControlVariables {
            key_skew: 2.0,
            transactions: 6_000,
            ..Default::default()
        };
        let bundle = workload::synthetic::generate(&cv);
        let out = bundle.run(cv.network_config());
        let log = crate::log::BlockchainLog::from_ledger(&out.ledger);
        let tuned = auto_tune(&log);
        let analysis = Analyzer::new()
            .thresholds(tuned.thresholds.clone())
            .analyze_log(log)
            .unwrap();
        assert!(
            analysis.recommends("Transaction rate control"),
            "sustainable {} rt1 {} → {:?}",
            tuned.sustainable_rate,
            tuned.thresholds.rt1,
            analysis.recommendation_names()
        );
    }

    #[test]
    fn empty_log_is_safe() {
        let tuned = auto_tune(&BlockchainLog::default());
        assert_eq!(tuned.commit_rate, 0.0);
        assert!(tuned.thresholds.rt1 >= 10.0);
    }
}

//! Rate and failure metrics (paper §4.3 (1)–(2)).

use crate::log::BlockchainLog;
use fabric_sim::ledger::TxStatus;
use serde::{Deserialize, Serialize};
use sim_core::stats::TimeBuckets;
use sim_core::time::SimDuration;

/// `Tr`, `Trdᵢ`, `TFr`, `Frdᵢ` and the per-failure-type totals.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RateMetrics {
    /// Average transaction rate `Tr` (tx/s, from client timestamps).
    pub tr: f64,
    /// Total failure rate `TFr` (failed tx/s over the same window).
    pub tfr: f64,
    /// Transactions per interval (`Trdᵢ · ins`), from the first occupied
    /// interval onward ([`first_interval`](Self::first_interval) anchors the
    /// series on the absolute timeline). Leading empty intervals are not
    /// stored, so a sliding-window analysis stays bounded by the window.
    pub tx_per_interval: Vec<u64>,
    /// Failures per interval (`Frdᵢ · ins`), aligned index-for-index with
    /// [`tx_per_interval`](Self::tx_per_interval).
    pub failures_per_interval: Vec<u64>,
    /// Absolute index (`client_ts / ins`) of `tx_per_interval[0]`.
    pub first_interval: usize,
    /// Interval size used.
    pub interval: SimDuration,
    /// Committed transactions.
    pub total: usize,
    /// Failed transactions.
    pub failed: usize,
    /// MVCC read conflicts.
    pub mvcc: usize,
    /// Phantom read conflicts.
    pub phantom: usize,
    /// Endorsement policy failures.
    pub endorsement: usize,
}

/// Running rate state: one [`observe`](RateTracker::observe) per transaction
/// keeps the interval buckets and status totals current, so a streaming
/// session derives [`RateMetrics`] in O(intervals) instead of O(log).
///
/// Every observation can be reversed with [`retract`](RateTracker::retract)
/// — the sliding-window eviction path. The client-timestamp extremes are
/// kept as a multiset rather than a running min/max so they, too, survive
/// eviction of the records that set them.
#[derive(Debug, Clone)]
pub struct RateTracker {
    tx_buckets: TimeBuckets,
    fail_buckets: TimeBuckets,
    /// Multiset of observed client timestamps (timestamp → live count).
    send_times: std::collections::BTreeMap<sim_core::time::SimTime, usize>,
    total: usize,
    failed: usize,
    mvcc: usize,
    phantom: usize,
    endorsement: usize,
}

impl RateTracker {
    /// Empty tracker with the given interval size.
    pub fn new(interval: SimDuration) -> Self {
        RateTracker {
            tx_buckets: TimeBuckets::new(interval),
            fail_buckets: TimeBuckets::new(interval),
            send_times: std::collections::BTreeMap::new(),
            total: 0,
            failed: 0,
            mvcc: 0,
            phantom: 0,
            endorsement: 0,
        }
    }

    /// Fold one transaction into the running state.
    pub fn observe(&mut self, r: &crate::log::TxRecord) {
        self.tx_buckets.record(r.client_ts);
        if r.failed() {
            self.fail_buckets.record(r.client_ts);
            self.failed += 1;
        }
        match r.status {
            TxStatus::MvccReadConflict => self.mvcc += 1,
            TxStatus::PhantomReadConflict => self.phantom += 1,
            TxStatus::EndorsementPolicyFailure => self.endorsement += 1,
            TxStatus::Success => {}
        }
        self.total += 1;
        *self.send_times.entry(r.client_ts).or_insert(0) += 1;
    }

    /// Reverse one earlier [`observe`](Self::observe) of `r` (sliding-window
    /// eviction): the state becomes exactly what observing only the retained
    /// records would have produced.
    pub fn retract(&mut self, r: &crate::log::TxRecord) {
        self.tx_buckets.unrecord(r.client_ts);
        if r.failed() {
            self.fail_buckets.unrecord(r.client_ts);
            self.failed -= 1;
        }
        match r.status {
            TxStatus::MvccReadConflict => self.mvcc -= 1,
            TxStatus::PhantomReadConflict => self.phantom -= 1,
            TxStatus::EndorsementPolicyFailure => self.endorsement -= 1,
            TxStatus::Success => {}
        }
        self.total -= 1;
        super::decrement(&mut self.send_times, &r.client_ts);
    }

    /// Earliest observed client timestamp still in the window.
    pub fn first_send(&self) -> Option<sim_core::time::SimTime> {
        self.send_times.keys().next().copied()
    }

    /// Latest observed client timestamp still in the window.
    pub fn last_send(&self) -> Option<sim_core::time::SimTime> {
        self.send_times.keys().next_back().copied()
    }

    /// Stored interval buckets (first to last occupied) — bounded by the
    /// window span under eviction.
    pub fn stored_intervals(&self) -> usize {
        self.tx_buckets.len()
    }

    /// Distinct client timestamps currently tracked.
    pub fn distinct_send_times(&self) -> usize {
        self.send_times.len()
    }

    /// Materialize the metrics from the running state.
    pub fn snapshot(&self) -> RateMetrics {
        let span = match (self.first_send(), self.last_send()) {
            (Some(f), Some(l)) if l > f => l.since(f).as_secs_f64(),
            _ => 0.0,
        };
        // Failure buckets must align index-for-index with the tx buckets:
        // both series are anchored on the absolute interval grid, and every
        // failure is also a transaction, so the failure span nests inside
        // the tx span.
        let mut failures_per_interval = vec![0u64; self.tx_buckets.len()];
        if !self.fail_buckets.is_empty() {
            let shift = self.fail_buckets.first_index() - self.tx_buckets.first_index();
            for (j, &c) in self.fail_buckets.counts().iter().enumerate() {
                failures_per_interval[shift + j] = c;
            }
        }
        RateMetrics {
            tr: if span > 0.0 {
                self.total as f64 / span
            } else {
                0.0
            },
            tfr: if span > 0.0 {
                self.failed as f64 / span
            } else {
                0.0
            },
            tx_per_interval: self.tx_buckets.counts().to_vec(),
            failures_per_interval,
            first_interval: self.tx_buckets.first_index(),
            interval: self.tx_buckets.width(),
            total: self.total,
            failed: self.failed,
            mvcc: self.mvcc,
            phantom: self.phantom,
            endorsement: self.endorsement,
        }
    }
}

impl RateMetrics {
    /// Derive from a log with the given interval size.
    pub fn derive(log: &BlockchainLog, interval: SimDuration) -> RateMetrics {
        let mut tracker = RateTracker::new(interval);
        for r in log.records() {
            tracker.observe(r);
        }
        tracker.snapshot()
    }

    /// Rate (tx/s) in stored interval `i` (counting from
    /// [`first_interval`](Self::first_interval) on the absolute grid).
    pub fn rate_in(&self, i: usize) -> f64 {
        self.tx_per_interval.get(i).copied().unwrap_or(0) as f64 / self.interval.as_secs_f64()
    }

    /// Failure rate (tx/s) in stored interval `i` (aligned with
    /// [`rate_in`](Self::rate_in)).
    pub fn failure_rate_in(&self, i: usize) -> f64 {
        self.failures_per_interval.get(i).copied().unwrap_or(0) as f64 / self.interval.as_secs_f64()
    }

    /// Number of intervals stored (first to last occupied).
    pub fn intervals(&self) -> usize {
        self.tx_per_interval.len()
    }

    /// Overall failure fraction.
    pub fn failure_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.failed as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::test_support::{log_of, Rec};

    #[test]
    fn tr_is_count_over_span() {
        // 11 txs, 100 ms apart: span = 1 s → Tr = 11.
        let log = log_of(
            (0..11)
                .map(|i| Rec::new(i, "a").client_ts_ms(i as u64 * 100).build())
                .collect(),
        );
        let m = RateMetrics::derive(&log, SimDuration::from_secs(1));
        assert!((m.tr - 11.0).abs() < 1e-9, "{}", m.tr);
        assert_eq!(m.total, 11);
    }

    #[test]
    fn interval_distribution_buckets_by_client_ts() {
        let log = log_of(vec![
            Rec::new(0, "a").client_ts_ms(100).build(),
            Rec::new(1, "a").client_ts_ms(900).build(),
            Rec::new(2, "a").client_ts_ms(1_500).build(),
        ]);
        let m = RateMetrics::derive(&log, SimDuration::from_secs(1));
        assert_eq!(m.tx_per_interval, vec![2, 1]);
        assert!((m.rate_in(0) - 2.0).abs() < 1e-9);
        assert_eq!(m.intervals(), 2);
    }

    #[test]
    fn failure_buckets_align_with_tx_buckets() {
        use fabric_sim::ledger::TxStatus;
        let log = log_of(vec![
            Rec::new(0, "a")
                .client_ts_ms(100)
                .status(TxStatus::MvccReadConflict)
                .build(),
            Rec::new(1, "a").client_ts_ms(2_500).build(),
        ]);
        let m = RateMetrics::derive(&log, SimDuration::from_secs(1));
        assert_eq!(m.failures_per_interval.len(), m.tx_per_interval.len());
        assert_eq!(m.failures_per_interval, vec![1, 0, 0]);
        assert!((m.failure_rate_in(0) - 1.0).abs() < 1e-9);
        assert_eq!(m.mvcc, 1);
        assert!((m.failure_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn status_totals() {
        use fabric_sim::ledger::TxStatus;
        let log = log_of(vec![
            Rec::new(0, "a")
                .status(TxStatus::PhantomReadConflict)
                .build(),
            Rec::new(1, "a")
                .status(TxStatus::EndorsementPolicyFailure)
                .build(),
            Rec::new(2, "a").build(),
        ]);
        let m = RateMetrics::derive(&log, SimDuration::from_secs(1));
        assert_eq!(m.phantom, 1);
        assert_eq!(m.endorsement, 1);
        assert_eq!(m.failed, 2);
    }

    #[test]
    fn retract_reverses_observe_exactly() {
        use fabric_sim::ledger::TxStatus;
        let records: Vec<_> = (0..12)
            .map(|i| {
                let mut rec = Rec::new(i, "a").client_ts_ms(i as u64 * 700);
                if i % 3 == 0 {
                    rec = rec.status(TxStatus::MvccReadConflict);
                }
                rec.build()
            })
            .collect();
        // Observe everything, retract the first 5: the snapshot must equal
        // one produced by observing only the suffix.
        let mut windowed = RateTracker::new(SimDuration::from_secs(1));
        for r in &records {
            windowed.observe(r);
        }
        for r in &records[..5] {
            windowed.retract(r);
        }
        let mut fresh = RateTracker::new(SimDuration::from_secs(1));
        for r in &records[5..] {
            fresh.observe(r);
        }
        let (a, b) = (windowed.snapshot(), fresh.snapshot());
        assert_eq!(a.tx_per_interval, b.tx_per_interval);
        assert_eq!(a.failures_per_interval, b.failures_per_interval);
        assert_eq!(a.first_interval, b.first_interval);
        assert!(a.first_interval > 0, "leading empty intervals are trimmed");
        assert_eq!(a.total, b.total);
        assert_eq!(a.failed, b.failed);
        assert_eq!(a.mvcc, b.mvcc);
        assert_eq!(a.tr, b.tr);
        assert_eq!(a.tfr, b.tfr);
    }

    #[test]
    fn empty_log_rates_are_zero() {
        let m = RateMetrics::derive(&BlockchainLog::default(), SimDuration::from_secs(1));
        assert_eq!(m.tr, 0.0);
        assert_eq!(m.tfr, 0.0);
        assert_eq!(m.intervals(), 0);
        assert_eq!(m.failure_fraction(), 0.0);
    }
}

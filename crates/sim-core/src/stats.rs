//! Measurement summaries.
//!
//! * [`Summary`] — count / mean / stddev / min / max / percentiles of a value
//!   series (latencies, block sizes);
//! * [`TimeBuckets`] — event counts bucketed into fixed-width time intervals,
//!   yielding rate series (the paper's `Trdᵢ` / `Frdᵢ` metrics use a
//!   user-configurable interval size `ins`);
//! * [`Histogram`] — fixed-width value histogram for distribution shaping.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Summary statistics of an `f64` series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Population standard deviation (0 when empty).
    pub stddev: f64,
    /// Minimum (0 when empty).
    pub min: f64,
    /// Maximum (0 when empty).
    pub max: f64,
    /// Median (0 when empty).
    pub p50: f64,
    /// 95th percentile (0 when empty).
    pub p95: f64,
    /// 99th percentile (0 when empty).
    pub p99: f64,
}

impl Summary {
    /// Summarize a series. The input need not be sorted.
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                stddev: 0.0,
                min: 0.0,
                max: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
            };
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in measurements"));
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = sorted.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        Summary {
            count: n,
            mean,
            stddev: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            p50: percentile_sorted(&sorted, 0.50),
            p95: percentile_sorted(&sorted, 0.95),
            p99: percentile_sorted(&sorted, 0.99),
        }
    }
}

/// Nearest-rank percentile of a pre-sorted series (`p` in `[0,1]`).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p.clamp(0.0, 1.0)) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Event counts bucketed into fixed-width time intervals.
///
/// Bucket `i` covers `[i·width, (i+1)·width)` on the absolute simulated
/// timeline. The paper derives the transaction-rate distribution `Trdᵢ` and
/// failure-rate distribution `Frdᵢ` this way, with a user-configurable
/// interval size (`ins`, default 1 s).
///
/// Only the span between the first and last *occupied* bucket is stored
/// (`first_index` anchors it on the absolute grid), so a sliding-window
/// consumer that [`unrecord`](TimeBuckets::unrecord)s evicted events keeps
/// the series bounded by the window instead of the total elapsed time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeBuckets {
    width: SimDuration,
    /// Absolute index of `counts[0]` (meaningless while `counts` is empty).
    start: usize,
    counts: Vec<u64>,
}

impl TimeBuckets {
    /// Empty bucket series with the given interval width (> 0).
    pub fn new(width: SimDuration) -> Self {
        assert!(width.as_micros() > 0, "bucket width must be positive");
        TimeBuckets {
            width,
            start: 0,
            counts: Vec::new(),
        }
    }

    fn index_of(&self, t: SimTime) -> usize {
        (t.as_micros() / self.width.as_micros()) as usize
    }

    /// Record one event at `t`.
    pub fn record(&mut self, t: SimTime) {
        let idx = self.index_of(t);
        if self.counts.is_empty() {
            self.start = idx;
            self.counts.push(1);
            return;
        }
        if idx < self.start {
            // An event earlier than the current span (commit order does not
            // imply client-timestamp order): grow the series at the front.
            let pad = self.start - idx;
            self.counts.splice(0..0, std::iter::repeat_n(0, pad));
            self.start = idx;
        } else if idx - self.start >= self.counts.len() {
            self.counts.resize(idx - self.start + 1, 0);
        }
        self.counts[idx - self.start] += 1;
    }

    /// Remove one previously [`record`](TimeBuckets::record)ed event at `t`
    /// (sliding-window eviction). Emptied buckets at either end of the span
    /// are trimmed, so the stored series always runs from the first to the
    /// last occupied bucket — exactly what recording only the retained
    /// events would have produced.
    ///
    /// # Panics
    /// Panics if no event is recorded in `t`'s bucket.
    pub fn unrecord(&mut self, t: SimTime) {
        let idx = self.index_of(t);
        assert!(
            idx >= self.start
                && idx - self.start < self.counts.len()
                && self.counts[idx - self.start] > 0,
            "unrecord without a matching record"
        );
        self.counts[idx - self.start] -= 1;
        while self.counts.last() == Some(&0) {
            self.counts.pop();
        }
        let lead = self.counts.iter().take_while(|&&c| c == 0).count();
        if lead > 0 {
            self.counts.drain(..lead);
            self.start += lead;
        }
        if self.counts.is_empty() {
            self.start = 0;
        }
    }

    /// Raw counts per stored bucket (`counts()[0]` is bucket
    /// [`first_index`](TimeBuckets::first_index) on the absolute grid).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Absolute grid index of the first stored bucket (0 when empty).
    pub fn first_index(&self) -> usize {
        if self.counts.is_empty() {
            0
        } else {
            self.start
        }
    }

    /// Count in stored bucket `i` (0 if beyond the recorded span).
    pub fn count(&self, i: usize) -> u64 {
        self.counts.get(i).copied().unwrap_or(0)
    }

    /// Events per second in each bucket.
    pub fn rates(&self) -> Vec<f64> {
        let w = self.width.as_secs_f64();
        self.counts.iter().map(|&c| c as f64 / w).collect()
    }

    /// Number of buckets recorded.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Bucket width.
    pub fn width(&self) -> SimDuration {
        self.width
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Fixed-width value histogram over `[0, width·bins)` with an overflow bin.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    width: f64,
    bins: Vec<u64>,
    overflow: u64,
}

impl Histogram {
    /// A histogram with `bins` buckets of the given `width`.
    pub fn new(width: f64, bins: usize) -> Self {
        assert!(width > 0.0 && bins > 0);
        Histogram {
            width,
            bins: vec![0; bins],
            overflow: 0,
        }
    }

    /// Record a non-negative value.
    pub fn record(&mut self, v: f64) {
        let idx = (v.max(0.0) / self.width) as usize;
        if idx < self.bins.len() {
            self.bins[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Per-bin counts (excluding overflow).
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Count of values beyond the last bin.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total recorded values including overflow.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.overflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_is_zeroed() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.p99, 0.0);
    }

    #[test]
    fn summary_basic_moments() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-9);
        assert!((s.stddev - 2.0).abs() < 1e-9);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.count, 8);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        let s = Summary::of(&v);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.p99, 99.0);
    }

    #[test]
    fn percentile_of_single_value() {
        assert_eq!(percentile_sorted(&[42.0], 0.0), 42.0);
        assert_eq!(percentile_sorted(&[42.0], 1.0), 42.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn buckets_assign_events_to_intervals() {
        let mut b = TimeBuckets::new(SimDuration::from_secs(1));
        b.record(SimTime::from_millis(100)); // bucket 0
        b.record(SimTime::from_millis(999)); // bucket 0
        b.record(SimTime::from_millis(1_000)); // bucket 1
        b.record(SimTime::from_millis(4_500)); // bucket 4
        assert_eq!(b.counts(), &[2, 1, 0, 0, 1]);
        assert_eq!(b.count(0), 2);
        assert_eq!(b.count(99), 0);
        assert_eq!(b.total(), 4);
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn bucket_rates_divide_by_width() {
        let mut b = TimeBuckets::new(SimDuration::from_millis(500));
        for i in 0..10 {
            b.record(SimTime::from_millis(i * 100)); // 5 events in [0,500), 5 in [500,1000)
        }
        let r = b.rates();
        assert_eq!(r.len(), 2);
        assert!((r[0] - 10.0).abs() < 1e-9, "5 events / 0.5s = 10/s");
        assert!((r[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn buckets_trim_to_the_occupied_span() {
        let mut b = TimeBuckets::new(SimDuration::from_secs(1));
        b.record(SimTime::from_secs(5));
        b.record(SimTime::from_secs(7));
        // Leading empty intervals are never stored.
        assert_eq!(b.first_index(), 5);
        assert_eq!(b.counts(), &[1, 0, 1]);
        // Growing at the front works too (late-arriving early timestamp).
        b.record(SimTime::from_secs(3));
        assert_eq!(b.first_index(), 3);
        assert_eq!(b.counts(), &[1, 0, 1, 0, 1]);
    }

    #[test]
    fn unrecord_reverses_record_and_trims() {
        let mut b = TimeBuckets::new(SimDuration::from_secs(1));
        for s in [2u64, 2, 4, 9] {
            b.record(SimTime::from_secs(s));
        }
        b.unrecord(SimTime::from_secs(2));
        assert_eq!(b.first_index(), 2);
        assert_eq!(b.counts(), &[1, 0, 1, 0, 0, 0, 0, 1]);
        // Evicting the whole leading bucket advances the span.
        b.unrecord(SimTime::from_secs(2));
        assert_eq!(b.first_index(), 4);
        assert_eq!(b.counts(), &[1, 0, 0, 0, 0, 1]);
        // Evicting the newest event trims the tail.
        b.unrecord(SimTime::from_secs(9));
        assert_eq!(b.counts(), &[1]);
        assert_eq!(b.total(), 1);
        b.unrecord(SimTime::from_secs(4));
        assert!(b.is_empty());
        assert_eq!(b.first_index(), 0);
        // The emptied series behaves like a fresh one.
        b.record(SimTime::from_secs(1));
        assert_eq!(b.first_index(), 1);
        assert_eq!(b.counts(), &[1]);
    }

    #[test]
    #[should_panic(expected = "unrecord without a matching record")]
    fn unrecord_of_unrecorded_bucket_panics() {
        let mut b = TimeBuckets::new(SimDuration::from_secs(1));
        b.record(SimTime::from_secs(1));
        b.unrecord(SimTime::from_secs(2));
    }

    #[test]
    fn histogram_counts_and_overflow() {
        let mut h = Histogram::new(1.0, 3);
        for v in [0.1, 0.9, 1.5, 2.9, 3.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.bins(), &[2, 1, 1]);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn histogram_clamps_negative_values_to_zero_bin() {
        let mut h = Histogram::new(1.0, 2);
        h.record(-5.0);
        assert_eq!(h.bins(), &[1, 0]);
    }
}

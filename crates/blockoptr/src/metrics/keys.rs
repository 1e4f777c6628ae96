//! Key frequency and significance (paper §4.3 (6)).
//!
//! * `Kfreq(k)` — the number of **failed** transactions that access key `k`;
//! * `Ksig(k)` — the number of distinct activities accessing `k`.
//!
//! Hotkeys `HK` are keys whose failure frequency exceeds the configurable
//! share `Kt` of all failed accesses.
//!
//! Implementation note (documented deviation): `Ksig` is computed over the
//! *failed* transactions. The paper's prose defines it over all accesses,
//! but its reported recommendations (DV → data-model alteration although
//! `seeResults` also scans party keys; DRM → partitioning) are reproduced
//! exactly when significance counts the activities that actually *fail* on
//! the key — failures are what the data-level redesign must eliminate.

use crate::log::BlockchainLog;
use crate::metrics::MetricConfig;
use fabric_sim::types::Key;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Hotkey-candidate index: keys bucketed by failure count, kept in sync
/// with [`KeyMetrics::kfreq`] by one O(log n) move per failed access
/// ([`KeyMetrics::observe_failure_indexed`]). Selecting the hotkey set
/// walks the buckets from the highest count down and stops at the
/// threshold. Sessions do not keep one: moving a key between string-keyed
/// buckets on every failed access costs more than the one scan of the
/// window's failed keys that [`KeyMetrics::select_hotkeys`] makes per
/// snapshot. It stays for the benchmark's `metrics.keys.observe` probe.
#[derive(Debug, Clone, Default)]
pub struct HotkeyIndex {
    by_count: Arc<BTreeMap<usize, BTreeSet<String>>>,
}

/// Take `key`'s owned string out of the bucket at `count`, dropping the
/// bucket once it empties.
fn take(index: &mut BTreeMap<usize, BTreeSet<String>>, count: usize, key: &str) -> Option<String> {
    let bucket = index.get_mut(&count)?;
    let owned = bucket.take(key);
    if bucket.is_empty() {
        index.remove(&count);
    }
    owned
}

impl HotkeyIndex {
    /// Record that `key`'s failure count moved from `old_count` to
    /// `old_count + 1`. The key's owned string moves between buckets, so
    /// only a key seen for the first time allocates.
    pub fn observe(&mut self, key: &str, old_count: usize) {
        let index = Arc::make_mut(&mut self.by_count);
        let owned = take(index, old_count, key).unwrap_or_else(|| key.to_string());
        index.entry(old_count + 1).or_default().insert(owned);
    }

    /// The hotkey set `HK` under `config`, ordered by failure count
    /// descending then key ascending — the same selection (and order) as
    /// [`KeyMetrics::select_hotkeys`], at O(k + log n).
    pub fn select(&self, total_failures: usize, config: &MetricConfig) -> Vec<String> {
        if total_failures < config.min_failures_for_hotkeys {
            return Vec::new();
        }
        let threshold = ((config.hotkey_share * total_failures as f64).ceil() as usize).max(1);
        let mut hot = Vec::new();
        for (_, bucket) in self.by_count.range(threshold..).rev() {
            hot.extend(bucket.iter().cloned());
        }
        hot
    }
}

/// Per-key failure statistics and the derived hotkey set.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KeyMetrics {
    /// `Kfreq`: failed transactions accessing each key (only keys with at
    /// least one failed access are tracked). `Arc`-shared so streaming
    /// snapshots cost O(1) here instead of copying per-key counters.
    pub kfreq: std::sync::Arc<BTreeMap<String, usize>>,
    /// Activities of failed transactions accessing each key, with counts.
    pub failing_activity_counts: std::sync::Arc<BTreeMap<String, BTreeMap<String, usize>>>,
    /// The hotkey set `HK`, most frequent first.
    pub hotkeys: Vec<String>,
    /// Total failed transactions (the hotkey threshold base).
    pub total_failures: usize,
}

impl KeyMetrics {
    /// Derive from a log.
    pub fn derive(log: &BlockchainLog, config: &MetricConfig) -> KeyMetrics {
        let mut m = KeyMetrics::default();
        for r in log.failures() {
            m.observe_failure(r);
        }
        m.select_hotkeys(config);
        m
    }

    /// Fold one **failed** transaction into the counters (streaming update).
    /// Call [`select_hotkeys`](Self::select_hotkeys) before reading
    /// [`hotkeys`](Self::hotkeys).
    pub fn observe_failure(&mut self, r: &crate::log::TxRecord) {
        self.observe_failed_keys(&r.activity, &r.rwset.all_keys());
    }

    /// Fold one **failed** transaction into the counters while keeping a
    /// [`HotkeyIndex`] in lockstep.
    pub fn observe_failure_indexed(&mut self, r: &crate::log::TxRecord, index: &mut HotkeyIndex) {
        self.fold_failure(&r.activity, &r.rwset.all_keys(), |key, old| {
            index.observe(key, old)
        });
    }

    /// Fold one failed transaction of `activity` that accessed `keys`, its
    /// distinct keys as [`ReadWriteSet::all_keys`] lists them
    /// (the session fold, which lists each record's keys once).
    ///
    /// [`ReadWriteSet::all_keys`]: fabric_sim::rwset::ReadWriteSet::all_keys
    pub(crate) fn observe_failed_keys(&mut self, activity: &str, keys: &[Key]) {
        self.fold_failure(activity, keys, |_, _| {});
    }

    /// Count one failed transaction against each of its distinct `keys`;
    /// `moved(key, old)` sees each key's count before the bump. Counters
    /// are bumped by borrowed key, so only a key or (key, activity) pair
    /// seen for the first time allocates.
    fn fold_failure(&mut self, activity: &str, keys: &[Key], mut moved: impl FnMut(&str, usize)) {
        self.total_failures += 1;
        let kfreq = Arc::make_mut(&mut self.kfreq);
        let by_key = Arc::make_mut(&mut self.failing_activity_counts);
        for key in keys {
            super::update(kfreq, &**key, |n| {
                moved(key, *n);
                *n += 1;
            });
            super::update(by_key, &**key, |acts| super::increment(acts, activity));
        }
    }

    /// Reverse one earlier [`observe_failed_keys`](Self::observe_failed_keys)
    /// with the same arguments (sliding-window eviction). Counters that
    /// reach zero are removed, so the maps shrink back to exactly what
    /// observing only the retained failures would have built. Allocates
    /// nothing.
    pub(crate) fn retract_failed_keys(&mut self, activity: &str, keys: &[Key]) {
        self.total_failures -= 1;
        let kfreq = Arc::make_mut(&mut self.kfreq);
        let by_key = Arc::make_mut(&mut self.failing_activity_counts);
        for key in keys {
            super::decrement(kfreq, &**key);
            let acts = by_key
                .get_mut(&**key)
                .expect("retracted key has recorded activities");
            super::decrement(acts, activity);
            if acts.is_empty() {
                by_key.remove(&**key);
            }
        }
    }

    /// Re-derive the hotkey set `HK` from the current counters.
    pub fn select_hotkeys(&mut self, config: &MetricConfig) {
        self.hotkeys.clear();
        if self.total_failures >= config.min_failures_for_hotkeys {
            let threshold = (config.hotkey_share * self.total_failures as f64).ceil() as usize;
            let mut hot: Vec<(String, usize)> = self
                .kfreq
                .iter()
                .filter(|(_, &c)| c >= threshold.max(1))
                .map(|(k, &c)| (k.clone(), c))
                .collect();
            hot.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            self.hotkeys = hot.into_iter().map(|(k, _)| k).collect();
        }
    }

    /// Minimum failed accesses before an activity counts toward `Ksig`
    /// (a single failed one-off query must not reshape the data-level
    /// diagnosis).
    pub const KSIG_MIN_SUPPORT: usize = 3;

    /// `Ksig` of a key: distinct activities with at least
    /// [`Self::KSIG_MIN_SUPPORT`] failed accesses to it.
    pub fn ksig(&self, key: &str) -> usize {
        self.significant_activities(key).len()
    }

    /// The activities counting toward `Ksig(key)`.
    pub fn significant_activities(&self, key: &str) -> Vec<String> {
        self.failing_activity_counts
            .get(key)
            .map(|m| {
                m.iter()
                    .filter(|(_, &c)| c >= Self::KSIG_MIN_SUPPORT)
                    .map(|(a, _)| a.clone())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// `Kfreq` of a key.
    pub fn kfreq_of(&self, key: &str) -> usize {
        self.kfreq.get(key).copied().unwrap_or(0)
    }

    /// Whether any hotkeys were detected.
    pub fn has_hotkeys(&self) -> bool {
        !self.hotkeys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::test_support::{log_of, Rec};
    use fabric_sim::ledger::TxStatus;

    fn config() -> MetricConfig {
        MetricConfig {
            min_failures_for_hotkeys: 2,
            ..Default::default()
        }
    }

    #[test]
    fn kfreq_counts_failed_accesses_only() {
        let log = log_of(vec![
            Rec::new(0, "play")
                .reads(&["drm/M1"])
                .writes(&["drm/M1"])
                .status(TxStatus::MvccReadConflict)
                .build(),
            Rec::new(1, "play")
                .reads(&["drm/M1"])
                .writes(&["drm/M1"])
                .build(), // success: not counted
            Rec::new(2, "view")
                .reads(&["drm/M1"])
                .status(TxStatus::MvccReadConflict)
                .build(),
        ]);
        let m = KeyMetrics::derive(&log, &config());
        assert_eq!(m.kfreq_of("drm/M1"), 2);
        assert_eq!(m.total_failures, 2);
    }

    #[test]
    fn ksig_counts_distinct_failing_activities_with_support() {
        // play fails 3× (significant), view only once (below support).
        let mut records = Vec::new();
        for i in 0..3 {
            records.push(
                Rec::new(i, "play")
                    .reads(&["drm/M1"])
                    .status(TxStatus::MvccReadConflict)
                    .build(),
            );
        }
        records.push(
            Rec::new(3, "view")
                .reads(&["drm/M1"])
                .status(TxStatus::MvccReadConflict)
                .build(),
        );
        let m = KeyMetrics::derive(&log_of(records), &config());
        assert_eq!(m.ksig("drm/M1"), 1, "view lacks support");
        assert_eq!(m.significant_activities("drm/M1"), vec!["play"]);
        assert_eq!(m.ksig("unknown"), 0);

        // Two more view failures push it over the support threshold.
        let mut records2 = Vec::new();
        for i in 0..3 {
            records2.push(
                Rec::new(i, "play")
                    .reads(&["drm/M1"])
                    .status(TxStatus::MvccReadConflict)
                    .build(),
            );
        }
        for i in 3..6 {
            records2.push(
                Rec::new(i, "view")
                    .reads(&["drm/M1"])
                    .status(TxStatus::MvccReadConflict)
                    .build(),
            );
        }
        let m2 = KeyMetrics::derive(&log_of(records2), &config());
        assert_eq!(m2.ksig("drm/M1"), 2);
    }

    #[test]
    fn hotkeys_require_share_threshold() {
        // 10 failures on hot, 1 on cold: Kt = 0.05 → threshold ~1... use 0.3.
        let mut records = Vec::new();
        for i in 0..10 {
            records.push(
                Rec::new(i, "a")
                    .reads(&["hot"])
                    .status(TxStatus::MvccReadConflict)
                    .build(),
            );
        }
        records.push(
            Rec::new(10, "a")
                .reads(&["cold"])
                .status(TxStatus::MvccReadConflict)
                .build(),
        );
        let m = KeyMetrics::derive(
            &log_of(records),
            &MetricConfig {
                hotkey_share: 0.3,
                min_failures_for_hotkeys: 2,
                ..Default::default()
            },
        );
        assert_eq!(m.hotkeys, vec!["hot"]);
        assert!(m.has_hotkeys());
    }

    #[test]
    fn too_few_failures_no_hotkeys() {
        let log = log_of(vec![Rec::new(0, "a")
            .reads(&["k"])
            .status(TxStatus::MvccReadConflict)
            .build()]);
        let m = KeyMetrics::derive(
            &log,
            &MetricConfig {
                min_failures_for_hotkeys: 20,
                ..Default::default()
            },
        );
        assert!(!m.has_hotkeys());
        assert_eq!(m.total_failures, 1);
    }

    /// Fold a record stream through both paths and compare: the batch scan
    /// and the incremental index must select identical hotkey sets (same
    /// keys, same order) at every prefix.
    #[test]
    fn incremental_index_matches_batch_selection() {
        let configs = [
            config(),
            MetricConfig {
                hotkey_share: 0.3,
                min_failures_for_hotkeys: 2,
                ..Default::default()
            },
            MetricConfig {
                min_failures_for_hotkeys: 50,
                ..Default::default()
            },
        ];
        // A skewed stream over a handful of keys, some read+write overlap.
        let keys = ["a", "b", "c", "d", "e"];
        let mut records = Vec::new();
        for i in 0..120usize {
            let k = keys[(i * i + i / 3) % keys.len()];
            let k2 = keys[(i / 2) % keys.len()];
            records.push(
                Rec::new(i, "act")
                    .reads(&[k])
                    .writes(&[k2])
                    .status(TxStatus::MvccReadConflict)
                    .build(),
            );
        }
        for cfg in &configs {
            let mut incremental = KeyMetrics::default();
            let mut index = HotkeyIndex::default();
            let mut batch = KeyMetrics::default();
            for (i, r) in records.iter().enumerate() {
                incremental.observe_failure_indexed(r, &mut index);
                batch.observe_failure(r);
                if i % 17 == 0 || i + 1 == records.len() {
                    batch.select_hotkeys(cfg);
                    let from_index = index.select(incremental.total_failures, cfg);
                    assert_eq!(from_index, batch.hotkeys, "prefix {i}, {cfg:?}");
                }
            }
        }
    }

    /// Observing a stream and then retracting a prefix must leave counters
    /// and selected hotkeys identical to observing only the suffix.
    #[test]
    fn retraction_matches_fresh_suffix() {
        let keys = ["a", "b", "c", "d"];
        let records: Vec<_> = (0..60usize)
            .map(|i| {
                Rec::new(i, if i % 2 == 0 { "act" } else { "other" })
                    .reads(&[keys[(i * 7) % keys.len()]])
                    .writes(&[keys[(i / 5) % keys.len()]])
                    .status(TxStatus::MvccReadConflict)
                    .build()
            })
            .collect();
        let lists: Vec<_> = records.iter().map(|r| r.rwset.all_keys()).collect();
        let cfg = config();
        let mut windowed = KeyMetrics::default();
        for (r, keys) in records.iter().zip(&lists) {
            windowed.observe_failed_keys(&r.activity, keys);
        }
        for (r, keys) in records.iter().zip(&lists).take(35) {
            windowed.retract_failed_keys(&r.activity, keys);
        }
        let mut fresh = KeyMetrics::default();
        for r in &records[35..] {
            fresh.observe_failure(r);
        }
        assert_eq!(windowed.kfreq, fresh.kfreq);
        assert_eq!(
            windowed.failing_activity_counts,
            fresh.failing_activity_counts
        );
        assert_eq!(windowed.total_failures, fresh.total_failures);
        windowed.select_hotkeys(&cfg);
        fresh.select_hotkeys(&cfg);
        assert_eq!(windowed.hotkeys, fresh.hotkeys);
        // Retracting everything empties the state completely.
        for (r, keys) in records.iter().zip(&lists).skip(35) {
            windowed.retract_failed_keys(&r.activity, keys);
        }
        assert!(windowed.kfreq.is_empty());
        assert!(windowed.failing_activity_counts.is_empty());
        assert_eq!(windowed.total_failures, 0);
        windowed.select_hotkeys(&cfg);
        assert!(windowed.hotkeys.is_empty());
    }

    #[test]
    fn hotkeys_sorted_by_frequency() {
        let mut records = Vec::new();
        for i in 0..6 {
            records.push(
                Rec::new(i, "a")
                    .reads(&["k1"])
                    .status(TxStatus::MvccReadConflict)
                    .build(),
            );
        }
        for i in 6..10 {
            records.push(
                Rec::new(i, "a")
                    .reads(&["k2"])
                    .status(TxStatus::MvccReadConflict)
                    .build(),
            );
        }
        let m = KeyMetrics::derive(&log_of(records), &config());
        assert_eq!(m.hotkeys, vec!["k1", "k2"]);
    }
}

//! Transaction correlations (paper §4.3 (7)–(8)).
//!
//! * **Data-value correlation** `corDV`: a failed transaction is correlated
//!   with the transaction whose committed write invalidated its read — found
//!   by tracking the most recent writer of every key in commit order.
//! * **Proximity correlation** `corP`: the commit-order distance between the
//!   two (compared against `Bsizeavg` to split intra- vs inter-block
//!   conflicts).
//! * **Activity proximity** `corPA`: distances between consecutive
//!   transactions of the same activity; adjacent failed increment-writes are
//!   the *delta write* candidates.

use crate::log::BlockchainLog;
use fabric_sim::ledger::TxStatus;
use fabric_sim::types::Value;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// One identified conflict: a failed reader and the writer that invalidated
/// its read.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConflictPair {
    /// Commit index of the failed transaction.
    pub failed_index: usize,
    /// Activity of the failed transaction.
    pub failed_activity: String,
    /// Commit index of the conflicting (committed) writer.
    pub writer_index: usize,
    /// Activity of the writer.
    pub writer_activity: String,
    /// The contended key.
    pub key: String,
    /// Commit-order distance (`corP`).
    pub distance: usize,
    /// Whether the two transactions' write sets are disjoint — the paper's
    /// reorderability condition (`WS(x) ∩ WS(y) = ∅`).
    pub reorderable: bool,
}

/// Aggregated correlation metrics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CorrelationMetrics {
    /// Every identified conflict pair. `Arc`-shared so that streaming
    /// snapshots cost O(1) here rather than re-copying the history.
    pub conflicts: std::sync::Arc<Vec<ConflictPair>>,
    /// Read-conflict failures with an identified writer.
    pub identified: usize,
    /// Read-conflict failures in total (MVCC + phantom).
    pub read_conflicts: usize,
    /// Conflicts whose pair is reorderable.
    pub reorderable: usize,
    /// Conflict counts per (failed activity, writer activity).
    pub pair_counts: BTreeMap<(String, String), usize>,
    /// Reorderable-conflict counts per (failed activity, writer activity).
    pub reorderable_pairs: BTreeMap<(String, String), usize>,
    /// Per failed activity: (total conflicts, reorderable conflicts).
    pub activity_conflicts: BTreeMap<String, (usize, usize)>,
    /// Mean commit-order distance of identified conflicts (`corP`).
    pub mean_distance: f64,
    /// Activities with adjacent failed single-key increment writes — the
    /// delta-write candidates, with occurrence counts.
    pub delta_candidates: BTreeMap<String, usize>,
}

/// Running correlation state: the commit-order scan of
/// [`CorrelationMetrics::derive`] split into a per-record
/// [`observe`](CorrelationTracker::observe) step, so a streaming session
/// pays O(1) amortized per new transaction instead of rescanning the log.
///
/// The tracker needs the live record slice on each call (writer lookups
/// resolve positions recorded earlier). Positions are *absolute stream
/// positions*: under sliding-window eviction ([`evict`](Self::evict)) the
/// slice's front is dropped and `base` records how many positions are gone,
/// so stored positions stay valid without rewriting them.
#[derive(Debug, Clone, Default)]
pub struct CorrelationTracker {
    metrics: CorrelationMetrics,
    /// Absolute stream position of `records[0]` (0 until eviction starts).
    base: usize,
    /// Most recent committed writer per key (absolute record position).
    last_writer: HashMap<String, usize>,
    /// Previous transaction (any status) per activity, for corPA.
    prev_of_activity: HashMap<String, usize>,
    /// For each counted delta-write candidate: the predecessor's absolute
    /// position → activity. A predecessor is the earlier of the pair, so
    /// its eviction is the moment the contribution leaves the window.
    delta_deps: BTreeMap<usize, String>,
    /// Sum of the identified conflicts' commit distances. Wider than a
    /// distance, so commit indices near `usize::MAX` in a user log cannot
    /// overflow it.
    distance_sum: u128,
}

impl CorrelationTracker {
    /// Fold the record at absolute position `pos` into the running state.
    /// `records` is the live window (`records[0]` is absolute position
    /// `base`); `pos` must advance one record at a time.
    pub fn observe(&mut self, records: &[crate::log::TxRecord], pos: usize) {
        let base = self.base;
        let m = &mut self.metrics;
        let r = &records[pos - base];
        if r.status.is_read_conflict() {
            m.read_conflicts += 1;
            // Find the most recent writer of any key this tx read.
            let mut best: Option<(usize, &str)> = None;
            for read in &r.rwset.reads {
                if let Some(&wpos) = self.last_writer.get(read.key.as_str()) {
                    if best.is_none_or(|(b, _)| wpos > b) {
                        best = Some((wpos, read.key.as_str()));
                    }
                }
            }
            for rr in &r.rwset.range_reads {
                for (key, _) in &rr.observed {
                    if let Some(&wpos) = self.last_writer.get(key.as_str()) {
                        if best.is_none_or(|(b, _)| wpos > b) {
                            best = Some((wpos, key.as_str()));
                        }
                    }
                }
            }
            if let Some((wpos, key)) = best {
                let writer = &records[wpos - base];
                let write_keys = r.rwset.write_keys();
                let writer_keys = writer.rwset.write_keys();
                let reorderable = write_keys.is_disjoint(&writer_keys);
                let distance = r.commit_index - writer.commit_index;
                self.distance_sum += distance as u128;
                m.identified += 1;
                let per_activity = m.activity_conflicts.entry(r.activity.clone()).or_default();
                per_activity.0 += 1;
                if reorderable {
                    m.reorderable += 1;
                    per_activity.1 += 1;
                    *m.reorderable_pairs
                        .entry((r.activity.clone(), writer.activity.clone()))
                        .or_insert(0) += 1;
                }
                *m.pair_counts
                    .entry((r.activity.clone(), writer.activity.clone()))
                    .or_insert(0) += 1;
                std::sync::Arc::make_mut(&mut m.conflicts).push(ConflictPair {
                    failed_index: r.commit_index,
                    failed_activity: r.activity.clone(),
                    writer_index: writer.commit_index,
                    writer_activity: writer.activity.clone(),
                    key: key.to_string(),
                    distance,
                    reorderable,
                });
            }
        }

        // Delta-write candidates: this tx and the previous tx of the
        // same activity are adjacent in the activity's own sequence
        // (corPA(x, y) == 1); the earlier failed with an MVCC conflict;
        // both write a single key; the written values differ by one.
        if let Some(&ppos) = self.prev_of_activity.get(r.activity.as_str()) {
            let prev = &records[ppos - base];
            if prev.status == TxStatus::MvccReadConflict
                && prev.rwset.writes.len() == 1
                && r.rwset.writes.len() == 1
                && prev.rwset.writes[0].key == r.rwset.writes[0].key
            {
                let delta = value_delta(
                    prev.rwset.writes[0].value.as_ref(),
                    r.rwset.writes[0].value.as_ref(),
                );
                if matches!(delta, Some(d) if d.abs() == 1) {
                    *m.delta_candidates.entry(r.activity.clone()).or_insert(0) += 1;
                    self.delta_deps.insert(ppos, r.activity.clone());
                }
            }
        }
        // Avoid re-allocating the activity key on every record.
        if let Some(prev) = self.prev_of_activity.get_mut(r.activity.as_str()) {
            *prev = pos;
        } else {
            self.prev_of_activity.insert(r.activity.clone(), pos);
        }

        // Only *successful* writes update the committed state.
        if r.status.is_success() {
            for w in &r.rwset.writes {
                // Avoid re-allocating the key on every repeat write.
                if let Some(entry) = self.last_writer.get_mut(w.key.as_str()) {
                    *entry = pos;
                } else {
                    self.last_writer.insert(w.key.clone(), pos);
                }
            }
        }
    }

    /// Fold another tracker into this one (sharded-ingest merge), where
    /// `other` observed the records that *immediately follow* self's stream.
    ///
    /// `self_records` is self's live window (`self_records[0]` at absolute
    /// position `self.base`), `other_records` is other's live window, and
    /// `shift` is the offset added to other's absolute positions so both
    /// shards live on one global stream (the caller passes its total
    /// ingested count: evicted + retained).
    ///
    /// Most state sums directly, but two correlations cross the shard
    /// boundary and are resolved by one O(|other|) scan:
    ///
    /// * a read-conflict in `other` that found no writer *inside* other may
    ///   have been invalidated by a writer in self — the serial scan would
    ///   consult the last-writer table carried over from self's records, so
    ///   the merge re-runs exactly that lookup against `self.last_writer`
    ///   (other's own writers always outrank self's, so locally identified
    ///   pairs are already correct);
    /// * other's *first* record of an activity has its corPA predecessor in
    ///   self (`prev_of_activity`), so the delta-write-candidate predicate
    ///   is applied across the boundary too.
    ///
    /// The result is byte-equal to a single tracker observing both record
    /// sets in order.
    pub fn merge(
        &mut self,
        other: &CorrelationTracker,
        self_records: &[crate::log::TxRecord],
        other_records: &[crate::log::TxRecord],
        shift: usize,
    ) {
        // One pass over other's records, in order: replay other's conflict
        // list (ordered by reader commit index) and splice in the pairs the
        // shard boundary hid, so the merged list keeps serial order.
        let mut tail: Vec<ConflictPair> = Vec::with_capacity(other.metrics.conflicts.len());
        let mut boundary_deltas: Vec<(usize, String)> = Vec::new();
        let mut other_conflicts = other.metrics.conflicts.iter().peekable();
        let mut seen_activities: std::collections::BTreeSet<&str> =
            std::collections::BTreeSet::new();
        let m = &mut self.metrics;
        for r in other_records {
            if r.status.is_read_conflict() {
                if other_conflicts
                    .peek()
                    .is_some_and(|c| c.failed_index == r.commit_index)
                {
                    // Identified inside other: already byte-correct (any
                    // self-side writer is older than the one other found).
                    tail.push(
                        other_conflicts
                            .next()
                            .expect("peeked conflict exists")
                            .clone(),
                    );
                } else {
                    // Unidentified inside other: no writer of any read key
                    // precedes `r` within other, so the serial scan would
                    // have matched self's most recent writer — re-run that
                    // exact lookup.
                    let mut best: Option<(usize, &str)> = None;
                    for read in &r.rwset.reads {
                        if let Some(&wpos) = self.last_writer.get(read.key.as_str()) {
                            if best.is_none_or(|(b, _)| wpos > b) {
                                best = Some((wpos, read.key.as_str()));
                            }
                        }
                    }
                    for rr in &r.rwset.range_reads {
                        for (key, _) in &rr.observed {
                            if let Some(&wpos) = self.last_writer.get(key.as_str()) {
                                if best.is_none_or(|(b, _)| wpos > b) {
                                    best = Some((wpos, key.as_str()));
                                }
                            }
                        }
                    }
                    if let Some((wpos, key)) = best {
                        let writer = &self_records[wpos - self.base];
                        let reorderable =
                            r.rwset.write_keys().is_disjoint(&writer.rwset.write_keys());
                        let distance = r.commit_index - writer.commit_index;
                        self.distance_sum += distance as u128;
                        m.identified += 1;
                        let per_activity =
                            m.activity_conflicts.entry(r.activity.clone()).or_default();
                        per_activity.0 += 1;
                        if reorderable {
                            m.reorderable += 1;
                            per_activity.1 += 1;
                            *m.reorderable_pairs
                                .entry((r.activity.clone(), writer.activity.clone()))
                                .or_insert(0) += 1;
                        }
                        *m.pair_counts
                            .entry((r.activity.clone(), writer.activity.clone()))
                            .or_insert(0) += 1;
                        tail.push(ConflictPair {
                            failed_index: r.commit_index,
                            failed_activity: r.activity.clone(),
                            writer_index: writer.commit_index,
                            writer_activity: writer.activity.clone(),
                            key: key.to_string(),
                            distance,
                            reorderable,
                        });
                    }
                }
            }
            // Cross-boundary corPA: other's first record of an activity has
            // its predecessor in self; later records were paired inside
            // other by its own scan.
            if seen_activities.insert(r.activity.as_str()) {
                if let Some(&ppos) = self.prev_of_activity.get(r.activity.as_str()) {
                    let prev = &self_records[ppos - self.base];
                    if prev.status == TxStatus::MvccReadConflict
                        && prev.rwset.writes.len() == 1
                        && r.rwset.writes.len() == 1
                        && prev.rwset.writes[0].key == r.rwset.writes[0].key
                    {
                        let delta = value_delta(
                            prev.rwset.writes[0].value.as_ref(),
                            r.rwset.writes[0].value.as_ref(),
                        );
                        if matches!(delta, Some(d) if d.abs() == 1) {
                            *m.delta_candidates.entry(r.activity.clone()).or_insert(0) += 1;
                            boundary_deltas.push((ppos, r.activity.clone()));
                        }
                    }
                }
            }
        }

        // Aggregate sums: everything other counted internally carries over
        // verbatim (commit indices are global already).
        let om = &other.metrics;
        m.read_conflicts += om.read_conflicts;
        m.identified += om.identified;
        m.reorderable += om.reorderable;
        self.distance_sum += other.distance_sum;
        for (pair, &n) in &om.pair_counts {
            *m.pair_counts.entry(pair.clone()).or_insert(0) += n;
        }
        for (pair, &n) in &om.reorderable_pairs {
            *m.reorderable_pairs.entry(pair.clone()).or_insert(0) += n;
        }
        for (activity, &(total, reord)) in &om.activity_conflicts {
            let entry = m.activity_conflicts.entry(activity.clone()).or_default();
            entry.0 += total;
            entry.1 += reord;
        }
        for (activity, &n) in &om.delta_candidates {
            *m.delta_candidates.entry(activity.clone()).or_insert(0) += n;
        }
        std::sync::Arc::make_mut(&mut m.conflicts).extend(tail);

        // Positional state: other's entries are later in the stream, so
        // they win; shift rebases them onto the global position axis.
        // detlint: allow(hash-iter, reason = "key-wise overwrite into a map; final content is order-independent")
        for (key, &pos) in &other.last_writer {
            if let Some(entry) = self.last_writer.get_mut(key.as_str()) {
                *entry = pos + shift;
            } else {
                self.last_writer.insert(key.clone(), pos + shift);
            }
        }
        // detlint: allow(hash-iter, reason = "key-wise overwrite into a map; final content is order-independent")
        for (activity, &pos) in &other.prev_of_activity {
            if let Some(entry) = self.prev_of_activity.get_mut(activity.as_str()) {
                *entry = pos + shift;
            } else {
                self.prev_of_activity.insert(activity.clone(), pos + shift);
            }
        }
        for (&ppos, activity) in &other.delta_deps {
            self.delta_deps.insert(ppos + shift, activity.clone());
        }
        for (ppos, activity) in boundary_deltas {
            self.delta_deps.insert(ppos, activity);
        }
    }

    /// Rebase every stored absolute position by `delta` (merge adoption
    /// path: a later shard's state becomes the merged state wholesale, and
    /// its shard-local positions move onto the global stream axis).
    pub fn shift_positions(&mut self, delta: usize) {
        self.base += delta;
        // detlint: allow(hash-iter, reason = "in-place value rewrite; no cross-entry effects")
        for pos in self.last_writer.values_mut() {
            *pos += delta;
        }
        // detlint: allow(hash-iter, reason = "in-place value rewrite; no cross-entry effects")
        for pos in self.prev_of_activity.values_mut() {
            *pos += delta;
        }
        let shifted: BTreeMap<usize, String> = std::mem::take(&mut self.delta_deps)
            .into_iter()
            .map(|(pos, activity)| (pos + delta, activity))
            .collect();
        self.delta_deps = shifted;
    }

    /// Evict the window's oldest `evicted` records (sliding-window mode):
    /// the state becomes exactly what scanning only the retained suffix
    /// would have produced.
    ///
    /// `cutoff_commit` is the first retained record's commit index. A
    /// conflict pair leaves the metrics when its *writer* falls below the
    /// cutoff: the writer always precedes the reader, and every other
    /// candidate writer the reader could have matched is older still — so a
    /// fresh scan of the suffix either finds the identical pair or none at
    /// all, never a different one.
    pub fn evict(&mut self, evicted: &[crate::log::TxRecord], cutoff_commit: usize) {
        self.base += evicted.len();
        let base = self.base;
        let m = &mut self.metrics;
        for r in evicted {
            if r.status.is_read_conflict() {
                m.read_conflicts -= 1;
            }
        }
        let conflicts = std::sync::Arc::make_mut(&mut m.conflicts);
        let kept = std::mem::take(conflicts);
        for c in kept {
            if c.writer_index >= cutoff_commit {
                conflicts.push(c);
                continue;
            }
            m.identified -= 1;
            self.distance_sum -= c.distance as u128;
            let pair = (c.failed_activity.clone(), c.writer_activity.clone());
            crate::metrics::decrement(&mut m.pair_counts, &pair);
            let per_activity = m
                .activity_conflicts
                .get_mut(&c.failed_activity)
                .expect("evicted conflict was counted");
            per_activity.0 -= 1;
            if c.reorderable {
                m.reorderable -= 1;
                per_activity.1 -= 1;
                crate::metrics::decrement(&mut m.reorderable_pairs, &pair);
            }
            if *per_activity == (0, 0) {
                m.activity_conflicts.remove(&c.failed_activity);
            }
        }
        // Positional state referring to evicted records can never match
        // again (any rewrite overwrites the entry), so purge it — both for
        // correctness (a fresh suffix scan has no such entries) and to keep
        // the maps bounded by the window.
        // detlint: allow(hash-iter, reason = "retain predicate is per-entry and order-independent; no effect outside the entry")
        self.last_writer.retain(|_, pos| *pos >= base);
        // detlint: allow(hash-iter, reason = "retain predicate is per-entry and order-independent; no effect outside the entry")
        self.prev_of_activity.retain(|_, pos| *pos >= base);
        let live = self.delta_deps.split_off(&base);
        for activity in std::mem::replace(&mut self.delta_deps, live).into_values() {
            crate::metrics::decrement(&mut m.delta_candidates, &activity);
        }
    }

    /// Sizes of the tracker's internal state, for memory-boundedness
    /// assertions: `(conflict pairs, last-writer entries,
    /// previous-of-activity entries, delta dependencies)`.
    pub fn footprint(&self) -> (usize, usize, usize, usize) {
        (
            self.metrics.conflicts.len(),
            self.last_writer.len(),
            self.prev_of_activity.len(),
            self.delta_deps.len(),
        )
    }

    /// Materialize the metrics from the running state.
    pub fn snapshot(&self) -> CorrelationMetrics {
        let mut m = self.metrics.clone();
        m.mean_distance = if m.identified == 0 {
            0.0
        } else {
            self.distance_sum as f64 / m.identified as f64
        };
        m
    }
}

impl CorrelationMetrics {
    /// Derive from a log.
    pub fn derive(log: &BlockchainLog) -> CorrelationMetrics {
        let mut tracker = CorrelationTracker::default();
        let records = log.records();
        for pos in 0..records.len() {
            tracker.observe(records, pos);
        }
        tracker.snapshot()
    }

    /// Fraction of read-conflict failures whose conflict pair is
    /// reorderable (the 40 % trigger of the reordering recommendation).
    pub fn reorderable_share(&self) -> f64 {
        if self.read_conflicts == 0 {
            0.0
        } else {
            self.reorderable as f64 / self.read_conflicts as f64
        }
    }

    /// Conflicts with distance below `block_size` (intra-block likelihood).
    pub fn intra_block_share(&self, block_size: f64) -> f64 {
        if self.conflicts.is_empty() {
            return 0.0;
        }
        let intra = self
            .conflicts
            .iter()
            .filter(|c| (c.distance as f64) < block_size)
            .count();
        intra as f64 / self.conflicts.len() as f64
    }

    /// The activity pairs most involved in reorderable conflicts,
    /// descending by count. Reads the incrementally maintained pair
    /// aggregate, so the cost is O(distinct pairs), not O(conflicts).
    pub fn top_reorderable_pairs(&self) -> Vec<((String, String), usize)> {
        let mut v: Vec<_> = self
            .reorderable_pairs
            .iter()
            .map(|(pair, &count)| (pair.clone(), count))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }
}

/// The integer delta between two written values, when both are integers or
/// both are records differing in exactly one integer field.
pub fn value_delta(a: Option<&Value>, b: Option<&Value>) -> Option<i64> {
    match (a, b) {
        (Some(Value::Int(x)), Some(Value::Int(y))) => Some(y - x),
        (Some(Value::Map(ma)), Some(Value::Map(mb))) => {
            if ma.len() != mb.len() || ma.keys().ne(mb.keys()) {
                return None;
            }
            let mut delta: Option<i64> = None;
            for (k, va) in ma {
                let vb = &mb[k];
                if va == vb {
                    continue;
                }
                match (va, vb, delta) {
                    (Value::Int(x), Value::Int(y), None) => delta = Some(y - x),
                    _ => return None, // second differing field or non-int
                }
            }
            delta
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::test_support::{log_of, Rec};
    use std::collections::BTreeMap as Map;

    #[test]
    fn conflict_pair_identified_with_distance() {
        // tx0 writes k (success); tx3 reads k and fails.
        let log = log_of(vec![
            Rec::new(0, "writer").writes(&["k"]).build(),
            Rec::new(1, "noise").build(),
            Rec::new(2, "noise").build(),
            Rec::new(3, "reader")
                .reads(&["k"])
                .status(TxStatus::MvccReadConflict)
                .build(),
        ]);
        let m = CorrelationMetrics::derive(&log);
        assert_eq!(m.identified, 1);
        assert_eq!(m.conflicts[0].writer_activity, "writer");
        assert_eq!(m.conflicts[0].distance, 3);
        assert!(m.conflicts[0].reorderable, "reader writes nothing");
        assert!((m.mean_distance - 3.0).abs() < 1e-9);
        assert!((m.reorderable_share() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn update_update_conflict_is_not_reorderable() {
        let log = log_of(vec![
            Rec::new(0, "upd").reads(&["k"]).writes(&["k"]).build(),
            Rec::new(1, "upd")
                .reads(&["k"])
                .writes(&["k"])
                .status(TxStatus::MvccReadConflict)
                .build(),
        ]);
        let m = CorrelationMetrics::derive(&log);
        assert_eq!(m.identified, 1);
        assert!(!m.conflicts[0].reorderable, "write sets overlap");
        assert_eq!(m.reorderable_share(), 0.0);
    }

    #[test]
    fn failed_writes_do_not_become_writers() {
        // tx0 fails; its write must not be blamed for tx1's conflict.
        let log = log_of(vec![
            Rec::new(0, "a")
                .writes(&["k"])
                .status(TxStatus::MvccReadConflict)
                .build(),
            Rec::new(1, "b")
                .reads(&["k"])
                .status(TxStatus::MvccReadConflict)
                .build(),
        ]);
        let m = CorrelationMetrics::derive(&log);
        assert_eq!(m.identified, 0, "no committed writer exists");
        assert_eq!(m.read_conflicts, 2);
    }

    #[test]
    fn range_read_conflicts_traced_to_writer() {
        let mut scan = Rec::new(1, "scan").status(TxStatus::PhantomReadConflict);
        scan.record.rwset.record_range(
            "a".into(),
            "z".into(),
            vec![("k".to_string(), fabric_sim::rwset::Version::new(0, 0))],
        );
        let log = log_of(vec![
            Rec::new(0, "writer").writes(&["k"]).build(),
            scan.build(),
        ]);
        let m = CorrelationMetrics::derive(&log);
        assert_eq!(m.identified, 1);
        assert_eq!(m.conflicts[0].key, "k");
    }

    #[test]
    fn delta_candidates_detect_increments() {
        let log = log_of(vec![
            Rec::new(0, "play")
                .writes_value("m", Value::Int(6))
                .reads(&["m"])
                .status(TxStatus::MvccReadConflict)
                .build(),
            Rec::new(1, "play")
                .writes_value("m", Value::Int(7))
                .reads(&["m"])
                .build(),
        ]);
        let m = CorrelationMetrics::derive(&log);
        assert_eq!(m.delta_candidates.get("play"), Some(&1));
    }

    #[test]
    fn multi_field_changes_are_not_delta_candidates() {
        let mut v1 = Map::new();
        v1.insert("votes".to_string(), Value::Int(5));
        v1.insert("voters".to_string(), Value::Str("a".into()));
        let mut v2 = Map::new();
        v2.insert("votes".to_string(), Value::Int(6));
        v2.insert("voters".to_string(), Value::Str("a,b".into()));
        let log = log_of(vec![
            Rec::new(0, "vote")
                .writes_value("p", Value::Map(v1))
                .reads(&["p"])
                .status(TxStatus::MvccReadConflict)
                .build(),
            Rec::new(1, "vote")
                .writes_value("p", Value::Map(v2))
                .reads(&["p"])
                .build(),
        ]);
        let m = CorrelationMetrics::derive(&log);
        assert!(m.delta_candidates.is_empty(), "two fields changed");
    }

    #[test]
    fn value_delta_rules() {
        assert_eq!(
            value_delta(Some(&Value::Int(5)), Some(&Value::Int(6))),
            Some(1)
        );
        assert_eq!(
            value_delta(Some(&Value::Int(9)), Some(&Value::Int(7))),
            Some(-2)
        );
        assert_eq!(value_delta(Some(&Value::Int(1)), None), None);
        // Single differing int field in a map.
        let mut a = Map::new();
        a.insert("plays".to_string(), Value::Int(3));
        a.insert("meta".to_string(), Value::Str("m".into()));
        let mut b = a.clone();
        b.insert("plays".to_string(), Value::Int(4));
        assert_eq!(
            value_delta(Some(&Value::Map(a)), Some(&Value::Map(b))),
            Some(1)
        );
    }

    #[test]
    fn intra_block_share_uses_distance() {
        let log = log_of(vec![
            Rec::new(0, "w").writes(&["k"]).build(),
            Rec::new(1, "r")
                .reads(&["k"])
                .status(TxStatus::MvccReadConflict)
                .build(),
            Rec::new(2, "w2").writes(&["j"]).build(),
            Rec::new(50, "r2")
                .reads(&["j"])
                .status(TxStatus::MvccReadConflict)
                .build(),
        ]);
        let m = CorrelationMetrics::derive(&log);
        assert!((m.intra_block_share(10.0) - 0.5).abs() < 1e-9);
    }

    /// Observing a stream and evicting a prefix must leave metrics
    /// identical to a fresh scan of the suffix — including conflicts whose
    /// writer left the window and delta candidates whose predecessor did.
    #[test]
    fn eviction_matches_fresh_suffix_scan() {
        let keys = ["k1", "k2", "k3"];
        let mut records = Vec::new();
        for i in 0..40usize {
            let key = keys[i % keys.len()];
            let rec = match i % 4 {
                0 => Rec::new(i, "writer").writes(&[key]).build(),
                1 => Rec::new(i, "reader")
                    .reads(&[key])
                    .status(TxStatus::MvccReadConflict)
                    .build(),
                2 => Rec::new(i, "bump")
                    .reads(&["ctr"])
                    .writes_value("ctr", Value::Int((i / 4) as i64))
                    .status(TxStatus::MvccReadConflict)
                    .build(),
                _ => Rec::new(i, "bump")
                    .reads(&["ctr"])
                    .writes_value("ctr", Value::Int((i / 4) as i64 + 1))
                    .build(),
            };
            records.push(rec);
        }
        for cut in [1usize, 7, 15, 26] {
            let mut windowed = CorrelationTracker::default();
            for pos in 0..records.len() {
                windowed.observe(&records, pos);
            }
            windowed.evict(&records[..cut], records[cut].commit_index);
            // The windowed tracker must keep answering observes on the
            // shortened slice with absolute positions.
            let suffix = &records[cut..];
            let mut fresh = CorrelationTracker::default();
            for pos in 0..suffix.len() {
                fresh.observe(suffix, pos);
            }
            let (a, b) = (windowed.snapshot(), fresh.snapshot());
            let cmp = |m: &CorrelationMetrics| format!("{m:?}");
            assert_eq!(cmp(&a), cmp(&b), "cut at {cut}");
        }
    }

    /// Splitting a stream at any point and merging the two shard trackers
    /// must byte-equal the single serial scan — including conflicts whose
    /// writer sits in the first shard and delta candidates whose
    /// predecessor does.
    #[test]
    fn merge_equals_serial_scan_at_every_split() {
        let keys = ["k1", "k2", "k3"];
        let mut records = Vec::new();
        for i in 0..40usize {
            let key = keys[i % keys.len()];
            let rec = match i % 4 {
                0 => Rec::new(i, "writer").writes(&[key]).build(),
                1 => Rec::new(i, "reader")
                    .reads(&[key])
                    .status(TxStatus::MvccReadConflict)
                    .build(),
                2 => Rec::new(i, "bump")
                    .reads(&["ctr"])
                    .writes_value("ctr", Value::Int((i / 4) as i64))
                    .status(TxStatus::MvccReadConflict)
                    .build(),
                _ => Rec::new(i, "bump")
                    .reads(&["ctr"])
                    .writes_value("ctr", Value::Int((i / 4) as i64 + 1))
                    .build(),
            };
            records.push(rec);
        }
        // HashMap debug order is instance-dependent, so compare an
        // order-canonical rendering of the full tracker state.
        let canon = |t: &CorrelationTracker| {
            let lw: Map<&String, &usize> = t.last_writer.iter().collect();
            let pa: Map<&String, &usize> = t.prev_of_activity.iter().collect();
            format!(
                "{:?} base={} lw={lw:?} pa={pa:?} dd={:?} ds={}",
                t.snapshot(),
                t.base,
                t.delta_deps,
                t.distance_sum
            )
        };
        let mut serial = CorrelationTracker::default();
        for pos in 0..records.len() {
            serial.observe(&records, pos);
        }
        for cut in 1..records.len() {
            let (head, tail) = records.split_at(cut);
            let mut left = CorrelationTracker::default();
            for pos in 0..head.len() {
                left.observe(head, pos);
            }
            let mut right = CorrelationTracker::default();
            for pos in 0..tail.len() {
                right.observe(tail, pos);
            }
            left.merge(&right, head, tail, cut);
            assert_eq!(canon(&left), canon(&serial), "split at {cut}");
        }
        // Identity on both sides.
        let mut left = serial.clone();
        left.merge(&CorrelationTracker::default(), &records, &[], records.len());
        assert_eq!(canon(&left), canon(&serial));
        let mut empty = CorrelationTracker::default();
        empty.merge(&serial, &[], &records, 0);
        assert_eq!(canon(&empty), canon(&serial));
    }

    #[test]
    fn top_reorderable_pairs_sorted() {
        let mut records = vec![Rec::new(0, "writer").writes(&["k"]).build()];
        for i in 1..4 {
            records.push(
                Rec::new(i, "reader")
                    .reads(&["k"])
                    .status(TxStatus::MvccReadConflict)
                    .build(),
            );
        }
        let m = CorrelationMetrics::derive(&log_of(records));
        let pairs = m.top_reorderable_pairs();
        assert_eq!(pairs[0].0, ("reader".to_string(), "writer".to_string()));
        assert_eq!(pairs[0].1, 3);
    }
}

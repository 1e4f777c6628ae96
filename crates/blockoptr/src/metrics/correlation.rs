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

use crate::log::{BlockchainLog, TxRecord};
use fabric_sim::ledger::TxStatus;
use fabric_sim::types::{Key, Name, Value};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// One identified conflict: a failed reader and the writer that invalidated
/// its read. Names and the key share the records' handles.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConflictPair {
    /// Commit index of the failed transaction.
    pub failed_index: usize,
    /// Activity of the failed transaction.
    pub failed_activity: Name,
    /// Commit index of the conflicting (committed) writer.
    pub writer_index: usize,
    /// Activity of the writer.
    pub writer_activity: Name,
    /// The contended key.
    pub key: Key,
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
    pub pair_counts: BTreeMap<(Name, Name), usize>,
    /// Reorderable-conflict counts per (failed activity, writer activity).
    pub reorderable_pairs: BTreeMap<(Name, Name), usize>,
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
    last_writer: HashMap<Key, usize>,
    /// Previous transaction (any status) per activity, for corPA.
    prev_of_activity: HashMap<Name, usize>,
    /// For each counted delta-write candidate: the predecessor's absolute
    /// position → activity. A predecessor is the earlier of the pair, so
    /// its eviction is the moment the contribution leaves the window.
    delta_deps: BTreeMap<usize, Name>,
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
            if let Some((wpos, key)) = latest_writer(&self.last_writer, r) {
                let pair = count_conflict(m, &mut self.distance_sum, r, &records[wpos - base], key);
                std::sync::Arc::make_mut(&mut m.conflicts).push(pair);
            }
        }

        // Delta-write candidates: this tx and the previous tx of the
        // same activity are adjacent in the activity's own sequence
        // (corPA(x, y) == 1).
        if let Some(ppos) = self.prev_of_activity.insert(r.activity.clone(), pos) {
            if is_delta_write(&records[ppos - base], r) {
                crate::metrics::increment(&mut m.delta_candidates, &*r.activity);
                self.delta_deps.insert(ppos, r.activity.clone());
            }
        }

        // Only *successful* writes update the committed state.
        if r.status.is_success() {
            for w in &r.rwset.writes {
                self.last_writer.insert(w.key.clone(), pos);
            }
        }
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
        std::sync::Arc::make_mut(&mut m.conflicts).retain(|c| {
            if c.writer_index >= cutoff_commit {
                return true;
            }
            m.identified -= 1;
            self.distance_sum -= c.distance as u128;
            let per_activity = m
                .activity_conflicts
                .get_mut(&*c.failed_activity)
                .expect("evicted conflict was counted");
            per_activity.0 -= 1;
            if c.reorderable {
                per_activity.1 -= 1;
            }
            if *per_activity == (0, 0) {
                m.activity_conflicts.remove(&*c.failed_activity);
            }
            let pair = (c.failed_activity.clone(), c.writer_activity.clone());
            crate::metrics::decrement(&mut m.pair_counts, &pair);
            if c.reorderable {
                m.reorderable -= 1;
                crate::metrics::decrement(&mut m.reorderable_pairs, &pair);
            }
            false
        });
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
            crate::metrics::decrement(&mut m.delta_candidates, &*activity);
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
            .map(|((failed, writer), &count)| ((failed.to_string(), writer.to_string()), count))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }
}

/// Whether `r` and `prev`, the previous transaction of its activity, form
/// a delta write: `prev` failed with an MVCC conflict, both write a single
/// key, the same one, and the written values differ by one.
fn is_delta_write(prev: &TxRecord, r: &TxRecord) -> bool {
    let ([p], [w]) = (&prev.rwset.writes[..], &r.rwset.writes[..]) else {
        return false;
    };
    prev.status == TxStatus::MvccReadConflict
        && p.key == w.key
        && matches!(
            value_delta(p.value.as_ref(), w.value.as_ref()),
            Some(1 | -1)
        )
}

/// The most recent committed writer (absolute position) of any key `r`
/// read, point or range, and that key.
fn latest_writer<'r>(
    last_writer: &HashMap<Key, usize>,
    r: &'r TxRecord,
) -> Option<(usize, &'r Key)> {
    let reads = r.rwset.reads.iter().map(|read| &read.key);
    let ranges = r.rwset.range_reads.iter();
    let scanned = ranges.flat_map(|rr| rr.observed.iter().map(|(key, _)| key));
    let mut best: Option<(usize, &Key)> = None;
    for key in reads.chain(scanned) {
        if let Some(&wpos) = last_writer.get(key) {
            if best.is_none_or(|(b, _)| wpos > b) {
                best = Some((wpos, key));
            }
        }
    }
    best
}

/// Count the identified conflict of `r` against `writer` on `key` and
/// return its pair record for the caller to append. The record and the
/// activity-pair keys share the records' handles; only the writer's key
/// list and a first-seen pair's map entry allocate.
fn count_conflict(
    m: &mut CorrelationMetrics,
    distance_sum: &mut u128,
    r: &TxRecord,
    writer: &TxRecord,
    key: &Key,
) -> ConflictPair {
    // The paper's reorderability condition: `WS(x) ∩ WS(y) = ∅`.
    let writer_keys = writer.rwset.write_keys();
    let reorderable = !r
        .rwset
        .writes
        .iter()
        .any(|w| writer_keys.binary_search(&&*w.key).is_ok());
    let distance = r.commit_index - writer.commit_index;
    *distance_sum += distance as u128;
    m.identified += 1;
    crate::metrics::update(&mut m.activity_conflicts, &*r.activity, |n| {
        n.0 += 1;
        n.1 += usize::from(reorderable);
    });
    let pair = (r.activity.clone(), writer.activity.clone());
    if reorderable {
        m.reorderable += 1;
        *m.reorderable_pairs.entry(pair.clone()).or_insert(0) += 1;
    }
    *m.pair_counts.entry(pair).or_insert(0) += 1;
    ConflictPair {
        failed_index: r.commit_index,
        failed_activity: r.activity.clone(),
        writer_index: writer.commit_index,
        writer_activity: writer.activity.clone(),
        key: key.clone(),
        distance,
        reorderable,
    }
}

/// The integer delta between two written values, when both are integers or
/// both are records differing in exactly one integer field. A delta that
/// does not fit an `i64` (values read from a user's log can sit at its
/// extremes) is no delta.
pub fn value_delta(a: Option<&Value>, b: Option<&Value>) -> Option<i64> {
    match (a, b) {
        (Some(Value::Int(x)), Some(Value::Int(y))) => y.checked_sub(*x),
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
                    (Value::Int(x), Value::Int(y), None) => delta = Some(y.checked_sub(*x)?),
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
        assert_eq!(&*m.conflicts[0].writer_activity, "writer");
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
        let scan = Rec::new(1, "scan")
            .scans("a", "z", &["k"])
            .status(TxStatus::PhantomReadConflict);
        let log = log_of(vec![
            Rec::new(0, "writer").writes(&["k"]).build(),
            scan.build(),
        ]);
        let m = CorrelationMetrics::derive(&log);
        assert_eq!(m.identified, 1);
        assert_eq!(&*m.conflicts[0].key, "k");
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
            value_delta(Some(&Value::Map(a.clone())), Some(&Value::Map(b))),
            Some(1)
        );
        // A delta past the `i64` range is no delta, in either form; one at
        // `i64::MIN` is a delta, just not a ±1 one.
        for (x, y, delta) in [
            (i64::MIN, i64::MAX, None),
            (i64::MAX, i64::MIN, None),
            (-1, i64::MAX, None),
            (0, i64::MIN, Some(i64::MIN)),
            (i64::MAX - 1, i64::MAX, Some(1)),
            (i64::MIN + 1, i64::MIN, Some(-1)),
        ] {
            assert_eq!(
                value_delta(Some(&Value::Int(x)), Some(&Value::Int(y))),
                delta,
                "{x} -> {y}"
            );
            let (mut ma, mut mb) = (a.clone(), a.clone());
            ma.insert("plays".to_string(), Value::Int(x));
            mb.insert("plays".to_string(), Value::Int(y));
            assert_eq!(
                value_delta(Some(&Value::Map(ma)), Some(&Value::Map(mb))),
                delta,
                "map field {x} -> {y}"
            );
        }
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

//! Directly-follows graphs.
//!
//! `a ≻ b` counts how often activity `b` immediately follows `a` in some
//! trace. The DFG underlies the footprint matrix, the heuristics miner, and
//! the frequency annotations of Figure-2-style model renderings.

use crate::eventlog::EventLog;
use serde::de::{Error, Reader};
use serde::ser::Serializer;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Directly-follows counts plus start/end frequencies.
///
/// Every update looks its counters up by borrowed activity name, so
/// recording or retracting an event allocates only for an activity or edge
/// the graph has not seen.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DirectlyFollowsGraph {
    edges: Edges,
    starts: BTreeMap<String, usize>,
    ends: BTreeMap<String, usize>,
    activity_counts: BTreeMap<String, usize>,
}

/// Edge counts nested by predecessor (`a → b → count`), so an edge is found
/// from two borrowed names. Serializes as a `(String, String)`-keyed map
/// does: a `[[a, b], count]` list, or `{}` when empty.
#[derive(Debug, Clone, Default)]
struct Edges(BTreeMap<String, BTreeMap<String, usize>>);

impl Edges {
    fn get(&self, a: &str, b: &str) -> Option<usize> {
        self.0.get(a)?.get(b).copied()
    }

    /// Add one count of `a ≻ b`, allocating names only when new.
    fn add_one(&mut self, a: &str, b: &str) {
        match self.0.get_mut(a) {
            Some(next) => add_one(next, b),
            None => {
                self.0
                    .insert(a.to_string(), BTreeMap::from([(b.to_string(), 1)]));
            }
        }
    }

    /// Remove one count of `a ≻ b`, dropping emptied entries.
    fn remove_one(&mut self, a: &str, b: &str) {
        let Some(next) = self.0.get_mut(a) else {
            panic!("unrecord of untracked edge {a:?} ≻ {b:?}");
        };
        remove_one(next, b, "unrecord of untracked edge");
        if next.is_empty() {
            self.0.remove(a);
        }
    }

    /// Edges in `(a, b)` order, with counts.
    fn iter(&self) -> impl Iterator<Item = (&str, &str, usize)> + Clone {
        self.0
            .iter()
            .flat_map(|(a, next)| next.iter().map(move |(b, &n)| (a.as_str(), b.as_str(), n)))
    }
}

impl Serialize for Edges {
    fn serialize(&self, w: &mut Serializer) {
        w.map(self.iter().map(|(a, b, n)| ((a, b), n)));
    }
}

impl Deserialize for Edges {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let mut edges = Edges::default();
        for ((a, b), n) in BTreeMap::<(String, String), usize>::deserialize(r)? {
            edges.0.entry(a).or_default().insert(b, n);
        }
        Ok(edges)
    }
}

/// Add one to the counter at a borrowed `key`, allocating it only when new.
fn add_one(map: &mut BTreeMap<String, usize>, key: &str) {
    match map.get_mut(key) {
        Some(count) => *count += 1,
        None => {
            map.insert(key.to_string(), 1);
        }
    }
}

/// Remove one count at `key`, dropping the entry at zero.
///
/// # Panics
/// Panics with `what` when `key` has no count.
fn remove_one(map: &mut BTreeMap<String, usize>, key: &str, what: &str) {
    match map.get_mut(key) {
        Some(n) if *n > 1 => *n -= 1,
        Some(_) => {
            map.remove(key);
        }
        None => panic!("{what} for {key:?}"),
    }
}

impl DirectlyFollowsGraph {
    /// Build the DFG of a log.
    pub fn from_log(log: &EventLog) -> Self {
        let mut g = DirectlyFollowsGraph::default();
        for trace in log.traces() {
            if let Some(first) = trace.activities.first() {
                add_one(&mut g.starts, first);
            }
            if let Some(last) = trace.activities.last() {
                add_one(&mut g.ends, last);
            }
            for a in &trace.activities {
                add_one(&mut g.activity_counts, a);
            }
            for w in trace.activities.windows(2) {
                g.edges.add_one(&w[0], &w[1]);
            }
        }
        g
    }

    /// Record the first event of a new trace: `activity` both starts and
    /// (for now) ends it. Part of the incremental-update entry point used by
    /// streaming consumers that maintain a DFG as events arrive.
    pub fn record_trace_start(&mut self, activity: &str) {
        add_one(&mut self.starts, activity);
        add_one(&mut self.ends, activity);
        add_one(&mut self.activity_counts, activity);
    }

    /// Record that a trace previously ending in `prev` gained `activity`:
    /// the `prev ≻ activity` edge appears and the trace's end shifts.
    pub fn record_trace_extension(&mut self, prev: &str, activity: &str) {
        self.edges.add_one(prev, activity);
        if let Some(n) = self.ends.get_mut(prev) {
            *n -= 1;
            if *n == 0 {
                self.ends.remove(prev);
            }
        }
        add_one(&mut self.ends, activity);
        add_one(&mut self.activity_counts, activity);
    }

    /// Retract a trace's evicted *head* event (sliding-window eviction,
    /// the inverse of the record/extension pair that admitted it):
    /// `head` stops being the trace's start; with a surviving `next` event
    /// the start moves to `next` and the `head ≻ next` edge loses one
    /// count, without one the trace vanished and `head` stops being its
    /// end too. Entries whose counts reach zero are removed, so the graph
    /// stays identical to one built fresh from the retained traces.
    pub fn unrecord_trace_head(&mut self, head: &str, next: Option<&str>) {
        const WHAT: &str = "unrecord without a matching record";
        remove_one(&mut self.starts, head, WHAT);
        match next {
            Some(next) => {
                self.edges.remove_one(head, next);
                add_one(&mut self.starts, next);
            }
            None => remove_one(&mut self.ends, head, WHAT),
        }
        remove_one(&mut self.activity_counts, head, WHAT);
    }

    /// How often `b` directly follows `a`.
    pub fn count(&self, a: &str, b: &str) -> usize {
        self.edges.get(a, b).unwrap_or(0)
    }

    /// Whether `a ≻ b` occurs at least once.
    pub fn follows(&self, a: &str, b: &str) -> bool {
        self.count(a, b) > 0
    }

    /// All edges with counts, sorted by `(a, b)`.
    pub fn edges(&self) -> impl Iterator<Item = (&str, &str, usize)> {
        self.edges.iter()
    }

    /// Activities that start traces, with frequencies.
    pub fn starts(&self) -> &BTreeMap<String, usize> {
        &self.starts
    }

    /// Activities that end traces, with frequencies.
    pub fn ends(&self) -> &BTreeMap<String, usize> {
        &self.ends
    }

    /// Total occurrences of an activity.
    pub fn activity_count(&self, a: &str) -> usize {
        self.activity_counts.get(a).copied().unwrap_or(0)
    }

    /// All activities seen.
    pub fn activities(&self) -> Vec<&str> {
        self.activity_counts.keys().map(String::as_str).collect()
    }

    /// Number of distinct edges.
    pub fn edge_count(&self) -> usize {
        self.edges.0.values().map(BTreeMap::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eventlog::log_from;

    #[test]
    fn counts_direct_succession() {
        let g =
            DirectlyFollowsGraph::from_log(&log_from(&[&["a", "b", "c"], &["a", "b", "b", "c"]]));
        assert_eq!(g.count("a", "b"), 2);
        assert_eq!(g.count("b", "b"), 1);
        assert_eq!(g.count("b", "c"), 2);
        assert_eq!(g.count("a", "c"), 0, "not DIRECTLY followed");
        assert!(g.follows("a", "b"));
        assert!(!g.follows("c", "a"));
    }

    #[test]
    fn starts_ends_and_activity_counts() {
        let g = DirectlyFollowsGraph::from_log(&log_from(&[&["a", "b"], &["c", "b"]]));
        assert_eq!(g.starts().get("a"), Some(&1));
        assert_eq!(g.starts().get("c"), Some(&1));
        assert_eq!(g.ends().get("b"), Some(&2));
        assert_eq!(g.activity_count("b"), 2);
        assert_eq!(g.activities(), vec!["a", "b", "c"]);
    }

    #[test]
    fn edges_iterator_is_sorted() {
        let g = DirectlyFollowsGraph::from_log(&log_from(&[&["b", "a"], &["a", "b"]]));
        let edges: Vec<(&str, &str, usize)> = g.edges().collect();
        assert_eq!(edges, vec![("a", "b", 1), ("b", "a", 1)]);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn incremental_updates_match_from_log() {
        // Replay two traces event-by-event and compare with the batch build.
        let traces: &[&[&str]] = &[&["a", "b", "c"], &["a", "b", "b"]];
        let mut incremental = DirectlyFollowsGraph::default();
        for trace in traces {
            for (i, activity) in trace.iter().enumerate() {
                if i == 0 {
                    incremental.record_trace_start(activity);
                } else {
                    incremental.record_trace_extension(trace[i - 1], activity);
                }
            }
        }
        let batch = DirectlyFollowsGraph::from_log(&log_from(traces));
        assert_eq!(incremental.starts(), batch.starts());
        assert_eq!(incremental.ends(), batch.ends());
        let inc_edges: Vec<_> = incremental.edges().collect();
        let batch_edges: Vec<_> = batch.edges().collect();
        assert_eq!(inc_edges, batch_edges);
        assert_eq!(incremental.activity_count("b"), batch.activity_count("b"));
    }

    /// The nested edge map serializes as the flat `(a, b) → count` map it
    /// replaced, `{}` when empty, and reads both back.
    #[test]
    fn edges_serialize_as_the_flat_pair_map() {
        let g = DirectlyFollowsGraph::from_log(&log_from(&[&["a", "b", "a"], &["c"]]));
        let flat: BTreeMap<(String, String), usize> =
            BTreeMap::from([(("a".into(), "b".into()), 1), (("b".into(), "a".into()), 1)]);
        let json = serde::ser::to_string(&g, false);
        assert!(json.starts_with(&format!(
            "{{\"edges\":{}",
            serde::ser::to_string(&flat, false)
        )));
        let empty = serde::ser::to_string(&DirectlyFollowsGraph::default(), false);
        assert!(empty.starts_with("{\"edges\":{}"), "{empty}");
        for text in [json, empty] {
            let back: DirectlyFollowsGraph = serde::de::from_str(&text).unwrap();
            assert_eq!(serde::ser::to_string(&back, false), text);
        }
    }

    #[test]
    fn empty_log_yields_empty_graph() {
        let g = DirectlyFollowsGraph::from_log(&EventLog::new());
        assert_eq!(g.edge_count(), 0);
        assert!(g.activities().is_empty());
    }
}

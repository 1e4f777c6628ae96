//! Event logs: the minimum process-mining input (paper §2.2).
//!
//! A [`Trace`] is one complete case — the ordered activities sharing a
//! CaseID. An [`EventLog`] is a multiset of traces; [`EventLog::variants`]
//! groups identical traces, which is what the mining algorithms consume.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One case: the ordered activity sequence of a single CaseID.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Trace {
    /// The case identifier (derived from the common element, §4.2).
    pub case_id: String,
    /// Activities in commit order.
    pub activities: Vec<String>,
}

impl Trace {
    /// Build a trace.
    pub fn new(case_id: impl Into<String>, activities: Vec<String>) -> Self {
        Trace {
            case_id: case_id.into(),
            activities,
        }
    }

    /// Length of the trace.
    pub fn len(&self) -> usize {
        self.activities.len()
    }

    /// Whether the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.activities.is_empty()
    }
}

/// A multiset of traces.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EventLog {
    traces: Vec<Trace>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from traces.
    pub fn from_traces(traces: Vec<Trace>) -> Self {
        EventLog { traces }
    }

    /// Append one trace.
    pub fn push(&mut self, trace: Trace) {
        self.traces.push(trace);
    }

    /// All traces.
    pub fn traces(&self) -> &[Trace] {
        &self.traces
    }

    /// Mutable access to one trace by index — streaming consumers append
    /// the newest event of a case to its open trace.
    pub fn trace_mut(&mut self, idx: usize) -> Option<&mut Trace> {
        self.traces.get_mut(idx)
    }

    /// Take the traces back out (the inverse of
    /// [`from_traces`](Self::from_traces)) — windowed consumers rebuild the
    /// trace order after evicting trace heads without cloning any trace.
    pub fn into_traces(self) -> Vec<Trace> {
        self.traces
    }

    /// Number of traces (cases).
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Total number of events across all traces.
    pub fn event_count(&self) -> usize {
        self.traces.iter().map(Trace::len).sum()
    }

    /// The distinct activities, sorted.
    pub fn activities(&self) -> Vec<String> {
        let mut set: Vec<String> = self
            .traces
            .iter()
            .flat_map(|t| t.activities.iter().cloned())
            .collect();
        set.sort_unstable();
        set.dedup();
        set
    }

    /// Trace variants: distinct activity sequences with their frequencies,
    /// most frequent first (ties by sequence for determinism).
    pub fn variants(&self) -> Vec<(Vec<String>, usize)> {
        let mut counts: BTreeMap<Vec<String>, usize> = BTreeMap::new();
        for t in &self.traces {
            *counts.entry(t.activities.clone()).or_insert(0) += 1;
        }
        let mut out: Vec<(Vec<String>, usize)> = counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Activities that start at least one trace.
    pub fn start_activities(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .traces
            .iter()
            .filter_map(|t| t.activities.first().cloned())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Activities that end at least one trace.
    pub fn end_activities(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .traces
            .iter()
            .filter_map(|t| t.activities.last().cloned())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Convenience constructor used throughout the tests:
/// `log(&[&["a","b","c"], &["a","c"]])`.
pub fn log_from(seqs: &[&[&str]]) -> EventLog {
    EventLog::from_traces(
        seqs.iter()
            .enumerate()
            .map(|(i, seq)| {
                Trace::new(
                    format!("case{i}"),
                    seq.iter().map(|s| s.to_string()).collect(),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let l = log_from(&[&["a", "b"], &["a", "c", "b"]]);
        assert_eq!(l.len(), 2);
        assert_eq!(l.event_count(), 5);
        assert_eq!(l.activities(), vec!["a", "b", "c"]);
        assert!(!l.is_empty());
    }

    #[test]
    fn variants_group_and_sort_by_frequency() {
        let l = log_from(&[&["a", "b"], &["a", "c"], &["a", "b"], &["a", "b"]]);
        let v = l.variants();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].0, vec!["a", "b"]);
        assert_eq!(v[0].1, 3);
        assert_eq!(v[1].1, 1);
    }

    #[test]
    fn start_and_end_activities() {
        let l = log_from(&[&["a", "b", "d"], &["c", "d"]]);
        assert_eq!(l.start_activities(), vec!["a", "c"]);
        assert_eq!(l.end_activities(), vec!["d"]);
    }

    #[test]
    fn empty_log() {
        let l = EventLog::new();
        assert!(l.is_empty());
        assert!(l.variants().is_empty());
        assert!(l.start_activities().is_empty());
    }

    #[test]
    fn trace_push_and_len() {
        let mut l = EventLog::new();
        l.push(Trace::new("c1", vec!["x".into()]));
        assert_eq!(l.len(), 1);
        assert_eq!(l.traces()[0].case_id, "c1");
        assert_eq!(l.traces()[0].len(), 1);
        assert!(!l.traces()[0].is_empty());
    }
}

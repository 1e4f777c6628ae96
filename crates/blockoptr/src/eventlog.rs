//! Event log generation (paper §4.2).
//!
//! With derived CaseIDs in hand, a *trace* is the sequence of activities
//! sharing a case value — ordered by **commit order**, not client timestamp:
//! "there is no guarantee that the same order in which clients send their
//! transactions will be maintained when the transactions are committed".

use crate::caseid::derive_case_ids;
use crate::log::BlockchainLog;
use process_mining::eventlog::{EventLog, Trace};
use std::collections::BTreeMap;

/// Convert a blockchain log into a process-mining event log.
///
/// Transactions without a derivable case id are skipped (they belong to no
/// process instance). All committed transactions participate — including
/// failed ones, since their activities *were* attempted; this is exactly how
/// anomalous behaviour becomes visible in the mined model (Figure 2).
pub fn to_event_log(log: &BlockchainLog) -> EventLog {
    let derivation = derive_case_ids(log);
    let mut traces: BTreeMap<String, Vec<(usize, String)>> = BTreeMap::new();
    for (record, case) in log.records().iter().zip(derivation.case_ids.iter()) {
        if let Some(case) = case {
            traces
                .entry(case.clone())
                .or_default()
                .push((record.commit_index, record.activity.to_string()));
        }
    }
    let mut out = EventLog::new();
    for (case, mut events) in traces {
        events.sort_by_key(|(idx, _)| *idx);
        out.push(Trace::new(
            case,
            events.into_iter().map(|(_, a)| a).collect(),
        ));
    }
    out
}

/// Convert only the *successful* transactions (useful to compare expected
/// versus realized behaviour after a redesign).
pub fn to_event_log_successes(log: &BlockchainLog) -> EventLog {
    let filtered = BlockchainLog::from_records(
        log.records()
            .iter()
            .filter(|r| !r.failed())
            .cloned()
            .collect(),
        log.block_count(),
    );
    to_event_log(&filtered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::test_support::{log_of, Rec};
    use fabric_sim::ledger::TxStatus;

    fn scm_log() -> BlockchainLog {
        log_of(vec![
            Rec::new(0, "pushASN").args(vec!["P0001".into()]).build(),
            Rec::new(1, "pushASN").args(vec!["P0002".into()]).build(),
            Rec::new(2, "ship").args(vec!["P0001".into()]).build(),
            Rec::new(3, "ship")
                .args(vec!["P0002".into()])
                .status(TxStatus::MvccReadConflict)
                .build(),
            Rec::new(4, "unload").args(vec!["P0001".into()]).build(),
        ])
    }

    #[test]
    fn traces_group_by_case_in_commit_order() {
        let el = to_event_log(&scm_log());
        assert_eq!(el.len(), 2);
        let t1 = el.traces().iter().find(|t| t.case_id == "P0001").unwrap();
        assert_eq!(t1.activities, vec!["pushASN", "ship", "unload"]);
        let t2 = el.traces().iter().find(|t| t.case_id == "P0002").unwrap();
        assert_eq!(t2.activities, vec!["pushASN", "ship"]);
    }

    #[test]
    fn failed_txs_included_by_default() {
        let el = to_event_log(&scm_log());
        let t2 = el.traces().iter().find(|t| t.case_id == "P0002").unwrap();
        assert!(t2.activities.contains(&"ship".to_string()));
    }

    #[test]
    fn success_only_variant_drops_failures() {
        let el = to_event_log_successes(&scm_log());
        let t2 = el.traces().iter().find(|t| t.case_id == "P0002").unwrap();
        assert_eq!(t2.activities, vec!["pushASN"]);
    }

    #[test]
    fn commit_order_beats_insertion_order() {
        // Records constructed out of order; the trace must follow commit idx.
        let log = log_of(vec![
            Rec::new(5, "ship").args(vec!["P0001".into()]).build(),
            Rec::new(2, "pushASN").args(vec!["P0001".into()]).build(),
        ]);
        let el = to_event_log(&log);
        assert_eq!(el.traces()[0].activities, vec!["pushASN", "ship"]);
    }

    #[test]
    fn empty_log_gives_empty_event_log() {
        assert!(to_event_log(&BlockchainLog::default()).is_empty());
    }
}

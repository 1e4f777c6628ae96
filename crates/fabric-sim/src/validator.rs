//! Block validation and commit (the V of EOV).
//!
//! Validation walks a block's transactions in their scheduled order and, for
//! each one:
//!
//! 1. checks endorsement consistency (mismatched endorser read-write sets or
//!    scheduler-imposed policy failures → `ENDORSEMENT_POLICY_FAILURE`);
//! 2. honors scheduler early-aborts (`MVCC_READ_CONFLICT` without state
//!    application);
//! 3. re-checks every point read's version against the *current* world state
//!    (stale → `MVCC_READ_CONFLICT`);
//! 4. re-executes every range scan (changed key set → `PHANTOM_READ_CONFLICT`,
//!    changed versions → `MVCC_READ_CONFLICT`);
//! 5. on success, applies the write set at version `(block, position)`.
//!
//! Because writes apply immediately, a later transaction in the same block
//! that read a key an earlier one wrote fails — Fabric's *intra-block*
//! conflict; conflicts against earlier blocks are *inter-block* (the paper's
//! §2.1 distinction, which drives the proximity-correlation metric).

use crate::ledger::TxStatus;
use crate::rwset::ReadWriteSet;
use crate::state::WorldState;
use serde::{Deserialize, Serialize};

/// Per-transaction validation input flags.
#[derive(Debug, Clone)]
pub struct TxToValidate<'a> {
    /// The proposal read-write set.
    pub rwset: &'a ReadWriteSet,
    /// Endorser read-write sets disagreed when the client assembled the tx.
    pub endorse_mismatch: bool,
    /// The block scheduler aborted this transaction.
    pub sched_aborted: bool,
    /// The block scheduler flagged this transaction's endorsements.
    pub sched_policy_failed: bool,
}

/// Validation verdict plus conflict-locality classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Verdict {
    /// Commit status.
    pub status: TxStatus,
    /// For read conflicts: the stale key's fresh version was written in the
    /// same block (`true`) or an earlier block (`false`).
    pub intra_block: bool,
}

/// Validate and commit one block's transactions, in order.
///
/// `stale_tolerance_blocks` is 0 for vanilla Fabric and Fabric++; FabricSharp
/// tolerates reads that are stale by at most one block (its OCC reordering
/// commits them under an equivalent serial schedule).
pub fn validate_block(
    state: &mut WorldState,
    block_number: u64,
    txs: &[TxToValidate<'_>],
    stale_tolerance_blocks: u64,
) -> Vec<Verdict> {
    let mut verdicts = Vec::with_capacity(txs.len());
    for (pos, tx) in txs.iter().enumerate() {
        let verdict = validate_one(state, block_number, tx, stale_tolerance_blocks);
        if verdict.status == TxStatus::Success {
            state.apply(
                &tx.rwset.writes,
                crate::rwset::Version::new(block_number, pos as u32),
            );
        }
        verdicts.push(verdict);
    }
    verdicts
}

fn validate_one(
    state: &WorldState,
    block_number: u64,
    tx: &TxToValidate<'_>,
    tolerance: u64,
) -> Verdict {
    if tx.endorse_mismatch || tx.sched_policy_failed {
        return Verdict {
            status: TxStatus::EndorsementPolicyFailure,
            intra_block: false,
        };
    }
    if tx.sched_aborted {
        return Verdict {
            status: TxStatus::MvccReadConflict,
            intra_block: true,
        };
    }

    // Point reads.
    for read in &tx.rwset.reads {
        let current = state.version_of(&read.key);
        if current == read.version {
            continue;
        }
        // Stale but present in both: FabricSharp tolerates small staleness —
        // the conflicting write must be in the immediately preceding
        // tolerance window AND the observed version at most `tolerance`
        // versions behind it (one reorderable hop).
        if let (Some(cur), Some(seen)) = (current, read.version) {
            if tolerance > 0
                && cur.block < block_number
                && block_number - cur.block <= tolerance
                && cur.block.saturating_sub(seen.block) <= tolerance
            {
                continue;
            }
            return Verdict {
                status: TxStatus::MvccReadConflict,
                intra_block: cur.block == block_number,
            };
        }
        // Appeared or disappeared: never tolerated.
        let intra = current.map(|c| c.block == block_number).unwrap_or(false);
        return Verdict {
            status: TxStatus::MvccReadConflict,
            intra_block: intra,
        };
    }

    // Range scans: re-execute each one and walk it in lockstep with the
    // observed result. A changed key set (a key added, removed or replaced)
    // is a phantom, and outranks a changed version anywhere in the same
    // scan, so the first untolerated version change is only reported once
    // the scan has matched to its end.
    for rr in &tx.rwset.range_reads {
        let mut fresh = state.range(&rr.start, &rr.end);
        let mut observed = rr.observed.iter();
        let mut stale: Option<Verdict> = None;
        loop {
            match (fresh.next(), observed.next()) {
                (None, None) => break,
                (Some((fresh_k, vv)), Some((seen_k, seen_v))) if fresh_k == seen_k => {
                    let fresh_v = vv.version;
                    if stale.is_none() && fresh_v != *seen_v {
                        let tolerated = tolerance > 0
                            && fresh_v.block < block_number
                            && block_number - fresh_v.block <= tolerance;
                        if !tolerated {
                            stale = Some(Verdict {
                                status: TxStatus::MvccReadConflict,
                                intra_block: fresh_v.block == block_number,
                            });
                        }
                    }
                }
                _ => {
                    return Verdict {
                        status: TxStatus::PhantomReadConflict,
                        intra_block: false,
                    }
                }
            }
        }
        if let Some(verdict) = stale {
            return verdict;
        }
    }

    Verdict {
        status: TxStatus::Success,
        intra_block: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rwset::Version;
    use crate::types::Value;

    fn read_tx(key: &str, version: Option<Version>) -> ReadWriteSet {
        let mut rw = ReadWriteSet::new();
        rw.record_read(key.into(), version);
        rw
    }

    fn update_tx(key: &str, version: Option<Version>, value: i64) -> ReadWriteSet {
        let mut rw = read_tx(key, version);
        rw.record_write(key.into(), Some(Value::Int(value)));
        rw
    }

    fn plain(rwset: &ReadWriteSet) -> TxToValidate<'_> {
        TxToValidate {
            rwset,
            endorse_mismatch: false,
            sched_aborted: false,
            sched_policy_failed: false,
        }
    }

    fn seeded() -> WorldState {
        let mut s = WorldState::new();
        s.seed("k".into(), Value::Int(0));
        s
    }

    #[test]
    fn fresh_read_commits() {
        let mut state = seeded();
        let rw = update_tx("k", Some(Version::new(0, 0)), 1);
        let v = validate_block(&mut state, 1, &[plain(&rw)], 0);
        assert_eq!(v[0].status, TxStatus::Success);
        assert_eq!(state.version_of("k"), Some(Version::new(1, 0)));
        assert_eq!(state.get("k").unwrap().value, Value::Int(1));
    }

    #[test]
    fn intra_block_conflict_second_updater_fails() {
        let mut state = seeded();
        let a = update_tx("k", Some(Version::new(0, 0)), 1);
        let b = update_tx("k", Some(Version::new(0, 0)), 2);
        let v = validate_block(&mut state, 1, &[plain(&a), plain(&b)], 0);
        assert_eq!(v[0].status, TxStatus::Success);
        assert_eq!(v[1].status, TxStatus::MvccReadConflict);
        assert!(v[1].intra_block, "conflicting write is in the same block");
        assert_eq!(
            state.get("k").unwrap().value,
            Value::Int(1),
            "loser not applied"
        );
    }

    #[test]
    fn inter_block_conflict_classified() {
        let mut state = seeded();
        let a = update_tx("k", Some(Version::new(0, 0)), 1);
        validate_block(&mut state, 1, &[plain(&a)], 0);
        // Endorsed before block 1 committed, validated in block 2.
        let stale = read_tx("k", Some(Version::new(0, 0)));
        let v = validate_block(&mut state, 2, &[plain(&stale)], 0);
        assert_eq!(v[0].status, TxStatus::MvccReadConflict);
        assert!(!v[0].intra_block);
    }

    #[test]
    fn sharp_tolerates_one_block_staleness() {
        let mut state = seeded();
        let a = update_tx("k", Some(Version::new(0, 0)), 1);
        validate_block(&mut state, 1, &[plain(&a)], 1);
        let stale = read_tx("k", Some(Version::new(0, 0)));
        let v = validate_block(&mut state, 2, &[plain(&stale)], 1);
        assert_eq!(v[0].status, TxStatus::Success, "1-block stale tolerated");
        // But two blocks of staleness is too much.
        let b = update_tx("k", Some(Version::new(1, 0)), 2);
        validate_block(&mut state, 3, &[plain(&b)], 1);
        let very_stale = read_tx("k", Some(Version::new(0, 0)));
        let v = validate_block(&mut state, 4, &[plain(&very_stale)], 1);
        assert_eq!(v[0].status, TxStatus::MvccReadConflict);
    }

    #[test]
    fn missing_key_appearing_is_conflict_even_for_sharp() {
        let mut state = WorldState::new();
        let creator = {
            let mut rw = ReadWriteSet::new();
            rw.record_write("new".into(), Some(Value::Int(1)));
            rw
        };
        validate_block(&mut state, 1, &[plain(&creator)], 1);
        let read_absent = read_tx("new", None);
        let v = validate_block(&mut state, 2, &[plain(&read_absent)], 1);
        assert_eq!(v[0].status, TxStatus::MvccReadConflict);
    }

    #[test]
    fn phantom_detected_on_key_set_change() {
        let mut state = WorldState::new();
        state.seed("r/a".into(), Value::Unit);
        // Scan observed only r/a.
        let mut scan = ReadWriteSet::new();
        scan.record_range(
            "r/".into(),
            "r/~".into(),
            vec![("r/a".into(), Version::new(0, 0))],
        );
        // Meanwhile a new key appears in the range.
        let mut insert = ReadWriteSet::new();
        insert.record_write("r/b".into(), Some(Value::Unit));
        validate_block(&mut state, 1, &[plain(&insert)], 0);
        let v = validate_block(&mut state, 2, &[plain(&scan)], 0);
        assert_eq!(v[0].status, TxStatus::PhantomReadConflict);

        // A version change met earlier in the scan than the key-set change
        // still loses to the phantom.
        let mut state = WorldState::new();
        state.seed("r/a".into(), Value::Int(0));
        let mut upd_and_insert = update_tx("r/a", Some(Version::new(0, 0)), 5);
        upd_and_insert.record_write("r/b".into(), Some(Value::Unit));
        validate_block(&mut state, 1, &[plain(&upd_and_insert)], 0);
        let v = validate_block(&mut state, 2, &[plain(&scan)], 0);
        assert_eq!(v[0].status, TxStatus::PhantomReadConflict);
    }

    #[test]
    fn range_version_change_is_mvcc_not_phantom() {
        let mut state = WorldState::new();
        state.seed("r/a".into(), Value::Int(0));
        let mut scan = ReadWriteSet::new();
        scan.record_range(
            "r/".into(),
            "r/~".into(),
            vec![("r/a".into(), Version::new(0, 0))],
        );
        let upd = update_tx("r/a", Some(Version::new(0, 0)), 5);
        validate_block(&mut state, 1, &[plain(&upd)], 0);
        let v = validate_block(&mut state, 2, &[plain(&scan)], 0);
        assert_eq!(v[0].status, TxStatus::MvccReadConflict);
        assert!(!v[0].intra_block);
    }

    #[test]
    fn endorse_mismatch_is_policy_failure() {
        let mut state = seeded();
        let rw = read_tx("k", Some(Version::new(0, 0)));
        let tx = TxToValidate {
            rwset: &rw,
            endorse_mismatch: true,
            sched_aborted: false,
            sched_policy_failed: false,
        };
        let v = validate_block(&mut state, 1, &[tx], 0);
        assert_eq!(v[0].status, TxStatus::EndorsementPolicyFailure);
    }

    #[test]
    fn scheduler_abort_is_mvcc_without_application() {
        let mut state = seeded();
        let rw = update_tx("k", Some(Version::new(0, 0)), 9);
        let tx = TxToValidate {
            rwset: &rw,
            endorse_mismatch: false,
            sched_aborted: true,
            sched_policy_failed: false,
        };
        let v = validate_block(&mut state, 1, &[tx], 0);
        assert_eq!(v[0].status, TxStatus::MvccReadConflict);
        assert_eq!(state.get("k").unwrap().value, Value::Int(0), "not applied");
    }

    #[test]
    fn deleted_key_read_is_conflict() {
        let mut state = seeded();
        let mut deleter = ReadWriteSet::new();
        deleter.record_read("k".into(), Some(Version::new(0, 0)));
        deleter.record_write("k".into(), None);
        validate_block(&mut state, 1, &[plain(&deleter)], 0);
        let stale = read_tx("k", Some(Version::new(0, 0)));
        let v = validate_block(&mut state, 2, &[plain(&stale)], 1);
        assert_eq!(
            v[0].status,
            TxStatus::MvccReadConflict,
            "Some→None not tolerated even by sharp"
        );
    }

    #[test]
    fn read_only_blocks_leave_state_untouched() {
        let mut state = seeded();
        let rw = read_tx("k", Some(Version::new(0, 0)));
        let v = validate_block(&mut state, 1, &[plain(&rw), plain(&rw)], 0);
        assert!(v.iter().all(|x| x.status == TxStatus::Success));
        assert_eq!(state.version_of("k"), Some(Version::new(0, 0)));
    }
}

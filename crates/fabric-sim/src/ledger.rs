//! The immutable ledger.
//!
//! Fabric appends *every* ordered transaction to the ledger — valid or not —
//! with a validation flag. BlockOptR's whole premise is that this log is a
//! complete record of the system's behaviour; the `blockoptr` crate derives
//! all nine attributes of its blockchain log from these envelopes.

use crate::rwset::ReadWriteSet;
use crate::types::{ClientId, Name, PeerId, TxId, TxType, Value};
use serde::{Deserialize, Serialize};
use sim_core::time::SimTime;
use std::fmt;
use std::sync::Arc;

/// Validation outcome of a committed transaction (paper attribute 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TxStatus {
    /// Valid: endorsements and read set checked out; writes were applied.
    Success,
    /// A point read's version was stale at validation time.
    MvccReadConflict,
    /// A range read's result set changed between execution and validation.
    PhantomReadConflict,
    /// Endorsements were missing, mismatched, or insufficient for the policy.
    EndorsementPolicyFailure,
}

impl TxStatus {
    /// Whether the transaction was committed as valid.
    pub fn is_success(self) -> bool {
        self == TxStatus::Success
    }

    /// Whether this is either flavour of read-conflict failure.
    pub fn is_read_conflict(self) -> bool {
        matches!(
            self,
            TxStatus::MvccReadConflict | TxStatus::PhantomReadConflict
        )
    }
}

impl fmt::Display for TxStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TxStatus::Success => "SUCCESS",
            TxStatus::MvccReadConflict => "MVCC_READ_CONFLICT",
            TxStatus::PhantomReadConflict => "PHANTOM_READ_CONFLICT",
            TxStatus::EndorsementPolicyFailure => "ENDORSEMENT_POLICY_FAILURE",
        };
        f.write_str(s)
    }
}

/// Why the orderer cut a block (paper §2.1: count, timeout, or bytes —
/// whichever is satisfied first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CutReason {
    /// The buffered transaction count reached `block_count`.
    Count,
    /// `block_timeout` elapsed since the first buffered transaction.
    Timeout,
    /// The buffered bytes reached `block_bytes`.
    Bytes,
    /// End of simulation flushed a partial block.
    Flush,
}

/// A committed transaction with everything the blockchain records about it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransactionEnvelope {
    /// Unique transaction id.
    pub id: TxId,
    /// Wall-clock (simulated) time the client created the proposal —
    /// the paper's *client timestamp* attribute.
    pub client_ts: SimTime,
    /// Time the client submitted the endorsed transaction to ordering.
    pub submit_ts: SimTime,
    /// Time the transaction's block was committed.
    pub commit_ts: SimTime,
    /// Chaincode (smart contract) the transaction executed.
    pub contract: Name,
    /// Smart-contract function name — the paper's *activity name*.
    pub activity: Name,
    /// Function arguments (shared with the originating request).
    pub args: Arc<[Value]>,
    /// Endorsing peers that signed the proposal.
    pub endorsers: Vec<PeerId>,
    /// Invoking client (and thereby its organization).
    pub invoker: ClientId,
    /// The proposal's read-write set (from the first endorser), shared
    /// with the endorsement results and the analyzer's records.
    pub rwset: Arc<ReadWriteSet>,
    /// Validation outcome.
    pub status: TxStatus,
    /// Transaction type derived from the read-write set.
    pub tx_type: TxType,
}

impl TransactionEnvelope {
    /// End-to-end latency: proposal creation → block commit.
    pub fn latency(&self) -> sim_core::time::SimDuration {
        self.commit_ts.since(self.client_ts)
    }
}

/// A block: an ordered run of transaction envelopes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Block {
    /// Height (genesis = 0 is implicit and empty; data blocks start at 1).
    pub number: u64,
    /// Why the orderer cut this block.
    pub cut_reason: CutReason,
    /// When the orderer cut it.
    pub cut_ts: SimTime,
    /// When peers finished validating and committing it.
    pub commit_ts: SimTime,
    /// The transactions, in commit order.
    pub txs: Vec<TransactionEnvelope>,
}

impl Block {
    /// Number of transactions in the block.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// Whether the block carries no transactions.
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }
}

/// The chain of committed blocks.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Ledger {
    blocks: Vec<Block>,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a block (heights must be contiguous and increasing).
    pub fn append(&mut self, block: Block) {
        if let Some(last) = self.blocks.last() {
            assert_eq!(
                block.number,
                last.number + 1,
                "ledger blocks must be contiguous"
            );
        }
        self.blocks.push(block);
    }

    /// All blocks in chain order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Height of the chain (number of blocks).
    pub fn height(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// The blocks with number `first` or higher, in chain order — the
    /// streaming accessor: a monitoring loop remembers the last block it
    /// ingested and asks for everything the chain has appended since.
    ///
    /// Data blocks are numbered contiguously from 1, so this is an O(1)
    /// slice, not a scan.
    pub fn blocks_from(&self, first: u64) -> &[Block] {
        let Some(head) = self.blocks.first() else {
            return &[];
        };
        let skip = first
            .saturating_sub(head.number)
            .min(self.blocks.len() as u64) as usize;
        &self.blocks[skip..]
    }

    /// Iterate over every transaction in commit order — the paper's
    /// *commit order* attribute is exactly this iteration order.
    pub fn transactions(&self) -> impl Iterator<Item = &TransactionEnvelope> {
        self.blocks.iter().flat_map(|b| b.txs.iter())
    }

    /// Total committed transactions (valid and invalid).
    pub fn tx_count(&self) -> usize {
        self.blocks.iter().map(Block::len).sum()
    }

    /// Count of transactions with the given status.
    pub fn count_status(&self, status: TxStatus) -> usize {
        self.transactions().filter(|t| t.status == status).count()
    }

    /// Mean number of transactions per block — the paper's `Bsizeavg`.
    pub fn avg_block_size(&self) -> f64 {
        if self.blocks.is_empty() {
            0.0
        } else {
            self.tx_count() as f64 / self.blocks.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::OrgId;

    fn envelope(id: u64, status: TxStatus) -> TransactionEnvelope {
        TransactionEnvelope {
            id: TxId(id),
            client_ts: SimTime::from_millis(id * 10),
            submit_ts: SimTime::from_millis(id * 10 + 5),
            commit_ts: SimTime::from_millis(id * 10 + 100),
            contract: "cc".into(),
            activity: "act".into(),
            args: vec![].into(),
            endorsers: vec![PeerId {
                org: OrgId(0),
                index: 0,
            }],
            invoker: ClientId {
                org: OrgId(0),
                index: 0,
            },
            rwset: ReadWriteSet::new().into(),
            status,
            tx_type: TxType::Read,
        }
    }

    fn block(number: u64, ids: &[u64]) -> Block {
        Block {
            number,
            cut_reason: CutReason::Count,
            cut_ts: SimTime::from_millis(number * 1000),
            commit_ts: SimTime::from_millis(number * 1000 + 200),
            txs: ids
                .iter()
                .map(|&i| envelope(i, TxStatus::Success))
                .collect(),
        }
    }

    #[test]
    fn ledger_appends_contiguously() {
        let mut l = Ledger::new();
        l.append(block(1, &[1, 2]));
        l.append(block(2, &[3]));
        assert_eq!(l.height(), 2);
        assert_eq!(l.tx_count(), 3);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn ledger_rejects_gaps() {
        let mut l = Ledger::new();
        l.append(block(1, &[1]));
        l.append(block(3, &[2]));
    }

    #[test]
    fn blocks_from_slices_by_height() {
        let mut l = Ledger::new();
        l.append(block(1, &[1]));
        l.append(block(2, &[2]));
        l.append(block(3, &[3]));
        assert_eq!(l.blocks_from(0).len(), 3);
        assert_eq!(l.blocks_from(1).len(), 3);
        assert_eq!(l.blocks_from(2).len(), 2);
        assert_eq!(l.blocks_from(2)[0].number, 2);
        assert_eq!(l.blocks_from(4).len(), 0);
        assert_eq!(l.blocks_from(99).len(), 0);
        assert!(Ledger::new().blocks_from(1).is_empty());
    }

    #[test]
    fn commit_order_is_block_then_position() {
        let mut l = Ledger::new();
        l.append(block(1, &[10, 11]));
        l.append(block(2, &[12]));
        let ids: Vec<u64> = l.transactions().map(|t| t.id.0).collect();
        assert_eq!(ids, vec![10, 11, 12]);
    }

    #[test]
    fn status_counting() {
        let mut b = block(1, &[]);
        b.txs.push(envelope(1, TxStatus::Success));
        b.txs.push(envelope(2, TxStatus::MvccReadConflict));
        b.txs.push(envelope(3, TxStatus::MvccReadConflict));
        let mut l = Ledger::new();
        l.append(b);
        assert_eq!(l.count_status(TxStatus::Success), 1);
        assert_eq!(l.count_status(TxStatus::MvccReadConflict), 2);
        assert_eq!(l.count_status(TxStatus::PhantomReadConflict), 0);
    }

    #[test]
    fn avg_block_size() {
        let mut l = Ledger::new();
        assert_eq!(l.avg_block_size(), 0.0);
        l.append(block(1, &[1, 2, 3, 4]));
        l.append(block(2, &[5, 6]));
        assert!((l.avg_block_size() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn latency_is_commit_minus_client_ts() {
        let e = envelope(5, TxStatus::Success);
        assert_eq!(e.latency(), sim_core::time::SimDuration::from_millis(100));
    }

    #[test]
    fn status_predicates() {
        assert!(TxStatus::Success.is_success());
        assert!(TxStatus::MvccReadConflict.is_read_conflict());
        assert!(TxStatus::PhantomReadConflict.is_read_conflict());
        assert!(!TxStatus::EndorsementPolicyFailure.is_read_conflict());
        assert_eq!(
            TxStatus::EndorsementPolicyFailure.to_string(),
            "ENDORSEMENT_POLICY_FAILURE"
        );
    }
}

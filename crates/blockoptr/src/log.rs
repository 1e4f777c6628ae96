//! Blockchain data preprocessing (paper §4.1).
//!
//! BlockOptR reads the entire chain and produces a *blockchain log*: one
//! record per transaction with the paper's nine attributes —
//!
//! 1. client timestamp, 2. activity name, 3. function arguments,
//! 4. endorsers, 5. invokers, 6. read-write set, 7. transaction status,
//! 8. transaction type (derived), 9. commit order.
//!
//! Setup/configuration transactions are cleaned out by a caller-supplied
//! predicate (the simulated networks have none by default, but the hook
//! mirrors the tool's cleaning step).

use fabric_sim::ledger::{Ledger, TransactionEnvelope, TxStatus};
use fabric_sim::rwset::ReadWriteSet;
use fabric_sim::types::{ClientId, Name, PeerId, TxType, Value};
use serde::{Deserialize, Serialize};
use sim_core::time::SimTime;
use std::fmt;
use std::sync::Arc;

/// One preprocessed transaction record (the nine attributes).
///
/// Names, arguments and the read-write set are shared handles: a record
/// built from a ledger points at its envelope's data instead of copying it.
/// They serialize as their contents.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TxRecord {
    /// Attribute 9: position in commit order (0-based over the whole log).
    pub commit_index: usize,
    /// Block that carried the transaction.
    pub block: u64,
    /// Attribute 1: client timestamp.
    pub client_ts: SimTime,
    /// Commit timestamp (for latency analyses).
    pub commit_ts: SimTime,
    /// Chaincode name.
    pub contract: Name,
    /// Attribute 2: activity (smart-contract function) name.
    pub activity: Name,
    /// Attribute 3: function arguments.
    pub args: Arc<[Value]>,
    /// Attribute 4: endorsing peers.
    pub endorsers: Vec<PeerId>,
    /// Attribute 5: invoking client (carries its organization).
    pub invoker: ClientId,
    /// Attribute 6: the read-write set.
    pub rwset: Arc<ReadWriteSet>,
    /// Attribute 7: transaction status.
    pub status: TxStatus,
    /// Attribute 8: transaction type (derived from the read-write set).
    pub tx_type: TxType,
}

impl TxRecord {
    /// Whether the transaction failed validation.
    pub fn failed(&self) -> bool {
        !self.status.is_success()
    }
}

/// The preprocessed blockchain log, in commit order.
///
/// Storage is a *ring over a `Vec`*: live records are `records[head..]`,
/// and sliding-window eviction advances `head` instead of draining the
/// front (which memmoved the whole retained window on every evicting
/// batch). The dead prefix is compacted away only once it outgrows the
/// live suffix, so eviction is amortized O(1) per evicted record while
/// [`records`](Self::records) keeps returning one contiguous slice — the
/// property the analysis layer's absolute-position lookups (conflict
/// correlation) and every `windows(2)` scan rely on, and the reason this
/// ring is an offset `Vec` rather than a `VecDeque` (whose two-slice view
/// would ripple through every consumer).
#[derive(Default)]
pub struct BlockchainLog {
    records: Vec<TxRecord>,
    /// Index of the first live record; everything before it is evicted.
    head: usize,
    blocks: usize,
}

impl fmt::Debug for BlockchainLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Only the live view: a windowed log must be indistinguishable
        // from a fresh log holding the same suffix.
        f.debug_struct("BlockchainLog")
            .field("records", &self.records())
            .field("blocks", &self.blocks)
            .finish()
    }
}

impl Clone for BlockchainLog {
    fn clone(&self) -> Self {
        // Drop the dead prefix: clones pay for live data only.
        BlockchainLog {
            records: self.records().to_vec(),
            head: 0,
            blocks: self.blocks,
        }
    }
}

impl Serialize for BlockchainLog {
    fn serialize(&self, w: &mut serde::ser::Serializer) {
        // Same shape the derived impl produced before the ring existed
        // (`{ "records": [...], "blocks": n }`), so exported logs stay
        // wire-compatible.
        w.begin('{');
        w.field("records", self.records());
        w.field("blocks", &self.blocks);
        w.end('}');
    }
}

impl Deserialize for BlockchainLog {
    fn deserialize(r: &mut serde::de::Reader<'_>) -> Result<Self, serde::de::Error> {
        // The derive's rules: first occurrence wins, unknown keys skipped.
        let (mut records, mut blocks) = (None, None);
        r.map("object (BlockchainLog)", |r| {
            match &*r.key()? {
                "records" if records.is_none() => records = Some(Deserialize::deserialize(r)?),
                "blocks" if blocks.is_none() => blocks = Some(Deserialize::deserialize(r)?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(BlockchainLog {
            records: records.ok_or_else(|| r.missing_field("records"))?,
            head: 0,
            blocks: blocks.ok_or_else(|| r.missing_field("blocks"))?,
        })
    }
}

impl BlockchainLog {
    /// Extract the log from a ledger, keeping every transaction.
    pub fn from_ledger(ledger: &Ledger) -> Self {
        Self::from_ledger_filtered(ledger, |_| true)
    }

    /// Extract the log, keeping transactions for which `keep` returns true
    /// (the cleaning step: drop configuration/setup transactions).
    pub fn from_ledger_filtered(
        ledger: &Ledger,
        keep: impl Fn(&TransactionEnvelope) -> bool,
    ) -> Self {
        let mut log = BlockchainLog {
            records: Vec::with_capacity(ledger.tx_count()),
            head: 0,
            blocks: 0,
        };
        for block in ledger.blocks() {
            log.append_block(block, &keep);
        }
        log
    }

    /// Append one committed block's transactions — the streaming extraction
    /// step: a `Session` calls this once per new block instead of re-reading
    /// the whole chain. Commit indices continue from the existing records;
    /// `keep` is the cleaning predicate. Returns how many records were added.
    ///
    /// Each record shares its envelope's names, arguments and read-write
    /// set, so only the endorser list is copied.
    pub fn append_block(
        &mut self,
        block: &fabric_sim::ledger::Block,
        keep: impl Fn(&TransactionEnvelope) -> bool,
    ) -> usize {
        // Continue from the last commit index, not the record count: a
        // session may hold caller-indexed records (a filtered export slice)
        // whose indices exceed its length, and commit indices must stay
        // monotone for conflict distances.
        let mut commit_index = self.records.last().map(|r| r.commit_index + 1).unwrap_or(0);
        let before = self.records.len();
        for tx in &block.txs {
            if !keep(tx) {
                continue;
            }
            self.records.push(TxRecord {
                commit_index,
                block: block.number,
                client_ts: tx.client_ts,
                commit_ts: tx.commit_ts,
                contract: tx.contract.clone(),
                activity: tx.activity.clone(),
                args: tx.args.clone(),
                endorsers: tx.endorsers.clone(),
                invoker: tx.invoker,
                rwset: tx.rwset.clone(),
                status: tx.status,
                tx_type: tx.tx_type,
            });
            commit_index += 1;
        }
        self.blocks += 1;
        self.records.len() - before
    }

    /// All records in commit order.
    pub fn records(&self) -> &[TxRecord] {
        &self.records[self.head..]
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.records.len() - self.head
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of blocks the log spans.
    pub fn block_count(&self) -> usize {
        self.blocks
    }

    /// Mean transactions per block (`Bsizeavg`).
    pub fn avg_block_size(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.len() as f64 / self.blocks as f64
        }
    }

    /// Failed transactions.
    pub fn failures(&self) -> impl Iterator<Item = &TxRecord> {
        self.records().iter().filter(|r| r.failed())
    }

    /// Count by status.
    pub fn count_status(&self, status: TxStatus) -> usize {
        self.records().iter().filter(|r| r.status == status).count()
    }

    /// The distinct activity names, sorted.
    pub fn activities(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .records()
            .iter()
            .map(|r| r.activity.to_string())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The measurement window (first client send → last commit), seconds.
    pub fn window_secs(&self) -> f64 {
        let (Some(first), Some(last)) = (
            self.records().iter().map(|r| r.client_ts).min(),
            self.records().iter().map(|r| r.commit_ts).max(),
        ) else {
            return 0.0;
        };
        last.since(first).as_secs_f64()
    }

    /// Construct directly from records (tests, imports).
    pub fn from_records(records: Vec<TxRecord>, blocks: usize) -> Self {
        BlockchainLog {
            records,
            head: 0,
            blocks,
        }
    }

    /// Decompose into records and block count (streaming hand-off without
    /// cloning).
    pub fn into_records(mut self) -> (Vec<TxRecord>, usize) {
        if self.head > 0 {
            self.records.drain(..self.head);
        }
        (self.records, self.blocks)
    }

    /// Append one record as-is. Commit indices are the caller's: the paper
    /// pipeline uses them for conflict distances, so rewriting them here
    /// would change analysis results for pre-indexed logs.
    pub(crate) fn push_record(&mut self, record: TxRecord) {
        self.records.push(record);
    }

    /// Raise the block count by `n` (streaming ingestion of pre-extracted
    /// log windows).
    pub(crate) fn add_blocks(&mut self, n: usize) {
        self.blocks += n;
    }

    /// Drop the oldest `k` live records and set the block tally to
    /// `blocks` (sliding-window eviction: the caller counts the distinct
    /// blocks the retained records span).
    ///
    /// Amortized O(1) per evicted record: the ring head advances, and the
    /// dead prefix is compacted only once it outgrows the live suffix —
    /// each O(live) compaction is paid for by at least `live` prior
    /// evictions. (The old `drain(..k)` memmoved the whole retained window
    /// on every evicting batch, O(window) even for a one-record eviction.)
    /// Each evicted record's endorser list, the one field it owns outright,
    /// is freed here, by the batch that evicts it. Its shared handles are
    /// released at the compaction; a record built from a ledger shares
    /// them with its envelope, so releasing one frees nothing.
    pub(crate) fn evict_front(&mut self, k: usize, blocks: usize) {
        debug_assert!(k <= self.len());
        for dead in &mut self.records[self.head..self.head + k] {
            dead.endorsers = Vec::new();
        }
        self.head += k;
        self.blocks = blocks;
        if self.head >= self.records.len() - self.head {
            self.records.drain(..self.head);
            self.head = 0;
        }
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared builders for the metric and recommendation tests.

    use super::*;
    use fabric_sim::rwset::Version;
    use fabric_sim::types::OrgId;

    /// A configurable record builder.
    pub struct Rec {
        pub record: TxRecord,
    }

    impl Rec {
        pub fn new(commit_index: usize, activity: &str) -> Self {
            Rec {
                record: TxRecord {
                    commit_index,
                    block: (commit_index / 10) as u64 + 1,
                    client_ts: SimTime::from_millis(commit_index as u64 * 100),
                    commit_ts: SimTime::from_millis(commit_index as u64 * 100 + 1_000),
                    contract: "cc".into(),
                    activity: activity.into(),
                    args: Arc::from([]),
                    endorsers: vec![PeerId {
                        org: OrgId(0),
                        index: 0,
                    }],
                    invoker: ClientId {
                        org: OrgId(0),
                        index: 0,
                    },
                    rwset: Arc::default(),
                    status: TxStatus::Success,
                    tx_type: TxType::Read,
                },
            }
        }

        /// The record's read-write set, unshared for editing.
        fn rwset(&mut self) -> &mut ReadWriteSet {
            Arc::make_mut(&mut self.record.rwset)
        }

        pub fn status(mut self, status: TxStatus) -> Self {
            self.record.status = status;
            self
        }

        pub fn reads(mut self, keys: &[&str]) -> Self {
            for &k in keys {
                self.rwset().record_read(k.into(), Some(Version::new(0, 0)));
            }
            self.record.tx_type = self.record.rwset.tx_type();
            self
        }

        pub fn writes(mut self, keys: &[&str]) -> Self {
            for &k in keys {
                self.rwset().record_write(k.into(), Some(Value::Int(1)));
            }
            self.record.tx_type = self.record.rwset.tx_type();
            self
        }

        pub fn writes_value(mut self, key: &str, value: Value) -> Self {
            self.rwset().record_write(key.into(), Some(value));
            self.record.tx_type = self.record.rwset.tx_type();
            self
        }

        /// Record a range scan over `[start, end)` that observed `keys`.
        pub fn scans(mut self, start: &str, end: &str, keys: &[&str]) -> Self {
            let observed = keys.iter().map(|&k| (k.into(), Version::new(0, 0)));
            let observed = observed.collect();
            self.rwset()
                .record_range(start.into(), end.into(), observed);
            self.record.tx_type = self.record.rwset.tx_type();
            self
        }

        pub fn args(mut self, args: Vec<Value>) -> Self {
            self.record.args = args.into();
            self
        }

        pub fn invoker_org(mut self, org: u16) -> Self {
            self.record.invoker.org = OrgId(org);
            self
        }

        pub fn endorsed_by(mut self, orgs: &[u16]) -> Self {
            self.record.endorsers = orgs
                .iter()
                .map(|&o| PeerId {
                    org: OrgId(o),
                    index: 0,
                })
                .collect();
            self
        }

        pub fn client_ts_ms(mut self, ms: u64) -> Self {
            self.record.client_ts = SimTime::from_millis(ms);
            self
        }

        pub fn block(mut self, block: u64) -> Self {
            self.record.block = block;
            self
        }

        pub fn build(self) -> TxRecord {
            self.record
        }
    }

    pub fn log_of(records: Vec<TxRecord>) -> BlockchainLog {
        let blocks = records.iter().map(|r| r.block).max().unwrap_or(0) as usize;
        BlockchainLog::from_records(records, blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;

    #[test]
    fn extraction_preserves_commit_order() {
        let log = log_of(vec![
            Rec::new(0, "a").build(),
            Rec::new(1, "b").build(),
            Rec::new(2, "a").build(),
        ]);
        let idx: Vec<usize> = log.records().iter().map(|r| r.commit_index).collect();
        assert_eq!(idx, vec![0, 1, 2]);
        assert_eq!(log.len(), 3);
        assert_eq!(log.activities(), vec!["a", "b"]);
    }

    #[test]
    fn status_counting_and_failures() {
        let log = log_of(vec![
            Rec::new(0, "a").build(),
            Rec::new(1, "a").status(TxStatus::MvccReadConflict).build(),
            Rec::new(2, "a")
                .status(TxStatus::EndorsementPolicyFailure)
                .build(),
        ]);
        assert_eq!(log.count_status(TxStatus::Success), 1);
        assert_eq!(log.failures().count(), 2);
    }

    #[test]
    fn window_spans_send_to_commit() {
        let log = log_of(vec![
            Rec::new(0, "a").client_ts_ms(0).build(),
            Rec::new(1, "a").client_ts_ms(500).build(),
        ]);
        // Last commit = 1*100+1000 = 1100 ms.
        assert!((log.window_secs() - 1.1).abs() < 1e-9);
    }

    #[test]
    fn ring_eviction_is_correct_across_compactions() {
        let mut log = log_of((0..32).map(|i| Rec::new(i, "a").build()).collect());
        // Evict in odd-sized batches so the head crosses the compaction
        // threshold repeatedly; the live view must always be the suffix.
        let mut evicted = 0usize;
        for batch in [1usize, 3, 7, 2, 9, 5] {
            log.evict_front(batch, 4);
            evicted += batch;
            assert_eq!(log.len(), 32 - evicted);
            let idx: Vec<usize> = log.records().iter().map(|r| r.commit_index).collect();
            let expect: Vec<usize> = (evicted..32).collect();
            assert_eq!(idx, expect, "after evicting {evicted}");
            assert_eq!(log.block_count(), 4);
        }
        // Appends after eviction land behind the live suffix.
        log.push_record(Rec::new(99, "b").build());
        assert_eq!(log.records().last().unwrap().commit_index, 99);
        // Serialization sees only the live view and round-trips.
        let json = serde_json::to_string(&log).unwrap();
        let back: BlockchainLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), log.len());
        assert_eq!(
            back.records().first().unwrap().commit_index,
            log.records().first().unwrap().commit_index
        );
        // Debug and Clone expose the live view only.
        assert_eq!(format!("{log:?}"), format!("{:?}", log.clone()));
        let (records, _) = log.into_records();
        assert_eq!(records.len(), 32 - evicted + 1);
    }

    #[test]
    fn empty_log_is_safe() {
        let log = BlockchainLog::default();
        assert!(log.is_empty());
        assert_eq!(log.window_secs(), 0.0);
        assert_eq!(log.avg_block_size(), 0.0);
    }

    #[test]
    fn from_ledger_applies_filter() {
        // Build a tiny ledger through the simulator types directly.
        use fabric_sim::ledger::{Block, CutReason, Ledger, TransactionEnvelope};
        use fabric_sim::types::{OrgId, TxId};
        let env = |id: u64, activity: &str| TransactionEnvelope {
            id: TxId(id),
            client_ts: SimTime::ZERO,
            submit_ts: SimTime::ZERO,
            commit_ts: SimTime::from_millis(10),
            contract: "cc".into(),
            activity: activity.into(),
            args: vec![].into(),
            endorsers: vec![],
            invoker: ClientId {
                org: OrgId(0),
                index: 0,
            },
            rwset: Arc::default(),
            status: TxStatus::Success,
            tx_type: TxType::Read,
        };
        let mut ledger = Ledger::new();
        ledger.append(Block {
            number: 1,
            cut_reason: CutReason::Count,
            cut_ts: SimTime::ZERO,
            commit_ts: SimTime::from_millis(10),
            txs: vec![env(0, "setup"), env(1, "work")],
        });
        let log = BlockchainLog::from_ledger_filtered(&ledger, |t| t.activity.as_ref() != "setup");
        assert_eq!(log.len(), 1);
        assert_eq!(&*log.records()[0].activity, "work");
        assert_eq!(log.records()[0].commit_index, 0, "re-indexed after clean");
        let full = BlockchainLog::from_ledger(&ledger);
        assert_eq!(full.len(), 2);
    }

    /// A record shares its envelope's data, and a run names each distinct
    /// key with one allocation: every read, write, range bound and range
    /// observation of one key is the same handle.
    #[test]
    fn records_and_keys_share_the_runs_allocations() {
        use fabric_sim::types::Key;
        use std::collections::BTreeMap;
        let mut observed = 0;
        // dv scans ranges; lap reads keys before they exist, then writes
        // them.
        for name in ["scm", "dv", "lap"] {
            let spec = workload::ScenarioSpec::builtin(name)
                .unwrap()
                .with_transactions(400);
            let (bundle, config) = spec.build().unwrap();
            let ledger = bundle.run(config).ledger;
            let log = BlockchainLog::from_ledger(&ledger);
            assert_eq!(log.len(), ledger.tx_count());
            let mut handles: BTreeMap<&str, &Key> = BTreeMap::new();
            let mut occurrences = 0;
            for (record, tx) in log.records().iter().zip(ledger.transactions()) {
                assert!(Arc::ptr_eq(&record.rwset, &tx.rwset), "{name}");
                assert!(Arc::ptr_eq(&record.args, &tx.args), "{name}");
                assert!(Arc::ptr_eq(&record.activity, &tx.activity), "{name}");
                assert!(Arc::ptr_eq(&record.contract, &tx.contract), "{name}");
                let rw = &tx.rwset;
                let points = rw.reads.iter().map(|r| &r.key);
                let points = points.chain(rw.writes.iter().map(|w| &w.key));
                let ranges = rw.range_reads.iter().flat_map(|rr| {
                    observed += rr.observed.len();
                    let scanned = rr.observed.iter().map(|(k, _)| k);
                    [&rr.start, &rr.end].into_iter().chain(scanned)
                });
                for key in points.chain(ranges) {
                    occurrences += 1;
                    let first = *handles.entry(&**key).or_insert(key);
                    assert!(Arc::ptr_eq(first, key), "{name}: {key} has two allocations");
                }
            }
            assert!(occurrences > handles.len(), "{name}: keys recur");
        }
        assert!(observed > 0, "range observations are covered");
    }
}

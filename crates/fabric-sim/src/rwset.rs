//! Read-write sets with MVCC versions.
//!
//! Endorsers record every state access during simulated chaincode execution.
//! The validator later re-checks the recorded versions against the committed
//! world state — the mechanism behind Fabric's MVCC read conflicts and
//! phantom read conflicts (paper §2.1).

use crate::types::{Key, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// `keys`, each taken `as_key`, sorted and deduplicated, in one allocation
/// of exactly their count.
fn sorted_distinct<'a, K: Ord>(
    keys: impl Iterator<Item = &'a Key> + Clone,
    as_key: impl FnMut(&'a Key) -> K,
) -> Vec<K> {
    let mut out = Vec::with_capacity(keys.clone().count());
    out.extend(keys.map(as_key));
    out.sort_unstable();
    out.dedup();
    out
}

/// The MVCC version of a committed value: the block height and the position
/// of the writing transaction within that block (Fabric's `(blockNum, txNum)`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Version {
    /// Block height of the write.
    pub block: u64,
    /// Index of the writing transaction within the block.
    pub tx: u32,
}

impl Version {
    /// Construct a version.
    pub fn new(block: u64, tx: u32) -> Self {
        Version { block, tx }
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.block, self.tx)
    }
}

/// One key read, with the version observed at execution time
/// (`None` when the key did not exist).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ReadItem {
    /// Key that was read.
    pub key: Key,
    /// Version observed (None = key absent).
    pub version: Option<Version>,
}

/// One key written (`None` value = delete).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WriteItem {
    /// Key being written.
    pub key: Key,
    /// New value, or `None` for a delete.
    pub value: Option<Value>,
}

impl WriteItem {
    /// Whether this write is a deletion.
    pub fn is_delete(&self) -> bool {
        self.value.is_none()
    }
}

/// A range scan: the half-open key interval and the exact result observed at
/// execution time. Validation re-runs the scan; a different key set is a
/// phantom read conflict, a changed version of a returned key is a plain MVCC
/// read conflict.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RangeRead {
    /// Inclusive start of the scanned interval.
    pub start: Key,
    /// Exclusive end of the scanned interval.
    pub end: Key,
    /// `(key, version)` pairs the scan returned during execution.
    pub observed: Vec<(Key, Version)>,
}

/// The complete read-write set produced by one endorsement execution.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ReadWriteSet {
    /// Point reads with observed versions.
    pub reads: Vec<ReadItem>,
    /// Writes (and deletes) in execution order.
    pub writes: Vec<WriteItem>,
    /// Range scans with observed result sets.
    pub range_reads: Vec<RangeRead>,
}

impl ReadWriteSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a point read (first-read-wins: Fabric keeps the first observed
    /// version if a key is read twice in one execution).
    pub fn record_read(&mut self, key: Key, version: Option<Version>) {
        if !self.reads.iter().any(|r| r.key == key) {
            self.reads.push(ReadItem { key, version });
        }
    }

    /// Record a write; a later write to the same key replaces the earlier
    /// (last-write-wins within a transaction, as in Fabric's write set).
    pub fn record_write(&mut self, key: Key, value: Option<Value>) {
        if let Some(existing) = self.writes.iter_mut().find(|w| w.key == key) {
            existing.value = value;
        } else {
            self.writes.push(WriteItem { key, value });
        }
    }

    /// Record a range scan result.
    pub fn record_range(&mut self, start: Key, end: Key, observed: Vec<(Key, Version)>) {
        self.range_reads.push(RangeRead {
            start,
            end,
            observed,
        });
    }

    /// Distinct keys read (point reads only), sorted.
    pub fn read_keys(&self) -> Vec<&str> {
        sorted_distinct(self.reads.iter().map(|r| &r.key), |k| &**k)
    }

    /// Distinct keys written (including deletes), sorted.
    pub fn write_keys(&self) -> Vec<&str> {
        sorted_distinct(self.writes.iter().map(|w| &w.key), |k| &**k)
    }

    /// Distinct keys accessed in any way (reads, writes, range results),
    /// sorted, as shared handles to this set's own keys. One `Vec` sized
    /// by the accesses: a streaming analysis computes it once per record
    /// it ingests and keeps it until the record is evicted.
    pub fn all_keys(&self) -> Vec<Key> {
        let ranges = self.range_reads.iter();
        let keys = self
            .reads
            .iter()
            .map(|r| &r.key)
            .chain(self.writes.iter().map(|w| &w.key))
            .chain(ranges.flat_map(|rr| rr.observed.iter().map(|(k, _)| k)));
        sorted_distinct(keys, Key::clone)
    }

    /// Whether this transaction writes anything.
    pub fn has_writes(&self) -> bool {
        !self.writes.is_empty()
    }

    /// Whether this transaction deletes anything.
    pub fn has_deletes(&self) -> bool {
        self.writes.iter().any(WriteItem::is_delete)
    }

    /// Whether the point-read and write key sets overlap (an "update").
    /// Compares keys pairwise: a read-write set holds a handful of keys, and
    /// the engine asks this of every committed transaction.
    pub fn reads_overlap_writes(&self) -> bool {
        self.reads
            .iter()
            .any(|r| self.writes.iter().any(|w| w.key == r.key))
    }

    /// Rough serialized size in bytes (keys + values + versions), used for
    /// block-bytes cutting.
    pub fn approx_size(&self) -> u64 {
        let reads: u64 = self.reads.iter().map(|r| r.key.len() as u64 + 12).sum();
        let writes: u64 = self
            .writes
            .iter()
            .map(|w| w.key.len() as u64 + w.value.as_ref().map_or(1, Value::approx_size))
            .sum();
        let ranges: u64 = self
            .range_reads
            .iter()
            .map(|rr| {
                rr.start.len() as u64
                    + rr.end.len() as u64
                    + rr.observed
                        .iter()
                        .map(|(k, _)| k.len() as u64 + 12)
                        .sum::<u64>()
            })
            .sum();
        reads + writes + ranges
    }

    /// Derive the paper's transaction-type attribute from the access pattern.
    ///
    /// Priority mirrors the paper's vocabulary: `delete` > `range read` >
    /// `update` (read∩write ≠ ∅) > `write` (blind write) > `read`.
    pub fn tx_type(&self) -> crate::types::TxType {
        use crate::types::TxType;
        if self.has_deletes() {
            TxType::Delete
        } else if !self.range_reads.is_empty() && !self.has_writes() {
            TxType::RangeRead
        } else if self.reads_overlap_writes() {
            TxType::Update
        } else if self.has_writes() {
            TxType::Write
        } else {
            TxType::Read
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TxType;

    fn v(b: u64, t: u32) -> Option<Version> {
        Some(Version::new(b, t))
    }

    #[test]
    fn first_read_wins() {
        let mut rw = ReadWriteSet::new();
        rw.record_read("k".into(), v(1, 0));
        rw.record_read("k".into(), v(2, 0));
        assert_eq!(rw.reads.len(), 1);
        assert_eq!(rw.reads[0].version, v(1, 0));
    }

    #[test]
    fn last_write_wins() {
        let mut rw = ReadWriteSet::new();
        rw.record_write("k".into(), Some(Value::Int(1)));
        rw.record_write("k".into(), Some(Value::Int(2)));
        assert_eq!(rw.writes.len(), 1);
        assert_eq!(rw.writes[0].value, Some(Value::Int(2)));
    }

    #[test]
    fn type_derivation_read() {
        let mut rw = ReadWriteSet::new();
        rw.record_read("a".into(), v(0, 0));
        assert_eq!(rw.tx_type(), TxType::Read);
    }

    #[test]
    fn type_derivation_update_vs_write() {
        let mut rw = ReadWriteSet::new();
        rw.record_read("a".into(), v(0, 0));
        rw.record_write("a".into(), Some(Value::Int(1)));
        assert_eq!(rw.tx_type(), TxType::Update);

        let mut blind = ReadWriteSet::new();
        blind.record_read("a".into(), v(0, 0));
        blind.record_write("b".into(), Some(Value::Int(1)));
        assert_eq!(blind.tx_type(), TxType::Write);
    }

    #[test]
    fn type_derivation_range_and_delete() {
        let mut rw = ReadWriteSet::new();
        rw.record_range("a".into(), "z".into(), vec![]);
        assert_eq!(rw.tx_type(), TxType::RangeRead);

        rw.record_write("k".into(), None);
        assert_eq!(rw.tx_type(), TxType::Delete, "delete outranks range read");
    }

    #[test]
    fn range_read_with_write_is_update_like() {
        // A scan plus a write to a scanned key: classified by write overlap.
        let mut rw = ReadWriteSet::new();
        rw.record_range(
            "a".into(),
            "z".into(),
            vec![("b".into(), Version::new(0, 0))],
        );
        rw.record_write("b".into(), Some(Value::Int(9)));
        assert_eq!(rw.tx_type(), TxType::Write, "no point-read overlap");
    }

    #[test]
    fn key_sets_are_distinct_and_complete() {
        let mut rw = ReadWriteSet::new();
        rw.record_read("r1".into(), None);
        rw.record_write("w1".into(), Some(Value::Unit));
        rw.record_range(
            "a".into(),
            "z".into(),
            vec![("s1".into(), Version::new(0, 0))],
        );
        rw.record_read("w1".into(), None);
        assert_eq!(rw.read_keys(), ["r1", "w1"]);
        assert_eq!(rw.write_keys(), ["w1"]);
        let all: Vec<Key> = ["r1", "s1", "w1"].map(Key::from).into();
        assert_eq!(rw.all_keys(), all, "sorted, each key once");
    }

    #[test]
    fn approx_size_grows_with_content() {
        let mut small = ReadWriteSet::new();
        small.record_read("k".into(), v(0, 0));
        let mut big = small.clone();
        big.record_write("key2".into(), Some(Value::Str("payload".into())));
        assert!(big.approx_size() > small.approx_size());
    }

    #[test]
    fn version_ordering_follows_block_then_tx() {
        assert!(Version::new(1, 5) < Version::new(2, 0));
        assert!(Version::new(2, 1) < Version::new(2, 2));
        assert_eq!(Version::new(3, 4).to_string(), "3:4");
    }
}

//! Block-size metrics (paper §4.3 (3)).
//!
//! `Bsizeavg` — the realized mean block size — is derived from the log;
//! the configured `Bcount`/`Btimeout` come from the channel configuration
//! and are attached by the caller when known.

use crate::log::BlockchainLog;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Realized block statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlockMetrics {
    /// Number of blocks in the log.
    pub blocks: usize,
    /// Mean transactions per block (`Bsizeavg`).
    pub avg_block_size: f64,
    /// Largest block observed.
    pub max_block_size: usize,
    /// Smallest block observed.
    pub min_block_size: usize,
}

impl BlockMetrics {
    /// Derive from the per-record block numbers.
    pub fn derive(log: &BlockchainLog) -> BlockMetrics {
        let mut sizes: BTreeMap<u64, usize> = BTreeMap::new();
        for r in log.records() {
            *sizes.entry(r.block).or_insert(0) += 1;
        }
        Self::from_sizes(&sizes)
    }

    /// Derive from an externally maintained `block number → size` map (the
    /// streaming session keeps this map current as blocks arrive).
    pub fn from_sizes(sizes: &BTreeMap<u64, usize>) -> BlockMetrics {
        let blocks = sizes.len();
        let total: usize = sizes.values().sum();
        BlockMetrics {
            blocks,
            avg_block_size: if blocks == 0 {
                0.0
            } else {
                total as f64 / blocks as f64
            },
            max_block_size: sizes.values().copied().max().unwrap_or(0),
            min_block_size: sizes.values().copied().min().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::test_support::{log_of, Rec};

    #[test]
    fn block_sizes_counted() {
        let log = log_of(vec![
            Rec::new(0, "a").block(1).build(),
            Rec::new(1, "a").block(1).build(),
            Rec::new(2, "a").block(1).build(),
            Rec::new(3, "a").block(2).build(),
        ]);
        let m = BlockMetrics::derive(&log);
        assert_eq!(m.blocks, 2);
        assert!((m.avg_block_size - 2.0).abs() < 1e-9);
        assert_eq!(m.max_block_size, 3);
        assert_eq!(m.min_block_size, 1);
    }

    #[test]
    fn empty_log() {
        let m = BlockMetrics::derive(&BlockchainLog::default());
        assert_eq!(m.blocks, 0);
        assert_eq!(m.avg_block_size, 0.0);
    }
}

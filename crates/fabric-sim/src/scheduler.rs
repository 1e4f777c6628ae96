//! Block schedulers: vanilla FIFO, Fabric++ and FabricSharp baselines.
//!
//! The paper (§6.4) layers BlockOptR on top of two published Fabric
//! optimizations that reorder transactions inside the ordering service to
//! mitigate MVCC read conflicts:
//!
//! * **Fabric++** (Sharma et al., SIGMOD'19) builds an intra-block conflict
//!   graph and re-arranges transactions so that readers of a key precede its
//!   writers; transactions trapped in dependency cycles are aborted early.
//! * **FabricSharp** (Ruan et al., SIGMOD'20) applies OCC-style analysis that
//!   additionally rescues *recent inter-block* conflicts by committing under
//!   a reordered serializable schedule. Its documented side effects
//!   (paper's reference \[13\]): more endorsement-policy failures under load and weaker
//!   results on insert-heavy workloads (scheduling cost grows with the
//!   number of distinct fresh keys).
//!
//! Both algorithms are implemented at the same interface the paper treats
//! them as: a function from a cut block to a (reordered, aborted,
//! policy-failed) partition plus a scheduling cost that the ordering service
//! pays per block — reordering is NP-hard in general and "expensive" (§3),
//! which the cost model reflects.

use crate::config::SchedulerKind;
use crate::rwset::ReadWriteSet;
use serde::{Deserialize, Serialize};
use sim_core::time::SimDuration;
use std::collections::{BTreeSet, HashMap};

/// Scheduler view of one buffered transaction.
#[derive(Debug, Clone)]
pub struct SchedTx<'a> {
    /// The proposal's read-write set.
    pub rwset: &'a ReadWriteSet,
    /// Time between the first and last endorsement of the proposal
    /// (FabricSharp's strict freshness check rejects large spreads).
    pub endorse_spread: SimDuration,
}

/// Outcome of scheduling one block.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedOutcome {
    /// Positions of the input transactions in the order they should be
    /// committed (indices into the input slice). Contains every transaction,
    /// including aborted/failed ones (they stay in the block, flagged).
    pub order: Vec<usize>,
    /// Transactions the scheduler aborted (will be flagged as MVCC read
    /// conflicts without state application).
    pub aborted: BTreeSet<usize>,
    /// Transactions rejected by strict endorsement-freshness checks
    /// (flagged as endorsement policy failures).
    pub policy_failed: BTreeSet<usize>,
    /// Extra ordering-service work this scheduler spent on the block.
    pub extra_cost: SimDuration,
}

impl SchedOutcome {
    fn passthrough(n: usize) -> Self {
        SchedOutcome {
            order: (0..n).collect(),
            aborted: BTreeSet::new(),
            policy_failed: BTreeSet::new(),
            extra_cost: SimDuration::ZERO,
        }
    }
}

/// FabricSharp rejects endorsements whose collection spread exceeds this
/// (its snapshot-consistency check is stricter than vanilla Fabric's
/// byte-equality check, which our simulator applies separately).
pub const SHARP_MAX_ENDORSE_SPREAD: SimDuration = SimDuration(120_000);

/// Of the spread-violating transactions, FabricSharp's freshness check
/// rejects one in this many (its watermark check samples the dependency
/// graph rather than re-validating every endorsement pair, so the side
/// effect is a measurable EPF increase, not a wholesale rejection).
pub const SHARP_SPREAD_REJECT_EVERY: usize = 8;

/// How many blocks of read staleness FabricSharp's OCC reordering can absorb
/// at validation time (0 for vanilla and Fabric++).
pub fn stale_tolerance_blocks(kind: SchedulerKind) -> u64 {
    match kind {
        SchedulerKind::Vanilla | SchedulerKind::FabricPlusPlus => 0,
        SchedulerKind::FabricSharp => 1,
    }
}

/// Schedule a cut block under the given scheduler.
pub fn schedule_block(kind: SchedulerKind, txs: &[SchedTx<'_>]) -> SchedOutcome {
    match kind {
        SchedulerKind::Vanilla => SchedOutcome::passthrough(txs.len()),
        SchedulerKind::FabricPlusPlus => schedule_conflict_graph(txs, false),
        SchedulerKind::FabricSharp => schedule_conflict_graph(txs, true),
    }
}

/// Conflict-graph reordering shared by Fabric++ and FabricSharp.
///
/// Edge `i → j` means *i must commit before j*: `i` reads a key that `j`
/// writes, so placing `i` first keeps `i`'s read fresh within the block.
/// Kahn's algorithm emits the order; when only cyclic nodes remain, the node
/// with the most unresolved constraints is aborted (Fabric++'s greedy cycle
/// elimination).
fn schedule_conflict_graph(txs: &[SchedTx<'_>], sharp: bool) -> SchedOutcome {
    let n = txs.len();
    let mut policy_failed: BTreeSet<usize> = BTreeSet::new();
    if sharp {
        let mut violations = 0usize;
        for (i, tx) in txs.iter().enumerate() {
            if tx.endorse_spread > SHARP_MAX_ENDORSE_SPREAD {
                violations += 1;
                if violations.is_multiple_of(SHARP_SPREAD_REJECT_EVERY) {
                    policy_failed.insert(i);
                }
            }
        }
    }

    // Index writers of each key among schedulable (non-policy-failed) txs.
    let mut writers: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, tx) in txs.iter().enumerate() {
        if policy_failed.contains(&i) {
            continue;
        }
        for w in &tx.rwset.writes {
            writers.entry(&*w.key).or_default().push(i);
        }
    }

    // Build "reader-before-writer" edges. Range-read result keys count as
    // reads: a same-block writer of an observed key would invalidate the scan.
    let mut succs: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    let mut preds: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    let mut edges = 0usize;
    for (i, tx) in txs.iter().enumerate() {
        if policy_failed.contains(&i) {
            continue;
        }
        let mut read_keys: Vec<&str> = tx.rwset.reads.iter().map(|r| &*r.key).collect();
        for rr in &tx.rwset.range_reads {
            read_keys.extend(rr.observed.iter().map(|(k, _)| &**k));
        }
        for key in read_keys {
            if let Some(ws) = writers.get(key) {
                for &j in ws {
                    if j != i && succs[i].insert(j) {
                        preds[j].insert(i);
                        edges += 1;
                    }
                }
            }
        }
    }

    // Kahn's algorithm with greedy cycle breaking.
    let mut order = Vec::with_capacity(n);
    let mut aborted: BTreeSet<usize> = BTreeSet::new();
    let mut emitted = vec![false; n];
    let mut indeg: Vec<usize> = preds.iter().map(BTreeSet::len).collect();
    let mut ready: BTreeSet<usize> = (0..n)
        .filter(|&i| indeg[i] == 0 && !policy_failed.contains(&i))
        .collect();
    let mut remaining: usize = (0..n).filter(|i| !policy_failed.contains(i)).count();

    while remaining > 0 {
        if let Some(&i) = ready.iter().next() {
            ready.remove(&i);
            emitted[i] = true;
            remaining -= 1;
            order.push(i);
            for &j in &succs[i] {
                if !emitted[j] && !aborted.contains(&j) {
                    indeg[j] -= 1;
                    if indeg[j] == 0 && !policy_failed.contains(&j) {
                        ready.insert(j);
                    }
                }
            }
        } else {
            // Every remaining node sits on a cycle; abort the most
            // constrained one (max unresolved in-degree, ties by index).
            let victim = (0..n)
                .filter(|&i| !emitted[i] && !aborted.contains(&i) && !policy_failed.contains(&i))
                .max_by_key(|&i| (indeg[i], std::cmp::Reverse(i)))
                .expect("remaining > 0 implies an unfinished node");
            aborted.insert(victim);
            remaining -= 1;
            for &j in &succs[victim] {
                if !emitted[j] && !aborted.contains(&j) {
                    indeg[j] = indeg[j].saturating_sub(1);
                    if indeg[j] == 0 && !policy_failed.contains(&j) {
                        ready.insert(j);
                    }
                }
            }
        }
    }

    // Aborted and policy-failed transactions stay in the block (flagged), in
    // their arrival positions after the valid schedule.
    for i in 0..n {
        if aborted.contains(&i) || policy_failed.contains(&i) {
            order.push(i);
        }
    }
    debug_assert_eq!(order.len(), n);

    // Cost model: graph construction is linear in accesses, ordering in
    // edges; FabricSharp additionally maintains its OCC key index, which
    // grows with the number of distinct keys in the block (the source of its
    // insert-heavy weakness).
    let accesses: usize = txs
        .iter()
        .map(|t| t.rwset.reads.len() + t.rwset.writes.len())
        .sum();
    let distinct_keys = writers.len();
    let mut cost_us = 12 * (n as u64) + 6 * (edges as u64) + 2 * (accesses as u64);
    if sharp {
        // FabricSharp maintains a persistent OCC key index; every distinct
        // written key in the block updates it. Fresh keys (inserts) are the
        // worst case — the source of its documented insert-heavy weakness.
        cost_us += 2_500 * distinct_keys as u64;
    }
    SchedOutcome {
        order,
        aborted,
        policy_failed,
        extra_cost: SimDuration::from_micros(cost_us),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rwset::Version;
    use crate::types::Value;

    fn rw(reads: &[&str], writes: &[&str]) -> ReadWriteSet {
        let mut s = ReadWriteSet::new();
        for r in reads {
            s.record_read((*r).into(), Some(Version::new(1, 0)));
        }
        for w in writes {
            s.record_write((*w).into(), Some(Value::Int(1)));
        }
        s
    }

    fn sched<'a>(rwsets: &'a [ReadWriteSet]) -> Vec<SchedTx<'a>> {
        rwsets
            .iter()
            .map(|r| SchedTx {
                rwset: r,
                endorse_spread: SimDuration::ZERO,
            })
            .collect()
    }

    #[test]
    fn vanilla_preserves_arrival_order() {
        let sets = vec![rw(&["a"], &[]), rw(&[], &["a"]), rw(&["b"], &["b"])];
        let out = schedule_block(SchedulerKind::Vanilla, &sched(&sets));
        assert_eq!(out.order, vec![0, 1, 2]);
        assert!(out.aborted.is_empty());
        assert_eq!(out.extra_cost, SimDuration::ZERO);
    }

    #[test]
    fn plusplus_puts_reader_before_writer() {
        // Arrival order: writer first, reader second — vanilla would fail the
        // reader; Fabric++ flips them.
        let sets = vec![rw(&[], &["k"]), rw(&["k"], &[])];
        let out = schedule_block(SchedulerKind::FabricPlusPlus, &sched(&sets));
        assert_eq!(out.order, vec![1, 0], "reader moved ahead of writer");
        assert!(out.aborted.is_empty());
    }

    #[test]
    fn plusplus_aborts_cycles() {
        // Two updates of the same key: each reads what the other writes → cycle.
        let sets = vec![rw(&["k"], &["k"]), rw(&["k"], &["k"])];
        let out = schedule_block(SchedulerKind::FabricPlusPlus, &sched(&sets));
        assert_eq!(out.aborted.len(), 1, "one victim breaks the 2-cycle");
        assert_eq!(out.order.len(), 2, "victim stays in the block, flagged");
    }

    #[test]
    fn plusplus_chain_is_fully_serializable() {
        // t0 reads a writes b; t1 reads b writes c; t2 reads c writes d.
        // Readers-before-writers order: t0 before nobody needs... build:
        // edge i→j if i reads key j writes: t0 reads a (nobody writes a);
        // t1 reads b, t0 writes b → t1 before t0; t2 reads c, t1 writes c →
        // t2 before t1. Expected order: t2, t1, t0 (no aborts).
        let sets = vec![rw(&["a"], &["b"]), rw(&["b"], &["c"]), rw(&["c"], &["d"])];
        let out = schedule_block(SchedulerKind::FabricPlusPlus, &sched(&sets));
        assert!(out.aborted.is_empty());
        assert_eq!(out.order, vec![2, 1, 0]);
    }

    #[test]
    fn disjoint_txs_keep_arrival_order() {
        let sets = vec![rw(&["a"], &["a"]), rw(&["b"], &["b"]), rw(&["c"], &["c"])];
        let out = schedule_block(SchedulerKind::FabricPlusPlus, &sched(&sets));
        assert_eq!(out.order, vec![0, 1, 2], "no conflicts → stable order");
        assert!(out.aborted.is_empty());
    }

    #[test]
    fn sharp_flags_a_share_of_wide_spreads() {
        // 16 spread-violating transactions → exactly 2 rejected (1 in 8).
        let sets: Vec<ReadWriteSet> = (0..16).map(|i| rw(&[&format!("k{i}")], &[])).collect();
        let mut txs = sched(&sets);
        for t in &mut txs {
            t.endorse_spread = SimDuration::from_millis(500);
        }
        let out = schedule_block(SchedulerKind::FabricSharp, &txs);
        assert_eq!(out.policy_failed.len(), 16 / SHARP_SPREAD_REJECT_EVERY);
        assert_eq!(out.order.len(), 16);
        // Tight spreads are never flagged.
        let tight = sched(&sets);
        let out2 = schedule_block(SchedulerKind::FabricSharp, &tight);
        assert!(out2.policy_failed.is_empty());
    }

    #[test]
    fn plusplus_tolerates_wide_spread() {
        let sets = vec![rw(&["a"], &[])];
        let mut txs = sched(&sets);
        txs[0].endorse_spread = SimDuration::from_secs(10);
        let out = schedule_block(SchedulerKind::FabricPlusPlus, &txs);
        assert!(out.policy_failed.is_empty());
    }

    #[test]
    fn sharp_cost_grows_with_distinct_keys() {
        // Insert-heavy: many distinct fresh keys.
        let inserts: Vec<ReadWriteSet> = (0..50).map(|i| rw(&[], &[&format!("k{i}")])).collect();
        // Update-heavy on a single key: few distinct keys.
        let updates: Vec<ReadWriteSet> = (0..50).map(|_| rw(&["h"], &["h"])).collect();
        let cost_ins = schedule_block(SchedulerKind::FabricSharp, &sched(&inserts)).extra_cost;
        let cost_upd_sharp = schedule_block(SchedulerKind::FabricSharp, &sched(&updates));
        let cost_ins_pp =
            schedule_block(SchedulerKind::FabricPlusPlus, &sched(&inserts)).extra_cost;
        assert!(
            cost_ins > cost_ins_pp,
            "sharp pays extra for distinct keys: {cost_ins} vs {cost_ins_pp}"
        );
        // Update block has ~n² edges, so its cost is edge-driven instead.
        assert!(cost_upd_sharp.extra_cost > SimDuration::ZERO);
    }

    #[test]
    fn stale_tolerance_only_for_sharp() {
        assert_eq!(stale_tolerance_blocks(SchedulerKind::Vanilla), 0);
        assert_eq!(stale_tolerance_blocks(SchedulerKind::FabricPlusPlus), 0);
        assert_eq!(stale_tolerance_blocks(SchedulerKind::FabricSharp), 1);
    }

    #[test]
    fn order_is_a_permutation() {
        let sets: Vec<ReadWriteSet> = (0..20)
            .map(|i| rw(&[&format!("k{}", i % 3)], &[&format!("k{}", (i + 1) % 3)]))
            .collect();
        for kind in [
            SchedulerKind::Vanilla,
            SchedulerKind::FabricPlusPlus,
            SchedulerKind::FabricSharp,
        ] {
            let out = schedule_block(kind, &sched(&sets));
            let mut seen = out.order.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..20).collect::<Vec<_>>(), "{kind:?}");
        }
    }

    #[test]
    fn empty_block_is_fine() {
        let out = schedule_block(SchedulerKind::FabricPlusPlus, &[]);
        assert!(out.order.is_empty());
        assert!(out.aborted.is_empty());
    }
}

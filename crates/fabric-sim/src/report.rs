//! Run-level measurements.
//!
//! [`SimReport`] carries the three numbers every figure in the paper plots —
//! *success throughput (tps)*, *average latency (s)* and *percentage of
//! successful transactions* — plus the supporting detail (failure breakdown,
//! block statistics, resource utilizations) used by the experiment harness
//! and the tests.

use crate::ledger::{CutReason, Ledger, TxStatus};
use serde::{Deserialize, Serialize};
use sim_core::sketch::QuantileSketch;
use sim_core::stats::Summary;
use sim_core::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// Aggregated outcome of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Transactions the workload submitted.
    pub requests: usize,
    /// Proposals the chaincode rejected during endorsement (process-model
    /// pruning's early aborts); these never reach the ledger.
    pub early_aborted: usize,
    /// Early aborts broken down by the contract's abort reason (the first
    /// rejecting endorser's message).
    pub early_abort_reasons: BTreeMap<String, usize>,
    /// Transactions committed to the ledger (valid + invalid).
    pub committed: usize,
    /// Valid transactions.
    pub successes: usize,
    /// MVCC read conflicts.
    pub mvcc_conflicts: usize,
    /// …of which the conflicting write was in the same block.
    pub intra_block_conflicts: usize,
    /// …of which the conflicting write was in an earlier block.
    pub inter_block_conflicts: usize,
    /// Phantom read conflicts.
    pub phantom_conflicts: usize,
    /// Endorsement policy failures.
    pub endorsement_failures: usize,
    /// Measurement window: first client send → last block commit, seconds.
    pub duration_s: f64,
    /// Successful transactions per second over the measurement window.
    pub success_throughput: f64,
    /// Mean end-to-end latency of successful transactions, seconds.
    pub avg_latency_s: f64,
    /// Latency distribution of successful transactions (seconds), derived
    /// from [`latency_sketch`](Self::latency_sketch).
    pub latency: Summary,
    /// The mergeable per-run latency sketch the summary above is derived
    /// from — O([`sketch`](sim_core::sketch)) instead of O(successes):
    /// exact (bit-equal to `Summary::of` over the raw latencies) up to
    /// [`EXACT_CAP`](sim_core::sketch::EXACT_CAP) values, rank-bounded
    /// beyond.
    /// Multi-seed aggregation (the planner's measured reports) folds these
    /// per-seed sketches instead of re-collecting raw latencies.
    pub latency_sketch: QuantileSketch,
    /// `successes / committed`, in percent.
    pub success_rate_pct: f64,
    /// Number of blocks committed.
    pub blocks: usize,
    /// Mean transactions per block (`Bsizeavg`).
    pub avg_block_size: f64,
    /// Blocks by cut reason.
    pub cut_reasons: BTreeMap<String, usize>,
    /// Client-fleet utilization in `[0, 1]`.
    pub client_utilization: f64,
    /// Endorser-fleet utilization in `[0, 1]`.
    pub endorser_utilization: f64,
    /// Ordering-service utilization in `[0, 1]`.
    pub orderer_utilization: f64,
    /// Validation-pipeline utilization in `[0, 1]`.
    pub validator_utilization: f64,
    /// Endorsements per peer, as `(peer name, count)`.
    pub endorsements_per_peer: Vec<(String, u64)>,
    /// Total DES events the engine dispatched during the run (the
    /// numerator of the events/s throughput figure).
    pub events: u64,
    /// Client-resilience measurements under injected faults; trivial (all
    /// zeros, no windows) for healthy runs.
    pub degradation: Degradation,
}

/// How the run degraded under injected faults and what the client's retry
/// arm did about it. Everything here is zero/empty for a healthy run, so a
/// no-fault report serializes exactly one extra all-default section.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Degradation {
    /// Endorsement fan-outs the client re-proposed after a timeout.
    pub retries: usize,
    /// Endorsement timeouts that fired (each is either retried or final).
    pub timeouts: usize,
    /// Transactions abandoned after exhausting the retry budget (these are
    /// counted under `early_aborted` with the typed retry-exhausted reason).
    pub retry_exhausted: usize,
    /// Proposals lost before reaching an endorser.
    pub dropped_proposals: usize,
    /// Endorsement replies lost in transit.
    pub dropped_endorsements: usize,
    /// Transactions that committed successfully but needed more than one
    /// attempt — gracefully degraded rather than failed.
    pub degraded_success: usize,
    /// Per-fault-window outcome statistics.
    pub windows: Vec<FaultWindowStats>,
}

impl Degradation {
    /// True when nothing fault-related happened (healthy run).
    pub fn is_trivial(&self) -> bool {
        self.retries == 0
            && self.timeouts == 0
            && self.retry_exhausted == 0
            && self.dropped_proposals == 0
            && self.dropped_endorsements == 0
            && self.degraded_success == 0
            && self.windows.is_empty()
    }
}

/// Outcome of the transactions submitted while one fault window was open.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultWindowStats {
    /// Human-readable window description (kind, target, span).
    pub label: String,
    /// Requests whose send time fell inside the window.
    pub submitted: usize,
    /// …of which committed with `Success`.
    pub successes: usize,
    /// `successes / submitted` in percent (0 when nothing was submitted).
    pub success_rate_pct: f64,
    /// Mean end-to-end latency of the window's successes, seconds.
    pub avg_latency_s: f64,
}

/// Every [`CutReason`], in declaration order: `CUT_REASONS[r as usize] == r`.
const CUT_REASONS: [CutReason; 4] = [
    CutReason::Count,
    CutReason::Timeout,
    CutReason::Bytes,
    CutReason::Flush,
];

/// The ledger-borne part of a [`SimReport`] (counts, rates, latency, block
/// statistics), folded one committed block at a time. The simulation feeds
/// it each block as the block commits, with or without keeping a ledger,
/// and [`SimReport::from_ledger`] feeds it a finished chain: every path
/// derives the same report from the same blocks.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReportFold {
    committed: usize,
    successes: usize,
    mvcc_conflicts: usize,
    phantom_conflicts: usize,
    endorsement_failures: usize,
    blocks: usize,
    last_commit: Option<SimTime>,
    /// Blocks per cut reason, indexed by the reason's discriminant.
    cut_reasons: [usize; CUT_REASONS.len()],
    /// Latencies of the successes in commit order: O(sketch) storage, and
    /// the summary is bit-equal to `Summary::of` while the run fits the
    /// exact cap.
    latency_sketch: QuantileSketch,
}

impl ReportFold {
    /// An empty fold.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Open the next committed block; its transactions follow through
    /// [`tx`](Self::tx).
    pub(crate) fn block(&mut self, cut_reason: CutReason, commit_ts: SimTime) {
        self.blocks += 1;
        self.cut_reasons[cut_reason as usize] += 1;
        self.last_commit = Some(commit_ts);
    }

    /// One committed transaction of the open block, with its end-to-end
    /// latency (proposal creation → block commit).
    pub(crate) fn tx(&mut self, status: TxStatus, latency: SimDuration) {
        self.committed += 1;
        match status {
            TxStatus::Success => {
                self.successes += 1;
                self.latency_sketch.insert(latency.as_secs_f64());
            }
            TxStatus::MvccReadConflict => self.mvcc_conflicts += 1,
            TxStatus::PhantomReadConflict => self.phantom_conflicts += 1,
            TxStatus::EndorsementPolicyFailure => self.endorsement_failures += 1,
        }
    }

    /// The report of the folded blocks. `first_send` anchors the
    /// measurement window; utilization and fleet fields are left for the
    /// simulation driver to fill in.
    ///
    /// A zero-length window (every block committed at the first send
    /// instant, or none committed) has no rate: its throughput reads 0.
    pub(crate) fn finish(self, requests: usize, first_send: SimTime) -> SimReport {
        let last_commit = self.last_commit.unwrap_or(first_send);
        let duration_s = last_commit.since(first_send).as_secs_f64();
        let latency = self.latency_sketch.summary();
        let cut_reasons = CUT_REASONS
            .iter()
            .zip(self.cut_reasons)
            .filter(|&(_, count)| count > 0)
            .map(|(&reason, count)| (cut_reason_key(reason), count))
            .collect();
        let (committed, successes) = (self.committed, self.successes);
        SimReport {
            requests,
            early_aborted: 0,
            early_abort_reasons: BTreeMap::new(),
            committed,
            successes,
            mvcc_conflicts: self.mvcc_conflicts,
            intra_block_conflicts: 0,
            inter_block_conflicts: 0,
            phantom_conflicts: self.phantom_conflicts,
            endorsement_failures: self.endorsement_failures,
            duration_s,
            success_throughput: if duration_s > 0.0 {
                successes as f64 / duration_s
            } else {
                0.0
            },
            avg_latency_s: latency.mean,
            latency,
            latency_sketch: self.latency_sketch,
            success_rate_pct: if committed == 0 {
                0.0
            } else {
                successes as f64 / committed as f64 * 100.0
            },
            blocks: self.blocks,
            avg_block_size: if self.blocks == 0 {
                0.0
            } else {
                committed as f64 / self.blocks as f64
            },
            cut_reasons,
            client_utilization: 0.0,
            endorser_utilization: 0.0,
            orderer_utilization: 0.0,
            validator_utilization: 0.0,
            endorsements_per_peer: Vec::new(),
            events: 0,
            degradation: Degradation::default(),
        }
    }
}

impl SimReport {
    /// Derive the ledger-borne part of the report (counts, rates, latency)
    /// with the block-by-block fold a simulation runs as blocks commit.
    ///
    /// `first_send` anchors the measurement window; utilization and fleet
    /// fields are filled in by the simulation driver afterwards.
    pub fn from_ledger(ledger: &Ledger, requests: usize, first_send: SimTime) -> SimReport {
        let mut fold = ReportFold::new();
        for b in ledger.blocks() {
            fold.block(b.cut_reason, b.commit_ts);
            for t in &b.txs {
                fold.tx(t.status, t.latency());
            }
        }
        fold.finish(requests, first_send)
    }

    /// Total failed (committed-but-invalid) transactions.
    pub fn failures(&self) -> usize {
        self.mvcc_conflicts + self.phantom_conflicts + self.endorsement_failures
    }

    /// One-line figure-style summary:
    /// `tput=… tps lat=… s success=… %`.
    pub fn figure_row(&self) -> String {
        format!(
            "tput={:7.1} tps  lat={:6.2} s  success={:5.1} %",
            self.success_throughput, self.avg_latency_s, self.success_rate_pct
        )
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "requests            : {}", self.requests)?;
        // Categories retracted back to zero (windowed sessions remove the
        // key via `metrics::decrement`, but merged or hand-built maps may
        // leave a zero entry) are skipped so the breakdown matches the
        // remove-at-zero invariant of the tracker layer.
        let reasons: Vec<String> = self
            .early_abort_reasons
            .iter()
            .filter(|(_, &count)| count > 0)
            .map(|(reason, count)| format!("{reason}: {count}"))
            .collect();
        if reasons.is_empty() {
            writeln!(f, "early aborted       : {}", self.early_aborted)?;
        } else {
            writeln!(
                f,
                "early aborted       : {} ({})",
                self.early_aborted,
                reasons.join(", ")
            )?;
        }
        writeln!(f, "committed           : {}", self.committed)?;
        writeln!(
            f,
            "successes           : {} ({:.1} %)",
            self.successes, self.success_rate_pct
        )?;
        writeln!(
            f,
            "mvcc conflicts      : {} (intra {}, inter {})",
            self.mvcc_conflicts, self.intra_block_conflicts, self.inter_block_conflicts
        )?;
        writeln!(f, "phantom conflicts   : {}", self.phantom_conflicts)?;
        writeln!(f, "endorsement failures: {}", self.endorsement_failures)?;
        writeln!(f, "duration            : {:.2} s", self.duration_s)?;
        writeln!(
            f,
            "success throughput  : {:.1} tps",
            self.success_throughput
        )?;
        writeln!(
            f,
            "latency             : avg {:.3} s (p50 {:.3} / p95 {:.3} / p99 {:.3})",
            self.avg_latency_s, self.latency.p50, self.latency.p95, self.latency.p99
        )?;
        writeln!(
            f,
            "blocks              : {} (avg size {:.1})",
            self.blocks, self.avg_block_size
        )?;
        write!(
            f,
            "utilization         : clients {:.0} % endorsers {:.0} % orderer {:.0} % validator {:.0} %",
            self.client_utilization * 100.0,
            self.endorser_utilization * 100.0,
            self.orderer_utilization * 100.0,
            self.validator_utilization * 100.0
        )?;
        if !self.degradation.is_trivial() {
            let d = &self.degradation;
            writeln!(f)?;
            writeln!(
                f,
                "degradation         : retries {} timeouts {} exhausted {}",
                d.retries, d.timeouts, d.retry_exhausted
            )?;
            writeln!(
                f,
                "  dropped           : proposals {} endorsements {}",
                d.dropped_proposals, d.dropped_endorsements
            )?;
            write!(f, "  degraded success  : {}", d.degraded_success)?;
            for w in &d.windows {
                writeln!(f)?;
                write!(
                    f,
                    "  window [{}]: {}/{} ok ({:.1} %) avg latency {:.3} s",
                    w.label, w.successes, w.submitted, w.success_rate_pct, w.avg_latency_s
                )?;
            }
        }
        writeln!(f)
    }
}

/// Helper: human-readable cut-reason key used in [`SimReport::cut_reasons`].
pub fn cut_reason_key(reason: CutReason) -> String {
    format!("{reason:?}").to_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{Block, TransactionEnvelope};
    use crate::rwset::ReadWriteSet;
    use crate::types::{ClientId, OrgId, PeerId, TxId, TxType};

    fn env(id: u64, status: TxStatus, latency_ms: u64) -> TransactionEnvelope {
        TransactionEnvelope {
            id: TxId(id),
            client_ts: SimTime::from_millis(0),
            submit_ts: SimTime::from_millis(1),
            commit_ts: SimTime::from_millis(latency_ms),
            contract: "cc".into(),
            activity: "a".into(),
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

    fn ledger_with(statuses: &[(TxStatus, u64)]) -> Ledger {
        let mut l = Ledger::new();
        l.append(Block {
            number: 1,
            cut_reason: CutReason::Count,
            cut_ts: SimTime::from_millis(50),
            commit_ts: SimTime::from_millis(1000),
            txs: statuses
                .iter()
                .enumerate()
                .map(|(i, &(s, lat))| env(i as u64, s, lat))
                .collect(),
        });
        l
    }

    #[test]
    fn report_counts_statuses() {
        let l = ledger_with(&[
            (TxStatus::Success, 100),
            (TxStatus::Success, 200),
            (TxStatus::MvccReadConflict, 300),
            (TxStatus::PhantomReadConflict, 300),
            (TxStatus::EndorsementPolicyFailure, 300),
        ]);
        let r = SimReport::from_ledger(&l, 5, SimTime::ZERO);
        assert_eq!(r.committed, 5);
        assert_eq!(r.successes, 2);
        assert_eq!(r.failures(), 3);
        assert!((r.success_rate_pct - 40.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_uses_commit_window() {
        let l = ledger_with(&[(TxStatus::Success, 100)]);
        let r = SimReport::from_ledger(&l, 1, SimTime::ZERO);
        // 1 success over 1.0 s (commit_ts of the block).
        assert!((r.success_throughput - 1.0).abs() < 1e-6);
        assert!((r.duration_s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_window_has_no_rate() {
        // The only block commits at the first send instant.
        let l = ledger_with(&[(TxStatus::Success, 100), (TxStatus::Success, 200)]);
        let r = SimReport::from_ledger(&l, 2, SimTime::from_millis(1000));
        assert_eq!(r.successes, 2);
        assert_eq!(r.duration_s, 0.0);
        assert_eq!(r.success_throughput, 0.0);
        // So does a run that commits nothing.
        let r = SimReport::from_ledger(&Ledger::new(), 3, SimTime::ZERO);
        assert_eq!((r.duration_s, r.success_throughput), (0.0, 0.0));
    }

    #[test]
    fn latency_only_over_successes() {
        let l = ledger_with(&[(TxStatus::Success, 100), (TxStatus::MvccReadConflict, 900)]);
        let r = SimReport::from_ledger(&l, 2, SimTime::ZERO);
        assert!((r.avg_latency_s - 0.1).abs() < 1e-9);
        assert_eq!(r.latency.count, 1);
    }

    #[test]
    fn latency_sketch_rides_along_and_matches_summary() {
        let l = ledger_with(&[
            (TxStatus::Success, 100),
            (TxStatus::Success, 300),
            (TxStatus::MvccReadConflict, 900),
        ]);
        let r = SimReport::from_ledger(&l, 3, SimTime::ZERO);
        assert_eq!(r.latency_sketch.count(), 2, "successes only");
        assert!(r.latency_sketch.is_exact(), "small runs stay exact");
        assert_eq!(
            format!("{:?}", r.latency_sketch.summary()),
            format!("{:?}", r.latency)
        );
    }

    #[test]
    fn empty_ledger_is_safe() {
        let l = Ledger::new();
        let r = SimReport::from_ledger(&l, 0, SimTime::ZERO);
        assert_eq!(r.committed, 0);
        assert_eq!(r.success_rate_pct, 0.0);
        assert_eq!(r.blocks, 0);
    }

    #[test]
    fn figure_row_formats() {
        let l = ledger_with(&[(TxStatus::Success, 100)]);
        let r = SimReport::from_ledger(&l, 1, SimTime::ZERO);
        let row = r.figure_row();
        assert!(row.contains("tps") && row.contains("success"));
    }

    #[test]
    fn display_is_complete() {
        let l = ledger_with(&[(TxStatus::Success, 100)]);
        let r = SimReport::from_ledger(&l, 1, SimTime::ZERO);
        let text = r.to_string();
        assert!(text.contains("success throughput"));
        assert!(text.contains("latency"));
        assert!(text.contains("p99"), "percentiles surfaced: {text}");
        assert!(text.contains("blocks"));
    }

    #[test]
    fn cut_reason_keys_are_lowercase() {
        assert_eq!(cut_reason_key(CutReason::Count), "count");
        assert_eq!(cut_reason_key(CutReason::Timeout), "timeout");
    }

    #[test]
    fn zero_count_abort_reasons_are_hidden_from_the_breakdown() {
        let l = ledger_with(&[(TxStatus::Success, 100)]);
        let mut r = SimReport::from_ledger(&l, 3, SimTime::ZERO);
        r.early_aborted = 2;
        // A windowed session retracts observations as blocks slide out; a
        // category decremented to zero must not linger in the breakdown.
        r.early_abort_reasons.insert("stale".to_string(), 0);
        r.early_abort_reasons.insert("nope".to_string(), 2);
        let text = r.to_string();
        assert!(text.contains("early aborted       : 2 (nope: 2)"), "{text}");
        assert!(!text.contains("stale"), "{text}");

        // All categories retracted: breakdown collapses to the plain line.
        r.early_abort_reasons.insert("nope".to_string(), 0);
        let text = r.to_string();
        let line = text
            .lines()
            .find(|l| l.starts_with("early aborted"))
            .expect("early-aborted line present");
        assert_eq!(line, "early aborted       : 2", "no empty breakdown");
    }

    #[test]
    fn abort_reason_breakdown_orders_categories_deterministically() {
        use crate::fault::RETRY_EXHAUSTED_REASON;
        let l = ledger_with(&[(TxStatus::Success, 100)]);
        let mut r = SimReport::from_ledger(&l, 9, SimTime::ZERO);
        r.early_aborted = 6;
        r.early_abort_reasons.insert("zz-last".to_string(), 1);
        r.early_abort_reasons
            .insert(RETRY_EXHAUSTED_REASON.to_string(), 3);
        r.early_abort_reasons.insert("aa-first".to_string(), 2);
        let text = r.to_string();
        // BTreeMap iteration: lexicographic, so the rendered breakdown is
        // stable regardless of insertion order, with the retry-exhausted
        // reason slotted alphabetically.
        let expected = format!("(aa-first: 2, {RETRY_EXHAUSTED_REASON}: 3, zz-last: 1)");
        assert!(text.contains(&expected), "{text}");
    }

    #[test]
    fn degradation_section_renders_only_under_faults() {
        let l = ledger_with(&[(TxStatus::Success, 100)]);
        let mut r = SimReport::from_ledger(&l, 1, SimTime::ZERO);
        assert!(r.degradation.is_trivial());
        assert!(!r.to_string().contains("degradation"));

        r.degradation.retries = 4;
        r.degradation.timeouts = 5;
        r.degradation.retry_exhausted = 1;
        r.degradation.degraded_success = 3;
        r.degradation.windows.push(FaultWindowStats {
            label: "outage org0 0.0s+2.0s".to_string(),
            submitted: 10,
            successes: 7,
            success_rate_pct: 70.0,
            avg_latency_s: 0.5,
        });
        let text = r.to_string();
        assert!(text.contains("degradation         : retries 4 timeouts 5 exhausted 1"));
        assert!(text.contains("degraded success  : 3"));
        assert!(text.contains("window [outage org0 0.0s+2.0s]: 7/10 ok (70.0 %)"));
    }
}

//! Network and resource configuration.
//!
//! [`NetworkConfig`] collects everything an experiment can turn: topology,
//! endorsement policy, block-cutting parameters, the block scheduler, client
//! fleet sizing, and the [`ResourceProfile`] service times that calibrate the
//! queueing model against the paper's 6-node Kubernetes testbed
//! (4 vCPU / 9.8 GB VMs, §5).

use crate::policy::EndorsementPolicy;
use serde::{Deserialize, Serialize};
use sim_core::time::SimDuration;

/// Upper bound on every phase duration: spec validation rejects a
/// `network.resources` duration, a `network.block_timeout`, a network
/// delay under a latency spike or a `retry.endorse_timeout` above it, and
/// every retry backoff is capped at it. No Fabric phase lasts an hour.
pub const MAX_PHASE: SimDuration = SimDuration(3_600_000_000);

/// Which block scheduler the ordering service runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SchedulerKind {
    /// Vanilla Fabric: FIFO arrival order within the block.
    #[default]
    Vanilla,
    /// Fabric++-style intra-block conflict-graph reordering with early abort
    /// of transactions that cannot be serialized within the block.
    FabricPlusPlus,
    /// FabricSharp-style OCC reordering (also resolves some inter-block
    /// conflicts), with its documented endorsement-freshness side effect.
    FabricSharp,
}

impl SchedulerKind {
    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::Vanilla => "fabric",
            SchedulerKind::FabricPlusPlus => "fabric++",
            SchedulerKind::FabricSharp => "fabricsharp",
        }
    }
}

/// Service times of the simulated resources.
///
/// Calibrated so the default network sustains roughly 200–250 tps — the
/// regime the paper's testbed exhibits (send rate 300 gives ~85 % success
/// with multi-second latencies; rate control to 100 tps restores ~98 %).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceProfile {
    /// Client CPU to build/sign one proposal and verify/assemble responses.
    pub client_per_tx: SimDuration,
    /// One-way network delay between any two components.
    pub net_delay: SimDuration,
    /// Base chaincode execution time per endorsement.
    pub endorse_exec_base: SimDuration,
    /// Additional execution time per state access (reads, writes, scan rows).
    pub endorse_exec_per_access: SimDuration,
    /// Fixed ordering-service work per block (leader assembly + Raft round).
    pub order_block_fixed: SimDuration,
    /// Ordering-service work per transaction in a block.
    pub order_per_tx: SimDuration,
    /// Raft replication/broadcast latency per block (not a throughput cost).
    pub raft_delay: SimDuration,
    /// Fixed validation + ledger-write work per block on a peer.
    pub validate_block_fixed: SimDuration,
    /// Validation work per transaction (signature + MVCC checks + state write).
    pub validate_per_tx: SimDuration,
    /// Validation work per read-set item (point reads and range-scan rows) —
    /// large range scans are expensive to re-check at validation.
    pub validate_per_item: SimDuration,
    /// Extra validation work per endorsement signature on a transaction.
    pub validate_per_endorsement: SimDuration,
}

impl ResourceProfile {
    /// Client service time for the `Submit` phase (building and signing one
    /// proposal) — the front 60 % of [`client_per_tx`](Self::client_per_tx).
    pub fn proposal_time(&self) -> SimDuration {
        self.client_per_tx.mul_f64(0.6)
    }

    /// Client service time for the `Assemble` phase (verifying endorsements
    /// and assembling the envelope) — the remaining 40 % of
    /// [`client_per_tx`](Self::client_per_tx).
    pub fn assemble_time(&self) -> SimDuration {
        self.client_per_tx.mul_f64(0.4)
    }
}

impl Default for ResourceProfile {
    fn default() -> Self {
        ResourceProfile {
            client_per_tx: SimDuration::from_micros(40_000),
            net_delay: SimDuration::from_micros(2_500),
            endorse_exec_base: SimDuration::from_micros(12_000),
            endorse_exec_per_access: SimDuration::from_micros(350),
            order_block_fixed: SimDuration::from_micros(300_000),
            order_per_tx: SimDuration::from_micros(250),
            raft_delay: SimDuration::from_micros(60_000),
            validate_block_fixed: SimDuration::from_micros(90_000),
            validate_per_tx: SimDuration::from_micros(1_500),
            validate_per_item: SimDuration::from_micros(300),
            validate_per_endorsement: SimDuration::from_micros(400),
        }
    }
}

/// Full configuration of a simulated Fabric network + client fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Number of organizations in the consortium.
    pub orgs: usize,
    /// Total endorsing-peer budget, split evenly across organizations
    /// (the paper's fixed 5-worker-node cluster hosts all peers, so adding
    /// organizations thins each org's share).
    pub total_endorser_peers: usize,
    /// Client workers per organization (Caliper runs 10 workers total by
    /// default; the *client resource boost* optimization raises one org's
    /// count).
    pub clients_per_org: usize,
    /// Client resource boost: multiply one organization's client fleet by
    /// the given factor (the paper's Table 4 setting doubles the clients of
    /// the recommended organization).
    pub client_boost: Option<(u16, usize)>,
    /// The channel's endorsement policy.
    pub endorsement_policy: EndorsementPolicy,
    /// Endorser-selection skew (Table 2's "endorser dist skew"): 0 spreads
    /// endorsements uniformly over the policy's minimal satisfying sets;
    /// larger values concentrate them on low-index organizations.
    pub endorser_skew: f64,
    /// Maximum transactions per block (`block_count`).
    pub block_count: usize,
    /// Maximum time the orderer waits before cutting a partial block.
    pub block_timeout: SimDuration,
    /// Maximum serialized bytes per block.
    pub block_bytes: u64,
    /// Block scheduler (vanilla / Fabric++ / FabricSharp).
    pub scheduler: SchedulerKind,
    /// Resource calibration.
    pub resources: ResourceProfile,
    /// Root RNG seed; every run with the same seed and config is identical.
    pub seed: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            orgs: 2,
            total_endorser_peers: 10,
            clients_per_org: 5,
            client_boost: None,
            endorsement_policy: EndorsementPolicy::p3(2),
            endorser_skew: 0.0,
            block_count: 100,
            block_timeout: SimDuration::from_secs(1),
            block_bytes: 2 * 1024 * 1024,
            scheduler: SchedulerKind::Vanilla,
            resources: ResourceProfile::default(),
            seed: 42,
        }
    }
}

impl NetworkConfig {
    /// Endorsing peers available to each organization (total budget divided
    /// evenly; at least one per org).
    pub fn endorsers_per_org(&self) -> usize {
        (self.total_endorser_peers / self.orgs.max(1)).max(1)
    }

    /// Total client workers across all organizations.
    pub fn total_clients(&self) -> usize {
        self.clients_per_org * self.orgs
    }

    /// Builder-style override of the endorsement policy.
    pub fn with_policy(mut self, policy: EndorsementPolicy) -> Self {
        self.endorsement_policy = policy;
        self
    }

    /// Builder-style override of the block count.
    pub fn with_block_count(mut self, count: usize) -> Self {
        self.block_count = count;
        self
    }

    /// Builder-style override of the org count (policy unchanged).
    pub fn with_orgs(mut self, orgs: usize) -> Self {
        self.orgs = orgs;
        self
    }

    /// Builder-style override of the scheduler.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Builder-style override of the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_network_is_two_org_majority() {
        let c = NetworkConfig::default();
        assert_eq!(c.orgs, 2);
        assert_eq!(c.endorsers_per_org(), 5);
        assert_eq!(c.total_clients(), 10, "matches Caliper's 10 workers");
        assert_eq!(c.block_count, 100);
        assert_eq!(c.scheduler, SchedulerKind::Vanilla);
    }

    #[test]
    fn peer_budget_splits_across_orgs() {
        let c = NetworkConfig::default().with_orgs(4);
        assert_eq!(c.endorsers_per_org(), 2, "same cluster, thinner share");
        let c8 = NetworkConfig {
            orgs: 16,
            ..NetworkConfig::default()
        };
        assert_eq!(c8.endorsers_per_org(), 1, "never drops below one");
    }

    #[test]
    fn builders_override_fields() {
        let c = NetworkConfig::default()
            .with_policy(EndorsementPolicy::p4())
            .with_block_count(300)
            .with_scheduler(SchedulerKind::FabricPlusPlus)
            .with_seed(7);
        assert_eq!(c.endorsement_policy, EndorsementPolicy::p4());
        assert_eq!(c.block_count, 300);
        assert_eq!(c.scheduler, SchedulerKind::FabricPlusPlus);
        assert_eq!(c.seed, 7);
    }

    #[test]
    fn scheduler_labels() {
        assert_eq!(SchedulerKind::Vanilla.label(), "fabric");
        assert_eq!(SchedulerKind::FabricPlusPlus.label(), "fabric++");
        assert_eq!(SchedulerKind::FabricSharp.label(), "fabricsharp");
    }

    #[test]
    fn config_serializes_round_trip() {
        let c = NetworkConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: NetworkConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}

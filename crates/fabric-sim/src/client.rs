//! Client workers and endorser selection.
//!
//! Clients are Caliper-style workers: each organization runs
//! `clients_per_org` workers, transactions are assigned round-robin within
//! the invoking organization, and each worker serializes its CPU work
//! (proposal building, response verification, transaction assembly) through
//! a FIFO queue — which is exactly what saturates when one organization
//! invokes 70 % of the load and what the *client resource boost*
//! recommendation fixes.
//!
//! Endorser selection follows Fabric client SDK practice: pick a *minimal*
//! set of organizations satisfying the endorsement policy, then the
//! least-loaded peer inside each chosen org. The `endorser_skew` knob biases
//! the org choice (Table 2's "endorser dist skew"), concentrating load on the
//! first half of the organizations.

use crate::policy::EndorsementPolicy;
use crate::types::{ClientId, OrgId, PeerId};
use sim_core::dist::DiscreteWeighted;
use sim_core::rng::SimRng;
use sim_core::server::QueueServer;
use sim_core::time::{SimDuration, SimTime};
use std::collections::BTreeSet;

/// Per-organization fleet of client workers with round-robin dispatch.
#[derive(Debug)]
pub struct WorkerFleet {
    workers: Vec<Vec<QueueServer>>,
    next: Vec<usize>,
}

impl WorkerFleet {
    /// `orgs` organizations with `per_org` workers each.
    pub fn new(orgs: usize, per_org: usize) -> Self {
        assert!(orgs >= 1 && per_org >= 1);
        WorkerFleet {
            workers: (0..orgs)
                .map(|_| (0..per_org).map(|_| QueueServer::new()).collect())
                .collect(),
            next: vec![0; orgs],
        }
    }

    /// Grow one organization's fleet (the *client resource boost*).
    pub fn scale_org(&mut self, org: OrgId, factor: usize) {
        let fleet = &mut self.workers[org.0 as usize];
        let target = fleet.len() * factor.max(1);
        while fleet.len() < target {
            fleet.push(QueueServer::new());
        }
    }

    /// Number of workers of `org`.
    pub fn org_size(&self, org: OrgId) -> usize {
        self.workers[usize::from(org.0)].len()
    }

    /// Pick the next worker of `org` round-robin.
    pub fn assign(&mut self, org: OrgId) -> ClientId {
        let o = org.0 as usize;
        let idx = self.next[o] % self.workers[o].len();
        self.next[o] += 1;
        ClientId {
            org,
            index: idx as u16,
        }
    }

    /// Queue CPU work on a specific worker; returns `(start, done)`.
    pub fn submit(
        &mut self,
        worker: ClientId,
        arrival: SimTime,
        service: SimDuration,
    ) -> (SimTime, SimTime) {
        self.workers[worker.org.0 as usize][worker.index as usize].submit(arrival, service)
    }

    /// Aggregate busy time of every worker (for utilization reporting).
    pub fn total_busy(&self) -> SimDuration {
        let mut acc = SimDuration::ZERO;
        for fleet in &self.workers {
            for w in fleet {
                acc += w.busy_time();
            }
        }
        acc
    }

    /// Total number of workers.
    pub fn total_workers(&self) -> usize {
        self.workers.iter().map(Vec::len).sum()
    }
}

/// Per-organization endorsing peers with least-loaded dispatch.
#[derive(Debug)]
pub struct EndorserFleet {
    peers: Vec<Vec<QueueServer>>,
    endorsement_counts: Vec<Vec<u64>>,
}

impl EndorserFleet {
    /// `orgs` organizations with `per_org` endorsing peers each.
    pub fn new(orgs: usize, per_org: usize) -> Self {
        assert!(orgs >= 1 && per_org >= 1);
        EndorserFleet {
            peers: (0..orgs)
                .map(|_| (0..per_org).map(|_| QueueServer::new()).collect())
                .collect(),
            endorsement_counts: vec![vec![0; per_org]; orgs],
        }
    }

    /// Queue an endorsement on the least-loaded peer of `org`.
    /// Returns `(peer, start, done)`.
    pub fn submit(
        &mut self,
        org: OrgId,
        arrival: SimTime,
        service: SimDuration,
    ) -> (PeerId, SimTime, SimTime) {
        let fleet = &mut self.peers[org.0 as usize];
        let idx = (0..fleet.len())
            .min_by_key(|&i| (fleet[i].free_at(), i))
            .expect("fleet is non-empty");
        let (start, done) = fleet[idx].submit(arrival, service);
        self.endorsement_counts[org.0 as usize][idx] += 1;
        (
            PeerId {
                org,
                index: idx as u16,
            },
            start,
            done,
        )
    }

    /// Endorsements performed by each peer, flattened as `(peer, count)`.
    pub fn endorsement_counts(&self) -> Vec<(PeerId, u64)> {
        let mut out = Vec::new();
        for (o, counts) in self.endorsement_counts.iter().enumerate() {
            for (i, &c) in counts.iter().enumerate() {
                out.push((
                    PeerId {
                        org: OrgId(o as u16),
                        index: i as u16,
                    },
                    c,
                ));
            }
        }
        out
    }

    /// Aggregate busy time across all endorsing peers.
    pub fn total_busy(&self) -> SimDuration {
        let mut acc = SimDuration::ZERO;
        for fleet in &self.peers {
            for p in fleet {
                acc += p.busy_time();
            }
        }
        acc
    }

    /// Total number of endorsing peers.
    pub fn total_peers(&self) -> usize {
        self.peers.iter().map(Vec::len).sum()
    }
}

/// Chooses which organizations endorse each transaction.
#[derive(Debug)]
pub struct EndorserSelector {
    minimal_sets: Vec<BTreeSet<OrgId>>,
    weights: DiscreteWeighted,
}

impl EndorserSelector {
    /// Build a selector for `policy` with the given skew.
    ///
    /// Each organization `i` carries weight `(1 + skew)^(-i)` and a minimal
    /// satisfying set is weighted by the *product* of its members' weights.
    /// Skew 0 spreads transactions uniformly across the minimal sets; skew 6
    /// reproduces the paper's Experiment 2, where "two of the organizations
    /// endorse far more often than the other two" under policy P2.
    pub fn new(policy: &EndorsementPolicy, _total_orgs: usize, skew: f64) -> Self {
        let minimal_sets = policy.minimal_satisfying_sets();
        assert!(
            !minimal_sets.is_empty(),
            "endorsement policy is unsatisfiable"
        );
        let base = 1.0 + skew.max(0.0);
        let org_weight = |o: &OrgId| -> f64 { base.powi(-(o.0 as i32)) };
        let set_weights: Vec<f64> = minimal_sets
            .iter()
            .map(|s| s.iter().map(org_weight).product())
            .collect();
        EndorserSelector {
            weights: DiscreteWeighted::new(&set_weights),
            minimal_sets,
        }
    }

    /// Sample an endorsing organization set for one transaction.
    pub fn choose(&self, rng: &mut SimRng) -> &BTreeSet<OrgId> {
        &self.minimal_sets[self.weights.sample(rng)]
    }

    /// The minimal satisfying sets the selector draws from.
    pub fn minimal_sets(&self) -> &[BTreeSet<OrgId>] {
        &self.minimal_sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_round_robin_within_org() {
        let mut f = WorkerFleet::new(2, 3);
        let picks: Vec<u16> = (0..5).map(|_| f.assign(OrgId(0)).index).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1]);
        assert_eq!(f.assign(OrgId(1)).index, 0, "separate counter per org");
        assert_eq!(f.total_workers(), 6);
    }

    #[test]
    fn scaling_doubles_one_org_only() {
        let mut f = WorkerFleet::new(2, 5);
        f.scale_org(OrgId(0), 2);
        assert_eq!(f.total_workers(), 15);
        let picks: Vec<u16> = (0..10).map(|_| f.assign(OrgId(0)).index).collect();
        assert_eq!(picks, (0..10).collect::<Vec<u16>>());
    }

    #[test]
    fn worker_queueing_serializes_cpu() {
        let mut f = WorkerFleet::new(1, 1);
        let w = f.assign(OrgId(0));
        let (_, d1) = f.submit(w, SimTime::ZERO, SimDuration::from_millis(10));
        let (s2, _) = f.submit(w, SimTime::ZERO, SimDuration::from_millis(10));
        assert_eq!(s2, d1, "same worker serializes");
        assert_eq!(f.total_busy(), SimDuration::from_millis(20));
    }

    #[test]
    fn endorsers_least_loaded_first() {
        let mut e = EndorserFleet::new(1, 2);
        let (p1, _, _) = e.submit(OrgId(0), SimTime::ZERO, SimDuration::from_millis(10));
        let (p2, _, _) = e.submit(OrgId(0), SimTime::ZERO, SimDuration::from_millis(10));
        assert_ne!(p1.index, p2.index, "second endorsement goes to idle peer");
        let counts = e.endorsement_counts();
        assert_eq!(counts.iter().map(|(_, c)| *c).sum::<u64>(), 2);
        assert_eq!(e.total_peers(), 2);
        assert_eq!(e.total_busy(), SimDuration::from_millis(20));
    }

    #[test]
    fn selector_without_skew_spreads_p4_evenly() {
        let policy = EndorsementPolicy::p4();
        let sel = EndorserSelector::new(&policy, 4, 0.0);
        assert_eq!(sel.minimal_sets().len(), 6);
        let mut rng = SimRng::seed_from_u64(1);
        let mut org_hits = [0usize; 4];
        for _ in 0..60_000 {
            for org in sel.choose(&mut rng) {
                org_hits[org.0 as usize] += 1;
            }
        }
        for &h in &org_hits {
            assert!(
                (27_000..33_000).contains(&h),
                "each org ≈ half of draws: {org_hits:?}"
            );
        }
    }

    #[test]
    fn selector_with_skew_biases_first_half() {
        let policy = EndorsementPolicy::p2();
        let sel = EndorserSelector::new(&policy, 4, 6.0);
        let mut rng = SimRng::seed_from_u64(2);
        let mut org_hits = [0usize; 4];
        for _ in 0..50_000 {
            for org in sel.choose(&mut rng) {
                org_hits[org.0 as usize] += 1;
            }
        }
        // P2 = And(Or(1,2), Or(3,4)): every set has one of {Org1,Org2} and
        // one of {Org3,Org4}. With skew 6 the product weighting makes Org1
        // and Org3 endorse far more often than Org2 and Org4 (Experiment 2).
        assert_eq!(org_hits[0] + org_hits[1], 50_000);
        assert_eq!(org_hits[2] + org_hits[3], 50_000);
        assert!(
            org_hits[0] > org_hits[1] * 4,
            "Org1 dominates Org2: {org_hits:?}"
        );
        assert!(
            org_hits[2] > org_hits[3] * 4,
            "Org3 dominates Org4: {org_hits:?}"
        );
    }

    #[test]
    fn selector_mandatory_org_always_chosen() {
        let policy = EndorsementPolicy::p1();
        let sel = EndorserSelector::new(&policy, 4, 0.0);
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(sel.choose(&mut rng).contains(&OrgId(0)), "Org1 mandatory");
        }
    }

    #[test]
    #[should_panic(expected = "unsatisfiable")]
    fn unsatisfiable_policy_rejected() {
        // OutOf(3, two orgs) can never be satisfied.
        let policy = EndorsementPolicy::out_of(3, 2);
        let _ = EndorserSelector::new(&policy, 2, 0.0);
    }
}

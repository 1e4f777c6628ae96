//! Digital Voting workload (paper §5.1.2, Figure 16).
//!
//! Follows the paper's phased schedule exactly: "a workload which initially
//! sends 1,000 queryParties transactions at a rate of 100 TPS, then 5,000
//! Vote transactions at a rate of 300 TPS and finally 1 seeResults and
//! endElection transaction each."

use crate::bundle::WorkloadBundle;
use chaincode::DvContract;
use fabric_sim::sim::TxRequest;
use fabric_sim::types::{intern, OrgId, Value};
use serde::{Deserialize, Serialize};
use sim_core::dist::{DiscreteWeighted, Exponential};
use sim_core::rng::SimRng;
use sim_core::time::{SimDuration, SimTime};
use std::sync::Arc;

/// DV workload parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DvSpec {
    /// Number of parties on the ballot.
    pub parties: usize,
    /// Phase-1 query transactions.
    pub queries: usize,
    /// Phase-1 rate (tx/s).
    pub query_rate: f64,
    /// Phase-2 vote transactions.
    pub votes: usize,
    /// Phase-2 rate (tx/s).
    pub vote_rate: f64,
    /// Number of client organizations.
    pub orgs: usize,
    /// Generator seed.
    // detlint: allow(spec-validate, reason = "every u64 is a valid generator seed; determinism per seed is covered by the golden tests")
    pub seed: u64,
}

impl Default for DvSpec {
    fn default() -> Self {
        DvSpec {
            parties: 4,
            queries: 1_000,
            query_rate: 100.0,
            votes: 5_000,
            vote_rate: 300.0,
            orgs: 2,
            seed: 42,
        }
    }
}

/// Party key for index `i`.
pub fn party_key(i: usize) -> String {
    format!("party:P{i}")
}

/// Seed-stream label for DV generation: every draw the generator makes is
/// derived from `spec.seed` through this stream, so adding another consumer
/// of the scenario seed can never perturb DV workloads.
pub const DV_STREAM: u64 = 0xD017;

/// Generate the DV workload with the base (party-keyed) contract.
pub fn generate(spec: &DvSpec) -> WorkloadBundle {
    let mut rng = SimRng::derive(spec.seed, DV_STREAM);
    generate_inner(spec, &mut rng)
}

fn generate_inner(spec: &DvSpec, rng: &mut SimRng) -> WorkloadBundle {
    let org_pick = DiscreteWeighted::new(&vec![1.0; spec.orgs]);
    // A mildly uneven race: front-runners attract more votes.
    let party_weights: Vec<f64> = (0..spec.parties)
        .map(|i| 1.0 / (1.0 + i as f64 * 0.35))
        .collect();
    let party_pick = DiscreteWeighted::new(&party_weights);

    let mut requests = Vec::with_capacity(spec.queries + spec.votes + 2);
    let mut clock = SimTime::ZERO;

    let q_inter =
        Exponential::with_mean(SimDuration::from_secs_f64(1.0 / spec.query_rate.max(1e-9)));
    for _ in 0..spec.queries {
        clock += q_inter.sample(rng);
        requests.push(TxRequest {
            send_time: clock,
            contract: intern(DvContract::NAME),
            activity: intern("queryParties"),
            args: vec![].into(),
            invoker_org: OrgId(org_pick.sample(rng) as u16),
        });
    }

    let v_inter =
        Exponential::with_mean(SimDuration::from_secs_f64(1.0 / spec.vote_rate.max(1e-9)));
    for v in 0..spec.votes {
        clock += v_inter.sample(rng);
        requests.push(TxRequest {
            send_time: clock,
            contract: intern(DvContract::NAME),
            activity: intern("vote"),
            args: Arc::from(vec![
                party_key(party_pick.sample(rng)).into(),
                format!("V{v:06}").into(),
            ]),
            invoker_org: OrgId(org_pick.sample(rng) as u16),
        });
    }

    clock += SimDuration::from_secs(2);
    requests.push(TxRequest {
        send_time: clock,
        contract: intern(DvContract::NAME),
        activity: intern("seeResults"),
        args: vec![].into(),
        invoker_org: OrgId(0),
    });
    clock += SimDuration::from_secs(2);
    requests.push(TxRequest {
        send_time: clock,
        contract: intern(DvContract::NAME),
        activity: intern("endElection"),
        args: vec![].into(),
        invoker_org: OrgId(0),
    });

    let mut genesis: Vec<(String, String, Value)> = (0..spec.parties)
        .map(|i| {
            (
                DvContract::NAME.to_string(),
                party_key(i),
                DvContract::genesis_party(&party_key(i)),
            )
        })
        .collect();
    genesis.push((
        DvContract::NAME.to_string(),
        "parties".to_string(),
        Value::Str(
            (0..spec.parties)
                .map(party_key)
                .collect::<Vec<_>>()
                .join(","),
        ),
    ));
    genesis.push((
        DvContract::NAME.to_string(),
        "election".to_string(),
        Value::Str("open".into()),
    ));

    WorkloadBundle::new(vec![Arc::new(DvContract)], genesis, requests)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_follow_paper_schedule() {
        let b = generate(&DvSpec::default());
        assert_eq!(b.len(), 1_000 + 5_000 + 2);
        // First 1000 are queries, then votes, then the two closers.
        assert!(b.requests[..1_000]
            .iter()
            .all(|r| r.activity.as_ref() == "queryParties"));
        assert!(b.requests[1_000..6_000]
            .iter()
            .all(|r| r.activity.as_ref() == "vote"));
        assert_eq!(b.requests[6_000].activity.as_ref(), "seeResults");
        assert_eq!(b.requests[6_001].activity.as_ref(), "endElection");
    }

    #[test]
    fn phase_rates_differ() {
        let b = generate(&DvSpec::default());
        let q_span = b.requests[999]
            .send_time
            .since(b.requests[0].send_time)
            .as_secs_f64();
        let v_span = b.requests[5_999]
            .send_time
            .since(b.requests[1_000].send_time)
            .as_secs_f64();
        let q_rate = 999.0 / q_span;
        let v_rate = 4_999.0 / v_span;
        assert!((80.0..120.0).contains(&q_rate), "query rate {q_rate}");
        assert!((270.0..330.0).contains(&v_rate), "vote rate {v_rate}");
    }

    #[test]
    fn voters_are_unique() {
        let b = generate(&DvSpec::default());
        let mut seen = std::collections::HashSet::new();
        for r in b.requests.iter().filter(|r| r.activity.as_ref() == "vote") {
            assert!(seen.insert(r.args[1].as_str().unwrap().to_string()));
        }
    }

    #[test]
    fn votes_spread_over_all_parties() {
        let b = generate(&DvSpec::default());
        let mut hits = vec![0usize; 4];
        for r in b.requests.iter().filter(|r| r.activity.as_ref() == "vote") {
            let p = r.args[0].as_str().unwrap();
            let idx: usize = p.trim_start_matches("party:P").parse().unwrap();
            hits[idx] += 1;
        }
        assert!(hits.iter().all(|&h| h > 500), "{hits:?}");
        assert!(hits[0] > hits[3], "front-runner gets more");
    }

    #[test]
    fn genesis_includes_directory_and_election() {
        let b = generate(&DvSpec::default());
        let keys: Vec<&str> = b.genesis.iter().map(|(_, k, _)| k.as_str()).collect();
        assert!(keys.contains(&"parties"));
        assert!(keys.contains(&"election"));
        assert_eq!(b.genesis.len(), 4 + 2);
    }
}

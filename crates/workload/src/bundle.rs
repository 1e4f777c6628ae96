//! The workload bundle: everything one experiment run needs.

use fabric_sim::config::NetworkConfig;
use fabric_sim::contract::Contract;
use fabric_sim::fault::{FaultSpec, RetryPolicy};
use fabric_sim::report::SimReport;
use fabric_sim::sim::{SimOutput, Simulation, TxRequest};
use fabric_sim::types::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A smart-contract-level optimization the paper implements by rewriting
/// the chaincode (§4.5: these "need to be manually implemented by the
/// user"). A workload's variant table
/// ([`WorkloadSpec::variant_table`](crate::scenario::WorkloadSpec::variant_table))
/// lists the kinds it ships a prepared rewrite for, and
/// [`ScenarioSpec::finish`](crate::scenario::ScenarioSpec::finish) installs
/// that rewrite from the contract registry, so the closed-loop plan
/// executor can select them like the paper's authors selected their
/// modified Go contracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum VariantKind {
    /// Process-model pruning: the contract early-aborts illogical flows.
    Pruned,
    /// Increment updates become conflict-free delta records.
    DeltaWrites,
    /// Hot keys split across separate chaincode namespaces.
    Partitioned,
    /// The data model is re-keyed (e.g. `partyID` → `voterID`).
    Rekeyed,
}

impl fmt::Display for VariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VariantKind::Pruned => "pruned",
            VariantKind::DeltaWrites => "delta-writes",
            VariantKind::Partitioned => "partitioned",
            VariantKind::Rekeyed => "rekeyed",
        };
        f.write_str(s)
    }
}

/// Contracts, genesis state, and the timestamped request schedule of one
/// workload. Bundles are cheap to clone (contracts are shared).
#[derive(Clone, Default)]
pub struct WorkloadBundle {
    /// Chaincodes to install on the network.
    pub contracts: Vec<Arc<dyn Contract>>,
    /// Genesis world state as `(namespace, key, value)`.
    pub genesis: Vec<(String, String, Value)>,
    /// The transaction schedule.
    pub requests: Vec<TxRequest>,
    /// Fault plan the run executes under (default: no faults).
    pub fault: FaultSpec,
    /// Client resilience policy (default: the legacy wait-forever client).
    pub retry: RetryPolicy,
}

impl WorkloadBundle {
    /// A bundle with no fault plan and the legacy wait-forever client.
    pub fn new(
        contracts: Vec<Arc<dyn Contract>>,
        genesis: Vec<(String, String, Value)>,
        requests: Vec<TxRequest>,
    ) -> Self {
        WorkloadBundle {
            contracts,
            genesis,
            requests,
            fault: FaultSpec::default(),
            retry: RetryPolicy::default(),
        }
    }

    /// Build a ready-to-run [`Simulation`] for `config`, carrying the
    /// bundle's fault plan and retry policy into the engine.
    pub fn simulation(&self, config: NetworkConfig) -> Simulation {
        let mut sim = Simulation::new(config);
        for c in &self.contracts {
            sim.install(Arc::clone(c));
        }
        for (ns, key, value) in &self.genesis {
            sim.seed(ns, key, value.clone());
        }
        sim.set_fault(self.fault.clone());
        sim.set_retry(self.retry.clone());
        sim
    }

    /// Convenience: build the simulation and run the schedule.
    pub fn run(&self, config: NetworkConfig) -> SimOutput {
        self.simulation(config).run(&self.requests)
    }

    /// Build the simulation and run the schedule for its report alone
    /// ([`Simulation::run_report`]): the bytes of [`run`](Self::run)'s
    /// report, with no envelope built and no ledger kept.
    pub fn run_report(&self, config: NetworkConfig) -> SimReport {
        self.simulation(config).run_report(&self.requests)
    }

    /// Like [`run`](Self::run), but stream every committed block to
    /// `on_commit` as the simulation produces it (see
    /// [`Simulation::run_observed`]) — the live-watch path: bridge the
    /// callback onto a channel and a monitoring session can consume the
    /// chain while it grows.
    pub fn run_observed(
        &self,
        config: NetworkConfig,
        on_commit: &mut dyn FnMut(&fabric_sim::ledger::Block),
    ) -> SimOutput {
        self.simulation(config)
            .run_observed(&self.requests, on_commit)
    }

    /// Replace the contract set (used when applying smart-contract-level
    /// optimizations: pruning, delta writes, partitioning, data-model
    /// alteration — the workload schedule stays the same).
    pub fn with_contracts(mut self, contracts: Vec<Arc<dyn Contract>>) -> Self {
        self.contracts = contracts;
        self
    }

    /// Replace the request schedule (used by workload-level optimizations:
    /// activity reordering, rate control).
    pub fn with_requests(mut self, requests: Vec<TxRequest>) -> Self {
        self.requests = requests;
        self
    }

    /// Number of scheduled transactions.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The offered transaction rate: requests divided by the schedule span.
    pub fn offered_rate(&self) -> f64 {
        if self.requests.len() < 2 {
            return 0.0;
        }
        let times = || self.requests.iter().map(|r| r.send_time);
        let (Some(first), Some(last)) = (times().min(), times().max()) else {
            return 0.0;
        };
        let span = last.since(first).as_secs_f64();
        if span <= 0.0 {
            0.0
        } else {
            (self.requests.len() - 1) as f64 / span
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaincode::GenChainContract;
    use fabric_sim::types::OrgId;
    use sim_core::time::SimTime;

    fn tiny_bundle() -> WorkloadBundle {
        WorkloadBundle::new(
            vec![Arc::new(GenChainContract)],
            vec![("genchain".to_string(), "k0".to_string(), Value::Int(1))],
            (0..10)
                .map(|i| TxRequest {
                    send_time: SimTime::from_millis(i * 100),
                    contract: "genchain".into(),
                    activity: "read".into(),
                    args: vec!["k0".into()].into(),
                    invoker_org: OrgId(0),
                })
                .collect(),
        )
    }

    #[test]
    fn bundle_runs_end_to_end() {
        let out = tiny_bundle().run(NetworkConfig::default());
        assert_eq!(out.report.committed, 10);
        assert_eq!(out.report.successes, 10, "pure reads never conflict");
    }

    #[test]
    fn report_only_run_matches_the_full_run() {
        let b = tiny_bundle();
        let full = b.run(NetworkConfig::default()).report;
        let report = b.run_report(NetworkConfig::default());
        assert_eq!(format!("{report:?}"), format!("{full:?}"));
    }

    #[test]
    fn offered_rate_matches_schedule() {
        let b = tiny_bundle();
        assert!(
            (b.offered_rate() - 10.0).abs() < 1e-9,
            "{}",
            b.offered_rate()
        );
        assert_eq!(b.len(), 10);
        assert!(!b.is_empty());
    }

    #[test]
    fn with_requests_replaces_schedule() {
        let b = tiny_bundle();
        let shrunk = b.clone().with_requests(b.requests[..3].to_vec());
        assert_eq!(shrunk.len(), 3);
    }

    #[test]
    fn empty_schedule_rate_is_zero() {
        let b = tiny_bundle().with_requests(vec![]);
        assert_eq!(b.offered_rate(), 0.0);
        assert!(b.is_empty());
    }
}

//! # fabric-sim
//!
//! A deterministic discrete-event simulator of Hyperledger Fabric's
//! **execute-order-validate (EOV)** transaction pipeline — the substrate on
//! which the BlockOptR evaluation runs (the paper used a real Fabric 2.2
//! cluster, which this simulator stands in for).
//!
//! The simulated pipeline mirrors Fabric §2.1 of the paper:
//!
//! 1. **Execution** — clients build proposals and send them to endorsing
//!    peers selected to satisfy the configured [`policy::EndorsementPolicy`].
//!    Each endorser executes the chaincode ([`contract::Contract`]) against
//!    its *currently committed* world state, producing a versioned
//!    [`rwset::ReadWriteSet`].
//! 2. **Ordering** — clients submit endorsed transactions to the ordering
//!    service, which cuts blocks on *block count*, *block timeout*, or *block
//!    bytes* (whichever triggers first) and runs a Raft-style consensus delay.
//!    Pluggable [`scheduler`] strategies reproduce the Fabric++ and
//!    FabricSharp reordering baselines.
//! 3. **Validation** — peers validate endorsement signatures/consistency and
//!    re-check every read against the current world state (MVCC). Stale reads
//!    become `MVCC_READ_CONFLICT`s, changed range results become
//!    `PHANTOM_READ_CONFLICT`s, and mismatched endorsements become
//!    `ENDORSEMENT_POLICY_FAILURE`s. *Every* transaction — valid or not — is
//!    appended to the immutable [`ledger::Ledger`].
//!
//! Endorsers, clients, the orderer and the validator are finite-rate queueing
//! servers, so saturation lengthens the endorse→commit window, which feeds
//! back into more MVCC conflicts — the effect the paper's block-size and
//! rate-control experiments measure.

// Library output belongs in return values; stdout and stderr belong to the
// binaries. (Unit tests may print: see `clippy.toml`.)
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod client;
pub mod config;
pub mod contract;
pub mod fault;
pub mod ledger;
pub mod orderer;
pub mod policy;
pub mod policy_parse;
pub mod report;
pub mod rwset;
pub mod scheduler;
pub mod sim;
pub mod state;
pub mod types;
pub mod validator;

pub use config::{NetworkConfig, ResourceProfile, SchedulerKind};
pub use contract::{Contract, ExecStatus, TxContext};
pub use fault::{
    DropSpec, FaultSpec, LatencySpike, OutageWindow, RetryPolicy, StallWindow,
    NO_ENDORSEMENT_REASON, RETRY_EXHAUSTED_REASON,
};
pub use ledger::{Block, CutReason, Ledger, TransactionEnvelope, TxStatus};
pub use policy::EndorsementPolicy;
pub use policy_parse::parse_policy;
pub use report::{Degradation, FaultWindowStats, SimReport};
pub use rwset::{RangeRead, ReadItem, ReadWriteSet, Version, WriteItem};
pub use sim::{Simulation, TxRequest};
pub use state::WorldState;
pub use types::{ClientId, Key, OrgId, PeerId, TxId, TxType, Value};

//! # blockoptr
//!
//! **BlockOptR** — the paper's primary contribution: a multi-level blockchain
//! optimization recommender. It reads a blockchain's transaction log,
//! derives metrics and a process model, and recommends nine optimizations at
//! three abstraction levels (paper Figure 1):
//!
//! * **user level** — activity reordering, process model pruning,
//!   transaction rate control;
//! * **data level** — delta writes, smart contract partitioning, data model
//!   alteration;
//! * **system level** — block size adaptation, endorser restructuring,
//!   client resource boost.
//!
//! The pipeline (paper Figure 5):
//!
//! ```text
//! Fabric network ─► blockchain data preprocessing ─► metrics derivation
//!                                 │                        │
//!                                 ▼                        ▼
//!                         event log generation ─► optimization
//!                                 │                recommendation
//!                                 ▼
//!                        process model generation
//! ```
//!
//! ## Entry points
//!
//! The engine is *session-based*: a cheap, cloneable
//! [`Analyzer`] holds configuration, and a stateful
//! [`Session`] accepts blocks incrementally and produces
//! [`Analysis`] snapshots on demand — O(new data) per
//! ingest, O(state) per snapshot, which is what a monitoring loop over a
//! live chain needs.
//!
//! * Streaming: [`Analyzer::session`](session::Analyzer::session), then
//!   [`Session::ingest_block`](session::Session::ingest_block) /
//!   [`ingest_ledger`](session::Session::ingest_ledger) and
//!   [`snapshot`](session::Session::snapshot).
//! * Batch one-shot: [`Analyzer::analyze_ledger`](session::Analyzer::analyze_ledger)
//!   (or `analyze_log` / `analyze_json`), all returning
//!   `Result<_, AnalyzeError>`.
//!
//! ## Rule engine and the closed loop
//!
//! Detection runs through a rule engine: the nine paper rules live in
//! [`recommend::rules`] as a [`RuleSet`] registry, configured through
//! [`Analyzer::rules`](session::Analyzer::rules) and
//! [`Analyzer::disable_rule`](session::Analyzer::disable_rule); every rule
//! evaluates against the analysis-wide [`Thresholds`]. Every
//! recommendation lowers to typed, serializable
//! [`Action`]s, and an
//! [`OptimizationPlan`] closes the paper's §4.5
//! loop: apply the actions to a scenario spec, re-run the workload, and
//! report per-action before/after deltas as a [`PlanOutcome`] (the
//! `blockoptr optimize` subcommand end to end). A recommendation list is
//! applied one way only:
//! `OptimizationPlan::from_analysis(..).select(..).apply_to_spec(..)`.
//!
//! Fallible paths (empty logs, malformed JSON, degenerate configuration)
//! return [`AnalyzeError`] instead of panicking.

// Library output belongs in return values; stdout and stderr belong to the
// binaries. (Unit tests may print: see `clippy.toml`.)
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod action;
pub mod autotune;
pub mod caseid;
pub mod compliance;
pub mod eventlog;
pub mod export;
pub mod log;
pub mod metrics;
pub mod plan;
pub mod recommend;
pub mod report;
pub mod resilience;
pub mod session;

pub use action::{Action, NetworkChange, RetryChange};
pub use autotune::auto_tune;
pub use caseid::derive_case_ids;
pub use compliance::{verify_rollout, ComplianceReport};
pub use eventlog::to_event_log;
pub use log::{BlockchainLog, TxRecord};
pub use plan::{
    t95, ActionOutcome, ActionResult, MeasuredReport, MetricStats, OptimizationPlan, PlanConfig,
    PlanOutcome, PlannedAction, SeedReport,
};
pub use recommend::rules::{Finding, Rule, RuleCtx, RuleSet};
pub use recommend::{Level, Recommendation, Thresholds};
pub use resilience::{ResilienceCtx, ResilienceRuleSet};
pub use session::{Analysis, AnalyzeError, Analyzer, Session, SessionFootprint, WindowPolicy};

/// One-stop imports for the common pipeline.
pub mod prelude {
    pub use crate::action::{Action, NetworkChange, RetryChange};
    pub use crate::autotune::auto_tune;
    pub use crate::compliance::{verify_rollout, ComplianceReport};
    pub use crate::log::BlockchainLog;
    pub use crate::plan::{OptimizationPlan, PlanConfig, PlanOutcome};
    pub use crate::recommend::rules::{Finding, Rule, RuleCtx, RuleSet};
    pub use crate::recommend::{Level, Recommendation, Thresholds};
    pub use crate::resilience::{ResilienceCtx, ResilienceRuleSet};
    pub use crate::session::{Analysis, AnalyzeError, Analyzer, Session, WindowPolicy};
    pub use chaincode;
    pub use fabric_sim::config::{NetworkConfig, SchedulerKind};
    pub use fabric_sim::policy::EndorsementPolicy;
    pub use fabric_sim::sim::{SimOutput, Simulation, TxRequest};
    pub use fabric_sim::types::Value;
    pub use process_mining;
    pub use workload::{self, SpecTransform, VariantKind, WorkloadBundle};
}

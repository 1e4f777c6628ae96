//! The declarative scenario layer: every workload as one serializable
//! [`ScenarioSpec`].
//!
//! The paper's closed loop (§4.5) assumes a *re-measurable* workload: the
//! operator implements a recommendation and runs the same traffic again.
//! Imperatively assembled [`WorkloadBundle`]s cannot be saved, shipped, or
//! replayed — a spec can. A `ScenarioSpec` captures, as plain JSON:
//!
//! * the **workload** — either the Table-2 generator parameters of a
//!   built-in scenario ([`WorkloadSpec::Synthetic`] … [`WorkloadSpec::Lap`])
//!   or an explicit, replayable schedule ([`WorkloadSpec::Schedule`]:
//!   contract set by registry name, genesis state, timestamped requests);
//! * the **transforms** — declarative schedule rewrites (activity deferral,
//!   rate control) applied after generation and arrival re-stamping, so an
//!   optimized configuration is expressible as data;
//! * the **variants** — the prepared contract rewrites to install
//!   ([`VariantKind`]), drawn from the workload's variant table
//!   ([`WorkloadSpec::variant_table`]) and installed from the contract
//!   registry;
//! * the **arrival process** — how requests enter the network
//!   ([`ArrivalSpec`]): the schedule's own closed-loop timestamps
//!   (default), or an open-loop Poisson / uniform re-stamping;
//! * the **network** — the full [`NetworkConfig`].
//!
//! [`ScenarioSpec::build`] lowers a spec back to a ready-to-run
//! `(WorkloadBundle, NetworkConfig)` pair in two steps:
//! [`generate`](ScenarioSpec::generate) runs the seed-dependent, expensive
//! generator (or replays the schedule), and [`finish`](ScenarioSpec::finish)
//! applies the cheap rest — variants, arrivals, transforms, fault and retry.
//! The closed loop generates once per seed and `finish`es every measured
//! configuration's spec from that one workload. A spec-rebuilt bundle
//! simulates byte-identically to the generator-built one (test-enforced in
//! `tests/scenario_roundtrip.rs`).
//!
//! Generation is **seed-parameterized**: [`ScenarioSpec::with_seed`]
//! re-seeds both the generator and the network, so a multi-seed measurement
//! varies the workload itself, not just endorser selection.

use crate::bundle::{VariantKind, WorkloadBundle};
use crate::spec::ControlVariables;
use crate::{drm, dv, ehr, lap, optimize, scm, synthetic};
use fabric_sim::config::NetworkConfig;
pub use fabric_sim::config::MAX_PHASE;
use fabric_sim::fault::{FaultSpec, RetryPolicy};
use fabric_sim::policy::MAX_POLICY_ORGS;
use fabric_sim::sim::TxRequest;
use fabric_sim::types::Value;
use serde::{Deserialize, Serialize};
use sim_core::dist::Exponential;
use sim_core::rng::SimRng;
use sim_core::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Why a spec could not be validated or built. Every failure mode of the
/// declarative layer is typed — malformed user JSON must surface as an
/// error value, never a generator panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The scenario name passed to [`ScenarioSpec::builtin`] is not one of
    /// the built-in generators.
    UnknownScenario {
        /// The unrecognized name.
        name: String,
    },
    /// A contract registry id named by the spec does not resolve.
    UnknownContract {
        /// The unrecognized id.
        name: String,
        /// Every registered id.
        known: Vec<String>,
    },
    /// A numeric or structural parameter is out of its domain (negative
    /// rate, zero transactions, shares that exceed 1, …).
    BadParameter {
        /// Dotted path of the offending field, e.g. `"scm.send_rate"`.
        field: String,
        /// What the domain is and what arrived instead.
        message: String,
    },
    /// The spec selects a contract variant outside its workload's variant
    /// table ([`WorkloadSpec::variant_table`]). Every subset of a table
    /// installs, so this is the only variant error.
    UnsupportedVariant {
        /// The offending kinds.
        variants: Vec<VariantKind>,
        /// The workload the spec describes.
        workload: String,
    },
    /// The spec JSON could not be parsed.
    Json(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownScenario { name } => write!(
                f,
                "unknown scenario {name:?} (expected one of {})",
                BUILTIN_NAMES.join(", ")
            ),
            SpecError::UnknownContract { name, known } => write!(
                f,
                "unknown contract {name:?}; registered ids: {}",
                known.join(", ")
            ),
            SpecError::BadParameter { field, message } => {
                write!(f, "bad spec parameter {field}: {message}")
            }
            SpecError::UnsupportedVariant { variants, workload } => {
                let names: Vec<String> = variants.iter().map(|v| v.to_string()).collect();
                write!(
                    f,
                    "the {workload} workload ships no prepared rewrite for variant set {{{}}}",
                    names.join(", ")
                )
            }
            SpecError::Json(msg) => write!(f, "malformed scenario JSON: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// A declarative schedule rewrite, applied after the workload is generated
/// (or replayed) and after the arrival process ([`ArrivalSpec`]) has
/// re-stamped it: a `Throttle` re-spaces an open-loop schedule instead of
/// being overwritten by it. These are the data form of the paper's
/// client-side Table-4 settings, so an *optimized* configuration is itself
/// a spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SpecTransform {
    /// Reschedule the named activities after all others, keeping the
    /// original injection timestamps ([`optimize::move_to_end`]).
    DeferActivities {
        /// Activities moved to the end of the schedule.
        activities: Vec<String>,
    },
    /// Re-space the whole schedule at the given rate
    /// ([`optimize::rate_control`]).
    Throttle {
        /// Target rate, tx/s (must be positive and finite).
        rate: f64,
    },
}

impl SpecTransform {
    /// Apply the transform to a request schedule.
    pub fn apply(&self, requests: &[TxRequest]) -> Vec<TxRequest> {
        match self {
            SpecTransform::DeferActivities { activities } => {
                let names: Vec<&str> = activities.iter().map(String::as_str).collect();
                optimize::move_to_end(requests, &names)
            }
            SpecTransform::Throttle { rate } => optimize::rate_control(requests, *rate),
        }
    }
}

/// An explicit, replayable workload: the schedule JSON of a real
/// deployment. Contracts are named by registry id
/// ([`chaincode::registry`]); genesis and requests are inlined.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleSpec {
    /// Contract registry ids to install, e.g. `["scm"]`.
    pub contracts: Vec<String>,
    /// Genesis world state as `(namespace, key, value)`.
    pub genesis: Vec<(String, String, Value)>,
    /// The timestamped request schedule.
    pub requests: Vec<TxRequest>,
}

/// How a spec's schedule, genesis, and contract set come to be: one of the
/// five built-in generators with its full parameter struct, or an explicit
/// schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// The genChain synthetic generator under Table-2 control variables.
    Synthetic(ControlVariables),
    /// Supply Chain Management (§5.1.2).
    Scm(scm::ScmSpec),
    /// Digital Rights Management (§5.1.2).
    Drm(drm::DrmSpec),
    /// Electronic Health Records (§5.1.2).
    Ehr(ehr::EhrSpec),
    /// Digital Voting (§5.1.2).
    Dv(dv::DvSpec),
    /// Loan Application Process (§5.1.3).
    Lap(lap::LapSpec),
    /// An explicit, replayable schedule (bring-your-own-log deployments).
    Schedule(ScheduleSpec),
}

impl WorkloadSpec {
    /// Short label of the workload kind (also the built-in scenario name).
    pub fn kind(&self) -> &'static str {
        match self {
            WorkloadSpec::Synthetic(_) => "synthetic",
            WorkloadSpec::Scm(_) => "scm",
            WorkloadSpec::Drm(_) => "drm",
            WorkloadSpec::Ehr(_) => "ehr",
            WorkloadSpec::Dv(_) => "dv",
            WorkloadSpec::Lap(_) => "lap",
            WorkloadSpec::Schedule(_) => "schedule",
        }
    }

    /// The variant table: the kinds this workload ships prepared rewrites
    /// for. [`ScenarioSpec::validate`] admits only these, and every subset
    /// installs ([`ScenarioSpec::contract_ids`] names its contract set).
    pub fn variant_table(&self) -> &'static [VariantKind] {
        match self {
            WorkloadSpec::Synthetic(_) | WorkloadSpec::Schedule(_) => &[],
            WorkloadSpec::Scm(_) | WorkloadSpec::Ehr(_) => &[VariantKind::Pruned],
            WorkloadSpec::Drm(_) => &[VariantKind::DeltaWrites, VariantKind::Partitioned],
            WorkloadSpec::Dv(_) | WorkloadSpec::Lap(_) => &[VariantKind::Rekeyed],
        }
    }

    /// The generator seed (the network seed for explicit schedules, which
    /// have no generator randomness).
    fn seed(&self) -> Option<u64> {
        match self {
            WorkloadSpec::Synthetic(cv) => Some(cv.seed),
            WorkloadSpec::Scm(s) => Some(s.seed),
            WorkloadSpec::Drm(s) => Some(s.seed),
            WorkloadSpec::Ehr(s) => Some(s.seed),
            WorkloadSpec::Dv(s) => Some(s.seed),
            WorkloadSpec::Lap(s) => Some(s.seed),
            WorkloadSpec::Schedule(_) => None,
        }
    }

    fn set_seed(&mut self, seed: u64) {
        match self {
            WorkloadSpec::Synthetic(cv) => cv.seed = seed,
            WorkloadSpec::Scm(s) => s.seed = seed,
            WorkloadSpec::Drm(s) => s.seed = seed,
            WorkloadSpec::Ehr(s) => s.seed = seed,
            WorkloadSpec::Dv(s) => s.seed = seed,
            WorkloadSpec::Lap(s) => s.seed = seed,
            WorkloadSpec::Schedule(_) => {}
        }
    }
}

/// The built-in scenario names [`ScenarioSpec::builtin`] accepts.
pub const BUILTIN_NAMES: [&str; 6] = ["synthetic", "scm", "drm", "ehr", "dv", "lap"];

/// RNG stream label for open-loop arrival re-stamping (disjoint from the
/// generators' and the simulator's streams).
const ARRIVAL_STREAM: u64 = 0xA771;

/// How transactions enter the network when the spec is lowered to a
/// schedule.
///
/// The paper measures with Caliper's **closed loop**: a fixed client fleet
/// whose send timestamps the workload generator bakes into the schedule —
/// that is [`ArrivalSpec::Closed`], the default, and it leaves the
/// generated (or replayed) timestamps untouched. The **open-loop** modes
/// instead re-stamp every request's `send_time` with an external arrival
/// process, keeping the request sequence: the mix, keys, and invokers stay
/// the generator's, only the injection times change. Under a sparse open
/// loop the orderer's `block_timeout` starts winning the block-cut race
/// against `block_count`, a regime a closed loop at generator rates never
/// exhibits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum ArrivalSpec {
    /// Keep the schedule's own send timestamps (the paper's closed loop).
    #[default]
    Closed,
    /// Open-loop Poisson process: exponential inter-arrival gaps with the
    /// given mean rate, sampled from an RNG stream derived from the spec
    /// seed (so [`ScenarioSpec::with_seed`] varies the arrivals too).
    Poisson {
        /// Mean arrival rate, tx/s (positive, finite).
        rate: f64,
    },
    /// Open-loop deterministic arrivals: one transaction every `gap`
    /// seconds, starting at `gap`.
    Uniform {
        /// Inter-arrival gap, seconds (positive, finite).
        gap: f64,
    },
}

impl ArrivalSpec {
    /// Whether this arrival process re-stamps the schedule (anything but
    /// the closed loop).
    pub fn is_open(&self) -> bool {
        !matches!(self, ArrivalSpec::Closed)
    }

    /// Re-stamp `requests` with this arrival process. The schedule's own
    /// injection order (send time, then position — exactly how the
    /// simulator sorts it) is preserved; only the timestamps change.
    /// `Closed` is the identity.
    pub fn restamp(&self, requests: &[TxRequest], seed: u64) -> Vec<TxRequest> {
        if !self.is_open() {
            return requests.to_vec();
        }
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_key(|&i| (requests[i].send_time, i));
        let mut gaps: Box<dyn FnMut() -> SimDuration> = match self {
            ArrivalSpec::Closed => unreachable!("handled above"),
            ArrivalSpec::Poisson { rate } => {
                let dist = Exponential::with_mean(SimDuration::from_secs_f64(1.0 / rate));
                let mut rng = SimRng::derive(seed, ARRIVAL_STREAM);
                Box::new(move || dist.sample(&mut rng))
            }
            ArrivalSpec::Uniform { gap } => {
                let gap = SimDuration::from_secs_f64(*gap);
                Box::new(move || gap)
            }
        };
        let mut t = SimTime::ZERO;
        order
            .into_iter()
            .map(|i| {
                t += gaps();
                TxRequest {
                    send_time: t,
                    ..requests[i].clone()
                }
            })
            .collect()
    }
}

/// One fully described, serializable, replayable workload scenario. See
/// the [module docs](self) for the shape and guarantees.
///
/// Specs saved before the open-loop or the fault layer existed lack the
/// `arrival`, `fault` and `retry` fields; such JSON keeps parsing, with
/// each absent field at its default.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Display name (the built-in scenario name, or a user label).
    pub name: String,
    /// Schedule/genesis/contract production.
    // detlint: allow(spec-validate, reason = "validated structurally: every validate() arm names this field's contents by workload-kind prefix (scm., dv., …)")
    pub workload: WorkloadSpec,
    /// How transactions enter the network: the schedule's own closed-loop
    /// timestamps, or an open-loop re-stamping ([`ArrivalSpec`]). Absent in
    /// JSON ⇒ the closed loop.
    #[serde(default)]
    pub arrival: ArrivalSpec,
    /// Declarative schedule rewrites, applied in order after generation and
    /// arrival re-stamping.
    pub transforms: Vec<SpecTransform>,
    /// Prepared contract rewrites to install, drawn from the workload's
    /// variant table and installed as one set
    /// ([`contract_ids`](ScenarioSpec::contract_ids)).
    // detlint: allow(spec-validate, reason = "validated through the typed UnsupportedVariant error path, which carries the offending variants instead of a dotted string")
    pub variants: BTreeSet<VariantKind>,
    /// The network configuration the scenario runs under.
    pub network: NetworkConfig,
    /// Declarative fault plan (outages, latency spikes, orderer stalls,
    /// message drops). Absent in JSON ⇒ no faults.
    #[serde(default)]
    pub fault: FaultSpec,
    /// Client resilience policy (endorsement timeout, retries, backoff).
    /// Absent in JSON ⇒ the legacy wait-forever client.
    #[serde(default)]
    pub retry: RetryPolicy,
}

/// Shorthand for [`SpecError::BadParameter`].
fn bad(field: &str, message: impl Into<String>) -> SpecError {
    SpecError::BadParameter {
        field: field.to_string(),
        message: message.into(),
    }
}

/// A rate must be finite and at least [`MIN_RATE`].
fn check_rate(field: &str, rate: f64) -> Result<(), SpecError> {
    if rate.is_finite() && rate >= MIN_RATE {
        Ok(())
    } else {
        Err(bad(
            field,
            format!("rate must be at least {MIN_RATE} tx/s, got {rate}"),
        ))
    }
}

/// A share must lie in `[0, 1]`.
fn check_share(field: &str, share: f64) -> Result<(), SpecError> {
    if share.is_finite() && (0.0..=1.0).contains(&share) {
        Ok(())
    } else {
        Err(bad(field, format!("share must be in [0, 1], got {share}")))
    }
}

/// A count must be at least `min`.
fn check_min(field: &str, value: usize, min: usize) -> Result<(), SpecError> {
    if value >= min {
        Ok(())
    } else {
        Err(bad(field, format!("must be at least {min}, got {value}")))
    }
}

/// A count must lie in `[min, max]`.
fn check_range(field: &str, value: usize, min: usize, max: usize) -> Result<(), SpecError> {
    check_min(field, value, min)?;
    if value <= max {
        Ok(())
    } else {
        Err(bad(field, format!("must be at most {max}, got {value}")))
    }
}

/// A count a generator allocates by must lie in `[min, MAX_GENERATED]`.
fn check_count(field: &str, value: usize, min: usize) -> Result<(), SpecError> {
    check_range(field, value, min, MAX_GENERATED)
}

/// Upper bound on the organizations of a spec, and on the client workers or
/// endorsing peers of one organization: the simulator numbers them with
/// `u16` ids (`OrgId`, `ClientId::index`, `PeerId::index`), so a larger
/// count would silently alias ids.
pub const MAX_IDS: usize = u16::MAX as usize + 1;

/// Upper bound on the client workers, and separately on the endorsing
/// peers, of a whole network: the simulator allocates one queueing server
/// per worker and per peer before the run starts.
pub const MAX_FLEET: usize = 1 << 16;

/// Upper bound on every count a workload generator allocates by: its
/// transactions, and its products, audits, batch, catalogue, patients,
/// institutes, parties, queries, votes, applications or employees. The
/// generators size their schedules, genesis states and weight tables by
/// these counts before anything runs, so an unbounded count is an
/// input-sized allocation. 2²⁰ is ~50× the largest workload the repository
/// runs (20 000 transactions).
pub const MAX_GENERATED: usize = 1 << 20;

/// Upper bound on `retry.max_attempts`. Under a permanent outage every
/// transaction spends its whole budget, so a run's work grows linearly
/// with it.
pub const MAX_RETRY_ATTEMPTS: usize = 64;

/// Upper bound on the windows of each fault list (`fault.endorser_outages`,
/// `fault.latency_spikes`, `fault.orderer_stalls`). It also bounds the
/// pairwise orderer-stall overlap check.
pub const MAX_FAULT_WINDOWS: usize = 1 << 10;

/// Lower bound, in tx/s, on every rate a spec sets: the generator rates,
/// `arrival.rate` and each `transforms[i].rate`. `arrival.gap` is bounded
/// by its inverse, 1 000 s. Send times are microsecond `SimTime`s (u64, so
/// at most ~585 000 years). At this rate, [`MAX_GENERATED`] requests span
/// ~33 years; even if every exponential inter-arrival gap drew its largest
/// possible value (~708 means), the last send time stays more than 10×
/// inside `SimTime`'s range.
pub const MIN_RATE: f64 = 1e-3;

/// Upper bound on every instant a spec sets: each frozen
/// `schedule.requests[i].send_time` and the end of each fault window.
/// 2⁶² µs is ~146 000 years. A run ends after its latest send time plus
/// the phase chains of its transactions, each phase queueing behind the
/// others at worst. The ~1.4·10¹⁹ µs of `SimTime` left above this bound
/// hold ~3.8·10⁹ back-to-back phases of [`MAX_PHASE`], far more than any
/// schedule a run can simulate, so no event time leaves the clock's range.
pub const MAX_INSTANT: SimTime = SimTime(1 << 62);

/// A duration must be at most [`MAX_PHASE`] (in µs, as specs spell it).
fn check_phase(field: &str, duration: SimDuration) -> Result<(), SpecError> {
    if duration <= MAX_PHASE {
        Ok(())
    } else {
        let (max, got) = (MAX_PHASE.as_micros(), duration.as_micros());
        Err(bad(
            field,
            format!("must be at most {max} µs, got {got} µs"),
        ))
    }
}

/// An instant must be at most [`MAX_INSTANT`] (in µs, as specs spell it).
fn check_instant(field: &str, at: SimTime) -> Result<(), SpecError> {
    if at <= MAX_INSTANT {
        Ok(())
    } else {
        let (max, got) = (MAX_INSTANT.as_micros(), at.as_micros());
        Err(bad(
            field,
            format!("must be at most {max} µs, got {got} µs"),
        ))
    }
}

impl ScenarioSpec {
    /// The spec of a built-in scenario under its default parameters and
    /// the default network configuration — what `blockoptr spec <name>`
    /// dumps.
    pub fn builtin(name: &str) -> Result<ScenarioSpec, SpecError> {
        let workload = match name {
            "synthetic" => WorkloadSpec::Synthetic(ControlVariables::default()),
            "scm" => WorkloadSpec::Scm(scm::ScmSpec::default()),
            "drm" => WorkloadSpec::Drm(drm::DrmSpec::default()),
            "ehr" => WorkloadSpec::Ehr(ehr::EhrSpec::default()),
            "dv" => WorkloadSpec::Dv(dv::DvSpec::default()),
            "lap" => WorkloadSpec::Lap(lap::LapSpec::default()),
            other => {
                return Err(SpecError::UnknownScenario {
                    name: other.to_string(),
                })
            }
        };
        let network = match &workload {
            WorkloadSpec::Synthetic(cv) => cv.network_config(),
            _ => NetworkConfig::default(),
        };
        Ok(ScenarioSpec {
            name: name.to_string(),
            workload,
            arrival: ArrivalSpec::Closed,
            transforms: Vec::new(),
            variants: BTreeSet::new(),
            network,
            fault: FaultSpec::default(),
            retry: RetryPolicy::default(),
        })
    }

    /// Scale the scenario to roughly `txs` transactions, preserving each
    /// generator's internal proportions (the `--txs` behaviour of the CLI).
    pub fn with_transactions(mut self, txs: usize) -> ScenarioSpec {
        match &mut self.workload {
            WorkloadSpec::Synthetic(cv) => cv.transactions = txs,
            WorkloadSpec::Scm(s) => s.transactions = txs,
            WorkloadSpec::Drm(s) => s.transactions = txs,
            WorkloadSpec::Ehr(s) => s.transactions = txs,
            WorkloadSpec::Dv(s) => {
                // Keep the paper's 1:5 query:vote phase proportions.
                s.queries = (txs / 6).max(1);
                s.votes = txs.saturating_sub(s.queries).max(1);
            }
            WorkloadSpec::Lap(s) => {
                // ~10 events per application.
                s.applications = (txs / 10).max(10);
            }
            WorkloadSpec::Schedule(_) => {}
        }
        self
    }

    /// The scenario's seed: the generator seed (explicit schedules, which
    /// have no generator randomness, report the network seed).
    pub fn seed(&self) -> u64 {
        self.workload.seed().unwrap_or(self.network.seed)
    }

    /// Re-seed the scenario: both the workload generator and the network
    /// take `seed`, so two seeds differ in the *traffic itself* (schedule,
    /// keys, invokers), not just in endorser selection. The spec is
    /// otherwise unchanged — two derived specs are identical modulo their
    /// seed fields.
    pub fn with_seed(mut self, seed: u64) -> ScenarioSpec {
        self.workload.set_seed(seed);
        self.network.seed = seed;
        self
    }

    /// Builder-style override of the arrival process ([`ArrivalSpec`]).
    pub fn with_arrival(mut self, arrival: ArrivalSpec) -> ScenarioSpec {
        self.arrival = arrival;
        self
    }

    /// Validate every parameter domain without generating anything.
    /// [`generate`](Self::generate) and [`finish`](Self::finish) call this
    /// first; malformed user specs fail here with a typed [`SpecError`]
    /// instead of tripping a generator assertion.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.trim().is_empty() {
            return Err(bad("name", "scenario name must be non-empty"));
        }
        match &self.workload {
            WorkloadSpec::Synthetic(cv) => {
                check_rate("synthetic.send_rate", cv.send_rate)?;
                check_count("synthetic.transactions", cv.transactions, 1)?;
                check_min("synthetic.orgs", cv.orgs, 1)?;
                check_min("synthetic.block_count", cv.block_count, 1)?;
                check_share("synthetic.tx_dist_skew", cv.tx_dist_skew)?;
                if !cv.key_skew.is_finite() || cv.key_skew < 0.0 {
                    return Err(bad("synthetic.key_skew", "must be nonnegative"));
                }
                if !cv.endorser_skew.is_finite() || cv.endorser_skew < 0.0 {
                    return Err(bad("synthetic.endorser_skew", "must be nonnegative"));
                }
            }
            WorkloadSpec::Scm(s) => {
                check_rate("scm.send_rate", s.send_rate)?;
                check_count("scm.transactions", s.transactions, 1)?;
                check_count("scm.products", s.products, 1)?;
                check_count("scm.audits", s.audits, 1)?;
                check_count("scm.batch", s.batch, 1)?;
                check_min("scm.orgs", s.orgs, 1)?;
                check_share("scm.query_share", s.query_share)?;
                check_share("scm.audit_share", s.audit_share)?;
                check_share("scm.anomaly_rate", s.anomaly_rate)?;
                if s.query_share + s.audit_share >= 1.0 {
                    return Err(bad(
                        "scm.query_share",
                        "query_share + audit_share must leave room for the product flow",
                    ));
                }
            }
            WorkloadSpec::Drm(s) => {
                check_rate("drm.send_rate", s.send_rate)?;
                check_count("drm.transactions", s.transactions, 1)?;
                check_count("drm.catalogue", s.catalogue, 1)?;
                check_min("drm.orgs", s.orgs, 1)?;
                check_share("drm.play_share", s.play_share)?;
                if !s.popularity_skew.is_finite() || s.popularity_skew < 0.0 {
                    return Err(bad("drm.popularity_skew", "must be nonnegative"));
                }
            }
            WorkloadSpec::Ehr(s) => {
                check_rate("ehr.send_rate", s.send_rate)?;
                check_count("ehr.transactions", s.transactions, 1)?;
                check_count("ehr.patients", s.patients, 1)?;
                check_count("ehr.institutes", s.institutes, 1)?;
                check_min("ehr.orgs", s.orgs, 1)?;
                check_share("ehr.update_share", s.update_share)?;
                check_share("ehr.anomalous_revoke_rate", s.anomalous_revoke_rate)?;
            }
            WorkloadSpec::Dv(s) => {
                check_rate("dv.query_rate", s.query_rate)?;
                check_rate("dv.vote_rate", s.vote_rate)?;
                check_count("dv.parties", s.parties, 1)?;
                check_count("dv.queries", s.queries, 1)?;
                check_count("dv.votes", s.votes, 1)?;
                check_min("dv.orgs", s.orgs, 1)?;
            }
            WorkloadSpec::Lap(s) => {
                check_rate("lap.send_rate", s.send_rate)?;
                check_count("lap.applications", s.applications, 1)?;
                check_count("lap.employees", s.employees, 2)?;
                check_min("lap.orgs", s.orgs, 1)?;
                check_share("lap.hot_employee_share", s.hot_employee_share)?;
                check_share("lap.rework_rate", s.rework_rate)?;
                check_share("lap.burst_rate", s.burst_rate)?;
            }
            WorkloadSpec::Schedule(s) => {
                if s.contracts.is_empty() {
                    return Err(bad("schedule.contracts", "at least one contract id"));
                }
                // Each installed namespace's activities. A later contract of
                // the same namespace replaces an earlier one at install.
                let mut namespaces: BTreeMap<String, Vec<&'static str>> = BTreeMap::new();
                for id in &s.contracts {
                    let contract = chaincode::registry::resolve(id).ok_or_else(|| {
                        SpecError::UnknownContract {
                            name: id.clone(),
                            known: chaincode::registry::KNOWN
                                .iter()
                                .map(|s| s.to_string())
                                .collect(),
                        }
                    })?;
                    namespaces.insert(contract.name().to_string(), contract.activities());
                }
                for (i, (ns, _key, _value)) in s.genesis.iter().enumerate() {
                    if !namespaces.contains_key(ns.as_str()) {
                        return Err(bad(
                            &format!("schedule.genesis[{i}].namespace"),
                            format!("namespace {ns:?} is not installed by {:?}", s.contracts),
                        ));
                    }
                }
                for (i, r) in s.requests.iter().enumerate() {
                    let Some(activities) = namespaces.get(r.contract.as_ref()) else {
                        return Err(bad(
                            &format!("schedule.requests[{i}].contract"),
                            format!(
                                "namespace {:?} is not installed by {:?}",
                                r.contract.as_ref(),
                                s.contracts
                            ),
                        ));
                    };
                    if !activities.contains(&r.activity.as_ref()) {
                        return Err(bad(
                            &format!("schedule.requests[{i}].activity"),
                            format!(
                                "contract {:?} has no activity {:?} (it has {activities:?})",
                                r.contract.as_ref(),
                                r.activity.as_ref()
                            ),
                        ));
                    }
                }
            }
        }
        match &self.arrival {
            ArrivalSpec::Closed => {}
            ArrivalSpec::Poisson { rate } => check_rate("arrival.rate", *rate)?,
            ArrivalSpec::Uniform { gap } => {
                if !(gap.is_finite() && *gap > 0.0 && *gap <= 1.0 / MIN_RATE) {
                    return Err(bad(
                        "arrival.gap",
                        format!(
                            "gap must be positive seconds, at most {}, got {gap}",
                            1.0 / MIN_RATE
                        ),
                    ));
                }
            }
        }
        for (i, t) in self.transforms.iter().enumerate() {
            match t {
                SpecTransform::Throttle { rate } => {
                    check_rate(&format!("transforms[{i}].rate"), *rate)?
                }
                SpecTransform::DeferActivities { activities } => {
                    if activities.is_empty() {
                        return Err(bad(
                            &format!("transforms[{i}].activities"),
                            "deferral needs at least one activity",
                        ));
                    }
                }
            }
        }
        let table = self.workload.variant_table();
        let unsupported: Vec<VariantKind> = self
            .variants
            .iter()
            .copied()
            .filter(|v| !table.contains(v))
            .collect();
        if !unsupported.is_empty() {
            return Err(SpecError::UnsupportedVariant {
                variants: unsupported,
                workload: self.workload.kind().to_string(),
            });
        }
        self.validate_fleets()?;
        self.validate_policy()?;
        self.validate_invokers()?;
        check_min("network.block_count", self.network.block_count, 1)?;
        if self.network.block_bytes == 0 {
            return Err(bad("network.block_bytes", "must be at least 1, got 0"));
        }
        self.validate_fault()?;
        self.validate_retry()?;
        self.validate_times()?;
        Ok(())
    }

    /// Clock bounds: every phase duration the network sets is at most
    /// [`MAX_PHASE`], and every instant the spec sets is at most
    /// [`MAX_INSTANT`], so a run's event times stay inside `SimTime`.
    fn validate_times(&self) -> Result<(), SpecError> {
        let net = &self.network;
        let res = &net.resources;
        for (field, duration) in [
            ("network.block_timeout", net.block_timeout),
            ("network.resources.client_per_tx", res.client_per_tx),
            ("network.resources.net_delay", res.net_delay),
            ("network.resources.endorse_exec_base", res.endorse_exec_base),
            (
                "network.resources.endorse_exec_per_access",
                res.endorse_exec_per_access,
            ),
            ("network.resources.order_block_fixed", res.order_block_fixed),
            ("network.resources.order_per_tx", res.order_per_tx),
            ("network.resources.raft_delay", res.raft_delay),
            (
                "network.resources.validate_block_fixed",
                res.validate_block_fixed,
            ),
            ("network.resources.validate_per_tx", res.validate_per_tx),
            ("network.resources.validate_per_item", res.validate_per_item),
            (
                "network.resources.validate_per_endorsement",
                res.validate_per_endorsement,
            ),
        ] {
            check_phase(field, duration)?;
        }
        if let WorkloadSpec::Schedule(s) = &self.workload {
            for (i, r) in s.requests.iter().enumerate() {
                check_instant(&format!("schedule.requests[{i}].send_time"), r.send_time)?;
            }
        }
        let fault = &self.fault;
        let outages = fault.endorser_outages.iter().map(|w| w.start + w.duration);
        let spikes = fault.latency_spikes.iter().map(|w| w.start + w.duration);
        let stalls = fault.orderer_stalls.iter().map(|w| w.start + w.duration);
        let last = MAX_INSTANT.as_secs_f64();
        for (list, ends) in [
            ("fault.endorser_outages", outages.collect::<Vec<_>>()),
            ("fault.latency_spikes", spikes.collect()),
            ("fault.orderer_stalls", stalls.collect()),
        ] {
            if let Some(i) = ends.iter().position(|&end| end > last) {
                return Err(bad(
                    &format!("{list}[{i}].duration"),
                    format!("the window must end by {last} s, ends at {} s", ends[i]),
                ));
            }
        }
        for (i, spike) in fault.latency_spikes.iter().enumerate() {
            check_phase(
                &format!("fault.latency_spikes[{i}].multiplier"),
                res.net_delay.mul_f64(spike.multiplier),
            )?;
        }
        Ok(())
    }

    /// Network dimensions: every org, worker and peer needs a distinct
    /// `u16` id ([`MAX_IDS`]), and each fleet is allocated up front, so its
    /// total is capped ([`MAX_FLEET`]).
    fn validate_fleets(&self) -> Result<(), SpecError> {
        let net = &self.network;
        check_range("network.orgs", net.orgs, 1, MAX_IDS)?;
        check_range("network.clients_per_org", net.clients_per_org, 1, MAX_IDS)?;
        check_min("network.total_endorser_peers", net.total_endorser_peers, 1)?;
        let per_org = net.endorsers_per_org();
        if per_org > MAX_IDS {
            return Err(bad(
                "network.total_endorser_peers",
                format!("{per_org} endorsers per org exceeds the {MAX_IDS} a peer id can name"),
            ));
        }
        let mut workers = net.orgs.saturating_mul(net.clients_per_org);
        if let Some((org, factor)) = net.client_boost {
            if usize::from(org) >= net.orgs {
                return Err(bad(
                    "network.client_boost",
                    format!("org {org} does not exist (network has {} orgs)", net.orgs),
                ));
            }
            let boosted = net.clients_per_org.saturating_mul(factor.max(1));
            if boosted > MAX_IDS {
                return Err(bad(
                    "network.client_boost",
                    format!(
                        "boosting {} workers by {factor} gives org {org} {boosted}, more than \
                         the {MAX_IDS} a worker id can name",
                        net.clients_per_org
                    ),
                ));
            }
            workers = workers - net.clients_per_org + boosted;
        }
        if workers > MAX_FLEET {
            return Err(bad(
                "network.clients_per_org",
                format!("{workers} client workers in total exceeds the cap of {MAX_FLEET}"),
            ));
        }
        let peers = net.orgs.saturating_mul(per_org);
        if peers > MAX_FLEET {
            return Err(bad(
                "network.total_endorser_peers",
                format!("{peers} endorsing peers in total exceeds the cap of {MAX_FLEET}"),
            ));
        }
        Ok(())
    }

    /// The endorsement policy must be expandable, name only orgs the
    /// network runs (the simulator indexes its endorser fleet by them) and
    /// be satisfiable: every run expands it into its minimal satisfying
    /// sets, which takes 2^n steps for n mentioned orgs
    /// ([`MAX_POLICY_ORGS`]).
    fn validate_policy(&self) -> Result<(), SpecError> {
        const FIELD: &str = "network.endorsement_policy";
        let policy = &self.network.endorsement_policy;
        let mentioned = policy.orgs();
        if mentioned.len() > MAX_POLICY_ORGS {
            return Err(bad(
                FIELD,
                format!(
                    "the policy names {} orgs; at most {MAX_POLICY_ORGS} can be expanded",
                    mentioned.len()
                ),
            ));
        }
        if let Some(stray) = mentioned
            .iter()
            .find(|o| usize::from(o.0) >= self.network.orgs)
        {
            return Err(bad(
                FIELD,
                format!(
                    "org {} does not exist (network has {} orgs)",
                    stray.0, self.network.orgs
                ),
            ));
        }
        if mentioned.is_empty() {
            return Err(bad(FIELD, "the policy names no organization"));
        }
        // Policies are monotone, so a non-empty set of their orgs satisfies
        // one exactly when all of them together do.
        if !policy.satisfied_by(&mentioned) {
            return Err(bad(FIELD, "no set of the policy's orgs satisfies it"));
        }
        Ok(())
    }

    /// Every org the workload invokes from must exist in the network: the
    /// simulator indexes its worker fleet by the invoking org. As
    /// `network.orgs` is within [`MAX_IDS`], so is every workload
    /// `*.orgs`. A synthetic workload invokes from
    /// [`ControlVariables::effective_orgs`]: P1, P2 and P4 name four orgs,
    /// so they widen the invokers past `synthetic.orgs`.
    fn validate_invokers(&self) -> Result<(), SpecError> {
        let orgs = self.network.orgs;
        let (field, invokers) = match &self.workload {
            WorkloadSpec::Synthetic(cv) if cv.effective_orgs() > cv.orgs => {
                ("synthetic.policy", cv.effective_orgs())
            }
            WorkloadSpec::Synthetic(cv) => ("synthetic.orgs", cv.orgs),
            WorkloadSpec::Scm(s) => ("scm.orgs", s.orgs),
            WorkloadSpec::Drm(s) => ("drm.orgs", s.orgs),
            WorkloadSpec::Ehr(s) => ("ehr.orgs", s.orgs),
            WorkloadSpec::Dv(s) => ("dv.orgs", s.orgs),
            WorkloadSpec::Lap(s) => ("lap.orgs", s.orgs),
            WorkloadSpec::Schedule(s) => {
                let stray = s
                    .requests
                    .iter()
                    .enumerate()
                    .find(|(_, r)| usize::from(r.invoker_org.0) >= orgs);
                return match stray {
                    Some((i, r)) => Err(bad(
                        &format!("schedule.requests[{i}].invoker_org"),
                        format!(
                            "org {} does not exist (network has {orgs} orgs)",
                            r.invoker_org.0
                        ),
                    )),
                    None => Ok(()),
                };
            }
        };
        if invokers > orgs {
            return Err(bad(
                field,
                format!("{invokers} invoking orgs, but the network has {orgs}"),
            ));
        }
        Ok(())
    }

    /// Domain checks for the fault plan: each list holds at most
    /// [`MAX_FAULT_WINDOWS`] windows, every window must be a real, positive
    /// span of time, outages must name peers the network actually has,
    /// spikes must not *speed up* the network, and orderer stalls must not
    /// overlap (two concurrent stalls have no defined release order).
    fn validate_fault(&self) -> Result<(), SpecError> {
        fn check_window(prefix: &str, start: f64, duration: f64) -> Result<(), SpecError> {
            if !start.is_finite() || start < 0.0 {
                return Err(bad(
                    &format!("{prefix}.start"),
                    format!("must be nonnegative seconds, got {start}"),
                ));
            }
            if !duration.is_finite() || duration <= 0.0 {
                return Err(bad(
                    &format!("{prefix}.duration"),
                    format!("must be positive seconds, got {duration}"),
                ));
            }
            Ok(())
        }
        for (field, windows) in [
            ("fault.endorser_outages", self.fault.endorser_outages.len()),
            ("fault.latency_spikes", self.fault.latency_spikes.len()),
            ("fault.orderer_stalls", self.fault.orderer_stalls.len()),
        ] {
            check_range(field, windows, 0, MAX_FAULT_WINDOWS)?;
        }
        for (i, w) in self.fault.endorser_outages.iter().enumerate() {
            let prefix = format!("fault.endorser_outages[{i}]");
            check_window(&prefix, w.start, w.duration)?;
            if usize::from(w.org) >= self.network.orgs {
                return Err(bad(
                    &format!("{prefix}.org"),
                    format!(
                        "org {} does not exist (network has {} orgs)",
                        w.org, self.network.orgs
                    ),
                ));
            }
            if let Some(peer) = w.peer {
                let per_org = self.network.endorsers_per_org();
                if usize::from(peer) >= per_org {
                    return Err(bad(
                        &format!("{prefix}.peer"),
                        format!("peer {peer} does not exist (each org runs {per_org} endorsers)"),
                    ));
                }
            }
        }
        for (i, s) in self.fault.latency_spikes.iter().enumerate() {
            let prefix = format!("fault.latency_spikes[{i}]");
            check_window(&prefix, s.start, s.duration)?;
            if !s.multiplier.is_finite() || s.multiplier < 1.0 {
                return Err(bad(
                    &format!("{prefix}.multiplier"),
                    format!("must be at least 1, got {}", s.multiplier),
                ));
            }
        }
        for (i, s) in self.fault.orderer_stalls.iter().enumerate() {
            check_window(&format!("fault.orderer_stalls[{i}]"), s.start, s.duration)?;
        }
        for (j, b) in self.fault.orderer_stalls.iter().enumerate() {
            for (i, a) in self.fault.orderer_stalls.iter().enumerate().take(j) {
                if a.start < b.start + b.duration && b.start < a.start + a.duration {
                    return Err(bad(
                        &format!("fault.orderer_stalls[{j}]"),
                        format!("overlaps fault.orderer_stalls[{i}]"),
                    ));
                }
            }
        }
        if let Some(drop) = self.fault.drop {
            check_share("fault.drop.proposal_rate", drop.proposal_rate)?;
            check_share("fault.drop.endorsement_rate", drop.endorsement_rate)?;
        }
        Ok(())
    }

    /// Domain checks for the client resilience policy.
    fn validate_retry(&self) -> Result<(), SpecError> {
        check_range(
            "retry.max_attempts",
            self.retry.max_attempts,
            1,
            MAX_RETRY_ATTEMPTS,
        )?;
        if let Some(t) = self.retry.endorse_timeout {
            let max = MAX_PHASE.as_secs_f64();
            if !t.is_finite() || t <= 0.0 || t > max {
                return Err(bad(
                    "retry.endorse_timeout",
                    format!("must be positive seconds, at most {max}, got {t}"),
                ));
            }
        }
        if !self.retry.backoff_base.is_finite() || self.retry.backoff_base < 0.0 {
            return Err(bad(
                "retry.backoff_base",
                format!(
                    "must be nonnegative seconds, got {}",
                    self.retry.backoff_base
                ),
            ));
        }
        if !self.retry.backoff_multiplier.is_finite() || self.retry.backoff_multiplier < 1.0 {
            return Err(bad(
                "retry.backoff_multiplier",
                format!("must be at least 1, got {}", self.retry.backoff_multiplier),
            ));
        }
        if !self.retry.jitter.is_finite() || !(0.0..1.0).contains(&self.retry.jitter) {
            return Err(bad(
                "retry.jitter",
                format!("must be in [0, 1), got {}", self.retry.jitter),
            ));
        }
        Ok(())
    }

    /// Lower the spec to a ready-to-run `(bundle, config)` pair:
    /// [`finish`](Self::finish) applied to [`generate`](Self::generate).
    pub fn build(&self) -> Result<(WorkloadBundle, NetworkConfig), SpecError> {
        self.finish(&self.generate()?)
    }

    /// Validate, then run the workload generator (or replay the explicit
    /// schedule). This is the seed-dependent, expensive half of
    /// [`build`](Self::build); its output is the raw workload, before
    /// variants, arrivals, transforms, fault and retry.
    pub fn generate(&self) -> Result<WorkloadBundle, SpecError> {
        self.validate()?;
        Ok(match &self.workload {
            WorkloadSpec::Synthetic(cv) => synthetic::generate(cv),
            WorkloadSpec::Scm(s) => scm::generate(s),
            WorkloadSpec::Drm(s) => drm::generate(s),
            WorkloadSpec::Ehr(s) => ehr::generate(s),
            WorkloadSpec::Dv(s) => dv::generate(s),
            WorkloadSpec::Lap(s) => lap::generate(s),
            WorkloadSpec::Schedule(s) => {
                let contracts = s
                    .contracts
                    .iter()
                    .map(|id| chaincode::registry::resolve(id).expect("validated above"))
                    .collect();
                WorkloadBundle::new(contracts, s.genesis.clone(), s.requests.clone())
            }
        })
    }

    /// Validate, then turn `generated` — the [`generate`](Self::generate)
    /// output of a spec with the same workload and seed — into this spec's
    /// ready-to-run pair: install the variants, re-stamp the arrivals, apply
    /// the transforms in order, then attach the fault plan and the retry
    /// policy.
    ///
    /// With variants selected, the contract set is
    /// [`contract_ids`](Self::contract_ids), resolved through
    /// [`chaincode::registry`]; DRM's `Partitioned` also re-routes the
    /// requests and splits the genesis ([`drm::partitioned`]). The other
    /// variants keep the generated requests and genesis.
    ///
    /// Arrivals come before transforms, so a `Throttle` re-spaces an
    /// open-loop schedule instead of being erased by the re-stamping.
    /// Deferral keeps the send order either way.
    pub fn finish(
        &self,
        generated: &WorkloadBundle,
    ) -> Result<(WorkloadBundle, NetworkConfig), SpecError> {
        self.validate()?;
        let mut bundle = generated.clone();
        if !self.variants.is_empty() {
            if let WorkloadSpec::Drm(drm_spec) = &self.workload {
                if self.variants.contains(&VariantKind::Partitioned) {
                    bundle = drm::partitioned(bundle, drm_spec);
                }
            }
            bundle.contracts = self
                .contract_ids()
                .iter()
                .map(|id| {
                    chaincode::registry::resolve(id)
                        .expect("every variant-table subset names registered contracts")
                })
                .collect();
        }
        if self.arrival.is_open() {
            let restamped = self.arrival.restamp(&bundle.requests, self.seed());
            bundle = bundle.with_requests(restamped);
        }
        for transform in &self.transforms {
            let rewritten = transform.apply(&bundle.requests);
            bundle = bundle.with_requests(rewritten);
        }
        bundle.fault = self.fault.clone();
        bundle.retry = self.retry.clone();
        Ok((bundle, self.network.clone()))
    }

    /// The registry ids of the contract set [`build`](Self::build)
    /// installs: the workload's base contracts, or the prepared rewrites of
    /// the selected variants. [`finish`](Self::finish) installs exactly
    /// these whenever variants are selected.
    pub fn contract_ids(&self) -> Vec<String> {
        let delta = self.variants.contains(&VariantKind::DeltaWrites);
        let partitioned = self.variants.contains(&VariantKind::Partitioned);
        let pruned = self.variants.contains(&VariantKind::Pruned);
        let rekeyed = self.variants.contains(&VariantKind::Rekeyed);
        let ids: Vec<&str> = match &self.workload {
            WorkloadSpec::Synthetic(_) => vec!["genchain"],
            WorkloadSpec::Scm(_) => vec![if pruned { "scm:pruned" } else { "scm" }],
            WorkloadSpec::Drm(_) => match (delta, partitioned) {
                (false, false) => vec!["drm"],
                (true, false) => vec!["drm:delta"],
                (false, true) => vec!["drm-play", "drm-meta"],
                (true, true) => vec!["drm-play:delta", "drm-meta"],
            },
            WorkloadSpec::Ehr(_) => vec![if pruned { "ehr:pruned" } else { "ehr" }],
            WorkloadSpec::Dv(_) => vec![if rekeyed { "dv:per-voter" } else { "dv" }],
            WorkloadSpec::Lap(_) => vec![if rekeyed {
                "lap:by-application"
            } else {
                "lap:by-employee"
            }],
            WorkloadSpec::Schedule(s) => return s.contracts.clone(),
        };
        ids.into_iter().map(str::to_string).collect()
    }

    /// Serialize as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("specs serialize")
    }

    /// Parse a spec from JSON ([`SpecError::Json`] on malformed input; the
    /// result is *not* yet validated — call [`validate`](Self::validate) or
    /// [`build`](Self::build)).
    pub fn from_json(json: &str) -> Result<ScenarioSpec, SpecError> {
        serde_json::from_str(json).map_err(|e| SpecError::Json(e.to_string()))
    }
}

/// Capture a simulated run as an explicit-schedule spec: the bundle's
/// contract set (by registry id), genesis, and schedule become a
/// [`WorkloadSpec::Schedule`]. This is how a generator-backed scenario is
/// frozen into a deployment-shaped "schedule JSON" — or how a real
/// deployment's extracted schedule enters the spec layer.
pub fn freeze(
    name: &str,
    bundle: &WorkloadBundle,
    network: &NetworkConfig,
) -> Result<ScenarioSpec, SpecError> {
    let mut contracts = Vec::with_capacity(bundle.contracts.len());
    for contract in &bundle.contracts {
        let id = contract.id().to_string();
        if chaincode::registry::resolve(&id).is_none() {
            return Err(SpecError::UnknownContract {
                name: id,
                known: chaincode::registry::KNOWN
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            });
        }
        contracts.push(id);
    }
    Ok(ScenarioSpec {
        name: name.to_string(),
        workload: WorkloadSpec::Schedule(ScheduleSpec {
            contracts,
            genesis: bundle.genesis.clone(),
            requests: bundle.requests.clone(),
        }),
        // The captured requests carry their final timestamps literally —
        // including any open-loop re-stamping — so the frozen spec replays
        // them as a closed loop.
        arrival: ArrivalSpec::Closed,
        transforms: Vec::new(),
        variants: BTreeSet::new(),
        network: network.clone(),
        // Faults and resilience are run conditions, not traffic: they
        // survive freezing so a replay degrades the same way.
        fault: bundle.fault.clone(),
        retry: bundle.retry.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::fault::{DropSpec, LatencySpike, OutageWindow, StallWindow};
    use fabric_sim::policy::EndorsementPolicy;
    use fabric_sim::types::OrgId;

    #[test]
    fn builtin_names_cover_all_generators() {
        for name in BUILTIN_NAMES {
            let spec = ScenarioSpec::builtin(name).unwrap();
            assert_eq!(spec.name, name);
            assert_eq!(spec.workload.kind(), name);
            spec.validate().unwrap();
        }
        assert!(matches!(
            ScenarioSpec::builtin("nope"),
            Err(SpecError::UnknownScenario { .. })
        ));
    }

    #[test]
    fn builtin_specs_round_trip_through_json() {
        for name in BUILTIN_NAMES {
            let spec = ScenarioSpec::builtin(name).unwrap();
            let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(back, spec, "{name}");
        }
    }

    #[test]
    fn with_seed_reseeds_generator_and_network() {
        let spec = ScenarioSpec::builtin("scm").unwrap().with_seed(7);
        assert_eq!(spec.seed(), 7);
        assert_eq!(spec.network.seed, 7);
        // Identical modulo the seed field.
        let a = ScenarioSpec::builtin("scm").unwrap().with_seed(1);
        let b = ScenarioSpec::builtin("scm").unwrap().with_seed(2);
        assert_ne!(a, b);
        assert_eq!(a.with_seed(0), b.with_seed(0));
    }

    #[test]
    fn negative_rate_is_rejected() {
        let mut spec = ScenarioSpec::builtin("scm").unwrap();
        if let WorkloadSpec::Scm(s) = &mut spec.workload {
            s.send_rate = -5.0;
        }
        match spec.validate().unwrap_err() {
            SpecError::BadParameter { field, .. } => assert_eq!(field, "scm.send_rate"),
            other => panic!("{other:?}"),
        }
        assert!(spec.build().is_err(), "build validates first");
    }

    #[test]
    fn overfull_shares_are_rejected() {
        let mut spec = ScenarioSpec::builtin("scm").unwrap();
        if let WorkloadSpec::Scm(s) = &mut spec.workload {
            s.query_share = 0.6;
            s.audit_share = 0.5;
        }
        // Would trip the generator's assert! without validation.
        assert!(matches!(spec.build(), Err(SpecError::BadParameter { .. })));
    }

    #[test]
    fn unsupported_variants_are_rejected_up_front() {
        let mut spec = ScenarioSpec::builtin("synthetic").unwrap();
        spec.variants.insert(VariantKind::Pruned);
        match spec.validate().unwrap_err() {
            SpecError::UnsupportedVariant { variants, workload } => {
                assert_eq!(variants, vec![VariantKind::Pruned]);
                assert_eq!(workload, "synthetic");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn build_is_finish_of_generate() {
        let spec = ScenarioSpec::builtin("dv").unwrap();
        let (bundle, config) = spec.build().unwrap();
        assert_eq!(config, spec.network);
        let generated = spec.generate().unwrap();
        let (finished, finished_config) = spec.finish(&generated).unwrap();
        assert_eq!(finished.requests, bundle.requests);
        assert_eq!(finished_config, config);
        // One generated workload finishes any spec that shares its
        // workload and seed.
        let mut tuned = spec.clone();
        tuned.variants.insert(VariantKind::Rekeyed);
        tuned
            .transforms
            .push(SpecTransform::Throttle { rate: 50.0 });
        let (from_generated, _) = tuned.finish(&generated).unwrap();
        let (rebuilt, _) = tuned.build().unwrap();
        assert_eq!(from_generated.requests, rebuilt.requests);
        assert_eq!(from_generated.contracts[0].id(), "dv:per-voter");
        // finish validates like build does.
        tuned.transforms.push(SpecTransform::Throttle { rate: 0.0 });
        match tuned.finish(&generated).err() {
            Some(SpecError::BadParameter { field, .. }) => assert_eq!(field, "transforms[1].rate"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn transforms_apply_in_order() {
        let mut spec = ScenarioSpec::builtin("scm").unwrap().with_transactions(400);
        spec.transforms.push(SpecTransform::DeferActivities {
            activities: vec!["queryProducts".into()],
        });
        spec.transforms.push(SpecTransform::Throttle { rate: 50.0 });
        let (bundle, _) = spec.build().unwrap();
        let (plain, _) = ScenarioSpec::builtin("scm")
            .unwrap()
            .with_transactions(400)
            .build()
            .unwrap();
        assert_eq!(bundle.len(), plain.len(), "transforms keep the volume");
        assert!(
            (bundle.offered_rate() - 50.0).abs() < 1.0,
            "throttle re-spaced to 50 tps: {}",
            bundle.offered_rate()
        );
        let last = bundle.requests.last().unwrap();
        assert_eq!(
            last.activity.as_ref(),
            "queryProducts",
            "deferred to the end"
        );
    }

    #[test]
    fn schedule_specs_validate_contract_ids() {
        let spec = ScenarioSpec {
            name: "byo".into(),
            workload: WorkloadSpec::Schedule(ScheduleSpec {
                contracts: vec!["no-such-contract".into()],
                genesis: vec![],
                requests: vec![],
            }),
            arrival: ArrivalSpec::Closed,
            transforms: vec![],
            variants: BTreeSet::new(),
            network: NetworkConfig::default(),
            fault: FaultSpec::default(),
            retry: RetryPolicy::default(),
        };
        match spec.validate().unwrap_err() {
            SpecError::UnknownContract { name, known } => {
                assert_eq!(name, "no-such-contract");
                assert!(known.contains(&"scm".to_string()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_scenario_name_is_rejected() {
        let mut spec = ScenarioSpec::builtin("scm").unwrap();
        spec.name = "  ".into();
        match spec.validate().unwrap_err() {
            SpecError::BadParameter { field, .. } => assert_eq!(field, "name"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn schedule_specs_validate_genesis_namespaces() {
        let spec = ScenarioSpec {
            name: "byo".into(),
            workload: WorkloadSpec::Schedule(ScheduleSpec {
                contracts: vec!["scm".into()],
                genesis: vec![("drm".into(), "M0001".into(), Value::Unit)],
                requests: vec![],
            }),
            arrival: ArrivalSpec::Closed,
            transforms: vec![],
            variants: BTreeSet::new(),
            network: NetworkConfig::default(),
            fault: FaultSpec::default(),
            retry: RetryPolicy::default(),
        };
        match spec.validate().unwrap_err() {
            SpecError::BadParameter { field, .. } => {
                assert_eq!(field, "schedule.genesis[0].namespace");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn schedule_specs_validate_request_activities() {
        let request = |activity: &str| TxRequest {
            send_time: SimTime::ZERO,
            contract: "genchain".into(),
            activity: activity.into(),
            args: vec!["k1".into()].into(),
            invoker_org: fabric_sim::types::OrgId(0),
        };
        let mut spec = ScenarioSpec {
            name: "byo".into(),
            workload: WorkloadSpec::Schedule(ScheduleSpec {
                contracts: vec!["genchain".into()],
                genesis: vec![],
                requests: vec![request("read"), request("bogus")],
            }),
            arrival: ArrivalSpec::Closed,
            transforms: vec![],
            variants: BTreeSet::new(),
            network: NetworkConfig::default(),
            fault: FaultSpec::default(),
            retry: RetryPolicy::default(),
        };
        match spec.validate().unwrap_err() {
            SpecError::BadParameter { field, message } => {
                assert_eq!(field, "schedule.requests[1].activity");
                assert!(message.contains("\"bogus\""), "{message}");
            }
            other => panic!("{other:?}"),
        }
        let WorkloadSpec::Schedule(schedule) = &mut spec.workload else {
            unreachable!()
        };
        schedule.requests[1] = request("range_read");
        spec.validate().unwrap();
    }

    #[test]
    fn missing_arrival_field_defaults_to_closed() {
        // Specs saved before the open-loop layer carry no `arrival` field;
        // strip it from fresh JSON and the spec must still parse as Closed.
        let spec = ScenarioSpec::builtin("scm").unwrap();
        let mut v = serde_json::value_from_str(&spec.to_json()).unwrap();
        if let serde_json::Value::Object(fields) = &mut v {
            let before = fields.len();
            fields.retain(|(k, _)| k != "arrival");
            assert_eq!(fields.len(), before - 1, "fixture removed the field");
        }
        let back = ScenarioSpec::from_json(&serde_json::to_string(&v).unwrap()).unwrap();
        assert_eq!(back.arrival, ArrivalSpec::Closed);
        assert_eq!(back, spec);
    }

    #[test]
    fn open_loop_specs_round_trip_through_json() {
        for arrival in [
            ArrivalSpec::Poisson { rate: 75.0 },
            ArrivalSpec::Uniform { gap: 0.02 },
        ] {
            let spec = ScenarioSpec::builtin("drm").unwrap().with_arrival(arrival);
            let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(back, spec, "{arrival:?}");
        }
    }

    #[test]
    fn poisson_arrival_restamps_reproducibly() {
        let spec = ScenarioSpec::builtin("synthetic")
            .unwrap()
            .with_transactions(300)
            .with_arrival(ArrivalSpec::Poisson { rate: 50.0 });
        let (open, _) = spec.build().unwrap();
        let (closed, _) = ScenarioSpec::builtin("synthetic")
            .unwrap()
            .with_transactions(300)
            .build()
            .unwrap();
        assert_eq!(open.len(), closed.len(), "re-stamping keeps the volume");
        assert_ne!(
            open.requests
                .iter()
                .map(|r| r.send_time)
                .collect::<Vec<_>>(),
            closed
                .requests
                .iter()
                .map(|r| r.send_time)
                .collect::<Vec<_>>(),
            "open loop replaces the generator's timing"
        );
        assert!(
            (open.offered_rate() - 50.0).abs() < 10.0,
            "mean rate near the Poisson rate: {}",
            open.offered_rate()
        );
        // Same seed → identical arrivals; new seed → different arrivals.
        let (again, _) = spec.build().unwrap();
        assert_eq!(
            open.requests
                .iter()
                .map(|r| r.send_time)
                .collect::<Vec<_>>(),
            again
                .requests
                .iter()
                .map(|r| r.send_time)
                .collect::<Vec<_>>()
        );
        let (reseeded, _) = spec.clone().with_seed(7).build().unwrap();
        assert_ne!(
            open.requests.first().map(|r| r.send_time),
            reseeded.requests.first().map(|r| r.send_time),
            "with_seed varies the arrival process too"
        );
    }

    #[test]
    fn uniform_arrival_is_deterministic() {
        let spec = ScenarioSpec::builtin("scm")
            .unwrap()
            .with_transactions(100)
            .with_arrival(ArrivalSpec::Uniform { gap: 0.02 });
        let (bundle, _) = spec.build().unwrap();
        for (k, r) in bundle.requests.iter().enumerate() {
            assert_eq!(
                r.send_time,
                SimTime::from_micros(20_000 * (k as u64 + 1)),
                "tx {k} lands on the grid"
            );
        }
        assert!((bundle.offered_rate() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn bad_arrival_parameters_are_rejected() {
        for (arrival, field) in [
            (ArrivalSpec::Poisson { rate: -1.0 }, "arrival.rate"),
            (ArrivalSpec::Poisson { rate: f64::NAN }, "arrival.rate"),
            (ArrivalSpec::Uniform { gap: 0.0 }, "arrival.gap"),
            (ArrivalSpec::Uniform { gap: f64::INFINITY }, "arrival.gap"),
        ] {
            let spec = ScenarioSpec::builtin("dv").unwrap().with_arrival(arrival);
            match spec.validate().unwrap_err() {
                SpecError::BadParameter { field: f, .. } => assert_eq!(f, field),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn freeze_captures_open_loop_times_as_closed() {
        let spec = ScenarioSpec::builtin("dv")
            .unwrap()
            .with_arrival(ArrivalSpec::Poisson { rate: 80.0 });
        let (bundle, config) = spec.build().unwrap();
        let frozen = freeze("dv-open", &bundle, &config).unwrap();
        assert_eq!(frozen.arrival, ArrivalSpec::Closed);
        let (replayed, _) = frozen.build().unwrap();
        assert_eq!(
            replayed
                .requests
                .iter()
                .map(|r| r.send_time)
                .collect::<Vec<_>>(),
            bundle
                .requests
                .iter()
                .map(|r| r.send_time)
                .collect::<Vec<_>>(),
            "the frozen schedule carries the re-stamped times literally"
        );
    }

    #[test]
    fn freeze_replays_byte_identically() {
        let spec = ScenarioSpec::builtin("dv").unwrap();
        let (bundle, config) = spec.build().unwrap();
        let frozen = freeze("dv-frozen", &bundle, &config).unwrap();
        frozen.validate().unwrap();
        let (replayed, replay_config) = frozen.build().unwrap();
        assert_eq!(replayed.len(), bundle.len());
        let a = bundle.run(config);
        let b = replayed.run(replay_config);
        assert_eq!(a.report.successes, b.report.successes);
        assert_eq!(a.report.committed, b.report.committed);
        assert_eq!(
            format!("{:?}", a.report),
            format!("{:?}", b.report),
            "frozen schedule replays the exact run"
        );
    }

    /// A representative non-trivial fault plan + retry policy for tests.
    fn faulty_fixture() -> ScenarioSpec {
        let mut spec = ScenarioSpec::builtin("scm").unwrap();
        spec.fault.endorser_outages.push(OutageWindow {
            org: 0,
            peer: Some(2),
            start: 0.5,
            duration: 1.5,
        });
        spec.fault.latency_spikes.push(LatencySpike {
            start: 1.0,
            duration: 2.0,
            multiplier: 4.0,
        });
        spec.fault.orderer_stalls.push(StallWindow {
            start: 3.0,
            duration: 0.5,
        });
        spec.fault.drop = Some(DropSpec {
            proposal_rate: 0.05,
            endorsement_rate: 0.1,
        });
        spec.retry = RetryPolicy {
            endorse_timeout: Some(0.75),
            max_attempts: 4,
            backoff_base: 0.1,
            backoff_multiplier: 2.0,
            jitter: 0.25,
        };
        spec
    }

    #[test]
    fn missing_fault_and_retry_fields_default_to_noop() {
        // Specs saved before the fault layer carry neither field; strip
        // them from fresh JSON and the spec must still parse as no-faults
        // with the legacy wait-forever client.
        let spec = ScenarioSpec::builtin("drm").unwrap();
        let mut v = serde_json::value_from_str(&spec.to_json()).unwrap();
        if let serde_json::Value::Object(fields) = &mut v {
            let before = fields.len();
            fields.retain(|(k, _)| k != "fault" && k != "retry");
            assert_eq!(fields.len(), before - 2, "fixture removed both fields");
        }
        let back = ScenarioSpec::from_json(&serde_json::to_string(&v).unwrap()).unwrap();
        assert!(back.fault.is_noop());
        assert!(back.retry.is_noop());
        assert_eq!(back, spec);
    }

    #[test]
    fn fault_and_retry_round_trip_through_json() {
        let spec = faulty_fixture();
        spec.validate().unwrap();
        let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn bad_fault_parameters_are_rejected_with_dotted_paths() {
        type Poison = Box<dyn Fn(&mut ScenarioSpec)>;
        let cases: Vec<(&str, Poison)> = vec![
            (
                "fault.endorser_outages[0].duration",
                Box::new(|s| s.fault.endorser_outages[0].duration = -1.0),
            ),
            (
                "fault.endorser_outages[0].start",
                Box::new(|s| s.fault.endorser_outages[0].start = f64::NAN),
            ),
            (
                "fault.endorser_outages[0].org",
                Box::new(|s| s.fault.endorser_outages[0].org = 2),
            ),
            (
                "fault.endorser_outages[0].peer",
                Box::new(|s| s.fault.endorser_outages[0].peer = Some(5)),
            ),
            (
                "fault.latency_spikes[0].multiplier",
                Box::new(|s| s.fault.latency_spikes[0].multiplier = 0.5),
            ),
            (
                "fault.orderer_stalls[1]",
                Box::new(|s| {
                    s.fault.orderer_stalls.push(StallWindow {
                        start: 3.25,
                        duration: 1.0,
                    })
                }),
            ),
            (
                "fault.drop.endorsement_rate",
                Box::new(|s| {
                    s.fault.drop = Some(DropSpec {
                        proposal_rate: 0.0,
                        endorsement_rate: 1.5,
                    })
                }),
            ),
            ("retry.max_attempts", Box::new(|s| s.retry.max_attempts = 0)),
            (
                "retry.endorse_timeout",
                Box::new(|s| s.retry.endorse_timeout = Some(0.0)),
            ),
            (
                "retry.backoff_multiplier",
                Box::new(|s| s.retry.backoff_multiplier = 0.0),
            ),
            ("retry.jitter", Box::new(|s| s.retry.jitter = 1.0)),
        ];
        for (field, poison) in cases {
            let mut spec = faulty_fixture();
            poison(&mut spec);
            match spec.validate().unwrap_err() {
                SpecError::BadParameter { field: f, .. } => assert_eq!(f, field),
                other => panic!("expected BadParameter for {field}, got {other:?}"),
            }
        }
    }

    /// Every count field of a workload that its generator allocates by.
    fn counts(workload: &mut WorkloadSpec) -> Vec<(&'static str, &mut usize)> {
        match workload {
            WorkloadSpec::Synthetic(cv) => vec![("synthetic.transactions", &mut cv.transactions)],
            WorkloadSpec::Scm(s) => vec![
                ("scm.transactions", &mut s.transactions),
                ("scm.products", &mut s.products),
                ("scm.audits", &mut s.audits),
                ("scm.batch", &mut s.batch),
            ],
            WorkloadSpec::Drm(s) => vec![
                ("drm.transactions", &mut s.transactions),
                ("drm.catalogue", &mut s.catalogue),
            ],
            WorkloadSpec::Ehr(s) => vec![
                ("ehr.transactions", &mut s.transactions),
                ("ehr.patients", &mut s.patients),
                ("ehr.institutes", &mut s.institutes),
            ],
            WorkloadSpec::Dv(s) => vec![
                ("dv.parties", &mut s.parties),
                ("dv.queries", &mut s.queries),
                ("dv.votes", &mut s.votes),
            ],
            WorkloadSpec::Lap(s) => vec![
                ("lap.applications", &mut s.applications),
                ("lap.employees", &mut s.employees),
            ],
            WorkloadSpec::Schedule(_) => vec![],
        }
    }

    /// Network and workload dimensions past the `u16` id space, fleets past
    /// [`MAX_FLEET`], generator counts past [`MAX_GENERATED`], and invokers
    /// from orgs the network lacks fail validation with a dotted path
    /// instead of aliasing ids, allocating by the input or indexing past
    /// the worker fleet.
    #[test]
    fn out_of_range_dimensions_are_rejected_with_dotted_paths() {
        let demo = include_str!("../../../examples/demo_spec.json");
        let base = ScenarioSpec::from_json(demo).unwrap();
        base.validate().unwrap();
        type Poison = Box<dyn Fn(&mut ScenarioSpec)>;
        let cases: Vec<(&str, Poison)> = vec![
            ("network.orgs", Box::new(|s| s.network.orgs = MAX_IDS + 1)),
            // The block cutter needs a byte budget of at least one.
            (
                "network.block_bytes",
                Box::new(|s| s.network.block_bytes = 0),
            ),
            ("network.orgs", Box::new(|s| s.network.orgs = usize::MAX)),
            (
                "network.clients_per_org",
                Box::new(|s| s.network.clients_per_org = MAX_IDS + 1),
            ),
            (
                "network.clients_per_org",
                Box::new(|s| s.network.clients_per_org = MAX_FLEET / 2 + 1),
            ),
            (
                "network.client_boost",
                Box::new(|s| s.network.client_boost = Some((1, MAX_IDS))),
            ),
            (
                "network.client_boost",
                Box::new(|s| s.network.client_boost = Some((1, usize::MAX))),
            ),
            (
                "network.client_boost",
                Box::new(|s| s.network.client_boost = Some((2, 2))),
            ),
            (
                "network.total_endorser_peers",
                Box::new(|s| s.network.total_endorser_peers = 2 * (MAX_IDS + 1)),
            ),
            (
                "network.total_endorser_peers",
                Box::new(|s| {
                    s.network.orgs = 4;
                    s.network.total_endorser_peers = 4 * (MAX_FLEET / 4 + 1);
                }),
            ),
            (
                "scm.orgs",
                Box::new(|s| match &mut s.workload {
                    WorkloadSpec::Scm(scm) => scm.orgs = MAX_IDS + 1,
                    other => panic!("demo spec is scm, got {}", other.kind()),
                }),
            ),
            // More invoking orgs than the network runs: the invokers would
            // index past the worker fleet.
            (
                "scm.orgs",
                Box::new(|s| match &mut s.workload {
                    WorkloadSpec::Scm(scm) => scm.orgs = 3,
                    other => panic!("demo spec is scm, got {}", other.kind()),
                }),
            ),
            // Policies the simulator cannot expand or satisfy: no two of
            // two orgs make three, org 5 has no endorsers on a 2-org
            // network, and 17 orgs are past the exact-expansion bound.
            (
                "network.endorsement_policy",
                Box::new(|s| s.network.endorsement_policy = EndorsementPolicy::out_of(3, 2)),
            ),
            (
                "network.endorsement_policy",
                Box::new(|s| {
                    s.network.endorsement_policy =
                        EndorsementPolicy::OutOf(1, vec![EndorsementPolicy::Org(OrgId(5))])
                }),
            ),
            (
                "network.endorsement_policy",
                Box::new(|s| {
                    s.network.endorsement_policy = EndorsementPolicy::out_of(1, MAX_POLICY_ORGS + 1)
                }),
            ),
            // Rates below MIN_RATE (gaps above its inverse) could space a
            // schedule past the clock's range: a 1e-12 throttle overflowed
            // SimTime. Each is rejected far past the bound and one step
            // past it; the bound itself is accepted below.
            (
                "transforms[0].rate",
                Box::new(|s| s.transforms = vec![SpecTransform::Throttle { rate: 1e-12 }]),
            ),
            (
                "transforms[0].rate",
                Box::new(|s| {
                    s.transforms = vec![SpecTransform::Throttle {
                        rate: MIN_RATE.next_down(),
                    }]
                }),
            ),
            (
                "arrival.rate",
                Box::new(|s| s.arrival = ArrivalSpec::Poisson { rate: 1e-12 }),
            ),
            (
                "arrival.rate",
                Box::new(|s| {
                    s.arrival = ArrivalSpec::Poisson {
                        rate: MIN_RATE.next_down(),
                    }
                }),
            ),
            (
                "arrival.gap",
                Box::new(|s| s.arrival = ArrivalSpec::Uniform { gap: 1e12 }),
            ),
            (
                "arrival.gap",
                Box::new(|s| {
                    s.arrival = ArrivalSpec::Uniform {
                        gap: (1.0 / MIN_RATE).next_up(),
                    }
                }),
            ),
            (
                "scm.send_rate",
                Box::new(|s| match &mut s.workload {
                    WorkloadSpec::Scm(scm) => scm.send_rate = MIN_RATE.next_down(),
                    other => panic!("demo spec is scm, got {}", other.kind()),
                }),
            ),
        ];
        for (field, poison) in cases {
            let mut spec = base.clone();
            poison(&mut spec);
            match spec.validate().unwrap_err() {
                SpecError::BadParameter { field: f, .. } => assert_eq!(f, field),
                other => panic!("expected BadParameter for {field}, got {other:?}"),
            }
            assert!(spec.build().is_err(), "{field}: build validates first");
        }
        // An empty `And` is satisfied by every set: what is wrong is that it
        // names no org to endorse.
        let mut empty = base.clone();
        empty.network.endorsement_policy = EndorsementPolicy::And(vec![]);
        match empty.validate().unwrap_err() {
            SpecError::BadParameter { field, message } => {
                assert_eq!(field, "network.endorsement_policy");
                assert_eq!(message, "the policy names no organization");
            }
            other => panic!("expected BadParameter, got {other:?}"),
        }
        // The largest accepted shapes stay accepted.
        let mut edge = base.clone();
        edge.network.clients_per_org = MAX_FLEET / 2;
        edge.network.client_boost = Some((1, 1));
        edge.network.total_endorser_peers = MAX_FLEET;
        edge.validate().unwrap();
        let mut widest = base.clone();
        widest.network.orgs = MAX_POLICY_ORGS;
        widest.network.endorsement_policy = EndorsementPolicy::out_of(8, MAX_POLICY_ORGS);
        widest.validate().unwrap();
        for arrival in [
            ArrivalSpec::Poisson { rate: MIN_RATE },
            ArrivalSpec::Uniform {
                gap: 1.0 / MIN_RATE,
            },
        ] {
            let mut slowest = base.clone().with_arrival(arrival);
            slowest.transforms = vec![SpecTransform::Throttle { rate: MIN_RATE }];
            slowest.validate().unwrap();
        }

        // P1 names four orgs, so a synthetic P1 workload invokes from four
        // orgs, which the builtin 2-org network does not run.
        let mut widened = ScenarioSpec::builtin("synthetic").unwrap();
        let WorkloadSpec::Synthetic(cv) = &mut widened.workload else {
            panic!("synthetic builtin");
        };
        cv.policy = crate::spec::PolicyChoice::P1;
        let four_orgs = cv.network_config();
        match widened.validate().unwrap_err() {
            SpecError::BadParameter { field, .. } => assert_eq!(field, "synthetic.policy"),
            other => panic!("expected BadParameter, got {other:?}"),
        }
        widened.network = four_orgs;
        widened.validate().unwrap();

        // Every count a generator allocates by is capped: 10¹² scm
        // transactions tried a 400 GB schedule, 10¹² products an 80 TB one.
        for name in BUILTIN_NAMES {
            let spec = ScenarioSpec::builtin(name).unwrap();
            spec.clone().with_transactions(20_000).validate().unwrap();
            for i in 0..counts(&mut spec.clone().workload).len() {
                for n in [MAX_GENERATED, MAX_GENERATED + 1, 1_000_000_000_000] {
                    let mut sized = spec.clone();
                    let (field, count) = counts(&mut sized.workload).swap_remove(i);
                    *count = n;
                    match sized.validate() {
                        Ok(()) => assert_eq!(n, MAX_GENERATED, "{field}"),
                        Err(SpecError::BadParameter { field: f, .. }) if n > MAX_GENERATED => {
                            assert_eq!(f, field)
                        }
                        other => panic!("{field} = {n}: {other:?}"),
                    }
                }
            }
        }

        // The retry budget is capped: under a permanent outage a run's work
        // grows with it.
        for n in [
            MAX_RETRY_ATTEMPTS,
            MAX_RETRY_ATTEMPTS + 1,
            1_000_000_000_000,
        ] {
            let mut budget = base.clone();
            budget.retry.max_attempts = n;
            match budget.validate() {
                Ok(()) => assert_eq!(n, MAX_RETRY_ATTEMPTS),
                Err(SpecError::BadParameter { field, .. }) if n > MAX_RETRY_ATTEMPTS => {
                    assert_eq!(field, "retry.max_attempts")
                }
                other => panic!("retry.max_attempts = {n}: {other:?}"),
            }
        }
        // So is every fault-window list, which also bounds the pairwise
        // orderer-stall overlap check. (A list of 10¹² windows cannot be
        // built to test; cap + 1 takes the same branch.)
        type Fill = fn(&mut FaultSpec, usize);
        let lists: [(&str, Fill); 3] = [
            ("fault.endorser_outages", |f, n| {
                f.endorser_outages = vec![
                    OutageWindow {
                        org: 0,
                        peer: None,
                        start: 0.0,
                        duration: 1.0,
                    };
                    n
                ]
            }),
            ("fault.latency_spikes", |f, n| {
                f.latency_spikes = vec![
                    LatencySpike {
                        start: 0.0,
                        duration: 1.0,
                        multiplier: 2.0,
                    };
                    n
                ]
            }),
            ("fault.orderer_stalls", |f, n| {
                f.orderer_stalls = (0..n)
                    .map(|i| StallWindow {
                        start: i as f64,
                        duration: 0.5,
                    })
                    .collect()
            }),
        ];
        for (field, fill) in lists {
            for n in [MAX_FAULT_WINDOWS, MAX_FAULT_WINDOWS + 1] {
                let mut windows = base.clone();
                fill(&mut windows.fault, n);
                match windows.validate() {
                    Ok(()) => assert_eq!(n, MAX_FAULT_WINDOWS, "{field}"),
                    Err(SpecError::BadParameter { field: f, .. }) if n > MAX_FAULT_WINDOWS => {
                        assert_eq!(f, field)
                    }
                    other => panic!("{field} with {n} windows: {other:?}"),
                }
            }
        }

        let (bundle, config) = base.build().unwrap();
        let mut frozen = freeze("demo", &bundle, &config).unwrap();
        let WorkloadSpec::Schedule(schedule) = &mut frozen.workload else {
            panic!("freeze yields an explicit schedule");
        };
        schedule.requests[3].invoker_org = fabric_sim::types::OrgId(2);
        match frozen.validate().unwrap_err() {
            SpecError::BadParameter { field, .. } => {
                assert_eq!(field, "schedule.requests[3].invoker_org")
            }
            other => panic!("expected BadParameter, got {other:?}"),
        }
    }

    #[test]
    fn build_threads_fault_and_retry_into_the_bundle() {
        let spec = faulty_fixture();
        let (bundle, config) = spec.build().unwrap();
        assert_eq!(bundle.fault, spec.fault);
        assert_eq!(bundle.retry, spec.retry);
        let sim = bundle.simulation(config);
        assert_eq!(*sim.fault(), spec.fault);
        assert_eq!(*sim.retry(), spec.retry);
    }

    /// Every duration and instant a spec sets is bounded, so no event time
    /// of a run can leave `SimTime`'s range; the bounds themselves pass.
    #[test]
    fn clock_values_past_their_bounds_are_rejected_with_dotted_paths() {
        let spec = faulty_fixture().with_transactions(20);
        let (bundle, config) = spec.build().unwrap();
        let frozen = freeze("scm-clock", &bundle, &config).unwrap();
        frozen.validate().unwrap();
        let far = MAX_INSTANT.as_secs_f64() * 2.0;
        type Poison = Box<dyn Fn(&mut ScenarioSpec)>;
        let cases: Vec<(&str, Poison)> = vec![
            (
                "schedule.requests[19].send_time",
                Box::new(|s| match &mut s.workload {
                    WorkloadSpec::Schedule(schedule) => {
                        schedule.requests[19].send_time = SimTime(MAX_INSTANT.0 + 1)
                    }
                    other => panic!("frozen spec is a schedule, got {}", other.kind()),
                }),
            ),
            (
                "network.block_timeout",
                Box::new(|s| s.network.block_timeout = SimDuration(u64::MAX)),
            ),
            (
                "network.resources.net_delay",
                Box::new(|s| s.network.resources.net_delay = SimDuration(MAX_PHASE.0 + 1)),
            ),
            (
                "network.resources.validate_per_endorsement",
                Box::new(|s| s.network.resources.validate_per_endorsement = SimDuration(u64::MAX)),
            ),
            (
                "fault.endorser_outages[0].duration",
                Box::new(move |s| s.fault.endorser_outages[0].duration = far),
            ),
            (
                "fault.orderer_stalls[0].duration",
                Box::new(move |s| s.fault.orderer_stalls[0].start = far),
            ),
            (
                "fault.latency_spikes[0].multiplier",
                Box::new(|s| s.fault.latency_spikes[0].multiplier = 1e300),
            ),
            (
                "retry.endorse_timeout",
                Box::new(|s| s.retry.endorse_timeout = Some(MAX_PHASE.as_secs_f64() * 2.0)),
            ),
        ];
        for (field, poison) in cases {
            let mut spec = frozen.clone();
            poison(&mut spec);
            match spec.validate().unwrap_err() {
                SpecError::BadParameter { field: f, .. } => assert_eq!(f, field),
                other => panic!("expected BadParameter for {field}, got {other:?}"),
            }
        }
        let mut edge = frozen;
        let WorkloadSpec::Schedule(schedule) = &mut edge.workload else {
            panic!("freeze yields an explicit schedule");
        };
        for r in &mut schedule.requests {
            r.send_time = MAX_INSTANT;
        }
        edge.network.block_timeout = MAX_PHASE;
        edge.network.resources = fabric_sim::config::ResourceProfile {
            client_per_tx: MAX_PHASE,
            net_delay: MAX_PHASE,
            endorse_exec_base: MAX_PHASE,
            endorse_exec_per_access: MAX_PHASE,
            order_block_fixed: MAX_PHASE,
            order_per_tx: MAX_PHASE,
            raft_delay: MAX_PHASE,
            validate_block_fixed: MAX_PHASE,
            validate_per_tx: MAX_PHASE,
            validate_per_item: MAX_PHASE,
            validate_per_endorsement: MAX_PHASE,
        };
        edge.fault = FaultSpec::default();
        edge.retry = RetryPolicy::default();
        // The test profile panics on overflow, so the run itself is the
        // check that every event time stays in range.
        let (bundle, config) = edge.build().unwrap();
        let ledger = bundle.run(config).ledger;
        assert!(ledger.tx_count() > 0);
        assert!(ledger.transactions().all(|tx| tx.commit_ts > MAX_INSTANT));
    }

    #[test]
    fn freeze_carries_fault_and_retry() {
        let spec = faulty_fixture();
        let (bundle, config) = spec.build().unwrap();
        let frozen = freeze("scm-faulty", &bundle, &config).unwrap();
        frozen.validate().unwrap();
        assert_eq!(frozen.fault, spec.fault);
        assert_eq!(frozen.retry, spec.retry);
    }
}

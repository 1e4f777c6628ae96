//! # workload
//!
//! Workload generation for the BlockOptR evaluation (paper §5.1):
//!
//! * [`spec`] — the Table-2 control variables with the paper's defaults;
//! * [`synthetic`] — the genChain synthetic workload generator (24-workload
//!   sweep material; 10 000 transactions each);
//! * [`scm`], [`drm`], [`ehr`], [`dv`] — the four use-case workloads of
//!   §5.1.2 with the exact activity mixes the paper describes;
//! * [`lap`] — a statistically BPI-Challenge-2017-like loan-application
//!   process log generator (§5.1.3; the real event log is a data gate, so we
//!   synthesize an equivalent: skewed employee assignment, sequential
//!   per-application flows, rework loops);
//! * [`optimize`] — workload-level optimization transforms (activity
//!   reordering, transaction rate control) that emulate the paper's Caliper
//!   client-manager settings (Table 4).
//!
//! Every generator returns a [`WorkloadBundle`]: contracts to install,
//! genesis state, and a timestamped request schedule — everything
//! [`fabric_sim::Simulation`] needs.

// Library output belongs in return values; stdout and stderr belong to the
// binaries. (Unit tests may print: see `clippy.toml`.)
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod bundle;
pub mod drm;
pub mod dv;
pub mod ehr;
pub mod lap;
pub mod optimize;
pub mod scenario;
pub mod scm;
pub mod spec;
pub mod synthetic;

pub use bundle::{VariantKind, WorkloadBundle};
pub use fabric_sim::fault::{
    DropSpec, FaultSpec, LatencySpike, OutageWindow, RetryPolicy, StallWindow,
};
pub use scenario::{
    ArrivalSpec, ScenarioSpec, ScheduleSpec, SpecError, SpecTransform, WorkloadSpec,
};
pub use spec::{ControlVariables, PolicyChoice, WorkloadType};

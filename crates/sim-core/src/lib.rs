//! # sim-core
//!
//! A small, deterministic discrete-event simulation (DES) toolkit used by the
//! Fabric network simulator (`fabric-sim`).
//!
//! The crate provides:
//!
//! * [`time`] — a microsecond-resolution simulated clock ([`SimTime`],
//!   [`SimDuration`]);
//! * [`des`] — the typed DES engine: targeted events (`{ at, kind, subject }`),
//!   kind-priority-then-sequence tie-breaking, cancellable timers, and a
//!   handler-driven runner (pop → advance clock → dispatch → schedule);
//! * [`rng`] — seedable random-number streams so that every simulation run is
//!   reproducible bit-for-bit;
//! * [`dist`] — the samplers the paper's workload generator needs (Zipfian key
//!   skew, exponential inter-arrival, discrete weighted choice);
//! * [`server`] — analytic FIFO queueing servers used to model endorsers, the
//!   ordering service, validators and clients;
//! * [`stats`] — summaries (mean / percentiles), time-bucketed rate series and
//!   fixed-width histograms used by the metric-derivation layer;
//! * [`sketch`] — a deterministic, serializable, mergeable quantile sketch
//!   (KLL-style, certified rank-error bound, small-n exact mode) so latency
//!   distributions from long runs are O(sketch) instead of O(observations);
//! * [`pool`] — a scoped-thread worker pool with deterministic result
//!   ordering, used to fan repeated simulation runs (multi-seed plan
//!   execution, experiment grids) across cores.
//!
//! Nothing here is blockchain specific; `fabric-sim` composes these pieces
//! into the execute-order-validate pipeline.

// Library output belongs in return values; stdout and stderr belong to the
// binaries. (Unit tests may print: see `clippy.toml`.)
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod des;
pub mod dist;
#[cfg(test)]
mod events;
pub mod pool;
pub mod rng;
pub mod server;
pub mod sketch;
pub mod stats;
pub mod time;

pub use des::{DesQueue, Event, EventKind, Handler, TimerId};
pub use dist::{DiscreteWeighted, Exponential, Zipf};
pub use pool::ThreadPool;
pub use rng::SimRng;
pub use server::QueueServer;
pub use sketch::QuantileSketch;
pub use stats::{Summary, TimeBuckets};
pub use time::{SimDuration, SimTime};

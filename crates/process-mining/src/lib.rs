//! # process-mining
//!
//! The process-mining toolkit BlockOptR uses for its user-level
//! recommendations (paper §2.2, §4.2): derive a process model from an event
//! log, compare expected versus actual behaviour, and verify compliance
//! after a redesign.
//!
//! * [`eventlog`] — cases, traces, and variants (the minimum attributes of
//!   §2.2: CaseID, activity name, ordering);
//! * [`dfg`] — directly-follows graphs with frequencies;
//! * [`footprint`] — the α-algorithm's footprint matrix (→, ←, ∥, #);
//! * [`alpha`] — the Alpha miner (van der Aalst et al., TKDE 2004), the
//!   algorithm the paper uses for Figures 2 and 4;
//! * [`heuristics`] — a frequency-thresholded heuristics miner for noisy
//!   logs;
//! * [`petri`] — Petri nets with token-replay semantics;
//! * [`conformance`] — token-replay fitness and footprint conformance
//!   (used to "verify compliance with the new process model", §1);
//! * [`dot`] — Graphviz DOT export of the mined models;
//! * [`xes`] — IEEE-1849 XES export, the interchange format of the
//!   ProM/Disco/Celonis ecosystem the paper mentions in §2.2.

pub mod alpha;
pub mod conformance;
pub mod dfg;
pub mod dot;
pub mod eventlog;
pub mod footprint;
pub mod heuristics;
pub mod petri;
pub mod xes;

pub use alpha::alpha_miner;
pub use conformance::{footprint_conformance, replay_fitness, Fitness};
pub use dfg::DirectlyFollowsGraph;
pub use eventlog::{EventLog, Trace};
pub use footprint::{Footprint, Relation};
pub use heuristics::{heuristics_miner, DependencyGraph, HeuristicsConfig};
pub use petri::PetriNet;
pub use xes::to_xes;

//! # bench
//!
//! The experiment harness: regenerates every table and figure of the paper's
//! evaluation (§6) against the simulated Fabric substrate, plus Criterion
//! micro-benchmarks of the tool itself.
//!
//! Run everything: `cargo run --release -p bench --bin experiments -- all`
//! or a single artifact: `… -- fig13`.

pub mod experiments;
pub mod table;
pub mod wallclock;

pub use table::{pct, FigureTable};

//! # bench
//!
//! The experiment harness: regenerates every table and figure of the paper's
//! evaluation (§6) against the simulated Fabric substrate. The end-to-end
//! benchmark of the tool itself is the `perfbench` package below this
//! crate.
//!
//! Run everything: `cargo run --release -p bench --bin experiments -- all`
//! or a single artifact: `… -- fig13`.

pub mod experiments;
pub mod table;
pub mod wallclock;

pub use table::{pct, FigureTable};

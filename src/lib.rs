//! # blockoptr-suite
//!
//! Façade crate for the BlockOptR reproduction (SIGMOD'23: "How To Optimize
//! My Blockchain? A Multi-Level Recommendation Approach"). Re-exports every
//! workspace crate so examples and downstream users depend on one crate:
//!
//! ```
//! use blockoptr_suite::prelude::*;
//!
//! let cv = workload::spec::ControlVariables {
//!     transactions: 500,
//!     ..Default::default()
//! };
//! let bundle = workload::synthetic::generate(&cv);
//! let output = bundle.run(cv.network_config());
//!
//! // One-shot batch analysis…
//! let analysis = Analyzer::new().analyze_ledger(&output.ledger).unwrap();
//! assert_eq!(analysis.log.len(), output.report.committed);
//!
//! // …or incrementally, as a monitoring loop would see the chain.
//! let mut session = Analyzer::new().session().unwrap();
//! for block in output.ledger.blocks() {
//!     session.ingest_block(block).unwrap();
//! }
//! let streamed = session.snapshot().unwrap();
//! assert_eq!(
//!     streamed.recommendation_names(),
//!     analysis.recommendation_names()
//! );
//! ```
//!
//! See `README.md` for a tour.

pub use blockoptr;
pub use chaincode;
pub use fabric_sim;
pub use process_mining;
pub use sim_core;
pub use workload;

/// One-stop imports for the common pipeline: simulate a spec → analyze the
/// ledger with an `Analyzer` → lower the recommendations to an
/// `OptimizationPlan` → apply it to the spec and re-simulate.
pub mod prelude {
    pub use blockoptr::prelude::*;
}

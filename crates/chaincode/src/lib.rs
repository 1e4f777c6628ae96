//! # chaincode
//!
//! The smart contracts of the BlockOptR evaluation (paper §5.1), implemented
//! against `fabric-sim`'s [`Contract`] interface, plus every *optimized
//! variant* the paper derives from BlockOptR's recommendations (§6.2–6.3):
//!
//! | Contract | Module | Optimized variants |
//! |---|---|---|
//! | genChain synthetic | [`genchain`] | — (generic read/write/update/range/delete) |
//! | Supply Chain Management | [`scm`] | process-model-pruned |
//! | Digital Rights Management | [`drm`] | delta-writes; partitioned (two chaincodes) |
//! | Electronic Health Records | [`ehr`] | process-model-pruned |
//! | Digital Voting | [`dv`] | per-voter data model |
//! | Loan Application Process | [`lap`] | per-application data model |
//!
//! All contracts are **deterministic in `(state, args)`** — workload
//! generators bake every random choice (keys, values, nonces) into the
//! arguments, so endorsement re-execution always reproduces the same
//! read-write set.

// Library output belongs in return values; stdout and stderr belong to the
// binaries. (Unit tests may print: see `clippy.toml`.)
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod drm;
pub mod dv;
pub mod ehr;
pub mod genchain;
pub mod lap;
pub mod registry;
pub mod scm;

pub use drm::{
    DrmContract, DrmDeltaContract, DrmMetaContract, DrmPlayContract, DrmPlayDeltaContract,
};
pub use dv::{DvContract, DvPerVoterContract};
pub use ehr::EhrContract;
pub use genchain::GenChainContract;
pub use lap::{LapByApplicationContract, LapByEmployeeContract};
pub use scm::ScmContract;

pub use fabric_sim::contract::{Contract, ExecStatus, TxContext};
pub use fabric_sim::types::Value;

/// Run a contract body whose argument accessors early-abort: an `Err`
/// ends the transaction during endorsement with its message as the abort
/// reason, as a contract's own [`ExecStatus::Abort`] would.
pub(crate) fn aborting(body: impl FnOnce() -> Result<ExecStatus, String>) -> ExecStatus {
    body().unwrap_or_else(ExecStatus::Abort)
}

/// String argument `i` (`what` names it in the abort reason).
pub(crate) fn arg_str<'a>(args: &'a [Value], i: usize, what: &str) -> Result<&'a str, String> {
    args.get(i)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("argument {i} ({what}) must be a string"))
}

/// Integer argument `i` (`what` names it in the abort reason).
pub(crate) fn arg_int(args: &[Value], i: usize, what: &str) -> Result<i64, String> {
    args.get(i)
        .and_then(Value::as_int)
        .ok_or_else(|| format!("argument {i} ({what}) must be an integer"))
}

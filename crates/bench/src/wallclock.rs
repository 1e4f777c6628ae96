//! The workspace's single wall-clock seam.
//!
//! Everything outside this module runs on simulated time
//! (`sim_core::time`): that is what makes runs replayable and
//! byte-identical across machines and thread counts, and clippy's
//! `disallowed_types` (see `clippy.toml`) enforces it. The benchmark harness
//! is the one place that genuinely measures the host, and it does so
//! through here — so every host-time read in the workspace is greppable at
//! a single `now()`.

#![expect(
    clippy::disallowed_types,
    reason = "the one sanctioned host-clock seam: the benchmark harness measures the machine"
)]

use std::time::Duration;

/// An opaque wall-clock timestamp; subtract two with [`Stopwatch::elapsed`]
/// semantics via [`elapsed_since`].
pub type Timestamp = std::time::Instant;

/// Read the host clock. The only sanctioned wall-clock read in the
/// workspace.
pub fn now() -> Timestamp {
    std::time::Instant::now()
}

/// Host time elapsed since `start`.
pub fn elapsed_since(start: Timestamp) -> Duration {
    start.elapsed()
}

/// A started timer — the common "how long did this take" shape of the
/// experiment harness.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Timestamp,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Stopwatch {
        Stopwatch { started: now() }
    }

    /// Host time since [`start`](Stopwatch::start).
    pub fn elapsed(&self) -> Duration {
        elapsed_since(self.started)
    }
}

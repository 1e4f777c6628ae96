//! Deterministic fault injection and client-resilience policy.
//!
//! The paper's Table-4 loop measures healthy networks, but its
//! recommendations matter most when peers fail. This module makes failure a
//! *declared, replayable* dimension of a scenario: a [`FaultSpec`] describes
//! availability holes (endorser outage windows, latency spikes, orderer
//! stalls, probabilistic message drops) and a [`RetryPolicy`] describes how
//! the simulated client arm reacts (endorsement timeout, bounded retries,
//! exponential backoff with deterministic jitter).
//!
//! Both types are plain data: times are **f64 seconds** relative to the
//! simulation origin, so spec validation can reject negative or non-finite
//! values *before* they are clamped by [`SimDuration::from_secs_f64`]. The
//! default for both types is a strict no-op — a spec without a `fault` or
//! `retry` field simulates byte-identically to one predating this module
//! (golden-enforced in `tests/fault_injection.rs`).
//!
//! Randomized effects draw from dedicated seed-derived streams
//! ([`DROP_STREAM`], [`BACKOFF_STREAM`]) so enabling them never perturbs the
//! endorser-selection or arrival streams.

use serde::{Deserialize, Serialize};
use sim_core::rng::SimRng;
use sim_core::time::{SimDuration, SimTime};

use crate::config::MAX_PHASE;
use crate::types::{OrgId, PeerId};

/// RNG stream label for probabilistic proposal/endorsement drops
/// (derived from the network seed via [`SimRng::derive`]).
pub const DROP_STREAM: u64 = 0xFA17D;

/// RNG stream label for backoff jitter draws.
pub const BACKOFF_STREAM: u64 = 0x0BAC_C0FF;

/// The typed abort reason recorded when a transaction exhausts its retry
/// budget without assembling a full endorsement set.
pub const RETRY_EXHAUSTED_REASON: &str = "endorsement retry budget exhausted";

/// The abort reason recorded when an endorsement fan-out completes with at
/// least one peer never answering (down or dropped) and no chaincode abort
/// to attribute it to — the wait-forever client's outage signature.
pub const NO_ENDORSEMENT_REASON: &str = "no endorsement result";

/// An availability hole for one endorsing peer, or a whole organization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutageWindow {
    /// Organization index (`0`-based, must be `< NetworkConfig::orgs`).
    pub org: u16,
    /// Peer index within the organization; `None` (or absent in JSON) takes
    /// the whole org down.
    #[serde(default)]
    pub peer: Option<u16>,
    /// Window start, seconds from the simulation origin.
    pub start: f64,
    /// Window length in seconds (must be positive).
    pub duration: f64,
}

/// A window during which every network hop is slowed by a multiplier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySpike {
    /// Window start, seconds from the simulation origin.
    pub start: f64,
    /// Window length in seconds (must be positive).
    pub duration: f64,
    /// Factor applied to `resources.net_delay` while active (must be ≥ 1).
    pub multiplier: f64,
}

/// A window during which the ordering service accepts no work; cuts that
/// arrive inside the window are serviced when the stall lifts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StallWindow {
    /// Window start, seconds from the simulation origin.
    pub start: f64,
    /// Window length in seconds (must be positive).
    pub duration: f64,
}

/// Probabilistic message loss on the client↔endorser path, drawn from the
/// dedicated [`DROP_STREAM`] so results stay seed-reproducible. A rate
/// absent in JSON is zero.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct DropSpec {
    /// Probability in `[0, 1)` that a proposal never reaches its endorser.
    pub proposal_rate: f64,
    /// Probability in `[0, 1)` that an endorsement reply is lost in transit.
    pub endorsement_rate: f64,
}

/// Declarative fault plan for one simulation run. The default carries no
/// faults and is guaranteed not to change simulation output. Every field is
/// optional in JSON: `{}` is the no-op plan.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct FaultSpec {
    /// Endorser availability holes.
    pub endorser_outages: Vec<OutageWindow>,
    /// Network-wide latency degradation windows.
    pub latency_spikes: Vec<LatencySpike>,
    /// Ordering-service stall windows (must not overlap each other).
    pub orderer_stalls: Vec<StallWindow>,
    /// Probabilistic proposal/endorsement loss, if any.
    pub drop: Option<DropSpec>,
}

impl FaultSpec {
    /// True when this spec cannot affect a run: no windows and no
    /// effective drop rates. A no-op spec schedules no fault events and
    /// draws nothing from the fault RNG streams.
    pub fn is_noop(&self) -> bool {
        self.endorser_outages.is_empty()
            && self.latency_spikes.is_empty()
            && self.orderer_stalls.is_empty()
            && self
                .drop
                .as_ref()
                .is_none_or(|d| d.proposal_rate <= 0.0 && d.endorsement_rate <= 0.0)
    }
}

/// How the simulated client arm reacts to missing endorsements. The default
/// (`endorse_timeout: None`) reproduces the pre-fault engine exactly: the
/// client waits for the fan-out forever and never retries. A field absent
/// in JSON takes its default.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct RetryPolicy {
    /// Client-side deadline in seconds for one endorsement fan-out; `None`
    /// disables the timeout arm entirely.
    pub endorse_timeout: Option<f64>,
    /// Total proposal attempts per transaction (first try included, ≥ 1).
    pub max_attempts: usize,
    /// Backoff before the first retry, in seconds.
    pub backoff_base: f64,
    /// Multiplier applied to the backoff on each further retry (≥ 1).
    pub backoff_multiplier: f64,
    /// Jitter fraction in `[0, 1)`: each backoff is scaled by a factor
    /// drawn uniformly from `[1 - jitter, 1 + jitter)` on the dedicated
    /// [`BACKOFF_STREAM`].
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            endorse_timeout: None,
            max_attempts: 1,
            backoff_base: 0.05,
            backoff_multiplier: 2.0,
            jitter: 0.0,
        }
    }
}

impl RetryPolicy {
    /// True when the timeout arm is disabled, i.e. the client behaves
    /// exactly like the pre-fault engine.
    pub fn is_noop(&self) -> bool {
        self.endorse_timeout.is_none()
    }

    /// The endorsement deadline as a simulation duration, if enabled.
    pub fn endorse_timeout_duration(&self) -> Option<SimDuration> {
        self.endorse_timeout.map(SimDuration::from_secs_f64)
    }

    /// Deterministic backoff before retry number `retry_index` (1-based),
    /// capped at [`MAX_PHASE`]: the exponential grows past the clock's
    /// range long before `max_attempts` runs out (64 attempts at ×2), and
    /// the engine adds it to the current time. Draws from `rng` only when
    /// jitter is configured.
    pub fn backoff(&self, retry_index: u32, rng: &mut SimRng) -> SimDuration {
        let base = self.backoff_base.max(0.0);
        let mult = self.backoff_multiplier.max(1.0);
        let mut secs = base * mult.powi(retry_index.saturating_sub(1).min(i32::MAX as u32) as i32);
        if self.jitter > 0.0 {
            secs *= 1.0 + self.jitter * (2.0 * rng.f64() - 1.0);
        }
        SimDuration::from_secs_f64(secs).min(MAX_PHASE)
    }
}

// ---------------------------------------------------------------------------
// Compiled runtime form used by the engine.
// ---------------------------------------------------------------------------

/// What one compiled fault window does while active.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FaultEffect {
    /// Every endorser of the organization is unavailable.
    OrgDown(OrgId),
    /// One specific endorsing peer is unavailable.
    PeerDown(PeerId),
    /// Network delays are multiplied by the factor.
    LatencySpike(f64),
    /// The ordering service accepts no work.
    OrdererStall,
}

impl FaultEffect {
    fn hits(&self, peer: PeerId) -> bool {
        match *self {
            FaultEffect::OrgDown(org) => org == peer.org,
            FaultEffect::PeerDown(p) => p == peer,
            _ => false,
        }
    }
}

/// One fault window lowered to simulation time.
#[derive(Debug, Clone)]
pub(crate) struct CompiledWindow {
    pub(crate) effect: FaultEffect,
    pub(crate) start: SimTime,
    pub(crate) end: SimTime,
}

/// The engine-side fault state: the compiled windows plus a live activity
/// flag per window, toggled by the `FaultStart`/`FaultEnd` DES events. At
/// any event-dispatch instant `t`, `active[i]` equals the static window
/// test `start <= t < end` because `FaultEnd` (priority 0) and `FaultStart`
/// (priority 1) dispatch before every other phase at the same timestamp.
#[derive(Debug, Clone, Default)]
pub(crate) struct FaultRuntime {
    windows: Vec<CompiledWindow>,
    active: Vec<bool>,
}

impl FaultRuntime {
    /// Lowers a validated spec to simulation-time windows. Negative or
    /// non-finite times must have been rejected by spec validation; this
    /// conversion saturates rather than panics.
    pub(crate) fn compile(spec: &FaultSpec) -> Self {
        fn at(secs: f64) -> SimTime {
            SimTime::ZERO + SimDuration::from_secs_f64(secs)
        }
        let mut windows = Vec::new();
        for w in &spec.endorser_outages {
            let org = OrgId(w.org);
            let effect = match w.peer {
                Some(index) => FaultEffect::PeerDown(PeerId { org, index }),
                None => FaultEffect::OrgDown(org),
            };
            windows.push(CompiledWindow {
                effect,
                start: at(w.start),
                end: at(w.start + w.duration),
            });
        }
        for s in &spec.latency_spikes {
            windows.push(CompiledWindow {
                effect: FaultEffect::LatencySpike(s.multiplier),
                start: at(s.start),
                end: at(s.start + s.duration),
            });
        }
        for s in &spec.orderer_stalls {
            windows.push(CompiledWindow {
                effect: FaultEffect::OrdererStall,
                start: at(s.start),
                end: at(s.start + s.duration),
            });
        }
        let active = vec![false; windows.len()];
        FaultRuntime { windows, active }
    }

    /// `(index, start, end)` per window, for event scheduling.
    pub(crate) fn spans(&self) -> impl Iterator<Item = (usize, SimTime, SimTime)> + '_ {
        self.windows
            .iter()
            .enumerate()
            .map(|(i, w)| (i, w.start, w.end))
    }

    /// Marks window `idx` live (dispatched by a `FaultStart` event).
    pub(crate) fn activate(&mut self, idx: usize) {
        if let Some(flag) = self.active.get_mut(idx) {
            *flag = true;
        }
    }

    /// Marks window `idx` over (dispatched by a `FaultEnd` event).
    pub(crate) fn deactivate(&mut self, idx: usize) {
        if let Some(flag) = self.active.get_mut(idx) {
            *flag = false;
        }
    }

    /// Live view: is this peer inside any active outage right now?
    pub(crate) fn peer_down_now(&self, peer: PeerId) -> bool {
        self.windows
            .iter()
            .zip(&self.active)
            .any(|(w, &on)| on && w.effect.hits(peer))
    }

    /// Static view: will this peer be inside an outage at time `t`? Used
    /// at propose time to predict whether a fan-out can complete; agrees
    /// with [`Self::peer_down_now`] at every dispatch instant.
    pub(crate) fn peer_down_at(&self, peer: PeerId, t: SimTime) -> bool {
        self.windows
            .iter()
            .any(|w| w.effect.hits(peer) && w.start <= t && t < w.end)
    }

    /// Product of the multipliers of all active latency spikes, or `None`
    /// when no spike is active — callers must then use the base delay
    /// unmodified so healthy runs avoid any float round-trip.
    pub(crate) fn latency_factor(&self) -> Option<f64> {
        let mut factor = None;
        for (w, &on) in self.windows.iter().zip(&self.active) {
            if let (true, FaultEffect::LatencySpike(m)) = (on, w.effect) {
                factor = Some(factor.unwrap_or(1.0) * m);
            }
        }
        factor
    }

    /// If the orderer is stalled at `now`, the instant the stall lifts.
    pub(crate) fn orderer_release(&self, now: SimTime) -> Option<SimTime> {
        self.windows
            .iter()
            .filter(|w| matches!(w.effect, FaultEffect::OrdererStall))
            .filter(|w| w.start <= now && now < w.end)
            .map(|w| w.end)
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    #[test]
    fn defaults_are_noops() {
        assert!(FaultSpec::default().is_noop());
        assert!(RetryPolicy::default().is_noop());
        assert_eq!(
            FaultRuntime::compile(&FaultSpec::default()).spans().count(),
            0
        );
    }

    #[test]
    fn zero_rate_drop_is_still_a_noop() {
        let spec = FaultSpec {
            drop: Some(DropSpec::default()),
            ..FaultSpec::default()
        };
        assert!(spec.is_noop());
        let spec = FaultSpec {
            drop: Some(DropSpec {
                proposal_rate: 0.1,
                endorsement_rate: 0.0,
            }),
            ..FaultSpec::default()
        };
        assert!(!spec.is_noop());
    }

    #[test]
    fn fault_spec_round_trips_through_json() {
        let spec = FaultSpec {
            endorser_outages: vec![OutageWindow {
                org: 1,
                peer: Some(2),
                start: 0.5,
                duration: 3.0,
            }],
            latency_spikes: vec![LatencySpike {
                start: 1.0,
                duration: 2.0,
                multiplier: 4.0,
            }],
            orderer_stalls: vec![StallWindow {
                start: 2.0,
                duration: 0.25,
            }],
            drop: Some(DropSpec {
                proposal_rate: 0.05,
                endorsement_rate: 0.1,
            }),
        };
        let json = spec.to_value().render(false);
        let back: FaultSpec = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, spec);
    }

    #[test]
    fn empty_object_deserializes_to_no_faults_and_default_retry() {
        let fault: FaultSpec = serde_json::from_str("{}").expect("fault");
        assert_eq!(fault, FaultSpec::default());
        let retry: RetryPolicy = serde_json::from_str("{}").expect("retry");
        assert_eq!(retry, RetryPolicy::default());
    }

    #[test]
    fn retry_policy_round_trips_and_tolerates_partial_json() {
        let policy = RetryPolicy {
            endorse_timeout: Some(1.5),
            max_attempts: 4,
            backoff_base: 0.2,
            backoff_multiplier: 3.0,
            jitter: 0.1,
        };
        let json = policy.to_value().render(false);
        let back: RetryPolicy = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, policy);

        let p: RetryPolicy = serde_json::from_str(r#"{"endorse_timeout": 2.0, "max_attempts": 3}"#)
            .expect("partial");
        assert_eq!(p.endorse_timeout, Some(2.0));
        assert_eq!(p.max_attempts, 3);
        assert_eq!(p.backoff_base, RetryPolicy::default().backoff_base);
    }

    #[test]
    fn backoff_grows_exponentially_and_is_deterministic() {
        let policy = RetryPolicy {
            endorse_timeout: Some(1.0),
            max_attempts: 4,
            backoff_base: 0.1,
            backoff_multiplier: 2.0,
            jitter: 0.0,
        };
        let mut rng = SimRng::derive(42, BACKOFF_STREAM);
        assert_eq!(policy.backoff(1, &mut rng), SimDuration::from_secs_f64(0.1));
        assert_eq!(policy.backoff(2, &mut rng), SimDuration::from_secs_f64(0.2));
        assert_eq!(policy.backoff(3, &mut rng), SimDuration::from_secs_f64(0.4));

        let jittered = RetryPolicy {
            jitter: 0.5,
            ..policy
        };
        let mut a = SimRng::derive(7, BACKOFF_STREAM);
        let mut b = SimRng::derive(7, BACKOFF_STREAM);
        for retry in 1..4 {
            assert_eq!(
                jittered.backoff(retry, &mut a),
                jittered.backoff(retry, &mut b)
            );
        }
    }

    #[test]
    fn backoff_is_capped_at_the_phase_bound() {
        // The largest policy validation admits at ×2 (the retry-budget
        // rule emits it): uncapped, the 64th backoff is 0.05 · 2⁶³ s.
        let policy = RetryPolicy {
            endorse_timeout: Some(0.4),
            max_attempts: 64,
            backoff_base: 0.05,
            backoff_multiplier: 2.0,
            jitter: 0.0,
        };
        for jitter in [0.0, 0.5] {
            let policy = RetryPolicy { jitter, ..policy };
            let mut rng = SimRng::derive(42, BACKOFF_STREAM);
            for retry in 1..=64 {
                let backoff = policy.backoff(retry, &mut rng);
                assert!(
                    backoff <= MAX_PHASE,
                    "retry {retry} at jitter {jitter}: {backoff:?}"
                );
            }
        }
        let mut rng = SimRng::derive(42, BACKOFF_STREAM);
        assert_eq!(policy.backoff(64, &mut rng), MAX_PHASE);
        assert_eq!(
            policy.backoff(1, &mut rng),
            SimDuration::from_secs_f64(0.05)
        );
    }

    #[test]
    fn compiled_windows_answer_availability_queries() {
        let spec = FaultSpec {
            endorser_outages: vec![
                OutageWindow {
                    org: 0,
                    peer: None,
                    start: 1.0,
                    duration: 2.0,
                },
                OutageWindow {
                    org: 1,
                    peer: Some(3),
                    start: 0.0,
                    duration: 10.0,
                },
            ],
            latency_spikes: vec![LatencySpike {
                start: 5.0,
                duration: 1.0,
                multiplier: 3.0,
            }],
            orderer_stalls: vec![StallWindow {
                start: 2.0,
                duration: 4.0,
            }],
            drop: None,
        };
        let mut rt = FaultRuntime::compile(&spec);
        assert_eq!(rt.spans().count(), 4);

        let org0_peer = PeerId {
            org: OrgId(0),
            index: 4,
        };
        let org1_peer3 = PeerId {
            org: OrgId(1),
            index: 3,
        };
        let org1_peer0 = PeerId {
            org: OrgId(1),
            index: 0,
        };

        // Static window math: half-open [start, end).
        assert!(!rt.peer_down_at(org0_peer, secs(0.5)));
        assert!(rt.peer_down_at(org0_peer, secs(1.0)));
        assert!(rt.peer_down_at(org0_peer, secs(2.9)));
        assert!(!rt.peer_down_at(org0_peer, secs(3.0)));
        assert!(rt.peer_down_at(org1_peer3, secs(5.0)));
        assert!(!rt.peer_down_at(org1_peer0, secs(5.0)));

        // Live flags mirror the windows once toggled.
        assert!(!rt.peer_down_now(org0_peer));
        rt.activate(0);
        assert!(rt.peer_down_now(org0_peer));
        assert!(!rt.peer_down_now(org1_peer0));
        rt.deactivate(0);
        assert!(!rt.peer_down_now(org0_peer));

        assert_eq!(rt.latency_factor(), None);
        rt.activate(2);
        assert_eq!(rt.latency_factor(), Some(3.0));
        rt.deactivate(2);

        assert_eq!(rt.orderer_release(secs(1.0)), None);
        assert_eq!(rt.orderer_release(secs(3.0)), Some(secs(6.0)));
        assert_eq!(rt.orderer_release(secs(6.0)), None);
    }
}

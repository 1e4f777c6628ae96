//! Analytic FIFO queueing servers.
//!
//! The simulator does not model peers as explicit processes; instead each
//! resource (an endorsing peer, the ordering service, the validation stage of
//! a peer, a client worker) is a *work-conserving FIFO server*: a job arriving
//! at time `a` with service demand `s` starts at `max(a, server_free)` and
//! finishes `s` later. This is exact for FIFO queues with deterministic
//! service order and keeps the whole pipeline O(1) per job.

use crate::time::{SimDuration, SimTime};

/// A single work-conserving FIFO server.
#[derive(Debug, Clone, Default)]
pub struct QueueServer {
    free_at: SimTime,
    busy: SimDuration,
    jobs: u64,
}

impl QueueServer {
    /// A new idle server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Submit a job arriving at `arrival` with service demand `service`.
    /// Returns `(start, completion)`.
    pub fn submit(&mut self, arrival: SimTime, service: SimDuration) -> (SimTime, SimTime) {
        let start = arrival.max(self.free_at);
        let done = start + service;
        self.free_at = done;
        self.busy += service;
        self.jobs += 1;
        (start, done)
    }

    /// Earliest instant at which the server is idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total service time delivered so far.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Number of jobs served.
    pub fn jobs_served(&self) -> u64 {
        self.jobs
    }

    /// Utilization over the window `[0, horizon]` (clamped to `[0, 1]`).
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon.as_micros() == 0 {
            return 0.0;
        }
        (self.busy.as_micros() as f64 / horizon.as_micros() as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: fn(u64) -> SimDuration = SimDuration::from_millis;

    #[test]
    fn idle_server_starts_immediately() {
        let mut s = QueueServer::new();
        let (start, done) = s.submit(SimTime::from_millis(5), MS(10));
        assert_eq!(start, SimTime::from_millis(5));
        assert_eq!(done, SimTime::from_millis(15));
    }

    #[test]
    fn busy_server_queues_fifo() {
        let mut s = QueueServer::new();
        s.submit(SimTime::ZERO, MS(10));
        let (start, done) = s.submit(SimTime::from_millis(2), MS(10));
        assert_eq!(start, SimTime::from_millis(10), "waits for first job");
        assert_eq!(done, SimTime::from_millis(20));
    }

    #[test]
    fn gap_leaves_server_idle() {
        let mut s = QueueServer::new();
        s.submit(SimTime::ZERO, MS(1));
        let (start, _) = s.submit(SimTime::from_millis(100), MS(1));
        assert_eq!(start, SimTime::from_millis(100));
        assert_eq!(s.busy_time(), MS(2));
        assert_eq!(s.jobs_served(), 2);
    }

    #[test]
    fn utilization_is_busy_over_horizon() {
        let mut s = QueueServer::new();
        s.submit(SimTime::ZERO, MS(30));
        assert!((s.utilization(SimTime::from_millis(100)) - 0.3).abs() < 1e-9);
        assert_eq!(s.utilization(SimTime::ZERO), 0.0);
    }
}

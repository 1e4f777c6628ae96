//! Loan Application Process workload (paper §5.1.3, Figure 17).
//!
//! The paper replays the first 2 000 applications (20 000 events) of the
//! BPI Challenge 2017 event log of a Dutch financial institute. That log is
//! a data gate, so this module generates a **statistically equivalent
//! synthetic log** preserving the three properties the experiment depends
//! on:
//!
//! 1. **Skewed employee assignment** — one employee handles far more
//!    applications than anyone else (the hot `employeeID 1` key the paper's
//!    data-model-alteration recommendation fires on);
//! 2. **Sequential per-application flows** — `create → submit → handleLeads
//!    → createOffer → sendOffer → validate → (approve|decline|cancel)`, with
//!    rework loops back to `createOffer` (the W_* loops of the real log);
//! 3. **Automatic-event bursts** — a fraction of consecutive events of one
//!    application fire back-to-back (system-generated events in the real
//!    log), which keeps some same-application conflicts even after the data
//!    model is fixed (the paper's post-optimization success stays below
//!    100 %).

use crate::bundle::WorkloadBundle;
use chaincode::LapByEmployeeContract;
use fabric_sim::sim::TxRequest;
use fabric_sim::types::{intern, OrgId, Value};
use serde::{Deserialize, Serialize};
use sim_core::dist::DiscreteWeighted;
use sim_core::rng::SimRng;
use sim_core::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// LAP workload parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LapSpec {
    /// Number of loan applications (the paper extracts 2 000).
    pub applications: usize,
    /// Bank employees processing applications.
    pub employees: usize,
    /// Share of applications handled by employee 1 (the hot key).
    pub hot_employee_share: f64,
    /// Probability an application loops back to `createOffer` after
    /// `validate` (rework).
    pub rework_rate: f64,
    /// Probability a transition is automatic (fires back-to-back with its
    /// predecessor).
    pub burst_rate: f64,
    /// Offered send rate (10 tps manual / 300 tps automated in the paper).
    pub send_rate: f64,
    /// Number of client organizations.
    pub orgs: usize,
    /// Generator seed.
    // detlint: allow(spec-validate, reason = "every u64 is a valid generator seed; determinism per seed is covered by the golden tests")
    pub seed: u64,
}

impl Default for LapSpec {
    fn default() -> Self {
        LapSpec {
            applications: 2_000,
            employees: 20,
            hot_employee_share: 0.55,
            rework_rate: 0.25,
            burst_rate: 0.45,
            send_rate: 10.0,
            orgs: 2,
            seed: 42,
        }
    }
}

/// Employee key for index `i` (1-based display, matching "employeeID 1").
pub fn employee_key(i: usize) -> String {
    format!("E{:03}", i + 1)
}

/// Application key for index `i`.
pub fn application_key(i: usize) -> String {
    format!("APP{i:05}")
}

/// One application's activity trace (with rework loops).
fn application_trace(rng: &mut SimRng, rework_rate: f64) -> Vec<&'static str> {
    let mut trace = vec![
        "create",
        "submit",
        "handleLeads",
        "createOffer",
        "sendOffer",
    ];
    let mut reworks = 0;
    loop {
        trace.push("validate");
        if reworks < 2 && rng.chance(rework_rate) {
            trace.push("createOffer");
            trace.push("sendOffer");
            reworks += 1;
        } else {
            break;
        }
    }
    let outcome = rng.f64();
    trace.push(if outcome < 0.45 {
        "approve"
    } else if outcome < 0.80 {
        "decline"
    } else {
        "cancel"
    });
    trace
}

/// Seed-stream label for LAP generation (see `DV_STREAM` for the pattern).
pub const LAP_STREAM: u64 = 0x1A90;

/// Generate the LAP workload with the paper's by-employee data model.
pub fn generate(spec: &LapSpec) -> WorkloadBundle {
    let mut rng = SimRng::derive(spec.seed, LAP_STREAM);

    // Employee assignment: employee 1 takes `hot_employee_share`, the rest
    // share the remainder evenly.
    let mut weights =
        vec![(1.0 - spec.hot_employee_share) / (spec.employees - 1) as f64; spec.employees];
    weights[0] = spec.hot_employee_share;
    let employee_pick = DiscreteWeighted::new(&weights);

    // Build per-application traces and assignments.
    struct App {
        employee: usize,
        trace: Vec<&'static str>,
        next: usize,
        amount: i64,
    }
    let mut apps: Vec<App> = (0..spec.applications)
        .map(|_| App {
            employee: employee_pick.sample(&mut rng),
            trace: application_trace(&mut rng, spec.rework_rate),
            next: 0,
            amount: 1_000 + rng.range(0, 50) as i64 * 500,
        })
        .collect();

    // Interleave: applications arrive staggered; each emits its next event
    // after a gap — tiny for automatic transitions, larger for manual work.
    // The heap is keyed by fractional "slots"; final timestamps re-space the
    // emitted order at the configured send rate.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for (i, _) in apps.iter().enumerate() {
        // Stagger arrivals: ~10 new applications per 100 slots.
        heap.push(Reverse(((i as u64) * 10, i)));
    }
    let mut order: Vec<(usize, &'static str)> = Vec::new();
    while let Some(Reverse((slot, app_idx))) = heap.pop() {
        let app = &mut apps[app_idx];
        if app.next >= app.trace.len() {
            continue;
        }
        let activity = app.trace[app.next];
        app.next += 1;
        order.push((app_idx, activity));
        if app.next < app.trace.len() {
            let gap = if rng.chance(spec.burst_rate) {
                1 + rng.range(0, 2)
            } else {
                20 + rng.range(0, 60)
            };
            heap.push(Reverse((slot + gap, app_idx)));
        }
    }

    let org_count = spec.orgs;
    let gap = SimDuration::from_secs_f64(1.0 / spec.send_rate.max(1e-9));
    let requests: Vec<TxRequest> = order
        .into_iter()
        .enumerate()
        .map(|(i, (app_idx, activity))| {
            let app = &apps[app_idx];
            TxRequest {
                send_time: SimTime::ZERO + gap.mul(i as u64),
                contract: intern(LapByEmployeeContract::NAME),
                activity: intern(activity),
                args: Arc::from(vec![
                    employee_key(app.employee).into(),
                    application_key(app_idx).into(),
                    Value::Int(app.amount),
                ]),
                invoker_org: OrgId((app_idx % org_count) as u16),
            }
        })
        .collect();

    WorkloadBundle::new(vec![Arc::new(LapByEmployeeContract)], Vec::new(), requests)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn small_spec() -> LapSpec {
        LapSpec {
            applications: 300,
            ..Default::default()
        }
    }

    #[test]
    fn volume_is_roughly_ten_events_per_application() {
        let b = generate(&LapSpec::default());
        let per_app = b.len() as f64 / 2_000.0;
        assert!(
            (7.0..11.0).contains(&per_app),
            "events per application: {per_app}"
        );
    }

    #[test]
    fn employee_one_is_hot() {
        let b = generate(&LapSpec::default());
        let e1 = employee_key(0);
        let hot = b
            .requests
            .iter()
            .filter(|r| r.args[0].as_str() == Some(e1.as_str()))
            .count();
        let share = hot as f64 / b.len() as f64;
        assert!((0.45..0.65).contains(&share), "employee 1 share {share}");
    }

    #[test]
    fn traces_start_with_create_and_end_terminal() {
        let b = generate(&small_spec());
        let mut traces: HashMap<String, Vec<String>> = HashMap::new();
        for r in &b.requests {
            let app = r.args[1].as_str().unwrap().to_string();
            traces.entry(app).or_default().push(r.activity.to_string());
        }
        for (app, t) in &traces {
            assert_eq!(t[0], "create", "{app} starts with create");
            assert!(
                matches!(t.last().unwrap().as_str(), "approve" | "decline" | "cancel"),
                "{app} ends terminally: {t:?}"
            );
        }
    }

    #[test]
    fn rework_loops_revisit_create_offer() {
        let b = generate(&LapSpec {
            rework_rate: 1.0,
            applications: 100,
            ..Default::default()
        });
        let mut per_app: HashMap<String, usize> = HashMap::new();
        for r in b
            .requests
            .iter()
            .filter(|r| r.activity.as_ref() == "createOffer")
        {
            *per_app
                .entry(r.args[1].as_str().unwrap().to_string())
                .or_insert(0) += 1;
        }
        assert!(
            per_app.values().all(|&c| c == 3),
            "always-rework gives 1 + 2 retries"
        );
    }

    #[test]
    fn schedule_rate_matches_spec() {
        let b = generate(&small_spec());
        let rate = b.offered_rate();
        assert!((9.9..10.1).contains(&rate), "{rate}");
    }

    #[test]
    fn per_application_order_is_preserved() {
        let b = generate(&small_spec());
        let mut last_seen: HashMap<String, SimTime> = HashMap::new();
        for r in &b.requests {
            let app = r.args[1].as_str().unwrap().to_string();
            if let Some(prev) = last_seen.get(&app) {
                assert!(r.send_time >= *prev);
            }
            last_seen.insert(app, r.send_time);
        }
    }

    #[test]
    fn bursts_make_some_gaps_tiny() {
        let b = generate(&small_spec());
        let mut per_app_positions: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, r) in b.requests.iter().enumerate() {
            per_app_positions
                .entry(r.args[1].as_str().unwrap().to_string())
                .or_default()
                .push(i);
        }
        let mut tiny = 0usize;
        let mut total = 0usize;
        for positions in per_app_positions.values() {
            for w in positions.windows(2) {
                total += 1;
                if w[1] - w[0] <= 5 {
                    tiny += 1;
                }
            }
        }
        let share = tiny as f64 / total as f64;
        assert!(
            (0.25..0.70).contains(&share),
            "burst share {share} (tiny {tiny} / {total})"
        );
    }
}

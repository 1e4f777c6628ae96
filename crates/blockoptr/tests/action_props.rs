//! Property tests for the typed action layer: schedule rewrites must be
//! permutations (never drop, duplicate, or mutate a request) and rate
//! control must actually bound the instantaneous send rate.

use blockoptr::action::Action;
use fabric_sim::sim::TxRequest;
use fabric_sim::types::OrgId;
use proptest::prelude::*;
use sim_core::time::SimTime;
use workload::SpecTransform;

const ACTIVITIES: [&str; 4] = ["pushASN", "ship", "queryProducts", "updateAuditInfo"];

/// Build a schedule from generated (time, activity-index) pairs. Times may
/// collide and arrive unsorted — both legal for a request schedule.
fn schedule(pairs: &[(u64, u8)]) -> Vec<TxRequest> {
    pairs
        .iter()
        .enumerate()
        .map(|(i, &(t, a))| TxRequest {
            send_time: SimTime::from_millis(t),
            contract: "cc".into(),
            activity: ACTIVITIES[a as usize % ACTIVITIES.len()].into(),
            // A unique payload per request, so multiset comparison detects
            // duplication of one request masking the loss of another.
            args: vec![format!("arg{i}").into()].into(),
            invoker_org: OrgId((i % 3) as u16),
        })
        .collect()
}

/// Apply a schedule-rewrite action to a request schedule.
fn rewrite(action: &Action, requests: &[TxRequest]) -> Vec<TxRequest> {
    match action {
        Action::RewriteSchedule(transform) => transform.apply(requests),
        other => panic!("not a schedule rewrite: {other:?}"),
    }
}

/// The multiset fingerprint of a schedule, ignoring send times.
fn payload_multiset(requests: &[TxRequest]) -> Vec<(String, String)> {
    let mut set: Vec<(String, String)> = requests
        .iter()
        .map(|r| {
            (
                r.activity.to_string(),
                r.args
                    .first()
                    .and_then(|v| v.as_str().map(str::to_string))
                    .unwrap_or_default(),
            )
        })
        .collect();
    set.sort();
    set
}

/// The multiset of send times.
fn time_multiset(requests: &[TxRequest]) -> Vec<u64> {
    let mut times: Vec<u64> = requests.iter().map(|r| r.send_time.as_micros()).collect();
    times.sort_unstable();
    times
}

proptest! {
    /// Deferring any subset of activities is a permutation: the request
    /// multiset and the send-time multiset are both preserved exactly.
    #[test]
    fn deferral_preserves_request_and_time_multisets(
        pairs in prop::collection::vec((0u64..60_000, 0u8..4), 1..120),
        defer_mask in 0u8..16,
    ) {
        let requests = schedule(&pairs);
        let deferred: Vec<String> = ACTIVITIES
            .iter()
            .enumerate()
            .filter(|(i, _)| defer_mask & (1 << i) != 0)
            .map(|(_, a)| a.to_string())
            .collect();
        let action = Action::RewriteSchedule(SpecTransform::DeferActivities {
            activities: deferred.clone(),
        });
        let out = rewrite(&action, &requests);
        prop_assert_eq!(out.len(), requests.len());
        prop_assert_eq!(payload_multiset(&out), payload_multiset(&requests));
        prop_assert_eq!(time_multiset(&out), time_multiset(&requests));
        // And the deferral holds: no deferred activity precedes a
        // non-deferred one in the rewritten order.
        let first_deferred = out.iter().position(|r| deferred.iter().any(|d| **d == *r.activity));
        if let Some(cut) = first_deferred {
            prop_assert!(
                out[cut..].iter().all(|r| deferred.iter().any(|d| **d == *r.activity)),
                "deferred activities form a suffix"
            );
        }
    }

    /// Throttling preserves the request multiset and never lets the
    /// instantaneous rate (1 / gap between consecutive sends) exceed the
    /// controlled rate.
    #[test]
    fn throttle_bounds_the_instantaneous_rate(
        pairs in prop::collection::vec((0u64..60_000, 0u8..4), 2..120),
        rate_tenths in 5u32..3_000,
    ) {
        let rate = rate_tenths as f64 / 10.0;
        let requests = schedule(&pairs);
        let action = Action::RewriteSchedule(SpecTransform::Throttle { rate });
        let out = rewrite(&action, &requests);
        prop_assert_eq!(out.len(), requests.len());
        prop_assert_eq!(payload_multiset(&out), payload_multiset(&requests));
        let min_gap_us = (1_000_000.0 / rate).floor() as u64;
        for w in out.windows(2) {
            let gap = w[1].send_time.as_micros() - w[0].send_time.as_micros();
            // One microsecond of slack for the float → integer rounding.
            prop_assert!(
                gap + 1 >= min_gap_us,
                "gap {gap} µs < 1/rate {min_gap_us} µs (rate {rate})"
            );
        }
    }
}

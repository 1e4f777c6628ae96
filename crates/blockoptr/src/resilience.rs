//! Resilience rules: turning a degradation report into retry / policy
//! tuning actions.
//!
//! The paper's nine rules ([`RuleSet::paper`](crate::recommend::rules::RuleSet::paper))
//! diagnose *steady-state* inefficiencies from the transaction log. Under
//! injected faults ([`fabric_sim::fault::FaultSpec`]) a different family of
//! problems appears — endorsement fan-outs that never complete, retry
//! budgets that run dry, backoff schedules that hammer a congested network
//! — and the evidence for them lives in the run's
//! [`Degradation`](fabric_sim::report::Degradation) section, not in the
//! committed-transaction log. This module is that family's one fixed
//! catalogue:
//!
//! * each rule is a private function over a [`ResilienceCtx`] (the
//!   simulation report, the client's current [`RetryPolicy`], the network
//!   configuration);
//! * [`ResilienceRuleSet::paper`]'s [`evaluate`](ResilienceRuleSet::evaluate)
//!   runs them in escalation order: retry-budget tuning, backoff widening
//!   under timeout storms, then endorsement-policy relaxation under
//!   sustained outage;
//! * each firing lowers directly to a [`PlannedAction`] (a typed
//!   [`Action`]), so
//!   [`OptimizationPlan::from_spec`](crate::plan::OptimizationPlan::from_spec)
//!   can append resilience actions to the paper plan and the closed loop
//!   re-measures them like any other optimization.

use crate::action::{Action, NetworkChange, RetryChange};
use crate::plan::PlannedAction;
use fabric_sim::config::NetworkConfig;
use fabric_sim::fault::{RetryPolicy, NO_ENDORSEMENT_REASON, RETRY_EXHAUSTED_REASON};
use fabric_sim::report::SimReport;
use workload::scenario::MAX_RETRY_ATTEMPTS;

/// Everything a resilience rule may look at for one measured run.
#[derive(Debug, Clone, Copy)]
pub struct ResilienceCtx<'a> {
    /// The (primary-seed) simulation report, including its
    /// [`degradation`](SimReport::degradation) section.
    pub report: &'a SimReport,
    /// The retry policy the run executed under.
    pub retry: &'a RetryPolicy,
    /// The network configuration the run executed under.
    pub config: &'a NetworkConfig,
}

/// The built-in resilience catalogue. Each rule is a stateless detector
/// over one run's degradation evidence and fires at most one action
/// (resilience knobs are scalar; there is no per-activity fan-out like the
/// log rules have).
#[derive(Debug, Clone, Copy, Default)]
pub struct ResilienceRuleSet;

/// The catalogue's rules, in escalation order.
const RULES: [fn(&ResilienceCtx<'_>) -> Option<PlannedAction>; 3] =
    [retry_budget, backoff_widening, endorsement_relaxation];

impl ResilienceRuleSet {
    /// The built-in resilience catalogue, in escalation order: first make
    /// the client retry enough (retry-budget tuning), then stop it from
    /// retrying too *hot* (backoff widening), and only then weaken the
    /// endorsement policy itself (endorsement-policy relaxation) — the one
    /// action that trades integrity margin for availability.
    pub fn paper() -> ResilienceRuleSet {
        ResilienceRuleSet
    }

    /// Run every rule and collect the fired actions in escalation order.
    pub fn evaluate(&self, ctx: &ResilienceCtx<'_>) -> Vec<PlannedAction> {
        RULES.iter().filter_map(|rule| rule(ctx)).collect()
    }
}

/// The share of early aborts attributed to `reason`, over all requests.
fn abort_share(report: &SimReport, reason: &str) -> f64 {
    if report.requests == 0 {
        return 0.0;
    }
    *report.early_abort_reasons.get(reason).unwrap_or(&0) as f64 / report.requests as f64
}

/// Minimum share of requests lost to unanswered endorsements before
/// retry-budget tuning arms a timeout on a wait-forever client.
const NO_RESULT_SHARE: f64 = 0.01;

/// **Retry-budget tuning.** Two shapes of under-provisioned client:
///
/// * the wait-forever client (no [`RetryPolicy::endorse_timeout`]) loses a
///   visible share of transactions to dead endorsers (the
///   [`NO_ENDORSEMENT_REASON`] breakdown entry) — enable a timeout and a
///   small retry budget;
/// * a retrying client still exhausts its budget
///   ([`Degradation::retry_exhausted`](fabric_sim::report::Degradation::retry_exhausted))
///   — double the attempt cap, saturating at [`MAX_RETRY_ATTEMPTS`] so
///   the tuned spec still validates; a client already at the cap gets no
///   action.
fn retry_budget(ctx: &ResilienceCtx<'_>) -> Option<PlannedAction> {
    let deg = &ctx.report.degradation;
    let change = if ctx.retry.endorse_timeout.is_none() {
        if abort_share(ctx.report, NO_ENDORSEMENT_REASON) < NO_RESULT_SHARE {
            return None;
        }
        // A wait-forever client under an outage: give it a timeout
        // roughly one order above the healthy endorse round-trip and a
        // modest budget to ride out short windows.
        RetryChange {
            endorse_timeout: Some(1.0),
            max_attempts: Some(4),
            backoff_base: Some(0.25),
            backoff_multiplier: None,
        }
    } else if deg.retry_exhausted > 0 {
        let doubled = ctx
            .retry
            .max_attempts
            .max(1)
            .saturating_mul(2)
            .min(MAX_RETRY_ATTEMPTS);
        if doubled <= ctx.retry.max_attempts {
            // Already at the cap: the action would change nothing.
            return None;
        }
        RetryChange {
            endorse_timeout: None,
            max_attempts: Some(doubled),
            backoff_base: None,
            backoff_multiplier: None,
        }
    } else {
        return None;
    };
    Some(PlannedAction {
        source: "Retry budget tuning".to_string(),
        action: Action::TuneRetry(change),
    })
}

/// Timeouts-per-request ratio that counts as a storm.
const STORM_RATIO: f64 = 0.5;

/// **Backoff widening.** A timeout storm — timed-out fan-outs rivalling
/// the committed volume — while the backoff schedule is still tight means
/// retries re-enter the same congested or dead window they just timed out
/// of. Widen the schedule: raise the base toward the timeout itself and
/// ensure exponential growth.
fn backoff_widening(ctx: &ResilienceCtx<'_>) -> Option<PlannedAction> {
    let deg = &ctx.report.degradation;
    if ctx.report.requests == 0 || ctx.retry.endorse_timeout.is_none() {
        return None;
    }
    let ratio = deg.timeouts as f64 / ctx.report.requests as f64;
    if ratio < STORM_RATIO {
        return None;
    }
    let timeout = ctx.retry.endorse_timeout.unwrap_or(1.0);
    let widened_base = (ctx.retry.backoff_base * 2.0).max(timeout / 2.0);
    let already_wide =
        ctx.retry.backoff_base >= widened_base && ctx.retry.backoff_multiplier >= 2.0;
    if already_wide {
        return None;
    }
    Some(PlannedAction {
        source: "Backoff widening".to_string(),
        action: Action::TuneRetry(RetryChange {
            endorse_timeout: None,
            max_attempts: None,
            backoff_base: Some(widened_base),
            backoff_multiplier: Some(ctx.retry.backoff_multiplier.max(2.0)),
        }),
    })
}

/// In-window success rate (percent) below which an outage window counts as
/// a sustained availability failure.
const SUSTAINED_OUTAGE_PCT: f64 = 50.0;

/// **Endorsement-policy relaxation.** When a fault window shows a
/// *sustained* outage — an outage window whose in-window success rate
/// collapses, or a retry budget that keeps running dry — and the policy
/// still demands more than one endorser, requiring one fewer signature
/// shrinks the set of peers whose death can strand a transaction.
/// Deliberately last in the catalogue: it trades integrity margin for
/// availability (paper §2.1's trust assumption weakens by one org).
fn endorsement_relaxation(ctx: &ResilienceCtx<'_>) -> Option<PlannedAction> {
    if ctx.config.endorsement_policy.min_endorsers() <= 1 {
        return None;
    }
    let deg = &ctx.report.degradation;
    let sustained_window = deg.windows.iter().any(|w| {
        w.label.starts_with("outage")
            && w.submitted > 0
            && w.success_rate_pct < SUSTAINED_OUTAGE_PCT
    });
    // A drained retry budget is the same evidence when the client
    // *did* retry: the outage outlasted every attempt.
    let budget_drained =
        deg.retry_exhausted > 0 || abort_share(ctx.report, RETRY_EXHAUSTED_REASON) > 0.0;
    if !sustained_window && !budget_drained {
        return None;
    }
    Some(PlannedAction {
        source: "Endorsement policy relaxation".to_string(),
        action: Action::ReconfigureNetwork(NetworkChange::RelaxEndorsementPolicy),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::report::{Degradation, FaultWindowStats};

    /// The retry patch a planned action carries.
    fn retry_patch(planned: &PlannedAction) -> &RetryChange {
        match &planned.action {
            Action::TuneRetry(change) => change,
            other => panic!("not a retry patch: {other:?}"),
        }
    }

    fn report_with(requests: usize, deg: Degradation) -> SimReport {
        let ledger = fabric_sim::ledger::Ledger::new();
        let mut r = SimReport::from_ledger(&ledger, requests, sim_core::time::SimTime::ZERO);
        r.degradation = deg;
        r
    }

    /// A drained budget under a timeout storm with a tight backoff fires
    /// all three rules, reported in escalation order.
    #[test]
    fn paper_catalogue_registers_three_rules_in_escalation_order() {
        let report = report_with(
            100,
            Degradation {
                retries: 60,
                timeouts: 80,
                retry_exhausted: 5,
                ..Degradation::default()
            },
        );
        let retry = RetryPolicy {
            endorse_timeout: Some(1.0),
            max_attempts: 4,
            backoff_base: 0.05,
            backoff_multiplier: 1.0,
            jitter: 0.0,
        };
        let config = NetworkConfig::default();
        let ctx = ResilienceCtx {
            report: &report,
            retry: &retry,
            config: &config,
        };
        let fired = ResilienceRuleSet::paper().evaluate(&ctx);
        let sources: Vec<&str> = fired.iter().map(|a| a.source.as_str()).collect();
        assert_eq!(
            sources,
            [
                "Retry budget tuning",
                "Backoff widening",
                "Endorsement policy relaxation"
            ]
        );
    }

    #[test]
    fn quiet_run_fires_nothing() {
        let report = report_with(100, Degradation::default());
        let retry = RetryPolicy::default();
        let config = NetworkConfig::default();
        let ctx = ResilienceCtx {
            report: &report,
            retry: &retry,
            config: &config,
        };
        assert!(ResilienceRuleSet::paper().evaluate(&ctx).is_empty());
    }

    #[test]
    fn wait_forever_client_under_outage_gets_a_timeout() {
        let mut report = report_with(100, Degradation::default());
        report
            .early_abort_reasons
            .insert(NO_ENDORSEMENT_REASON.to_string(), 10);
        let retry = RetryPolicy::default();
        let config = NetworkConfig::default();
        let ctx = ResilienceCtx {
            report: &report,
            retry: &retry,
            config: &config,
        };
        let fired = ResilienceRuleSet::paper().evaluate(&ctx);
        assert_eq!(fired.len(), 1, "{fired:?}");
        assert_eq!(fired[0].source, "Retry budget tuning");
        let change = retry_patch(&fired[0]);
        assert!(change.endorse_timeout.is_some());
        assert!(change.max_attempts.unwrap_or(0) > 1);
    }

    #[test]
    fn drained_budget_doubles_attempts_and_relaxes_policy() {
        let report = report_with(
            100,
            Degradation {
                retries: 40,
                timeouts: 45,
                retry_exhausted: 5,
                ..Degradation::default()
            },
        );
        let retry = RetryPolicy {
            endorse_timeout: Some(0.5),
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let config = NetworkConfig::default();
        let ctx = ResilienceCtx {
            report: &report,
            retry: &retry,
            config: &config,
        };
        let fired = ResilienceRuleSet::paper().evaluate(&ctx);
        let sources: Vec<&str> = fired.iter().map(|a| a.source.as_str()).collect();
        assert!(sources.contains(&"Retry budget tuning"), "{sources:?}");
        assert!(
            sources.contains(&"Endorsement policy relaxation"),
            "{sources:?}"
        );
        let budget = fired
            .iter()
            .find(|a| a.source == "Retry budget tuning")
            .unwrap();
        assert_eq!(retry_patch(budget).max_attempts, Some(6));
    }

    #[test]
    fn doubled_retry_budget_saturates_at_the_cap() {
        let report = report_with(
            100,
            Degradation {
                retry_exhausted: 5,
                ..Degradation::default()
            },
        );
        let config = NetworkConfig::default();
        for (attempts, doubled) in [
            (MAX_RETRY_ATTEMPTS / 2 - 1, Some(MAX_RETRY_ATTEMPTS - 2)),
            (MAX_RETRY_ATTEMPTS / 2 + 1, Some(MAX_RETRY_ATTEMPTS)),
            // At or past the cap, doubling changes nothing: no action.
            (MAX_RETRY_ATTEMPTS, None),
            (usize::MAX, None),
        ] {
            let retry = RetryPolicy {
                endorse_timeout: Some(0.5),
                max_attempts: attempts,
                ..RetryPolicy::default()
            };
            let ctx = ResilienceCtx {
                report: &report,
                retry: &retry,
                config: &config,
            };
            let fired = ResilienceRuleSet::paper().evaluate(&ctx);
            let budget = fired
                .iter()
                .find(|a| a.source == "Retry budget tuning")
                .map(|planned| retry_patch(planned).max_attempts);
            assert_eq!(budget, doubled.map(Some), "{attempts}");
        }
        // A spec tuned up to the cap still validates.
        let mut spec = workload::ScenarioSpec::builtin("scm").unwrap();
        spec.retry.endorse_timeout = Some(0.5);
        spec.retry.max_attempts = MAX_RETRY_ATTEMPTS - 1;
        let ctx = ResilienceCtx {
            report: &report,
            retry: &spec.retry,
            config: &spec.network,
        };
        for planned in ResilienceRuleSet::paper().evaluate(&ctx) {
            planned
                .action
                .apply_to_spec(&spec)
                .expect("resilience actions always apply")
                .validate()
                .unwrap();
        }
    }

    #[test]
    fn timeout_storm_widens_backoff() {
        let report = report_with(
            100,
            Degradation {
                retries: 60,
                timeouts: 80,
                ..Degradation::default()
            },
        );
        let retry = RetryPolicy {
            endorse_timeout: Some(1.0),
            max_attempts: 8,
            backoff_base: 0.05,
            backoff_multiplier: 1.0,
            jitter: 0.0,
        };
        let config = NetworkConfig::default();
        let ctx = ResilienceCtx {
            report: &report,
            retry: &retry,
            config: &config,
        };
        let fired = ResilienceRuleSet::paper().evaluate(&ctx);
        let widen = fired
            .iter()
            .find(|a| a.source == "Backoff widening")
            .expect("storm detected");
        let change = retry_patch(widen);
        assert!(change.backoff_base.unwrap() >= 0.5, "{change:?}");
        assert_eq!(change.backoff_multiplier, Some(2.0));
    }

    #[test]
    fn sustained_outage_window_relaxes_policy_only_above_one_endorser() {
        let deg = Degradation {
            windows: vec![FaultWindowStats {
                label: "outage org1 0.50s+1.50s".to_string(),
                submitted: 40,
                successes: 4,
                success_rate_pct: 10.0,
                avg_latency_s: 2.0,
            }],
            ..Degradation::default()
        };
        let report = report_with(100, deg);
        let retry = RetryPolicy::default();
        let config = NetworkConfig::default();
        let ctx = ResilienceCtx {
            report: &report,
            retry: &retry,
            config: &config,
        };
        let fired = ResilienceRuleSet::paper().evaluate(&ctx);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].source, "Endorsement policy relaxation");

        // With a single-endorser policy there is nothing left to relax.
        let weak = NetworkConfig {
            endorsement_policy: fabric_sim::policy::EndorsementPolicy::out_of(1, 2),
            ..NetworkConfig::default()
        };
        let ctx = ResilienceCtx {
            report: &report,
            retry: &retry,
            config: &weak,
        };
        assert!(ResilienceRuleSet::paper().evaluate(&ctx).is_empty());
    }
}

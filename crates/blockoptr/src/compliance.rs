//! Compliance checking.
//!
//! The paper stresses that BlockOptR is not just a detector but a verifier:
//! "Our approach can also verify compliance with the new process model"
//! (§1) and "The compliance with such measures can also be checked by
//! BlockOptR" (§7, on endorser-assignment measures). This module compares
//! the analysis of a log taken *before* an optimization was rolled out with
//! one taken *after*:
//!
//! * which recommendations were resolved, persist, or newly appeared;
//! * whether the endorsement load actually rebalanced;
//! * whether the mined process model changed (footprint agreement);
//! * the headline outcome deltas (success rate, failure counts).

use crate::session::Analysis;
use process_mining::footprint::Footprint;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Outcome of comparing a before/after analysis pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComplianceReport {
    /// Recommendations that fired before and no longer fire.
    pub resolved: Vec<String>,
    /// Recommendations still firing after the rollout.
    pub persisting: Vec<String>,
    /// Recommendations that only appeared after the rollout.
    pub new_findings: Vec<String>,
    /// Highest per-organization endorsement share, before → after.
    pub max_endorser_share: (f64, f64),
    /// Highest per-organization invocation share, before → after.
    pub max_invoker_share: (f64, f64),
    /// Footprint agreement between the before/after process models
    /// (1.0 = behaviourally identical — i.e. a *workload-level* redesign
    /// should move this away from 1, a pure config change should not).
    pub model_agreement: f64,
    /// Success rate (% of committed), before → after.
    pub success_rate: (f64, f64),
    /// Read-conflict counts (MVCC + phantom), before → after.
    pub read_conflicts: (usize, usize),
}

impl ComplianceReport {
    /// Whether the rollout resolved at least one recommendation without
    /// introducing new ones.
    pub fn improved(&self) -> bool {
        !self.resolved.is_empty() && self.new_findings.is_empty()
    }
}

impl fmt::Display for ComplianceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "── compliance check ──")?;
        writeln!(
            f,
            "resolved      : {}",
            if self.resolved.is_empty() {
                "(none)".to_string()
            } else {
                self.resolved.join(", ")
            }
        )?;
        writeln!(
            f,
            "persisting    : {}",
            if self.persisting.is_empty() {
                "(none)".to_string()
            } else {
                self.persisting.join(", ")
            }
        )?;
        if !self.new_findings.is_empty() {
            writeln!(f, "new findings  : {}", self.new_findings.join(", "))?;
        }
        writeln!(
            f,
            "success rate  : {:.1} % → {:.1} %",
            self.success_rate.0, self.success_rate.1
        )?;
        writeln!(
            f,
            "read conflicts: {} → {}",
            self.read_conflicts.0, self.read_conflicts.1
        )?;
        writeln!(
            f,
            "endorser max share: {:.0} % → {:.0} %; invoker max share: {:.0} % → {:.0} %",
            self.max_endorser_share.0 * 100.0,
            self.max_endorser_share.1 * 100.0,
            self.max_invoker_share.0 * 100.0,
            self.max_invoker_share.1 * 100.0
        )?;
        writeln!(f, "process-model agreement: {:.2}", self.model_agreement)
    }
}

fn top_share(shares: &[(String, f64)]) -> f64 {
    shares.first().map(|(_, s)| *s).unwrap_or(0.0)
}

fn success_rate(analysis: &Analysis) -> f64 {
    let total = analysis.log.len();
    if total == 0 {
        return 0.0;
    }
    let failed = analysis.log.failures().count();
    (total - failed) as f64 / total as f64 * 100.0
}

/// Compare a pre-rollout analysis with a post-rollout one.
pub fn verify_rollout(before: &Analysis, after: &Analysis) -> ComplianceReport {
    let before_names: BTreeSet<&str> = before.recommendations.iter().map(|r| r.name()).collect();
    let after_names: BTreeSet<&str> = after.recommendations.iter().map(|r| r.name()).collect();

    let model_agreement =
        Footprint::from_log(&before.event_log).agreement(&Footprint::from_log(&after.event_log));

    ComplianceReport {
        resolved: before_names
            .difference(&after_names)
            .map(|s| s.to_string())
            .collect(),
        persisting: before_names
            .intersection(&after_names)
            .map(|s| s.to_string())
            .collect(),
        new_findings: after_names
            .difference(&before_names)
            .map(|s| s.to_string())
            .collect(),
        max_endorser_share: (
            top_share(&before.metrics.endorsers.org_shares()),
            top_share(&after.metrics.endorsers.org_shares()),
        ),
        max_invoker_share: (
            top_share(&before.metrics.invokers.org_shares()),
            top_share(&after.metrics.invokers.org_shares()),
        ),
        model_agreement,
        success_rate: (success_rate(before), success_rate(after)),
        read_conflicts: (
            before.metrics.correlation.read_conflicts,
            after.metrics.correlation.read_conflicts,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Analyzer;
    use fabric_sim::policy::EndorsementPolicy;
    use workload::spec::{ControlVariables, PolicyChoice};

    fn analyze_with(
        cv: &ControlVariables,
        tweak: impl Fn(&mut fabric_sim::config::NetworkConfig),
    ) -> Analysis {
        let bundle = workload::synthetic::generate(cv);
        let mut cfg = cv.network_config();
        tweak(&mut cfg);
        let out = bundle.run(cfg);
        Analyzer::new().analyze_ledger(&out.ledger).unwrap()
    }

    #[test]
    fn endorser_restructuring_rollout_verifies() {
        let cv = ControlVariables {
            policy: PolicyChoice::P1,
            transactions: 4_000,
            ..Default::default()
        };
        let before = analyze_with(&cv, |_| {});
        let after = analyze_with(&cv, |cfg| {
            cfg.endorsement_policy = EndorsementPolicy::p4();
        });
        let report = verify_rollout(&before, &after);
        assert!(
            report
                .resolved
                .contains(&"Endorser restructuring".to_string()),
            "{report}"
        );
        assert!(
            report.max_endorser_share.1 < report.max_endorser_share.0,
            "load actually rebalanced: {:?}",
            report.max_endorser_share
        );
        assert!(report.success_rate.1 >= report.success_rate.0 - 1.0);
    }

    #[test]
    fn unchanged_config_resolves_nothing() {
        let cv = ControlVariables {
            transactions: 3_000,
            ..Default::default()
        };
        let before = analyze_with(&cv, |_| {});
        let after = analyze_with(&cv, |_| {});
        let report = verify_rollout(&before, &after);
        assert!(report.resolved.is_empty());
        assert!(report.new_findings.is_empty());
        assert!(
            (report.model_agreement - 1.0).abs() < 1e-9,
            "identical run, identical model"
        );
        assert!(!report.improved());
    }

    #[test]
    fn report_renders() {
        let cv = ControlVariables {
            transactions: 2_000,
            ..Default::default()
        };
        let a = analyze_with(&cv, |_| {});
        let report = verify_rollout(&a, &a);
        let text = report.to_string();
        assert!(text.contains("compliance check"));
        assert!(text.contains("success rate"));
        assert!(text.contains("process-model agreement"));
    }
}

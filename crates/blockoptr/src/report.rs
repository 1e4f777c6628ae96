//! The analyst-facing report.
//!
//! Renders an [`Analysis`] the way BlockOptR presents results: a log
//! summary, the key metrics, and the recommendations grouped by abstraction
//! level with their evidence.

use crate::plan::{MeasuredReport, MetricStats, OptimizationPlan, PlanOutcome};
use crate::recommend::Level;
use crate::session::Analysis;
use std::fmt::Write as _;
use workload::ScenarioSpec;

/// Render the full text report.
pub fn render(analysis: &Analysis) -> String {
    let mut out = String::new();
    let log = &analysis.log;
    let m = &analysis.metrics;

    let _ = writeln!(out, "══ BlockOptR analysis ══");
    let _ = writeln!(
        out,
        "log: {} transactions in {} blocks over {:.1} s (Bsizeavg {:.1})",
        log.len(),
        log.block_count(),
        log.window_secs(),
        log.avg_block_size()
    );
    let _ = writeln!(
        out,
        "rates: Tr {:.1} tx/s, TFr {:.1} tx/s ({:.1} % failures)",
        m.rates.tr,
        m.rates.tfr,
        m.rates.failure_fraction() * 100.0
    );
    let _ = writeln!(
        out,
        "failures: {} MVCC ({} reorderable pairs, mean corP {:.0}), {} phantom, {} endorsement",
        m.rates.mvcc,
        m.correlation.reorderable,
        m.correlation.mean_distance,
        m.rates.phantom,
        m.rates.endorsement
    );
    if m.keys.has_hotkeys() {
        let _ = writeln!(
            out,
            "hotkeys ({}): {}",
            m.keys.hotkeys.len(),
            m.keys
                .hotkeys
                .iter()
                .take(5)
                .map(|k| format!(
                    "{k} (Kfreq {}, Ksig {})",
                    m.keys.kfreq_of(k),
                    m.keys.ksig(k)
                ))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    let _ = writeln!(
        out,
        "cases: family {:?}, {:.0} % coverage, {} cases; model: {} activities, {} edges",
        analysis.case_derivation.family,
        analysis.case_derivation.coverage * 100.0,
        analysis.case_derivation.distinct_cases,
        analysis.model.activity_counts.len(),
        analysis.model.edge_count()
    );

    let _ = writeln!(out, "── recommendations ──");
    if analysis.recommendations.is_empty() {
        let _ = writeln!(out, "(none — the system looks healthy)");
    }
    for level in [Level::User, Level::Data, Level::System] {
        let of_level: Vec<_> = analysis
            .recommendations
            .iter()
            .filter(|r| r.level() == level)
            .collect();
        if of_level.is_empty() {
            continue;
        }
        let _ = writeln!(out, "[{level} level]");
        for rec in of_level {
            let _ = writeln!(out, "  • {}: {}", rec.name(), rec.rationale());
        }
    }
    out
}

/// Render a plan before execution (the `optimize --dry-run` view). With a
/// `spec`, an action is annotated as manual (paper §7) exactly when
/// [`Action::apply_to_spec`](crate::action::Action::apply_to_spec) cannot
/// apply it — the rule the plan grid uses.
pub fn render_plan(plan: &OptimizationPlan, spec: Option<&ScenarioSpec>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "── optimization plan ({} actions) ──", plan.len());
    if plan.is_empty() {
        let _ = writeln!(
            out,
            "(nothing to do — no recommendation lowers to an action)"
        );
    }
    for planned in &plan.actions {
        let manual = match spec {
            Some(spec) if planned.action.apply_to_spec(spec).is_none() => {
                " [manual: no prepared contract variant]"
            }
            _ => "",
        };
        let _ = writeln!(
            out,
            "  • [{}] {}{manual}",
            planned.source,
            planned.action.describe()
        );
    }
    out
}

/// `mean` or `mean ± stddev`, depending on whether more than one seed ran.
fn pm(stats: &MetricStats, multi: bool, decimals: usize) -> String {
    if multi {
        format!("{:.p$} ± {:.p$}", stats.mean, stats.stddev, p = decimals)
    } else {
        format!("{:.p$}", stats.mean, p = decimals)
    }
}

/// The Submit→Commit event-time latency percentiles, `p50 a / p95 b / p99 c`
/// (seed means).
fn percentile_block(measured: &MeasuredReport) -> String {
    format!(
        "p50 {:.2} / p95 {:.2} / p99 {:.2}",
        measured.latency_p50.mean, measured.latency_p95.mean, measured.latency_p99.mean
    )
}

/// The degradation section of one (primary-seed) report: aggregate retry /
/// timeout counters and the per-fault-window success rates.
fn degradation_block(deg: &fabric_sim::report::Degradation, label: &str) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{label} degradation: {} retries, {} timeouts, {} exhausted, \
         {} dropped proposals, {} dropped endorsements, {} degraded successes",
        deg.retries,
        deg.timeouts,
        deg.retry_exhausted,
        deg.dropped_proposals,
        deg.dropped_endorsements,
        deg.degraded_success,
    );
    for w in &deg.windows {
        let _ = write!(
            out,
            "\n  window [{}]: {}/{} ok ({:.1} %) avg latency {:.3} s",
            w.label, w.successes, w.submitted, w.success_rate_pct, w.avg_latency_s
        );
    }
    out
}

fn outcome_line(measured: &MeasuredReport, baseline: Option<&MeasuredReport>) -> String {
    let multi = measured.seeds() > 1;
    match baseline {
        Some(base) => format!(
            "success {} % ({:+.1} pts), {} tx/s ({:+.1}), latency {} s ({:+.2}, {})",
            pm(&measured.success_rate, multi, 1),
            measured.success_rate.mean - base.success_rate.mean,
            pm(&measured.throughput, multi, 1),
            measured.throughput.mean - base.throughput.mean,
            pm(&measured.latency, multi, 2),
            measured.latency.mean - base.latency.mean,
            percentile_block(measured),
        ),
        None => format!(
            "success {} %, {} tx/s, latency {} s ({})",
            pm(&measured.success_rate, multi, 1),
            pm(&measured.throughput, multi, 1),
            pm(&measured.latency, multi, 2),
            percentile_block(measured),
        ),
    }
}

/// Render an executed plan: the baseline, one before/after row per action,
/// and the combined run (the paper's Table 4 → Figures 13–17 loop). With
/// more than one seed, every metric reads `mean ± stddev` and per-action
/// deltas carry their seed-paired 95 % confidence half-width.
pub fn render_outcome(outcome: &PlanOutcome) -> String {
    let multi = outcome.seeds.len() > 1;
    let mut out = String::new();
    let _ = writeln!(out, "══ optimization outcome ══");
    if multi {
        let _ = writeln!(
            out,
            "({} seeds per configuration: metrics are mean ± stddev, deltas mean ± Student-t 95 % CI)",
            outcome.seeds.len()
        );
    }
    let _ = writeln!(out, "baseline: {}", outcome_line(&outcome.baseline, None));
    let base_deg = &outcome.baseline.primary().degradation;
    if !base_deg.is_trivial() {
        let _ = writeln!(out, "{}", degradation_block(base_deg, "baseline"));
    }
    let _ = writeln!(out, "── per action (each applied alone) ──");
    if outcome.actions.is_empty() {
        let _ = writeln!(out, "(no actions)");
    }
    for action in &outcome.actions {
        let _ = writeln!(out, "  • [{}] {}", action.source, action.action.describe());
        match action.measured() {
            Some(measured) => {
                let _ = writeln!(
                    out,
                    "      {}",
                    outcome_line(measured, Some(&outcome.baseline))
                );
                let deg = &measured.primary().degradation;
                if !deg.is_trivial() || !base_deg.is_trivial() {
                    let _ = writeln!(
                        out,
                        "      resilience: retries {} → {}, timeouts {} → {}, exhausted {} → {}",
                        base_deg.retries,
                        deg.retries,
                        base_deg.timeouts,
                        deg.timeouts,
                        base_deg.retry_exhausted,
                        deg.retry_exhausted,
                    );
                }
                if multi {
                    if let Some(delta) = action.success_rate_delta_stats(&outcome.baseline) {
                        let _ = writeln!(
                            out,
                            "      Δ success rate {:+.1} ± {:.1} pts over {} seeds",
                            delta.mean,
                            delta.ci95,
                            outcome.seeds.len()
                        );
                    }
                }
            }
            None => {
                let _ = writeln!(
                    out,
                    "      manual implementation required (no prepared contract variant, §7)"
                );
            }
        }
    }
    if let Some(combined) = &outcome.combined {
        let _ = writeln!(out, "── all applicable actions combined ──");
        let _ = writeln!(out, "{}", outcome_line(combined, Some(&outcome.baseline)));
    }
    let _ = writeln!(
        out,
        "optimized spec available ({} transform(s), {} variant(s)) — \
         export with --emit-spec or read it from the JSON outcome",
        outcome.optimized_spec.transforms.len(),
        outcome.optimized_spec.variants.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Analyzer;
    use workload::spec::ControlVariables;

    /// The one-shot analysis of a 2 000-transaction synthetic run.
    fn synthetic_analysis() -> Analysis {
        let cv = ControlVariables {
            transactions: 2_000,
            ..Default::default()
        };
        let output = workload::synthetic::generate(&cv).run(cv.network_config());
        Analyzer::new().analyze_ledger(&output.ledger).unwrap()
    }

    #[test]
    fn report_renders_all_sections() {
        let analysis = synthetic_analysis();
        let text = render(&analysis);
        assert!(text.contains("BlockOptR analysis"));
        assert!(text.contains("rates: Tr"));
        assert!(text.contains("recommendations"));
        assert!(text.contains("cases: family"));
    }

    #[test]
    fn plan_and_outcome_render_all_sections() {
        use crate::plan::OptimizationPlan;
        use crate::recommend::Recommendation;

        let spec = ScenarioSpec::builtin("scm")
            .unwrap()
            .with_transactions(2_000);
        let plan = OptimizationPlan::from_recommendations(&[
            Recommendation::TransactionRateControl {
                intervals: vec![0],
                peak_rate: 300.0,
                suggested_rate: 100.0,
            },
            // SCM ships no delta-writes rewrite → rendered as manual.
            Recommendation::DeltaWrites {
                activities: vec![("x".into(), 5)],
            },
        ]);
        let dry = render_plan(&plan, Some(&spec));
        assert!(dry.contains("optimization plan (2 actions)"), "{dry}");
        assert!(dry.contains("rate control"));
        assert!(
            dry.contains("[manual: no prepared contract variant]"),
            "{dry}"
        );

        let outcome = plan
            .execute_spec_with(&spec, &crate::plan::PlanConfig::default())
            .unwrap();
        let text = render_outcome(&outcome);
        assert!(text.contains("baseline"), "{text}");
        assert!(
            text.contains("p50") && text.contains("p95") && text.contains("p99"),
            "event-time latency percentiles rendered: {text}"
        );
        assert!(text.contains("rate control"));
        assert!(text.contains("pts"), "per-action deltas rendered: {text}");
        assert!(text.contains("manual implementation required"), "{text}");
        assert!(text.contains("combined"), "{text}");

        let empty = render_plan(&OptimizationPlan::default(), None);
        assert!(empty.contains("nothing to do"));
    }

    #[test]
    fn empty_analysis_renders_healthy() {
        let mut analysis = synthetic_analysis();
        analysis.recommendations.clear();
        let text = render(&analysis);
        assert!(text.contains("none — the system looks healthy"));
    }
}

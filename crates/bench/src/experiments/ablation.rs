//! Ablation studies beyond the paper's figures.
//!
//! * [`abl1`] — **workload fluctuation / stale recommendations**: §7 notes
//!   that "in scenarios where the workload fluctuates or the optimization
//!   implementation is delayed, BlockOptR may need to be re-executed"; this
//!   experiment quantifies it.
//! * [`abl2`] — **resource-profile sensitivity**: how the calibrated
//!   bottleneck structure (clients / endorsers / orderer / validator) shifts
//!   as each stage's service time scales — how far the reproduced findings
//!   depend on the simulator's calibration.
//! * [`abl3`] — **threshold sensitivity**: how the recommendation set reacts
//!   to the user-configurable thresholds (`Kt`, `reorder_share`, `Rt1`),
//!   the paper's §4.4 tuning discussion.

use super::{run, run_and_analyze, synthetic_spec, ExpCtx};
use crate::table::FigureTable;
use blockoptr::metrics::MetricConfig;
use blockoptr::plan::OptimizationPlan;
use blockoptr::recommend::Thresholds;
use blockoptr::session::Analyzer;
use std::fmt::Write as _;
use workload::spec::ControlVariables;
use workload::ScenarioSpec;

/// Ablation 1: apply recommendations derived from one traffic regime to a
/// fluctuated workload, versus re-running BlockOptR on the new regime.
pub fn abl1(ctx: &ExpCtx) -> String {
    let mut t =
        FigureTable::new("Ablation 1: stale recommendations under workload fluctuation (§7)");
    let n = ctx.txs(8_000);

    // Regime A: calm traffic (50 tps) — BlockOptR sees a healthy system
    // and recommends little.
    let cv_a = ControlVariables {
        send_rate: 50.0,
        key_skew: 2.0,
        transactions: n,
        ..Default::default()
    };
    let (_, analysis_a) = run_and_analyze(&synthetic_spec(&cv_a));

    // Regime B: the workload surges to 700 tps (different seed too).
    let cv_b = ControlVariables {
        send_rate: 700.0,
        key_skew: 2.0,
        seed: 77,
        transactions: n,
        ..Default::default()
    };
    let spec_b = synthetic_spec(&cv_b);
    let (wo_b, analysis_b) = run_and_analyze(&spec_b);
    t.add("surged to 700 tps", "W/O", &wo_b);

    // Stale: calm-regime recommendations applied to the surge.
    let (stale, _) = OptimizationPlan::from_analysis(&analysis_a).apply_to_spec(&spec_b);
    t.add(
        "surged to 700 tps",
        "stale recs (from 50 tps)",
        &run(&stale).report,
    );

    // Fresh: re-run BlockOptR on the surge and apply its recommendations.
    let (fresh, _) = OptimizationPlan::from_analysis(&analysis_b).apply_to_spec(&spec_b);
    t.add(
        "surged to 700 tps",
        "fresh recs (re-run)",
        &run(&fresh).report,
    );

    let mut out = t.render();
    let _ = writeln!(
        out,
        "stale recommendations: {:?}\nfresh recommendations: {:?}",
        analysis_a.recommendation_names(),
        analysis_b.recommendation_names()
    );
    out
}

/// Ablation 2: scale one stage's service time at a time and watch the
/// bottleneck move.
pub fn abl2(ctx: &ExpCtx) -> String {
    let cv = ControlVariables {
        transactions: ctx.txs(6_000),
        ..Default::default()
    };
    let bundle = workload::synthetic::generate(&cv);

    let mut out =
        String::from("\n=== Ablation 2: resource-profile sensitivity (bottleneck structure) ===\n");
    let _ = writeln!(
        out,
        "{:<28} {:>10} {:>9} {:>8} {:>8} {:>8} {:>8}",
        "profile", "tput (tps)", "lat (s)", "cli%", "end%", "ord%", "val%"
    );
    out.push_str(&"-".repeat(88));
    out.push('\n');

    type Tweak = fn(&mut fabric_sim::config::ResourceProfile, f64);
    let stages: [(&str, Tweak); 4] = [
        ("client_per_tx", |r, f| {
            r.client_per_tx = r.client_per_tx.mul_f64(f)
        }),
        ("endorse_exec_base", |r, f| {
            r.endorse_exec_base = r.endorse_exec_base.mul_f64(f)
        }),
        ("order_block_fixed", |r, f| {
            r.order_block_fixed = r.order_block_fixed.mul_f64(f)
        }),
        ("validate_per_tx", |r, f| {
            r.validate_per_tx = r.validate_per_tx.mul_f64(f)
        }),
    ];

    let baseline = bundle.run(cv.network_config()).report;
    let _ = writeln!(
        out,
        "{:<28} {:>10.1} {:>9.2} {:>8.0} {:>8.0} {:>8.0} {:>8.0}",
        "baseline",
        baseline.success_throughput,
        baseline.avg_latency_s,
        baseline.client_utilization * 100.0,
        baseline.endorser_utilization * 100.0,
        baseline.orderer_utilization * 100.0,
        baseline.validator_utilization * 100.0
    );
    for (name, tweak) in stages {
        for factor in [0.5, 2.0] {
            let mut cfg = cv.network_config();
            tweak(&mut cfg.resources, factor);
            let r = bundle.run(cfg).report;
            let _ = writeln!(
                out,
                "{:<28} {:>10.1} {:>9.2} {:>8.0} {:>8.0} {:>8.0} {:>8.0}",
                format!("{name} ×{factor}"),
                r.success_throughput,
                r.avg_latency_s,
                r.client_utilization * 100.0,
                r.endorser_utilization * 100.0,
                r.orderer_utilization * 100.0,
                r.validator_utilization * 100.0
            );
        }
    }
    out
}

/// Ablation 3: the recommendation set as a function of the detection
/// thresholds, on the DRM workload (the richest recommendation mix).
pub fn abl3(ctx: &ExpCtx) -> String {
    let spec = ScenarioSpec::builtin("drm")
        .expect("drm is a built-in")
        .with_transactions(ctx.txs(8_000));
    let output = run(&spec);

    let mut out = String::from(
        "\n=== Ablation 3: threshold sensitivity of the recommendation set (DRM) ===\n",
    );
    let _ = writeln!(out, "{:<44} recommendations", "thresholds");
    out.push_str(&"-".repeat(120));
    out.push('\n');

    let cases: Vec<(String, MetricConfig, Thresholds)> = vec![
        (
            "defaults (Kt=0.05, reorder=0.4, Rt1=300)".into(),
            MetricConfig::default(),
            Thresholds::default(),
        ),
        (
            "hotkeys stricter (Kt=0.15)".into(),
            MetricConfig {
                hotkey_share: 0.15,
                ..Default::default()
            },
            Thresholds::default(),
        ),
        (
            "hotkeys looser (Kt=0.02)".into(),
            MetricConfig {
                hotkey_share: 0.02,
                ..Default::default()
            },
            Thresholds::default(),
        ),
        (
            "reordering stricter (share=0.8)".into(),
            MetricConfig::default(),
            Thresholds {
                reorder_share: 0.8,
                ..Default::default()
            },
        ),
        (
            "rate control stricter (Rt1=600)".into(),
            MetricConfig::default(),
            Thresholds {
                rt1: 600.0,
                ..Default::default()
            },
        ),
        (
            "rate control looser (Rt1=100, Rt2=0.1)".into(),
            MetricConfig::default(),
            Thresholds {
                rt1: 100.0,
                rt2: 0.1,
                ..Default::default()
            },
        ),
    ];
    for (label, metric_config, thresholds) in cases {
        let analysis = Analyzer::new()
            .metric_config(metric_config)
            .thresholds(thresholds)
            .analyze_ledger(&output.ledger)
            .expect("the DRM run commits transactions");
        let _ = writeln!(
            out,
            "{:<44} {}",
            label,
            analysis.recommendation_names().join(", ")
        );
    }
    out
}

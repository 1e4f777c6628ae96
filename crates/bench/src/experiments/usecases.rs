//! Figures 13–17: the use-case experiments (§6.2–6.3).
//!
//! Each figure **declares its configuration as a [`ScenarioSpec`]** — the
//! serializable workload description the rest of the system runs on — and
//! executes one [`OptimizationPlan`] against it: the analysis's
//! recommendations are lowered to typed actions, each action is applied
//! alone and re-run, then all together — the per-action reports become the
//! figure's rows. Rows the paper mandates (e.g. rate control at 100 tps)
//! are guaranteed by the `ensure` fallback even when the analysis of a
//! scaled-down `--quick` run does not fire the corresponding rule.

use super::{run_and_analyze, throttle_100, ExpCtx};
use crate::table::FigureTable;
use blockoptr::action::Action;
use blockoptr::plan::{OptimizationPlan, PlanConfig, PlanOutcome, PlannedAction};
use workload::{ScenarioSpec, WorkloadSpec};

/// Guarantee the plan carries an action for `source`, appending the given
/// fallback when the analysis did not recommend it.
fn ensure(plan: &mut OptimizationPlan, source: &str, action: Action) {
    if !plan.actions.iter().any(|a| a.source == source) {
        plan.actions.push(PlannedAction {
            source: source.to_string(),
            action,
        });
    }
}

/// The figure row label for a recommendation name.
fn row_label(source: &str) -> &str {
    match source {
        "Transaction rate control" => "rate control",
        "Activity reordering" => "activity reordering",
        "Process model pruning" => "model pruning",
        "Delta writes" => "delta writes",
        "Smart contract partitioning" => "contract partition",
        "Data model alteration" => "data model alteration",
        other => other,
    }
}

/// Render one executed plan as figure rows: W/O, one row per applied
/// action, and (when requested) the combined "all optimizations" row.
fn add_outcome_rows(t: &mut FigureTable, config_label: &str, outcome: &PlanOutcome, all: bool) {
    t.add(config_label, "W/O", outcome.baseline.primary());
    for action in &outcome.actions {
        if let Some(report) = action.report() {
            t.add(config_label, row_label(&action.source), report);
        }
    }
    if all {
        if let Some(combined) = &outcome.combined {
            t.add(config_label, "all optimizations", combined.primary());
        }
    }
}

/// The figure's scenario, declared as a spec: the built-in generator
/// scaled to the context's transaction budget.
fn figure_spec(ctx: &ExpCtx, scenario: &str, full_txs: usize) -> ScenarioSpec {
    ScenarioSpec::builtin(scenario)
        .expect("figure scenarios are built-ins")
        .with_transactions(ctx.txs(full_txs))
}

/// Run one spec-declared use case through the closed loop: build, analyze,
/// select the figure's optimizations, execute.
fn usecase_outcome(
    ctx: &ExpCtx,
    spec: &ScenarioSpec,
    sources: &[&str],
    ensured: &[(&str, Action)],
) -> PlanOutcome {
    let (baseline, analysis) = run_and_analyze(spec);
    let mut plan = OptimizationPlan::from_analysis(&analysis).select(sources);
    for (source, action) in ensured {
        ensure(&mut plan, source, action.clone());
    }
    // The per-action and combined re-runs are independent simulations:
    // fan them out over the context's inner thread budget (the grid
    // runner already parallelizes across experiments, so this avoids
    // nested-pool oversubscription). One seed runs the spec verbatim.
    plan.execute_spec_from_with(spec, baseline, &PlanConfig::new(1, ctx.plan_threads))
        .expect("figure plans apply to their specs")
}

/// Figure 13: SCM — rate control, reordering, pruning, all.
pub fn fig13(ctx: &ExpCtx) -> String {
    let mut t = FigureTable::new("Figure 13: SCM use case");
    let spec = figure_spec(ctx, "scm", 10_000);
    let outcome = usecase_outcome(
        ctx,
        &spec,
        &[
            "Transaction rate control",
            "Activity reordering",
            "Process model pruning",
        ],
        &[
            ("Transaction rate control", throttle_100()),
            (
                "Process model pruning",
                Action::SelectContractVariant(workload::VariantKind::Pruned),
            ),
        ],
    );
    add_outcome_rows(&mut t, "SCM", &outcome, true);
    t.render()
}

/// Figure 14: DRM — delta writes, reordering, partitioning, all.
pub fn fig14(ctx: &ExpCtx) -> String {
    let mut t = FigureTable::new("Figure 14: DRM use case");
    let spec = figure_spec(ctx, "drm", 10_000);
    // The combined run resolves {delta writes, partitioning} through DRM's
    // variant table to the partitioned-delta contract set (Figure 14's
    // "all optimizations").
    let outcome = usecase_outcome(
        ctx,
        &spec,
        &[
            "Delta writes",
            "Activity reordering",
            "Smart contract partitioning",
        ],
        &[
            (
                "Delta writes",
                Action::SelectContractVariant(workload::VariantKind::DeltaWrites),
            ),
            (
                "Smart contract partitioning",
                Action::SelectContractVariant(workload::VariantKind::Partitioned),
            ),
        ],
    );
    add_outcome_rows(&mut t, "DRM", &outcome, true);
    t.render()
}

/// Figure 15: EHR — rate control, reordering, pruning, all.
pub fn fig15(ctx: &ExpCtx) -> String {
    let mut t = FigureTable::new("Figure 15: EHR use case");
    let spec = figure_spec(ctx, "ehr", 10_000);
    let outcome = usecase_outcome(
        ctx,
        &spec,
        &[
            "Transaction rate control",
            "Activity reordering",
            "Process model pruning",
        ],
        &[
            ("Transaction rate control", throttle_100()),
            (
                "Process model pruning",
                Action::SelectContractVariant(workload::VariantKind::Pruned),
            ),
        ],
    );
    add_outcome_rows(&mut t, "EHR", &outcome, true);
    t.render()
}

/// Figure 16: Digital Voting — rate control, data-model alteration, all.
pub fn fig16(ctx: &ExpCtx) -> String {
    let mut t = FigureTable::new("Figure 16: Digital Voting use case");
    // The paper's phased 1 000-query / 5 000-vote schedule, scaled.
    let spec = figure_spec(ctx, "dv", 6_000);
    let outcome = usecase_outcome(
        ctx,
        &spec,
        &["Transaction rate control", "Data model alteration"],
        &[
            ("Transaction rate control", throttle_100()),
            (
                "Data model alteration",
                Action::SelectContractVariant(workload::VariantKind::Rekeyed),
            ),
        ],
    );
    add_outcome_rows(&mut t, "DV", &outcome, true);
    t.render()
}

/// Figure 17: LAP at 10 tps and 300 tps.
pub fn fig17(ctx: &ExpCtx) -> String {
    let mut t = FigureTable::new("Figure 17: Loan Application Process use case");
    // ~10 events per application: 2 000 applications ≈ 20 000 events.
    let with_rate = |rate: f64| {
        let mut spec = figure_spec(ctx, "lap", 20_000);
        if let WorkloadSpec::Lap(s) = &mut spec.workload {
            s.send_rate = rate;
        }
        spec
    };

    // Manual processing: 10 tps — only the data-model alteration row.
    let outcome = usecase_outcome(
        ctx,
        &with_rate(10.0),
        &["Data model alteration"],
        &[(
            "Data model alteration",
            Action::SelectContractVariant(workload::VariantKind::Rekeyed),
        )],
    );
    add_outcome_rows(&mut t, "Send rate: 10 tps", &outcome, false);

    // Automated processing: 300 tps — alteration, rate control, all.
    let outcome = usecase_outcome(
        ctx,
        &with_rate(300.0),
        &["Data model alteration", "Transaction rate control"],
        &[
            (
                "Data model alteration",
                Action::SelectContractVariant(workload::VariantKind::Rekeyed),
            ),
            ("Transaction rate control", throttle_100()),
        ],
    );
    add_outcome_rows(&mut t, "Send rate: 300 tps", &outcome, true);
    t.render()
}

//! Figures 18–19: BlockOptR on top of the FabricSharp and Fabric++
//! baselines (§6.4) — the paper's demonstration that higher-level
//! recommendations still pay off on system-optimized Fabrics.

use super::{run, run_and_analyze, synthetic_spec, throttled_100, with_recommendations, ExpCtx};
use crate::table::FigureTable;
use blockoptr::plan::OptimizationPlan;
use fabric_sim::config::SchedulerKind;
use workload::spec::{ControlVariables, PolicyChoice, WorkloadType};
use workload::ScenarioSpec;

/// The user-level recommendations (paper Figure 1): the client-side
/// changes Figure 19 layers on Fabric++.
const USER_LEVEL: [&str; 3] = [
    "Activity reordering",
    "Transaction rate control",
    "Process model pruning",
];

/// A synthetic configuration's spec on the given transaction scheduler.
fn scheduled_spec(cv: &ControlVariables, scheduler: SchedulerKind) -> ScenarioSpec {
    let mut spec = synthetic_spec(cv);
    spec.network = spec.network.with_scheduler(scheduler);
    spec
}

/// Figure 18: FabricSharp under P1, P2+skew, and insert-heavy workloads.
pub fn fig18(ctx: &ExpCtx) -> String {
    let mut t = FigureTable::new("Figure 18: synthetic workloads with FabricSharp");
    let n = ctx.txs(10_000);

    // Endorsement-policy experiments: restructuring on top of FabricSharp.
    for cv in [
        ControlVariables {
            policy: PolicyChoice::P1,
            transactions: n,
            ..Default::default()
        },
        ControlVariables {
            policy: PolicyChoice::P2,
            endorser_skew: 6.0,
            transactions: n,
            ..Default::default()
        },
    ] {
        let spec = scheduled_spec(&cv, SchedulerKind::FabricSharp);
        let (wo, analysis) = run_and_analyze(&spec);
        t.add(&format!("fabricsharp / {}", cv.label()), "W/O", &wo);
        let restructured = with_recommendations(&spec, &analysis, &["Endorser restructuring"]);
        t.add(
            &format!("fabricsharp / {}", cv.label()),
            "endorser restructuring",
            &run(&restructured).report,
        );
    }

    // Insert-heavy (FabricSharp's documented weak spot): rate control.
    let cv = ControlVariables {
        workload: WorkloadType::InsertHeavy,
        transactions: n,
        ..Default::default()
    };
    let spec = scheduled_spec(&cv, SchedulerKind::FabricSharp);
    t.add(
        "fabricsharp / Workload: Insert-heavy",
        "W/O",
        &run(&spec).report,
    );
    t.add(
        "fabricsharp / Workload: Insert-heavy",
        "rate control",
        &run(&throttled_100(&spec)).report,
    );
    t.render()
}

/// Figure 19: Fabric++ under its weak workloads (update-, read- and
/// range-read-heavy), with rate control, reordering, and both.
pub fn fig19(ctx: &ExpCtx) -> String {
    let mut t = FigureTable::new("Figure 19: synthetic workloads with Fabric++");
    let n = ctx.txs(10_000);
    for workload_type in [
        WorkloadType::UpdateHeavy,
        WorkloadType::ReadHeavy,
        WorkloadType::RangeReadHeavy,
    ] {
        let cv = ControlVariables {
            workload: workload_type,
            transactions: n,
            ..Default::default()
        };
        let spec = scheduled_spec(&cv, SchedulerKind::FabricPlusPlus);
        let label = format!("fabric++ / {}", cv.label());
        let (wo, analysis) = run_and_analyze(&spec);
        t.add(&label, "W/O", &wo);
        t.add(&label, "rate control", &run(&throttled_100(&spec)).report);

        // The row tests the action: a reordering recommendation with no
        // deferrable activity has nothing to apply.
        let reordering =
            OptimizationPlan::from_analysis(&analysis).select(&["Activity reordering"]);
        if reordering.is_empty() {
            t.add(&label, "reordering (n/a)", &wo);
        } else {
            let (reordered, _) = reordering.apply_to_spec(&spec);
            t.add(&label, "activity reordering", &run(&reordered).report);
        }

        // Every user-level recommendation, then Table 4's 100 tps.
        let all = throttled_100(&with_recommendations(&spec, &analysis, &USER_LEVEL));
        t.add(&label, "all optimizations", &run(&all).report);
    }
    t.render()
}

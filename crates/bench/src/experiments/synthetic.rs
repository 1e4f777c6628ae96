//! Table 3 and Figures 7–12: the synthetic-workload experiments.

use super::{run, run_and_analyze, synthetic_spec, throttled_100, with_recommendations, ExpCtx};
use crate::table::FigureTable;
use blockoptr::plan::OptimizationPlan;
use workload::spec::{ControlVariables, PolicyChoice, WorkloadType};

/// The 15 experiments of Table 3 with the recommendations the paper reports.
pub fn experiments_table3(ctx: &ExpCtx) -> Vec<(usize, ControlVariables, &'static str)> {
    let base = ControlVariables {
        transactions: ctx.txs(10_000),
        ..Default::default()
    };
    vec![
        (
            1,
            ControlVariables {
                policy: PolicyChoice::P1,
                ..base.clone()
            },
            "Endorser restructuring, Activity reordering",
        ),
        (
            2,
            ControlVariables {
                policy: PolicyChoice::P2,
                endorser_skew: 6.0,
                ..base.clone()
            },
            "Endorser restructuring, Activity reordering",
        ),
        (
            3,
            ControlVariables {
                orgs: 4,
                ..base.clone()
            },
            "Transaction rate control",
        ),
        (
            4,
            ControlVariables {
                workload: WorkloadType::ReadHeavy,
                ..base.clone()
            },
            "Activity reordering",
        ),
        (
            5,
            ControlVariables {
                workload: WorkloadType::UpdateHeavy,
                ..base.clone()
            },
            "Transaction rate control",
        ),
        (
            6,
            ControlVariables {
                workload: WorkloadType::InsertHeavy,
                ..base.clone()
            },
            "Activity reordering",
        ),
        (
            7,
            ControlVariables {
                workload: WorkloadType::RangeReadHeavy,
                ..base.clone()
            },
            "Activity reordering, Transaction rate control",
        ),
        (
            8,
            ControlVariables {
                key_skew: 2.0,
                ..base.clone()
            },
            "Activity reordering, Smart contract partitioning, Block size adaptation",
        ),
        (
            9,
            ControlVariables {
                block_count: 50,
                ..base.clone()
            },
            "Activity reordering, Transaction rate control",
        ),
        (
            10,
            ControlVariables {
                block_count: 300,
                ..base.clone()
            },
            "Activity reordering, Transaction rate control",
        ),
        (
            11,
            ControlVariables {
                block_count: 1000,
                ..base.clone()
            },
            "Activity reordering",
        ),
        (
            12,
            ControlVariables {
                send_rate: 50.0,
                ..base.clone()
            },
            "Activity reordering",
        ),
        (
            13,
            base.clone(),
            "Activity reordering, Block size adaptation, Transaction rate control",
        ),
        (
            14,
            ControlVariables {
                send_rate: 1000.0,
                ..base.clone()
            },
            "Activity reordering, Transaction rate control",
        ),
        (
            15,
            ControlVariables {
                tx_dist_skew: 0.7,
                ..base
            },
            "Activity reordering, Client resource boost",
        ),
    ]
}

/// Table 3: run all 15 experiments, print derived vs paper recommendations.
pub fn tab3(ctx: &ExpCtx) -> String {
    let mut out =
        String::from("\n=== Table 3: optimizations recommended for the synthetic workloads ===\n");
    out.push_str(&format!(
        "{:<4} {:<42} {:<72} {}\n",
        "#", "control variable", "BlockOptR (this reproduction)", "paper"
    ));
    out.push_str(&"-".repeat(190));
    out.push('\n');
    for (num, cv, paper) in experiments_table3(ctx) {
        let (_, analysis) = run_and_analyze(&synthetic_spec(&cv));
        out.push_str(&format!(
            "{:<4} {:<42} {:<72} {}\n",
            num,
            cv.label(),
            analysis.recommendation_names().join(", "),
            paper
        ));
    }
    out
}

/// Figure 7: endorser restructuring (experiments 1 and 2).
pub fn fig7(ctx: &ExpCtx) -> String {
    let mut t = FigureTable::new("Figure 7: endorser restructuring");
    let configs = vec![
        ControlVariables {
            policy: PolicyChoice::P1,
            transactions: ctx.txs(10_000),
            ..Default::default()
        },
        ControlVariables {
            policy: PolicyChoice::P2,
            endorser_skew: 6.0,
            transactions: ctx.txs(10_000),
            ..Default::default()
        },
    ];
    for cv in configs {
        let spec = synthetic_spec(&cv);
        let (wo, analysis) = run_and_analyze(&spec);
        t.add(&cv.label(), "W/O", &wo);
        let restructured = with_recommendations(&spec, &analysis, &["Endorser restructuring"]);
        t.add(&cv.label(), "W (restructured)", &run(&restructured).report);
    }
    t.render()
}

/// Figure 8: client resource boost (experiment 15).
pub fn fig8(ctx: &ExpCtx) -> String {
    let mut t = FigureTable::new("Figure 8: client resource boost");
    let cv = ControlVariables {
        tx_dist_skew: 0.7,
        transactions: ctx.txs(10_000),
        ..Default::default()
    };
    let spec = synthetic_spec(&cv);
    let (wo, analysis) = run_and_analyze(&spec);
    t.add(&cv.label(), "W/O", &wo);
    let boosted = with_recommendations(&spec, &analysis, &["Client resource boost"]);
    t.add(&cv.label(), "W (boosted clients)", &run(&boosted).report);
    t.render()
}

/// Figure 9: block size adaptation (block counts and high send rates).
pub fn fig9(ctx: &ExpCtx) -> String {
    let mut t = FigureTable::new("Figure 9: block size adaptation");
    let configs = vec![
        ControlVariables {
            block_count: 50,
            transactions: ctx.txs(10_000),
            ..Default::default()
        },
        ControlVariables {
            transactions: ctx.txs(10_000),
            ..Default::default()
        }, // block count 100 (default)
        ControlVariables {
            send_rate: 500.0,
            transactions: ctx.txs(10_000),
            ..Default::default()
        },
        ControlVariables {
            send_rate: 1000.0,
            transactions: ctx.txs(10_000),
            ..Default::default()
        },
    ];
    for cv in configs {
        let spec = synthetic_spec(&cv);
        let (wo, analysis) = run_and_analyze(&spec);
        let label = if cv.label() == "Defaults" {
            "Block count: 100".to_string()
        } else {
            cv.label()
        };
        t.add(&label, "W/O", &wo);
        if !analysis.recommends("Block size adaptation") {
            t.add(&label, "W (no change)", &wo);
            continue;
        }
        let adapted = with_recommendations(&spec, &analysis, &["Block size adaptation"]);
        t.add(&label, "W (adapted)", &run(&adapted).report);
    }
    t.render()
}

/// Figure 10: transaction rate control (eleven configurations).
pub fn fig10(ctx: &ExpCtx) -> String {
    let mut t = FigureTable::new("Figure 10: transaction rate control");
    let n = ctx.txs(10_000);
    let configs = vec![
        ControlVariables {
            transactions: n,
            ..Default::default()
        }, // P3 = default
        ControlVariables {
            orgs: 4,
            transactions: n,
            ..Default::default()
        },
        ControlVariables {
            workload: WorkloadType::UpdateHeavy,
            transactions: n,
            ..Default::default()
        },
        ControlVariables {
            key_skew: 2.0,
            transactions: n,
            ..Default::default()
        },
        ControlVariables {
            block_count: 300,
            transactions: n,
            ..Default::default()
        },
        ControlVariables {
            block_count: 500,
            transactions: n,
            ..Default::default()
        },
        ControlVariables {
            block_count: 1000,
            transactions: n,
            ..Default::default()
        },
        ControlVariables {
            send_rate: 500.0,
            transactions: n,
            ..Default::default()
        },
        ControlVariables {
            send_rate: 1000.0,
            transactions: n,
            ..Default::default()
        },
        ControlVariables {
            tx_dist_skew: 0.7,
            transactions: n,
            ..Default::default()
        },
    ];
    for cv in configs {
        let spec = synthetic_spec(&cv);
        t.add(&cv.label(), "W/O", &run(&spec).report);
        // Table 4: set the send rate to 100 tps.
        t.add(
            &cv.label(),
            "W (rate 100)",
            &run(&throttled_100(&spec)).report,
        );
    }
    t.render()
}

/// Figure 11: activity reordering (thirteen configurations).
pub fn fig11(ctx: &ExpCtx) -> String {
    let mut t = FigureTable::new("Figure 11: activity reordering");
    let n = ctx.txs(10_000);
    let configs = vec![
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
        ControlVariables {
            workload: WorkloadType::ReadHeavy,
            transactions: n,
            ..Default::default()
        },
        ControlVariables {
            workload: WorkloadType::InsertHeavy,
            transactions: n,
            ..Default::default()
        },
        ControlVariables {
            workload: WorkloadType::RangeReadHeavy,
            transactions: n,
            ..Default::default()
        },
        ControlVariables {
            key_skew: 2.0,
            transactions: n,
            ..Default::default()
        },
        ControlVariables {
            block_count: 50,
            transactions: n,
            ..Default::default()
        },
        ControlVariables {
            block_count: 300,
            transactions: n,
            ..Default::default()
        },
        ControlVariables {
            block_count: 1000,
            transactions: n,
            ..Default::default()
        },
        ControlVariables {
            send_rate: 50.0,
            transactions: n,
            ..Default::default()
        },
        ControlVariables {
            transactions: n,
            ..Default::default()
        }, // send 300
        ControlVariables {
            send_rate: 1000.0,
            transactions: n,
            ..Default::default()
        },
        ControlVariables {
            tx_dist_skew: 0.7,
            transactions: n,
            ..Default::default()
        },
    ];
    for cv in configs {
        let spec = synthetic_spec(&cv);
        let (wo, analysis) = run_and_analyze(&spec);
        let label = if cv.label() == "Defaults" {
            "Send rate: 300".to_string()
        } else {
            cv.label()
        };
        t.add(&label, "W/O", &wo);
        // The row tests the recommendation, not its action: a reordering
        // with no deferrable activity still re-runs the unchanged spec.
        if !analysis.recommends("Activity reordering") {
            t.add(&label, "W (not recommended)", &wo);
            continue;
        }
        let reordered = with_recommendations(&spec, &analysis, &["Activity reordering"]);
        t.add(&label, "W (reordered)", &run(&reordered).report);
    }
    t.render()
}

/// Figure 12: every recommended optimization applied together.
pub fn fig12(ctx: &ExpCtx) -> String {
    let mut t = FigureTable::new("Figure 12: all recommended optimizations combined");
    let n = ctx.txs(10_000);
    let configs = vec![
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
        ControlVariables {
            key_skew: 2.0,
            transactions: n,
            ..Default::default()
        },
        ControlVariables {
            block_count: 50,
            transactions: n,
            ..Default::default()
        },
        ControlVariables {
            block_count: 300,
            transactions: n,
            ..Default::default()
        },
        ControlVariables {
            block_count: 1000,
            transactions: n,
            ..Default::default()
        },
        ControlVariables {
            send_rate: 1000.0,
            transactions: n,
            ..Default::default()
        },
        ControlVariables {
            tx_dist_skew: 0.7,
            transactions: n,
            ..Default::default()
        },
    ];
    for cv in configs {
        let spec = synthetic_spec(&cv);
        let (wo, analysis) = run_and_analyze(&spec);
        t.add(&cv.label(), "W/O", &wo);
        let (optimized, _) = OptimizationPlan::from_analysis(&analysis).apply_to_spec(&spec);
        t.add(&cv.label(), "W (all)", &run(&optimized).report);
    }
    t.render()
}

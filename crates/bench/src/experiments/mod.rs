//! Experiment registry: every table and figure of the paper's evaluation.
//!
//! Each experiment is a function from an [`ExpCtx`] (which carries the
//! `--quick` scale factor) to rendered text. The `experiments` binary runs
//! them by id (`fig13`) or all together.

pub mod ablation;
pub mod extensions;
pub mod process;
pub mod synthetic;
pub mod tab4;
pub mod usecases;

use blockoptr::action::Action;
use blockoptr::plan::OptimizationPlan;
use blockoptr::session::{Analysis, Analyzer};
use fabric_sim::report::SimReport;
use fabric_sim::sim::SimOutput;
use workload::spec::ControlVariables;
use workload::{ScenarioSpec, SpecTransform, WorkloadSpec};

/// Execution context for one experiment run.
#[derive(Debug, Clone, Copy)]
pub struct ExpCtx {
    /// Transaction-volume scale in `(0, 1]`; `--quick` uses 0.2.
    pub scale: f64,
    /// Worker threads each experiment may use for its *inner* simulation
    /// fan-out (plan execution). The grid runner divides its thread budget
    /// between the outer per-experiment pool and this, so running many
    /// experiments at once never oversubscribes the machine.
    pub plan_threads: usize,
}

impl Default for ExpCtx {
    fn default() -> Self {
        ExpCtx {
            scale: 1.0,
            plan_threads: sim_core::pool::default_threads(),
        }
    }
}

impl ExpCtx {
    /// Scale a transaction count.
    pub fn txs(&self, full: usize) -> usize {
        ((full as f64 * self.scale) as usize).max(200)
    }
}

/// One registered experiment.
pub struct Experiment {
    /// Identifier (`fig13`, `tab3`, …).
    pub id: &'static str,
    /// The paper artifact it regenerates.
    pub title: &'static str,
    /// Runner.
    pub run: fn(&ExpCtx) -> String,
}

/// The full registry, in paper order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig2",
            title: "Figure 2: derived SCM process model (with anomalous branches)",
            run: process::fig2,
        },
        Experiment {
            id: "fig3",
            title: "Figure 3: transaction dependency conflict example",
            run: process::fig3,
        },
        Experiment {
            id: "fig4",
            title: "Figure 4: SCM process model after activity reordering",
            run: process::fig4,
        },
        Experiment {
            id: "tab3",
            title: "Table 3: recommendations for the synthetic workloads",
            run: synthetic::tab3,
        },
        Experiment {
            id: "tab4",
            title: "Table 4: settings used to implement each optimization",
            run: tab4::tab4,
        },
        Experiment {
            id: "fig7",
            title: "Figure 7: endorser restructuring",
            run: synthetic::fig7,
        },
        Experiment {
            id: "fig8",
            title: "Figure 8: client resource boost",
            run: synthetic::fig8,
        },
        Experiment {
            id: "fig9",
            title: "Figure 9: block size adaptation",
            run: synthetic::fig9,
        },
        Experiment {
            id: "fig10",
            title: "Figure 10: transaction rate control",
            run: synthetic::fig10,
        },
        Experiment {
            id: "fig11",
            title: "Figure 11: activity reordering",
            run: synthetic::fig11,
        },
        Experiment {
            id: "fig12",
            title: "Figure 12: all recommended optimizations combined",
            run: synthetic::fig12,
        },
        Experiment {
            id: "fig13",
            title: "Figure 13: SCM use case",
            run: usecases::fig13,
        },
        Experiment {
            id: "fig14",
            title: "Figure 14: DRM use case",
            run: usecases::fig14,
        },
        Experiment {
            id: "fig15",
            title: "Figure 15: EHR use case",
            run: usecases::fig15,
        },
        Experiment {
            id: "fig16",
            title: "Figure 16: Digital Voting use case",
            run: usecases::fig16,
        },
        Experiment {
            id: "fig17",
            title: "Figure 17: Loan Application Process use case",
            run: usecases::fig17,
        },
        Experiment {
            id: "fig18",
            title: "Figure 18: synthetic workloads with FabricSharp",
            run: extensions::fig18,
        },
        Experiment {
            id: "fig19",
            title: "Figure 19: synthetic workloads with Fabric++",
            run: extensions::fig19,
        },
        Experiment {
            id: "abl1",
            title: "Ablation 1: stale recommendations under workload fluctuation",
            run: ablation::abl1,
        },
        Experiment {
            id: "abl2",
            title: "Ablation 2: resource-profile sensitivity",
            run: ablation::abl2,
        },
        Experiment {
            id: "abl3",
            title: "Ablation 3: threshold sensitivity of the recommendations",
            run: ablation::abl3,
        },
    ]
}

/// The spec of a synthetic-workload configuration: the genChain generator
/// under `cv`, on the network `cv` describes.
pub fn synthetic_spec(cv: &ControlVariables) -> ScenarioSpec {
    ScenarioSpec {
        workload: WorkloadSpec::Synthetic(cv.clone()),
        network: cv.network_config(),
        ..ScenarioSpec::builtin("synthetic").expect("synthetic is a built-in")
    }
}

/// Build and simulate a figure's spec.
pub fn run(spec: &ScenarioSpec) -> SimOutput {
    let (bundle, config) = spec.build().expect("figure specs validate");
    bundle.run(config)
}

/// Run a spec and analyze its ledger: the figure's "W/O" row and the
/// recommendations its other rows apply.
pub fn run_and_analyze(spec: &ScenarioSpec) -> (SimReport, Analysis) {
    let output = run(spec);
    let analysis = Analyzer::new()
        .analyze_ledger(&output.ledger)
        .expect("figure runs commit transactions");
    (output.report, analysis)
}

/// `spec` with the named recommendations of `analysis` applied, through
/// [`OptimizationPlan::apply_to_spec`] — the path `optimize` measures. A
/// figure evaluates one optimization at a time; the paper applies each
/// recommendation separately before combining them in Figure 12.
pub fn with_recommendations(
    spec: &ScenarioSpec,
    analysis: &Analysis,
    sources: &[&str],
) -> ScenarioSpec {
    OptimizationPlan::from_analysis(analysis)
        .select(sources)
        .apply_to_spec(spec)
        .0
}

/// Table 4's universal rate-control setting.
pub fn throttle_100() -> Action {
    Action::RewriteSchedule(SpecTransform::Throttle { rate: 100.0 })
}

/// `spec` re-spaced at Table 4's 100 tps.
pub fn throttled_100(spec: &ScenarioSpec) -> ScenarioSpec {
    throttle_100()
        .apply_to_spec(spec)
        .expect("schedule rewrites always apply")
}

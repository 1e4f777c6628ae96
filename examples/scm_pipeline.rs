//! Supply-chain scenario (paper §3, §6.2): mine the process model from the
//! blockchain log, spot the illogical branches, prune + reorder, and verify
//! compliance of the redesigned process.
//!
//! ```text
//! cargo run --release --example scm_pipeline
//! ```

use blockoptr::report::render_plan;
use blockoptr_suite::prelude::*;
use process_mining::conformance::footprint_conformance;
use process_mining::dfg::DirectlyFollowsGraph;
use process_mining::eventlog::log_from;
use workload::{ScenarioSpec, SpecError};

/// Build and simulate a spec.
fn run(spec: &ScenarioSpec) -> Result<SimOutput, SpecError> {
    let (bundle, config) = spec.build()?;
    Ok(bundle.run(config))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = ScenarioSpec::builtin("scm")?;

    // Baseline.
    let output = run(&spec)?;
    let analysis = Analyzer::new().analyze_ledger(&output.ledger)?;
    println!("── SCM baseline: {}", output.report.figure_row());
    println!(
        "recommended: {}",
        analysis.recommendation_names().join(", ")
    );
    let plan = OptimizationPlan::from_analysis(&analysis);

    // The mined model exposes the anomalous branches of Figure 2.
    let dfg = DirectlyFollowsGraph::from_log(&analysis.event_log);
    println!(
        "anomalies: ship≻pushASN {}×, traces starting with ship {}",
        dfg.count("ship", "pushASN"),
        dfg.starts().get("ship").copied().unwrap_or(0)
    );

    // Process model pruning: the contract aborts anomalous flows early.
    let (pruned, _) = plan
        .clone()
        .select(&["Process model pruning"])
        .apply_to_spec(&spec);
    let after_prune = run(&pruned)?;
    println!("── pruned contract: {}", after_prune.report.figure_row());
    println!(
        "early-aborted anomalous transactions: {}",
        after_prune.report.early_aborted
    );

    // Activity reordering: defer the reporting activities.
    let reordering = plan.select(&["Activity reordering"]);
    print!("{}", render_plan(&reordering, Some(&spec)));
    let (reordered, _) = reordering.apply_to_spec(&spec);
    let after_reorder = run(&reordered)?;
    println!(
        "── reordered schedule: {}",
        after_reorder.report.figure_row()
    );

    // Compliance check (Figure 4): the redesigned behaviour against the
    // intended flow.
    let re_analysis = Analyzer::new().analyze_ledger(&after_reorder.ledger)?;
    let designed = log_from(&[
        &["pushASN", "ship", "queryASN", "unload"],
        &["pushASN", "ship", "queryASN", "unload", "queryProducts"],
        &["pushASN", "ship", "queryASN", "unload", "updateAuditInfo"],
    ]);
    println!(
        "footprint agreement with the designed model: {:.2}",
        footprint_conformance(&designed, &re_analysis.event_log)
    );
    Ok(())
}

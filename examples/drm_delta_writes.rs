//! Digital-rights-management scenario (paper §6.2, Figure 14): a Play-heavy
//! workload hammers popular music keys; BlockOptR recommends delta writes
//! and smart-contract partitioning, both implemented as contract variants.
//!
//! ```text
//! cargo run --release --example drm_delta_writes
//! ```

use blockoptr_suite::prelude::*;
use workload::{ScenarioSpec, SpecError};

/// Build and simulate a spec.
fn run(spec: &ScenarioSpec) -> Result<SimOutput, SpecError> {
    let (bundle, config) = spec.build()?;
    Ok(bundle.run(config))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = ScenarioSpec::builtin("drm")?;

    let output = run(&spec)?;
    let analysis = Analyzer::new().analyze_ledger(&output.ledger)?;
    println!("── DRM baseline: {}", output.report.figure_row());
    for rec in &analysis.recommendations {
        println!("  [{}] {}: {}", rec.level(), rec.name(), rec.rationale());
    }
    let plan = OptimizationPlan::from_analysis(&analysis);
    let with = |sources: &[&str]| plan.clone().select(sources).apply_to_spec(&spec).0;

    // Delta writes: plays become blind writes to unique delta keys; revenue
    // aggregation pays the read cost instead.
    let after_delta = run(&with(&["Delta writes"]))?;
    println!("── delta writes:    {}", after_delta.report.figure_row());

    // Smart contract partitioning: play counting and metadata split into
    // separate chaincodes with disjoint world states.
    let after_part = run(&with(&["Smart contract partitioning"]))?;
    println!("── partitioned:     {}", after_part.report.figure_row());

    // Everything combined (partitioned chaincodes + delta plays +
    // reordering of the reporting reads): the variant set resolves to the
    // partitioned-delta contracts.
    let after_all = run(&with(&[
        "Delta writes",
        "Smart contract partitioning",
        "Activity reordering",
    ]))?;
    println!("── all combined:    {}", after_all.report.figure_row());

    println!(
        "\nsuccess rate: {:.1} % → {:.1} % (delta) / {:.1} % (partition) / {:.1} % (all)",
        output.report.success_rate_pct,
        after_delta.report.success_rate_pct,
        after_part.report.success_rate_pct,
        after_all.report.success_rate_pct,
    );
    Ok(())
}

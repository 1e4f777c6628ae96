//! Digital-voting scenario (paper §6.2, Figure 16): during the voting phase
//! every ballot updates one of a handful of party keys, so per block only
//! one vote per party survives MVCC validation. BlockOptR detects the
//! hotkeys, sees a single failing activity, and recommends re-keying the
//! data model to `voterID` — after which every vote is a unique insert and
//! the success rate reaches 100 %.
//!
//! ```text
//! cargo run --release --example digital_voting
//! ```

use blockoptr_suite::prelude::*;
use workload::{ScenarioSpec, SpecError};

/// Build and simulate a spec.
fn run(spec: &ScenarioSpec) -> Result<SimOutput, SpecError> {
    let (bundle, config) = spec.build()?;
    Ok(bundle.run(config))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = ScenarioSpec::builtin("dv")?;

    let output = run(&spec)?;
    let analysis = Analyzer::new().analyze_ledger(&output.ledger)?;
    println!(
        "── DV baseline (party-keyed): {}",
        output.report.figure_row()
    );
    println!(
        "hotkeys: {:?}",
        analysis
            .metrics
            .keys
            .hotkeys
            .iter()
            .take(4)
            .collect::<Vec<_>>()
    );
    for rec in &analysis.recommendations {
        println!("  [{}] {}: {}", rec.level(), rec.name(), rec.rationale());
    }

    // The altered data model: one ballot key per voter.
    let (altered, _) = OptimizationPlan::from_analysis(&analysis)
        .select(&["Data model alteration"])
        .apply_to_spec(&spec);
    let after = run(&altered)?;
    println!(
        "── voter-keyed model:          {}",
        after.report.figure_row()
    );

    // The paper's headline: no more transaction dependencies at all.
    assert!(
        after.report.success_rate_pct > 99.9,
        "per-voter ballots cannot conflict"
    );
    println!(
        "\nMVCC conflicts: {} → {}",
        output.report.mvcc_conflicts, after.report.mvcc_conflicts
    );

    // Verify with a fresh analysis that the recommendation disappears.
    let re_analysis = Analyzer::new().analyze_ledger(&after.ledger)?;
    println!(
        "recommendations after the redesign: {:?}",
        re_analysis.recommendation_names()
    );
    Ok(())
}

//! Loan-application scenario (paper §5.1.3/§6.3, Figure 17): replay a
//! BPI-Challenge-2017-like loan process where one bank employee handles most
//! applications. With the paper's employee-keyed data model that employee's
//! key is hot; BlockOptR recommends re-keying by application id.
//!
//! ```text
//! cargo run --release --example loan_application
//! ```

use blockoptr_suite::prelude::*;
use workload::{ScenarioSpec, SpecError, WorkloadSpec};

/// Build and simulate a spec.
fn run(spec: &ScenarioSpec) -> Result<SimOutput, SpecError> {
    let (bundle, config) = spec.build()?;
    Ok(bundle.run(config))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for rate in [10.0, 300.0] {
        let mut spec = ScenarioSpec::builtin("lap")?;
        if let WorkloadSpec::Lap(lap) = &mut spec.workload {
            lap.send_rate = rate;
        }

        let output = run(&spec)?;
        let analysis = Analyzer::new().analyze_ledger(&output.ledger)?;
        println!(
            "── LAP @ {rate:.0} tps, employee-keyed: {}",
            output.report.figure_row()
        );
        if let Some(hot) = analysis.metrics.keys.hotkeys.first() {
            println!(
                "  hot key: {hot} (Kfreq {}, activities {:?})",
                analysis.metrics.keys.kfreq_of(hot),
                analysis.metrics.keys.significant_activities(hot)
            );
        }
        println!(
            "  cases derived from family {:?} ({} applications)",
            analysis.case_derivation.family, analysis.case_derivation.distinct_cases
        );
        println!(
            "  recommended: {}",
            analysis.recommendation_names().join(", ")
        );

        // The altered data model: applicationID as the primary key, the
        // employee recorded inside the value.
        let (altered, _) = OptimizationPlan::from_analysis(&analysis)
            .select(&["Data model alteration"])
            .apply_to_spec(&spec);
        let after = run(&altered)?;
        println!(
            "── LAP @ {rate:.0} tps, application-keyed: {}",
            after.report.figure_row()
        );
        println!(
            "  success {:.1} % → {:.1} %\n",
            output.report.success_rate_pct, after.report.success_rate_pct
        );
    }
    Ok(())
}

//! Quickstart: simulate a Fabric network under a synthetic workload, let
//! BlockOptR analyze the chain and print its multi-level recommendations,
//! then close the loop the way `blockoptr optimize` does — apply each
//! recommended action to the scenario spec, re-run, and measure.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use blockoptr_suite::prelude::*;
use workload::ScenarioSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the scenario as a spec: the genChain workload under the
    //    paper's Table-2 defaults (uniform mix, 2 orgs, block count 100,
    //    300 tps).
    let spec = ScenarioSpec::builtin("synthetic")?;

    // 2. Run it through the simulated execute-order-validate pipeline,
    //    analyze the chain (preprocess, derive metrics, mine the process
    //    model, evaluate the nine rules) and lower the recommendations to a
    //    plan of typed actions.
    let analyzer = Analyzer::new();
    let (plan, baseline) = OptimizationPlan::from_spec(&spec, &analyzer)?;
    println!("── baseline run ──");
    println!("{}", baseline.report);
    let analysis = analyzer.analyze_ledger(&baseline.ledger)?;
    println!("{}", blockoptr::report::render(&analysis));
    print!("{}", blockoptr::report::render_plan(&plan, Some(&spec)));

    // 3. Close the loop: re-run the spec with each action applied alone,
    //    then with all of them, and report the before/after deltas.
    let outcome = plan.execute_spec_from_with(&spec, baseline.report, &PlanConfig::default())?;
    print!("{}", blockoptr::report::render_outcome(&outcome));
    Ok(())
}

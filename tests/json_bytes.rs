//! Byte pins of the library's JSON surfaces.
//!
//! Saved logs, scenario specs and plan outcomes are files users keep and
//! diff, so their exact text is part of the contract, not only what parses
//! back. Each test renders one family of outputs, hashes every one with
//! FNV-1a (the goldens' hash) and compares against the committed hashes.
//! A failure prints every rendered output's hash, so an intended format
//! change can be re-pinned from the message. The CLI's `analyze --json`
//! and `watch --json` bytes are pinned in `crates/blockoptr/tests/cli.rs`;
//! the compact ledger JSON in `tests/goldens`.
//!
//! Together the outputs cover the renderer's rules: pretty and compact
//! layout, floats (plan statistics), empty containers, newtypes, unit and
//! data enum variants, sorted sets, string-keyed maps as objects and
//! tuple-keyed ones as `[key, value]` pairs, range reads as tuple arrays
//! (dv) and list- and map-valued state (lap).

use blockoptr::export;
use blockoptr::log::BlockchainLog;
use blockoptr::plan::{OptimizationPlan, PlanConfig};
use blockoptr::session::{Analyzer, WindowPolicy};
use workload::scenario::{freeze, BUILTIN_NAMES};
use workload::ScenarioSpec;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// Compare each rendered output's hash with its pin, in order.
fn check(pinned: &[(&str, u64)], rendered: &[(String, String)]) {
    let got: Vec<(&str, u64)> = rendered
        .iter()
        .map(|(name, text)| (name.as_str(), fnv1a(text.as_bytes())))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, hash)| format!("        ({name:?}, 0x{hash:016x}),\n"))
        .collect();
    assert_eq!(got, pinned, "rendered bytes changed; now:\n{table}");
}

/// A builtin scenario at seed 42, sized to `transactions`.
fn builtin(name: &str, transactions: usize) -> ScenarioSpec {
    ScenarioSpec::builtin(name)
        .expect("builtin scenario")
        .with_transactions(transactions)
        .with_seed(42)
}

#[test]
fn exported_logs_keep_their_bytes() {
    let rendered: Vec<(String, String)> = BUILTIN_NAMES
        .iter()
        .map(|name| {
            let (bundle, config) = builtin(name, 500).build().expect("builtin builds");
            let log = BlockchainLog::from_ledger(&bundle.run(config).ledger);
            (name.to_string(), export::to_json(&log))
        })
        .collect();
    check(
        &[
            ("synthetic", 0x6386b0263d20328a),
            ("scm", 0x0e5b5b7b969d1c3e),
            ("drm", 0x038f9303d042af84),
            ("ehr", 0x9493d5b55f68d095),
            ("dv", 0x18e996dbcb819801),
            ("lap", 0x66b2568a982dcd12),
        ],
        &rendered,
    );
}

#[test]
fn scenario_specs_keep_their_bytes() {
    let mut rendered: Vec<(String, String)> = BUILTIN_NAMES
        .iter()
        .map(|name| {
            let spec = ScenarioSpec::builtin(name).expect("builtin scenario");
            (name.to_string(), spec.to_json())
        })
        .collect();
    let (bundle, config) = builtin("scm", 100).build().expect("scm builds");
    let frozen = freeze("scm-frozen", &bundle, &config).expect("scm freezes");
    rendered.push(("scm-frozen".to_string(), frozen.to_json()));
    check(
        &[
            ("synthetic", 0xbf98612daceaa263),
            ("scm", 0x84e262fed0e030e3),
            ("drm", 0xe6f9884f7b0eedd6),
            ("ehr", 0x6b6d9d504c26135f),
            ("dv", 0x2466ef025e3cf7f2),
            ("lap", 0x118244c5a1b98501),
            ("scm-frozen", 0x5f929871597b2bf8),
        ],
        &rendered,
    );
}

#[test]
fn plan_outcomes_keep_their_bytes() {
    let spec = builtin("scm", 300);
    let analyzer = Analyzer::new().threads(1).window(WindowPolicy::Unbounded);
    let (plan, output) = OptimizationPlan::from_spec(&spec, &analyzer).expect("scm plans");
    let outcome = plan
        .execute_spec_from_with(&spec, output.report, &PlanConfig::new(2, 1))
        .expect("scm plan executes");
    let rendered = [
        (
            "pretty".to_string(),
            serde_json::to_string_pretty(&outcome).unwrap(),
        ),
        (
            "compact".to_string(),
            serde_json::to_string(&outcome).unwrap(),
        ),
    ];
    check(
        &[
            ("pretty", 0x74439c538861dc21),
            ("compact", 0x17c0d4bcbe32ea93),
        ],
        &rendered,
    );
}

//! The declarative-scenario guarantees, test-enforced:
//!
//! 1. **spec → bundle → spec is the identity** for explicit schedules: a
//!    frozen spec rebuilds into a bundle that freezes back to the same spec;
//! 2. **a spec-rebuilt bundle simulates byte-identically** to the
//!    imperatively generator-built one, for every built-in scenario and
//!    several seeds (report *and* extracted log compared verbatim);
//! 3. the static contract-id mapping ([`ScenarioSpec::contract_ids`])
//!    tells the truth about what `build` installs, for every variant
//!    subset every workload supports, and only DRM's partitioning touches
//!    the generated requests and genesis;
//! 4. seed derivation varies the *workload*, not just the network: two
//!    seeds produce different schedules but identical specs modulo the
//!    seed fields;
//! 5. the spec-driven plan executor emits a buildable optimized spec and
//!    the whole outcome round-trips through JSON;
//! 6. **the emitted spec replays what was measured**: building and running
//!    `optimized_spec` reproduces the combined row's primary report, and
//!    each applied action's spec reproduces its own row.

use blockoptr::plan::{OptimizationPlan, PlanConfig};
use blockoptr::session::{AnalyzeError, Analyzer};
use fabric_sim::config::NetworkConfig;
use workload::scenario::{freeze, BUILTIN_NAMES};
use workload::spec::ControlVariables;
use workload::{drm, dv, ehr, lap, scm, synthetic};
use workload::{
    ArrivalSpec, ScenarioSpec, SpecError, SpecTransform, VariantKind, WorkloadBundle, WorkloadSpec,
};

const TXS: usize = 800;

/// The old imperative construction path: call the generator directly with
/// hand-assembled parameters, exactly as the CLI and bench glue used to.
fn generator_built(name: &str, txs: usize, seed: u64) -> (WorkloadBundle, NetworkConfig) {
    let network = NetworkConfig {
        seed,
        ..NetworkConfig::default()
    };
    match name {
        "synthetic" => {
            let cv = ControlVariables {
                transactions: txs,
                seed,
                ..Default::default()
            };
            let config = cv.network_config();
            (synthetic::generate(&cv), config)
        }
        "scm" => {
            let spec = scm::ScmSpec {
                transactions: txs,
                seed,
                ..Default::default()
            };
            (scm::generate(&spec), network)
        }
        "drm" => {
            let spec = drm::DrmSpec {
                transactions: txs,
                seed,
                ..Default::default()
            };
            (drm::generate(&spec), network)
        }
        "ehr" => {
            let spec = ehr::EhrSpec {
                transactions: txs,
                seed,
                ..Default::default()
            };
            (ehr::generate(&spec), network)
        }
        "dv" => {
            let queries = (txs / 6).max(1);
            let spec = dv::DvSpec {
                queries,
                votes: txs.saturating_sub(queries).max(1),
                seed,
                ..Default::default()
            };
            (dv::generate(&spec), network)
        }
        "lap" => {
            let spec = lap::LapSpec {
                applications: (txs / 10).max(10),
                seed,
                ..Default::default()
            };
            (lap::generate(&spec), network)
        }
        other => panic!("unknown scenario {other}"),
    }
}

fn spec_for(name: &str, txs: usize, seed: u64) -> ScenarioSpec {
    ScenarioSpec::builtin(name)
        .unwrap()
        .with_transactions(txs)
        .with_seed(seed)
}

#[test]
fn spec_to_bundle_to_spec_is_identity() {
    for name in BUILTIN_NAMES {
        let spec = spec_for(name, TXS, 42);
        let (bundle, config) = spec.build().unwrap();
        assert_eq!(config, spec.network, "{name}: network");
        // …and through JSON: the serialized spec re-parses equal and
        // rebuilds the same schedule.
        let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec, "{name}: JSON round trip");
        let (rebuilt, _) = back.build().unwrap();
        assert_eq!(
            rebuilt.requests, bundle.requests,
            "{name}: rebuilt schedule"
        );
        // An explicit schedule is a fixed point: freeze, build, freeze.
        let frozen = freeze(name, &bundle, &config).unwrap();
        let (replayed, replay_config) = frozen.build().unwrap();
        assert_eq!(
            freeze(name, &replayed, &replay_config).unwrap(),
            frozen,
            "{name}: frozen identity"
        );
    }
}

/// Acceptance criterion: for every built-in scenario (and several seeds) a
/// spec-rebuilt bundle yields a byte-identical `SimOutput` to the
/// generator-built one — compared as the full report Debug plus the entire
/// extracted log JSON.
#[test]
fn spec_rebuilt_bundles_simulate_byte_identically() {
    for name in BUILTIN_NAMES {
        for seed in [42u64, 1337] {
            let (gen_bundle, gen_config) = generator_built(name, TXS, seed);
            let (spec_bundle, spec_config) = spec_for(name, TXS, seed).build().unwrap();
            assert_eq!(gen_config, spec_config, "{name}/{seed}: config");
            assert_eq!(
                gen_bundle.len(),
                spec_bundle.len(),
                "{name}/{seed}: schedule"
            );

            let a = gen_bundle.run(gen_config);
            let b = spec_bundle.run(spec_config);
            assert_eq!(
                format!("{:?}", a.report),
                format!("{:?}", b.report),
                "{name}/{seed}: report"
            );
            let log_a =
                blockoptr::export::to_json(&blockoptr::log::BlockchainLog::from_ledger(&a.ledger));
            let log_b =
                blockoptr::export::to_json(&blockoptr::log::BlockchainLog::from_ledger(&b.ledger));
            assert_eq!(log_a, log_b, "{name}/{seed}: extracted log");
        }
    }
}

/// The static contract-id mapping matches what `build` actually installs,
/// for every variant subset of every workload's variant table. A
/// contract-only rewrite keeps the generated requests and genesis; DRM's
/// partitioning routes `play`, `calcRevenue` and `create` to `drm-play` and
/// the rest to `drm-meta`, and seeds the catalogue in both namespaces.
#[test]
fn contract_id_mapping_is_truthful() {
    for name in BUILTIN_NAMES {
        let base = spec_for(name, 400, 42);
        let generated = base.generate().unwrap();
        let table = base.workload.variant_table();
        // Every subset of the variant table (tables are ≤ 2 entries).
        let mut subsets: Vec<Vec<VariantKind>> = vec![vec![]];
        for &kind in table {
            let mut doubled = subsets.clone();
            for s in &mut doubled {
                s.push(kind);
            }
            subsets.extend(doubled);
        }
        for subset in subsets {
            let mut spec = base.clone();
            spec.variants = subset.iter().copied().collect();
            let (bundle, _) = spec.build().unwrap();
            let installed: Vec<&str> = bundle.contracts.iter().map(|c| c.id()).collect();
            assert_eq!(
                installed,
                spec.contract_ids(),
                "{name} with variants {subset:?}"
            );
            if !spec.variants.contains(&VariantKind::Partitioned) {
                assert_eq!(bundle.requests, generated.requests, "{name} {subset:?}");
                assert_eq!(bundle.genesis, generated.genesis, "{name} {subset:?}");
                continue;
            }
            assert_eq!(bundle.len(), generated.len(), "{subset:?}");
            for (routed, r) in bundle.requests.iter().zip(&generated.requests) {
                let namespace = match r.activity.as_ref() {
                    "play" | "calcRevenue" | "create" => "drm-play",
                    _ => "drm-meta",
                };
                assert_eq!(routed.contract.as_ref(), namespace, "{subset:?}: {r:?}");
                assert_eq!(
                    (routed.send_time, &routed.activity, &routed.args),
                    (r.send_time, &r.activity, &r.args),
                    "{subset:?}: only the contract is re-routed"
                );
            }
            assert_eq!(
                bundle.genesis.len(),
                2 * generated.genesis.len(),
                "{subset:?}: one catalogue per namespace"
            );
        }
    }
}

/// Satellite: two seeds produce *different schedules* (the workload itself
/// varies) but identical specs modulo the seed fields.
#[test]
fn seeds_vary_the_workload_not_the_spec() {
    for name in BUILTIN_NAMES {
        let spec_a = spec_for(name, 600, 1);
        let spec_b = spec_for(name, 600, 2);
        assert_ne!(spec_a, spec_b, "{name}: seeds recorded");
        assert_eq!(
            spec_a.clone().with_seed(0),
            spec_b.clone().with_seed(0),
            "{name}: identical modulo the seed field"
        );
        let (a, _) = spec_a.build().unwrap();
        let (b, _) = spec_b.build().unwrap();
        let differs = a.len() != b.len()
            || a.requests
                .iter()
                .zip(&b.requests)
                .any(|(x, y)| x.send_time != y.send_time || x.args != y.args);
        assert!(differs, "{name}: schedules must differ across seeds");
        // Same seed → same schedule (determinism sanity).
        let (a2, _) = spec_for(name, 600, 1).build().unwrap();
        assert_eq!(a.requests, a2.requests, "{name}: seed determinism");
    }
}

/// The spec-driven closed loop: recommendations lowered from a baseline
/// run, per-seed regenerated workloads, an optimized spec that builds, and
/// a JSON-round-trippable outcome.
#[test]
fn spec_driven_plan_emits_a_buildable_optimized_spec() {
    let spec = spec_for("scm", 1_500, 42);
    let analyzer = Analyzer::new();
    let (plan, output) = OptimizationPlan::from_spec(&spec, &analyzer).unwrap();
    assert!(!plan.is_empty(), "the SCM demo fires recommendations");
    let outcome = plan
        .execute_spec_from_with(&spec, output.report, &PlanConfig::new(2, 2))
        .unwrap();
    assert_eq!(outcome.seeds.len(), 2);
    assert_eq!(outcome.baseline.seeds(), 2);

    let optimized = &outcome.optimized_spec;
    assert!(
        !optimized.transforms.is_empty() || !optimized.variants.is_empty(),
        "the plan lowered something declarative"
    );
    let (_, tuned_config) = optimized.build().unwrap();
    assert_eq!(tuned_config, optimized.network);

    // Multi-seed workload variance is real: the two baseline seeds saw
    // different workloads, so identical metrics across seeds would be a
    // red flag (the old bundle path collapsed here under deterministic
    // endorsement policies).
    let r = &outcome.baseline.per_seed;
    assert!(
        format!("{:?}", r[0]) != format!("{:?}", r[1]),
        "per-seed baselines must differ when the workload varies"
    );

    let json = serde_json::to_string(&outcome).unwrap();
    let back: blockoptr::plan::PlanOutcome = serde_json::from_str(&json).unwrap();
    assert_eq!(back.optimized_spec, outcome.optimized_spec);
}

/// Regression: seed 0 of the spec grid must run the spec *verbatim*. A
/// hand-edited spec may keep its workload seed and network seed
/// different; re-seeding seed 0 through `with_seed` would overwrite the
/// network seed, so a reused `from_spec` baseline would be paired against
/// action runs measured under a different network — skewing every delta.
#[test]
fn spec_grid_seed_zero_preserves_a_divergent_network_seed() {
    let mut spec = spec_for("scm", 1_000, 42);
    // Diverge the network seed under a policy whose endorser selection
    // actually consumes it (p4 over four orgs has many minimal sets).
    spec.network.orgs = 4;
    spec.network.endorsement_policy = fabric_sim::policy::EndorsementPolicy::p4();
    spec.network.seed = 7;
    assert_ne!(spec.seed(), spec.network.seed, "fixture diverges the seeds");

    let analyzer = Analyzer::new();
    let (plan, output) = OptimizationPlan::from_spec(&spec, &analyzer).unwrap();
    let reused = plan
        .execute_spec_from_with(&spec, output.report.clone(), &PlanConfig::new(2, 1))
        .unwrap();
    let fresh = plan
        .execute_spec_with(&spec, &PlanConfig::new(2, 1))
        .unwrap();
    // The reused primary baseline and a fresh seed-0 rebuild are the very
    // same configuration — byte-identical reports.
    assert_eq!(
        format!("{:?}", reused.baseline.primary()),
        format!("{:?}", fresh.baseline.primary()),
        "seed 0 must rebuild the spec verbatim"
    );
    assert_eq!(
        format!("{:?}", output.report),
        format!("{:?}", reused.baseline.primary()),
    );
}

/// Spec failures surface as typed [`AnalyzeError::Spec`] values on the
/// plan path — never panics.
#[test]
fn plan_execution_maps_spec_errors() {
    let mut spec = spec_for("drm", 500, 42);
    if let WorkloadSpec::Drm(s) = &mut spec.workload {
        s.send_rate = f64::NAN;
    }
    let err = OptimizationPlan::default()
        .execute_spec_with(&spec, &PlanConfig::default())
        .unwrap_err();
    match err {
        AnalyzeError::Spec(SpecError::BadParameter { field, .. }) => {
            assert_eq!(field, "drm.send_rate")
        }
        other => panic!("{other:?}"),
    }
}

/// A committed example spec.
fn example_spec(file: &str) -> ScenarioSpec {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples")
        .join(file);
    ScenarioSpec::from_json(&std::fs::read_to_string(path).unwrap()).unwrap()
}

/// One run of `spec`'s report, serialized.
fn replay(spec: &ScenarioSpec) -> String {
    let (bundle, config) = spec.build().unwrap();
    serde_json::to_string(&bundle.run(config).report).unwrap()
}

/// The closed loop hands its result over as `optimized_spec`: replaying
/// that spec must reproduce the combined configuration the plan measured,
/// byte for byte, and each applied action's spec must reproduce its own
/// row. The inputs cover every built-in at two seeds, the fault and
/// open-loop examples, open-loop SCM specs whose plan throttles (the
/// throttle must survive the arrival re-stamping), and a DRM spec that
/// already carries a variant (the plan's other variant must resolve
/// together with it).
#[test]
fn emitted_spec_replays_what_was_measured() {
    let mut cases: Vec<(String, ScenarioSpec)> = Vec::new();
    for name in BUILTIN_NAMES {
        for seed in [42, 1337] {
            cases.push((format!("{name}/{seed}"), spec_for(name, 2_000, seed)));
        }
    }
    for file in ["endorser_outage.json", "open_loop_poisson.json"] {
        cases.push((file.to_string(), example_spec(file)));
    }
    for (label, arrival) in [
        (
            "open-loop scm/poisson",
            ArrivalSpec::Poisson { rate: 400.0 },
        ),
        (
            "open-loop scm/uniform",
            ArrivalSpec::Uniform { gap: 0.0025 },
        ),
    ] {
        let spec = ScenarioSpec::builtin("scm")
            .unwrap()
            .with_transactions(3_000)
            .with_arrival(arrival);
        cases.push((label.to_string(), spec));
    }
    for seed in [42, 1337] {
        let mut spec = spec_for("drm", 6_000, seed);
        spec.variants.insert(VariantKind::Partitioned);
        cases.push((format!("drm-partitioned/{seed}"), spec));
    }

    let analyzer = Analyzer::new();
    for (label, spec) in &cases {
        let (plan, output) = OptimizationPlan::from_spec(spec, &analyzer).unwrap();
        let outcome = plan
            .execute_spec_from_with(spec, output.report, &PlanConfig::new(1, 2))
            .unwrap();
        let measured = outcome.combined.as_ref().unwrap_or(&outcome.baseline);
        assert_eq!(
            replay(&outcome.optimized_spec),
            serde_json::to_string(&measured.primary).unwrap(),
            "{label}: the emitted spec replays the measured combination"
        );
        for action in &outcome.actions {
            if let Some(after) = action.measured() {
                let single = action.action.apply_to_spec(spec).expect("applied");
                assert_eq!(
                    replay(&single),
                    serde_json::to_string(&after.primary).unwrap(),
                    "{label}: {} replays its row",
                    action.action.describe()
                );
            }
        }

        // The throttle and the second variant are what those inputs are
        // for: the plan must apply them.
        let applied = |wanted: &dyn Fn(&blockoptr::Action) -> bool| {
            outcome
                .actions
                .iter()
                .any(|a| wanted(&a.action) && a.measured().is_some())
        };
        if label.starts_with("open-loop scm/") {
            assert!(
                applied(&|a| matches!(
                    a,
                    blockoptr::Action::RewriteSchedule(SpecTransform::Throttle { .. })
                )),
                "{label}: the plan throttles"
            );
        }
        if label.starts_with("drm-partitioned/") {
            assert!(
                applied(&|a| matches!(
                    a,
                    blockoptr::Action::SelectContractVariant(VariantKind::DeltaWrites)
                )),
                "{label}: delta writes apply on top of the partitioned variant"
            );
        }
    }
}

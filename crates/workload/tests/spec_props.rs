//! ScenarioSpec JSON properties: serialize → deserialize is the identity
//! over randomized specs (all six workload kinds, random transforms,
//! variants, and network fields), and malformed specs are rejected with
//! *typed* [`SpecError`]s — unknown contract names, out-of-domain rates,
//! bad policies — never panics.

use proptest::prelude::*;
use std::collections::BTreeSet;
use workload::scenario::{ScheduleSpec, BUILTIN_NAMES};
use workload::spec::{PolicyChoice, WorkloadType};
use workload::{ArrivalSpec, ScenarioSpec, SpecError, SpecTransform, VariantKind, WorkloadSpec};

/// A random but *valid* spec: start from a built-in, then perturb every
/// layer (generator parameters, transforms, variants, network) within the
/// documented domains.
fn arb_spec() -> impl Strategy<Value = ScenarioSpec> {
    (
        0usize..BUILTIN_NAMES.len(),
        1usize..5_000, // transactions scale
        0u64..1_000,   // seed
        0.0f64..1.0,   // a share-ish float, exercised per kind
        1.0f64..400.0, // a rate
        0usize..4,     // transform selector
        0u8..2,        // take a variant from the table?
        1usize..400,   // network block count
        0usize..3,     // policy choice selector
    )
        .prop_map(
            |(kind, txs, seed, share, rate, transform, variant, block_count, policy)| {
                let mut spec = ScenarioSpec::builtin(BUILTIN_NAMES[kind])
                    .unwrap()
                    .with_transactions(txs)
                    .with_seed(seed);
                match &mut spec.workload {
                    WorkloadSpec::Synthetic(cv) => {
                        cv.send_rate = rate;
                        cv.tx_dist_skew = share;
                        cv.workload = if share > 0.5 {
                            WorkloadType::ReadHeavy
                        } else {
                            WorkloadType::UpdateHeavy
                        };
                        cv.policy = match policy {
                            0 => PolicyChoice::P1,
                            1 => PolicyChoice::P3,
                            _ => PolicyChoice::P4,
                        };
                    }
                    WorkloadSpec::Scm(s) => {
                        s.send_rate = rate;
                        s.anomaly_rate = share;
                        s.query_share = share.min(0.4);
                        s.audit_share = (1.0 - s.query_share) / 2.5;
                    }
                    WorkloadSpec::Drm(s) => {
                        s.send_rate = rate;
                        s.play_share = share;
                        s.popularity_skew = share * 2.0;
                    }
                    WorkloadSpec::Ehr(s) => {
                        s.send_rate = rate;
                        s.update_share = share;
                        s.anomalous_revoke_rate = 1.0 - share;
                    }
                    WorkloadSpec::Dv(s) => {
                        s.query_rate = rate;
                        s.vote_rate = rate * 3.0;
                    }
                    WorkloadSpec::Lap(s) => {
                        s.send_rate = rate;
                        s.rework_rate = share;
                        s.burst_rate = 1.0 - share;
                    }
                    WorkloadSpec::Schedule(_) => unreachable!("builtins are generators"),
                }
                match transform {
                    0 => {}
                    1 => spec.transforms.push(SpecTransform::Throttle { rate }),
                    2 => spec.transforms.push(SpecTransform::DeferActivities {
                        activities: vec!["queryProducts".into(), "audit".into()],
                    }),
                    _ => {
                        spec.transforms.push(SpecTransform::DeferActivities {
                            activities: vec!["read".into()],
                        });
                        spec.transforms
                            .push(SpecTransform::Throttle { rate: rate / 2.0 });
                    }
                }
                if variant == 1 {
                    if let Some(kind) = spec.workload.variant_table().first() {
                        spec.variants.insert(*kind);
                    }
                }
                // Reuse the policy selector to also cover every arrival
                // mode (independent layers; the pairing is irrelevant).
                spec.arrival = match policy {
                    0 => ArrivalSpec::Closed,
                    1 => ArrivalSpec::Poisson { rate },
                    _ => ArrivalSpec::Uniform { gap: 1.0 / rate },
                };
                spec.network.block_count = block_count;
                spec.network.endorser_skew = share * 6.0;
                spec
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// serialize → deserialize is the identity, including every float
    /// field (the JSON writer prints shortest-round-trip floats).
    #[test]
    fn spec_json_round_trips(spec in arb_spec()) {
        let json = spec.to_json();
        let back = ScenarioSpec::from_json(&json).unwrap();
        prop_assert_eq!(&back, &spec);
        // And a second trip is stable (no drift).
        prop_assert_eq!(back.to_json(), json);
        // Valid specs validate.
        prop_assert!(spec.validate().is_ok(), "{:?}", spec.validate());
    }

    /// A negative or non-finite rate anywhere is a typed BadParameter.
    #[test]
    fn negative_rates_are_typed_errors(
        spec in arb_spec(),
        bad in prop_oneof![Just(-3.0f64), Just(0.0), Just(f64::NAN), Just(f64::INFINITY)],
    ) {
        let mut spec = spec;
        match &mut spec.workload {
            WorkloadSpec::Synthetic(cv) => cv.send_rate = bad,
            WorkloadSpec::Scm(s) => s.send_rate = bad,
            WorkloadSpec::Drm(s) => s.send_rate = bad,
            WorkloadSpec::Ehr(s) => s.send_rate = bad,
            WorkloadSpec::Dv(s) => s.vote_rate = bad,
            WorkloadSpec::Lap(s) => s.send_rate = bad,
            WorkloadSpec::Schedule(_) => unreachable!(),
        }
        match spec.validate() {
            Err(SpecError::BadParameter { field, .. }) => {
                prop_assert!(field.ends_with("_rate"), "{field}");
            }
            other => prop_assert!(false, "expected BadParameter, got {other:?}"),
        }
        prop_assert!(spec.build().is_err(), "build must validate");
    }
}

#[test]
fn malformed_json_is_a_typed_error() {
    // A `network` whose endorsement policy nests 100 000 levels deep
    // overflowed the stack of the old recursive parser; the reader stops
    // at its nesting cap.
    let mut deep_network = ScenarioSpec::builtin("scm").unwrap().to_json();
    let key = "\"endorsement_policy\": ";
    let at = deep_network.find(key).unwrap() + key.len();
    deep_network.insert_str(at, &"{\"And\": [".repeat(100_000));
    let err = ScenarioSpec::from_json(&deep_network)
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("nesting deeper than 128 levels at byte"),
        "{err}"
    );
    for garbage in [
        "",
        "{",
        "[1, 2, 3]",
        r#"{"name": "x"}"#,
        r#"{"name": "x", "workload": {"NoSuchKind": {}}, "transforms": [], "variants": [], "network": {}}"#,
        &deep_network,
    ] {
        match ScenarioSpec::from_json(garbage) {
            Err(SpecError::Json(_)) => {}
            other => panic!("{garbage:.40?} → {other:?}"),
        }
    }
}

#[test]
fn bad_policy_is_a_typed_error() {
    // A spec whose endorsement policy names an unknown variant fails at
    // the JSON layer with a typed error, not a panic.
    let mut json = ScenarioSpec::builtin("scm").unwrap().to_json();
    json = json.replace("\"OutOf\"", "\"NoSuchPolicy\"");
    assert!(json.contains("NoSuchPolicy"), "fixture edits the policy");
    match ScenarioSpec::from_json(&json) {
        Err(SpecError::Json(_)) => {}
        other => panic!("{other:?}"),
    }
}

#[test]
fn unknown_contract_names_are_typed_errors() {
    let spec = ScenarioSpec {
        name: "byo".into(),
        workload: WorkloadSpec::Schedule(ScheduleSpec {
            contracts: vec!["scm".into(), "totally-made-up".into()],
            genesis: vec![],
            requests: vec![],
        }),
        arrival: ArrivalSpec::Closed,
        transforms: vec![],
        variants: BTreeSet::new(),
        network: fabric_sim::config::NetworkConfig::default(),
        fault: workload::FaultSpec::default(),
        retry: workload::RetryPolicy::default(),
    };
    match spec.validate() {
        Err(SpecError::UnknownContract { name, known }) => {
            assert_eq!(name, "totally-made-up");
            assert!(known.iter().any(|k| k == "drm-play:delta"));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn unsupported_variant_sets_are_typed_errors() {
    let mut spec = ScenarioSpec::builtin("lap").unwrap();
    spec.variants.insert(VariantKind::DeltaWrites);
    match spec.validate() {
        Err(SpecError::UnsupportedVariant { variants, workload }) => {
            assert_eq!(variants, vec![VariantKind::DeltaWrites]);
            assert_eq!(workload, "lap");
        }
        other => panic!("{other:?}"),
    }
}

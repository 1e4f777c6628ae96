//! Fault-injection compatibility and resilience acceptance suite (ISSUE 8).
//!
//! Three guarantees pinned here:
//!
//! 1. **Golden compatibility** — a spec with no `fault`/`retry` fields (and
//!    a spec with explicit no-op defaults) produces a ledger byte-identical
//!    to the pre-fault goldens in `tests/goldens/closed_loop.json`. Fault
//!    injection must be invisible until asked for.
//! 2. **Determinism** — faulty specs are as deterministic as clean ones:
//!    identical runs byte-match (property-tested over random fault/retry
//!    configurations), and plan execution over a faulty spec is identical
//!    for any worker thread count.
//! 3. **Acceptance** — `optimize` over the committed endorser-outage
//!    example reports degradation and emits a tuned, replayable spec whose
//!    re-measured goodput improves with a seed-paired 95 % CI excluding
//!    zero.
//! 4. **Faulty goldens** — the fault, retry and open-loop paths reproduce
//!    the fingerprints committed in `tests/goldens/faulty.json`. Replay
//!    determinism alone cannot catch an engine change that is deterministic
//!    but different (say, chaincode results reused across a retry epoch);
//!    the pinned ledger hashes and counters do.
//!
//! CI runs this suite under both `BLOCKOPTR_THREADS=1` and `=4`.

use blockoptr::{Analyzer, MetricStats, OptimizationPlan, PlanConfig};
use proptest::prelude::*;
use workload::{DropSpec, LatencySpike, OutageWindow, RetryPolicy, ScenarioSpec, StallWindow};

const TXS: usize = 800;
const SEEDS: [u64; 2] = [42, 1337];

/// FNV-1a 64-bit — same fingerprint the DES golden suite uses.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

fn ledger_hash(spec: &ScenarioSpec) -> String {
    let (bundle, config) = spec.build().unwrap();
    let out = bundle.run(config);
    let json = serde_json::to_string(&out.ledger).expect("ledger serializes");
    format!("{:016x}", fnv1a(json.as_bytes()))
}

/// `(scenario, seed) → ledger_hash` rows from the committed goldens.
fn committed_hashes() -> Vec<(String, u64, String)> {
    use serde_json::{Number, Value};
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/closed_loop.json");
    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing goldens at {} ({e})", path.display()));
    let Value::Array(rows) = serde_json::value_from_str(&json).expect("goldens parse") else {
        panic!("goldens file is not an array");
    };
    rows.iter()
        .map(|row| {
            let scenario = match row.field("scenario") {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("scenario: {other:?}"),
            };
            let seed = match row.field("seed") {
                Some(Value::Number(Number::PosInt(n))) => *n,
                other => panic!("seed: {other:?}"),
            };
            let hash = match row.field("ledger_hash") {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("ledger_hash: {other:?}"),
            };
            (scenario, seed, hash)
        })
        .collect()
}

/// Serialize a spec and delete its `fault` and `retry` keys — the shape of
/// every spec written before this subsystem existed.
fn strip_fault_fields(spec: &ScenarioSpec) -> ScenarioSpec {
    let mut v = serde_json::value_from_str(&spec.to_json()).unwrap();
    if let serde_json::Value::Object(fields) = &mut v {
        let before = fields.len();
        fields.retain(|(k, _)| k != "fault" && k != "retry");
        assert_eq!(fields.len(), before - 2, "both fields were present");
    }
    ScenarioSpec::from_json(&v.render(false)).unwrap()
}

/// Pre-fault specs (no `fault`/`retry` JSON fields) and explicit no-op
/// defaults both reproduce the committed pre-fault goldens byte for byte.
#[test]
fn absent_and_default_fault_fields_match_the_committed_goldens() {
    let goldens = committed_hashes();
    for name in workload::scenario::BUILTIN_NAMES {
        for seed in SEEDS {
            let spec = ScenarioSpec::builtin(name)
                .unwrap()
                .with_transactions(TXS)
                .with_seed(seed);
            // builtin() carries explicit FaultSpec/RetryPolicy defaults;
            // the stripped round-trip is the absent-field path.
            let stripped = strip_fault_fields(&spec);
            assert!(stripped.fault.is_noop() && stripped.retry.is_noop());
            assert_eq!(stripped, spec, "absent fields deserialize to defaults");

            let want = &goldens
                .iter()
                .find(|(s, sd, _)| s == name && *sd == seed)
                .unwrap_or_else(|| panic!("no golden row for {name} seed {seed}"))
                .2;
            let got = ledger_hash(&stripped);
            assert_eq!(
                &got, want,
                "{name} seed {seed}: a no-fault spec drifted from the pre-fault golden"
            );
        }
    }
}

/// A random fault + retry configuration on the SCM scenario, kept inside
/// the validated domain.
fn arb_faulty_spec() -> impl Strategy<Value = ScenarioSpec> {
    (
        0u16..2,      // outage org
        0u8..6,       // outage peer selector (5 = whole org)
        0.0f64..3.0,  // outage start
        0.1f64..2.0,  // outage duration
        1.0f64..8.0,  // latency spike multiplier
        0.0f64..0.3,  // drop rates
        1usize..5,    // retry attempts
        0.05f64..1.0, // endorse timeout
        0.0f64..0.9,  // jitter
        0u64..1_000,  // seed
    )
        .prop_map(
            |(org, peer, start, duration, multiplier, drop, attempts, timeout, jitter, seed)| {
                let mut spec = ScenarioSpec::builtin("scm")
                    .unwrap()
                    .with_transactions(400)
                    .with_seed(seed);
                spec.fault.endorser_outages.push(OutageWindow {
                    org,
                    peer: (peer < 5).then_some(u16::from(peer)),
                    start,
                    duration,
                });
                spec.fault.latency_spikes.push(LatencySpike {
                    start: start / 2.0,
                    duration,
                    multiplier,
                });
                spec.fault.orderer_stalls.push(StallWindow {
                    start: start + duration,
                    duration: duration / 2.0,
                });
                spec.fault.drop = Some(DropSpec {
                    proposal_rate: drop,
                    endorsement_rate: drop / 2.0,
                });
                spec.retry = RetryPolicy {
                    endorse_timeout: Some(timeout),
                    max_attempts: attempts,
                    backoff_base: 0.05,
                    backoff_multiplier: 2.0,
                    jitter,
                };
                spec
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fault injection keeps the engine deterministic: two fresh builds of
    /// the same faulty spec produce byte-identical ledgers and reports.
    #[test]
    fn faulty_specs_replay_byte_identically(spec in arb_faulty_spec()) {
        prop_assert!(spec.validate().is_ok(), "{:?}", spec.validate());
        let run = |spec: &ScenarioSpec| {
            let (bundle, config) = spec.build().unwrap();
            let out = bundle.run(config);
            (
                serde_json::to_string(&out.ledger).unwrap(),
                serde_json::to_string(&out.report).unwrap(),
            )
        };
        let (ledger_a, report_a) = run(&spec);
        let (ledger_b, report_b) = run(&spec);
        prop_assert_eq!(ledger_a, ledger_b, "ledger drifted between replays");
        prop_assert_eq!(report_a, report_b, "report drifted between replays");
    }
}

fn example_spec(file: &str) -> ScenarioSpec {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples")
        .join(file);
    ScenarioSpec::from_json(&std::fs::read_to_string(path).unwrap()).unwrap()
}

/// A builtin scenario under every fault kind at once: a single-peer outage
/// and a whole-org outage, a latency spike, an orderer stall, seeded
/// proposal and reply drops, and a jittered retry policy. The windows fall
/// inside the ~2.7 s over which the 800 requests arrive at 300 tx/s.
fn everything_faulty(name: &str, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::builtin(name)
        .unwrap()
        .with_transactions(TXS)
        .with_seed(seed);
    spec.fault.endorser_outages = vec![
        OutageWindow {
            org: 0,
            peer: Some(1),
            start: 0.4,
            duration: 1.0,
        },
        OutageWindow {
            org: 1,
            peer: None,
            start: 1.6,
            duration: 0.4,
        },
    ];
    spec.fault.latency_spikes.push(LatencySpike {
        start: 0.9,
        duration: 0.8,
        multiplier: 4.0,
    });
    spec.fault.orderer_stalls.push(StallWindow {
        start: 2.1,
        duration: 0.5,
    });
    spec.fault.drop = Some(DropSpec {
        proposal_rate: 0.03,
        endorsement_rate: 0.03,
    });
    spec.retry = RetryPolicy {
        endorse_timeout: Some(0.25),
        max_attempts: 3,
        backoff_base: 0.05,
        backoff_multiplier: 2.0,
        jitter: 0.3,
    };
    spec
}

/// The pinned specs: both committed fault/open-loop examples, then scm,
/// drm and ehr under [`everything_faulty`] at both seeds.
fn faulty_specs() -> Vec<(String, ScenarioSpec)> {
    let mut specs = vec![
        (
            "examples/endorser_outage.json".to_string(),
            example_spec("endorser_outage.json"),
        ),
        (
            "examples/open_loop_poisson.json".to_string(),
            example_spec("open_loop_poisson.json"),
        ),
    ];
    for name in ["scm", "drm", "ehr"] {
        for seed in SEEDS {
            specs.push((format!("{name}+faults"), everything_faulty(name, seed)));
        }
    }
    specs
}

/// One pinned run, rendered as its row of `tests/goldens/faulty.json`.
fn faulty_row(label: &str, spec: &ScenarioSpec) -> String {
    let (bundle, config) = spec.build().unwrap();
    let out = bundle.run(config);
    let json = serde_json::to_string(&out.ledger).expect("ledger serializes");
    let (report, degradation) = (&out.report, &out.report.degradation);
    format!(
        "{{ \"spec\": \"{label}\", \"seed\": {}, \"ledger_hash\": \"{:016x}\", \
         \"committed\": {}, \"successes\": {}, \"early_aborted\": {}, \
         \"retries\": {}, \"timeouts\": {}, \"events\": {} }}",
        spec.seed(),
        fnv1a(json.as_bytes()),
        report.committed,
        report.successes,
        report.early_aborted,
        degradation.retries,
        degradation.timeouts,
        report.events,
    )
}

/// The fault, retry and open-loop paths reproduce the committed
/// fingerprints byte for byte. Regenerate only for a deliberate, documented
/// behaviour change: `FAULT_GOLDEN_REGEN=1 cargo test --test fault_injection`.
#[test]
fn faulty_and_open_loop_specs_match_the_committed_goldens() {
    let current: Vec<String> = faulty_specs()
        .iter()
        .map(|(label, spec)| faulty_row(label, spec))
        .collect();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/faulty.json");
    #[expect(
        clippy::disallowed_methods,
        reason = "regenerating the golden is an explicit, manual opt-in"
    )]
    if std::env::var("FAULT_GOLDEN_REGEN").is_ok() {
        std::fs::write(&path, format!("[\n  {}\n]\n", current.join(",\n  "))).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing goldens at {} ({e}); run with FAULT_GOLDEN_REGEN=1 once",
            path.display()
        )
    });
    let expected: Vec<&str> = committed
        .lines()
        .map(|line| line.trim().trim_end_matches(','))
        .filter(|row| row.starts_with('{'))
        .collect();
    assert_eq!(expected.len(), current.len(), "golden row count");
    for (want, got) in expected.iter().zip(&current) {
        assert_eq!(
            want, got,
            "the engine diverged from a committed faulty golden"
        );
    }
}

/// Plan execution over a faulty spec is byte-identical for any worker
/// thread count — the PR-7 equivalence guarantee extends to fault state.
#[test]
fn faulty_plan_execution_is_thread_count_invariant() {
    let spec = example_spec("endorser_outage.json");
    let (plan, _) = OptimizationPlan::from_spec(&spec, &Analyzer::new()).unwrap();
    assert!(!plan.is_empty(), "the outage example triggers actions");

    let fingerprint = |threads: usize| {
        let outcome = plan
            .execute_spec_with(&spec, &PlanConfig::new(2, threads))
            .unwrap();
        let mut rows: Vec<String> = outcome
            .baseline
            .per_seed
            .iter()
            .map(|r| serde_json::to_string(r).unwrap())
            .collect();
        for action in &outcome.actions {
            if let Some(measured) = action.measured() {
                rows.extend(
                    measured
                        .per_seed
                        .iter()
                        .map(|r| serde_json::to_string(r).unwrap()),
                );
            }
        }
        rows
    };
    assert_eq!(
        fingerprint(1),
        fingerprint(4),
        "plan outcomes must not depend on the thread count"
    );
}

/// The acceptance criterion: optimizing the endorser-outage example
/// reports the degradation, and the tuned configuration's re-measured
/// goodput (successes / requests) improves with a seed-paired Student-t
/// 95 % confidence interval excluding zero.
#[test]
fn tuned_outage_spec_improves_goodput_with_ci_excluding_zero() {
    let spec = example_spec("endorser_outage.json");
    let (plan, _) = OptimizationPlan::from_spec(&spec, &Analyzer::new()).unwrap();
    let outcome = plan
        .execute_spec_with(&spec, &PlanConfig::new(5, 4))
        .unwrap();

    // The baseline visibly degrades: retries, timeouts, and a per-window
    // breakdown of the injected outage.
    let deg = &outcome.baseline.primary().degradation;
    assert!(!deg.is_trivial(), "the outage must register: {deg:?}");
    assert!(deg.retries > 0 && deg.timeouts > 0);
    assert!(
        deg.windows.iter().any(|w| w.label.starts_with("outage")),
        "{:?}",
        deg.windows
    );

    // Goodput: seed-paired deltas of the combined tuned run vs baseline.
    let combined = outcome
        .combined
        .as_ref()
        .expect("resilience actions apply, so a combined run exists");
    let goodput = |r: &blockoptr::plan::SeedReport| r.successes as f64 / r.requests as f64;
    let deltas: Vec<f64> = combined
        .per_seed
        .iter()
        .zip(&outcome.baseline.per_seed)
        .map(|(tuned, base)| goodput(tuned) - goodput(base))
        .collect();
    let stats = MetricStats::of(&deltas);
    assert!(
        stats.mean > 0.0 && stats.mean - stats.ci95 > 0.0,
        "tuned goodput must improve with a CI excluding zero: \
         mean {:+.4} ± {:.4} over {} seeds ({deltas:?})",
        stats.mean,
        stats.ci95,
        deltas.len()
    );

    // The loop closes: a replayable tuned spec with a widened retry
    // budget comes back out.
    let tuned = &outcome.optimized_spec;
    assert_ne!(tuned.retry, spec.retry, "the retry policy was tuned");
    assert!(tuned.retry.max_attempts > spec.retry.max_attempts);
    tuned.build().expect("the tuned spec replays");
}

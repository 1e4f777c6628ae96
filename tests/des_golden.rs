//! Golden equivalence of the DES engine with the pre-DES seed engine.
//!
//! The event-driven core (ISSUE 6) rebuilt `fabric-sim`'s run loop from a
//! hand-rolled FIFO event match into `sim_core::des` handlers. The hard
//! migration constraint: under the default closed-loop [`ArrivalSpec`], the
//! same `ScenarioSpec` + seed must produce a **byte-identical log** to the
//! engine this PR started from. This suite pins that: the committed goldens
//! in `tests/goldens/closed_loop.json` were generated by the seed engine
//! *before* the refactor and are never regenerated alongside engine changes
//! casually — they are the migration safety net.
//!
//! Regenerate (only when a deliberate, documented behavior change is made):
//! `DES_GOLDEN_REGEN=1 cargo test --test des_golden`.

use workload::ScenarioSpec;

const TXS: usize = 800;
const SEEDS: [u64; 2] = [42, 1337];

/// FNV-1a 64-bit over the serialized ledger: cheap, dependency-free, and
/// any byte of drift in the committed chain (timestamps, statuses, order,
/// block boundaries) changes it.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

#[derive(Debug, PartialEq)]
struct Golden {
    scenario: String,
    seed: u64,
    ledger_hash: String,
    committed: usize,
    successes: usize,
    mvcc_conflicts: usize,
    blocks: usize,
    avg_latency_bits: u64,
    duration_bits: u64,
}

fn run_one(name: &str, seed: u64) -> Golden {
    let spec = ScenarioSpec::builtin(name)
        .unwrap()
        .with_transactions(TXS)
        .with_seed(seed);
    let (bundle, config) = spec.build().unwrap();
    let out = bundle.run(config);
    let ledger_json = serde_json::to_string(&out.ledger).expect("ledger serializes");
    Golden {
        scenario: name.to_string(),
        seed,
        ledger_hash: format!("{:016x}", fnv1a(ledger_json.as_bytes())),
        committed: out.report.committed,
        successes: out.report.successes,
        mvcc_conflicts: out.report.mvcc_conflicts,
        blocks: out.report.blocks,
        avg_latency_bits: out.report.avg_latency_s.to_bits(),
        duration_bits: out.report.duration_s.to_bits(),
    }
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/closed_loop.json")
}

fn render(goldens: &[Golden]) -> String {
    let mut out = String::from("[\n");
    for (i, g) in goldens.iter().enumerate() {
        out.push_str(&format!(
            "  {{ \"scenario\": \"{}\", \"seed\": {}, \"ledger_hash\": \"{}\", \
             \"committed\": {}, \"successes\": {}, \"mvcc_conflicts\": {}, \
             \"blocks\": {}, \"avg_latency_bits\": {}, \"duration_bits\": {} }}{}\n",
            g.scenario,
            g.seed,
            g.ledger_hash,
            g.committed,
            g.successes,
            g.mvcc_conflicts,
            g.blocks,
            g.avg_latency_bits,
            g.duration_bits,
            if i + 1 == goldens.len() { "" } else { "," }
        ));
    }
    out.push_str("]\n");
    out
}

fn parse(json: &str) -> Vec<Golden> {
    use serde_json::{Number, Value};
    let value = serde_json::value_from_str(json).expect("goldens parse");
    let Value::Array(rows) = value else {
        panic!("goldens file is not an array");
    };
    rows.iter()
        .map(|row| {
            let field = |name: &str| row.field(name).unwrap_or_else(|| panic!("missing {name}"));
            let as_u64 = |name: &str| match field(name) {
                Value::Number(Number::PosInt(n)) => *n,
                other => panic!("{name} is not a number: {other:?}"),
            };
            let as_str = |name: &str| match field(name) {
                Value::Str(s) => s.clone(),
                other => panic!("{name} is not a string: {other:?}"),
            };
            Golden {
                scenario: as_str("scenario"),
                seed: as_u64("seed"),
                ledger_hash: as_str("ledger_hash"),
                committed: as_u64("committed") as usize,
                successes: as_u64("successes") as usize,
                mvcc_conflicts: as_u64("mvcc_conflicts") as usize,
                blocks: as_u64("blocks") as usize,
                avg_latency_bits: as_u64("avg_latency_bits"),
                duration_bits: as_u64("duration_bits"),
            }
        })
        .collect()
}

/// Every builtin scenario × seeds {42, 1337}: the DES engine's closed-loop
/// `SimOutput` equals the seed engine's, byte for byte (the ledger hash
/// covers every envelope timestamp, status, and block boundary).
#[test]
fn closed_loop_logs_match_the_seed_engine() {
    let current: Vec<Golden> = workload::scenario::BUILTIN_NAMES
        .iter()
        .flat_map(|name| SEEDS.iter().map(move |&seed| run_one(name, seed)))
        .collect();

    let path = golden_path();
    #[expect(
        clippy::disallowed_methods,
        reason = "regenerating the golden is an explicit, manual opt-in"
    )]
    if std::env::var("DES_GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, render(&current)).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }

    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing goldens at {} ({e}); run with DES_GOLDEN_REGEN=1 once",
            path.display()
        )
    });
    let expected = parse(&committed);
    assert_eq!(expected.len(), current.len(), "golden row count");
    for (want, got) in expected.iter().zip(&current) {
        assert_eq!(
            want, got,
            "{} seed {}: the DES engine diverged from the seed engine's closed-loop log",
            got.scenario, got.seed
        );
    }
}

/// Every builtin scenario × seeds {42, 1337}: a report-only run (what the
/// plan grid runs) serializes byte-equal to the full run's report.
#[test]
fn report_only_runs_match_full_runs() {
    for name in workload::scenario::BUILTIN_NAMES {
        for seed in SEEDS {
            let spec = ScenarioSpec::builtin(name)
                .unwrap()
                .with_transactions(TXS)
                .with_seed(seed);
            let (bundle, config) = spec.build().unwrap();
            let full = serde_json::to_string(&bundle.run(config.clone()).report).unwrap();
            let report = serde_json::to_string(&bundle.run_report(config)).unwrap();
            assert_eq!(full, report, "{name} seed {seed}");
        }
    }
}

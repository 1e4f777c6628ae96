//! Property tests for the export formats: `to_json ∘ from_json = id` over
//! arbitrary records (including hostile strings), CSV shape invariants, and
//! the `AnalyzeError` path for malformed input.

use blockoptr::export::{from_json, to_csv, to_json, CSV_HEADER};
use blockoptr::log::{BlockchainLog, TxRecord};
use blockoptr::session::{AnalyzeError, Analyzer};
use fabric_sim::ledger::TxStatus;
use fabric_sim::rwset::{ReadWriteSet, Version};
use fabric_sim::types::{ClientId, OrgId, PeerId, TxType, Value};
use proptest::prelude::*;
use sim_core::time::SimTime;
use std::collections::BTreeMap;

/// Strings that stress both the JSON escaper and the CSV quoting rules.
fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("plain".to_string()),
        Just("with,comma".to_string()),
        Just("with \"quotes\"".to_string()),
        Just("line\nbreak\ttab".to_string()),
        Just("unicode → ∅ µs".to_string()),
        Just("back\\slash".to_string()),
        Just(String::new()),
        Just("k00042".to_string()),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Unit),
        (0u64..10_000).prop_map(|n| Value::Int(n as i64 - 5_000)),
        arb_name().prop_map(Value::Str),
        (0u64..5, arb_name()).prop_map(|(n, s)| {
            let mut m = BTreeMap::new();
            m.insert("count".to_string(), Value::Int(n as i64));
            m.insert("tag".to_string(), Value::Str(s));
            Value::Map(m)
        }),
        prop::collection::vec((0u64..100).prop_map(|n| Value::Int(n as i64)), 0..3)
            .prop_map(Value::List),
    ]
}

fn arb_status() -> impl Strategy<Value = TxStatus> {
    prop_oneof![
        Just(TxStatus::Success),
        Just(TxStatus::MvccReadConflict),
        Just(TxStatus::PhantomReadConflict),
        Just(TxStatus::EndorsementPolicyFailure),
    ]
}

fn arb_record() -> impl Strategy<Value = TxRecord> {
    (
        arb_name(),
        arb_name(),
        prop::collection::vec(arb_value(), 0..3),
        arb_status(),
        prop::collection::vec(0u16..4, 0..3),
        (0u64..1_000_000, 0u64..1_000_000),
        prop::collection::vec((arb_name(), arb_value()), 0..3),
    )
        .prop_map(
            |(contract, activity, args, status, endorser_orgs, (ts, dt), writes)| {
                let mut rwset = ReadWriteSet::new();
                for (key, value) in writes {
                    rwset.record_read(key.clone(), Some(Version::new(1, 0)));
                    rwset.record_write(key, Some(value));
                }
                TxRecord {
                    commit_index: 0,
                    block: 1 + ts % 7,
                    client_ts: SimTime::from_micros(ts),
                    commit_ts: SimTime::from_micros(ts + dt),
                    contract,
                    activity,
                    args,
                    endorsers: endorser_orgs
                        .into_iter()
                        .map(|org| PeerId {
                            org: OrgId(org),
                            index: 0,
                        })
                        .collect(),
                    invoker: ClientId {
                        org: OrgId(0),
                        index: 1,
                    },
                    rwset,
                    status,
                    tx_type: TxType::Read,
                }
            },
        )
}

fn arb_log() -> impl Strategy<Value = BlockchainLog> {
    prop::collection::vec(arb_record(), 0..20).prop_map(|mut records| {
        for (i, r) in records.iter_mut().enumerate() {
            r.commit_index = i;
        }
        let blocks = records.iter().map(|r| r.block).max().unwrap_or(0) as usize;
        BlockchainLog::from_records(records, blocks)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `from_json(to_json(log))` reproduces every record exactly.
    #[test]
    fn json_round_trip_is_identity(log in arb_log()) {
        let json = to_json(&log);
        let back = from_json(&json).expect("exported JSON parses");
        prop_assert_eq!(back.len(), log.len());
        prop_assert_eq!(back.block_count(), log.block_count());
        for (a, b) in log.records().iter().zip(back.records()) {
            prop_assert_eq!(a.commit_index, b.commit_index);
            prop_assert_eq!(a.block, b.block);
            prop_assert_eq!(a.client_ts, b.client_ts);
            prop_assert_eq!(a.commit_ts, b.commit_ts);
            prop_assert_eq!(&a.contract, &b.contract);
            prop_assert_eq!(&a.activity, &b.activity);
            prop_assert_eq!(&a.args, &b.args);
            prop_assert_eq!(&a.endorsers, &b.endorsers);
            prop_assert_eq!(a.invoker, b.invoker);
            prop_assert_eq!(&a.rwset, &b.rwset);
            prop_assert_eq!(a.status, b.status);
            prop_assert_eq!(a.tx_type, b.tx_type);
        }
    }

    /// CSV always has a header plus one line per record, and every line has
    /// the header's field count (respecting quoted fields).
    #[test]
    fn csv_shape_is_stable(log in arb_log()) {
        let csv = to_csv(&log);
        let lines: Vec<&str> = csv.split('\n').filter(|l| !l.is_empty()).collect();
        // Records with embedded newlines span lines, so count conservatively.
        prop_assert!(!lines.is_empty());
        prop_assert_eq!(lines[0], CSV_HEADER);
        let header_fields = CSV_HEADER.split(',').count();
        // Re-join and count unquoted commas per logical row.
        let body = &csv[CSV_HEADER.len() + 1..];
        if !body.is_empty() {
            let mut in_quotes = false;
            let mut fields = 1usize;
            let mut rows = Vec::new();
            for c in body.chars() {
                match c {
                    '"' => in_quotes = !in_quotes,
                    ',' if !in_quotes => fields += 1,
                    '\n' if !in_quotes => {
                        rows.push(fields);
                        fields = 1;
                    }
                    _ => {}
                }
            }
            prop_assert_eq!(rows.len(), log.len());
            for row_fields in rows {
                prop_assert_eq!(row_fields, header_fields);
            }
        }
    }

    /// Truncating exported JSON anywhere yields a typed error, never a
    /// panic or a silently wrong log.
    #[test]
    fn truncated_json_errors(cut in 1usize..400) {
        let log = BlockchainLog::from_records(
            vec![TxRecord {
                commit_index: 0,
                block: 1,
                client_ts: SimTime::from_micros(1),
                commit_ts: SimTime::from_micros(2),
                contract: "cc".into(),
                activity: "act".into(),
                args: vec![Value::Str("P0001".into())],
                endorsers: vec![],
                invoker: ClientId { org: OrgId(0), index: 0 },
                rwset: ReadWriteSet::new(),
                status: TxStatus::Success,
                tx_type: TxType::Read,
            }],
            1,
        );
        let json = to_json(&log);
        prop_assume!(cut < json.len());
        let mut truncated = json[..cut].to_string();
        while !truncated.is_char_boundary(truncated.len()) {
            truncated.pop();
        }
        let err = from_json(&truncated).expect_err("truncation must not parse");
        prop_assert!(matches!(err, AnalyzeError::Json(_)));
    }
}

#[test]
fn malformed_inputs_surface_typed_errors() {
    // Deep nesting overflowed the stack of the old recursive parser. Now a
    // bare `[[…]]` is a type error at byte 0, and nesting the log's types
    // allow (chaincode values) or a skipped unknown field stops at the
    // reader's nesting cap.
    let deep = "[".repeat(200_000);
    let deep_args = format!(
        "{{\"records\": [{{\"args\": [{}",
        "{\"List\": [".repeat(200_000)
    );
    let deep_unknown = format!("{{\"blocks\": 1, \"extra\": {}", "{\"k\": ".repeat(200_000));
    for bad in [
        "",
        "{",
        "not json at all",
        "[1, 2, 3]",
        "{\"records\": 5, \"blocks\": 1}",
        "{\"records\": [], \"blocks\": \"one\"}",
        "{\"records\": []}",
        &deep,
        &deep_args,
        &deep_unknown,
    ] {
        let err = from_json(bad).expect_err(bad);
        assert!(matches!(err, AnalyzeError::Json(_)), "{bad:.40?} → {err:?}");
        assert!(err.to_string().contains("malformed log JSON"), "{err}");
        assert!(err.to_string().contains(" at byte "), "{err}");
    }
    for deep in [&deep_args, &deep_unknown] {
        let err = from_json(deep).unwrap_err().to_string();
        assert!(err.contains("nesting deeper than 128 levels"), "{err}");
    }
}

/// Regression: the committed example log with one record's client
/// timestamp set to `u64::MAX` aborted the process — the dense rate series
/// tried to allocate one counter per second of the span. It is now a typed
/// error, raised before any state changes.
#[test]
fn analyze_json_rejects_an_implausible_timestamp_span() {
    let demo = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/demo_blocks.json"
    ));
    let (mut records, blocks) = from_json(demo).unwrap().into_records();
    records[1].client_ts = SimTime(u64::MAX);
    let mutated = to_json(&BlockchainLog::from_records(records, blocks));

    let err = Analyzer::new().analyze_json(&mutated).unwrap_err();
    assert!(
        matches!(err, AnalyzeError::TimestampSpan { last, .. } if last == SimTime(u64::MAX)),
        "{err:?}"
    );
    assert!(err.to_string().contains("implausible timestamp"), "{err}");
    assert!(Analyzer::new().analyze_json(demo).is_ok());
}

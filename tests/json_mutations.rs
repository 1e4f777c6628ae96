//! Deterministic mutation suite for the JSON inputs: exported logs and
//! scenario specs.
//!
//! The seeds are the committed `examples/*.json`. Each seed must first
//! round-trip byte-identically (`to_json(from_json(x)) == x`). Then a fixed
//! list of corruptions is applied: truncations, single-byte substitutions,
//! numeric extremes, duplicated keys and deep nesting. Every mutant must
//! end in a result or a typed error. Logs go through
//! `Analyzer::analyze_json`; specs through `ScenarioSpec::from_json`,
//! `validate`, and `build` with at most 2 000 transactions, and every spec
//! that builds is then simulated (`WorkloadBundle::run_report`).
//!
//! A panic fails the test with the mutant's label. An abort (stack
//! overflow, failed allocation) kills the binary, so CI runs it under a
//! virtual-memory limit, where an allocation sized by the input fails
//! instead of passing on a roomy machine.

use blockoptr::export::{from_json, to_json};
use blockoptr::Analyzer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use workload::{ScenarioSpec, WorkloadSpec};

const LOG: &str = include_str!("../examples/demo_blocks.json");

const SPECS: [(&str, &str); 3] = [
    ("demo_spec", include_str!("../examples/demo_spec.json")),
    (
        "endorser_outage",
        include_str!("../examples/endorser_outage.json"),
    ),
    (
        "open_loop_poisson",
        include_str!("../examples/open_loop_poisson.json"),
    ),
];

/// Seeds in a format from before the fault layer (no `fault` or `retry`;
/// `demo_spec` predates the open-loop layer too, so has no `arrival`).
/// Their first round trip adds those fields at their defaults; from then on
/// the text is a fixed point.
const LEGACY_SPECS: [&str; 2] = ["demo_spec", "open_loop_poisson"];

/// Spec builds stay small: larger schedules are clamped to this many
/// transactions before `build`.
const MAX_BUILD_TXS: usize = 2_000;

/// Replacement bytes for the single-byte substitutions: JSON structure,
/// an escape, number and literal starts, whitespace and a control byte.
const SUBSTITUTES: &[u8] = b"\"{}[],:\\-0nx \x01";

/// Replacement literals for the numeric extremes: zero, a negative, the
/// `u16`, `u32` and `u64` maxima, and a huge float.
const EXTREMES: [&str; 6] = [
    "0",
    "-1",
    "65535",
    "4294967295",
    "18446744073709551615",
    "1e308",
];

/// Nesting far past the reader's cap.
const DEEP: usize = 100_000;

/// A mutant: what was done, and the corrupted text.
type Mutant = (String, String);

/// Byte range `start..end` of a token.
type Span = (usize, usize);

/// The number tokens and object keys of `text`.
fn tokens(text: &str) -> (Vec<Span>, Vec<Span>) {
    let bytes = text.as_bytes();
    let (mut numbers, mut keys) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                let start = i;
                i += 1;
                while bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
                let next = text[i..].trim_start().as_bytes().first();
                if next == Some(&b':') {
                    keys.push((start, i));
                }
            }
            b'-' | b'0'..=b'9' => {
                let start = i;
                while i < bytes.len()
                    && matches!(bytes[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    i += 1;
                }
                numbers.push((start, i));
            }
            _ => i += 1,
        }
    }
    (numbers, keys)
}

/// `count` items spread evenly over `items`.
fn spread<T: Copy>(items: &[T], count: usize) -> Vec<T> {
    if items.len() <= count {
        return items.to_vec();
    }
    (0..count).map(|k| items[k * items.len() / count]).collect()
}

fn splice(text: &str, start: usize, end: usize, with: &str) -> String {
    format!("{}{with}{}", &text[..start], &text[end..])
}

/// The fixed mutation list for one seed.
fn mutants(text: &str, numbers_per_seed: usize) -> Vec<Mutant> {
    let mut out = Vec::new();
    let len = text.len();
    for k in 1..=40 {
        let cut = len * k / 41;
        if text.is_char_boundary(cut) {
            out.push((format!("truncated at {cut}"), text[..cut].to_string()));
        }
    }
    for k in 0..32 {
        let at = (len - 1) * k / 31;
        let original = text.as_bytes()[at];
        if !original.is_ascii() {
            continue;
        }
        for &b in SUBSTITUTES.iter().filter(|&&b| b != original) {
            let mut bytes = text.as_bytes().to_vec();
            bytes[at] = b;
            let mutant = String::from_utf8(bytes).expect("an ASCII byte for an ASCII byte");
            out.push((format!("byte {at} set to {:?}", b as char), mutant));
        }
    }
    let (numbers, keys) = tokens(text);
    for (start, end) in spread(&numbers, numbers_per_seed) {
        for extreme in EXTREMES {
            out.push((
                format!("number {} at {start} set to {extreme}", &text[start..end]),
                splice(text, start, end, extreme),
            ));
        }
    }
    // One duplicate per distinct key, holding an object: after the first
    // use where the entry is followed by another (a struct keeps the first
    // and skips the duplicate), before it otherwise.
    let mut seen = Vec::new();
    for (start, end) in keys {
        let key = &text[start..end];
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let line_end = text[start..].find('\n').map_or(len, |n| start + n);
        let at = if text[..line_end].ends_with(',') {
            line_end
        } else {
            start
        };
        out.push((
            format!("duplicate {key} at {at}"),
            splice(text, at, at, &format!(" {key}: {{\"dup\": [null]}},")),
        ));
    }
    // Deep nesting at value positions: bare arrays, and objects under a
    // key no type knows (skipped, but still checked).
    let values: Vec<usize> = text.match_indices(": ").map(|(i, _)| i + 2).collect();
    for at in spread(&values, 4).into_iter().chain([0]) {
        out.push((
            format!("{DEEP} arrays at {at}"),
            splice(text, at, at, &"[".repeat(DEEP)),
        ));
        out.push((
            format!("{DEEP} objects at {at}"),
            splice(text, at, at, &"{\"x\": ".repeat(DEEP)),
        ));
    }
    out
}

/// Run every mutant through `check`, collecting the labels of those that
/// panicked.
fn run(seed: &str, mutants: Vec<Mutant>, check: impl Fn(&str)) -> Vec<String> {
    let mut panicked = Vec::new();
    for (label, text) in mutants {
        if catch_unwind(AssertUnwindSafe(|| check(&text))).is_err() {
            panicked.push(format!("{seed}: {label}"));
        }
    }
    panicked
}

/// The spec with its generator scaled down to [`MAX_BUILD_TXS`].
fn clamped(spec: ScenarioSpec) -> ScenarioSpec {
    let txs = match &spec.workload {
        WorkloadSpec::Synthetic(cv) => cv.transactions,
        WorkloadSpec::Scm(s) => s.transactions,
        WorkloadSpec::Drm(s) => s.transactions,
        WorkloadSpec::Ehr(s) => s.transactions,
        WorkloadSpec::Dv(s) => s.queries.saturating_add(s.votes),
        WorkloadSpec::Lap(s) => s.applications.saturating_mul(10),
        WorkloadSpec::Schedule(_) => 0,
    };
    if txs > MAX_BUILD_TXS {
        spec.with_transactions(MAX_BUILD_TXS)
    } else {
        spec
    }
}

/// Parse errors must say where they are.
fn assert_positioned(error: &str) {
    if error.starts_with("malformed") {
        assert!(error.contains(" at byte "), "unpositioned: {error}");
    }
}

#[test]
fn seeds_round_trip_byte_identically() {
    let log = from_json(LOG).expect("example log parses");
    assert_eq!(to_json(&log), LOG.trim_end());
    for (name, text) in SPECS {
        let spec = ScenarioSpec::from_json(text).expect(name);
        spec.validate().expect(name);
        let json = spec.to_json();
        if !LEGACY_SPECS.contains(&name) {
            assert_eq!(json, text.trim_end(), "{name}");
        }
        let again = ScenarioSpec::from_json(&json).expect(name);
        assert_eq!(again, spec, "{name}");
        assert_eq!(again.to_json(), json, "{name}");
    }
}

#[test]
fn mutated_logs_end_in_a_result_or_a_typed_error() {
    let panicked = run("demo_blocks", mutants(LOG, 32), |text| {
        if let Err(e) = Analyzer::new().analyze_json(text) {
            assert_positioned(&e.to_string());
        }
    });
    assert!(panicked.is_empty(), "mutants that panicked: {panicked:#?}");
}

#[test]
fn mutated_specs_end_in_a_result_or_a_typed_error() {
    let mut panicked = Vec::new();
    for (name, text) in SPECS {
        panicked.extend(run(name, mutants(text, usize::MAX), |text| {
            let outcome = ScenarioSpec::from_json(text).and_then(|spec| {
                spec.validate()?;
                let (bundle, config) = clamped(spec).build()?;
                bundle.run_report(config);
                Ok(())
            });
            if let Err(e) = outcome {
                assert_positioned(&e.to_string());
            }
        }));
    }
    assert!(panicked.is_empty(), "mutants that panicked: {panicked:#?}");
}

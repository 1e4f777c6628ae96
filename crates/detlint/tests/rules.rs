//! Per-rule fixture tests: every committed `fixtures/bad/<rule>.rs` trips
//! exactly the rule its filename names, every `fixtures/good/<rule>.rs`
//! scans clean — the same contract `detlint --fixtures` enforces from the
//! CLI.

use std::path::{Path, PathBuf};

use detlint::{fixtures_selftest, RuleSet, Scanner, SourceFile};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn scan_fixture(sub: &str, stem: &str) -> detlint::Report {
    let path = fixtures_dir().join(sub).join(format!("{stem}.rs"));
    let contents = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    let file = SourceFile::parse(&format!("{sub}/{stem}.rs"), &contents);
    Scanner::determinism().scan_sources([&file])
}

const RULE_STEMS: &[&str] = &[
    "hash_iter",
    "no_unwrap",
    "float_eq",
    "waiver_syntax",
    "rng_stream",
    "spec_validate",
    "swallow_result",
    "transitive_wall_clock",
];

/// Cross-file mini-workspace cases under `fixtures/ws/{bad,good}/`.
const WS_CASES: usize = 8;

#[test]
fn every_bad_fixture_trips_its_rule() {
    for stem in RULE_STEMS {
        let rule = stem.replace('_', "-");
        let report = scan_fixture("bad", stem);
        assert!(
            report.findings.iter().any(|f| f.rule == rule),
            "bad/{stem}.rs produced no `{rule}` finding; got: {:?}",
            report.findings
        );
    }
}

#[test]
fn every_good_fixture_scans_clean() {
    for stem in RULE_STEMS {
        let report = scan_fixture("good", stem);
        assert!(
            report.clean(),
            "good/{stem}.rs should be clean; got: {:?}",
            report.findings
        );
    }
}

#[test]
fn selftest_passes_on_committed_fixtures() {
    let transcript = fixtures_selftest(&fixtures_dir(), &RuleSet::determinism())
        .unwrap_or_else(|t| panic!("fixture self-test failed:\n{t}"));
    // One PASS line per single-file fixture (bad and good) plus one per
    // cross-file mini-workspace case.
    assert_eq!(
        transcript.lines().filter(|l| l.starts_with("PASS")).count(),
        2 * RULE_STEMS.len() + WS_CASES,
        "{transcript}"
    );
}

#[test]
fn waiver_silences_a_bad_fixture_finding() {
    // Take the bad no-unwrap fixture and add a well-formed waiver: the
    // finding must disappear and the waiver must be counted.
    let path = fixtures_dir().join("bad/no_unwrap.rs");
    let contents = std::fs::read_to_string(path).expect("fixture exists");
    let waived = contents.replace(
        "\n    s.parse",
        "\n    // detlint: allow(no-unwrap, reason = \"fixture demo\")\n    s.parse",
    );
    let file = SourceFile::parse("bad/no_unwrap.rs", &waived);
    let report = Scanner::determinism().scan_sources([&file]);
    // Only the (unwaived) message-less expect survives.
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert!(report.findings[0].snippet.contains("expect"));
    assert_eq!(report.waivers, 1);
}

#[test]
fn findings_carry_position_rule_and_snippet() {
    let report = scan_fixture("bad", "float_eq");
    let f = report
        .findings
        .iter()
        .find(|f| f.rule == "float-eq")
        .expect("float-eq finding");
    assert_eq!(f.file, "bad/float_eq.rs");
    assert!(f.line >= 1 && f.col >= 1);
    assert!(f.snippet.contains("0.0"), "{f:?}");
    let rendered = f.to_string();
    assert!(
        rendered.starts_with("bad/float_eq.rs:"),
        "diagnostics lead with file:line:col — {rendered}"
    );
}

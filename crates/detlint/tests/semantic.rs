//! End-to-end acceptance tests for the semantic (workspace-level) rules:
//! the exact workflows the issue tracker cares about, driven through the
//! public `Scanner` API the CLI uses.

use std::path::{Path, PathBuf};

use detlint::{waiver_audit, Scanner, SourceFile};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn read_fixture(rel: &str) -> String {
    let path = fixtures_dir().join(rel);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()))
}

/// The headline spec-validate workflow: take a spec that scans clean, add
/// a field without touching validate(), and the scan names the gap by its
/// dotted path.
#[test]
fn adding_a_spec_field_without_validate_is_flagged() {
    let clean = read_fixture("good/spec_validate.rs");
    let file = SourceFile::parse("crates/demo/src/spec.rs", &clean);
    let report = Scanner::determinism().scan_sources([&file]);
    assert!(
        report.clean(),
        "baseline fixture must be clean:\n{report:?}"
    );

    // Sneak a new field into RunSpec without telling validate() about it.
    let grown = clean.replace("pub rate: f64,", "pub rate: f64,\n    pub surge_cap: f64,");
    assert_ne!(grown, clean, "fixture layout changed; update this test");
    let file = SourceFile::parse("crates/demo/src/spec.rs", &grown);
    let report = Scanner::determinism().scan_sources([&file]);
    let finding = report
        .findings
        .iter()
        .find(|f| f.rule == "spec-validate")
        .unwrap_or_else(|| panic!("new field must be flagged:\n{report:?}"));
    assert!(
        finding.message.contains("RunSpec.surge_cap"),
        "finding names the dotted path: {}",
        finding.message
    );
}

/// Cross-file variant: the field lives in one crate, the validate() that
/// should mention it in another.
#[test]
fn cross_file_spec_gap_is_flagged_in_the_declaring_file() {
    let root = fixtures_dir().join("ws/bad/spec-validate-missing");
    let report = Scanner::determinism()
        .scan_tree(&root)
        .expect("mini-workspace scans");
    let finding = report
        .findings
        .iter()
        .find(|f| f.rule == "spec-validate")
        .unwrap_or_else(|| panic!("gap must be flagged:\n{report:?}"));
    assert!(
        finding.file.ends_with("crates/core/src/fault.rs"),
        "finding anchors at the field declaration: {}",
        finding.file
    );
    assert!(
        finding.message.contains("DropSpec.ghost"),
        "finding names the dotted path: {}",
        finding.message
    );
}

/// The rng-stream dup check points at the *second* draw site, resolved
/// across files.
#[test]
fn duplicate_stream_draw_site_is_flagged_at_the_interposer() {
    let root = fixtures_dir().join("ws/bad/rng-stream-dup");
    let report = Scanner::determinism()
        .scan_tree(&root)
        .expect("mini-workspace scans");
    let finding = report
        .findings
        .iter()
        .find(|f| f.rule == "rng-stream")
        .unwrap_or_else(|| panic!("dup draw site must be flagged:\n{report:?}"));
    assert!(
        finding.file.ends_with("crates/load/src/other.rs"),
        "first declared site is legal, the interposer is not: {}",
        finding.file
    );
    assert!(
        finding.message.contains("SHARED_STREAM"),
        "{}",
        finding.message
    );
}

/// transitive-wall-clock renders the call chain from the event loop to
/// the seam so the report is actionable without re-deriving reachability.
#[test]
fn wall_clock_finding_renders_the_call_chain() {
    let root = fixtures_dir().join("ws/bad/transitive-wall-clock-cross");
    let report = Scanner::determinism()
        .scan_tree(&root)
        .expect("mini-workspace scans");
    let finding = report
        .findings
        .iter()
        .find(|f| f.rule == "transitive-wall-clock")
        .unwrap_or_else(|| panic!("seam reach must be flagged:\n{report:?}"));
    assert!(
        finding.message.contains("Simulation::run")
            && finding.message.contains("→")
            && finding.message.contains("measure"),
        "chain is rendered root → … → sink: {}",
        finding.message
    );
}

/// Waiver audit: a waiver whose rule still fires is live; one whose rule
/// no longer fires on the covered lines is stale.
#[test]
fn waiver_audit_distinguishes_live_from_stale() {
    let live = "\
// detlint: allow(no-unwrap, reason = \"demo input\")
pub fn parse(s: &str) -> u64 { s.parse().unwrap() }
";
    let stale = "\
// detlint: allow(no-unwrap, reason = \"left behind after a refactor\")
pub fn quiet() -> u64 { 7 }
";
    let files = [
        SourceFile::parse("crates/demo/src/live.rs", live),
        SourceFile::parse("crates/demo/src/stale.rs", stale),
    ];
    let audit = waiver_audit(&files, &detlint::RuleSet::determinism());
    assert_eq!(audit.entries.len(), 2, "{}", audit.render());
    assert_eq!(audit.stale_count(), 1, "{}", audit.render());
    let stale_entry = audit
        .entries
        .iter()
        .find(|e| !e.stale.is_empty())
        .expect("one stale entry");
    assert!(stale_entry.file.ends_with("stale.rs"));
    assert_eq!(stale_entry.stale, ["no-unwrap"]);
    let rendered = audit.render();
    assert!(rendered.contains("STALE"), "{rendered}");
}

//! The meta-test: detlint runs clean over the real workspace tree.
//!
//! This is the ratchet that keeps the invariants enforced — any new hash
//! iteration, float equality, bare unwrap, swallowed Result, unvalidated
//! spec field, off-stream RNG derivation, or event-loop path to host time
//! anywhere in the workspace fails `cargo test` here, not just the CI lint
//! job. (The per-file invariants clippy checks fail `cargo clippy`.)

use std::path::{Path, PathBuf};

use detlint::{load_tree, waiver_audit, RuleSet, Scanner};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn workspace_scans_clean() {
    let report = Scanner::determinism()
        .scan_tree(&workspace_root())
        .expect("workspace scan succeeds");
    assert!(report.files_scanned > 30, "walker saw the whole tree");
    assert!(
        report.clean(),
        "detlint found {} violation(s) in the workspace:\n{}",
        report.findings.len(),
        report.render()
    );
}

#[test]
fn workspace_has_no_stale_waivers() {
    let sources = load_tree(&workspace_root()).expect("workspace loads");
    let audit = waiver_audit(&sources, &RuleSet::determinism());
    assert_eq!(
        audit.stale_count(),
        0,
        "stale waivers — delete the dead allow() comments:\n{}",
        audit.render()
    );
}

//! # detlint
//!
//! Project-specific static analysis for the BlockOptR reproduction: the
//! determinism and robustness invariants the golden tests only *sample*
//! (byte-identical `SimOutput` at any thread count, sim-time-only logic in
//! the DES core, panic-free libraries, spec → bundle → spec identity) are
//! enforced here as source-level lint rules, so the hazard classes are
//! provably absent rather than merely unobserved on two seeds and two pool
//! widths. The per-file invariants clippy can check with type information
//! (host-clock types, raw threads, environment reads, printing from a
//! library, `#[allow]` without a reason) are clippy's job instead, set up
//! in the root `clippy.toml` and `[workspace.lints.clippy]`; detlint holds
//! the rules clippy has no counterpart for.
//!
//! The catalogue is fixed: [`RuleSet::determinism`] lists the seven
//! one-module-per-rule [`LintRule`]s, findings are attributed by stable
//! kebab-case id, and a scan can disable single rules. The input is the
//! workspace source tree, lexed by a hand-rolled, dependency-free Rust
//! lexer ([`lexer`]) that understands comments, strings, raw strings, and
//! `#[cfg(test)]` / `mod tests` suppression.
//!
//! Individual sites opt out with an inline waiver that **must** carry a
//! reason:
//!
//! ```text
//! // detlint: allow(hash-iter, reason = "retain predicate is order-independent")
//! ```
//!
//! A waiver without a reason (or with an empty one) is itself a finding
//! under the always-on `waiver-syntax` pseudo-rule.
//!
//! ## Scanning
//!
//! A [`Scanner`] runs the catalogue over parsed sources; `without` switches
//! one rule off by id (the binary's `--disable`):
//!
//! ```
//! use detlint::{RuleSet, Scanner, SourceFile};
//!
//! let file = SourceFile::parse("crates/fabric-sim/src/x.rs", "fn f() { g().unwrap(); }");
//! let report = Scanner::determinism().scan_sources([&file]);
//! assert_eq!(report.findings.len(), 1);
//! assert_eq!(report.findings[0].rule, "no-unwrap");
//!
//! let lenient = Scanner::new(RuleSet::determinism().without("no-unwrap"));
//! assert!(lenient.scan_sources([&file]).clean());
//! ```

// Library output belongs in return values; stdout and stderr belong to the
// binaries. (Unit tests may print: see `clippy.toml`.)
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod index;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod source;

pub use index::Workspace;
pub use rules::{Finding, LintRule, RuleCtx, RuleSet};
pub use source::{FileClass, SourceFile, Waiver};

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};

/// The id under which malformed waiver comments are reported. Always on:
/// it cannot be disabled or waived (a broken waiver must never silence
/// itself).
pub const WAIVER_SYNTAX: &str = "waiver-syntax";

/// Outcome of one scan.
#[derive(Debug)]
pub struct Report {
    /// Surviving findings, sorted by (file, line, col, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of well-formed waivers encountered (applied or not).
    pub waivers: usize,
}

impl Report {
    /// Whether the scan found nothing.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable rendering (one block per finding plus a summary).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        if self.findings.is_empty() {
            out.push_str(&format!(
                "detlint: clean — {} file(s), {} waiver(s)\n",
                self.files_scanned, self.waivers
            ));
        } else {
            out.push_str(&format!(
                "detlint: {} finding(s) in {} file(s) ({} waiver(s) applied elsewhere)\n",
                self.findings.len(),
                self.files_scanned,
                self.waivers
            ));
        }
        out
    }

    /// Machine-readable rendering (deterministic key order, sorted
    /// findings).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"file\":\"{}\",\"line\":{},\"col\":{},\"rule\":\"{}\",\"crate\":\"{}\",\"message\":\"{}\",\"snippet\":\"{}\"}}",
                json_escape(&f.file),
                f.line,
                f.col,
                json_escape(&f.rule),
                json_escape(&f.krate),
                json_escape(&f.message),
                json_escape(&f.snippet),
            ));
        }
        out.push_str(&format!(
            "],\"files_scanned\":{},\"waivers\":{}}}",
            self.files_scanned, self.waivers
        ));
        out
    }

    /// GitHub Actions annotation rendering: one
    /// `::error file=…,line=…,col=…::message` per finding, so findings
    /// surface inline on the PR diff. Clean scans produce a single
    /// `::notice` summary line.
    pub fn to_github(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "::error file={},line={},col={}::[{}] {}\n",
                github_escape_property(&f.file),
                f.line,
                f.col,
                f.rule,
                github_escape_data(&format!("{} | {}", f.message, f.snippet)),
            ));
        }
        if self.findings.is_empty() {
            out.push_str(&format!(
                "::notice::detlint clean — {} file(s), {} waiver(s)\n",
                self.files_scanned, self.waivers
            ));
        }
        out
    }
}

/// Escape a GitHub annotation *property* value (file=): `%`, `\r`, `\n`,
/// plus the property separators `,` and `:`.
fn github_escape_property(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
        .replace(':', "%3A")
        .replace(',', "%2C")
}

/// Escape a GitHub annotation *message*: `%`, `\r`, `\n`.
fn github_escape_data(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Directory names never scanned: third-party shims, build output, VCS
/// internals, and the linter's own known-bad fixtures.
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", "fixtures", "node_modules"];

/// The scan driver: a [`RuleSet`] applied over parsed sources, with waiver
/// filtering.
#[derive(Debug, Clone)]
pub struct Scanner {
    rules: RuleSet,
}

impl Scanner {
    /// A scanner over `rules`.
    pub fn new(rules: RuleSet) -> Scanner {
        Scanner { rules }
    }

    /// The default scanner: the full determinism catalogue.
    pub fn determinism() -> Scanner {
        Scanner::new(RuleSet::determinism())
    }

    /// Scan already-parsed sources. Per-file rules run first, then the
    /// workspace is indexed (symbol table + call graph) and each rule's
    /// [`check_workspace`](LintRule::check_workspace) hook runs over it.
    /// Waived findings are dropped (workspace findings are waiver-filtered
    /// by the file and line they name), and malformed waivers surface as
    /// [`WAIVER_SYNTAX`] findings.
    pub fn scan_sources<'a>(&self, files: impl IntoIterator<Item = &'a SourceFile>) -> Report {
        let files: Vec<&SourceFile> = files.into_iter().collect();
        let mut findings: Vec<Finding> = Vec::new();
        let mut waivers = 0usize;
        for file in &files {
            waivers += file.waiver_list.len();
            let ctx = RuleCtx { file };
            for rule in self.rules.enabled() {
                for finding in rule.check(&ctx) {
                    if !file.is_waived(rule.id(), finding.line) {
                        findings.push(finding);
                    }
                }
            }
            for bad in &file.bad_waivers {
                findings.push(Finding {
                    file: file.path.clone(),
                    line: bad.line,
                    col: bad.col,
                    rule: WAIVER_SYNTAX.to_string(),
                    krate: file.krate.clone(),
                    message: format!(
                        "malformed waiver: {} — syntax is `detlint: allow(rule-id, reason = \"…\")`",
                        bad.problem
                    ),
                    snippet: file.line_text(bad.line).trim().to_string(),
                });
            }
        }
        let by_path: BTreeMap<&str, &SourceFile> =
            files.iter().map(|f| (f.path.as_str(), *f)).collect();
        let ws = Workspace::build(files.clone());
        for rule in self.rules.enabled() {
            for finding in rule.check_workspace(&ws) {
                let waived = by_path
                    .get(finding.file.as_str())
                    .map(|f| f.is_waived(rule.id(), finding.line))
                    .unwrap_or(false);
                if !waived {
                    findings.push(finding);
                }
            }
        }
        findings.sort();
        Report {
            findings,
            files_scanned: files.len(),
            waivers,
        }
    }

    /// Walk `root`, parse every `.rs` file (skipping vendor/, target/, fixtures/, .git), scan.
    pub fn scan_tree(&self, root: &Path) -> io::Result<Report> {
        let sources = load_tree(root)?;
        Ok(self.scan_sources(sources.iter()))
    }
}

/// Walk `root` and parse every `.rs` file (skipping vendor/, target/,
/// fixtures/, .git) into [`SourceFile`]s, sorted by path.
pub fn load_tree(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    collect_rs_files(root, root, &mut paths)?;
    paths.sort();
    let mut sources = Vec::with_capacity(paths.len());
    for p in &paths {
        let contents = std::fs::read_to_string(root.join(p))?;
        sources.push(SourceFile::parse(
            &p.to_string_lossy().replace('\\', "/"),
            &contents,
        ));
    }
    Ok(sources)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().to_string())
            .unwrap_or_default();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|_| io::Error::other("path not under scan root"))?;
            out.push(rel.to_path_buf());
        }
    }
    Ok(())
}

/// Walk upward from `start` to the workspace root (the first directory
/// whose `Cargo.toml` declares `[workspace]`).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// One inline waiver, as listed by the audit: where it is, what it
/// waives, why — and which of its rules are stale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEntry {
    /// Workspace-relative path of the file carrying the waiver.
    pub file: String,
    /// 1-based line of the waiver comment.
    pub line: u32,
    /// Rule ids the waiver names.
    pub rules: Vec<String>,
    /// The stated reason.
    pub reason: String,
    /// The subset of `rules` that no longer fire on the lines this waiver
    /// covers — dead weight that should be deleted.
    pub stale: Vec<String>,
}

/// Outcome of `--waiver-audit`: every inline waiver in the tree, with
/// staleness computed against an unwaived scan.
#[derive(Debug)]
pub struct AuditReport {
    /// All well-formed waivers, sorted by (file, line).
    pub entries: Vec<AuditEntry>,
}

impl AuditReport {
    /// Number of (waiver, rule) pairs that are stale.
    pub fn stale_count(&self) -> usize {
        self.entries.iter().map(|e| e.stale.len()).sum()
    }

    /// Human-readable listing: one line per waiver, stale rules flagged.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!(
                "{}:{} allow({}) reason = \"{}\"",
                e.file,
                e.line,
                e.rules.join(", "),
                e.reason
            ));
            if !e.stale.is_empty() {
                out.push_str(&format!("  ⚠ STALE: {}", e.stale.join(", ")));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "detlint: {} waiver(s), {} stale rule reference(s)\n",
            self.entries.len(),
            self.stale_count()
        ));
        out
    }
}

/// Audit every inline waiver in `files`: list file/rules/reason, and flag
/// waivers whose rule no longer fires on the lines they cover (computed
/// by re-running all of `rules` with waivers ignored).
pub fn waiver_audit(files: &[SourceFile], rules: &RuleSet) -> AuditReport {
    // Raw findings: no waiver filtering.
    let mut raw: BTreeSet<(String, String, u32)> = BTreeSet::new();
    for file in files {
        let ctx = RuleCtx { file };
        for rule in rules.enabled() {
            for f in rule.check(&ctx) {
                raw.insert((f.rule, f.file, f.line));
            }
        }
    }
    let ws = Workspace::build(files.iter().collect());
    for rule in rules.enabled() {
        for f in rule.check_workspace(&ws) {
            raw.insert((f.rule, f.file, f.line));
        }
    }
    let mut entries = Vec::new();
    for file in files {
        for w in &file.waiver_list {
            // A waiver covers its own line, plus the next line when the
            // comment sits alone (mirrors `SourceFile` waiver scoping).
            let mut covered = vec![w.line];
            if !file.has_code_on(w.line) {
                covered.push(w.line + 1);
            }
            let stale: Vec<String> = w
                .rules
                .iter()
                .filter(|r| {
                    !covered
                        .iter()
                        .any(|&l| raw.contains(&(r.to_string(), file.path.clone(), l)))
                })
                .cloned()
                .collect();
            entries.push(AuditEntry {
                file: file.path.clone(),
                line: w.line,
                rules: w.rules.clone(),
                reason: w.reason.clone(),
                stale,
            });
        }
    }
    entries.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    AuditReport { entries }
}

/// Run the committed fixture suite: every `bad/<rule>.rs` must trip the
/// rule its filename names, every `good/<rule>.rs` must scan clean
/// (waivers included). Returns a human-readable transcript, or the same
/// transcript as an error when any expectation fails.
pub fn fixtures_selftest(fixtures_dir: &Path, rules: &RuleSet) -> Result<String, String> {
    let scanner = Scanner::new(rules.clone());
    let mut out = String::new();
    let mut failed = false;
    for (sub, expect_bad) in [("bad", true), ("good", false)] {
        let dir = fixtures_dir.join(sub);
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
            .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().map(|x| x == "rs").unwrap_or(false))
            .collect();
        entries.sort();
        for path in entries {
            let stem = path
                .file_stem()
                .map(|s| s.to_string_lossy().to_string())
                .unwrap_or_default();
            let rule_id = stem.replace('_', "-");
            let contents = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            // Fixtures parse under a synthetic library path so every rule
            // sees its strictest scope.
            let file = SourceFile::parse(&format!("{sub}/{stem}.rs"), &contents);
            let report = scanner.scan_sources([&file]);
            let hits = report.findings.iter().filter(|f| f.rule == rule_id).count();
            let ok = if expect_bad { hits > 0 } else { report.clean() };
            if !ok {
                failed = true;
            }
            out.push_str(&format!(
                "{} {}/{}.rs — {} finding(s) of `{}`, {} total\n",
                if ok { "PASS" } else { "FAIL" },
                sub,
                stem,
                hits,
                rule_id,
                report.findings.len()
            ));
            if !ok && !report.findings.is_empty() {
                for f in &report.findings {
                    out.push_str(&format!(
                        "    unexpected: {}:{} [{}] {}\n",
                        f.line, f.col, f.rule, f.message
                    ));
                }
            }
        }
    }
    // Cross-file cases: each `ws/{bad,good}/<case>/` directory is a
    // mini-workspace scanned as a whole, so symbol-index and call-graph
    // rules get exercised across file boundaries. The case name's longest
    // rule-id prefix names the rule a bad case must trip.
    for (sub, expect_bad) in [("bad", true), ("good", false)] {
        let dir = fixtures_dir.join("ws").join(sub);
        let mut cases: Vec<PathBuf> = match std::fs::read_dir(&dir) {
            Ok(entries) => entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.is_dir())
                .collect(),
            Err(e) => return Err(format!("cannot read {}: {e}", dir.display())),
        };
        cases.sort();
        for case in cases {
            let case_name = case
                .file_name()
                .map(|s| s.to_string_lossy().to_string())
                .unwrap_or_default();
            let rule_id = match longest_rule_prefix(&case_name, rules) {
                Some(id) => id,
                None => {
                    failed = true;
                    out.push_str(&format!(
                        "FAIL ws/{sub}/{case_name}/ — no registered rule id prefixes the case name\n"
                    ));
                    continue;
                }
            };
            let report = match scanner.scan_tree(&case) {
                Ok(r) => r,
                Err(e) => {
                    failed = true;
                    out.push_str(&format!("FAIL ws/{sub}/{case_name}/ — scan error: {e}\n"));
                    continue;
                }
            };
            let hits = report.findings.iter().filter(|f| f.rule == rule_id).count();
            let ok = if expect_bad { hits > 0 } else { report.clean() };
            if !ok {
                failed = true;
            }
            out.push_str(&format!(
                "{} ws/{sub}/{case_name}/ — {hits} finding(s) of `{rule_id}`, {} total across {} file(s)\n",
                if ok { "PASS" } else { "FAIL" },
                report.findings.len(),
                report.files_scanned,
            ));
            if !ok && !report.findings.is_empty() {
                for f in &report.findings {
                    out.push_str(&format!(
                        "    unexpected: {}:{}:{} [{}] {}\n",
                        f.file, f.line, f.col, f.rule, f.message
                    ));
                }
            }
        }
    }
    if failed {
        Err(out)
    } else {
        Ok(out)
    }
}

/// The longest registered rule id that prefixes `case` (kebab-case), so
/// `rng-stream-dup` maps to `rng-stream` even though `rng` alone is no
/// rule.
fn longest_rule_prefix(case: &str, rules: &RuleSet) -> Option<String> {
    rules
        .enabled()
        .map(|r| r.id())
        .filter(|id| case == *id || case.starts_with(&format!("{id}-")))
        .max_by_key(|id| id.len())
        .map(|id| id.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_deterministic_and_escaped() {
        let file = SourceFile::parse(
            "crates/fabric-sim/src/x.rs",
            "fn f() { g(\"a\\\"b\").unwrap(); }",
        );
        let scanner = Scanner::determinism();
        let a = scanner.scan_sources([&file]).to_json();
        let b = scanner.scan_sources([&file]).to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"rule\":\"no-unwrap\""), "{a}");
        assert!(a.contains("\\\""), "escapes quotes: {a}");
    }

    #[test]
    fn disabled_rule_is_silent() {
        let file = SourceFile::parse("crates/fabric-sim/src/x.rs", "fn f() { g().unwrap(); }");
        let on = Scanner::determinism().scan_sources([&file]);
        let off = Scanner::new(RuleSet::determinism().without("no-unwrap")).scan_sources([&file]);
        assert_eq!(on.findings.len(), 1);
        assert!(off.clean());
    }

    #[test]
    fn waiver_syntax_cannot_be_waived() {
        let src = "// detlint: allow(no-unwrap)\nfn f() {}\n";
        let file = SourceFile::parse("crates/fabric-sim/src/x.rs", src);
        let report = Scanner::determinism().scan_sources([&file]);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, WAIVER_SYNTAX);
    }
}

//! The per-file scan unit: tokens, classification, and waivers.

use crate::lexer::{self, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// How a file participates in the build — rules scope themselves by class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Non-test library source (`crates/<c>/src/**`, the facade `src/`).
    Library,
    /// Binary targets (`src/bin/**`, `src/main.rs`).
    Bin,
    /// The bench crate and `benches/` targets: the sanctioned wall-clock /
    /// output side of the workspace.
    Bench,
    /// Integration tests (`tests/**`) and `examples/**`.
    Test,
}

/// One parsed waiver comment:
/// `// detlint: allow(rule-id[, rule-id…], reason = "non-empty text")`.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// The rule ids this waiver silences.
    pub rules: Vec<String>,
    /// The mandatory human reason.
    pub reason: String,
    /// Line the waiver comment sits on.
    pub line: u32,
}

/// A waiver comment that failed to parse (reported as a finding by the
/// scanner under the always-on `waiver-syntax` rule).
#[derive(Debug, Clone)]
pub struct BadWaiver {
    /// Line of the malformed comment.
    pub line: u32,
    /// Column of the comment token.
    pub col: u32,
    /// What is wrong with it.
    pub problem: String,
}

/// A lexed, classified source file ready for the rules.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path (display form, `/`-separated).
    pub path: String,
    /// The crate this file belongs to (directory under `crates/`, or the
    /// facade crate name for root `src/`; fixtures get a synthetic name).
    pub krate: String,
    /// Build-role classification.
    pub class: FileClass,
    /// Every token, comments included, in source order.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of non-comment tokens (what rules match on).
    pub code: Vec<usize>,
    /// Raw source lines (for snippets in diagnostics).
    pub lines: Vec<String>,
    /// Waivers by the line they apply to (the comment's own line and, for a
    /// comment standing alone on its line, the following line as well).
    pub waivers: BTreeMap<u32, BTreeSet<String>>,
    /// Parsed waivers in file order (for reporting/telemetry).
    pub waiver_list: Vec<Waiver>,
    /// Malformed waiver comments.
    pub bad_waivers: Vec<BadWaiver>,
}

impl SourceFile {
    /// Lex and classify `contents` as `path` (workspace-relative).
    pub fn parse(path: &str, contents: &str) -> SourceFile {
        let tokens = lexer::lex(contents);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();
        let (krate, class) = classify(path);
        let lines: Vec<String> = contents.lines().map(|l| l.to_string()).collect();
        let mut file = SourceFile {
            path: path.to_string(),
            krate,
            class,
            tokens,
            code,
            lines,
            waivers: BTreeMap::new(),
            waiver_list: Vec::new(),
            bad_waivers: Vec::new(),
        };
        file.collect_waivers();
        file
    }

    /// The source text of line `line` (1-based), or "" past EOF.
    pub fn line_text(&self, line: u32) -> &str {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map(|s| s.as_str())
            .unwrap_or("")
    }

    /// Whether findings of `rule` on `line` are waived.
    pub fn is_waived(&self, rule: &str, line: u32) -> bool {
        self.waivers
            .get(&line)
            .map(|rules| rules.contains(rule))
            .unwrap_or(false)
    }

    /// Whether any code (non-comment) token sits on `line` — the test
    /// that decides whether a waiver comment covers the next line too.
    pub fn has_code_on(&self, line: u32) -> bool {
        self.code.iter().any(|&i| self.tokens[i].line == line)
    }

    fn collect_waivers(&mut self) {
        // A comment is "alone on its line" when no code token shares the
        // line — then the waiver targets the next line too (typical usage:
        // the waiver sits directly above the offending statement).
        let mut code_lines: BTreeSet<u32> = BTreeSet::new();
        for &i in &self.code {
            code_lines.insert(self.tokens[i].line);
        }
        for t in &self.tokens {
            // Waivers live in plain comments only: doc comments *describe*
            // the syntax (README, module docs) without enacting it.
            let plain = matches!(
                t.kind,
                TokenKind::LineComment { doc: false } | TokenKind::BlockComment { doc: false }
            );
            if !plain {
                continue;
            }
            let Some(body) = waiver_body(&t.text) else {
                continue;
            };
            match parse_waiver(body) {
                Ok((rules, reason)) => {
                    let mut lines = vec![t.line];
                    if !code_lines.contains(&t.line) {
                        lines.push(t.line + 1);
                    }
                    for l in lines {
                        let entry = self.waivers.entry(l).or_default();
                        for r in &rules {
                            entry.insert(r.clone());
                        }
                    }
                    self.waiver_list.push(Waiver {
                        rules,
                        reason,
                        line: t.line,
                    });
                }
                Err(problem) => self.bad_waivers.push(BadWaiver {
                    line: t.line,
                    col: t.col,
                    problem,
                }),
            }
        }
    }
}

/// Extract the waiver body from a comment, if the comment is a waiver at
/// all: everything after `detlint:`.
fn waiver_body(comment: &str) -> Option<&str> {
    let at = comment.find("detlint:")?;
    Some(comment[at + "detlint:".len()..].trim())
}

/// Parse `allow(rule[, rule…], reason = "text")`. The reason is mandatory
/// and must be non-empty — a waiver without a documented reason is a
/// finding, not a suppression.
fn parse_waiver(body: &str) -> Result<(Vec<String>, String), String> {
    let rest = body
        .strip_prefix("allow")
        .ok_or_else(|| "expected `allow(...)` after `detlint:`".to_string())?
        .trim_start();
    let rest = rest
        .strip_prefix('(')
        .ok_or_else(|| "expected `(` after `allow`".to_string())?;
    let close = rest
        .rfind(')')
        .ok_or_else(|| "unclosed `allow(`".to_string())?;
    let args = &rest[..close];

    let mut rules = Vec::new();
    let mut reason: Option<String> = None;
    // Split on commas outside the reason string.
    let mut depth_quote = false;
    let mut current = String::new();
    let mut parts: Vec<String> = Vec::new();
    for ch in args.chars() {
        match ch {
            '"' => {
                depth_quote = !depth_quote;
                current.push(ch);
            }
            ',' if !depth_quote => {
                parts.push(current.trim().to_string());
                current = String::new();
            }
            _ => current.push(ch),
        }
    }
    if !current.trim().is_empty() {
        parts.push(current.trim().to_string());
    }
    for part in parts {
        if let Some(val) = part.strip_prefix("reason") {
            let val = val.trim_start();
            let val = val
                .strip_prefix('=')
                .ok_or_else(|| "expected `reason = \"…\"`".to_string())?
                .trim();
            let val = val
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| "reason must be a quoted string".to_string())?;
            if val.trim().is_empty() {
                return Err("reason must not be empty".to_string());
            }
            reason = Some(val.to_string());
        } else if part.is_empty() {
            return Err("empty rule id in allow(...)".to_string());
        } else {
            rules.push(part);
        }
    }
    if rules.is_empty() {
        return Err("allow(...) names no rule".to_string());
    }
    let reason = reason.ok_or_else(|| "waiver requires `reason = \"…\"`".to_string())?;
    Ok((rules, reason))
}

/// Map a workspace-relative path to (crate name, file class).
fn classify(path: &str) -> (String, FileClass) {
    let norm = path.replace('\\', "/");
    let parts: Vec<&str> = norm.split('/').collect();
    let krate = if parts.first() == Some(&"crates") && parts.len() > 1 {
        parts[1].to_string()
    } else if parts.first() == Some(&"src") || parts.first() == Some(&"tests") {
        // The workspace facade crate.
        "blockoptr-suite".to_string()
    } else {
        "unknown".to_string()
    };
    let in_dir = |d: &str| parts.contains(&d);
    let file = parts.last().copied().unwrap_or("");
    let class = if in_dir("tests") || in_dir("examples") {
        FileClass::Test
    } else if krate == "bench" || in_dir("benches") {
        FileClass::Bench
    } else if in_dir("bin") || file == "main.rs" {
        FileClass::Bin
    } else {
        FileClass::Library
    };
    (krate, class)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert_eq!(
            classify("crates/fabric-sim/src/sim.rs"),
            ("fabric-sim".to_string(), FileClass::Library)
        );
        assert_eq!(
            classify("crates/blockoptr/src/bin/blockoptr.rs"),
            ("blockoptr".to_string(), FileClass::Bin)
        );
        assert_eq!(
            classify("crates/bench/src/table.rs"),
            ("bench".to_string(), FileClass::Bench)
        );
        assert_eq!(
            classify("crates/blockoptr/tests/cli.rs"),
            ("blockoptr".to_string(), FileClass::Test)
        );
        assert_eq!(
            classify("tests/des_golden.rs"),
            ("blockoptr-suite".to_string(), FileClass::Test)
        );
        assert_eq!(
            classify("src/lib.rs"),
            ("blockoptr-suite".to_string(), FileClass::Library)
        );
    }

    #[test]
    fn waiver_applies_to_own_and_next_line() {
        let src = "// detlint: allow(no-unwrap, reason = \"demo\")\nx.unwrap();\n";
        let f = SourceFile::parse("crates/fabric-sim/src/x.rs", src);
        assert!(f.is_waived("no-unwrap", 1));
        assert!(f.is_waived("no-unwrap", 2));
        assert!(!f.is_waived("no-unwrap", 3));
        assert!(!f.is_waived("hash-iter", 2));
        assert_eq!(f.waiver_list.len(), 1);
        assert_eq!(f.waiver_list[0].reason, "demo");
    }

    #[test]
    fn trailing_waiver_covers_its_line_only() {
        let src = "let x = 1; // detlint: allow(float-eq, reason = \"why\")\nlet y = 2;\n";
        let f = SourceFile::parse("crates/fabric-sim/src/x.rs", src);
        assert!(f.is_waived("float-eq", 1));
        assert!(!f.is_waived("float-eq", 2));
    }

    #[test]
    fn multi_rule_waiver() {
        let src = "// detlint: allow(no-unwrap, float-eq, reason = \"demo\")\nfn f() {}\n";
        let f = SourceFile::parse("crates/fabric-sim/src/x.rs", src);
        assert!(f.is_waived("no-unwrap", 2));
        assert!(f.is_waived("float-eq", 2));
    }

    #[test]
    fn waiver_without_reason_is_malformed() {
        for bad in [
            "// detlint: allow(no-unwrap)",
            "// detlint: allow(no-unwrap, reason = \"\")",
            "// detlint: allow(no-unwrap, reason = \"  \")",
            "// detlint: allow(, reason = \"x\")",
            "// detlint: allow(reason = \"x\")",
            "// detlint: deny(no-unwrap)",
        ] {
            let f = SourceFile::parse("crates/fabric-sim/src/x.rs", bad);
            assert_eq!(f.bad_waivers.len(), 1, "{bad}");
            assert!(f.waiver_list.is_empty(), "{bad}");
        }
    }

    #[test]
    fn reason_with_comma_inside() {
        let src = "// detlint: allow(hash-iter, reason = \"sorted, then folded\")\nfn f() {}\n";
        let f = SourceFile::parse("crates/fabric-sim/src/x.rs", src);
        assert!(f.bad_waivers.is_empty());
        assert_eq!(f.waiver_list[0].reason, "sorted, then folded");
    }
}

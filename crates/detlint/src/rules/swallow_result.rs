//! `swallow-result`: no silently discarded `Result` in library code.
//!
//! `let _ = fallible()` and a statement-position `fallible().ok();` both
//! compile the error path out of existence: the caller's typed
//! error-flow contract (`AnalyzeError`, `SpecError`, `ExecStatus`) is
//! severed exactly where a failure would have been diagnosable. Unlike
//! `no-unwrap` (which at least crashes loudly), a swallowed `Result`
//! fails *silently* — the worst failure mode a deterministic simulator
//! can have, because the run completes and the output is just wrong.
//!
//! Detection is resolution-based, not syntactic: `let _ =` is only
//! flagged when the discarded expression's final call resolves (via the
//! workspace call graph) to a function whose return type mentions
//! `Result`. Discarding an `Option` (`ctx.get_state` warming a read-set)
//! or a macro result (`let _ = writeln!(…)` on an infallible `String`)
//! stays legal.

use crate::index::{Callee, Workspace};
use crate::lexer::TokenKind;
use crate::rules::{Finding, LintRule, RuleCtx};
use crate::source::FileClass;

/// This rule's stable id.
pub const ID: &str = "swallow-result";

/// See module docs.
#[derive(Debug)]
pub struct SwallowResult;

impl LintRule for SwallowResult {
    fn id(&self) -> &'static str {
        ID
    }

    fn summary(&self) -> &'static str {
        "no `let _ =` / statement-position `.ok()` discarding a Result in library code"
    }

    fn check(&self, _ctx: &RuleCtx<'_>) -> Vec<Finding> {
        Vec::new()
    }

    fn check_workspace(&self, ws: &Workspace<'_>) -> Vec<Finding> {
        let mut findings = Vec::new();
        for (fx, f) in ws.fns.iter().enumerate() {
            let file = ws.files[f.file];
            if file.class != FileClass::Library {
                continue;
            }
            let Some((lo, hi)) = f.body else { continue };
            for ci in lo..hi {
                let Some(t) = ws.tok(f.file, ci) else {
                    continue;
                };
                if t.in_test {
                    continue;
                }
                if t.is_ident("let") {
                    if let Some(finding) = check_let_underscore(ws, fx, ci, hi) {
                        findings.push(finding);
                    }
                }
                if t.is_punct(".") {
                    if let Some(finding) = check_statement_ok(ws, fx, ci, lo) {
                        findings.push(finding);
                    }
                }
            }
        }
        findings
    }
}

/// `let _ = <expr> ;` where the last top-level call of `<expr>` resolves
/// to a `Result`-returning workspace function.
fn check_let_underscore(ws: &Workspace<'_>, fx: usize, ci: usize, hi: usize) -> Option<Finding> {
    let f = &ws.fns[fx];
    let fi = f.file;
    if !ws.tok(fi, ci + 1)?.is_ident("_") || !ws.tok(fi, ci + 2)?.is_punct("=") {
        return None;
    }
    // Walk the discarded expression to its terminating `;`, remembering
    // the last call site seen at bracket depth 0 (the final link of the
    // method/call chain — the one whose value is being discarded).
    let mut depth = 0i32;
    let mut last_call: Option<usize> = None;
    let mut j = ci + 3;
    while j < hi {
        let t = ws.tok(fi, j)?;
        match t.text.as_str() {
            "(" | "[" | "{" if t.kind == TokenKind::Punct => depth += 1,
            ")" | "]" | "}" if t.kind == TokenKind::Punct => depth -= 1,
            ";" if t.kind == TokenKind::Punct && depth == 0 => break,
            _ => {
                if depth == 0
                    && t.kind == TokenKind::Ident
                    && ws.tok(fi, j + 1).map(|n| n.is_punct("(")).unwrap_or(false)
                {
                    last_call = Some(j);
                }
            }
        }
        j += 1;
    }
    let call_ci = last_call?;
    let call = ws.calls[fx].iter().find(|c| c.ci == call_ci)?;
    let Callee::Resolved(target) = call.callee else {
        return None;
    };
    if !ws.fns[target].ret.contains("Result") {
        return None;
    }
    let t = ws.tok(fi, ci)?;
    Some(Finding::in_file(
        ID,
        ws.files[fi],
        t.line,
        t.col,
        format!(
            "`let _ =` discards the Result of `{}` (returns `{}`) — handle the error \
             path or propagate it with `?`",
            ws.fns[target].label(),
            ws.fns[target].ret
        ),
    ))
}

/// A statement-position `….ok();` — the `Result` is converted to an
/// `Option` and immediately dropped.
fn check_statement_ok(ws: &Workspace<'_>, fx: usize, ci: usize, lo: usize) -> Option<Finding> {
    let f = &ws.fns[fx];
    let fi = f.file;
    if !ws.tok(fi, ci + 1)?.is_ident("ok")
        || !ws.tok(fi, ci + 2)?.is_punct("(")
        || !ws.tok(fi, ci + 3)?.is_punct(")")
        || !ws.tok(fi, ci + 4)?.is_punct(";")
    {
        return None;
    }
    // Statement position: walking back through the receiver expression at
    // depth 0 must reach the start of a statement without crossing a
    // binding or a use of the value.
    let mut depth = 0i32;
    let mut j = ci;
    while j > lo {
        j -= 1;
        let t = ws.tok(fi, j)?;
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                ")" | "]" => depth += 1,
                "(" | "[" => {
                    depth -= 1;
                    if depth < 0 {
                        return None; // inside an argument list, not a statement
                    }
                }
                "{" | "}" | ";" if depth == 0 => break,
                "=" | "=>" if depth == 0 => return None, // value is bound/used
                _ => {}
            }
        } else if depth == 0 && (t.is_ident("return") || t.is_ident("let") || t.is_ident("else")) {
            return None;
        }
    }
    let t = ws.tok(fi, ci + 1)?;
    Some(Finding::in_file(
        ID,
        ws.files[fi],
        t.line,
        t.col,
        "statement-position `.ok()` swallows a Result — handle the error path, \
         propagate it, or match on it explicitly"
            .to_string(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn scan(files: &[(&str, &str)]) -> Vec<Finding> {
        let sources: Vec<SourceFile> = files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
        let ws = Workspace::build(sources.iter().collect());
        SwallowResult.check_workspace(&ws)
    }

    #[test]
    fn discarding_a_resolved_result_is_flagged() {
        let findings = scan(&[(
            "crates/a/src/lib.rs",
            "pub fn save() -> Result<(), String> { Ok(()) }\n\
             pub fn caller() { let _ = save(); }",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("save"), "{findings:?}");
    }

    #[test]
    fn discarding_crosses_files_through_resolution() {
        let findings = scan(&[
            (
                "crates/a/src/io.rs",
                "pub fn flush_all() -> Result<u32, String> { Ok(0) }",
            ),
            (
                "crates/b/src/lib.rs",
                "use a::io::flush_all;\npub fn caller() { let _ = flush_all(); }",
            ),
        ]);
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    fn discarding_non_result_values_is_fine() {
        let findings = scan(&[(
            "crates/a/src/lib.rs",
            "pub fn timer_id() -> u64 { 7 }\n\
             pub fn lookup(k: &str) -> Option<u32> { None }\n\
             pub fn caller() { let _ = timer_id(); let _ = lookup(\"x\"); }",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unresolved_calls_are_never_guessed() {
        let findings = scan(&[(
            "crates/a/src/lib.rs",
            "use std::fmt::Write;\n\
             pub fn render(out: &mut String) { let _ = writeln!(out, \"x\"); }",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn statement_position_ok_is_flagged() {
        let findings = scan(&[(
            "crates/a/src/lib.rs",
            "pub fn save() -> Result<(), String> { Ok(()) }\n\
             pub fn caller() { save().ok(); }",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains(".ok()"), "{findings:?}");
    }

    #[test]
    fn bound_ok_is_fine() {
        let findings = scan(&[(
            "crates/a/src/lib.rs",
            "pub fn save() -> Result<(), String> { Ok(()) }\n\
             pub fn caller() { let kept = save().ok(); let _ = kept; }",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn tests_and_bins_are_exempt() {
        let findings = scan(&[
            (
                "crates/a/src/bin/tool.rs",
                "fn save() -> Result<(), String> { Ok(()) }\nfn main() { let _ = save(); }",
            ),
            (
                "crates/a/src/lib.rs",
                "pub fn save() -> Result<(), String> { Ok(()) }\n\
                 #[cfg(test)]\nmod tests {\n    fn t() { let _ = super::save(); }\n}",
            ),
        ]);
        assert!(findings.is_empty(), "{findings:?}");
    }
}

//! `no-unwrap`: no bare `.unwrap()` (or message-less `.expect("")`) in
//! library non-test code.
//!
//! Library panics take the whole analysis down with no actionable message —
//! the typed `AnalyzeError`/`SpecError` paths exist precisely so callers
//! get diagnosis instead of a backtrace. Where an invariant genuinely
//! guarantees success, `.expect("<the invariant>")` states it; bare
//! `.unwrap()` states nothing.
//!
//! Every site is a finding. The rule stays here rather than in clippy
//! because no clippy lint catches the message-less `.expect("")`.

use crate::lexer::TokenKind;
use crate::rules::{code_tok, Finding, LintRule, RuleCtx};
use crate::source::FileClass;

/// This rule's stable id.
pub const ID: &str = "no-unwrap";

/// See module docs.
#[derive(Debug)]
pub struct NoUnwrap;

impl LintRule for NoUnwrap {
    fn id(&self) -> &'static str {
        ID
    }

    fn summary(&self) -> &'static str {
        "no bare .unwrap() / .expect(\"\") in library non-test code"
    }

    fn check(&self, ctx: &RuleCtx<'_>) -> Vec<Finding> {
        let file = ctx.file;
        if file.class != FileClass::Library {
            return Vec::new();
        }
        let mut findings = Vec::new();
        for ci in 0..file.code.len() {
            let Some(dot) = code_tok(file, ci) else {
                continue;
            };
            if dot.in_test || !dot.is_punct(".") {
                continue;
            }
            let Some(m) = code_tok(file, ci + 1) else {
                continue;
            };
            let bare_unwrap = m.is_ident("unwrap")
                && code_tok(file, ci + 2)
                    .map(|t| t.is_punct("("))
                    .unwrap_or(false)
                && code_tok(file, ci + 3)
                    .map(|t| t.is_punct(")"))
                    .unwrap_or(false);
            let empty_expect = m.is_ident("expect")
                && code_tok(file, ci + 2)
                    .map(|t| t.is_punct("("))
                    .unwrap_or(false)
                && code_tok(file, ci + 3)
                    .map(|t| t.kind == TokenKind::Str && literal_is_empty(&t.text))
                    .unwrap_or(false);
            if bare_unwrap || empty_expect {
                let what = if bare_unwrap {
                    "bare .unwrap()"
                } else {
                    "message-less .expect(\"\")"
                };
                findings.push(Finding::at(
                    self,
                    ctx,
                    m.line,
                    m.col,
                    format!(
                        "{what} in library non-test code; return a typed error or state the \
                         invariant in .expect(\"…\")"
                    ),
                ));
            }
        }
        findings
    }
}

/// Whether a string literal token is empty (`""`, `r""`, `b""`).
fn literal_is_empty(text: &str) -> bool {
    text.trim_start_matches(['r', 'b', 'c', '#'])
        .trim_end_matches('#')
        == "\"\""
}

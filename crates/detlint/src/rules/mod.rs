//! The lint-rule engine: [`LintRule`], [`RuleCtx`], [`Finding`], and the
//! fixed [`RuleSet`] catalogue.
//!
//! One module per rule, an ordered catalogue with per-rule disable,
//! findings attributed by stable kebab-case rule id — pointed at the
//! *source tree*: the invariants the golden tests sample dynamically
//! (byte-identical output at any thread count, sim-time-only logic,
//! panic-free libraries) are proved absent as hazard classes, not just
//! unobserved.

pub mod float_eq;
pub mod hash_iter;
pub mod no_unwrap;
pub mod rng_stream;
pub mod spec_validate;
pub mod swallow_result;
pub mod transitive_wall_clock;

use crate::index::Workspace;
use crate::source::SourceFile;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Everything a rule may look at for one file.
#[derive(Debug, Clone, Copy)]
pub struct RuleCtx<'a> {
    /// The lexed, classified file under scan.
    pub file: &'a SourceFile,
}

/// One diagnostic: where, which rule, and what is wrong.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Id of the producing rule.
    pub rule: String,
    /// Crate the file belongs to.
    pub krate: String,
    /// What is wrong (one sentence, actionable).
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl Finding {
    /// A finding by `rule_id` at `line:col` of `file` — the constructor
    /// workspace-level rules use (they have no per-file [`RuleCtx`]).
    pub fn in_file(
        rule_id: &str,
        file: &SourceFile,
        line: u32,
        col: u32,
        message: String,
    ) -> Finding {
        Finding {
            file: file.path.clone(),
            line,
            col,
            rule: rule_id.to_string(),
            krate: file.krate.clone(),
            message,
            snippet: file.line_text(line).trim().to_string(),
        }
    }

    /// A finding by `rule` at `line:col` of `ctx`'s file.
    pub fn at(
        rule: &dyn LintRule,
        ctx: &RuleCtx<'_>,
        line: u32,
        col: u32,
        message: String,
    ) -> Finding {
        Finding {
            file: ctx.file.path.clone(),
            line,
            col,
            rule: rule.id().to_string(),
            krate: ctx.file.krate.clone(),
            message,
            snippet: ctx.file.line_text(line).trim().to_string(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}:{}:{} [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )?;
        write!(f, "    | {}", self.snippet)
    }
}

/// A source-level detector.
///
/// Implementations must be deterministic and side-effect free: the scanner
/// may evaluate rules over files in any grouping, and the final report is
/// sorted, so nothing about ordering may leak into the findings.
pub trait LintRule: fmt::Debug + Send + Sync {
    /// Stable kebab-case identifier (used by waivers and `--disable`).
    fn id(&self) -> &'static str;

    /// One-line description for `--list` and the README catalogue.
    fn summary(&self) -> &'static str;

    /// Evaluate the rule against one file.
    fn check(&self, ctx: &RuleCtx<'_>) -> Vec<Finding>;

    /// Evaluate the rule against the whole indexed workspace (symbol
    /// table + call graph). Runs once per scan, after every per-file
    /// [`check`](Self::check); findings are waiver-filtered by the file
    /// and line they name, exactly like per-file findings. Default: no
    /// workspace-level analysis.
    fn check_workspace(&self, ws: &Workspace<'_>) -> Vec<Finding> {
        let _ = ws;
        Vec::new()
    }
}

/// The ordered catalogue of [`LintRule`]s, with the rules a scan disabled.
#[derive(Debug, Clone)]
pub struct RuleSet {
    rules: Vec<Arc<dyn LintRule>>,
    disabled: BTreeSet<String>,
}

impl Default for RuleSet {
    fn default() -> Self {
        RuleSet::determinism()
    }
}

impl RuleSet {
    /// The project catalogue: three token-level determinism & robustness
    /// rules plus the four semantic (symbol-table / call-graph) rules.
    pub fn determinism() -> RuleSet {
        RuleSet {
            rules: vec![
                Arc::new(hash_iter::HashIter),
                Arc::new(no_unwrap::NoUnwrap),
                Arc::new(float_eq::FloatEq),
                Arc::new(rng_stream::RngStream),
                Arc::new(spec_validate::SpecValidate),
                Arc::new(swallow_result::SwallowResult),
                Arc::new(transitive_wall_clock::TransitiveWallClock),
            ],
            disabled: BTreeSet::new(),
        }
    }

    /// Disable a rule by id.
    pub fn disable(&mut self, id: &str) {
        self.disabled.insert(id.to_string());
    }

    /// Builder-style [`disable`](Self::disable).
    pub fn without(mut self, id: &str) -> RuleSet {
        self.disable(id);
        self
    }

    /// Whether `id` names a registered rule (enabled or not).
    pub fn knows(&self, id: &str) -> bool {
        self.rules.iter().any(|r| r.id() == id)
    }

    /// The enabled rules, in registration order.
    pub fn enabled(&self) -> impl Iterator<Item = &Arc<dyn LintRule>> {
        self.rules
            .iter()
            .filter(|r| !self.disabled.contains(r.id()))
    }
}

// ---- shared token-pattern helpers used by the rule modules ----

/// The code token at code-index `ci`, if any.
pub(crate) fn code_tok(file: &SourceFile, ci: usize) -> Option<&crate::lexer::Token> {
    file.code.get(ci).map(|&i| &file.tokens[i])
}

//! The incremental analysis engine: [`Analyzer`] configuration +
//! [`Session`] state.
//!
//! The paper's workflow (Figure 5) is batch: read the whole chain, derive
//! everything, recommend once. A production monitoring loop can't afford
//! that — it ingests blocks *as they commit* and re-issues recommendations
//! per window. This module provides that loop's engine:
//!
//! * [`Analyzer`] — cheap, cloneable configuration (metric knobs,
//!   thresholds, mining config, auto-tuning), built builder-style;
//! * [`Session`] — the stateful accumulator: [`Session::ingest_block`] /
//!   [`Session::ingest_ledger`] fold new transactions into running metric
//!   state (interval rate buckets, conflict and hot-key counters,
//!   directly-follows counts), and [`Session::snapshot`] materializes a full
//!   [`Analysis`] from that state at a cost proportional to the *state*
//!   (intervals, activities, conflicts), not the log length;
//! * [`AnalyzeError`] — the typed error for every fallible path (empty
//!   logs, malformed JSON, degenerate configuration);
//! * [`WindowPolicy`] — bounded-memory retention for always-on monitoring:
//!   with [`Analyzer::window`] the session evicts aged-out records at the
//!   end of every ingest batch and *retracts* them from every tracker, so
//!   state stays bounded by the window and a windowed snapshot equals a
//!   fresh analysis of only the retained suffix (see
//!   [`Session::footprint`] for the boundedness witness).
//!
//! A session is one serial fold over one commit-ordered stream, as the
//! paper's analysis is one pass over one log: every tracker only observes
//! and retracts. [`Session::merge`] is not a second code path; it is one
//! more ingest batch of another session's retained records.
//!
//! ```
//! use blockoptr::session::Analyzer;
//! use workload::spec::ControlVariables;
//!
//! let cv = ControlVariables { transactions: 500, ..Default::default() };
//! let output = workload::synthetic::generate(&cv).run(cv.network_config());
//!
//! let mut session = Analyzer::new().auto_tune(true).session().unwrap();
//! for block in output.ledger.blocks() {
//!     session.ingest_block(block).unwrap();
//! }
//! let analysis = session.snapshot().unwrap();
//! assert_eq!(analysis.log.len(), output.report.committed);
//! ```

use crate::autotune::tune_from_rates;
use crate::caseid::{self, CaseDerivation};
use crate::export;
use crate::log::{BlockchainLog, TxRecord};
use crate::metrics::{
    BlockMetrics, CorrelationTracker, EndorserCounts, InvokerCounts, KeyMetrics, MetricConfig,
    Metrics, RateTracker,
};
use crate::recommend::rules::{RuleCtx, RuleSet};
use crate::recommend::{observe_activity_type, ActivityTypeHistogram, Recommendation, Thresholds};
use fabric_sim::ledger::{Block, Ledger};
use fabric_sim::types::Key;
use process_mining::dfg::DirectlyFollowsGraph;
use process_mining::eventlog::{EventLog, Trace};
use process_mining::heuristics::{mine_from_dfg, DependencyGraph, HeuristicsConfig};
use sim_core::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Why an analysis could not be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzeError {
    /// No transactions have been ingested — there is nothing to analyze.
    EmptyLog,
    /// A log could not be parsed from JSON.
    Json(String),
    /// The configured metric interval is zero, so rate distributions are
    /// undefined.
    ZeroInterval,
    /// A log window arrived out of commit order (streaming ingestion
    /// requires commit-ordered records; conflict distances are defined on
    /// them).
    OutOfOrder {
        /// The offending record's commit index.
        index: usize,
        /// The highest commit index ingested before it.
        after: usize,
    },
    /// A log window fed to a session with a bounded [`WindowPolicy`]
    /// carries decreasing block numbers. Block-count eviction is defined
    /// on nondecreasing block order (which every chain-extracted export
    /// has); accepting a renumbered log would silently evict the wrong
    /// records.
    BlockOrder {
        /// The offending record's block number.
        block: u64,
        /// The highest block number seen before it.
        after: u64,
    },
    /// A rule id passed to [`Analyzer::disable_rule`] matches no registered
    /// rule — almost always a typo, which silently ignoring would hide.
    UnknownRule {
        /// The unrecognized id.
        id: String,
        /// Ids registered at the time of the call.
        known: Vec<String>,
    },
    /// A scenario spec could not be parsed, validated, or built
    /// (spec-driven plan execution and `optimize --spec`). Carries the
    /// typed [`workload::SpecError`]: unknown contract ids, out-of-domain
    /// parameters, unsupported variant sets, malformed JSON.
    Spec(workload::SpecError),
    /// A log window's client timestamps would stretch the session over
    /// more than [`Session::MAX_RATE_INTERVALS`] metric intervals. The
    /// rate series keeps one dense counter per interval, so accepting the
    /// span (typically one corrupt timestamp) would size an allocation by
    /// the span instead of by the record count.
    TimestampSpan {
        /// Earliest client timestamp the session would hold.
        first: SimTime,
        /// Latest client timestamp the session would hold.
        last: SimTime,
    },
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::EmptyLog => f.write_str("the blockchain log is empty"),
            AnalyzeError::Json(msg) => write!(f, "malformed log JSON: {msg}"),
            AnalyzeError::ZeroInterval => {
                f.write_str("metric interval is zero; rate distributions are undefined")
            }
            AnalyzeError::OutOfOrder { index, after } => write!(
                f,
                "log window out of commit order: index {index} arrived after {after}"
            ),
            AnalyzeError::BlockOrder { block, after } => write!(
                f,
                "log window block numbers decrease ({block} after {after}); a bounded \
                 window policy needs commit-ordered, nondecreasing blocks"
            ),
            AnalyzeError::UnknownRule { id, known } => write!(
                f,
                "unknown rule id {id:?}; registered ids: {}",
                known.join(", ")
            ),
            AnalyzeError::Spec(err) => write!(f, "scenario spec: {err}"),
            AnalyzeError::TimestampSpan { first, last } => write!(
                f,
                "client timestamps span {} µs to {} µs, more than {} metric intervals; \
                 the log carries an implausible timestamp (or needs a wider metric interval)",
                first.as_micros(),
                last.as_micros(),
                Session::MAX_RATE_INTERVALS
            ),
        }
    }
}

impl From<workload::SpecError> for AnalyzeError {
    fn from(err: workload::SpecError) -> Self {
        AnalyzeError::Spec(err)
    }
}

impl std::error::Error for AnalyzeError {}

/// How much history a [`Session`] retains — the memory-boundedness knob for
/// always-on monitoring (ROADMAP "window eviction").
///
/// With any bounded policy the session evicts its oldest records at the end
/// of every ingest batch and *retracts* their contribution from every
/// per-metric tracker, the conflict list and the case cache, reading the
/// key list it stored for each record at ingest. The guarantee: a windowed
/// snapshot is identical to a fresh analysis of only the retained suffix,
/// and every tracker's state is bounded by the window instead of the
/// stream length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WindowPolicy {
    /// Keep everything (the default; the original accumulate-only
    /// behaviour).
    #[default]
    Unbounded,
    /// Keep the records of the last `n` distinct block numbers (n ≥ 1).
    LastBlocks(usize),
    /// Keep records whose commit timestamp is within `SimDuration` of the
    /// newest commit ingested.
    LastDuration(sim_core::time::SimDuration),
}

impl WindowPolicy {
    /// Parse a policy from its CLI/env spelling:
    /// `unbounded`, `last-blocks:N`, or `last-secs:S` (`S` in seconds,
    /// fractions allowed).
    pub fn parse(spec: &str) -> Result<WindowPolicy, String> {
        let secs = |v: &str| -> Result<sim_core::time::SimDuration, String> {
            v.parse::<f64>()
                .ok()
                .filter(|s| *s > 0.0 && s.is_finite())
                .map(sim_core::time::SimDuration::from_secs_f64)
                .ok_or_else(|| format!("window policy needs a positive seconds value, got {v:?}"))
        };
        match spec.split_once(':') {
            None if spec == "unbounded" => Ok(WindowPolicy::Unbounded),
            Some(("last-blocks", n)) => n
                .parse::<usize>()
                .ok()
                .filter(|n| *n > 0)
                .map(WindowPolicy::LastBlocks)
                .ok_or_else(|| format!("last-blocks needs a positive block count, got {n:?}")),
            Some(("last-secs", v)) => Ok(WindowPolicy::LastDuration(secs(v)?)),
            _ => Err(format!(
                "unknown window policy {spec:?} (expected unbounded, last-blocks:N, or last-secs:S)"
            )),
        }
    }

    /// The policy named by the `BLOCKOPTR_WINDOW` environment variable, if
    /// set ([`Unbounded`](Self::Unbounded) when unset) — lets a whole
    /// test-suite or deployment run under a default window without
    /// touching call sites.
    ///
    /// A set-but-malformed spec falls back to `Unbounded` **with a warning
    /// on stderr** (once per process): silently losing the bound would
    /// recreate exactly the unbounded-growth failure the variable exists
    /// to prevent, with nothing to notice until memory runs out.
    pub fn from_env() -> WindowPolicy {
        #[expect(
            clippy::disallowed_methods,
            reason = "reading the env is this constructor's documented contract; it configures memory use, never analysis results"
        )]
        let Ok(spec) = std::env::var("BLOCKOPTR_WINDOW") else {
            return WindowPolicy::Unbounded;
        };
        match WindowPolicy::parse(&spec) {
            Ok(policy) => policy,
            Err(err) => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                #[expect(
                    clippy::print_stderr,
                    reason = "operator-facing once-per-process warning; silent fallback would hide the lost memory bound"
                )]
                WARNED.call_once(|| {
                    eprintln!(
                        "warning: ignoring BLOCKOPTR_WINDOW={spec:?} ({err}); \
                         sessions will run unbounded"
                    );
                });
                WindowPolicy::Unbounded
            }
        }
    }
}

impl fmt::Display for WindowPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WindowPolicy::Unbounded => f.write_str("unbounded"),
            WindowPolicy::LastBlocks(n) => write!(f, "last-blocks:{n}"),
            WindowPolicy::LastDuration(d) => write!(f, "last-secs:{}", d.as_secs_f64()),
        }
    }
}

/// The configured analyzer: cheap to build, cheap to clone, and the only
/// way to open a [`Session`] — the one analysis entry point, for one-shot
/// batch analyses ([`analyze_ledger`](Self::analyze_ledger),
/// [`analyze_log`](Self::analyze_log), [`analyze_json`](Self::analyze_json))
/// and streaming sessions alike.
#[derive(Debug, Clone)]
pub struct Analyzer {
    metric_config: MetricConfig,
    thresholds: Thresholds,
    mining: HeuristicsConfig,
    rules: RuleSet,
    auto_tune: bool,
    window: WindowPolicy,
}

impl Default for Analyzer {
    /// The paper's defaults. The window policy honours the
    /// `BLOCKOPTR_WINDOW` environment variable (e.g. `last-blocks:64`), so
    /// a deployment — or a CI run exercising the eviction paths — can put
    /// every session behind a sliding window without touching call sites;
    /// unset or malformed means [`WindowPolicy::Unbounded`].
    fn default() -> Self {
        Analyzer {
            metric_config: MetricConfig::default(),
            thresholds: Thresholds::default(),
            mining: HeuristicsConfig::default(),
            rules: RuleSet::default(),
            auto_tune: false,
            window: WindowPolicy::from_env(),
        }
    }
}

impl Analyzer {
    /// An analyzer with the paper's default thresholds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the metric-derivation knobs (interval size, hotkey threshold).
    pub fn metric_config(mut self, config: MetricConfig) -> Self {
        self.metric_config = config;
        self
    }

    /// Set the recommendation thresholds.
    pub fn thresholds(mut self, thresholds: Thresholds) -> Self {
        self.thresholds = thresholds;
        self
    }

    /// Set the process-model mining thresholds.
    pub fn mining(mut self, mining: HeuristicsConfig) -> Self {
        self.mining = mining;
        self
    }

    /// Replace the rule registry (default: the paper's nine-rule catalogue,
    /// [`RuleSet::paper`]). Use this to plug in custom
    /// [`Rule`](crate::recommend::rules::Rule)s or a trimmed catalogue;
    /// every snapshot of every session opened from this analyzer evaluates
    /// the registry as configured here.
    pub fn rules(mut self, rules: RuleSet) -> Self {
        self.rules = rules;
        self
    }

    /// Disable a single rule by id (see
    /// [`RuleSet::disable`](crate::recommend::rules::RuleSet::disable)).
    ///
    /// Unlike the raw `RuleSet` API — which remembers unknown ids so a
    /// rule can be disabled before registration — the analyzer lints the
    /// id against its configured registry and rejects unknown ones with
    /// [`AnalyzeError::UnknownRule`]: at this level an unknown id is
    /// almost always a typo that would otherwise silently disable
    /// nothing. Configure the registry ([`Analyzer::rules`]) *before*
    /// disabling custom rules.
    pub fn disable_rule(mut self, id: &str) -> Result<Self, AnalyzeError> {
        if !self.rules.ids().contains(&id) {
            return Err(AnalyzeError::UnknownRule {
                id: id.to_string(),
                known: self.rules.ids().iter().map(|s| s.to_string()).collect(),
            });
        }
        self.rules.disable(id);
        Ok(self)
    }

    /// Accepted and ignored; kept because the benchmark package calls it.
    /// A session folds every batch on the calling thread, in one fold.
    /// Parallelism belongs to the plan grid, which runs whole simulations
    /// on a [`ThreadPool`](sim_core::pool::ThreadPool).
    pub fn threads(self, _threads: usize) -> Self {
        self
    }

    /// Bound the history sessions opened from this analyzer retain (default:
    /// [`WindowPolicy::Unbounded`], or whatever `BLOCKOPTR_WINDOW` names).
    /// Bounded sessions evict at the end of every ingest batch; a windowed
    /// snapshot equals a fresh analysis of only the retained suffix. See
    /// [`WindowPolicy`].
    pub fn window(mut self, window: WindowPolicy) -> Self {
        self.window = window;
        self
    }

    /// Derive deployment-specific thresholds from the observed data instead
    /// of the paper's fixed defaults (folds the `autotune` extension into
    /// the main entry path; the configured [`Thresholds`] still provide
    /// everything auto-tuning does not derive).
    ///
    /// The sustainable-rate scan runs over this analyzer's configured
    /// [`MetricConfig::interval`] buckets. With a non-default interval the
    /// derived thresholds can differ from the standalone
    /// [`auto_tune`](crate::autotune::auto_tune) helper, which always
    /// buckets at 1 s.
    pub fn auto_tune(mut self, enabled: bool) -> Self {
        self.auto_tune = enabled;
        self
    }

    /// Open an empty streaming session.
    pub fn session(&self) -> Result<Session, AnalyzeError> {
        if self.metric_config.interval.as_micros() == 0 {
            return Err(AnalyzeError::ZeroInterval);
        }
        Ok(Session::new(self.clone()))
    }

    /// One-shot: analyze a ledger (errors on an empty ledger, and on client
    /// timestamps spanning more than
    /// [`MAX_RATE_INTERVALS`](Session::MAX_RATE_INTERVALS) intervals).
    pub fn analyze_ledger(&self, ledger: &Ledger) -> Result<Analysis, AnalyzeError> {
        let mut session = self.session()?;
        session.ingest_ledger(ledger)?;
        session.snapshot().map(Analysis::with_sorted_traces)
    }

    /// One-shot: analyze an already-extracted blockchain log. Unlike the
    /// streaming [`Session::ingest_log`], this accepts records in any
    /// order: they are sorted into commit order first (the trace/model
    /// derivation is defined on commit order).
    pub fn analyze_log(&self, log: BlockchainLog) -> Result<Analysis, AnalyzeError> {
        let mut session = self.session()?;
        session.ingest_log(into_commit_order(log))?;
        session.snapshot().map(Analysis::with_sorted_traces)
    }

    /// One-shot: parse a JSON-exported log and analyze it.
    pub fn analyze_json(&self, json: &str) -> Result<Analysis, AnalyzeError> {
        self.analyze_log(export::from_json(json)?)
    }
}

/// Sort a log's records into strict commit order (the one-shot entry
/// points accept arbitrary record order; streaming ingestion requires
/// commit order and documents it). Duplicate commit indices carry no
/// usable ordering information, so they fall back to positional indices.
pub(crate) fn into_commit_order(log: BlockchainLog) -> BlockchainLog {
    if log
        .records()
        .windows(2)
        .all(|w| w[0].commit_index < w[1].commit_index)
    {
        return log;
    }
    let (mut records, blocks) = log.into_records();
    records.sort_by_key(|r| r.commit_index);
    if records
        .windows(2)
        .any(|w| w[0].commit_index == w[1].commit_index)
    {
        for (i, r) in records.iter_mut().enumerate() {
            r.commit_index = i;
        }
    }
    BlockchainLog::from_records(records, blocks)
}

/// Per-case model state: identifier-family statistics plus the event log
/// and directly-follows graph maintained under the currently winning family.
///
/// All of it is *retractable*: family statistics are occurrence-counted
/// ([`caseid::FamilyValues`]), case ids live in a ring, and each open
/// case's absolute event positions are queued — so sliding-window eviction
/// removes aged-out events **incrementally** (pop the trace head, retract
/// its DFG contribution, re-place the trace by its new first event)
/// instead of re-deriving candidates and rebuilding every structure from
/// the whole retained window per evicting batch. A full rebuild remains
/// only for the rare case where eviction flips the winning family.
#[derive(Debug, Clone, Default)]
struct CaseTracker {
    coverage: BTreeMap<String, usize>,
    distinct: caseid::FamilyValues,
    /// The family the incremental structures below are built for.
    family: String,
    /// Case id per retained record, in commit order (ring: eviction pops
    /// the front).
    case_ids: Arc<VecDeque<Option<String>>>,
    /// Absolute stream positions of each open case's retained events —
    /// the front is the trace's first event, which decides trace order.
    /// Hashed: every event looks its case up, and trace order lives in
    /// `firsts`, never in this map.
    positions: HashMap<String, VecDeque<usize>>,
    /// First-event position of each trace of `event_log`, index for index.
    /// Traces are kept in first-occurrence order, so this is strictly
    /// increasing and a case's trace is found by binary search on the
    /// front of its `positions` queue: no case → index map has to be
    /// rewritten when eviction moves traces.
    firsts: Vec<usize>,
    event_log: Arc<EventLog>,
    dfg: DirectlyFollowsGraph,
}

/// Index of the trace whose first retained event is `queue`'s front.
fn trace_index(firsts: &[usize], queue: &VecDeque<usize>) -> usize {
    let first = queue.front().expect("open cases have positions");
    firsts
        .binary_search(first)
        .expect("every open case has a trace")
}

impl CaseTracker {
    /// Fold one record, whose distinct keys `keys` lists, at absolute
    /// stream position `pos`.
    fn observe(&mut self, record: &TxRecord, keys: &[Key], pos: usize) {
        let cands = caseid::Candidates::of(record, keys);
        caseid::observe_family_candidates(&cands, &mut self.coverage, &mut self.distinct);
        let case = if self.family.is_empty() {
            None
        } else {
            caseid::case_from_candidates(&cands, &self.family)
        };
        self.append(case, &record.activity, pos);
    }

    /// Extend the incremental event log / DFG with one event. `pos` exceeds
    /// every stored position, so a new case's trace goes last.
    ///
    /// Allocates the record's case id once (its slot in the case-id ring)
    /// and the event's activity name once (its trace entry); a new case
    /// also owns its id as the positions key and the trace id, and the DFG
    /// only allocates for an activity or edge it has not seen.
    fn append(&mut self, case: Option<&str>, activity: &str, pos: usize) {
        let ids = Arc::make_mut(&mut self.case_ids);
        ids.push_back(case.map(str::to_string));
        let Some(case) = case else {
            return;
        };
        let log = Arc::make_mut(&mut self.event_log);
        match self.positions.get_mut(case) {
            Some(queue) => {
                let idx = trace_index(&self.firsts, queue);
                queue.push_back(pos);
                let trace = log.trace_mut(idx).expect("trace index is valid");
                let prev = trace.activities.last().expect("open traces are non-empty");
                self.dfg.record_trace_extension(prev, activity);
                trace.activities.push(activity.to_string());
            }
            None => {
                self.positions
                    .insert(case.to_string(), VecDeque::from([pos]));
                self.firsts.push(pos);
                log.push(Trace::new(case.to_string(), vec![activity.to_string()]));
                self.dfg.record_trace_start(activity);
            }
        }
    }

    /// Re-check the winning family; rebuild the incremental structures when
    /// it changed (amortized rare — only while early data is still
    /// ambiguous about the dominant identifier family).
    ///
    /// A cached family whose coverage is still within the batch deriver's
    /// 5 % tie band of the current winner is kept, so two families trading
    /// narrow leads can never force repeated O(records) rebuilds. Within
    /// that band the families are equally valid by the deriver's own
    /// definition; a session may therefore keep a different (equally
    /// covering) family than a fresh batch derivation's tie-break would
    /// pick. Metrics and recommendations do not depend on the family —
    /// only the case/trace view does. The band is at least one record, so
    /// it engages on small logs too (5 % of `total < 20` truncates to 0,
    /// which used to disable the documented tie band exactly in the
    /// small-window regime sliding windows create).
    fn refresh(&mut self, records: &[TxRecord], key_lists: &VecDeque<Vec<Key>>, base: usize) {
        let total = records.len().max(1);
        let winner = caseid::pick_family(&self.coverage, &self.distinct, total)
            .map(|(family, _, _)| family)
            .unwrap_or_default();
        if winner == self.family {
            return;
        }
        if !self.family.is_empty() {
            let band = ((total as f64 * 0.05) as usize).max(1);
            let cached = self.coverage.get(&self.family).copied().unwrap_or(0);
            let won = self.coverage.get(winner).copied().unwrap_or(0);
            if cached.abs_diff(won) <= band {
                return;
            }
        }
        self.family = winner.to_string();
        self.rebuild_structures(records, key_lists.iter(), base);
    }

    /// Retract the evicted prefix from the case state — **incrementally**.
    ///
    /// The family statistics are exact multisets, so the evicted records'
    /// candidates are subtracted and the winner re-picked *without* the
    /// hysteresis band (the windowed view must equal a fresh derivation
    /// over the suffix). Under an unchanged winner, each evicted event
    /// pops its trace's head: the DFG retracts the start/edge
    /// ([`DirectlyFollowsGraph::unrecord_trace_head`]), emptied traces are
    /// dropped, and each surviving affected trace is re-placed by its new
    /// first event. Only a family flip (rare, early-stream) still rebuilds
    /// from the retained records.
    ///
    /// Cost: O(evicted + affected · log affected), with `affected` the
    /// traces that lost events, plus one pass that moves each retained
    /// trace once; the unaffected traces are neither looked up nor cloned.
    /// Allocations: a few per-batch `Vec`s for the re-placed traces;
    /// counters and DFG entries are decremented by borrowed key.
    ///
    /// `records[..k]` are evicted and `records[k..]` survive, with their
    /// key lists at the same positions of `key_lists`; `base` is the
    /// absolute stream position of `records[k]`.
    fn evict(
        &mut self,
        records: &[TxRecord],
        key_lists: &VecDeque<Vec<Key>>,
        k: usize,
        base: usize,
    ) {
        let (evicted, retained) = records.split_at(k);
        for (record, keys) in evicted.iter().zip(key_lists) {
            let cands = caseid::Candidates::of(record, keys);
            caseid::retract_family_candidates(&cands, &mut self.coverage, &mut self.distinct);
        }
        let winner = caseid::pick_family(&self.coverage, &self.distinct, retained.len().max(1))
            .map(|(family, _, _)| family)
            .unwrap_or_default();
        if winner != self.family {
            self.family = winner.to_string();
            self.rebuild_structures(retained, key_lists.range(k..), base);
            return;
        }
        Arc::make_mut(&mut self.case_ids).drain(..k);

        // Evicted records are a stream prefix and traces sit in
        // first-event order, so the traces that lost events are exactly
        // the leading traces whose first event precedes `base`; every
        // other trace keeps its events and its relative order.
        let affected = self.firsts.partition_point(|&first| first < base);
        if affected == 0 {
            return;
        }
        let log = Arc::make_mut(&mut self.event_log);
        let mut traces = std::mem::take(log).into_traces().into_iter();
        // Each affected case loses a *prefix* of its trace: drain it once
        // (one memmove per trace, not a `remove(0)` per event) and keep
        // the survivors keyed by their new first position.
        let mut moved: Vec<(usize, Trace)> = Vec::new();
        for mut trace in traces.by_ref().take(affected) {
            let queue = self
                .positions
                .get_mut(&trace.case_id)
                .expect("open case has positions");
            let lost = queue.partition_point(|&p| p < base);
            queue.drain(..lost);
            for i in 0..lost {
                self.dfg.unrecord_trace_head(
                    &trace.activities[i],
                    trace.activities.get(i + 1).map(String::as_str),
                );
            }
            trace.activities.drain(..lost);
            match queue.front() {
                Some(&first) => moved.push((first, trace)),
                None => {
                    self.positions.remove(&trace.case_id);
                }
            }
        }
        // A fresh derivation orders traces by first occurrence in the
        // suffix: merge the re-keyed survivors into the untouched, already
        // ordered rest.
        moved.sort_unstable_by_key(|&(first, _)| first);
        let rest = &self.firsts[affected..];
        let mut order = Vec::with_capacity(rest.len() + moved.len());
        let mut firsts = Vec::with_capacity(order.capacity());
        let mut moved = moved.into_iter().peekable();
        for (trace, &first) in traces.zip(rest) {
            while let Some((f, t)) = moved.next_if(|&(f, _)| f < first) {
                order.push(t);
                firsts.push(f);
            }
            order.push(trace);
            firsts.push(first);
        }
        for (f, t) in moved {
            order.push(t);
            firsts.push(f);
        }
        *log = EventLog::from_traces(order);
        self.firsts = firsts;
    }

    /// Rebuild the case-id list, event log, and DFG for the current family
    /// from `records` and their key lists (`base` is the absolute stream
    /// position of `records[0]`).
    fn rebuild_structures<'k>(
        &mut self,
        records: &[TxRecord],
        key_lists: impl Iterator<Item = &'k Vec<Key>>,
        base: usize,
    ) {
        self.case_ids = Arc::new(VecDeque::with_capacity(records.len()));
        self.firsts.clear();
        self.positions.clear();
        self.event_log = Arc::new(EventLog::new());
        self.dfg = DirectlyFollowsGraph::default();
        for (i, (record, keys)) in records.iter().zip(key_lists).enumerate() {
            let case = if self.family.is_empty() {
                None
            } else {
                caseid::case_from_candidates(&caseid::Candidates::of(record, keys), &self.family)
            };
            self.append(case, &record.activity, base + i);
        }
    }

    fn derivation(&self, total_records: usize) -> CaseDerivation {
        let total = total_records.max(1);
        let covered = self.coverage.get(&self.family).copied().unwrap_or(0);
        CaseDerivation {
            family: self.family.clone(),
            coverage: if self.family.is_empty() {
                0.0
            } else {
                covered as f64 / total as f64
            },
            distinct_cases: self
                .distinct
                .get(&self.family)
                .map(HashMap::len)
                .unwrap_or(0),
            case_ids: self.case_ids.clone(),
        }
    }
}

/// Per-tracker state sizes of a [`Session`] (see [`Session::footprint`]).
/// Every field counts live entries in one piece of running state; under a
/// bounded [`WindowPolicy`] all of them are bounded by the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(
    missing_docs,
    reason = "each field is fully described by the struct docs above (live entries in one tracker); per-field doc lines would repeat that nine times"
)]
pub struct SessionFootprint {
    pub records: usize,
    pub rate_intervals: usize,
    pub send_times: usize,
    pub blocks: usize,
    pub endorser_peers: usize,
    pub invoker_clients: usize,
    pub failed_keys: usize,
    pub key_handles: usize,
    pub conflicts: usize,
    pub writer_entries: usize,
    pub activity_entries: usize,
    pub delta_deps: usize,
    pub activity_types: usize,
    pub case_events: usize,
    pub dfg_edges: usize,
    pub families: usize,
}

impl SessionFootprint {
    /// Order-of-magnitude resident-set estimate in bytes: each entry count
    /// weighted by a fixed per-entry cost (struct size plus typical heap
    /// payload — key strings, map nodes). Deterministic by construction
    /// (pure arithmetic over the counts), so tests can compare it
    /// byte-for-byte, and the sustained-ingest bench reports it as
    /// `session_footprint_bytes`. Under a bounded
    /// [`WindowPolicy`] it inherits every field's flatness: the estimate is
    /// a linear function of counts that eviction keeps bounded.
    pub fn approx_bytes(&self) -> usize {
        // Weights: mem::size_of of the dominant struct rounded up for its
        // heap parts (e.g. a TxRecord's strings, args, and rwset vectors); a
        // key handle shares its key, so it weighs its fat pointer alone.
        self.records * 320
            + self.rate_intervals * 8
            + self.send_times * 24
            + self.blocks * 16
            + self.endorser_peers * 32
            + self.invoker_clients * 48
            + self.failed_keys * 48
            + self.key_handles * 16
            + self.conflicts * 160
            + self.writer_entries * 56
            + self.activity_entries * 56
            + self.delta_deps * 40
            + self.activity_types * 64
            + self.case_events * 40
            + self.dfg_edges * 72
            + self.families * 48
    }
}

/// Everything a [`Session`] folds from its retained records: one tracker
/// per metric family, the case state, the stream bounds, and each retained
/// record's distinct keys.
///
/// A record's keys are listed once, at ingest, as shared handles to the
/// record's own keys; the key tracker and the case candidates read that
/// list on ingest and again when the record is evicted.
///
/// It is a field of its own, apart from the log, so that ingest and
/// eviction read `log.records()` while they write the trackers as a borrow
/// of the `log` field — never through a cloned `Arc`. When eviction then
/// takes the log with `Arc::make_mut`, the session is its only owner
/// (unless a caller still holds a snapshot), so the evicted prefix is
/// dropped in place instead of the retained window being copied.
#[derive(Debug, Clone)]
struct Trackers {
    last_block: u64,
    first_send: Option<SimTime>,
    last_commit: Option<SimTime>,
    rates: RateTracker,
    block_sizes: BTreeMap<u64, usize>,
    endorsers: EndorserCounts,
    invokers: InvokerCounts,
    keys: KeyMetrics,
    correlation: CorrelationTracker,
    type_hist: ActivityTypeHistogram,
    cases: CaseTracker,
    /// [`ReadWriteSet::all_keys`](fabric_sim::rwset::ReadWriteSet::all_keys)
    /// of each retained record, index for index with the log's records.
    key_lists: VecDeque<Vec<Key>>,
}

impl Trackers {
    fn new(interval: SimDuration) -> Self {
        Trackers {
            last_block: 0,
            first_send: None,
            last_commit: None,
            rates: RateTracker::new(interval),
            block_sizes: BTreeMap::new(),
            endorsers: EndorserCounts::default(),
            invokers: InvokerCounts::default(),
            keys: KeyMetrics::default(),
            correlation: CorrelationTracker::default(),
            type_hist: ActivityTypeHistogram::new(),
            cases: CaseTracker::default(),
            key_lists: VecDeque::new(),
        }
    }

    /// Fold `records[first_new..]` into every tracker, in commit order;
    /// `base` is the absolute stream position of `records[0]`.
    ///
    /// Counters are bumped by borrowed key or by id, so a record allocates
    /// only for what is new to the window (a key, peer, activity, family or
    /// DFG edge seen for the first time), for its conflict pair when it is
    /// a read conflict with an identified writer, for its key list (one
    /// `Vec`, kept until the record is evicted), and for its case id and
    /// event-log activity.
    fn observe(&mut self, records: &[TxRecord], first_new: usize, base: usize) {
        for (pos, record) in records.iter().enumerate().skip(first_new) {
            let keys = record.rwset.all_keys();
            self.last_block = self.last_block.max(record.block);
            self.first_send = Some(
                self.first_send
                    .map_or(record.client_ts, |t| t.min(record.client_ts)),
            );
            self.last_commit = Some(
                self.last_commit
                    .map_or(record.commit_ts, |t| t.max(record.commit_ts)),
            );
            self.rates.observe(record);
            *self.block_sizes.entry(record.block).or_insert(0) += 1;
            self.endorsers.observe(record);
            self.invokers.observe(record);
            if record.failed() {
                self.keys.observe_failed_keys(&record.activity, &keys);
            }
            self.correlation.observe(records, base + pos);
            observe_activity_type(&mut self.type_hist, &record.activity, record.tx_type);
            self.cases.observe(record, &keys, base + pos);
            self.key_lists.push_back(keys);
        }
    }

    /// How many leading `records` the window policy no longer covers.
    ///
    /// Eviction is always a prefix of the retained records: commit
    /// timestamps and (ledger-extracted) block numbers are nondecreasing in
    /// commit order. The prefix is found by a linear front scan, not a
    /// binary search: the scan's cost is the eviction's own size, and "the
    /// maximal prefix of too-old records" stays well-defined even if a
    /// caller mixed ingest paths into a non-monotone block/time sequence
    /// (where a binary search could return an arbitrary boundary).
    fn expired(&self, records: &[TxRecord], window: WindowPolicy) -> usize {
        let prefix_while =
            |too_old: &dyn Fn(&TxRecord) -> bool| records.iter().take_while(|r| too_old(r)).count();
        let horizon = |d: SimDuration| match self.last_commit {
            Some(last) => prefix_while(&|r| last.since(r.commit_ts) > d),
            // Nothing ingested yet (e.g. an empty first batch): there is no
            // last-commit anchor, and nothing to evict.
            None => 0,
        };
        match window {
            WindowPolicy::Unbounded => 0,
            WindowPolicy::LastBlocks(n) => {
                let n = n.max(1);
                if self.block_sizes.len() <= n {
                    0
                } else {
                    // The n-th highest block number that still has records
                    // is the oldest retained block.
                    let cutoff = *self
                        .block_sizes
                        .keys()
                        .rev()
                        .nth(n - 1)
                        .expect("more than n blocks present");
                    prefix_while(&|r| r.block < cutoff)
                }
            }
            WindowPolicy::LastDuration(d) => horizon(d),
        }
    }

    /// Retract `records[..k]` from every tracker, reading the records and
    /// the key lists stored at their ingest where they lie (no copy of the
    /// evicted prefix), then drop those lists; `base` is the absolute
    /// stream position of `records[k]`, the first survivor.
    ///
    /// Counters are decremented by borrowed key or by id, so an evicted
    /// record allocates nothing; see [`Session::evict_expired`].
    fn retract(&mut self, records: &[TxRecord], k: usize, base: usize) {
        let evicted = &records[..k];
        for (r, keys) in evicted.iter().zip(&self.key_lists) {
            self.rates.retract(r);
            crate::metrics::decrement(&mut self.block_sizes, &r.block);
            self.endorsers.retract(r);
            self.invokers.retract(r);
            if r.failed() {
                self.keys.retract_failed_keys(&r.activity, keys);
            }
            crate::recommend::retract_activity_type(&mut self.type_hist, &r.activity, r.tx_type);
        }
        self.correlation.evict(evicted, records[k].commit_index);
        // The evicted prefix may have carried the window's extremes.
        self.first_send = self.rates.first_send();
        self.cases.evict(records, &self.key_lists, k, base);
        self.key_lists.drain(..k);
    }
}

/// Everything one analysis produces: a [`Session::snapshot`], or a
/// one-shot [`Analyzer`] call.
///
/// The heavyweight inputs (`log`, `event_log`, `case_derivation.case_ids`)
/// are `Arc`-shared with the producing session, so taking a snapshot per
/// window does not copy the accumulated history.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The preprocessed blockchain log.
    pub log: Arc<BlockchainLog>,
    /// The derived metrics.
    pub metrics: Metrics,
    /// How CaseIDs were derived.
    pub case_derivation: CaseDerivation,
    /// The generated event log.
    pub event_log: Arc<EventLog>,
    /// The mined process model (heuristics dependency graph — robust to the
    /// noise that transaction failures inject; the Alpha net is available
    /// via `process_mining::alpha_miner(&analysis.event_log)`).
    pub model: DependencyGraph,
    /// The thresholds the recommendations were evaluated against (the
    /// configured set, or the derived one when auto-tuning is enabled).
    pub thresholds: Thresholds,
    /// The recommendations, sorted by level then name.
    pub recommendations: Vec<Recommendation>,
}

impl Analysis {
    /// Reorder the event log's traces by case id, matching
    /// [`to_event_log`](crate::eventlog::to_event_log)'s ordering. The
    /// one-shot [`Analyzer`] entry points apply this so batch exports (XES,
    /// DOT) are byte-stable; streaming snapshots keep first-appearance
    /// order to stay O(state).
    pub fn with_sorted_traces(mut self) -> Self {
        let mut traces = self.event_log.traces().to_vec();
        traces.sort_by(|a, b| a.case_id.cmp(&b.case_id));
        self.event_log = Arc::new(EventLog::from_traces(traces));
        self
    }

    /// Recommendation names, for quick assertions and table rendering.
    pub fn recommendation_names(&self) -> Vec<&str> {
        self.recommendations.iter().map(|r| r.name()).collect()
    }

    /// Whether a recommendation with the given name is present.
    pub fn recommends(&self, name: &str) -> bool {
        self.recommendations.iter().any(|r| r.name() == name)
    }
}

/// A stateful incremental analysis: feed it blocks, take snapshots.
///
/// All metric state is maintained *running*: each ingested transaction
/// updates interval rate buckets, block sizes, endorser/invoker counters,
/// hot-key counters, the conflict scan, the activity-type histogram, and
/// the directly-follows graph — so [`snapshot`](Session::snapshot) costs
/// O(state), not O(log). Cloning a `Session` forks the analysis (the
/// accumulated log is shared copy-on-write).
#[derive(Debug, Clone)]
pub struct Session {
    config: Analyzer,
    log: Arc<BlockchainLog>,
    /// Records evicted since the session opened (the absolute stream
    /// position of `log.records()[0]`).
    evicted: usize,
    state: Trackers,
}

impl Session {
    /// The widest client-timestamp span, in metric intervals, that a
    /// session accepts (2²², about 48.5 days at the default 1 s interval).
    /// [`ingest_block`](Self::ingest_block),
    /// [`ingest_ledger`](Self::ingest_ledger) and
    /// [`ingest_log`](Self::ingest_log), which [`merge`](Self::merge) calls,
    /// reject a wider span with [`AnalyzeError::TimestampSpan`] before any
    /// state changes.
    ///
    /// The interval rate series holds one dense counter per interval from
    /// the earliest to the latest client timestamp in the session, so its
    /// memory follows the timestamp *span*, not the record count: a single
    /// outlying timestamp such as `u64::MAX` µs would otherwise ask for
    /// terabytes. At the bound the two series take 64 MiB. A longer
    /// history fits under a wider [`MetricConfig::interval`].
    pub const MAX_RATE_INTERVALS: u64 = 1 << 22;

    fn new(config: Analyzer) -> Self {
        let state = Trackers::new(config.metric_config.interval);
        Session {
            config,
            log: Arc::new(BlockchainLog::default()),
            evicted: 0,
            state,
        }
    }

    /// Transactions currently retained (the window size for bounded
    /// policies; everything ingested for [`WindowPolicy::Unbounded`]).
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// Records evicted by the window policy since the session opened.
    pub fn evicted(&self) -> usize {
        self.evicted
    }

    /// Whether nothing has been ingested yet.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Highest block number ingested (0 before the first block).
    pub fn last_block(&self) -> u64 {
        self.state.last_block
    }

    /// The accumulated blockchain log (shared; snapshots alias it).
    pub fn log(&self) -> &BlockchainLog {
        &self.log
    }

    /// Ingest one committed block. Returns the number of records added, or
    /// [`AnalyzeError::TimestampSpan`] (before any state changes) when the
    /// block's client timestamps would stretch the session over more than
    /// [`MAX_RATE_INTERVALS`](Self::MAX_RATE_INTERVALS) intervals.
    pub fn ingest_block(&mut self, block: &Block) -> Result<usize, AnalyzeError> {
        self.check_span(block.txs.iter().map(|tx| tx.client_ts))?;
        let first_new = self.log.len();
        let added = Arc::make_mut(&mut self.log).append_block(block, |_| true);
        self.state.last_block = self.state.last_block.max(block.number);
        self.observe_from(first_new);
        Ok(added)
    }

    /// Ingest every block the ledger has appended since the last call
    /// (streaming resume: blocks at or below [`last_block`](Self::last_block)
    /// are skipped). Returns the number of records added.
    ///
    /// All new blocks are appended first and folded as **one** batch, so a
    /// large catch-up (or a one-shot [`Analyzer::analyze_ledger`]) evicts
    /// and re-checks the case family once, not once per block. Rejects the
    /// new blocks like [`ingest_block`](Self::ingest_block) does, before
    /// any state changes.
    pub fn ingest_ledger(&mut self, ledger: &Ledger) -> Result<usize, AnalyzeError> {
        let blocks = ledger.blocks_from(self.state.last_block + 1);
        self.check_span(
            blocks
                .iter()
                .flat_map(|block| block.txs.iter().map(|tx| tx.client_ts)),
        )?;
        let first_new = self.log.len();
        let mut added = 0;
        let mut last_block = self.state.last_block;
        {
            let log = Arc::make_mut(&mut self.log);
            for block in blocks {
                added += log.append_block(block, |_| true);
                last_block = last_block.max(block.number);
            }
        }
        self.state.last_block = last_block;
        if added > 0 {
            self.observe_from(first_new);
        }
        Ok(added)
    }

    /// Ingest an already-extracted log window (e.g. replayed from a JSON
    /// export). Records keep their commit indices and must arrive in commit
    /// order, as an export produces them — out-of-order windows are
    /// rejected with [`AnalyzeError::OutOfOrder`] before any state changes.
    /// On a session with a bounded [`WindowPolicy`], block numbers must be
    /// nondecreasing too (every chain-extracted export satisfies this):
    /// block-count eviction is defined on that order, so a renumbered or
    /// hand-merged log is rejected rather than silently evicting the wrong
    /// records. A window whose client timestamps would stretch the session
    /// over more than [`MAX_RATE_INTERVALS`](Self::MAX_RATE_INTERVALS) is
    /// rejected with [`AnalyzeError::TimestampSpan`], also before any state
    /// changes. Returns the number of records added.
    pub fn ingest_log(&mut self, window: BlockchainLog) -> Result<usize, AnalyzeError> {
        // Commit indices must be strictly increasing: every producer path
        // (ledger extraction, exports) assigns unique ascending indices, so
        // an equal index can only be a duplicated window — e.g. a retry
        // replaying data the session already holds — which would silently
        // double every metric if accepted.
        let mut last = self.log.records().last().map(|r| r.commit_index);
        let windowed = self.config.window != WindowPolicy::Unbounded;
        let mut last_block = self.log.records().last().map(|r| r.block);
        for record in window.records() {
            if let Some(after) = last {
                if record.commit_index <= after {
                    return Err(AnalyzeError::OutOfOrder {
                        index: record.commit_index,
                        after,
                    });
                }
            }
            last = Some(record.commit_index);
            if windowed {
                if let Some(after) = last_block {
                    if record.block < after {
                        return Err(AnalyzeError::BlockOrder {
                            block: record.block,
                            after,
                        });
                    }
                }
                last_block = Some(record.block);
            }
        }
        self.check_span(window.records().iter().map(|r| r.client_ts))?;

        let first_new = self.log.len();
        let (records, declared_blocks) = window.into_records();
        let added = records.len();
        // Blocks can span window boundaries; count a window's declared
        // block count only for a fresh session (it is then the source
        // log's own tally, which may include blocks whose transactions
        // were filtered out) and distinct *new* block numbers afterwards,
        // so a block cut across two windows is not counted twice.
        let new_blocks = if first_new == 0 {
            declared_blocks
        } else {
            records
                .iter()
                .map(|r| r.block)
                .filter(|b| !self.state.block_sizes.contains_key(b))
                .collect::<BTreeSet<u64>>()
                .len()
        };
        {
            let log = Arc::make_mut(&mut self.log);
            for record in records {
                log.push_record(record);
            }
            log.add_blocks(new_blocks);
        }
        self.observe_from(first_new);
        Ok(added)
    }

    /// Error with [`AnalyzeError::TimestampSpan`] when the session's client
    /// timestamps together with `sends` would span more than
    /// [`MAX_RATE_INTERVALS`](Self::MAX_RATE_INTERVALS) metric intervals.
    /// Every ingest path calls this before any state changes.
    fn check_span(&self, sends: impl IntoIterator<Item = SimTime>) -> Result<(), AnalyzeError> {
        let rates = &self.state.rates;
        let held = rates.first_send().zip(rates.last_send());
        let span = sends.into_iter().fold(held, |span, t| {
            Some(span.map_or((t, t), |(lo, hi)| (lo.min(t), hi.max(t))))
        });
        if let Some((first, last)) = span {
            let width = self.config.metric_config.interval.as_micros();
            if last.as_micros() / width - first.as_micros() / width >= Self::MAX_RATE_INTERVALS {
                return Err(AnalyzeError::TimestampSpan { first, last });
            }
        }
        Ok(())
    }

    /// Fold every record at position `first_new..` into the running state,
    /// on the calling thread: one fold, whatever the batch size.
    fn observe_from(&mut self, first_new: usize) {
        self.state
            .observe(self.log.records(), first_new, self.evicted);
        // With a bounded window, retract everything that aged out of it —
        // after the fold so the batch itself decides what is oldest.
        if self.evict_expired() {
            // Eviction already re-picked the family (fresh, no hysteresis)
            // and retracted the evicted events from the case state.
            return;
        }
        // Re-check the winning identifier family once per batch, so the
        // event-log/DFG cache is (re)built here — amortized over ingestion —
        // and snapshots stay O(state).
        let state = &mut self.state;
        state
            .cases
            .refresh(self.log.records(), &state.key_lists, self.evicted);
    }

    /// Evict every record the window policy no longer covers, retracting
    /// its contribution from all running state. Returns whether anything
    /// was evicted (in which case the case state already re-picked the
    /// family over the retained window, without hysteresis).
    ///
    /// Cost: O(evicted records + the traces they touch), plus one pass
    /// over the retained traces and one over the correlation tracker's
    /// retained conflicts and key maps; never a copy of the retained
    /// records. The trackers retract from the log's own prefix before the
    /// log drops it, and the log is written in place: `records` below
    /// borrows the `log` field, so the session holds no second `Arc` to it
    /// and `Arc::make_mut` copies nothing unless a caller still holds a
    /// snapshot.
    ///
    /// Allocations: every counter is decremented by borrowed key or by id,
    /// the key lists stored at ingest are read, not rebuilt, and the
    /// conflict list is filtered in place, so an evicted record allocates
    /// nothing; each evicting batch adds the few `Vec`s that re-place its
    /// traces.
    fn evict_expired(&mut self) -> bool {
        let records = self.log.records();
        let k = self.state.expired(records, self.config.window);
        if k == 0 {
            return false;
        }
        debug_assert!(k < records.len(), "the newest record is always retained");
        self.evicted += k;
        self.state.retract(records, k, self.evicted);
        // The log's block tally becomes the distinct blocks the retained
        // records span (windowed sessions count blocks from records).
        let blocks = self.state.block_sizes.len();
        Arc::make_mut(&mut self.log).evict_front(k, blocks);
        true
    }

    /// The sizes of every piece of running state — the memory-boundedness
    /// witness: under a bounded [`WindowPolicy`] each field stays flat
    /// (bounded by the window's content) no matter how long the session
    /// runs, and equals the footprint of a fresh session fed only the
    /// retained suffix.
    pub fn footprint(&self) -> SessionFootprint {
        let (conflicts, writer_entries, activity_entries, delta_deps) =
            self.state.correlation.footprint();
        SessionFootprint {
            records: self.log.len(),
            rate_intervals: self.state.rates.stored_intervals(),
            send_times: self.state.rates.distinct_send_times(),
            blocks: self.state.block_sizes.len(),
            endorser_peers: self.state.endorsers.peers(),
            invoker_clients: self.state.invokers.clients(),
            failed_keys: self.state.keys.kfreq.len(),
            key_handles: self.state.key_lists.iter().map(Vec::len).sum(),
            conflicts,
            writer_entries,
            activity_entries,
            delta_deps,
            activity_types: self.state.type_hist.len(),
            case_events: self.state.cases.event_log.event_count(),
            dfg_edges: self.state.cases.dfg.edge_count(),
            families: self.state.cases.coverage.len(),
        }
    }

    /// The observation window in seconds (first client send → last commit).
    pub fn window_secs(&self) -> f64 {
        match (self.state.first_send, self.state.last_commit) {
            (Some(first), Some(last)) => last.since(first).as_secs_f64(),
            _ => 0.0,
        }
    }

    /// Materialize an [`Analysis`] from the running state. Errors when
    /// nothing has been ingested.
    ///
    /// Snapshots share the accumulated log, event log, and conflict history
    /// with the session (copy-on-write), so taking one costs O(state) —
    /// intervals, activities, distinct keys — not O(log). The flip side:
    /// a snapshot **retained across a later ingest** forces that ingest to
    /// copy the shared history once before writing. Drop (or finish with)
    /// each window's snapshot before ingesting the next window to keep
    /// ingestion O(new data); retain snapshots deliberately when you want
    /// an immutable point-in-time view and can afford the one-time copy.
    pub fn snapshot(&self) -> Result<Analysis, AnalyzeError> {
        if self.is_empty() {
            return Err(AnalyzeError::EmptyLog);
        }
        let rates = self.state.rates.snapshot();
        let mut keys = self.state.keys.clone();
        keys.select_hotkeys(&self.config.metric_config);
        let metrics = Metrics {
            rates,
            block: BlockMetrics::from_sizes(&self.state.block_sizes),
            endorsers: self.state.endorsers.render(),
            invokers: self.state.invokers.render(),
            keys,
            correlation: self.state.correlation.snapshot(),
        };
        let thresholds = if self.config.auto_tune {
            tune_from_rates(&metrics.rates, self.window_secs()).thresholds
        } else {
            self.config.thresholds.clone()
        };
        // The case cache is refreshed at the end of every ingest batch
        // (observe_from), so it is already current here — snapshots are
        // read-only.
        let model = mine_from_dfg(&self.state.cases.dfg, &self.config.mining);
        let recommendations = self.config.rules.recommendations(&RuleCtx {
            metrics: &metrics,
            thresholds: &thresholds,
            type_hist: &self.state.type_hist,
            log: Some(&self.log),
        });
        Ok(Analysis {
            log: Arc::clone(&self.log),
            case_derivation: self.state.cases.derivation(self.log.len()),
            event_log: Arc::clone(&self.state.cases.event_log),
            model,
            metrics,
            thresholds,
            recommendations,
        })
    }

    /// Fold another session's retained records into this one: one more
    /// [`ingest_log`](Self::ingest_log) batch of `other`'s log, under this
    /// session's configuration and with every check of that call. Records
    /// `other` already evicted are gone and do not count toward
    /// [`evicted`](Self::evicted).
    pub fn merge(&mut self, other: Session) -> Result<(), AnalyzeError> {
        self.ingest_log(Arc::unwrap_or_clone(other.log)).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::test_support::{log_of, Rec};
    use fabric_sim::ledger::TxStatus;
    use fabric_sim::types::{ClientId, OrgId, PeerId};
    use workload::spec::ControlVariables;

    fn small_output() -> fabric_sim::sim::SimOutput {
        let cv = ControlVariables {
            transactions: 2_000,
            ..Default::default()
        };
        workload::synthetic::generate(&cv).run(cv.network_config())
    }

    /// The tentpole invariant: feeding a ledger block-by-block through a
    /// session yields the same analysis as the one-shot batch path.
    #[test]
    fn incremental_snapshot_matches_batch_analysis() {
        let output = small_output();
        let batch = Analyzer::new().analyze_ledger(&output.ledger).unwrap();

        let mut session = Analyzer::new().session().unwrap();
        for block in output.ledger.blocks() {
            session.ingest_block(block).unwrap();
        }
        let streamed = session.snapshot().unwrap();

        assert_eq!(streamed.log.len(), batch.log.len());
        assert_eq!(streamed.metrics.rates.tr, batch.metrics.rates.tr);
        assert_eq!(streamed.metrics.rates.tfr, batch.metrics.rates.tfr);
        assert_eq!(
            streamed.metrics.rates.tx_per_interval,
            batch.metrics.rates.tx_per_interval
        );
        assert_eq!(
            streamed.metrics.rates.failures_per_interval,
            batch.metrics.rates.failures_per_interval
        );
        assert_eq!(
            streamed.metrics.block.avg_block_size,
            batch.metrics.block.avg_block_size
        );
        assert_eq!(streamed.metrics.block.blocks, batch.metrics.block.blocks);
        assert_eq!(
            streamed.metrics.endorsers.per_org,
            batch.metrics.endorsers.per_org
        );
        assert_eq!(
            streamed.metrics.invokers.per_org,
            batch.metrics.invokers.per_org
        );
        assert_eq!(streamed.metrics.keys.kfreq, batch.metrics.keys.kfreq);
        assert_eq!(streamed.metrics.keys.hotkeys, batch.metrics.keys.hotkeys);
        assert_eq!(
            streamed.metrics.correlation.read_conflicts,
            batch.metrics.correlation.read_conflicts
        );
        assert_eq!(
            streamed.metrics.correlation.identified,
            batch.metrics.correlation.identified
        );
        assert_eq!(
            streamed.metrics.correlation.reorderable,
            batch.metrics.correlation.reorderable
        );
        assert_eq!(
            streamed.metrics.correlation.mean_distance,
            batch.metrics.correlation.mean_distance
        );
        assert_eq!(
            streamed.case_derivation.family,
            batch.case_derivation.family
        );
        assert_eq!(
            streamed.case_derivation.distinct_cases,
            batch.case_derivation.distinct_cases
        );
        assert_eq!(
            streamed.case_derivation.case_ids,
            batch.case_derivation.case_ids
        );
        assert_eq!(streamed.event_log.len(), batch.event_log.len());
        assert_eq!(
            streamed.event_log.event_count(),
            batch.event_log.event_count()
        );
        assert_eq!(streamed.model.edges, batch.model.edges);
        assert_eq!(streamed.model.starts, batch.model.starts);
        assert_eq!(
            streamed.recommendation_names(),
            batch.recommendation_names()
        );
    }

    /// Snapshots between ingests must agree with a batch run over the same
    /// prefix, and the final state must not depend on window boundaries.
    #[test]
    fn mid_stream_snapshots_are_prefix_analyses() {
        let output = small_output();
        let blocks = output.ledger.blocks();
        let mut session = Analyzer::new().session().unwrap();
        let mut prefix = fabric_sim::ledger::Ledger::new();
        for (i, block) in blocks.iter().enumerate() {
            session.ingest_block(block).unwrap();
            prefix.append(block.clone());
            if i % 7 == 0 {
                let streamed = session.snapshot().unwrap();
                let batch = Analyzer::new().analyze_ledger(&prefix).unwrap();
                assert_eq!(streamed.metrics.rates.total, batch.metrics.rates.total);
                assert_eq!(
                    streamed.metrics.correlation.identified,
                    batch.metrics.correlation.identified
                );
                assert_eq!(
                    streamed.recommendation_names(),
                    batch.recommendation_names()
                );
            }
        }
    }

    #[test]
    fn ingest_ledger_resumes_after_last_block() {
        let output = small_output();
        let mut session = Analyzer::new().session().unwrap();
        let first = session.ingest_ledger(&output.ledger).unwrap();
        assert_eq!(first, output.report.committed);
        // Re-ingesting the same ledger adds nothing.
        assert_eq!(session.ingest_ledger(&output.ledger), Ok(0));
        assert_eq!(session.len(), output.report.committed);
        assert_eq!(
            session.last_block(),
            output.ledger.blocks().last().unwrap().number
        );
    }

    #[test]
    fn empty_session_snapshot_errors() {
        let session = Analyzer::new().session().unwrap();
        assert_eq!(session.snapshot().unwrap_err(), AnalyzeError::EmptyLog);
    }

    #[test]
    fn empty_ledger_yields_empty_analysis() {
        let err = Analyzer::new().analyze_ledger(&Ledger::new()).unwrap_err();
        assert_eq!(err, AnalyzeError::EmptyLog);
    }

    #[test]
    fn pipeline_produces_complete_analysis() {
        let output = small_output();
        let analysis = Analyzer::new().analyze_ledger(&output.ledger).unwrap();
        assert_eq!(analysis.log.len(), output.report.committed);
        assert!(analysis.metrics.rates.tr > 0.0);
        assert!(!analysis.event_log.is_empty());
        assert_eq!(analysis.case_derivation.family, "k");
        assert!(analysis.model.activity_counts.len() >= 4);
        assert_eq!(analysis.thresholds, Thresholds::default());
    }

    #[test]
    fn default_synthetic_recommends_sensibly() {
        // At send rate 300 with block count 100, the mismatch fires block
        // size adaptation; conflicts are mostly read-vs-update (reorderable).
        let cv = ControlVariables::default();
        let output = workload::synthetic::generate(&cv).run(cv.network_config());
        let analysis = Analyzer::new().analyze_ledger(&output.ledger).unwrap();
        assert!(
            analysis.recommends("Block size adaptation"),
            "{:?}",
            analysis.recommendation_names()
        );
        // Never the data-level or pruning rules on the plain contract.
        assert!(!analysis.recommends("Process model pruning"));
        assert!(!analysis.recommends("Delta writes"));
        assert!(!analysis.recommends("Data model alteration"));
        assert!(!analysis.recommends("Smart contract partitioning"));
    }

    #[test]
    fn analysis_accessors() {
        let output = small_output();
        let analysis = Analyzer::new().analyze_ledger(&output.ledger).unwrap();
        let names = analysis.recommendation_names();
        for n in &names {
            assert!(analysis.recommends(n));
        }
        assert!(!analysis.recommends("Nonexistent rule"));
    }

    /// The thread knob never changes an analysis: a session opened with
    /// four threads folds the same ledger into the same snapshot as one
    /// opened with one (ingest folds on the calling thread either way).
    #[test]
    fn sharded_ingest_matches_serial_observe() {
        let output = small_output();
        // Reference: one thread, whole ledger.
        let mut serial = Analyzer::new().threads(1).session().unwrap();
        serial.ingest_ledger(&output.ledger).unwrap();
        let a = serial.snapshot().unwrap();
        // Four threads, same ledger in one 2 000-record batch.
        let mut four = Analyzer::new().threads(4).session().unwrap();
        four.ingest_ledger(&output.ledger).unwrap();
        let b = four.snapshot().unwrap();

        assert_eq!(a.log.len(), b.log.len());
        assert_eq!(
            a.metrics.rates.tx_per_interval,
            b.metrics.rates.tx_per_interval
        );
        assert_eq!(
            a.metrics.rates.failures_per_interval,
            b.metrics.rates.failures_per_interval
        );
        assert_eq!(
            a.metrics.block.avg_block_size,
            b.metrics.block.avg_block_size
        );
        assert_eq!(a.metrics.endorsers.per_org, b.metrics.endorsers.per_org);
        assert_eq!(a.metrics.invokers.per_org, b.metrics.invokers.per_org);
        assert_eq!(a.metrics.keys.kfreq, b.metrics.keys.kfreq);
        assert_eq!(a.metrics.keys.hotkeys, b.metrics.keys.hotkeys);
        assert_eq!(
            a.metrics.correlation.read_conflicts,
            b.metrics.correlation.read_conflicts
        );
        assert_eq!(
            a.metrics.correlation.mean_distance,
            b.metrics.correlation.mean_distance
        );
        assert_eq!(a.case_derivation.family, b.case_derivation.family);
        assert_eq!(a.case_derivation.case_ids, b.case_derivation.case_ids);
        assert_eq!(a.event_log.len(), b.event_log.len());
        assert_eq!(a.model.edges, b.model.edges);
        assert_eq!(a.recommendation_names(), b.recommendation_names());
    }

    /// A whole-ledger ingest at four threads must also equal the
    /// block-by-block streaming fold at one.
    #[test]
    fn sharded_ledger_ingest_matches_blockwise_streaming() {
        let output = small_output();
        let mut blockwise = Analyzer::new().threads(1).session().unwrap();
        for block in output.ledger.blocks() {
            blockwise.ingest_block(block).unwrap();
        }
        let a = blockwise.snapshot().unwrap();
        let mut four = Analyzer::new().threads(4).session().unwrap();
        four.ingest_ledger(&output.ledger).unwrap();
        let b = four.snapshot().unwrap();
        assert_eq!(
            a.metrics.rates.tx_per_interval,
            b.metrics.rates.tx_per_interval
        );
        assert_eq!(a.metrics.keys.hotkeys, b.metrics.keys.hotkeys);
        assert_eq!(
            a.metrics.correlation.identified,
            b.metrics.correlation.identified
        );
        assert_eq!(a.recommendation_names(), b.recommendation_names());
        assert_eq!(a.log.block_count(), b.log.block_count());
    }

    #[test]
    fn unknown_rule_ids_are_rejected() {
        let err = Analyzer::new()
            .disable_rule("actvity-reordering")
            .unwrap_err();
        match &err {
            AnalyzeError::UnknownRule { id, known } => {
                assert_eq!(id, "actvity-reordering");
                assert!(
                    known.iter().any(|k| k == "activity-reordering"),
                    "{known:?}"
                );
            }
            other => panic!("expected UnknownRule, got {other:?}"),
        }
        assert!(err.to_string().contains("unknown rule id"));
        // Valid ids still work.
        let tuned = Analyzer::new().disable_rule("activity-reordering").unwrap();
        let output = small_output();
        let analysis = tuned.analyze_ledger(&output.ledger).unwrap();
        assert!(analysis
            .recommendation_names()
            .iter()
            .all(|n| *n != "Activity reordering"));
    }

    #[test]
    fn zero_interval_is_rejected() {
        let config = MetricConfig {
            interval: sim_core::time::SimDuration::from_micros(0),
            ..Default::default()
        };
        let err = Analyzer::new().metric_config(config).session().unwrap_err();
        assert_eq!(err, AnalyzeError::ZeroInterval);
    }

    #[test]
    fn analyze_json_surfaces_parse_errors() {
        let err = Analyzer::new()
            .analyze_json("{definitely not json")
            .unwrap_err();
        assert!(matches!(err, AnalyzeError::Json(_)), "{err:?}");
        assert!(err.to_string().contains("malformed log JSON"));
    }

    #[test]
    fn analyze_log_round_trips_through_json() {
        let log = log_of(vec![
            Rec::new(0, "writer").writes(&["k"]).build(),
            Rec::new(1, "reader")
                .reads(&["k"])
                .status(TxStatus::MvccReadConflict)
                .build(),
        ]);
        let json = export::to_json(&log);
        let analysis = Analyzer::new().analyze_json(&json).unwrap();
        assert_eq!(analysis.log.len(), 2);
        assert_eq!(analysis.metrics.correlation.read_conflicts, 1);
    }

    #[test]
    fn auto_tune_folds_into_snapshot() {
        let output = small_output();
        let log = BlockchainLog::from_ledger(&output.ledger);
        let expected = crate::autotune::auto_tune(&log).thresholds;
        let analysis = Analyzer::new()
            .auto_tune(true)
            .analyze_ledger(&output.ledger)
            .unwrap();
        assert_eq!(analysis.thresholds, expected);
        let untuned = Analyzer::new().analyze_ledger(&output.ledger).unwrap();
        assert_eq!(untuned.thresholds, Thresholds::default());
    }

    #[test]
    fn ingest_log_windows_match_whole_log() {
        let output = small_output();
        let log = BlockchainLog::from_ledger(&output.ledger);
        let batch = Analyzer::new().analyze_log(log.clone()).unwrap();

        // Split the records into three arbitrary windows.
        let records = log.records();
        let third = records.len() / 3;
        let mut session = Analyzer::new().session().unwrap();
        for chunk in [
            &records[..third],
            &records[third..2 * third],
            &records[2 * third..],
        ] {
            let blocks: BTreeSet<u64> = chunk.iter().map(|r| r.block).collect();
            session
                .ingest_log(BlockchainLog::from_records(chunk.to_vec(), blocks.len()))
                .unwrap();
        }
        let streamed = session.snapshot().unwrap();
        assert_eq!(streamed.metrics.rates.total, batch.metrics.rates.total);
        assert_eq!(
            streamed.metrics.correlation.identified,
            batch.metrics.correlation.identified
        );
        assert_eq!(
            streamed.recommendation_names(),
            batch.recommendation_names()
        );
        // Blocks cut across window boundaries must not be counted twice.
        assert_eq!(streamed.log.block_count(), batch.log.block_count());
        assert_eq!(streamed.metrics.block.blocks, batch.metrics.block.blocks);
    }

    #[test]
    fn out_of_order_windows_are_rejected() {
        let early = log_of(vec![Rec::new(0, "a").build(), Rec::new(1, "a").build()]);
        let late = log_of(vec![Rec::new(7, "a").build()]);
        let mut session = Analyzer::new().session().unwrap();
        session.ingest_log(late.clone()).unwrap();
        let err = session.ingest_log(early.clone()).unwrap_err();
        assert_eq!(err, AnalyzeError::OutOfOrder { index: 0, after: 7 });
        // Nothing was ingested by the failed call.
        assert_eq!(session.len(), 1);
        // A shuffled window is rejected before mutating anything, too.
        let mut fresh = Analyzer::new().session().unwrap();
        let shuffled = BlockchainLog::from_records(
            vec![Rec::new(3, "a").build(), Rec::new(1, "a").build()],
            1,
        );
        assert!(matches!(
            fresh.ingest_log(shuffled).unwrap_err(),
            AnalyzeError::OutOfOrder { index: 1, after: 3 }
        ));
        assert!(fresh.is_empty());
        // The one-shot entry point sorts instead of rejecting.
        let analysis = Analyzer::new()
            .analyze_log(BlockchainLog::from_records(
                vec![Rec::new(3, "a").build(), Rec::new(1, "a").build()],
                1,
            ))
            .unwrap();
        assert_eq!(analysis.log.records()[0].commit_index, 1);
    }

    #[test]
    fn replaying_the_same_window_is_rejected() {
        let window = log_of(vec![Rec::new(0, "a").build(), Rec::new(1, "a").build()]);
        let mut session = Analyzer::new().session().unwrap();
        session.ingest_log(window.clone()).unwrap();
        // A retry that replays already-ingested data must not double the
        // metrics.
        let err = session.ingest_log(window).unwrap_err();
        assert_eq!(err, AnalyzeError::OutOfOrder { index: 0, after: 1 });
        assert_eq!(session.len(), 2);
    }

    /// A window, block, ledger or merged session that would stretch the
    /// rate series past `MAX_RATE_INTERVALS` is rejected before any state
    /// changes, whether the outlier is later or earlier than what the
    /// session holds.
    #[test]
    fn implausible_timestamp_spans_are_rejected_before_any_state_changes() {
        let mut session = Analyzer::new().session().unwrap();
        session
            .ingest_log(log_of(vec![Rec::new(0, "a").build()]))
            .unwrap();
        let before = merge_witness(&session);
        let span_secs = Session::MAX_RATE_INTERVALS;
        for outlier in [SimTime::from_secs(span_secs), SimTime(u64::MAX)] {
            let late = Rec::new(1, "a").build();
            let window = log_of(vec![TxRecord {
                client_ts: outlier,
                ..late
            }]);
            let err = session.ingest_log(window).unwrap_err();
            assert!(
                matches!(err, AnalyzeError::TimestampSpan { last, .. } if last == outlier),
                "{err:?}"
            );
        }
        assert_eq!(merge_witness(&session), before);

        // Block and ledger ingest check the same span: a block whose last
        // transaction carries the outlier leaves the session untouched.
        let output = small_output();
        let blocks = output.ledger.blocks();
        let mut session = Analyzer::new().session().unwrap();
        session.ingest_block(&blocks[0]).unwrap();
        let before = merge_witness(&session);
        let mut corrupt = blocks[1].clone();
        corrupt.txs.last_mut().unwrap().client_ts = SimTime::from_secs(span_secs);
        let mut ledger = Ledger::new();
        for block in [&blocks[0], &corrupt, &blocks[2]] {
            ledger.append(block.clone());
        }
        let rejected = |err: AnalyzeError| matches!(err, AnalyzeError::TimestampSpan { .. });
        assert!(rejected(session.ingest_block(&corrupt).unwrap_err()));
        assert!(rejected(session.ingest_ledger(&ledger).unwrap_err()));
        assert_eq!(merge_witness(&session), before);
        assert_eq!(session.last_block(), blocks[0].number);
        // So does merge: a shard holding only the outlier is well-formed
        // alone, but not joined to the session.
        let mut shard = Analyzer::new().session().unwrap();
        let late = Rec::new(1_000_000, "a").build();
        shard
            .ingest_log(log_of(vec![TxRecord {
                client_ts: SimTime(u64::MAX),
                ..late
            }]))
            .unwrap();
        assert!(rejected(session.merge(shard).unwrap_err()));
        assert_eq!(merge_witness(&session), before);

        // One interval short of the bound is fine on a wider grid: the
        // bound counts intervals, not microseconds.
        let wide = MetricConfig {
            interval: SimDuration::from_secs(2),
            ..MetricConfig::default()
        };
        let mut session = Analyzer::new().metric_config(wide).session().unwrap();
        let far = Rec::new(1, "a").build();
        let window = log_of(vec![
            Rec::new(0, "a").client_ts_ms(0).build(),
            TxRecord {
                client_ts: SimTime::from_secs(span_secs),
                ..far
            },
        ]);
        assert_eq!(session.ingest_log(window), Ok(2));
    }

    #[test]
    fn blocks_after_sparse_log_keep_indices_monotone() {
        // Caller-indexed records followed by live blocks: commit indices
        // continue above the sparse indices, so conflict distances stay
        // well-defined (no underflow).
        let sparse = log_of(vec![
            Rec::new(5, "writer").writes(&["k"]).build(),
            Rec::new(17, "writer").writes(&["k"]).build(),
        ]);
        let mut session = Analyzer::new().session().unwrap();
        session.ingest_log(sparse).unwrap();

        let output = small_output();
        session.ingest_block(&output.ledger.blocks()[0]).unwrap();
        let records = session.log().records();
        assert!(records
            .windows(2)
            .all(|w| w[0].commit_index < w[1].commit_index));
        assert_eq!(records[2].commit_index, 18);
        // The snapshot stays well-formed.
        let analysis = session.snapshot().unwrap();
        assert!(analysis.metrics.correlation.mean_distance >= 0.0);
    }

    #[test]
    fn wrapper_preserves_caller_commit_indices() {
        // Pre-indexed logs (e.g. a filtered slice of an export) must keep
        // their commit indices: conflict distances are defined on them.
        let log = log_of(vec![
            Rec::new(5, "writer").writes(&["k"]).build(),
            Rec::new(17, "reader")
                .reads(&["k"])
                .status(TxStatus::MvccReadConflict)
                .build(),
        ]);
        let analysis = Analyzer::new().analyze_log(log).unwrap();
        assert_eq!(analysis.log.records()[0].commit_index, 5);
        assert_eq!(analysis.log.records()[1].commit_index, 17);
        let conflict = &analysis.metrics.correlation.conflicts[0];
        assert_eq!(conflict.failed_index, 17);
        assert_eq!(conflict.writer_index, 5);
        assert_eq!(conflict.distance, 12);
    }

    /// The windowed suffix of a full log: the records of the `n` highest
    /// block numbers, with their original commit indices.
    fn last_blocks_suffix(log: &BlockchainLog, n: usize) -> BlockchainLog {
        let blocks: BTreeSet<u64> = log.records().iter().map(|r| r.block).collect();
        let cutoff = *blocks.iter().rev().nth(n - 1).expect("more than n blocks");
        let suffix: Vec<_> = log
            .records()
            .iter()
            .filter(|r| r.block >= cutoff)
            .cloned()
            .collect();
        let distinct: BTreeSet<u64> = suffix.iter().map(|r| r.block).collect();
        let count = distinct.len();
        BlockchainLog::from_records(suffix, count)
    }

    /// The tentpole invariant: a long-running windowed session's snapshot
    /// is identical — metrics, conflicts, case derivation, model, and
    /// recommendations — to a fresh analysis of only the retained suffix.
    #[test]
    fn windowed_snapshot_equals_fresh_suffix_analysis() {
        let output = small_output();
        let n = 4;
        let mut windowed = Analyzer::new()
            .window(WindowPolicy::LastBlocks(n))
            .session()
            .unwrap();
        for block in output.ledger.blocks() {
            windowed.ingest_block(block).unwrap();
        }
        assert!(
            windowed.evicted() > 0,
            "the ledger spans more than n blocks"
        );
        let streamed = windowed.snapshot().unwrap();

        let full = BlockchainLog::from_ledger(&output.ledger);
        let mut fresh = Analyzer::new().session().unwrap();
        fresh.ingest_log(last_blocks_suffix(&full, n)).unwrap();
        let batch = fresh.snapshot().unwrap();

        assert_eq!(format!("{streamed:?}"), format!("{batch:?}"));
        assert_eq!(windowed.footprint(), fresh.footprint());
    }

    /// Memory-boundedness: with `LastBlocks(n)`, every tracker's state size
    /// stays flat while the session ingests ≥ 10× n blocks — each
    /// footprint field never exceeds its running maximum over the first
    /// few windows, and the final footprint equals a fresh session's over
    /// the suffix.
    #[test]
    fn windowed_state_stays_flat_over_ten_windows() {
        let n = 3;
        let cv = ControlVariables {
            transactions: 4_000,
            // Uniform count-cut blocks, so "flat" is a sharp assertion:
            // the window's content does not drift over the run.
            block_count: 25,
            ..Default::default()
        };
        let output = workload::synthetic::generate(&cv).run(cv.network_config());
        let blocks = output.ledger.blocks();
        assert!(
            blocks.len() >= 10 * n,
            "need ≥ 10 windows, got {}",
            blocks.len()
        );

        let mut session = Analyzer::new()
            .window(WindowPolicy::LastBlocks(n))
            .session()
            .unwrap();
        let mut prefix = fabric_sim::ledger::Ledger::new();
        let mut peak_window = 0usize;
        for (i, block) in blocks.iter().enumerate() {
            session.ingest_block(block).unwrap();
            prefix.append(block.clone());
            let window_blocks = &blocks[i.saturating_sub(n - 1)..=i];
            let window_records: usize = window_blocks
                .iter()
                .map(fabric_sim::ledger::Block::len)
                .sum();
            // Every tracker entry is attributable to a record or one of its
            // key accesses, so the window's own content is a hard cap.
            let window_slots: usize = window_records
                + window_blocks
                    .iter()
                    .flat_map(|b| &b.txs)
                    .map(|tx| tx.rwset.all_keys().len())
                    .sum::<usize>();
            peak_window = peak_window.max(window_records);
            let fp = session.footprint();
            assert!(
                fp.records <= window_records,
                "retained more than the window"
            );
            for (name, v) in [
                ("failed_keys", fp.failed_keys),
                ("key_handles", fp.key_handles),
                ("conflicts", fp.conflicts),
                ("writer_entries", fp.writer_entries),
                ("activity_entries", fp.activity_entries),
                ("delta_deps", fp.delta_deps),
                ("case_events", fp.case_events),
                ("send_times", fp.send_times),
            ] {
                assert!(
                    v <= window_slots,
                    "{name} = {v} exceeds the window's content ({window_records} records, \
                     {window_slots} slots) after block {i} — state is leaking past eviction"
                );
            }
            assert!(fp.blocks <= n);
            // The strongest flatness statement: at checkpoints, the whole
            // footprint equals that of a fresh session which never saw
            // anything but the current window — so nothing from the other
            // 10× n blocks lingers anywhere.
            if i >= n && i % 17 == 0 {
                let full = BlockchainLog::from_ledger(&prefix);
                let mut fresh = Analyzer::new().session().unwrap();
                fresh.ingest_log(last_blocks_suffix(&full, n)).unwrap();
                assert_eq!(fp, fresh.footprint(), "after block {i}");
            }
        }
        assert_eq!(session.footprint().blocks, n);
        assert!(session.len() <= peak_window);
        assert!(session.evicted() > session.len() * 5, "evicted the bulk");

        // And the end state is exactly a fresh session over the suffix.
        let full = BlockchainLog::from_ledger(&output.ledger);
        let mut fresh = Analyzer::new().session().unwrap();
        fresh.ingest_log(last_blocks_suffix(&full, n)).unwrap();
        assert_eq!(session.footprint(), fresh.footprint());
        assert_eq!(
            format!("{:?}", session.snapshot().unwrap()),
            format!("{:?}", fresh.snapshot().unwrap())
        );
    }

    /// Under eviction too, four threads and one fold identically.
    #[test]
    fn sharded_windowed_ingest_matches_serial() {
        let output = small_output();
        let policy = WindowPolicy::LastBlocks(6);
        let mut serial = Analyzer::new().threads(1).window(policy).session().unwrap();
        serial.ingest_ledger(&output.ledger).unwrap();
        let mut four = Analyzer::new().threads(4).window(policy).session().unwrap();
        four.ingest_ledger(&output.ledger).unwrap();
        assert_eq!(serial.evicted(), four.evicted());
        assert_eq!(serial.footprint(), four.footprint());
        assert_eq!(
            format!("{:?}", serial.snapshot().unwrap()),
            format!("{:?}", four.snapshot().unwrap())
        );
    }

    /// Duration-based policies evict by commit-timestamp age; the decay
    /// policy is the same mechanism at 10 half-lives.
    #[test]
    fn duration_and_decay_policies_evict_by_age() {
        let output = small_output();
        let full = BlockchainLog::from_ledger(&output.ledger);
        let span = full.window_secs();
        assert!(span > 0.0);
        let keep = sim_core::time::SimDuration::from_secs_f64(span / 4.0);
        let mut session = Analyzer::new()
            .window(WindowPolicy::LastDuration(keep))
            .session()
            .unwrap();
        for block in output.ledger.blocks() {
            session.ingest_block(block).unwrap();
        }
        assert!(session.evicted() > 0);
        let last = session
            .log()
            .records()
            .iter()
            .map(|r| r.commit_ts)
            .max()
            .unwrap();
        for r in session.log().records() {
            assert!(last.since(r.commit_ts) <= keep, "record older than window");
        }
        // A decay horizon of 10 half-lives `h` is spelled `last-secs:10h`.
        let half_life = span / 40.0;
        let policy = WindowPolicy::parse(&format!("last-secs:{}", 10.0 * half_life)).unwrap();
        let mut decayed = Analyzer::new().window(policy).session().unwrap();
        for block in output.ledger.blocks() {
            decayed.ingest_block(block).unwrap();
        }
        let horizon = sim_core::time::SimDuration::from_secs_f64(10.0 * half_life);
        for r in decayed.log().records() {
            assert!(last.since(r.commit_ts) <= horizon);
        }
        assert!(decayed.evicted() > 0);
    }

    /// Windowed sessions reject replay logs whose block numbers decrease
    /// (block-count eviction is defined on nondecreasing blocks);
    /// unbounded sessions keep accepting them.
    #[test]
    fn windowed_ingest_rejects_decreasing_block_numbers() {
        let bad = BlockchainLog::from_records(
            vec![
                Rec::new(0, "a").block(5).build(),
                Rec::new(1, "a").block(3).build(),
            ],
            2,
        );
        let mut windowed = Analyzer::new()
            .window(WindowPolicy::LastBlocks(2))
            .session()
            .unwrap();
        let err = windowed.ingest_log(bad.clone()).unwrap_err();
        assert_eq!(err, AnalyzeError::BlockOrder { block: 3, after: 5 });
        assert!(err.to_string().contains("block numbers decrease"));
        assert!(windowed.is_empty(), "rejected before any state changed");
        // Across batches too.
        let mut windowed = Analyzer::new()
            .window(WindowPolicy::LastBlocks(2))
            .session()
            .unwrap();
        windowed
            .ingest_log(log_of(vec![Rec::new(0, "a").block(5).build()]))
            .unwrap();
        assert!(matches!(
            windowed
                .ingest_log(log_of(vec![Rec::new(1, "a").block(4).build()]))
                .unwrap_err(),
            AnalyzeError::BlockOrder { block: 4, after: 5 }
        ));
        // Unbounded sessions are unaffected (pre-existing behaviour).
        let mut unbounded = Analyzer::new().session().unwrap();
        assert_eq!(unbounded.ingest_log(bad).unwrap(), 2);
    }

    /// Regression: an empty first batch on a duration- or block-windowed
    /// session must be a no-op, not a panic on the missing last-commit
    /// anchor.
    #[test]
    fn empty_batches_on_windowed_sessions_are_noops() {
        for policy in [
            WindowPolicy::LastDuration(sim_core::time::SimDuration::from_secs(1)),
            WindowPolicy::LastBlocks(2),
        ] {
            let mut session = Analyzer::new().window(policy).session().unwrap();
            assert_eq!(session.ingest_log(BlockchainLog::default()).unwrap(), 0);
            assert!(session.is_empty());
            // And still works normally afterwards.
            let output = small_output();
            session.ingest_block(&output.ledger.blocks()[0]).unwrap();
            assert!(session.snapshot().is_ok());
        }
    }

    #[test]
    fn window_policy_parsing() {
        assert_eq!(
            WindowPolicy::parse("unbounded"),
            Ok(WindowPolicy::Unbounded)
        );
        assert_eq!(
            WindowPolicy::parse("last-blocks:64"),
            Ok(WindowPolicy::LastBlocks(64))
        );
        assert_eq!(
            WindowPolicy::parse("last-secs:2.5"),
            Ok(WindowPolicy::LastDuration(
                sim_core::time::SimDuration::from_secs_f64(2.5)
            ))
        );
        for bad in [
            "last-blocks:0",
            "last-secs:-1",
            // Not a policy spelling: a 60 s half-life's 10-half-life
            // horizon is `last-secs:600`.
            "half-life:60",
            "bogus",
            "bogus:3",
        ] {
            assert!(WindowPolicy::parse(bad).is_err(), "{bad}");
        }
        // Round-trip through Display.
        for policy in [
            WindowPolicy::Unbounded,
            WindowPolicy::LastBlocks(10),
            WindowPolicy::LastDuration(sim_core::time::SimDuration::from_secs(3)),
        ] {
            assert_eq!(WindowPolicy::parse(&policy.to_string()), Ok(policy));
        }
    }

    /// Regression (small-log hysteresis): at `total = 10` the 5 % tie band
    /// used to truncate to zero, so the documented family-flip hysteresis
    /// never engaged on small windows. With the band floored at one
    /// record, a one-record coverage lead no longer evicts the cached
    /// family.
    #[test]
    fn family_flip_hysteresis_engages_on_small_logs() {
        // Batch 1: four records covered by both families (A wins the
        // deterministic tie-break) → cached family "A".
        let both: Vec<TxRecord> = (0..4)
            .map(|i| {
                Rec::new(i, "act")
                    .args(vec![format!("A{i}").into(), format!("B{i}").into()])
                    .build()
            })
            .collect();
        let mut session = Analyzer::new().session().unwrap();
        session.ingest_log(log_of(both)).unwrap();
        assert_eq!(session.snapshot().unwrap().case_derivation.family, "A");

        // Batch 2: one B-only record plus five with no candidates.
        // Total 10: coverage A = 4, B = 5 — a one-record lead, inside the
        // 5 % band (max(1, ⌊0.5⌋) = 1), so the cached family must survive.
        let mut tail: Vec<TxRecord> = vec![Rec::new(4, "act").args(vec!["B9".into()]).build()];
        for i in 5..10 {
            tail.push(Rec::new(i, "act").args(vec!["nodigits".into()]).build());
        }
        session.ingest_log(log_of(tail)).unwrap();
        assert_eq!(session.len(), 10);
        assert_eq!(
            session.snapshot().unwrap().case_derivation.family,
            "A",
            "a one-record lead must not flip the family on a 10-record log"
        );
    }

    /// One chunk of a partitioned log, with its own distinct-block tally
    /// (what an export of just that slice would declare).
    fn chunk_log(records: &[TxRecord]) -> BlockchainLog {
        let blocks: BTreeSet<u64> = records.iter().map(|r| r.block).collect();
        BlockchainLog::from_records(records.to_vec(), blocks.len())
    }

    /// The snapshot, footprint and eviction counter, canonically rendered:
    /// the byte-equality witness for merge tests (the raw `Session` Debug
    /// goes through `HashMap`s whose iteration order is instance-dependent).
    fn merge_witness(session: &Session) -> String {
        format!(
            "{:?}|{:?}|{}",
            session.snapshot().unwrap(),
            session.footprint(),
            session.evicted()
        )
    }

    /// `merge` is one more ingest batch: folding a shard in equals
    /// ingesting the shard's retained log, unbounded and windowed, at any
    /// cut and with an empty shard on either side. An overlapping shard is
    /// rejected before any state changes.
    #[test]
    fn merge_is_one_more_ingest_batch() {
        let output = small_output();
        let full = BlockchainLog::from_ledger(&output.ledger);
        let records = full.records();
        let n = records.len();
        for policy in [WindowPolicy::Unbounded, WindowPolicy::LastBlocks(3)] {
            let analyzer = Analyzer::new().window(policy);
            let session_of = |part: &[TxRecord]| {
                let mut session = analyzer.session().unwrap();
                session.ingest_log(chunk_log(part)).unwrap();
                session
            };
            for cut in [0, n / 4, 3 * n / 5, n] {
                let mut merged = session_of(&records[..cut]);
                let tail = session_of(&records[cut..]);
                let mut expected = merged.clone();
                expected.ingest_log(tail.log().clone()).unwrap();
                merged.merge(tail).unwrap();
                assert_eq!(
                    merge_witness(&merged),
                    merge_witness(&expected),
                    "{policy}, cut at {cut}"
                );
            }
            // The shard repeats head's last record; two records span too
            // few blocks for the shard to evict it.
            let mut head = session_of(&records[..n / 2]);
            let before = merge_witness(&head);
            let overlap = session_of(&records[n / 2 - 1..=n / 2]);
            assert!(matches!(
                head.merge(overlap).unwrap_err(),
                AnalyzeError::OutOfOrder { .. }
            ));
            assert_eq!(merge_witness(&head), before, "{policy}: failed merge");
        }
    }

    /// Any partition of a stream across k sessions, merged in any
    /// association order, byte-equals a single session ingesting the whole
    /// stream in one batch.
    #[test]
    fn merged_shards_equal_single_batch_ingest() {
        let output = small_output();
        let full = BlockchainLog::from_ledger(&output.ledger);
        let mut reference = Analyzer::new().session().unwrap();
        reference.ingest_log(full.clone()).unwrap();
        let expected = merge_witness(&reference);

        let records = full.records();
        let cuts = [records.len() / 4, records.len() / 2, 4 * records.len() / 5];
        let shard = |lo: usize, hi: usize| {
            let mut s = Analyzer::new().session().unwrap();
            s.ingest_log(chunk_log(&records[lo..hi])).unwrap();
            s
        };
        // Left-assoc: ((a·b)·c)·d
        let mut left = shard(0, cuts[0]);
        left.merge(shard(cuts[0], cuts[1])).unwrap();
        left.merge(shard(cuts[1], cuts[2])).unwrap();
        left.merge(shard(cuts[2], records.len())).unwrap();
        assert_eq!(merge_witness(&left), expected);
        // Right-assoc: a·(b·(c·d))
        let mut tail = shard(cuts[1], cuts[2]);
        tail.merge(shard(cuts[2], records.len())).unwrap();
        let mut mid = shard(cuts[0], cuts[1]);
        mid.merge(tail).unwrap();
        let mut right = shard(0, cuts[0]);
        right.merge(mid).unwrap();
        assert_eq!(merge_witness(&right), expected);
    }

    /// The empty session is the merge identity, on both sides.
    #[test]
    fn empty_session_is_the_merge_identity() {
        let output = small_output();
        let full = BlockchainLog::from_ledger(&output.ledger);
        let mut loaded = Analyzer::new().session().unwrap();
        loaded.ingest_log(full.clone()).unwrap();
        let expected = merge_witness(&loaded);

        // Right identity: folding in an empty session is a no-op.
        loaded.merge(Analyzer::new().session().unwrap()).unwrap();
        assert_eq!(merge_witness(&loaded), expected);
        // Left identity: an empty receiver ingests the other's records.
        let mut fresh = Analyzer::new().session().unwrap();
        fresh.merge(loaded).unwrap();
        assert_eq!(merge_witness(&fresh), expected);
    }

    /// The receiver's configuration governs a merge: a shard built under
    /// another metric interval or window policy folds in exactly as its
    /// log would. Overlapping streams are rejected before any state
    /// changes.
    #[test]
    fn merge_validates_configuration_and_stream_order() {
        let output = small_output();
        let full = BlockchainLog::from_ledger(&output.ledger);
        let records = full.records();
        let half = records.len() / 2;
        let mut head = Analyzer::new().session().unwrap();
        head.ingest_log(chunk_log(&records[..half])).unwrap();
        let mut expected = head.clone();
        expected.ingest_log(chunk_log(&records[half..])).unwrap();
        let expected = merge_witness(&expected);

        // Another metric interval.
        let mut coarse = Analyzer::new()
            .metric_config(MetricConfig {
                interval: sim_core::time::SimDuration::from_secs(5),
                ..Default::default()
            })
            .session()
            .unwrap();
        coarse.ingest_log(chunk_log(&records[half..])).unwrap();
        let mut merged = head.clone();
        merged.merge(coarse).unwrap();
        assert_eq!(merge_witness(&merged), expected, "metric interval");
        // Another window policy, wide enough to keep the shard whole.
        let mut windowed = Analyzer::new()
            .window(WindowPolicy::LastBlocks(usize::MAX))
            .session()
            .unwrap();
        windowed.ingest_log(chunk_log(&records[half..])).unwrap();
        assert_eq!(windowed.evicted(), 0);
        let mut merged = head.clone();
        merged.merge(windowed).unwrap();
        assert_eq!(merge_witness(&merged), expected, "window policy");
        // Overlapping streams are rejected before any state changes.
        let mut overlap = Analyzer::new().session().unwrap();
        overlap
            .ingest_log(chunk_log(&records[records.len() / 4..]))
            .unwrap();
        let before = merge_witness(&head);
        assert!(matches!(
            head.merge(overlap).unwrap_err(),
            AnalyzeError::OutOfOrder { .. }
        ));
        assert_eq!(merge_witness(&head), before, "failed merge mutated state");
    }

    /// Windowed merges re-evict. When the shard stays within the window
    /// the merge itself evicts the aged-out prefix and byte-equals a
    /// single-batch windowed ingest. When the shard already evicted on its
    /// own, the analysis still equals it; only the shard's own evictions
    /// are left out of [`Session::evicted`].
    #[test]
    fn windowed_merges_equal_single_batch_ingest() {
        let output = small_output();
        let full = BlockchainLog::from_ledger(&output.ledger);
        let records = full.records();
        let policy = WindowPolicy::LastBlocks(3);
        let analyzer = Analyzer::new().window(policy);
        let mut reference = analyzer.session().unwrap();
        reference.ingest_log(full.clone()).unwrap();
        assert!(reference.evicted() > 0, "the log spans > 3 blocks");
        let expected = merge_witness(&reference);
        let retained = |s: &Session| format!("{:?}|{:?}", s.snapshot().unwrap(), s.footprint());

        // The tail shard spans far more than 3 blocks, so it evicts on its
        // own and the merge folds in only what it retained.
        let cut = records.len() / 5;
        let mut merged = analyzer.session().unwrap();
        merged.ingest_log(chunk_log(&records[..cut])).unwrap();
        let mut tail = analyzer.session().unwrap();
        tail.ingest_log(chunk_log(&records[cut..])).unwrap();
        let tail_evicted = tail.evicted();
        assert!(tail_evicted > 0, "tail shard evicts by itself");
        merged.merge(tail).unwrap();
        assert_eq!(retained(&merged), retained(&reference));
        assert_eq!(merged.evicted() + tail_evicted, reference.evicted());

        // The tail shard alone stays within the window, so the merge
        // itself must evict the aged-out prefix.
        let suffix_start = {
            let blocks: BTreeSet<u64> = records.iter().map(|r| r.block).collect();
            let cutoff = *blocks.iter().rev().nth(1).expect("several blocks");
            records.iter().position(|r| r.block >= cutoff).unwrap()
        };
        let mut merged = analyzer.session().unwrap();
        merged
            .ingest_log(chunk_log(&records[..suffix_start]))
            .unwrap();
        let mut tail = analyzer.session().unwrap();
        tail.ingest_log(chunk_log(&records[suffix_start..]))
            .unwrap();
        assert_eq!(tail.evicted(), 0, "two blocks fit the window");
        merged.merge(tail).unwrap();
        assert_eq!(merge_witness(&merged), expected);
    }

    /// An evicting batch drops the aged-out prefix in place. With no
    /// snapshot held the session is the log's only owner, so no evicting
    /// `ingest_block`, `ingest_log` or `merge` may copy the retained window
    /// — a copy would move the log to a new allocation.
    #[test]
    fn evicting_batches_never_copy_the_retained_log() {
        /// Runs `step`; when it evicted, asserts the log did not move.
        /// Returns whether it evicted.
        fn evicts_in_place(session: &mut Session, step: impl FnOnce(&mut Session)) -> bool {
            let before: *const BlockchainLog = session.log();
            let evicted = session.evicted();
            step(session);
            let evicting = session.evicted() > evicted;
            assert!(
                !evicting || std::ptr::eq(session.log(), before),
                "an evicting batch copied the retained log"
            );
            evicting
        }
        let cv = ControlVariables {
            transactions: 600,
            ..Default::default()
        };
        let output = workload::synthetic::generate(&cv).run(cv.network_config());
        let analyzer = Analyzer::new().window(WindowPolicy::LastBlocks(2));

        let mut session = analyzer.session().unwrap();
        let evicting = output
            .ledger
            .blocks()
            .iter()
            .filter(|block| {
                evicts_in_place(&mut session, |s| {
                    s.ingest_block(block).unwrap();
                })
            })
            .count();
        assert!(evicting >= 2, "ingest_block: the ledger spans > 3 blocks");

        let full = BlockchainLog::from_ledger(&output.ledger);
        let records = full.records();
        let mut session = analyzer.session().unwrap();
        let evicting = records
            .chunk_by(|a, b| a.block == b.block)
            .filter(|block| {
                evicts_in_place(&mut session, |s| {
                    s.ingest_log(chunk_log(block)).unwrap();
                })
            })
            .count();
        assert!(evicting >= 2, "ingest_log: the log spans > 3 blocks");

        // Main merge path: the tail shard (the last block) fits the window
        // on its own, so the merge itself evicts.
        let last_block = records.last().expect("non-empty log").block;
        let cut = records.partition_point(|r| r.block < last_block);
        let mut merged = analyzer.session().unwrap();
        merged.ingest_log(chunk_log(&records[..cut])).unwrap();
        let mut tail = analyzer.session().unwrap();
        tail.ingest_log(chunk_log(&records[cut..])).unwrap();
        assert_eq!(tail.evicted(), 0);
        assert!(evicts_in_place(&mut merged, |s| s.merge(tail).unwrap()));
    }

    /// The session counts endorsements and invocations by id and renders
    /// them by display name at snapshot: with more than ten peer indices,
    /// clients and organizations, names sort apart from ids
    /// (`peer10.Org1` before `peer2.Org1`, `Org10` before `Org2`), and the
    /// rendered maps still equal the string-keyed batch derivation's,
    /// before and after an eviction.
    #[test]
    fn id_keyed_counts_render_like_the_batch_derivation() {
        // Record i = 12 b + a: peer (org a, index b) and peer (org b,
        // index a) endorse, client (org b, index a) invokes; 24 records
        // per block.
        let records: Vec<TxRecord> = (0..144usize)
            .map(|i| {
                let (a, b) = ((i % 12) as u16, (i / 12) as u16);
                let mut r = Rec::new(i, "act").block(i as u64 / 24 + 1).build();
                r.endorsers = vec![
                    PeerId {
                        org: OrgId(a),
                        index: b,
                    },
                    PeerId {
                        org: OrgId(b),
                        index: a,
                    },
                ];
                r.invoker = ClientId {
                    org: OrgId(b),
                    index: a,
                };
                r
            })
            .collect();
        let config = MetricConfig::default();
        let matches_batch = |session: &Session| {
            let analysis = session.snapshot().unwrap();
            let batch = Metrics::derive(&analysis.log, &config);
            let (endorsers, invokers) = (&analysis.metrics.endorsers, &analysis.metrics.invokers);
            assert_eq!(endorsers.per_peer, batch.endorsers.per_peer);
            assert_eq!(endorsers.per_org, batch.endorsers.per_org);
            assert_eq!(
                endorsers.total_endorsements,
                batch.endorsers.total_endorsements
            );
            assert_eq!(invokers.per_client, batch.invokers.per_client);
            assert_eq!(invokers.per_org, batch.invokers.per_org);
            assert_eq!(invokers.total, batch.invokers.total);
            analysis
        };
        let before = |names: Vec<&String>, first: &str, second: &str| {
            let at = |name| names.iter().position(|n| *n == name);
            let (first_at, second_at) = (at(first), at(second));
            assert!(first_at.is_some() && second_at.is_some());
            assert!(first_at < second_at, "{first} sorts before {second}");
        };

        let mut session = Analyzer::new()
            .window(WindowPolicy::LastBlocks(3))
            .session()
            .unwrap();
        session.ingest_log(chunk_log(&records[..72])).unwrap();
        assert_eq!(session.evicted(), 0);
        let analysis = matches_batch(&session);
        let m = &analysis.metrics;
        assert!(m.endorsers.per_org.len() > 10 && m.invokers.per_client.len() > 10);
        before(
            m.endorsers.per_peer.keys().collect(),
            "peer10.Org1",
            "peer2.Org1",
        );
        before(m.endorsers.per_org.keys().collect(), "Org10", "Org2");
        before(
            m.invokers.per_client.keys().collect(),
            "client10.Org1",
            "client2.Org1",
        );

        session.ingest_log(chunk_log(&records[72..])).unwrap();
        assert_eq!(session.evicted(), 72);
        let analysis = matches_batch(&session);
        let m = &analysis.metrics;
        before(
            m.endorsers.per_peer.keys().collect(),
            "peer10.Org7",
            "peer2.Org7",
        );
        before(m.invokers.per_org.keys().collect(), "Org10", "Org7");
    }

    /// The footprint's byte estimate is deterministic arithmetic over the
    /// counts, so equal footprints mean equal estimates — and a non-empty
    /// session reports a non-zero resident size.
    #[test]
    fn footprint_byte_estimate_tracks_counts() {
        let output = small_output();
        let mut session = Analyzer::new().session().unwrap();
        assert_eq!(session.footprint().approx_bytes(), 0);
        session.ingest_ledger(&output.ledger).unwrap();
        let fp = session.footprint();
        assert!(fp.approx_bytes() >= fp.records * 320);
    }

    #[test]
    fn forked_sessions_diverge_independently() {
        let output = small_output();
        let blocks = output.ledger.blocks();
        let mut session = Analyzer::new().session().unwrap();
        let mid = blocks.len() / 2;
        for block in &blocks[..mid] {
            session.ingest_block(block).unwrap();
        }
        let fork = session.clone();
        for block in &blocks[mid..] {
            session.ingest_block(block).unwrap();
        }
        assert_eq!(session.len(), output.report.committed);
        assert_eq!(
            fork.len(),
            blocks[..mid].iter().map(|b| b.len()).sum::<usize>()
        );
        // The fork still snapshots its own prefix.
        let prefix_analysis = fork.snapshot().unwrap();
        assert_eq!(prefix_analysis.log.len(), fork.len());
    }
}

//! The closed optimization loop (paper §4.5 + Table 4 + §6's figures) as a
//! first-class API.
//!
//! The paper's workflow does not stop at recommending: each recommendation
//! is *implemented*, the workload is *re-run*, and the improvement is
//! *measured* (§4.5: "the user implements them … and verifies the effect").
//! [`OptimizationPlan`] packages that loop:
//!
//! 1. simulate a [`ScenarioSpec`], analyze its ledger and lower the
//!    recommendations to typed [`Action`]s
//!    ([`OptimizationPlan::from_spec`]);
//! 2. [`execute_spec_with`](OptimizationPlan::execute_spec_with) the plan
//!    against that spec: run the baseline, re-run with each action applied
//!    alone, then with all actions combined;
//! 3. read the [`PlanOutcome`]: per-action before/after success-rate,
//!    latency, and throughput deltas — the Table 4 → Figures 13–17 loop —
//!    and the optimized spec.
//!
//! # One grid, on specs only
//!
//! Every measured configuration is a spec. The baseline is the spec
//! itself, each single-action configuration is [`Action::apply_to_spec`]
//! of it, and the combination is [`OptimizationPlan::apply_to_spec`]. The
//! grid generates each seed's workload once ([`ScenarioSpec::generate`])
//! and [`finish`](ScenarioSpec::finish)es every configuration's spec from
//! it. The emitted [`PlanOutcome::optimized_spec`] is therefore the very
//! spec the combined row's primary seed measured: building and running it
//! replays `combined.primary` byte for byte.
//!
//! Each distinct configuration is simulated once per seed: a slot whose
//! spec equals an earlier slot's copies that slot's reports. With one
//! applicable action the combination is that action's spec, and an action
//! already in force measures the baseline. A grid run keeps only its
//! report, so it runs [`WorkloadBundle::run_report`], which builds no
//! ledger; its report is the bytes a full run's would be.
//!
//! # Seeds, threads, and confidence intervals
//!
//! A plan execution is configured by a [`PlanConfig`]:
//!
//! * **`seeds`** — every measured configuration (baseline, each action,
//!   the combination) is simulated once per seed. Seed 0 runs the spec
//!   verbatim; seed *i* re-seeds it ([`ScenarioSpec::with_seed`]) with the
//!   spec's seed XOR-ed with a golden-ratio multiple, so the list is
//!   deterministic and collision free, and the seeds vary the workload
//!   itself (schedules, keys, invokers), not just endorser selection. Each
//!   [`MeasuredReport`] keeps the primary seed's full report, one scalar
//!   [`SeedReport`] row per seed, the merged latency sketch, and mean /
//!   sample standard deviation / 95 % confidence half-width
//!   ([`MetricStats`]) for the three figure metrics. Deltas are computed
//!   **pairwise per seed** (action seed *i* minus baseline seed *i*, both
//!   finished from the same generated workload) and then aggregated, which
//!   cancels the common per-seed workload noise — the same design as the
//!   seed-averaged directional tests.
//! * **`threads`** — the independent `(configuration, seed)` simulations
//!   fan out over a [`sim_core::pool::ThreadPool`]. Results are collected
//!   in job order, and every simulation is deterministic in its seed, so
//!   **the outcome is byte-identical for any thread count**; `threads`
//!   only changes wall-clock time. The default honours the
//!   `BLOCKOPTR_THREADS` environment variable.
//!
//! The CLI surfaces both knobs as `blockoptr optimize --seeds N
//! --threads N`.
//!
//! Contract-level actions ([`Action::SelectContractVariant`]) apply only
//! when the spec's workload ships a prepared rewrite
//! ([`WorkloadSpec::variant_table`](workload::WorkloadSpec::variant_table));
//! otherwise the outcome records them as [`ActionResult::ManualRequired`] —
//! the paper's §7 caveat that smart-contract changes "need to be manually
//! implemented by the user".
//!
//! ```no_run
//! use blockoptr::plan::{OptimizationPlan, PlanConfig};
//! use blockoptr::session::Analyzer;
//! use workload::ScenarioSpec;
//!
//! let spec = ScenarioSpec::builtin("scm").unwrap();
//! let (plan, baseline) = OptimizationPlan::from_spec(&spec, &Analyzer::new()).unwrap();
//! // Five seeds per configuration, fanned out over four worker threads.
//! let outcome = plan
//!     .execute_spec_from_with(&spec, baseline.report, &PlanConfig::new(5, 4))
//!     .unwrap();
//! for action in &outcome.actions {
//!     if let Some(stats) = action.success_rate_delta_stats(&outcome.baseline) {
//!         println!(
//!             "{}: Δ success rate {:+.1} ± {:.1} points",
//!             action.action.describe(),
//!             stats.mean,
//!             stats.ci95,
//!         );
//!     }
//! }
//! // The measured combination, as a replayable spec.
//! println!("{}", outcome.optimized_spec.to_json());
//! ```

use crate::action::Action;
use crate::recommend::Recommendation;
use crate::session::Analysis;
use crate::session::{AnalyzeError, Analyzer};
use fabric_sim::report::SimReport;
use fabric_sim::sim::SimOutput;
use serde::{Deserialize, Serialize};
use sim_core::pool::{self, ThreadPool};
use sim_core::sketch::QuantileSketch;
use workload::{ScenarioSpec, VariantKind, WorkloadBundle};

/// One action with the recommendation that motivated it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedAction {
    /// Name of the source recommendation (paper vocabulary, e.g.
    /// `"Activity reordering"`).
    pub source: String,
    /// The concrete change.
    pub action: Action,
}

/// An ordered set of optimization actions lowered from an analysis.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct OptimizationPlan {
    /// The planned actions, in recommendation order.
    pub actions: Vec<PlannedAction>,
}

/// How a plan execution measures: seeds per configuration and worker
/// threads for the simulation fan-out. See the [module docs](self) for the
/// semantics of each knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanConfig {
    /// Simulation runs per measured configuration (clamped to ≥ 1). Seed 0
    /// is the spec's own seed.
    pub seeds: usize,
    /// Worker threads for the `(configuration, seed)` fan-out (clamped to
    /// ≥ 1). Thread count never changes results, only wall-clock time.
    pub threads: usize,
}

impl Default for PlanConfig {
    /// One seed, [`pool::default_threads`] workers (`BLOCKOPTR_THREADS`
    /// aware).
    fn default() -> Self {
        PlanConfig {
            seeds: 1,
            threads: pool::default_threads(),
        }
    }
}

impl PlanConfig {
    /// A configuration with explicit seed and thread counts.
    pub fn new(seeds: usize, threads: usize) -> PlanConfig {
        PlanConfig { seeds, threads }
    }

    /// The deterministic seed list derived from `base`: `base` itself,
    /// then `base ^ (i · φ64)` — distinct for every index.
    pub fn seed_list(&self, base: u64) -> Vec<u64> {
        (0..self.seeds.max(1))
            .map(|i| base ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect()
    }
}

/// Two-sided 95 % Student-t critical value for `df` degrees of freedom.
///
/// Plan executions typically run 3–10 seeds, where the normal
/// approximation's 1.96 badly understates the interval (df = 2 needs
/// 4.30). Exact values for df ≤ 30; beyond that each range uses the
/// critical value of its *smallest* df (the table row below it), so the
/// interval is never understated — conservative by < 1 % within a range,
/// converging on the normal limit.
pub fn t95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[df - 1],
        31..=40 => 2.042,
        41..=60 => 2.021,
        61..=120 => 2.000,
        _ => 1.980,
    }
}

/// Mean, sample standard deviation, and 95 % confidence half-width of one
/// metric over the executed seeds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricStats {
    /// Arithmetic mean over seeds.
    pub mean: f64,
    /// Sample standard deviation (zero for a single seed).
    pub stddev: f64,
    /// Student-t 95 % confidence half-width,
    /// `t₀.₉₇₅(n−1) · stddev / √n` (zero for a single seed). The t
    /// critical value ([`t95`]) matches the small seed counts plan
    /// executions actually run; the old normal-approximation 1.96
    /// understated the interval by more than 2× at `--seeds 3`.
    pub ci95: f64,
}

impl MetricStats {
    /// Statistics of a non-empty sample list.
    pub fn of(samples: &[f64]) -> MetricStats {
        let n = samples.len().max(1) as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let stddev = if samples.len() < 2 {
            0.0
        } else {
            let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1.0);
            var.sqrt()
        };
        let ci95 = if samples.len() < 2 {
            0.0
        } else {
            t95(samples.len() - 1) * stddev / n.sqrt()
        };
        MetricStats { mean, stddev, ci95 }
    }

    /// Lower edge of the 95 % confidence interval.
    pub fn lo(&self) -> f64 {
        self.mean - self.ci95
    }

    /// Upper edge of the 95 % confidence interval.
    pub fn hi(&self) -> f64 {
        self.mean + self.ci95
    }
}

/// One seed's scalar metric row — everything the seed-paired delta and
/// confidence-interval machinery reads, distilled from a full
/// [`SimReport`]. A 20-seed measurement used to retain 20 full reports
/// (ledger-sized `Vec`s of per-peer counters, fault windows, cut-reason
/// maps); now each non-primary seed contributes this fixed-size row plus
/// its latency sketch, so a [`MeasuredReport`]'s footprint is
/// O(seeds · scalars + sketch) instead of O(seeds · report).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeedReport {
    /// Client requests issued.
    pub requests: usize,
    /// Transactions committed to blocks (success or failure).
    pub committed: usize,
    /// Transactions committed successfully.
    pub successes: usize,
    /// MVCC read-conflict failures.
    pub mvcc_conflicts: usize,
    /// Successes / committed transactions, in percent (a copy of
    /// [`SimReport::success_rate_pct`]).
    pub success_rate_pct: f64,
    /// Mean end-to-end latency (s).
    pub avg_latency_s: f64,
    /// Median Submit→Commit event-time latency (s).
    pub latency_p50: f64,
    /// 95th-percentile Submit→Commit event-time latency (s).
    pub latency_p95: f64,
    /// 99th-percentile Submit→Commit event-time latency (s).
    pub latency_p99: f64,
    /// Success throughput (tx/s).
    pub success_throughput: f64,
}

impl SeedReport {
    /// Distill one run's scalar row from its full report.
    pub fn of(report: &SimReport) -> SeedReport {
        SeedReport {
            requests: report.requests,
            committed: report.committed,
            successes: report.successes,
            mvcc_conflicts: report.mvcc_conflicts,
            success_rate_pct: report.success_rate_pct,
            avg_latency_s: report.avg_latency_s,
            latency_p50: report.latency.p50,
            latency_p95: report.latency.p95,
            latency_p99: report.latency.p99,
            success_throughput: report.success_throughput,
        }
    }
}

/// One configuration measured over every executed seed: the primary seed's
/// full report, one scalar [`SeedReport`] row per seed (for seed-paired
/// deltas), the merged latency sketch over all seeds, and aggregate
/// statistics for the figure metrics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeasuredReport {
    /// The primary seed's full report (seed 0: the spec's own seed) — what
    /// single-seed callers and the figure tables read.
    pub primary: SimReport,
    /// Scalar rows in seed-list order; index 0 mirrors `primary`.
    pub per_seed: Vec<SeedReport>,
    /// All seeds' success latencies merged into one mergeable sketch
    /// (exact up to [`sim_core::sketch::EXACT_CAP`] values, certified
    /// rank-error bound beyond) — cross-seed percentiles without keeping
    /// any seed's raw latency list.
    pub latency_sketch: QuantileSketch,
    /// Success rate (%) over seeds.
    pub success_rate: MetricStats,
    /// Mean end-to-end latency (s) over seeds.
    pub latency: MetricStats,
    /// Median Submit→Commit event-time latency (s) over seeds.
    pub latency_p50: MetricStats,
    /// 95th-percentile Submit→Commit event-time latency (s) over seeds.
    pub latency_p95: MetricStats,
    /// 99th-percentile Submit→Commit event-time latency (s) over seeds.
    pub latency_p99: MetricStats,
    /// Success throughput (tx/s) over seeds.
    pub throughput: MetricStats,
}

impl MeasuredReport {
    /// Aggregate a non-empty per-seed report list: the first report (the
    /// primary seed) is kept whole, every report contributes a scalar row
    /// and its latency sketch, and the full non-primary reports are
    /// dropped.
    pub fn from_reports(reports: Vec<SimReport>) -> MeasuredReport {
        assert!(!reports.is_empty(), "a measurement needs at least one run");
        let per_seed: Vec<SeedReport> = reports.iter().map(SeedReport::of).collect();
        let mut latency_sketch = QuantileSketch::new();
        for report in &reports {
            latency_sketch.merge(&report.latency_sketch);
        }
        let stat = |f: fn(&SeedReport) -> f64| {
            MetricStats::of(&per_seed.iter().map(f).collect::<Vec<f64>>())
        };
        let success_rate = stat(|r| r.success_rate_pct);
        let latency = stat(|r| r.avg_latency_s);
        let latency_p50 = stat(|r| r.latency_p50);
        let latency_p95 = stat(|r| r.latency_p95);
        let latency_p99 = stat(|r| r.latency_p99);
        let throughput = stat(|r| r.success_throughput);
        let primary = reports.into_iter().next().expect("non-empty checked above");
        MeasuredReport {
            primary,
            per_seed,
            latency_sketch,
            success_rate,
            latency,
            latency_p50,
            latency_p95,
            latency_p99,
            throughput,
        }
    }

    /// The primary seed's report (seed 0: the spec's own seed) — what
    /// single-seed callers and the figure tables read.
    pub fn primary(&self) -> &SimReport {
        &self.primary
    }

    /// Number of executed seeds.
    pub fn seeds(&self) -> usize {
        self.per_seed.len()
    }
}

/// How one action fared when applied alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActionResult {
    /// The action was applied and the workload re-run (the outcome
    /// carries the re-run's reports).
    Applied,
    /// The action selects a contract variant the workload ships no
    /// prepared rewrite for (paper §7: manual implementation required).
    ManualRequired,
}

/// Outcome of one action within a plan execution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActionOutcome {
    /// Name of the source recommendation.
    pub source: String,
    /// The change that was applied (or skipped).
    pub action: Action,
    /// What happened.
    pub result: ActionResult,
    /// The re-run's per-seed measurement; present exactly when `result` is
    /// [`ActionResult::Applied`].
    pub after: Option<MeasuredReport>,
}

impl ActionOutcome {
    /// The primary-seed re-run report, when the action was applied.
    pub fn report(&self) -> Option<&SimReport> {
        self.after.as_ref().map(MeasuredReport::primary)
    }

    /// The full multi-seed measurement, when the action was applied.
    pub fn measured(&self) -> Option<&MeasuredReport> {
        self.after.as_ref()
    }

    /// Per-seed paired deltas `metric(after_i) - metric(baseline_i)`,
    /// aggregated to mean / stddev / CI. Pairing by seed cancels the
    /// workload noise the two runs share.
    fn delta_stats(
        &self,
        baseline: &MeasuredReport,
        metric: fn(&SeedReport) -> f64,
    ) -> Option<MetricStats> {
        let after = self.after.as_ref()?;
        let deltas: Vec<f64> = after
            .per_seed
            .iter()
            .zip(&baseline.per_seed)
            .map(|(a, b)| metric(a) - metric(b))
            .collect();
        Some(MetricStats::of(&deltas))
    }

    /// Mean success-rate change vs the baseline, in percentage points.
    pub fn success_rate_delta(&self, baseline: &MeasuredReport) -> Option<f64> {
        self.success_rate_delta_stats(baseline).map(|s| s.mean)
    }

    /// Success-rate change statistics over seeds (percentage points).
    pub fn success_rate_delta_stats(&self, baseline: &MeasuredReport) -> Option<MetricStats> {
        self.delta_stats(baseline, |r| r.success_rate_pct)
    }

    /// Mean average-latency change vs the baseline, in seconds (negative =
    /// faster).
    pub fn latency_delta(&self, baseline: &MeasuredReport) -> Option<f64> {
        self.latency_delta_stats(baseline).map(|s| s.mean)
    }

    /// Latency change statistics over seeds (seconds).
    pub fn latency_delta_stats(&self, baseline: &MeasuredReport) -> Option<MetricStats> {
        self.delta_stats(baseline, |r| r.avg_latency_s)
    }

    /// Mean success-throughput change vs the baseline, in tx/s.
    pub fn throughput_delta(&self, baseline: &MeasuredReport) -> Option<f64> {
        self.throughput_delta_stats(baseline).map(|s| s.mean)
    }

    /// Throughput change statistics over seeds (tx/s).
    pub fn throughput_delta_stats(&self, baseline: &MeasuredReport) -> Option<MetricStats> {
        self.delta_stats(baseline, |r| r.success_throughput)
    }
}

/// Everything one plan execution measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanOutcome {
    /// The seed list every configuration was measured under.
    pub seeds: Vec<u64>,
    /// The unmodified workload's measurement (the "W/O" row of every
    /// figure).
    pub baseline: MeasuredReport,
    /// One outcome per planned action, applied alone.
    pub actions: Vec<ActionOutcome>,
    /// All applicable actions together (the figures' "all optimizations"
    /// row). `None` when no action could be applied.
    pub combined: Option<MeasuredReport>,
    /// The *optimized scenario spec*: the baseline spec with every
    /// applicable action applied ([`OptimizationPlan::apply_to_spec`]). It
    /// is the spec `combined`'s primary seed measured, so building and
    /// running it replays `combined.primary`; with no applicable action it
    /// is the baseline spec. Serialize it, hand it to the operator, and the
    /// tuned configuration is replayable as data.
    pub optimized_spec: ScenarioSpec,
}

impl PlanOutcome {
    /// Whether any applied action (or the combination) raised the mean
    /// success rate over the baseline.
    pub fn improved(&self) -> bool {
        let base = self.baseline.success_rate.mean;
        self.combined
            .iter()
            .map(|r| r.success_rate.mean)
            .chain(
                self.actions
                    .iter()
                    .filter_map(|a| a.measured().map(|r| r.success_rate.mean)),
            )
            .any(|rate| rate > base)
    }
}

impl OptimizationPlan {
    /// Lower every recommendation of an analysis to its actions.
    pub fn from_analysis(analysis: &Analysis) -> OptimizationPlan {
        OptimizationPlan::from_recommendations(&analysis.recommendations)
    }

    /// Lower a recommendation list to its actions.
    pub fn from_recommendations(recommendations: &[Recommendation]) -> OptimizationPlan {
        OptimizationPlan {
            actions: recommendations
                .iter()
                .flat_map(|rec| {
                    rec.actions().into_iter().map(|action| PlannedAction {
                        source: rec.name().to_string(),
                        action,
                    })
                })
                .collect(),
        }
    }

    /// Keep only the actions lowered from the named recommendations
    /// (figures evaluate one optimization at a time before combining).
    pub fn select(mut self, sources: &[&str]) -> OptimizationPlan {
        self.actions
            .retain(|a| sources.contains(&a.source.as_str()));
        self
    }

    /// Number of planned actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Apply every action, in plan order, to a declarative spec
    /// ([`Action::apply_to_spec`]): schedule rewrites join
    /// `spec.transforms`, configuration changes rewrite `spec.network`,
    /// variant selections join `spec.variants`, and retry patches rewrite
    /// `spec.retry`. Returns the optimized spec plus the variant kinds the
    /// workload ships no rewrite for (manual, paper §7).
    ///
    /// The optimized spec is the plan's durable artifact, and the
    /// configuration the plan grid measures as "all actions combined":
    /// serialize it and the tuned configuration can be rebuilt,
    /// re-measured, or diffed against the baseline spec.
    pub fn apply_to_spec(&self, spec: &ScenarioSpec) -> (ScenarioSpec, Vec<VariantKind>) {
        let mut out = spec.clone();
        let mut manual: Vec<VariantKind> = Vec::new();
        for planned in &self.actions {
            match planned.action.apply_to_spec(&out) {
                Some(next) => out = next,
                None => {
                    if let Action::SelectContractVariant(kind) = planned.action {
                        manual.push(kind);
                    }
                }
            }
        }
        manual.sort_unstable();
        manual.dedup();
        (out, manual)
    }

    /// Simulate a spec's baseline, analyze the resulting ledger with
    /// `analyzer`, and lower the recommendations to a plan. Returns the
    /// plan together with the baseline run (whose report seeds
    /// [`execute_spec_from_with`](Self::execute_spec_from_with), and whose
    /// ledger the caller may export).
    ///
    /// When the baseline run degrades under the spec's fault plan, the
    /// [resilience catalogue](crate::resilience::ResilienceRuleSet::paper)
    /// is evaluated against the run's degradation report and its actions
    /// (retry tuning, backoff widening, endorsement-policy relaxation) are
    /// appended to the plan — so `optimize --spec faulty.json` closes the
    /// loop over fault tolerance exactly like it does over throughput.
    pub fn from_spec(
        spec: &ScenarioSpec,
        analyzer: &Analyzer,
    ) -> Result<(OptimizationPlan, SimOutput), AnalyzeError> {
        let (bundle, config) = spec.build()?;
        let output = bundle.run(config);
        let analysis = analyzer.analyze_ledger(&output.ledger)?;
        let mut plan = OptimizationPlan::from_analysis(&analysis);
        let resilience = crate::resilience::ResilienceRuleSet::paper().evaluate(
            &crate::resilience::ResilienceCtx {
                report: &output.report,
                retry: &spec.retry,
                config: &spec.network,
            },
        );
        plan.actions.extend(resilience);
        Ok((plan, output))
    }

    /// Execute the closed loop against a declarative [`ScenarioSpec`]: the
    /// baseline, each action applied alone, and all applicable actions
    /// combined, each simulated once per seed of `plan_config` and fanned
    /// out over its threads. See the [module docs](self) for the grid.
    pub fn execute_spec_with(
        &self,
        spec: &ScenarioSpec,
        plan_config: &PlanConfig,
    ) -> Result<PlanOutcome, AnalyzeError> {
        self.run_grid(spec, plan_config, None)
    }

    /// [`execute_spec_with`](Self::execute_spec_with) reusing an
    /// already-measured primary-seed baseline report (the common case when
    /// the plan came from [`from_spec`](Self::from_spec), which already
    /// ran the spec once).
    pub fn execute_spec_from_with(
        &self,
        spec: &ScenarioSpec,
        baseline: SimReport,
        plan_config: &PlanConfig,
    ) -> Result<PlanOutcome, AnalyzeError> {
        self.run_grid(spec, plan_config, Some(baseline))
    }

    /// The spec grid slot `slot` measures on top of `seed_spec`: slot 0 is
    /// the baseline, slots 1..=n each action alone (`None` when it is
    /// manual), slot n + 1 all actions combined.
    fn slot_spec(&self, slot: usize, seed_spec: &ScenarioSpec) -> Option<ScenarioSpec> {
        match slot {
            0 => Some(seed_spec.clone()),
            s if s <= self.actions.len() => self.actions[s - 1].action.apply_to_spec(seed_spec),
            _ => Some(self.apply_to_spec(seed_spec).0),
        }
    }

    /// Seed 0's spec of every grid slot ([`slot_spec`](Self::slot_spec)),
    /// each validated.
    fn primary_slot_specs(
        &self,
        spec: &ScenarioSpec,
    ) -> Result<Vec<Option<ScenarioSpec>>, AnalyzeError> {
        let primary: Vec<Option<ScenarioSpec>> = (0..=self.actions.len() + 1)
            .map(|slot| self.slot_spec(slot, spec))
            .collect();
        for slot_spec in primary.iter().flatten() {
            slot_spec.validate()?;
        }
        Ok(primary)
    }

    /// Measure the `(configuration, seed)` grid of a spec.
    fn run_grid(
        &self,
        spec: &ScenarioSpec,
        plan_config: &PlanConfig,
        reused_baseline: Option<SimReport>,
    ) -> Result<PlanOutcome, AnalyzeError> {
        let seeds = plan_config.seed_list(spec.seed());
        let pool = ThreadPool::new(plan_config.threads);
        // Seed 0 runs the spec *verbatim*: `with_seed` would overwrite the
        // network seed with the workload seed, and a hand-edited spec may
        // deliberately keep them different — re-seeding would measure a
        // different primary configuration than the one a reused
        // `from_spec` baseline was taken from, skewing every seed-paired
        // delta.
        let seed_specs: Vec<ScenarioSpec> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                if i == 0 {
                    spec.clone()
                } else {
                    spec.clone().with_seed(seed)
                }
            })
            .collect();

        // Seed 0's slots. Neither whether an action applies nor whether its
        // spec validates depends on the seed, so checking them here fails a
        // bad configuration before any simulation runs — and the grid never
        // measures a configuration whose spec would not build. The combined
        // slot's spec is the optimized spec.
        let combined_slot = self.actions.len() + 1;
        let mut primary = self.primary_slot_specs(spec)?;
        let any_applied = primary[1..combined_slot].iter().any(Option::is_some);
        let grid = Grid::of(&primary, seeds.len(), reused_baseline.is_some());

        // One generated workload per seed, fanned out over the same pool the
        // simulations use: at `--seeds 32` the generation phase is itself a
        // visible serial prefix, and each generation is independent and
        // deterministic in its seed. Every slot of a seed is finished from
        // this one workload.
        let generated: Vec<WorkloadBundle> = pool
            .map(seed_specs.iter().collect(), ScenarioSpec::generate)
            .into_iter()
            .collect::<Result<_, _>>()?;

        // The pool returns results in job order (slot-major, then seed), so
        // regrouping by slot preserves seed order, and the outcome is
        // byte-identical for any thread count. A grid run keeps only its
        // report, so it builds no ledger.
        let results = pool.map(grid.jobs, |(slot, si)| {
            let slot_spec = self
                .slot_spec(slot, &seed_specs[si])
                .expect("whether an action applies does not depend on the seed");
            slot_spec
                .finish(&generated[si])
                .map(|(bundle, config)| (slot, bundle.run_report(config)))
        });
        let mut per_slot: Vec<Vec<SimReport>> = vec![Vec::new(); combined_slot + 1];
        for result in results {
            let (slot, report) = result?;
            per_slot[slot].push(report);
        }
        if let Some(report) = reused_baseline {
            per_slot[0].insert(0, report);
        }
        for (slot, source) in grid.copy_of.iter().enumerate() {
            if let Some(source) = *source {
                per_slot[slot] = per_slot[source].clone();
            }
        }

        let mut slots = per_slot.into_iter();
        let baseline = MeasuredReport::from_reports(slots.next().expect("baseline slot"));
        let actions = self
            .actions
            .iter()
            .zip(&primary[1..combined_slot])
            .zip(&mut slots)
            .map(|((planned, slot_spec), reports)| {
                let after = slot_spec
                    .is_some()
                    .then(|| MeasuredReport::from_reports(reports));
                ActionOutcome {
                    source: planned.source.clone(),
                    action: planned.action.clone(),
                    result: if after.is_some() {
                        ActionResult::Applied
                    } else {
                        ActionResult::ManualRequired
                    },
                    after,
                }
            })
            .collect();
        let combined =
            any_applied.then(|| MeasuredReport::from_reports(slots.next().expect("combined slot")));

        Ok(PlanOutcome {
            seeds,
            baseline,
            actions,
            combined,
            optimized_spec: primary
                .pop()
                .flatten()
                .expect("the combined slot always has a spec"),
        })
    }
}

/// Which `(slot, seed)` runs a grid simulates, and which slots it copies.
struct Grid {
    /// The simulated `(slot, seed index)` jobs, slot-major then seed order.
    jobs: Vec<(usize, usize)>,
    /// Per slot, the earlier slot whose reports it copies.
    copy_of: Vec<Option<usize>>,
}

impl Grid {
    /// The grid over seed 0's slot specs `primary` (`None` for a manual
    /// action; the last slot is the combination, measured only when some
    /// action applies) at `seeds` seeds, `reused_baseline` when seed 0's
    /// baseline report is already measured.
    ///
    /// A slot whose spec equals an earlier slot's copies that slot's
    /// reports: with one applicable action the combination is that
    /// action's spec, and an action already in force leaves the baseline.
    /// Equality at seed 0 holds at every seed, because an action never
    /// touches the seeds [`ScenarioSpec::with_seed`] sets, so the two
    /// commute.
    fn of(primary: &[Option<ScenarioSpec>], seeds: usize, reused_baseline: bool) -> Grid {
        let combined_slot = primary.len() - 1;
        let any_applied = primary[1..combined_slot].iter().any(Option::is_some);
        let measured = |slot: usize| {
            primary[slot]
                .as_ref()
                .filter(|_| slot < combined_slot || any_applied)
        };
        let copy_of: Vec<Option<usize>> = (0..primary.len())
            .map(|slot| {
                let slot_spec = measured(slot)?;
                (0..slot).find(|&earlier| measured(earlier) == Some(slot_spec))
            })
            .collect();
        let jobs = (0..primary.len())
            .filter(|&slot| measured(slot).is_some() && copy_of[slot].is_none())
            .flat_map(|slot| (0..seeds).map(move |si| (slot, si)))
            .filter(|&job| !(reused_baseline && job == (0, 0)))
            .collect();
        Grid { jobs, copy_of }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::policy::EndorsementPolicy;
    use std::collections::BTreeSet;
    use workload::SpecTransform;

    /// A built-in spec scaled to `txs` transactions.
    fn spec_of(name: &str, txs: usize) -> ScenarioSpec {
        ScenarioSpec::builtin(name).unwrap().with_transactions(txs)
    }

    /// The analysis of one baseline run of `spec`.
    fn analysis_of(spec: &ScenarioSpec) -> Analysis {
        let (bundle, config) = spec.build().unwrap();
        Analyzer::new()
            .analyze_ledger(&bundle.run(config).ledger)
            .unwrap()
    }

    /// A one-recommendation plan applied to `spec`: the optimized spec, the
    /// manual variant kinds, and the descriptions of the planned actions.
    fn apply_one(
        spec: &ScenarioSpec,
        rec: Recommendation,
    ) -> (ScenarioSpec, Vec<VariantKind>, Vec<String>) {
        let plan = OptimizationPlan::from_recommendations(&[rec]);
        let described = plan.actions.iter().map(|a| a.action.describe()).collect();
        let (optimized, manual) = plan.apply_to_spec(spec);
        (optimized, manual, described)
    }

    #[test]
    fn reordering_defers_failed_readers() {
        let spec = spec_of("synthetic", 200);
        let (optimized, manual, described) = apply_one(
            &spec,
            Recommendation::ActivityReordering {
                pairs: vec![(("query".into(), "write".into()), 10)],
                share: 0.8,
            },
        );
        assert_eq!(
            optimized.transforms,
            vec![SpecTransform::DeferActivities {
                activities: vec!["query".into()],
            }]
        );
        assert_eq!(optimized.network, spec.network);
        assert!(manual.is_empty());
        assert_eq!(described, vec!["activity reordering: deferred query"]);
    }

    #[test]
    fn rate_control_respaces() {
        let spec = spec_of("synthetic", 200);
        let (optimized, _, described) = apply_one(
            &spec,
            Recommendation::TransactionRateControl {
                intervals: vec![0],
                peak_rate: 300.0,
                suggested_rate: 10.0,
            },
        );
        assert_eq!(
            optimized.transforms,
            vec![SpecTransform::Throttle { rate: 10.0 }]
        );
        assert_eq!(optimized.network, spec.network);
        assert_eq!(described, vec!["rate control: 10 tps"]);
        let (bundle, _) = optimized.build().unwrap();
        assert_eq!(
            bundle.requests[2].send_time.as_micros() - bundle.requests[0].send_time.as_micros(),
            200_000,
            "2 gaps at 10 tps = 200 ms"
        );
    }

    #[test]
    fn system_level_block_count() {
        let spec = spec_of("synthetic", 200);
        let (optimized, _, described) = apply_one(
            &spec,
            Recommendation::BlockSizeAdaptation {
                current_avg: 100.0,
                tr: 300.0,
                suggested_count: 300,
            },
        );
        assert_eq!(optimized.network.block_count, 300);
        assert!(optimized.transforms.is_empty());
        assert_eq!(described, vec!["block count → 300"]);
    }

    #[test]
    fn system_level_restructures_policy() {
        let mut spec = spec_of("synthetic", 200);
        spec.network.orgs = 4;
        spec.network.endorsement_policy = EndorsementPolicy::p1();
        spec.network.endorser_skew = 6.0;
        let (optimized, _, described) = apply_one(
            &spec,
            Recommendation::EndorserRestructuring {
                shares: vec![("Org1".into(), 0.5)],
                overloaded: vec!["Org1".into()],
            },
        );
        let network = &optimized.network;
        assert_eq!(
            network.endorsement_policy.to_string(),
            "OutOf(2,Org1,Org2,Org3,Org4)",
            "P1 needs 2 endorsers → generalized to P4"
        );
        assert_eq!(network.endorser_skew, 0.0, "skew removed by the measure");
        assert!(network.endorsement_policy.mandatory_orgs().is_empty());
        assert!(optimized.transforms.is_empty());
        assert_eq!(described, vec!["endorsement policy → OutOf(k, all orgs)"]);
    }

    #[test]
    fn system_level_boosts_clients() {
        let spec = spec_of("synthetic", 200);
        let (optimized, _, described) = apply_one(
            &spec,
            Recommendation::ClientResourceBoost {
                org: "Org2".into(),
                share: 0.7,
            },
        );
        assert_eq!(optimized.network.client_boost, Some((1, 2)));
        assert!(optimized.transforms.is_empty());
        assert_eq!(described, vec!["clients of Org2 ×2"]);
    }

    #[test]
    fn data_level_recommendations_are_left_alone() {
        // The synthetic workload ships no contract rewrite: the variant is
        // manual, and the spec keeps its schedule and network.
        let spec = spec_of("synthetic", 200);
        let (optimized, manual, described) = apply_one(
            &spec,
            Recommendation::DeltaWrites {
                activities: vec![("play".into(), 9)],
            },
        );
        assert_eq!(optimized, spec);
        assert_eq!(manual, vec![VariantKind::DeltaWrites]);
        assert_eq!(described, vec!["smart contract → delta-writes variant"]);
    }

    fn scm_setup() -> (ScenarioSpec, Analysis) {
        // 6 000 transactions: the same regime the directional
        // optimization-effects tests use (pruning's benefit needs enough
        // anomalous flows to outweigh its extra early-abort latency).
        let spec = spec_of("scm", 6_000);
        let analysis = analysis_of(&spec);
        (spec, analysis)
    }

    #[test]
    fn scm_plan_lowers_the_expected_actions() {
        let (_, analysis) = scm_setup();
        let plan = OptimizationPlan::from_analysis(&analysis);
        let sources: Vec<&str> = plan.actions.iter().map(|a| a.source.as_str()).collect();
        assert!(sources.contains(&"Activity reordering"), "{sources:?}");
        assert!(sources.contains(&"Transaction rate control"), "{sources:?}");
        assert!(sources.contains(&"Process model pruning"), "{sources:?}");
        // Selection filters by source.
        let only = plan.clone().select(&["Transaction rate control"]);
        assert_eq!(only.len(), 1);
        assert!(matches!(
            only.actions[0].action,
            Action::RewriteSchedule(SpecTransform::Throttle { .. })
        ));
    }

    #[test]
    fn scm_closed_loop_reproduces_the_improvement_direction() {
        let (spec, analysis) = scm_setup();
        let plan = OptimizationPlan::from_analysis(&analysis).select(&[
            "Activity reordering",
            "Transaction rate control",
            "Process model pruning",
        ]);
        let outcome = plan
            .execute_spec_with(&spec, &PlanConfig::default())
            .unwrap();
        assert_eq!(outcome.seeds, vec![spec.seed()]);
        assert!(outcome.improved(), "at least one optimization helps");
        for action in &outcome.actions {
            let report = action.report().expect("all SCM actions are applicable");
            // Figure 13's direction: every single optimization raises the
            // success rate.
            assert!(
                report.success_rate_pct > outcome.baseline.primary().success_rate_pct,
                "{}: {} → {}",
                action.action.describe(),
                outcome.baseline.primary().success_rate_pct,
                report.success_rate_pct
            );
        }
        let combined = outcome.combined.as_ref().expect("actions applied");
        assert!(
            combined.success_rate.mean > outcome.baseline.success_rate.mean + 5.0,
            "all optimizations together beat the baseline clearly: {} → {}",
            outcome.baseline.success_rate.mean,
            combined.success_rate.mean
        );
    }

    #[test]
    fn unsupported_variants_are_reported_as_manual() {
        // The synthetic workload ships no contract rewrites.
        let spec = spec_of("synthetic", 1_000);
        let plan = OptimizationPlan::from_recommendations(&[Recommendation::DeltaWrites {
            activities: vec![("update".into(), 9)],
        }]);
        let outcome = plan
            .execute_spec_with(&spec, &PlanConfig::default())
            .unwrap();
        assert_eq!(outcome.actions.len(), 1);
        assert!(matches!(
            outcome.actions[0].result,
            ActionResult::ManualRequired
        ));
        assert!(outcome.actions[0].report().is_none());
        assert!(outcome.combined.is_none(), "nothing was applicable");
        assert!(!outcome.improved());
        assert_eq!(outcome.optimized_spec, spec, "nothing to emit");
    }

    #[test]
    fn transform_composes_schedule_config_and_variants() {
        let (spec, analysis) = scm_setup();
        let plan = OptimizationPlan::from_analysis(&analysis);
        let (optimized, manual) = plan.apply_to_spec(&spec);
        assert!(manual.is_empty(), "{manual:?}");
        // Rate control and reordering became transforms; block size
        // adaptation fired for the default SCM demo, so the network
        // changed; the contract was swapped for the pruned variant.
        assert!(optimized
            .transforms
            .iter()
            .any(|t| matches!(t, SpecTransform::Throttle { .. })));
        assert_ne!(optimized.network.block_count, spec.network.block_count);
        assert!(optimized.variants.contains(&VariantKind::Pruned));
        // The transforms keep the volume.
        let (bundle, _) = spec.build().unwrap();
        let (tuned, _) = optimized.build().unwrap();
        assert_eq!(tuned.len(), bundle.len());
    }

    #[test]
    fn transform_resolves_supported_combos_despite_manual_kinds() {
        use workload::{drm, WorkloadSpec};
        let spec = spec_of("drm", 2_000);
        let WorkloadSpec::Drm(drm_spec) = &spec.workload else {
            panic!("drm builtin");
        };
        // Pruned is not shipped by DRM; the other two are — and their
        // combination resolves to the Figure-14 partitioned-delta contract
        // set. The unsupported kind must not degrade the combo to
        // sequentially applied singles (which would silently drop the
        // delta rewrite).
        let plan = OptimizationPlan::from_recommendations(&[
            Recommendation::ProcessModelPruning { anomalous: vec![] },
            Recommendation::DeltaWrites {
                activities: vec![("play".into(), 9)],
            },
            Recommendation::SmartContractPartitioning { hotkeys: vec![] },
        ]);
        let (optimized, manual) = plan.apply_to_spec(&spec);
        assert_eq!(manual, vec![VariantKind::Pruned]);
        // Deterministic runs: the optimized spec must behave exactly like
        // the partitioned-delta combo built without the spec layer, and
        // differently from partitioned-only.
        let generated = drm::generate(drm_spec);
        let partitioned_delta: Vec<_> = ["drm-play:delta", "drm-meta"]
            .into_iter()
            .map(|id| chaincode::registry::resolve(id).unwrap())
            .collect();
        let expected = drm::partitioned(generated.clone(), drm_spec)
            .with_contracts(partitioned_delta)
            .run(spec.network.clone())
            .report;
        let (bundle, config) = optimized.build().unwrap();
        let got = bundle.run(config).report;
        assert_eq!(format!("{got:?}"), format!("{expected:?}"));
        let partitioned_only = drm::partitioned(generated, drm_spec)
            .run(spec.network.clone())
            .report;
        assert_ne!(
            got.successes, partitioned_only.successes,
            "delta rewrite was not discarded"
        );
        // The grid measures exactly that combination.
        let outcome = plan
            .execute_spec_with(&spec, &PlanConfig::new(1, 1))
            .unwrap();
        assert_eq!(outcome.actions[0].result, ActionResult::ManualRequired);
        let combined = outcome.combined.as_ref().expect("two variants applied");
        assert_eq!(format!("{:?}", combined.primary), format!("{expected:?}"));
        assert_eq!(outcome.optimized_spec, optimized);
    }

    #[test]
    fn identical_slot_specs_are_simulated_once() {
        let spec = spec_of("synthetic", 400);
        // Rate control applies; synthetic ships no delta-writes rewrite, so
        // the combination is the rate control's spec.
        let plan = OptimizationPlan::from_recommendations(&[
            Recommendation::TransactionRateControl {
                intervals: vec![0],
                peak_rate: 300.0,
                suggested_rate: 100.0,
            },
            Recommendation::DeltaWrites {
                activities: vec![("update".into(), 9)],
            },
        ]);
        let primary = plan.primary_slot_specs(&spec).unwrap();
        assert!(primary[2].is_none(), "the variant is manual");
        assert_eq!(primary[3], primary[1]);
        // At 4 seeds with seed 0's baseline reused: 3 baseline runs and 4 of
        // the rate control; the combination copies the rate control's.
        let grid = Grid::of(&primary, 4, true);
        assert_eq!(grid.jobs.len(), 7, "{:?}", grid.jobs);
        assert_eq!(grid.copy_of, vec![None, None, None, Some(1)]);
        assert_eq!(Grid::of(&primary, 4, false).jobs.len(), 8);

        let outcome = plan
            .execute_spec_with(&spec, &PlanConfig::new(2, 1))
            .unwrap();
        let json = |m: Option<&MeasuredReport>| serde_json::to_string(&m.unwrap()).unwrap();
        assert_eq!(
            json(outcome.combined.as_ref()),
            json(outcome.actions[0].measured())
        );

        // A block count already in force measures the baseline again: it
        // and the combination copy the baseline's reports.
        let in_force =
            OptimizationPlan::from_recommendations(&[Recommendation::BlockSizeAdaptation {
                current_avg: 10.0,
                tr: 100.0,
                suggested_count: spec.network.block_count,
            }]);
        let primary = in_force.primary_slot_specs(&spec).unwrap();
        let grid = Grid::of(&primary, 4, true);
        assert_eq!(grid.jobs, vec![(0, 1), (0, 2), (0, 3)]);
        assert_eq!(grid.copy_of, vec![None, Some(0), Some(0)]);
    }

    /// The tentpole equivalence guarantee: a parallel execution (threads=4)
    /// produces byte-identical per-seed metrics to the serial one.
    #[test]
    fn parallel_execution_is_byte_identical_to_serial() {
        let spec = spec_of("scm", 2_000);
        let plan = OptimizationPlan::from_analysis(&analysis_of(&spec));

        let serial = plan
            .execute_spec_with(&spec, &PlanConfig::new(3, 1))
            .unwrap();
        let parallel = plan
            .execute_spec_with(&spec, &PlanConfig::new(3, 4))
            .unwrap();

        assert_eq!(serial.seeds, parallel.seeds);
        let fingerprint = |m: &MeasuredReport| {
            m.per_seed
                .iter()
                .map(|r| {
                    (
                        r.successes,
                        r.committed,
                        r.mvcc_conflicts,
                        r.success_rate_pct.to_bits(),
                        r.avg_latency_s.to_bits(),
                        r.success_throughput.to_bits(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            fingerprint(&serial.baseline),
            fingerprint(&parallel.baseline)
        );
        assert_eq!(serial.actions.len(), parallel.actions.len());
        for (a, b) in serial.actions.iter().zip(&parallel.actions) {
            assert_eq!(a.result, b.result);
            match (a.measured(), b.measured()) {
                (Some(x), Some(y)) => assert_eq!(fingerprint(x), fingerprint(y)),
                (None, None) => {}
                _ => panic!("applied-ness must not depend on threads"),
            }
        }
        match (&serial.combined, &parallel.combined) {
            (Some(x), Some(y)) => assert_eq!(fingerprint(x), fingerprint(y)),
            (None, None) => {}
            _ => panic!("combined run must not depend on threads"),
        }
    }

    #[test]
    fn multi_seed_outcome_carries_statistics() {
        // Four orgs under the 2-of-4 policy: endorser selection consumes
        // the seed on top of the re-seeded workload.
        let mut spec = spec_of("scm", 2_000);
        spec.network.orgs = 4;
        spec.network.endorsement_policy = fabric_sim::policy::EndorsementPolicy::p4();
        let plan =
            OptimizationPlan::from_recommendations(&[Recommendation::TransactionRateControl {
                intervals: vec![0],
                peak_rate: 300.0,
                suggested_rate: 100.0,
            }]);
        let outcome = plan
            .execute_spec_with(&spec, &PlanConfig::new(4, 2))
            .unwrap();

        assert_eq!(outcome.seeds.len(), 4);
        assert_eq!(outcome.seeds[0], spec.seed(), "seed 0 is the spec's own");
        let distinct: BTreeSet<u64> = outcome.seeds.iter().copied().collect();
        assert_eq!(distinct.len(), 4, "derived seeds never collide");

        assert_eq!(outcome.baseline.seeds(), 4);
        // Different seeds produce different runs, so the spread is real.
        assert!(outcome.baseline.success_rate.stddev > 0.0);
        assert!(outcome.baseline.success_rate.ci95 > 0.0);
        assert!(outcome.baseline.success_rate.lo() <= outcome.baseline.success_rate.hi());
        let mean = outcome.baseline.success_rate.mean;
        let lo = outcome
            .baseline
            .per_seed
            .iter()
            .map(|r| r.success_rate_pct)
            .fold(f64::INFINITY, f64::min);
        let hi = outcome
            .baseline
            .per_seed
            .iter()
            .map(|r| r.success_rate_pct)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(lo <= mean && mean <= hi);

        // Paired deltas exist per action and cover every seed.
        let action = &outcome.actions[0];
        let stats = action
            .success_rate_delta_stats(&outcome.baseline)
            .expect("throttle applies");
        assert!(stats.mean.is_finite());
        assert!(
            stats.mean > 0.0,
            "rate control lifts the seed-averaged success rate"
        );
    }

    #[test]
    fn execute_from_reuses_the_primary_baseline() {
        let spec = spec_of("scm", 1_500);
        let (bundle, config) = spec.build().unwrap();
        let baseline = bundle.run(config).report;
        let plan =
            OptimizationPlan::from_recommendations(&[Recommendation::TransactionRateControl {
                intervals: vec![0],
                peak_rate: 300.0,
                suggested_rate: 100.0,
            }]);
        let outcome = plan
            .execute_spec_from_with(&spec, baseline.clone(), &PlanConfig::new(2, 2))
            .unwrap();
        assert_eq!(outcome.baseline.seeds(), 2);
        assert_eq!(
            outcome.baseline.primary().successes,
            baseline.successes,
            "seed 0 reuses the provided report"
        );
        // And the reused report is identical to a fresh run of seed 0.
        let fresh = plan
            .execute_spec_with(&spec, &PlanConfig::new(2, 2))
            .unwrap();
        assert_eq!(
            format!("{:?}", fresh.baseline.primary()),
            format!("{:?}", outcome.baseline.primary())
        );
    }

    #[test]
    fn metric_stats_basics() {
        let one = MetricStats::of(&[5.0]);
        assert_eq!(one.mean, 5.0);
        assert_eq!(one.stddev, 0.0);
        assert_eq!(one.ci95, 0.0);
        // Three seeds → df = 2 → t = 4.303, not the normal 1.96: the old
        // z-interval understated this CI by a factor of 2.2.
        let s = MetricStats::of(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.stddev - 1.0).abs() < 1e-12);
        assert!((s.ci95 - 4.303 / 3f64.sqrt()).abs() < 1e-12);
        assert!(s.lo() < s.mean && s.mean < s.hi());
    }

    #[test]
    fn t_critical_values_shrink_toward_normal() {
        assert_eq!(t95(1), 12.706);
        assert_eq!(t95(2), 4.303);
        assert_eq!(t95(9), 2.262, "--seeds 10 regime");
        assert_eq!(t95(30), 2.042);
        assert_eq!(t95(50), 2.021);
        assert_eq!(t95(1000), 1.980);
        assert!(t95(0).is_infinite(), "a single seed has no interval");
        // Monotone nonincreasing, and never below the exact value's floor
        // (each waypoint range reuses its smallest df's critical value, so
        // the interval is conservative, not understated).
        let mut prev = f64::INFINITY;
        for df in 1..200 {
            let t = t95(df);
            assert!(t <= prev, "t95({df}) = {t} rose above {prev}");
            assert!(t >= 1.960);
            prev = t;
        }
        // Spot-check the conservative direction at range edges: the exact
        // values are t(31) ≈ 2.040 and t(61) ≈ 2.000.
        assert!(t95(31) >= 2.040);
        assert!(t95(61) >= 2.000);
    }

    #[test]
    fn plan_outcome_round_trips_through_json() {
        let (spec, analysis) = scm_setup();
        let plan = OptimizationPlan::from_analysis(&analysis).select(&["Transaction rate control"]);
        let outcome = plan
            .execute_spec_with(&spec, &PlanConfig::default())
            .unwrap();
        let json = serde_json::to_string(&outcome).unwrap();
        let back: PlanOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back.actions.len(), outcome.actions.len());
        assert_eq!(back.seeds, outcome.seeds);
        assert_eq!(
            back.baseline.success_rate.mean,
            outcome.baseline.success_rate.mean
        );
        assert_eq!(
            back.baseline.primary().success_rate_pct,
            outcome.baseline.primary().success_rate_pct
        );
        assert_eq!(back.optimized_spec, outcome.optimized_spec);
    }
}

//! The BlockOptR command-line tool.
//!
//! ```text
//! blockoptr demo scm --out scm.json          # simulate a scenario, save its log
//! blockoptr demo scm --txs 2000 --auto-tune  # scaled demo with tuned thresholds
//! blockoptr analyze scm.json                 # metrics + recommendations
//! blockoptr analyze scm.json --auto-tune     # with deployment-tuned thresholds
//! blockoptr analyze scm.json --json          # machine-readable output
//! blockoptr analyze scm.json --csv log.csv --xes log.xes --dot model.dot
//! blockoptr watch scm.json --window 10       # replay as a stream, re-analyzing
//! blockoptr watch scm.json --policy last-blocks:20   # bounded-memory replay
//! blockoptr watch --live scm --blocks 50 --window 10 # consume a live run's
//!                                            # committed-block feed through a
//!                                            # sliding-window session
//! blockoptr compare before.json after.json   # compliance check of a rollout
//! blockoptr spec scm --out scm_spec.json     # dump a scenario as a replayable spec
//! blockoptr spec scm --freeze                # …with the schedule inlined as data
//! blockoptr optimize scm                     # closed loop: plan, apply, re-run, deltas
//! blockoptr optimize scm --dry-run           # print the plan without re-running
//! blockoptr optimize scm --txs 2000 --json   # scaled run, machine-readable outcome
//! blockoptr optimize scm --seeds 5 --threads 4  # 5 seeds/config in parallel: mean ± CI deltas
//! blockoptr optimize --log blocks.json --spec scm_spec.json --emit-spec tuned.json
//!                                            # bring-your-own-log closed loop
//! ```
//!
//! Mirrors the paper's tool — read a blockchain log, derive the metrics and
//! the process model, print the multi-level recommendations (Figure 5's
//! workflow) — plus the §7 compliance checking, a `watch` mode that
//! replays a log through an incremental [`Session`](blockoptr::Session) the
//! way a monitoring loop would consume a live chain, and an `optimize`
//! mode that runs the paper's full Table 4 loop: lower the analysis's
//! recommendations to typed [`Action`](blockoptr::Action)s, apply them,
//! re-run, and print per-action before/after deltas
//! ([`PlanOutcome`](blockoptr::PlanOutcome)). Scenarios are declarative
//! ([`ScenarioSpec`]): `spec` serializes any built-in as JSON, `optimize`
//! rebuilds workloads from specs (one fresh workload per `--seeds` seed),
//! and `--log` swaps the simulated baseline's recommendations for an
//! analysis of your exported chain.
//!
//! Unknown flags and malformed inputs are rejected with exit code 1 (a
//! missing or unknown *subcommand* prints usage and exits 2), and all
//! analysis errors are reported through
//! [`AnalyzeError`](blockoptr::AnalyzeError).

use blockoptr::compliance::verify_rollout;
use blockoptr::export;
use blockoptr::log::BlockchainLog;
use blockoptr::plan::OptimizationPlan;
use blockoptr::session::{Analysis, Analyzer, WindowPolicy};
use fabric_sim::config::NetworkConfig;
use serde::ser::Serializer;
use serde::Serialize;
use std::process::ExitCode;
use workload::ScenarioSpec;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  blockoptr demo <synthetic|scm|drm|ehr|dv|lap> [--txs N] [--out LOG.json] [--auto-tune]\n  \
         blockoptr analyze LOG.json [--auto-tune] [--json] [--csv OUT.csv] [--xes OUT.xes] [--dot OUT.dot]\n  \
         blockoptr watch LOG.json [--window N] [--policy P] [--auto-tune] [--json]\n  \
         blockoptr watch --live [synthetic|scm|drm|ehr|dv|lap] [--txs N] [--blocks N] [--window N] [--policy P] [--auto-tune] [--json]\n  \
         blockoptr compare BEFORE.json AFTER.json [--json]\n  \
         blockoptr spec <synthetic|scm|drm|ehr|dv|lap> [--txs N] [--seed N] [--out SPEC.json] [--freeze]\n  \
         blockoptr optimize <scenario | --spec SPEC.json> [--log LOG.json] [--txs N] [--seeds N]\n                     \
         [--threads N] [--dry-run] [--auto-tune] [--json] [--emit-spec OUT.json] [--disable RULE]...\n\n\
         watch --live simulates the scenario and analyzes its committed-block feed as it\n\
         runs; --policy bounds session memory (last-blocks:N or last-secs:S — live\n\
         mode defaults to last-blocks:<--window>), --blocks caps consumption.\n\
         spec dumps a scenario as a replayable ScenarioSpec JSON (--freeze inlines the\n\
         generated schedule instead of the generator parameters).\n\
         optimize measures every configuration once per seed (--seeds, default 1; each seed\n\
         regenerates the workload from the spec, so CIs reflect workload variance; deltas\n\
         become mean ± Student-t 95 % CIs) over --threads workers. With --log, the\n\
         recommendations come from YOUR exported blockchain log and the re-measurement\n\
         runs against the replayable --spec; --emit-spec writes the optimized spec."
    );
    ExitCode::from(2)
}

/// Parsed command arguments: positionals plus validated flags.
struct Args {
    positional: Vec<String>,
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    /// Split `args`, accepting only the listed flags; anything else that
    /// starts with `--` is an error.
    fn parse(args: &[String], value_flags: &[&str], switch_flags: &[&str]) -> Result<Args, String> {
        let mut parsed = Args {
            positional: Vec::new(),
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if value_flags.contains(&name) {
                    let value = iter
                        .next()
                        .filter(|v| !v.starts_with("--"))
                        .ok_or_else(|| format!("flag --{name} needs a value"))?;
                    parsed.values.push((name.to_string(), value.clone()));
                } else if switch_flags.contains(&name) {
                    parsed.switches.push(name.to_string());
                } else {
                    return Err(format!("unknown flag --{name}"));
                }
            } else {
                parsed.positional.push(arg.clone());
            }
        }
        Ok(parsed)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|n| n == name)
    }

    /// Every value passed for a repeatable flag, in order.
    fn values_of(&self, name: &str) -> Vec<&str> {
        self.values
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }
}

fn load(path: &str) -> Result<BlockchainLog, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    export::from_json(&json).map_err(|e| format!("parsing {path}: {e}"))
}

fn analyzer(tune: bool) -> Analyzer {
    Analyzer::new().auto_tune(tune)
}

fn analyze_log(log: BlockchainLog, tune: bool) -> Result<Analysis, String> {
    let analysis = analyzer(tune).analyze_log(log).map_err(|e| e.to_string())?;
    if tune {
        eprintln!(
            "auto-tune: Rt1 {:.0} tx/s, controlled rate {:.0} tx/s",
            analysis.thresholds.rt1, analysis.thresholds.controlled_rate
        );
    }
    Ok(analysis)
}

/// Machine-readable rendering of an analysis: `analyze --json` prints it
/// pretty, and `watch --json` prints one compact line per window, led by
/// the window's label, ordinal and new-transaction count.
struct AnalysisJson<'a> {
    analysis: &'a Analysis,
    /// A watch window's `(label, ordinal, new transactions)`.
    window: Option<(&'a str, usize, usize)>,
}

impl Serialize for AnalysisJson<'_> {
    fn serialize(&self, w: &mut Serializer) {
        let analysis = self.analysis;
        w.begin('{');
        if let Some((label, ordinal, added)) = self.window {
            w.field(label, &ordinal);
            w.field("new_transactions", &added);
        }
        w.field("transactions", &analysis.log.len());
        w.field("blocks", &analysis.log.block_count());
        w.field("window_secs", &analysis.log.window_secs());
        w.field("metrics", &analysis.metrics);
        w.field("thresholds", &analysis.thresholds);
        w.field("case_family", &analysis.case_derivation.family);
        w.key("recommendations");
        w.begin('[');
        for r in &analysis.recommendations {
            w.element();
            w.begin('{');
            w.field("level", &r.level().to_string());
            w.field("name", r.name());
            w.field("rationale", &r.rationale());
            w.field("evidence", r);
            w.end('}');
        }
        w.end(']');
        w.end('}');
    }
}

/// Build a demo scenario's workload bundle and network configuration,
/// optionally scaled to roughly `txs` transactions — through the spec
/// layer, so `demo`/`watch --live` and `spec`/`optimize` can never
/// disagree about what a scenario name means.
fn scenario_bundle(
    scenario: &str,
    txs: Option<usize>,
) -> Result<(workload::WorkloadBundle, NetworkConfig), String> {
    let mut spec = ScenarioSpec::builtin(scenario).map_err(|e| e.to_string())?;
    if let Some(n) = txs {
        spec = spec.with_transactions(n);
    }
    spec.build().map_err(|e| e.to_string())
}

fn cmd_demo(args: &[String]) -> Result<(), String> {
    let args = Args::parse(args, &["out", "txs"], &["auto-tune"])?;
    let scenario = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("synthetic");
    let (bundle, cfg) = scenario_bundle(scenario, positive(&args, "txs")?)?;
    let output = bundle.run(cfg);
    eprintln!("simulated {scenario}: {}", output.report.figure_row());
    let log = BlockchainLog::from_ledger(&output.ledger);
    if let Some(path) = args.value("out") {
        std::fs::write(path, export::to_json(&log)).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("log saved to {path} ({} transactions)", log.len());
    }
    let analysis = analyze_log(log, args.switch("auto-tune"))?;
    print!("{}", blockoptr::report::render(&analysis));
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let args = Args::parse(args, &["csv", "xes", "dot"], &["auto-tune", "json"])?;
    let Some(path) = args.positional.first() else {
        return Err("analyze needs a LOG.json path".into());
    };
    let log = load(path)?;
    if let Some(csv_path) = args.value("csv") {
        std::fs::write(csv_path, export::to_csv(&log))
            .map_err(|e| format!("writing {csv_path}: {e}"))?;
        eprintln!("CSV written to {csv_path}");
    }
    let analysis = analyze_log(log, args.switch("auto-tune"))?;
    if let Some(xes_path) = args.value("xes") {
        std::fs::write(xes_path, process_mining::xes::to_xes(&analysis.event_log))
            .map_err(|e| format!("writing {xes_path}: {e}"))?;
        eprintln!("XES event log written to {xes_path}");
    }
    if let Some(dot_path) = args.value("dot") {
        let dfg = process_mining::dfg::DirectlyFollowsGraph::from_log(&analysis.event_log);
        std::fs::write(dot_path, process_mining::dot::dfg_to_dot(&dfg))
            .map_err(|e| format!("writing {dot_path}: {e}"))?;
        eprintln!("process model DOT written to {dot_path}");
    }
    if args.switch("json") {
        let view = AnalysisJson {
            analysis: &analysis,
            window: None,
        };
        println!("{}", serde::ser::to_string(&view, true));
    } else {
        print!("{}", blockoptr::report::render(&analysis));
    }
    Ok(())
}

/// One rolling watch line (text mode) or JSON object (machine mode).
fn emit_watch_line(analysis: &Analysis, label: &str, ordinal: usize, added: usize, json: bool) {
    if json {
        let view = AnalysisJson {
            analysis,
            window: Some((label, ordinal, added)),
        };
        println!("{}", serde::ser::to_string(&view, false));
    } else {
        let m = &analysis.metrics;
        // Event-time Submit→Commit latencies of the window's successful
        // transactions, summarized to the report percentiles.
        let latencies: Vec<f64> = analysis
            .log
            .records()
            .iter()
            .filter(|r| !r.failed())
            .map(|r| r.commit_ts.since(r.client_ts).as_secs_f64())
            .collect();
        let lat = sim_core::stats::Summary::of(&latencies);
        println!(
            "{label} {ordinal}: +{added} tx (window {} tx in {} blocks) · Tr {:.1} tx/s · lat p50 {:.2} / p95 {:.2} / p99 {:.2} s · failures {:.1} % · recs: {}",
            analysis.log.len(),
            analysis.log.block_count(),
            m.rates.tr,
            lat.p50,
            lat.p95,
            lat.p99,
            m.rates.failure_fraction() * 100.0,
            if analysis.recommendations.is_empty() {
                "(none)".to_string()
            } else {
                analysis.recommendation_names().join(", ")
            }
        );
    }
}

/// The watch session's window policy: `--policy` wins, otherwise live mode
/// defaults to a sliding window of `--window` blocks (replay keeps the
/// analyzer's default, i.e. unbounded unless `BLOCKOPTR_WINDOW` says
/// otherwise).
fn watch_policy(args: &Args, live: bool, window: u64) -> Result<Option<WindowPolicy>, String> {
    match args.value("policy") {
        Some(spec) => WindowPolicy::parse(spec).map(Some),
        None if live => Ok(Some(WindowPolicy::LastBlocks(window as usize))),
        None => Ok(None),
    }
}

fn cmd_watch(args: &[String]) -> Result<(), String> {
    let args = Args::parse(
        args,
        &["window", "policy", "txs", "blocks"],
        &["live", "auto-tune", "json"],
    )?;
    let window: u64 = match args.value("window") {
        Some(w) => w
            .parse()
            .ok()
            .filter(|&w| w > 0)
            .ok_or_else(|| format!("--window must be a positive integer, got {w:?}"))?,
        None => 10,
    };
    if args.switch("live") {
        return cmd_watch_live(&args, window);
    }
    for flag in ["txs", "blocks"] {
        if args.value(flag).is_some() {
            return Err(format!("--{flag} only applies to watch --live"));
        }
    }
    let Some(path) = args.positional.first() else {
        return Err("watch needs a LOG.json path (or --live <scenario>)".into());
    };
    let log = load(path)?;
    if log.is_empty() {
        return Err("the log is empty; nothing to watch".into());
    }

    // Replay the exported log as a monitoring loop would consume a live
    // chain: one session, fed `window` blocks at a time, re-analyzed after
    // each batch.
    let mut analyzer = analyzer(args.switch("auto-tune"));
    if let Some(policy) = watch_policy(&args, false, window)? {
        analyzer = analyzer.window(policy);
    }
    let mut session = analyzer.session().map_err(|e| e.to_string())?;
    let records = log.records();
    let mut start = 0usize;
    let mut windows = 0usize;
    while start < records.len() {
        let mut end = start;
        let mut blocks = std::collections::BTreeSet::new();
        while end < records.len() {
            let b = records[end].block;
            if !blocks.contains(&b) && blocks.len() as u64 >= window {
                break;
            }
            blocks.insert(b);
            end += 1;
        }
        let added = session
            .ingest_log(BlockchainLog::from_records(
                records[start..end].to_vec(),
                blocks.len(),
            ))
            .map_err(|e| e.to_string())?;
        let analysis = session.snapshot().map_err(|e| e.to_string())?;
        windows += 1;
        emit_watch_line(&analysis, "window", windows, added, args.switch("json"));
        start = end;
    }
    eprintln!(
        "watched {} transactions in {windows} windows of ≤{window} blocks",
        records.len()
    );
    Ok(())
}

/// Live mode: run a demo scenario on the simulated Fabric network and
/// consume its committed-block feed through a windowed session *while the
/// simulation runs* — the always-on monitoring loop the paper assumes,
/// with memory bounded by the window policy instead of the chain length.
fn cmd_watch_live(args: &Args, window: u64) -> Result<(), String> {
    let scenario = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("synthetic");
    let txs = positive(args, "txs")?;
    let block_cap = positive(args, "blocks")?;
    let policy = watch_policy(args, true, window)?.expect("live mode always has a policy");
    let (bundle, config) = scenario_bundle(scenario, txs)?;

    // The committed-block channel: the simulation thread pushes each block
    // as the (simulated) orderer/validators commit it; this thread ingests
    // and re-analyzes. The channel is bounded so a slow consumer applies
    // backpressure instead of buffering the whole chain.
    let (sender, receiver) = std::sync::mpsc::sync_channel::<fabric_sim::ledger::Block>(64);
    #[expect(
        clippy::disallowed_methods,
        reason = "bridges the live simulation onto a channel; one long-lived producer, no fan-out for the pool to order"
    )]
    let simulation = std::thread::spawn(move || {
        bundle.run_observed(config, &mut |block| {
            // A closed receiver (--blocks cap reached) just means nobody is
            // watching anymore; the simulation still runs to completion.
            let _ = sender.send(block.clone());
        })
    });

    let mut session = analyzer(args.switch("auto-tune"))
        .window(policy)
        .session()
        .map_err(|e| e.to_string())?;
    eprintln!("watching live {scenario} run (window policy {policy})");
    let mut blocks_seen = 0usize;
    let mut total_tx = 0usize;
    while let Ok(block) = receiver.recv() {
        let number = block.number;
        let added = session.ingest_block(&block).map_err(|e| e.to_string())?;
        total_tx += added;
        blocks_seen += 1;
        let analysis = session.snapshot().map_err(|e| e.to_string())?;
        emit_watch_line(
            &analysis,
            "block",
            number as usize,
            added,
            args.switch("json"),
        );
        if block_cap.is_some_and(|cap| blocks_seen >= cap) {
            break;
        }
    }
    drop(receiver);
    let output = simulation
        .join()
        .map_err(|_| "simulation thread panicked")?;
    eprintln!(
        "watched {blocks_seen} live blocks ({total_tx} tx); window now holds {} tx in {} blocks ({} evicted)",
        session.len(),
        session.log().block_count(),
        session.evicted(),
    );
    eprintln!("simulation finished: {}", output.report.figure_row());
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let args = Args::parse(args, &[], &["json"])?;
    let (Some(before_path), Some(after_path)) = (args.positional.first(), args.positional.get(1))
    else {
        return Err("compare needs BEFORE.json and AFTER.json".into());
    };
    let before = analyze_log(load(before_path)?, false)?;
    let after = analyze_log(load(after_path)?, false)?;
    let report = verify_rollout(&before, &after);
    if args.switch("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        print!("{report}");
    }
    if report.improved() {
        eprintln!("rollout verified: recommendations resolved without new findings");
    }
    Ok(())
}

/// Parse a positive-integer flag value.
fn positive(args: &Args, name: &str) -> Result<Option<usize>, String> {
    match args.value(name) {
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .map(Some)
            .ok_or_else(|| format!("--{name} must be a positive integer, got {v:?}")),
        None => Ok(None),
    }
}

/// Dump a built-in scenario as a replayable [`ScenarioSpec`] JSON.
fn cmd_spec(args: &[String]) -> Result<(), String> {
    let args = Args::parse(args, &["txs", "seed", "out"], &["freeze"])?;
    let Some(scenario) = args.positional.first() else {
        return Err("spec needs a scenario (synthetic|scm|drm|ehr|dv|lap)".into());
    };
    let mut spec = ScenarioSpec::builtin(scenario).map_err(|e| e.to_string())?;
    if let Some(txs) = positive(&args, "txs")? {
        spec = spec.with_transactions(txs);
    }
    if let Some(seed) = args.value("seed") {
        let seed: u64 = seed
            .parse()
            .map_err(|_| format!("--seed must be an integer, got {seed:?}"))?;
        spec = spec.with_seed(seed);
    }
    if args.switch("freeze") {
        // Inline the generated schedule: the deployment-shaped "schedule
        // JSON" form, replayable without the generator.
        let (bundle, config) = spec.build().map_err(|e| e.to_string())?;
        spec = workload::scenario::freeze(&format!("{scenario}-frozen"), &bundle, &config)
            .map_err(|e| e.to_string())?;
    }
    eprintln!(
        "scenario {scenario}: contracts [{}], variant table [{}]",
        spec.contract_ids().join(", "),
        spec.workload
            .variant_table()
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let json = spec.to_json();
    match args.value("out") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("spec written to {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn cmd_optimize(args: &[String]) -> Result<(), String> {
    let args = Args::parse(
        args,
        &[
            "txs",
            "seeds",
            "threads",
            "disable",
            "spec",
            "log",
            "emit-spec",
        ],
        &["dry-run", "auto-tune", "json"],
    )?;
    let txs = positive(&args, "txs")?;
    let mut plan_config = blockoptr::plan::PlanConfig::default();
    if let Some(seeds) = positive(&args, "seeds")? {
        plan_config.seeds = seeds;
    }
    if let Some(threads) = positive(&args, "threads")? {
        plan_config.threads = threads;
    }

    // The scenario spec: a built-in by name, or the user's replayable
    // workload description (--spec). Everything downstream — baseline,
    // per-action re-runs, seed variation — rebuilds workloads from it.
    let spec = match (args.positional.first(), args.value("spec")) {
        (Some(_), Some(_)) => {
            return Err("pass either a scenario name or --spec, not both".into());
        }
        (Some(scenario), None) => {
            let mut spec = ScenarioSpec::builtin(scenario).map_err(|e| e.to_string())?;
            if let Some(n) = txs {
                spec = spec.with_transactions(n);
            }
            spec
        }
        (None, Some(path)) => {
            if txs.is_some() {
                return Err(
                    "--txs only applies to built-in scenarios; edit the spec instead".into(),
                );
            }
            let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            ScenarioSpec::from_json(&json).map_err(|e| e.to_string())?
        }
        (None, None) => {
            return Err(
                "optimize needs a scenario (synthetic|scm|drm|ehr|dv|lap) or --spec".into(),
            );
        }
    };
    // Built-in or not, a bad spec fails here, before any log is read or
    // anything simulates: a `--log` dry run never builds the spec.
    spec.validate().map_err(|e| e.to_string())?;
    if plan_config.seeds > 1 && matches!(spec.workload, workload::WorkloadSpec::Schedule(_)) {
        // A frozen schedule replays identically; only the network seed
        // varies across derived seeds, which under deterministic
        // endorsement policies changes nothing. Zero-width intervals would
        // otherwise masquerade as statistical confidence.
        eprintln!(
            "note: the spec carries a frozen schedule, so --seeds varies only the \
             network seed; confidence intervals will not reflect workload variance \
             (use a generator-backed spec for that)"
        );
    }

    // The analyzer lints rule ids itself (AnalyzeError::UnknownRule);
    // configure it first so a typo fails before any simulation runs.
    let mut analyzer = analyzer(args.switch("auto-tune"));
    for rule in args.values_of("disable") {
        analyzer = analyzer.disable_rule(rule).map_err(|e| e.to_string())?;
    }

    // 1. Derive the recommendations: from the user's exported log when
    //    --log is given (the bring-your-own-log loop), otherwise from a
    //    baseline simulation of the spec. Only the text dry run prints the
    //    analysis, so only it re-analyzes the ledger `from_spec` analyzed.
    let prints_analysis = args.switch("dry-run") && !args.switch("json");
    let (plan, analysis, reused_baseline) = match args.value("log") {
        Some(path) => {
            let analysis = analyze_log(load(path)?, args.switch("auto-tune"))?;
            eprintln!(
                "analyzed {path}: {} transactions in {} blocks",
                analysis.log.len(),
                analysis.log.block_count()
            );
            (
                OptimizationPlan::from_analysis(&analysis),
                Some(analysis),
                None,
            )
        }
        None => {
            let (plan, output) =
                OptimizationPlan::from_spec(&spec, &analyzer).map_err(|e| e.to_string())?;
            eprintln!("simulated {}: {}", spec.name, output.report.figure_row());
            let analysis = prints_analysis
                .then(|| analyzer.analyze_ledger(&output.ledger))
                .transpose()
                .map_err(|e| e.to_string())?;
            (plan, analysis, Some(output.report))
        }
    };

    // 2. Dry run: print the plan (and the optimized spec) without
    //    re-running anything.
    if args.switch("dry-run") {
        let (optimized, _manual) = plan.apply_to_spec(&spec);
        if let Some(path) = args.value("emit-spec") {
            std::fs::write(path, optimized.to_json())
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("optimized spec written to {path}");
        }
        if args.switch("json") {
            println!(
                "{}",
                serde_json::to_string_pretty(&plan).map_err(|e| e.to_string())?
            );
        } else {
            if let Some(analysis) = &analysis {
                print!("{}", blockoptr::report::render(analysis));
            }
            print!("{}", blockoptr::report::render_plan(&plan, Some(&spec)));
        }
        return Ok(());
    }

    // 3. Close the loop: apply each action, re-run (once per seed, each
    //    seed regenerating the workload from the re-seeded spec), measure
    //    the deltas.
    let outcome = match reused_baseline {
        Some(report) => plan.execute_spec_from_with(&spec, report, &plan_config),
        None => plan.execute_spec_with(&spec, &plan_config),
    }
    .map_err(|e| e.to_string())?;
    if let Some(path) = args.value("emit-spec") {
        std::fs::write(path, outcome.optimized_spec.to_json())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("optimized spec written to {path}");
    }
    if args.switch("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&outcome).map_err(|e| e.to_string())?
        );
    } else {
        print!("{}", blockoptr::report::render_outcome(&outcome));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "demo" => cmd_demo(rest),
        "analyze" => cmd_analyze(rest),
        "watch" => cmd_watch(rest),
        "compare" => cmd_compare(rest),
        "spec" => cmd_spec(rest),
        "optimize" => cmd_optimize(rest),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

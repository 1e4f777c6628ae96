//! A/B comparison for the end-to-end benchmark: runs a parent and a change
//! `perfbench` binary in alternating pairs and summarizes every end-to-end
//! metric `BENCHMARK.json` declares by the rule a performance claim must
//! meet.
//!
//! ```text
//! cargo run --release -p bench --bin ab -- \
//!     --parent PARENT/perfbench --change CHANGE/perfbench \
//!     --workload analyze-drm --seed 42 --seconds 45 --pairs 10 --out ab.json
//! ```
//!
//! Every run gets the arguments `BENCHMARK.json`'s command passes
//! (`--workload`, `--seed`, `--seconds`; `--seconds` defaults to its
//! `run_seconds`). Pair `i` runs the parent first when `i` is even and the
//! change first when it is odd. A run's result is the last line of its
//! standard output; its standard error passes through.
//!
//! The output file holds the host (`nproc` and `cpu_model` from
//! perfbench's header), the arguments, every run's correctness, and per
//! end-to-end metric:
//! * each side's values in pair order, median and quartiles, by
//!   perfbench's nearest-rank rule;
//! * the pairs the change wins, a tie counting for neither side;
//! * whether the medians differ by more than the parent's interquartile
//!   range;
//! * whether the change's median is worse than the parent's by more than
//!   the metric's bound, a fraction of the parent's median.
//!
//! Exits 1 when a run is not `"correct": true` with 0 failed operations
//! (after writing the file) or cannot be run or read, 2 on bad arguments.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: ab --parent PERFBENCH --change PERFBENCH --workload NAME \
                     [--seed N] [--seconds S] [--pairs N] --out FILE.json";

/// The parts of `BENCHMARK.json` this comparison reads.
#[derive(Deserialize)]
struct Benchmark {
    run_seconds: f64,
    end_to_end: Vec<EndToEnd>,
}

#[derive(Deserialize)]
struct EndToEnd {
    name: String,
    better: String,
    bound: f64,
}

/// perfbench's header line.
#[derive(Deserialize)]
struct HeaderLine {
    header: Host,
}

#[derive(Deserialize, Serialize)]
struct Host {
    nproc: u64,
    cpu_model: String,
}

/// perfbench's result line, its last line of output.
#[derive(Deserialize)]
struct Outcome {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, Measured>,
}

#[derive(Deserialize)]
struct Measured {
    value: f64,
}

#[derive(Serialize)]
struct Args {
    parent: String,
    change: String,
    workload: String,
    seed: u64,
    seconds: f64,
    pairs: usize,
}

#[derive(Serialize)]
struct Run {
    pair: usize,
    side: String,
    first: bool,
    correct: bool,
    failed: u64,
}

#[derive(Serialize)]
struct Side {
    median: f64,
    q1: f64,
    q3: f64,
    values: Vec<f64>,
}

impl Side {
    fn of(values: Vec<f64>) -> Side {
        Side {
            median: percentile(&values, 0.5),
            q1: percentile(&values, 0.25),
            q3: percentile(&values, 0.75),
            values,
        }
    }
}

#[derive(Serialize)]
struct Summary {
    name: String,
    better: String,
    bound: f64,
    parent: Side,
    change: Side,
    change_wins: usize,
    gap_exceeds_parent_iqr: bool,
    worse_than_bound: bool,
}

#[derive(Serialize)]
struct Report {
    host: Host,
    args: Args,
    correct: bool,
    metrics: Vec<Summary>,
    runs: Vec<Run>,
}

/// perfbench's nearest-rank percentile; 0 without values.
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// One metric over the pairs: `parent[i]` and `change[i]` are pair `i`'s.
fn summarize(metric: &EndToEnd, parent: Vec<f64>, change: Vec<f64>) -> Summary {
    let higher = metric.better == "higher";
    let change_wins = parent
        .iter()
        .zip(&change)
        .filter(|&(p, c)| if higher { c > p } else { c < p })
        .count();
    let (parent, change) = (Side::of(parent), Side::of(change));
    let worse_by = if higher {
        parent.median - change.median
    } else {
        change.median - parent.median
    };
    Summary {
        name: metric.name.clone(),
        better: metric.better.clone(),
        bound: metric.bound,
        gap_exceeds_parent_iqr: (change.median - parent.median).abs() > parent.q3 - parent.q1,
        worse_than_bound: worse_by > metric.bound * parent.median.abs(),
        change_wins,
        parent,
        change,
    }
}

fn parse_args(bench: &Benchmark) -> Result<(Args, String), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut parent, mut change, mut workload, mut out) = (None, None, None, None);
    let (mut seed, mut seconds, mut pairs) = (42, bench.run_seconds, 10);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--parent" => parent = Some(value.clone()),
            "--change" => change = Some(value.clone()),
            "--workload" => workload = Some(value.clone()),
            "--out" => out = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--pairs" => pairs = value.parse().map_err(|e| format!("--pairs: {e}"))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if pairs == 0 {
        return Err("--pairs must be at least 1".into());
    }
    let args = Args {
        parent: parent.ok_or("--parent is required")?,
        change: change.ok_or("--change is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        pairs,
    };
    Ok((args, out.ok_or("--out is required")?))
}

/// Run one perfbench binary; returns its host header and result line.
fn run(binary: &str, args: &Args) -> Result<(Host, Outcome), String> {
    let out = Command::new(binary)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{binary}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{binary} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let header = stdout
        .lines()
        .find(|line| line.starts_with("{\"header\""))
        .ok_or(format!("{binary} printed no header"))?;
    let header: HeaderLine =
        serde_json::from_str(header).map_err(|e| format!("{binary} header: {e}"))?;
    let last = stdout.lines().last().unwrap_or_default();
    let outcome = serde_json::from_str(last).map_err(|e| format!("{binary} result: {e}"))?;
    Ok((header.header, outcome))
}

/// Run the pairs and summarize them.
fn drive(args: Args, bench: &Benchmark) -> Result<Report, String> {
    let mut host = None;
    let mut runs = Vec::new();
    // Per side (parent, change) and end-to-end metric, one value per pair.
    let per_metric = vec![Vec::new(); bench.end_to_end.len()];
    let mut values = [per_metric.clone(), per_metric];
    for pair in 0..args.pairs {
        let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
        for (nth, side) in order.into_iter().enumerate() {
            let (name, binary) = [("parent", &args.parent), ("change", &args.change)][side];
            eprintln!("pair {}/{}: {name}", pair + 1, args.pairs);
            let (header, outcome) = run(binary, &args)?;
            host.get_or_insert(header);
            for (series, metric) in values[side].iter_mut().zip(&bench.end_to_end) {
                let measured = outcome
                    .metrics
                    .get(&metric.name)
                    .ok_or(format!("{binary} did not report {}", metric.name))?;
                series.push(measured.value);
            }
            runs.push(Run {
                pair,
                side: name.to_string(),
                first: nth == 0,
                correct: outcome.correct && outcome.failed == 0,
                failed: outcome.failed,
            });
        }
    }
    let [parent, change] = values;
    let metrics = bench
        .end_to_end
        .iter()
        .zip(parent.into_iter().zip(change))
        .map(|(metric, (parent, change))| summarize(metric, parent, change))
        .collect();
    Ok(Report {
        host: host.expect("at least one pair ran"),
        correct: runs.iter().all(|r| r.correct),
        args,
        metrics,
        runs,
    })
}

fn main() -> ExitCode {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let bench: Benchmark = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()))
    {
        Ok(bench) => bench,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (args, out) = match parse_args(&bench) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match drive(args, &bench) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let json = serde_json::to_string_pretty(&report).expect("the report renders");
    if let Err(e) = std::fs::write(&out, json + "\n") {
        eprintln!("error: {out}: {e}");
        return ExitCode::FAILURE;
    }
    for m in &report.metrics {
        println!(
            "{:<20} parent {:.4} [{:.4}, {:.4}]  change {:.4} [{:.4}, {:.4}]  \
             wins {}/{}  gap > parent IQR: {}  worse than bound: {}",
            m.name,
            m.parent.median,
            m.parent.q1,
            m.parent.q3,
            m.change.median,
            m.change.q1,
            m.change.q3,
            m.change_wins,
            report.args.pairs,
            m.gap_exceeds_parent_iqr,
            m.worse_than_bound
        );
    }
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: a run was not \"correct\": true with 0 failed operations");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: &str, bound: f64) -> EndToEnd {
        EndToEnd {
            name: "m".into(),
            better: better.into(),
            bound,
        }
    }

    #[test]
    fn quartiles_follow_the_nearest_rank_rule() {
        let side = Side::of(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((side.q1, side.median, side.q3), (2.0, 3.0, 4.0));
        let side = Side::of(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!((side.q1, side.median, side.q3), (1.0, 2.0, 3.0));
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn wins_gap_and_bound_follow_the_better_direction() {
        let parent = vec![10.0, 11.0, 12.0, 13.0];
        let faster = vec![20.0, 11.0, 25.0, 26.0];
        let s = summarize(&metric("higher", 0.25), parent.clone(), faster.clone());
        assert_eq!(s.change_wins, 3, "the tie counts for neither side");
        assert!(s.gap_exceeds_parent_iqr && !s.worse_than_bound);
        let s = summarize(&metric("lower", 0.25), parent, faster);
        assert_eq!(s.change_wins, 0);
        assert!(s.gap_exceeds_parent_iqr && s.worse_than_bound);
        let s = summarize(
            &metric("lower", 0.25),
            vec![1.0, 2.0, 3.0],
            vec![2.0, 2.5, 3.0],
        );
        assert!(!s.gap_exceeds_parent_iqr && !s.worse_than_bound);
    }
}

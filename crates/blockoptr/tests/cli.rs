//! End-to-end tests of the `blockoptr` binary: flag validation (notably the
//! `--window 0` guard) and the `watch --live` committed-block pipeline.

use std::process::{Command, Output};

fn blockoptr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_blockoptr"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Regression: a zero-block window must be rejected up front with a clear
/// error (exit 1), not chunk the replay into zero-size windows.
#[test]
fn watch_window_zero_is_rejected() {
    for args in [
        vec!["watch", "whatever.json", "--window", "0"],
        vec!["watch", "--live", "--window", "0"],
        vec!["watch", "whatever.json", "--window", "-3"],
        vec!["watch", "whatever.json", "--window", "many"],
    ] {
        let out = blockoptr(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(
            stderr(&out).contains("--window must be a positive integer"),
            "{args:?} → {}",
            stderr(&out)
        );
    }
}

#[test]
fn watch_rejects_malformed_policies_and_misplaced_flags() {
    let out = blockoptr(&["watch", "--live", "--policy", "bogus:x"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("unknown window policy"),
        "{}",
        stderr(&out)
    );

    let out = blockoptr(&["watch", "--live", "--policy", "last-blocks:0"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("positive block count"),
        "{}",
        stderr(&out)
    );

    // --blocks / --txs only make sense for a live run.
    let out = blockoptr(&["watch", "whatever.json", "--blocks", "5"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("--blocks only applies to watch --live"));
}

/// The live pipeline end to end: simulate, stream committed blocks over the
/// channel, ingest through a sliding-window session, print rolling lines.
#[test]
fn watch_live_streams_rolling_snapshots() {
    let out = blockoptr(&[
        "watch",
        "--live",
        "synthetic",
        "--txs",
        "400",
        "--blocks",
        "3",
        "--window",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "--blocks caps consumption: {lines:?}");
    assert!(lines[0].starts_with("block 1:"), "{}", lines[0]);
    assert!(lines
        .iter()
        .all(|l| l.contains("Tr ") && l.contains("recs:")));
    let err = stderr(&out);
    assert!(err.contains("window policy last-blocks:2"), "{err}");
    assert!(err.contains("watched 3 live blocks"), "{err}");
}

/// Live mode with an explicit policy and JSON output: every line is an
/// object and the window stays bounded (the session evicts).
#[test]
fn watch_live_json_with_duration_policy() {
    let out = blockoptr(&[
        "watch",
        "--live",
        "synthetic",
        "--txs",
        "600",
        "--policy",
        "last-blocks:1",
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    for line in stdout(&out).lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"new_transactions\""), "{line}");
    }
    let err = stderr(&out);
    // With a one-block window, everything but the last block was evicted.
    assert!(err.contains("in 1 blocks"), "{err}");
    assert!(err.contains("evicted"), "{err}");
    assert!(err.contains("simulation finished"), "{err}");
}

/// FNV-1a 64-bit, the goldens' hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// The machine-readable analysis surfaces keep their bytes: the pretty
/// `analyze --json` object and the compact per-window `watch --json`
/// lines, whose tuple-keyed metric maps render as `[key, value]` pairs.
#[test]
fn analyze_and_watch_json_keep_their_bytes() {
    let log = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/demo_blocks.json"
    );
    let hashes: Vec<String> = [
        &["analyze", log, "--json"][..],
        &["watch", log, "--json", "--window", "5"],
    ]
    .iter()
    .map(|args| {
        let out = Command::new(env!("CARGO_BIN_EXE_blockoptr"))
            .args(*args)
            .env_remove("BLOCKOPTR_WINDOW")
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        format!("{:016x}", fnv1a(&out.stdout))
    })
    .collect();
    assert_eq!(hashes, ["51ad7cbb5af4b77a", "d638adaa49dab9df"]);
}

/// `blockoptr spec` dumps a valid, replayable ScenarioSpec; scaling and
/// seeding flags land in the JSON.
#[test]
fn spec_subcommand_dumps_valid_json() {
    let out = blockoptr(&["spec", "scm", "--txs", "900", "--seed", "7"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let spec = workload::ScenarioSpec::from_json(&stdout(&out)).expect("valid spec JSON");
    assert_eq!(spec.name, "scm");
    assert_eq!(spec.seed(), 7);
    spec.validate().unwrap();
    let err = stderr(&out);
    assert!(err.contains("contracts [scm]"), "{err}");
    assert!(err.contains("variant table [pruned]"), "{err}");

    let out = blockoptr(&["spec", "nope"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("unknown scenario"),
        "{}",
        stderr(&out)
    );
}

/// `spec --freeze` inlines the generated schedule: the frozen spec is a
/// Schedule workload naming its contracts by registry id.
#[test]
fn spec_freeze_inlines_the_schedule() {
    let dir = std::env::temp_dir().join("blockoptr_cli_freeze");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("frozen.json");
    let out = blockoptr(&[
        "spec",
        "dv",
        "--txs",
        "300",
        "--freeze",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let json = std::fs::read_to_string(&path).unwrap();
    let spec = workload::ScenarioSpec::from_json(&json).unwrap();
    match &spec.workload {
        workload::WorkloadSpec::Schedule(s) => {
            assert_eq!(s.contracts, vec!["dv".to_string()]);
            assert!(!s.requests.is_empty());
        }
        other => panic!("expected a frozen schedule, got {other:?}"),
    }
    spec.build().expect("frozen specs replay");
}

/// A frozen schedule whose last request is sent 10¹⁸ µs (~31 700 years)
/// after the others: the analysis of its baseline run must reject the
/// timestamp span (exit 1), not size the rate series by it and abort.
#[test]
fn optimize_rejects_a_far_future_client_timestamp() {
    let path = frozen_spec("far_future", |spec| {
        let workload::WorkloadSpec::Schedule(schedule) = &mut spec.workload else {
            panic!("expected a frozen schedule");
        };
        schedule.requests.last_mut().unwrap().send_time =
            sim_core::time::SimTime(1_000_000_000_000_000_000);
    });
    let out = blockoptr(&["optimize", "--spec", &path, "--dry-run"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("client timestamps span")
            && stderr(&out).contains("more than 4194304 metric intervals"),
        "{}",
        stderr(&out)
    );
}

/// Logs whose integer writes sit at the ends of `i64`: a failed `play`
/// writes one value to a key and the next, successful `play` another.
/// `i64::MIN` then `i64::MAX` differ by more than an `i64` holds, and 0
/// then `i64::MIN` by a delta whose absolute value does not fit; neither
/// is a ±1 delta write. `analyze --json` exits 0 and counts no delta
/// candidate (the test profile used to panic on the subtraction or the
/// `abs`, the release profile to count a wrapped delta of 1).
#[test]
fn analyze_survives_extreme_written_integers() {
    use blockoptr::log::{BlockchainLog, TxRecord};
    use fabric_sim::ledger::TxStatus;
    use fabric_sim::rwset::ReadWriteSet;
    use fabric_sim::types::{ClientId, PeerId, TxType, Value};
    use sim_core::time::SimTime;

    let play = |i: usize, status: TxStatus, value: i64| {
        let mut rwset = ReadWriteSet::new();
        rwset.record_write("drm/M0000".into(), Some(Value::Int(value)));
        TxRecord {
            commit_index: i,
            block: 1,
            client_ts: SimTime::from_millis(i as u64),
            commit_ts: SimTime::from_millis(1_000),
            contract: "drm".into(),
            activity: "play".into(),
            args: vec![Value::Str("M0000".into())].into(),
            endorsers: vec![PeerId::default()],
            invoker: ClientId::default(),
            rwset: rwset.into(),
            status,
            tx_type: TxType::Write,
        }
    };
    let dir = std::env::temp_dir().join("blockoptr_cli_extreme_ints");
    std::fs::create_dir_all(&dir).unwrap();
    for (first, second) in [(i64::MIN, i64::MAX), (0, i64::MIN)] {
        let log = BlockchainLog::from_records(
            vec![
                play(0, TxStatus::MvccReadConflict, first),
                play(1, TxStatus::Success, second),
            ],
            1,
        );
        let path = dir.join(format!("{first}_{second}.json"));
        std::fs::write(&path, blockoptr::export::to_json(&log)).unwrap();

        let out = blockoptr(&["analyze", path.to_str().unwrap(), "--json"]);
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        let analysis = serde_json::value_from_str(&stdout(&out)).expect("analysis JSON");
        let deltas = ["metrics", "correlation", "delta_candidates"]
            .iter()
            .try_fold(&analysis, |v, name| v.field(name))
            .expect("delta_candidates present");
        assert_eq!(
            deltas,
            &serde_json::Value::Object(Vec::new()),
            "{first} -> {second}"
        );
    }
}

/// A frozen 20-transaction scm spec, edited by `edit`, written to a file
/// of `name` under the temp dir; returns its path.
fn frozen_spec(name: &str, edit: impl FnOnce(&mut workload::ScenarioSpec)) -> String {
    frozen_builtin("scm", "20", name, edit)
}

/// [`frozen_spec`] of `txs` transactions of the builtin `builtin`.
fn frozen_builtin(
    builtin: &str,
    txs: &str,
    name: &str,
    edit: impl FnOnce(&mut workload::ScenarioSpec),
) -> String {
    let dir = std::env::temp_dir().join(format!("blockoptr_cli_{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("frozen.json");
    let path = path.to_str().unwrap();
    let out = blockoptr(&["spec", builtin, "--txs", txs, "--freeze", "--out", path]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let mut spec =
        workload::ScenarioSpec::from_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    edit(&mut spec);
    std::fs::write(path, spec.to_json()).unwrap();
    path.to_string()
}

/// Three hand edits of a frozen synthetic schedule used to panic the
/// simulator (exit 101). An inverted range scan (`start > end`) observes
/// nothing, both when the contract scans and when validation re-scans
/// (exit 0). An activity the contract does not have is a spec error
/// (exit 1). A request missing its arguments early-aborts with the
/// accessor's message as its reason (exit 0, one transaction fewer).
#[test]
fn frozen_schedule_edits_do_not_panic_the_simulator() {
    let edited = |name: &str, activity: Option<&str>, args: Vec<fabric_sim::types::Value>| {
        frozen_builtin("synthetic", "5", name, |spec| {
            let workload::WorkloadSpec::Schedule(schedule) = &mut spec.workload else {
                panic!("expected a frozen schedule");
            };
            let request = &mut schedule.requests[0];
            if let Some(activity) = activity {
                request.activity = activity.into();
            }
            request.args = args.into();
        })
    };
    let optimize =
        |path: &str| blockoptr(&["optimize", "--spec", path, "--seeds", "1", "--dry-run"]);

    let path = edited(
        "inverted_range",
        Some("range_read"),
        vec!["k09999".into(), "k00001".into()],
    );
    let out = optimize(&path);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("log: 5 transactions"),
        "{}",
        stdout(&out)
    );

    let path = edited("bogus_activity", Some("bogus"), vec!["k00001".into()]);
    let out = optimize(&path);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains(
            "bad spec parameter schedule.requests[0].activity: contract \"genchain\" has no activity \"bogus\""
        ),
        "{}",
        stderr(&out)
    );

    let path = edited("empty_args", None, vec![]);
    let out = optimize(&path);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("log: 4 transactions"),
        "{}",
        stdout(&out)
    );
}

/// Send times near the clock's end made every later event time wrap: the
/// release build panicked in the ledger ("blocks must be contiguous").
/// Spec validation now rejects them (exit 1) before anything simulates.
#[test]
fn optimize_rejects_send_times_near_the_end_of_the_clock() {
    let path = frozen_spec("far_send_times", |spec| {
        let workload::WorkloadSpec::Schedule(schedule) = &mut spec.workload else {
            panic!("expected a frozen schedule");
        };
        for r in &mut schedule.requests {
            r.send_time = sim_core::time::SimTime(18_446_744_073_709_000_000);
        }
    });
    let out = blockoptr(&["optimize", "--spec", &path, "--dry-run"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("bad spec parameter schedule.requests[0].send_time: must be at most"),
        "{}",
        stderr(&out)
    );
}

/// A block timeout of ~1.8·10¹⁹ µs made the release build wrap its clock
/// and report a meaningless run (exit 0, latency 1.8·10¹³ s). Spec
/// validation now rejects it (exit 1).
#[test]
fn optimize_rejects_a_block_timeout_past_the_phase_bound() {
    let path = frozen_spec("far_block_timeout", |spec| {
        spec.network.block_timeout = sim_core::time::SimDuration(18_446_744_073_709_000_000);
    });
    let out = blockoptr(&["optimize", "--spec", &path, "--dry-run"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("bad spec parameter network.block_timeout: must be at most"),
        "{}",
        stderr(&out)
    );
}

/// A zero byte budget per block panicked the simulator's block cutter
/// (exit 101). Spec validation now rejects it (exit 1).
#[test]
fn optimize_rejects_a_zero_block_byte_budget() {
    let dir = std::env::temp_dir().join("blockoptr_cli_zero_block_bytes");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("demo_spec.json");
    let mut spec =
        workload::ScenarioSpec::from_json(include_str!("../../../examples/demo_spec.json"))
            .unwrap();
    spec.network.block_bytes = 0;
    std::fs::write(&path, spec.to_json()).unwrap();
    let out = blockoptr(&["optimize", "--spec", path.to_str().unwrap(), "--dry-run"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("bad spec parameter network.block_bytes: must be at least 1"),
        "{}",
        stderr(&out)
    );
}

/// A run whose blocks all commit at its first send instant has a
/// zero-length measurement window, which used to be floored at 1 ns and
/// printed as 5·10⁹ tx/s. A zero window has no rate: it reads 0.
#[test]
fn optimize_reports_no_rate_for_a_zero_window() {
    let path = frozen_builtin("synthetic", "5", "zero_window", |spec| {
        let workload::WorkloadSpec::Schedule(schedule) = &mut spec.workload else {
            panic!("expected a frozen schedule");
        };
        let first = schedule.requests[0].send_time;
        for r in &mut schedule.requests {
            r.send_time = first;
        }
        let zero = sim_core::time::SimDuration::ZERO;
        spec.network.resources = fabric_sim::config::ResourceProfile {
            client_per_tx: zero,
            net_delay: zero,
            endorse_exec_base: zero,
            endorse_exec_per_access: zero,
            order_block_fixed: zero,
            order_per_tx: zero,
            raft_delay: zero,
            validate_block_fixed: zero,
            validate_per_tx: zero,
            validate_per_item: zero,
            validate_per_endorsement: zero,
        };
        spec.network.block_count = 5;
    });
    let out = blockoptr(&["optimize", "--spec", &path]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("tput=    0.0 tps"),
        "{}",
        stderr(&out)
    );
    assert!(
        stdout(&out).contains("baseline: success 100.0 %, 0.0 tx/s"),
        "{}",
        stdout(&out)
    );
}

/// A drained retry budget at ×2 grows the backoff as 0.05 · 2ᵏ s, past the
/// clock's range by the 50th attempt: the debug build panicked adding it to
/// the current time, and the release build wrapped it into a log spanning
/// 1.4·10¹³ s. Each backoff is now capped at `MAX_PHASE`, so the run
/// finishes within 64 capped attempts. scm's 2-of-2 policy needs both
/// proposals through, so a 0.9 drop rate leaves 1 % per attempt: about half
/// of the 20 transactions commit within 64 attempts. At 0.99 (10⁻⁴ per
/// attempt) none commits, and the empty log is a typed error.
#[test]
fn optimize_survives_retry_backoffs_past_the_phase_bound() {
    let spec_at = |name: &str, proposal_rate: f64| {
        frozen_spec(name, |spec| {
            spec.fault.drop = Some(fabric_sim::fault::DropSpec {
                proposal_rate,
                endorsement_rate: 0.0,
            });
            spec.retry = fabric_sim::fault::RetryPolicy {
                endorse_timeout: Some(0.4),
                max_attempts: 64,
                backoff_base: 0.05,
                backoff_multiplier: 2.0,
                jitter: 0.0,
            };
        })
    };
    let path = spec_at("far_backoff_all_dropped", 0.99);
    let out = blockoptr(&["optimize", "--spec", &path, "--dry-run"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("the blockchain log is empty"),
        "{}",
        stderr(&out)
    );

    let path = spec_at("far_backoff", 0.9);
    let out = blockoptr(&["optimize", "--spec", &path, "--dry-run"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    // "log: N transactions in B blocks over S s (…)"
    let text = stdout(&out);
    let words: Vec<&str> = text
        .lines()
        .find_map(|line| line.strip_prefix("log: "))
        .unwrap_or_else(|| panic!("no log line: {text}"))
        .split(' ')
        .collect();
    let committed: usize = words[0].parse().unwrap();
    let span_secs: f64 = words[6].parse().unwrap();
    assert!((5..=15).contains(&committed), "{text}");
    // 64 attempts of at most a 0.4 s timeout plus a one-hour backoff each,
    // after a send schedule well under a second.
    assert!(span_secs < 64.0 * 3_601.0, "{text}");
    // The budget is drained, but it is already at the cap: doubling it
    // would re-measure the baseline, so the plan does not carry it.
    assert!(!text.contains("attempts 64"), "{text}");
}

/// A throttle of 10⁻¹² tx/s would space a 50-transaction schedule past the
/// clock's range: spec validation rejects it with the dotted field path
/// (exit 1) before anything simulates.
#[test]
fn optimize_rejects_a_throttle_below_the_minimum_rate() {
    let dir = std::env::temp_dir().join("blockoptr_cli_slow_throttle");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("throttled.json");
    let mut spec = workload::ScenarioSpec::builtin("scm")
        .unwrap()
        .with_transactions(50);
    spec.transforms
        .push(workload::SpecTransform::Throttle { rate: 1e-12 });
    std::fs::write(&path, spec.to_json()).unwrap();
    let out = blockoptr(&["optimize", "--spec", path.to_str().unwrap(), "--dry-run"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("bad spec parameter transforms[0].rate: rate must be at least"),
        "{}",
        stderr(&out)
    );
}

/// The bring-your-own-log loop: export a log, dump a spec, run
/// `optimize --log --spec` — recommendations from the log, re-measurement
/// from the replayable spec, optimized spec emitted.
#[test]
fn optimize_with_user_log_and_spec_closes_the_loop() {
    let dir = std::env::temp_dir().join("blockoptr_cli_byolog");
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("blocks.json");
    let spec = dir.join("spec.json");
    let tuned = dir.join("tuned.json");

    let out = blockoptr(&["demo", "scm", "--out", log.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let out = blockoptr(&["spec", "scm", "--out", spec.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    // Dry run first: plan printed, nothing re-run, optimized spec emitted.
    let out = blockoptr(&[
        "optimize",
        "--log",
        log.to_str().unwrap(),
        "--spec",
        spec.to_str().unwrap(),
        "--seeds",
        "2",
        "--dry-run",
        "--emit-spec",
        tuned.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stderr(&out).contains("analyzed"), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("optimization plan"),
        "{}",
        stdout(&out)
    );
    let tuned_spec =
        workload::ScenarioSpec::from_json(&std::fs::read_to_string(&tuned).unwrap()).unwrap();
    assert!(
        !tuned_spec.transforms.is_empty() || !tuned_spec.variants.is_empty(),
        "the SCM log lowers to at least one declarative change"
    );
    tuned_spec.build().expect("emitted specs build");
}

/// optimize flag validation: scenario and --spec are mutually exclusive,
/// malformed spec files are typed errors, and --txs cannot patch a file.
#[test]
fn optimize_spec_flag_validation() {
    let out = blockoptr(&["optimize", "scm", "--spec", "x.json"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("not both"), "{}", stderr(&out));

    let dir = std::env::temp_dir().join("blockoptr_cli_badspec");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{ not json").unwrap();
    let out = blockoptr(&["optimize", "--spec", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("malformed scenario JSON"),
        "{}",
        stderr(&out)
    );

    // A parseable spec with an out-of-domain rate fails validation.
    let mut spec = workload::ScenarioSpec::builtin("drm").unwrap();
    if let workload::WorkloadSpec::Drm(s) = &mut spec.workload {
        s.send_rate = -1.0;
    }
    std::fs::write(&bad, spec.to_json()).unwrap();
    let out = blockoptr(&["optimize", "--spec", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("bad spec parameter drm.send_rate"),
        "{}",
        stderr(&out)
    );

    // A built-in scaled past its bounds fails the same validation, even
    // on a dry run whose plan comes from a log.
    let log = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/demo_blocks.json"
    );
    let out = blockoptr(&[
        "optimize",
        "scm",
        "--txs",
        "2000000",
        "--log",
        log,
        "--dry-run",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("bad spec parameter scm.transactions"),
        "{}",
        stderr(&out)
    );
}

/// Malformed fault windows, and a retry budget or a window list past its
/// cap, fail spec validation with the dotted field path (exit 1), before
/// any simulation runs.
#[test]
fn optimize_rejects_malformed_fault_windows() {
    use workload::{OutageWindow, StallWindow};

    let dir = std::env::temp_dir().join("blockoptr_cli_badfault");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("faulty.json");
    let base = workload::ScenarioSpec::builtin("scm").unwrap();

    // Negative outage duration.
    let mut spec = base.clone();
    spec.fault.endorser_outages.push(OutageWindow {
        org: 0,
        peer: None,
        start: 1.0,
        duration: -2.0,
    });
    std::fs::write(&path, spec.to_json()).unwrap();
    let out = blockoptr(&["optimize", "--spec", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("bad spec parameter fault.endorser_outages[0].duration"),
        "{}",
        stderr(&out)
    );

    // Unknown peer index (the default network runs 5 endorsers per org).
    let mut spec = base.clone();
    spec.fault.endorser_outages.push(OutageWindow {
        org: 0,
        peer: Some(17),
        start: 1.0,
        duration: 2.0,
    });
    std::fs::write(&path, spec.to_json()).unwrap();
    let out = blockoptr(&["optimize", "--spec", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("bad spec parameter fault.endorser_outages[0].peer"),
        "{}",
        stderr(&out)
    );

    // Overlapping orderer stalls (no defined release order).
    let mut spec = base.clone();
    spec.fault.orderer_stalls.push(StallWindow {
        start: 1.0,
        duration: 2.0,
    });
    spec.fault.orderer_stalls.push(StallWindow {
        start: 2.5,
        duration: 1.0,
    });
    std::fs::write(&path, spec.to_json()).unwrap();
    let out = blockoptr(&["optimize", "--spec", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("bad spec parameter fault.orderer_stalls[1]"),
        "{}",
        stderr(&out)
    );

    // A million attempts under a permanent outage, and one stall window
    // past the cap.
    let mut spec = base.clone();
    spec.fault.endorser_outages.push(OutageWindow {
        org: 0,
        peer: None,
        start: 0.0,
        duration: 1e9,
    });
    spec.retry.endorse_timeout = Some(0.1);
    spec.retry.max_attempts = 1_000_000;
    std::fs::write(&path, spec.to_json()).unwrap();
    let out = blockoptr(&["optimize", "--spec", path.to_str().unwrap(), "--dry-run"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("bad spec parameter retry.max_attempts: must be at most"),
        "{}",
        stderr(&out)
    );
    let mut spec = base.clone();
    spec.fault.orderer_stalls = (0..=workload::scenario::MAX_FAULT_WINDOWS)
        .map(|i| StallWindow {
            start: i as f64,
            duration: 0.5,
        })
        .collect();
    std::fs::write(&path, spec.to_json()).unwrap();
    let out = blockoptr(&["optimize", "--spec", path.to_str().unwrap(), "--dry-run"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("bad spec parameter fault.orderer_stalls: must be at most"),
        "{}",
        stderr(&out)
    );
}

/// The committed endorser-outage example closes the loop end to end: the
/// resilience rules fire on the degraded baseline and the rendered outcome
/// carries the degradation section.
#[test]
fn optimize_example_outage_spec_fires_resilience_rules() {
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/endorser_outage.json"
    );
    let out = blockoptr(&["optimize", "--spec", spec, "--seeds", "2", "--dry-run"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("Retry budget tuning"), "{text}");
    assert!(text.contains("Endorsement policy relaxation"), "{text}");
}

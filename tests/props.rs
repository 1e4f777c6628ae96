//! Cross-crate property tests (proptest): invariants that must hold for any
//! workload the generators can produce.

use blockoptr_suite::prelude::*;
use proptest::prelude::*;
use workload::spec::{ControlVariables, PolicyChoice, WorkloadType};

fn arb_cv() -> impl Strategy<Value = ControlVariables> {
    (
        prop_oneof![
            Just(WorkloadType::Uniform),
            Just(WorkloadType::ReadHeavy),
            Just(WorkloadType::InsertHeavy),
            Just(WorkloadType::UpdateHeavy),
            Just(WorkloadType::RangeReadHeavy),
        ],
        prop_oneof![
            Just(PolicyChoice::P1),
            Just(PolicyChoice::P2),
            Just(PolicyChoice::P3),
            Just(PolicyChoice::P4),
        ],
        prop_oneof![Just(0.0), Just(6.0)],
        1.0..2.0f64,
        prop_oneof![Just(2usize), Just(4usize)],
        prop_oneof![Just(30usize), Just(100usize), Just(400usize)],
        30.0..400.0f64,
        prop_oneof![Just(0.0), Just(0.7)],
        200..600usize,
        0..u64::MAX,
    )
        .prop_map(
            |(
                workload,
                policy,
                endorser_skew,
                key_skew,
                orgs,
                block_count,
                send_rate,
                tx_dist_skew,
                transactions,
                seed,
            )| {
                ControlVariables {
                    workload,
                    policy,
                    endorser_skew,
                    key_skew,
                    orgs,
                    block_count,
                    send_rate,
                    tx_dist_skew,
                    transactions,
                    seed,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: every request either commits or early-aborts; block
    /// sizes respect the configured count; status counts add up.
    #[test]
    fn simulation_conserves_transactions(cv in arb_cv()) {
        let bundle = workload::synthetic::generate(&cv);
        let cfg = cv.network_config();
        let output = bundle.run(cfg.clone());
        let r = &output.report;
        prop_assert_eq!(r.requests, cv.transactions);
        prop_assert_eq!(r.committed + r.early_aborted, r.requests);
        prop_assert_eq!(r.successes + r.failures(), r.committed);
        prop_assert_eq!(
            r.mvcc_conflicts,
            r.intra_block_conflicts + r.inter_block_conflicts
        );
        prop_assert_eq!(output.ledger.tx_count(), r.committed);
        for block in output.ledger.blocks() {
            prop_assert!(block.len() <= cfg.block_count);
            prop_assert!(!block.is_empty());
        }
    }

    /// Every committed transaction's timestamps are causally ordered, and
    /// blocks commit in increasing time and height.
    #[test]
    fn timestamps_and_heights_are_monotone(cv in arb_cv()) {
        let bundle = workload::synthetic::generate(&cv);
        let output = bundle.run(cv.network_config());
        for tx in output.ledger.transactions() {
            prop_assert!(tx.client_ts <= tx.submit_ts);
            prop_assert!(tx.submit_ts <= tx.commit_ts);
        }
        let blocks = output.ledger.blocks();
        for pair in blocks.windows(2) {
            prop_assert_eq!(pair[1].number, pair[0].number + 1);
            prop_assert!(pair[1].commit_ts >= pair[0].commit_ts);
        }
    }

    /// The blockchain log round-trips through JSON losslessly.
    #[test]
    fn log_json_round_trip(cv in arb_cv()) {
        let bundle = workload::synthetic::generate(&cv);
        let output = bundle.run(cv.network_config());
        let log = blockoptr::log::BlockchainLog::from_ledger(&output.ledger);
        let json = blockoptr::export::to_json(&log);
        let back = blockoptr::export::from_json(&json).unwrap();
        prop_assert_eq!(back.len(), log.len());
        for (a, b) in log.records().iter().zip(back.records()) {
            prop_assert_eq!(&a.activity, &b.activity);
            prop_assert_eq!(a.status, b.status);
            prop_assert_eq!(&a.rwset, &b.rwset);
            prop_assert_eq!(a.commit_index, b.commit_index);
        }
    }

    /// Metric identities: interval counts sum to totals; failure intervals
    /// never exceed transaction intervals; shares are well-formed.
    #[test]
    fn metric_identities(cv in arb_cv()) {
        let bundle = workload::synthetic::generate(&cv);
        let output = bundle.run(cv.network_config());
        let analysis = Analyzer::new().analyze_ledger(&output.ledger).unwrap();
        let m = &analysis.metrics;
        let tx_sum: u64 = m.rates.tx_per_interval.iter().sum();
        let fail_sum: u64 = m.rates.failures_per_interval.iter().sum();
        prop_assert_eq!(tx_sum as usize, m.rates.total);
        prop_assert_eq!(fail_sum as usize, m.rates.failed);
        for (t, f) in m.rates.tx_per_interval.iter().zip(&m.rates.failures_per_interval) {
            prop_assert!(f <= t);
        }
        let share_sum: f64 = m.invokers.org_shares().iter().map(|(_, s)| s).sum();
        prop_assert!((share_sum - 1.0).abs() < 1e-9 || m.invokers.total == 0);
        prop_assert!(m.correlation.reorderable <= m.correlation.identified);
        prop_assert!(m.correlation.identified <= m.correlation.read_conflicts);
    }

    /// Recommendations are internally consistent: partitioning and
    /// single-hotkey data-model alteration never co-fire, and every
    /// recommendation carries evidence.
    #[test]
    fn recommendation_consistency(cv in arb_cv()) {
        let bundle = workload::synthetic::generate(&cv);
        let output = bundle.run(cv.network_config());
        let analysis = Analyzer::new().analyze_ledger(&output.ledger).unwrap();
        let names = analysis.recommendation_names();
        prop_assert!(
            !(names.contains(&"Smart contract partitioning")
                && names.contains(&"Data model alteration"))
        );
        for rec in &analysis.recommendations {
            prop_assert!(!rec.rationale().is_empty());
        }
    }

    /// Rate control preserves the request multiset and hits the target rate.
    #[test]
    fn rate_control_preserves_requests(cv in arb_cv(), rate in 20.0..200.0f64) {
        let bundle = workload::synthetic::generate(&cv);
        let throttled = workload::optimize::rate_control(&bundle.requests, rate);
        prop_assert_eq!(throttled.len(), bundle.requests.len());
        if throttled.len() >= 2 {
            let span = throttled
                .last()
                .unwrap()
                .send_time
                .since(throttled[0].send_time)
                .as_secs_f64();
            let achieved = (throttled.len() - 1) as f64 / span;
            prop_assert!((achieved - rate).abs() / rate < 0.01, "{} vs {}", achieved, rate);
        }
        let mut a: Vec<String> = bundle.requests.iter().map(|r| r.activity.to_string()).collect();
        let mut b: Vec<String> = throttled.iter().map(|r| r.activity.to_string()).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// Successful transactions never carry stale point reads w.r.t. the
    /// replayed world state: rebuild the state from the ledger and check
    /// every committed version matches what validation saw.
    #[test]
    fn successful_reads_were_fresh(cv in arb_cv()) {
        use fabric_sim::state::WorldState;
        use fabric_sim::rwset::Version;
        let bundle = workload::synthetic::generate(&cv);
        let output = bundle.run(cv.network_config());
        let mut state = WorldState::new();
        for (ns, key, value) in &bundle.genesis {
            state.seed(format!("{ns}/{key}").into(), value.clone());
        }
        for block in output.ledger.blocks() {
            for (pos, tx) in block.txs.iter().enumerate() {
                if tx.status.is_success() {
                    for read in &tx.rwset.reads {
                        prop_assert_eq!(
                            state.version_of(&read.key), read.version,
                            "stale read committed: {} in tx{}", read.key, tx.id.0
                        );
                    }
                    state.apply(&tx.rwset.writes, Version::new(block.number, pos as u32));
                }
            }
        }
    }
}

//! Windowed-session equivalence properties.
//!
//! The sliding-window contract: a long-running session under a bounded
//! [`WindowPolicy`] must be indistinguishable from a fresh session that
//! only ever saw the retained suffix — metrics, conflict list, hotkeys,
//! recommendations, and (whenever the last ingest batch evicted, i.e. the
//! steady state of a live run) the whole analysis byte-for-byte. Verified
//! over random commit-ordered ledgers, arbitrary ingest batch splits, and
//! sessions opened at one and at four threads.

use blockoptr::log::{BlockchainLog, TxRecord};
use blockoptr::session::{Analyzer, Session, WindowPolicy};
use fabric_sim::ledger::TxStatus;
use fabric_sim::rwset::{ReadWriteSet, Version};
use fabric_sim::types::{ClientId, OrgId, PeerId, TxType, Value};
use proptest::prelude::*;
use sim_core::time::SimTime;

/// One random record: a few keys from a small pool (so conflicts and
/// hotkeys actually form), an identifier argument (so case families form),
/// and a status mix.
fn arb_record() -> impl Strategy<Value = TxRecord> {
    (
        0usize..4, // activity
        0usize..6, // read key
        0usize..6, // write key
        0usize..5, // case id
        0u8..10,   // status selector (30 % failures)
        0u8..2,    // write at all?
    )
        .prop_map(|(act, read, write, case, status, writes)| {
            let writes = writes == 1;
            let activities = ["transfer", "audit", "query", "settle"];
            let mut rwset = ReadWriteSet::new();
            rwset.record_read(format!("ns/k{read}").into(), Some(Version::new(1, 0)));
            if writes {
                rwset.record_write(format!("ns/k{write}").into(), Some(Value::Int(1)));
            }
            let status = match status {
                0 | 1 => TxStatus::MvccReadConflict,
                2 => TxStatus::PhantomReadConflict,
                _ => TxStatus::Success,
            };
            TxRecord {
                commit_index: 0, // assigned below
                block: 1,        // assigned below
                client_ts: SimTime::ZERO,
                commit_ts: SimTime::ZERO,
                contract: "cc".into(),
                activity: activities[act].into(),
                args: vec![Value::Str(format!("CASE{case:03}"))].into(),
                endorsers: vec![PeerId {
                    org: OrgId((act % 3) as u16),
                    index: 0,
                }],
                invoker: ClientId {
                    org: OrgId((case % 2) as u16),
                    index: 0,
                },
                rwset: rwset.into(),
                status,
                tx_type: if writes { TxType::Update } else { TxType::Read },
            }
        })
}

/// A random commit-ordered ledger: strictly increasing commit indices,
/// nondecreasing block numbers and commit timestamps, client timestamps a
/// little before their commits.
fn arb_ledger() -> impl Strategy<Value = BlockchainLog> {
    (
        prop::collection::vec((arb_record(), 1u64..5, 0u64..400_000), 8..120),
        2u64..7, // mean block size selector
    )
        .prop_map(|(specs, per_block)| {
            let mut block = 1u64;
            let mut commit_us = 0u64;
            let mut records = Vec::with_capacity(specs.len());
            for (i, (mut r, step, lead)) in specs.into_iter().enumerate() {
                if i > 0 && (i as u64).is_multiple_of(per_block) {
                    block += step.min(1) + (step / 3); // occasionally skip numbers
                }
                commit_us += 50_000 + step * 10_000;
                r.commit_index = i;
                r.block = block;
                r.commit_ts = SimTime::from_micros(commit_us);
                r.client_ts = SimTime::from_micros(commit_us.saturating_sub(lead));
                records.push(r);
            }
            let blocks: std::collections::BTreeSet<u64> = records.iter().map(|r| r.block).collect();
            let count = blocks.len();
            BlockchainLog::from_records(records, count)
        })
}

/// The suffix a bounded policy retains, with original commit indices.
fn retained_suffix(log: &BlockchainLog, policy: WindowPolicy) -> BlockchainLog {
    let records = log.records();
    let keep: Vec<TxRecord> = match policy {
        WindowPolicy::Unbounded => records.to_vec(),
        WindowPolicy::LastBlocks(n) => {
            let blocks: std::collections::BTreeSet<u64> = records.iter().map(|r| r.block).collect();
            if blocks.len() <= n {
                records.to_vec()
            } else {
                let cutoff = *blocks.iter().rev().nth(n - 1).unwrap();
                records
                    .iter()
                    .filter(|r| r.block >= cutoff)
                    .cloned()
                    .collect()
            }
        }
        WindowPolicy::LastDuration(d) => {
            let last = records.iter().map(|r| r.commit_ts).max().unwrap();
            records
                .iter()
                .filter(|r| last.since(r.commit_ts) <= d)
                .cloned()
                .collect()
        }
    };
    let blocks: std::collections::BTreeSet<u64> = keep.iter().map(|r| r.block).collect();
    let count = blocks.len();
    BlockchainLog::from_records(keep, count)
}

/// Fresh one-batch analysis of a (sub)log.
fn fresh_session(log: BlockchainLog) -> Session {
    let mut session = Analyzer::new()
        .window(WindowPolicy::Unbounded)
        .session()
        .unwrap();
    session.ingest_log(log).unwrap();
    session
}

/// Assert the windowed session matches the fresh suffix analysis. Metric
/// state must always match; the full analysis (which includes the
/// hysteresis-stabilized case family) must match whenever the final batch
/// evicted — the steady state of any long-running windowed session.
fn assert_window_equivalence(windowed: &Session, policy: WindowPolicy, full: &BlockchainLog) {
    let fresh = fresh_session(retained_suffix(full, policy));
    let a = windowed.snapshot().unwrap();
    let b = fresh.snapshot().unwrap();
    assert_eq!(
        serde_json::to_string(&a.metrics).unwrap(),
        serde_json::to_string(&b.metrics).unwrap(),
        "windowed metrics diverge from a fresh suffix analysis ({policy})"
    );
    assert_eq!(a.recommendation_names(), b.recommendation_names());
    assert_eq!(a.log.len(), b.log.len());
    assert_eq!(a.log.block_count(), b.log.block_count());
    assert_eq!(a.thresholds, b.thresholds);
}

/// Full byte-equality, for runs known to end on an evicting batch.
fn assert_byte_equality(windowed: &Session, policy: WindowPolicy, full: &BlockchainLog) {
    let fresh = fresh_session(retained_suffix(full, policy));
    assert_eq!(windowed.footprint(), fresh.footprint());
    assert_eq!(
        format!("{:?}", windowed.snapshot().unwrap()),
        format!("{:?}", fresh.snapshot().unwrap()),
        "windowed analysis is not byte-equal to the fresh suffix analysis ({policy})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// LastBlocks(n) over random ledgers and random batch splits: the
    /// windowed session always matches a fresh analysis of the last n
    /// blocks.
    #[test]
    fn windowed_session_matches_fresh_suffix(
        log in arb_ledger(),
        n in 1usize..6,
        chunk in 1usize..17,
    ) {
        let policy = WindowPolicy::LastBlocks(n);
        let mut session = Analyzer::new().window(policy).session().unwrap();
        let records = log.records();
        for batch in records.chunks(chunk) {
            let blocks: std::collections::BTreeSet<u64> =
                batch.iter().map(|r| r.block).collect();
            session
                .ingest_log(BlockchainLog::from_records(batch.to_vec(), blocks.len()))
                .unwrap();
        }
        assert_window_equivalence(&session, policy, &log);
        let before = session.evicted();
        // One more over-full block forces an eviction, entering the steady
        // state where the whole analysis is byte-equal.
        let mut tail: Vec<TxRecord> = records[records.len().saturating_sub(3)..].to_vec();
        let last = records.last().unwrap();
        for (i, r) in tail.iter_mut().enumerate() {
            r.commit_index = last.commit_index + 1 + i;
            r.block = last.block + 1;
            r.commit_ts = last.commit_ts + sim_core::time::SimDuration::from_millis(10);
        }
        let extended = {
            let mut all = records.to_vec();
            all.extend(tail.clone());
            let blocks: std::collections::BTreeSet<u64> = all.iter().map(|r| r.block).collect();
            let count = blocks.len();
            BlockchainLog::from_records(all, count)
        };
        let tail_blocks = 1usize;
        session
            .ingest_log(BlockchainLog::from_records(tail, tail_blocks))
            .unwrap();
        if session.evicted() > before {
            assert_byte_equality(&session, policy, &extended);
        }
    }

    /// Duration-based eviction matches the commit-time suffix.
    #[test]
    fn duration_window_matches_fresh_suffix(
        log in arb_ledger(),
        tenths in 2u64..30,
    ) {
        let policy = WindowPolicy::LastDuration(
            sim_core::time::SimDuration::from_millis(tenths * 100),
        );
        let mut session = Analyzer::new().window(policy).session().unwrap();
        // Whole-log single batch: the final batch always evicts whatever is
        // stale, so full byte-equality applies.
        session.ingest_log(log.clone()).unwrap();
        assert_window_equivalence(&session, policy, &log);
        assert_byte_equality(&session, policy, &log);
    }

    /// A windowed session folds identically at four threads and at one.
    #[test]
    fn sharded_windowed_ingest_matches_serial(
        log in arb_ledger(),
        n in 1usize..6,
    ) {
        let policy = WindowPolicy::LastBlocks(n);
        let mut serial = Analyzer::new().threads(1).window(policy).session().unwrap();
        serial.ingest_log(log.clone()).unwrap();
        let mut four = Analyzer::new().threads(4).window(policy).session().unwrap();
        four.ingest_log(log.clone()).unwrap();
        prop_assert_eq!(serial.evicted(), four.evicted());
        prop_assert_eq!(serial.footprint(), four.footprint());
        prop_assert_eq!(
            format!("{:?}", serial.snapshot().unwrap()),
            format!("{:?}", four.snapshot().unwrap())
        );
    }
}

/// A commit-ordered ledger over many cases: 400–700 records in blocks of
/// 12–40, each record's case id drifting with its position (about 200 ids
/// in all, each alive for a few blocks). Every evicted block therefore
/// pops the heads of many traces at once, some emptied and others
/// surviving, which must then be re-placed by their new first event.
fn arb_many_case_ledger() -> impl Strategy<Value = BlockchainLog> {
    (
        prop::collection::vec((arb_record(), 0usize..24), 400..700),
        12usize..41, // records per block
    )
        .prop_map(|(specs, per_block)| {
            let records: Vec<TxRecord> = specs
                .into_iter()
                .enumerate()
                .map(|(i, (mut r, drift))| {
                    let case = (i / 3 + drift) % 200;
                    r.commit_index = i;
                    r.block = (i / per_block) as u64 + 1;
                    r.commit_ts = SimTime::from_micros(i as u64 * 50_000);
                    r.client_ts = SimTime::from_micros((i as u64 * 50_000).saturating_sub(30_000));
                    r.args = vec![Value::Str(format!("CASE{case:03}"))].into();
                    r.invoker.org = OrgId((case % 2) as u16);
                    r
                })
                .collect();
            let count = records.last().map_or(0, |r| r.block as usize);
            BlockchainLog::from_records(records, count)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Re-placing many surviving traces per evicting batch: a large first
    /// batch, then one block per batch, each of which evicts a block. The
    /// final state is byte-equal to a fresh analysis of the retained
    /// suffix, at one thread and at four.
    #[test]
    fn many_case_window_matches_fresh_suffix(
        log in arb_many_case_ledger(),
        n in 1usize..7,
    ) {
        let policy = WindowPolicy::LastBlocks(n);
        let records = log.records();
        let last_block = records.last().unwrap().block;
        // All but the last three blocks: at least 280 records.
        let split = records.partition_point(|r| r.block + 3 <= last_block);
        let batch = |records: &[TxRecord]| {
            let blocks: std::collections::BTreeSet<u64> =
                records.iter().map(|r| r.block).collect();
            BlockchainLog::from_records(records.to_vec(), blocks.len())
        };
        for threads in [1, 4] {
            let mut session = Analyzer::new()
                .threads(threads)
                .window(policy)
                .session()
                .unwrap();
            session.ingest_log(batch(&records[..split])).unwrap();
            for block in records[split..].chunk_by(|a, b| a.block == b.block) {
                let before = session.evicted();
                session.ingest_log(batch(block)).unwrap();
                prop_assert!(session.evicted() > before, "every later block evicts one");
            }
            assert_byte_equality(&session, policy, &log);
        }
    }
}

/// The incremental trace-eviction edge the ring design must get right:
/// when a trace's *head* evicts but the trace survives, its first retained
/// event may now come after another trace's first event — a fresh suffix
/// analysis orders traces by first occurrence in the suffix, so the
/// incrementally maintained event log must reorder to match byte-for-byte.
#[test]
fn surviving_trace_is_reordered_to_first_event_position() {
    fn rec(i: usize, block: u64, case: &str, activity: &str) -> TxRecord {
        TxRecord {
            commit_index: i,
            block,
            client_ts: SimTime::from_millis(i as u64 * 100),
            commit_ts: SimTime::from_millis(i as u64 * 100 + 1_000),
            contract: "cc".into(),
            activity: activity.into(),
            args: vec![Value::Str(case.to_string())].into(),
            endorsers: vec![PeerId {
                org: OrgId(0),
                index: 0,
            }],
            invoker: ClientId {
                org: OrgId(0),
                index: 0,
            },
            rwset: ReadWriteSet::new().into(),
            status: TxStatus::Success,
            tx_type: TxType::Read,
        }
    }
    // Case CASE001 opens in block 1, CASE002 in block 2, both continue in
    // block 3. A last-2-blocks window evicts block 1 — CASE001's head —
    // after which CASE002's first event precedes CASE001's.
    let records = vec![
        rec(0, 1, "CASE001", "create"),
        rec(1, 2, "CASE002", "create"),
        rec(2, 3, "CASE001", "settle"),
        rec(3, 3, "CASE002", "settle"),
    ];
    let policy = WindowPolicy::LastBlocks(2);
    let full = BlockchainLog::from_records(records, 3);
    let mut session = Analyzer::new().window(policy).session().unwrap();
    session.ingest_log(full.clone()).unwrap();
    assert_eq!(session.evicted(), 1, "block 1 aged out");
    let analysis = session.snapshot().unwrap();
    let order: Vec<&str> = analysis
        .event_log
        .traces()
        .iter()
        .map(|t| t.case_id.as_str())
        .collect();
    assert_eq!(order, vec!["CASE002", "CASE001"], "first-event order");
    assert_byte_equality(&session, policy, &full);
}

/// Resident-byte boundedness: a windowed session fed a periodic stream for
/// ≥ 10× its window must hold its estimated footprint
/// ([`blockoptr::SessionFootprint::approx_bytes`]) in steady state — the
/// byte estimate observed late in the run never exceeds what the warm-up
/// period already reached. (Every block has identical composition, so once
/// the window is full the retained state is count-identical each period;
/// growth here would mean a tracker is leaking state past eviction.)
#[test]
fn footprint_bytes_stay_bounded_over_long_runs() {
    fn rec(i: usize) -> TxRecord {
        let activities = ["open", "work", "close"];
        let mut rwset = ReadWriteSet::new();
        rwset.record_read(format!("ns/k{}", i % 6).into(), Some(Version::new(1, 0)));
        if i.is_multiple_of(2) {
            rwset.record_write(format!("ns/k{}", i % 6).into(), Some(Value::Int(1)));
        }
        TxRecord {
            commit_index: i,
            block: (i as u64) / 6 + 1,
            client_ts: SimTime::from_millis(i as u64 * 100),
            commit_ts: SimTime::from_millis(i as u64 * 100 + 1_000),
            contract: "cc".into(),
            activity: activities[i % 3].into(),
            args: vec![Value::Str(format!("CASE{:03}", i % 6))].into(),
            endorsers: vec![PeerId {
                org: OrgId((i % 3) as u16),
                index: 0,
            }],
            invoker: ClientId {
                org: OrgId((i % 2) as u16),
                index: 0,
            },
            rwset: rwset.into(),
            status: if i.is_multiple_of(5) {
                TxStatus::MvccReadConflict
            } else {
                TxStatus::Success
            },
            tx_type: if i.is_multiple_of(2) {
                TxType::Update
            } else {
                TxType::Read
            },
        }
    }
    const WINDOW_BLOCKS: usize = 5;
    const PER_BLOCK: usize = 6;
    const TOTAL_BLOCKS: usize = 12 * WINDOW_BLOCKS; // ≥ 10× the window
    let policy = WindowPolicy::LastBlocks(WINDOW_BLOCKS);
    let mut session = Analyzer::new().window(policy).session().unwrap();
    let mut warmup_max = 0usize;
    let mut steady_max = 0usize;
    for b in 0..TOTAL_BLOCKS {
        let records: Vec<TxRecord> = (b * PER_BLOCK..(b + 1) * PER_BLOCK).map(rec).collect();
        session
            .ingest_log(BlockchainLog::from_records(records, 1))
            .unwrap();
        let bytes = session.footprint().approx_bytes();
        assert!(bytes > 0, "a non-empty session has resident state");
        // Warm-up covers 3× the window: the session fills, evicts for the
        // first time, and settles into its periodic steady state.
        if b < 3 * WINDOW_BLOCKS {
            warmup_max = warmup_max.max(bytes);
        } else {
            steady_max = steady_max.max(bytes);
        }
    }
    assert!(session.evicted() > 0, "the run must actually evict");
    assert!(
        steady_max <= warmup_max,
        "footprint grew past warm-up over a ≥10×-window run: \
         steady max {steady_max} B > warm-up max {warmup_max} B"
    );
    // The estimate tracks the counters it is derived from: a fresh session
    // over the retained suffix reports the same bytes.
    let full = {
        let records: Vec<TxRecord> = (0..TOTAL_BLOCKS * PER_BLOCK).map(rec).collect();
        let blocks: std::collections::BTreeSet<u64> = records.iter().map(|r| r.block).collect();
        let count = blocks.len();
        BlockchainLog::from_records(records, count)
    };
    let fresh = fresh_session(retained_suffix(&full, policy));
    assert_eq!(
        session.footprint().approx_bytes(),
        fresh.footprint().approx_bytes()
    );
}

/// The suite-wide window policy (`BLOCKOPTR_WINDOW`, as CI sets it) holds
/// the equivalence too, on a real simulated ledger — block-by-block like a
/// monitoring loop, under whatever thread count `BLOCKOPTR_THREADS` says.
#[test]
fn env_policy_holds_equivalence_on_simulated_ledger() {
    let policy = match WindowPolicy::from_env() {
        WindowPolicy::Unbounded => WindowPolicy::LastBlocks(8),
        bounded => bounded,
    };
    let cv = workload::spec::ControlVariables {
        transactions: 1_500,
        block_count: 30,
        ..Default::default()
    };
    let output = workload::synthetic::generate(&cv).run(cv.network_config());
    let mut session = Analyzer::new().window(policy).session().unwrap();
    for block in output.ledger.blocks() {
        session.ingest_block(block).unwrap();
    }
    let full = BlockchainLog::from_ledger(&output.ledger);
    assert_window_equivalence(&session, policy, &full);
    if session.evicted() > 0 {
        assert_byte_equality(&session, policy, &full);
    }
}

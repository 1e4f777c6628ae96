//! Property tests for the Fabric substrate: endorsement-policy algebra,
//! block cutting, scheduling, and MVCC validation invariants.

use fabric_sim::config::SchedulerKind;
use fabric_sim::ledger::TxStatus;
use fabric_sim::orderer::{ArrivalOutcome, BlockCutter};
use fabric_sim::policy::EndorsementPolicy;
use fabric_sim::rwset::{ReadWriteSet, Version};
use fabric_sim::scheduler::{schedule_block, SchedTx};
use fabric_sim::state::WorldState;
use fabric_sim::types::{OrgId, Value};
use fabric_sim::validator::{validate_block, TxToValidate};
use proptest::prelude::*;
use sim_core::time::{SimDuration, SimTime};
use std::collections::BTreeSet;

fn arb_policy() -> impl Strategy<Value = EndorsementPolicy> {
    prop_oneof![
        Just(EndorsementPolicy::p1()),
        Just(EndorsementPolicy::p2()),
        Just(EndorsementPolicy::p3(2)),
        Just(EndorsementPolicy::p3(4)),
        Just(EndorsementPolicy::p4()),
        (1usize..4, 2usize..6).prop_map(|(k, n)| EndorsementPolicy::out_of(k.min(n), n)),
    ]
}

/// A small random rwset over a tiny key space (to force conflicts).
fn arb_rwset() -> impl Strategy<Value = ReadWriteSet> {
    (
        prop::collection::vec(0u8..6, 0..3),
        prop::collection::vec(0u8..6, 0..3),
    )
        .prop_map(|(reads, writes)| {
            let mut rw = ReadWriteSet::new();
            for r in reads {
                rw.record_read(format!("k{r}").into(), Some(Version::new(0, 0)));
            }
            for w in writes {
                rw.record_write(format!("k{w}").into(), Some(Value::Int(w as i64)));
            }
            rw
        })
}

proptest! {
    /// Every minimal satisfying set satisfies the policy, and removing any
    /// member breaks it (true minimality).
    #[test]
    fn minimal_sets_are_minimal(policy in arb_policy()) {
        for set in policy.minimal_satisfying_sets() {
            prop_assert!(policy.satisfied_by(&set));
            for org in &set {
                let mut smaller = set.clone();
                smaller.remove(org);
                prop_assert!(!policy.satisfied_by(&smaller), "{policy}: {set:?} minus {org}");
            }
        }
    }

    /// Satisfaction is monotone: adding organizations never breaks it.
    #[test]
    fn satisfaction_is_monotone(policy in arb_policy(), extra in 0u16..8) {
        for set in policy.minimal_satisfying_sets() {
            let mut bigger: BTreeSet<OrgId> = set.clone();
            bigger.insert(OrgId(extra));
            prop_assert!(policy.satisfied_by(&bigger));
        }
    }

    /// Mandatory orgs appear in every minimal satisfying set.
    #[test]
    fn mandatory_orgs_are_everywhere(policy in arb_policy()) {
        let mandatory = policy.mandatory_orgs();
        for set in policy.minimal_satisfying_sets() {
            for org in &mandatory {
                prop_assert!(set.contains(org));
            }
        }
    }

    /// The block cutter conserves transactions, respects the count bound and
    /// never reorders.
    #[test]
    fn cutter_conserves_and_bounds(
        count in 1usize..20,
        arrivals in prop::collection::vec(1u64..500, 1..120)
    ) {
        let mut cutter = BlockCutter::new(count, 1 << 30, SimDuration::from_secs(1));
        let mut t = SimTime::ZERO;
        let mut cut_txs: Vec<usize> = Vec::new();
        for (i, gap) in arrivals.iter().enumerate() {
            t += SimDuration::from_micros(*gap);
            match cutter.on_arrival(t, i, 1) {
                ArrivalOutcome::CutNow(cut) => {
                    prop_assert_eq!(cut.txs.len(), count, "count cut is exact");
                    cut_txs.extend(cut.txs);
                }
                ArrivalOutcome::ArmTimer { deadline, .. } => {
                    prop_assert_eq!(deadline, t + SimDuration::from_secs(1));
                }
                ArrivalOutcome::Buffered => {}
            }
        }
        if let Some(cut) = cutter.flush(t) {
            prop_assert!(cut.txs.len() <= count);
            cut_txs.extend(cut.txs);
        }
        prop_assert_eq!(cut_txs.len(), arrivals.len(), "conservation");
        let sorted: Vec<usize> = (0..arrivals.len()).collect();
        prop_assert_eq!(cut_txs, sorted, "arrival order preserved");
    }

    /// Schedulers always emit a permutation, and Fabric++ never aborts a
    /// transaction that has no write-conflicts with anyone.
    #[test]
    fn schedulers_emit_permutations(
        rwsets in prop::collection::vec(arb_rwset(), 1..30),
        kind in prop_oneof![
            Just(SchedulerKind::Vanilla),
            Just(SchedulerKind::FabricPlusPlus),
            Just(SchedulerKind::FabricSharp),
        ]
    ) {
        let txs: Vec<SchedTx<'_>> = rwsets
            .iter()
            .map(|rw| SchedTx { rwset: rw, endorse_spread: SimDuration::ZERO })
            .collect();
        let out = schedule_block(kind, &txs);
        let mut order = out.order.clone();
        order.sort_unstable();
        let expected: Vec<usize> = (0..rwsets.len()).collect();
        prop_assert_eq!(order, expected);
        // An isolated tx (keys disjoint from all others) is never aborted.
        for (i, rw) in rwsets.iter().enumerate() {
            let keys = rw.all_keys();
            let isolated = rwsets.iter().enumerate().all(|(j, other)| {
                j == i || !other.all_keys().iter().any(|k| keys.contains(k))
            });
            if isolated {
                prop_assert!(!out.aborted.contains(&i), "{kind:?} aborted isolated tx");
            }
        }
    }

    /// Validation soundness: a successful transaction's reads all matched
    /// the pre-state, and only successful writes changed the state.
    #[test]
    fn validation_soundness(rwsets in prop::collection::vec(arb_rwset(), 1..25)) {
        let mut state = WorldState::new();
        for k in 0..6 {
            state.seed(format!("k{k}").into(), Value::Int(0));
        }
        let pre = state.clone();
        let txs: Vec<TxToValidate<'_>> = rwsets
            .iter()
            .map(|rw| TxToValidate {
                rwset: rw,
                endorse_mismatch: false,
                sched_aborted: false,
                sched_policy_failed: false,
            })
            .collect();
        let verdicts = validate_block(&mut state, 1, &txs, 0);
        prop_assert_eq!(verdicts.len(), rwsets.len());

        // Replay manually and compare.
        let mut replay = pre.clone();
        for (i, rw) in rwsets.iter().enumerate() {
            let fresh = rw
                .reads
                .iter()
                .all(|r| replay.version_of(&r.key) == r.version);
            if verdicts[i].status == TxStatus::Success {
                prop_assert!(fresh, "committed tx {} had stale reads", i);
                replay.apply(&rw.writes, Version::new(1, i as u32));
            }
        }
        for (key, vv) in replay.iter() {
            prop_assert_eq!(Some(&state.get(key).unwrap().value), Some(&vv.value));
        }
    }

    /// First transaction touching each key in a block always succeeds when
    /// its reads were fresh at genesis.
    #[test]
    fn first_reader_wins(keys in prop::collection::vec(0u8..4, 1..20)) {
        let mut state = WorldState::new();
        for k in 0..4 {
            state.seed(format!("k{k}").into(), Value::Int(0));
        }
        let rwsets: Vec<ReadWriteSet> = keys
            .iter()
            .map(|k| {
                let mut rw = ReadWriteSet::new();
                rw.record_read(format!("k{k}").into(), Some(Version::new(0, 0)));
                rw.record_write(format!("k{k}").into(), Some(Value::Int(1)));
                rw
            })
            .collect();
        let txs: Vec<TxToValidate<'_>> = rwsets
            .iter()
            .map(|rw| TxToValidate {
                rwset: rw,
                endorse_mismatch: false,
                sched_aborted: false,
                sched_policy_failed: false,
            })
            .collect();
        let verdicts = validate_block(&mut state, 1, &txs, 0);
        let mut seen: BTreeSet<u8> = BTreeSet::new();
        for (i, k) in keys.iter().enumerate() {
            let first = seen.insert(*k);
            if first {
                prop_assert_eq!(verdicts[i].status, TxStatus::Success);
            } else {
                prop_assert_eq!(verdicts[i].status, TxStatus::MvccReadConflict);
                prop_assert!(verdicts[i].intra_block);
            }
        }
    }
}

proptest! {
    // Cheap cases: run many.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The slot-indexed world state against a `BTreeMap` model: random
    /// single and batched puts and deletes, then point reads, versions,
    /// length, iteration and range scans (inverted and empty ones
    /// included) all agree. A key keeps the first handle it was written
    /// with through deletes and re-inserts under fresh handles.
    #[test]
    fn world_state_matches_an_ordered_map_model(
        ops in prop::collection::vec((0u8..4, 0usize..12, 0usize..14, 0i64..100), 1..120)
    ) {
        use fabric_sim::rwset::WriteItem;
        use fabric_sim::types::Key;
        use std::collections::BTreeMap;
        use std::sync::Arc;

        let name = |i: usize| format!("ns/k{i:02}");
        let put = |i: usize, v: i64| WriteItem { key: Key::from(name(i)), value: Some(Value::Int(v)) };
        let del = |i: usize| WriteItem { key: Key::from(name(i)), value: None };
        let mut state = WorldState::new();
        let mut model: BTreeMap<String, (Value, Version)> = BTreeMap::new();
        let mut first_handle: BTreeMap<String, Key> = BTreeMap::new();
        for (step, &(op, a, b, v)) in ops.iter().enumerate() {
            let version = Version::new(step as u64 + 1, 0);
            let writes = match op {
                0 => vec![put(a, v)],
                1 => vec![del(a)],
                2 => vec![put(a, v), del(b % 12)],
                _ => vec![],
            };
            state.apply(&writes, version);
            for w in &writes {
                match &w.value {
                    Some(value) => {
                        // A delete of a key the state never held names
                        // nothing; the first put names the key.
                        first_handle.entry(w.key.to_string()).or_insert_with(|| w.key.clone());
                        model.insert(w.key.to_string(), (value.clone(), version));
                    }
                    None => {
                        model.remove(&*w.key);
                    }
                }
            }

            for i in 0..14 {
                let key = name(i);
                let want = model.get(&key);
                prop_assert_eq!(state.get(&key).map(|vv| (&vv.value, vv.version)), want.map(|(v, ver)| (v, *ver)));
                prop_assert_eq!(state.version_of(&key), want.map(|(_, ver)| *ver));
            }
            prop_assert_eq!(state.len(), model.len());
            prop_assert_eq!(state.is_empty(), model.is_empty());
            let listed: Vec<(String, Version)> =
                state.iter().map(|(k, vv)| (k.to_string(), vv.version)).collect();
            let expected: Vec<(String, Version)> =
                model.iter().map(|(k, (_, ver))| (k.clone(), *ver)).collect();
            prop_assert_eq!(listed, expected);
            for (key, _) in state.iter() {
                prop_assert!(Arc::ptr_eq(key, &first_handle[&**key]), "{} changed handle", key);
            }

            let (start, end) = (name(a), name(b));
            let scanned: Vec<(String, Version)> = state
                .range(&start, &end)
                .map(|(k, vv)| (k.to_string(), vv.version))
                .collect();
            let expected: Vec<(String, Version)> = if start <= end {
                model
                    .range(start.clone()..end.clone())
                    .map(|(k, (_, ver))| (k.clone(), *ver))
                    .collect()
            } else {
                Vec::new()
            };
            prop_assert_eq!(scanned, expected);
        }
    }
}

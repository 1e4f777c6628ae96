//! Digital Rights Management (DRM) contract and its optimized variants.
//!
//! The base contract (§5.1.2) keeps one record per piece of music — play
//! count, metadata and right holders under a single key — so the Play-heavy
//! workload hammers the popular keys and *every* activity conflicts with
//! `play`. BlockOptR recommends three data-level fixes (§6.2, Figure 14),
//! each implemented here:
//!
//! * [`DrmContract`] — the base: `play` increments the record's play count;
//!   queries read the same record.
//! * [`DrmDeltaContract`] — **delta writes**: `play(music, seq)` blind-writes
//!   a unique delta key `<music>#d<seq>`; `calcRevenue` aggregates the deltas
//!   with a range scan (slower reads, conflict-free writes — the paper notes
//!   `calcRevenue` latency rises but overall performance improves).
//! * [`DrmPlayContract`] + [`DrmMetaContract`] — **smart contract
//!   partitioning**: play counting and metadata live in separate chaincodes
//!   (separate world-state namespaces); `create` on the play contract
//!   cross-invokes the metadata contract so the original functionality is
//!   preserved (paper §4.4.2 example).

use crate::{aborting, arg_int, arg_str, Contract, ExecStatus, TxContext, Value};
use std::collections::BTreeMap;

/// Delta keys aggregated per `calcRevenue` page (Fabric-style paginated
/// scan); bounds the aggregation cost as the delta set grows.
pub const DELTA_SCAN_LIMIT: usize = 200;

fn record(plays: i64, meta: &str, holders: &str) -> Value {
    let mut m = BTreeMap::new();
    m.insert("plays".to_string(), Value::Int(plays));
    m.insert("meta".to_string(), Value::Str(meta.to_string()));
    m.insert("holders".to_string(), Value::Str(holders.to_string()));
    Value::Map(m)
}

fn bump_plays(v: Option<Value>) -> Value {
    match v {
        Some(Value::Map(mut m)) => {
            let plays = m.get("plays").and_then(Value::as_int).unwrap_or(0);
            m.insert("plays".to_string(), Value::Int(plays + 1));
            Value::Map(m)
        }
        _ => record(1, "", ""),
    }
}

/// The base DRM contract (namespace `drm`).
#[derive(Debug, Default, Clone, Copy)]
pub struct DrmContract;

impl DrmContract {
    /// Chaincode namespace.
    pub const NAME: &'static str = "drm";

    /// Build the genesis record for a piece of music.
    pub fn genesis_record(music: &str) -> Value {
        record(0, &format!("meta:{music}"), &format!("holders:{music}"))
    }
}

impl Contract for DrmContract {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn execute(&self, ctx: &mut TxContext<'_>, activity: &str, args: &[Value]) -> ExecStatus {
        aborting(|| {
            match activity {
                "play" => {
                    let music = arg_str(args, 0, "music")?;
                    let v = ctx.get_state(music);
                    ctx.put_state(music, bump_plays(v));
                }
                "create" => {
                    let music = arg_str(args, 0, "music")?;
                    ctx.put_state(music, DrmContract::genesis_record(music));
                }
                "queryRightHolders" | "viewMetaData" | "calcRevenue" => {
                    let music = arg_str(args, 0, "music")?;
                    let _ = ctx.get_state(music);
                }
                other => panic!("drm: unknown activity {other:?}"),
            }
            Ok(ExecStatus::Ok)
        })
    }

    fn activities(&self) -> Vec<&'static str> {
        vec![
            "play",
            "create",
            "queryRightHolders",
            "viewMetaData",
            "calcRevenue",
        ]
    }
}

/// DRM with delta writes (namespace `drm`): `play` writes unique delta keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct DrmDeltaContract;

impl DrmDeltaContract {
    /// Chaincode namespace (upgraded in place, same namespace as the base).
    pub const NAME: &'static str = "drm";
}

impl Contract for DrmDeltaContract {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn id(&self) -> &str {
        "drm:delta"
    }

    fn execute(&self, ctx: &mut TxContext<'_>, activity: &str, args: &[Value]) -> ExecStatus {
        aborting(|| {
            match activity {
                "play" => {
                    // Write-only transaction to a unique delta key: no read, no
                    // dependency, no MVCC conflict.
                    let music = arg_str(args, 0, "music")?;
                    let seq = arg_int(args, 1, "sequence")?;
                    ctx.put_state(&format!("{music}#d{seq:09}"), Value::Int(1));
                }
                "create" => {
                    let music = arg_str(args, 0, "music")?;
                    ctx.put_state(music, DrmContract::genesis_record(music));
                }
                "calcRevenue" => {
                    // Aggregation now scans the delta keys — more read work.
                    let music = arg_str(args, 0, "music")?;
                    let _ = ctx.get_state(music);
                    let deltas = ctx.get_state_by_range_limited(
                        &format!("{music}#d"),
                        &format!("{music}#d~"),
                        DELTA_SCAN_LIMIT,
                    );
                    let _total: i64 = deltas.iter().filter_map(|(_, v)| v.as_int()).sum();
                }
                "queryRightHolders" | "viewMetaData" => {
                    let music = arg_str(args, 0, "music")?;
                    let _ = ctx.get_state(music);
                }
                other => panic!("drm-delta: unknown activity {other:?}"),
            }
            Ok(ExecStatus::Ok)
        })
    }

    fn activities(&self) -> Vec<&'static str> {
        vec![
            "play",
            "create",
            "queryRightHolders",
            "viewMetaData",
            "calcRevenue",
        ]
    }
}

/// Partitioned DRM, contract 1 (namespace `drm-play`): play counting.
#[derive(Debug, Default, Clone, Copy)]
pub struct DrmPlayContract;

impl DrmPlayContract {
    /// Chaincode namespace.
    pub const NAME: &'static str = "drm-play";
}

impl Contract for DrmPlayContract {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn execute(&self, ctx: &mut TxContext<'_>, activity: &str, args: &[Value]) -> ExecStatus {
        aborting(|| {
            match activity {
                "play" => {
                    let music = arg_str(args, 0, "music")?;
                    let plays = ctx.get_state(music).and_then(|v| v.as_int()).unwrap_or(0);
                    ctx.put_state(music, Value::Int(plays + 1));
                }
                "calcRevenue" => {
                    let music = arg_str(args, 0, "music")?;
                    let _ = ctx.get_state(music);
                }
                "create" => {
                    // The paper: "The create function is included in both smart
                    // contracts, and invocation of the first smart contract
                    // invokes the same function in the second."
                    let music = arg_str(args, 0, "music")?;
                    ctx.put_state(music, Value::Int(0));
                    ctx.set_namespace(DrmMetaContract::NAME);
                    ctx.put_state(music, DrmContract::genesis_record(music));
                    ctx.set_namespace(Self::NAME);
                }
                other => panic!("drm-play: unknown activity {other:?}"),
            }
            Ok(ExecStatus::Ok)
        })
    }

    fn activities(&self) -> Vec<&'static str> {
        vec!["play", "calcRevenue", "create"]
    }
}

/// Partitioned DRM play contract with delta writes (namespace `drm-play`):
/// the Figure-14 "all optimizations" configuration combines partitioning
/// with delta-write play counting.
#[derive(Debug, Default, Clone, Copy)]
pub struct DrmPlayDeltaContract;

impl DrmPlayDeltaContract {
    /// Chaincode namespace (same as the plain play contract).
    pub const NAME: &'static str = "drm-play";
}

impl Contract for DrmPlayDeltaContract {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn id(&self) -> &str {
        "drm-play:delta"
    }

    fn execute(&self, ctx: &mut TxContext<'_>, activity: &str, args: &[Value]) -> ExecStatus {
        aborting(|| {
            match activity {
                "play" => {
                    let music = arg_str(args, 0, "music")?;
                    let seq = arg_int(args, 1, "sequence")?;
                    ctx.put_state(&format!("{music}#d{seq:09}"), Value::Int(1));
                }
                "calcRevenue" => {
                    let music = arg_str(args, 0, "music")?;
                    let _ = ctx.get_state(music);
                    let deltas = ctx.get_state_by_range_limited(
                        &format!("{music}#d"),
                        &format!("{music}#d~"),
                        DELTA_SCAN_LIMIT,
                    );
                    let _total: i64 = deltas.iter().filter_map(|(_, v)| v.as_int()).sum();
                }
                "create" => {
                    let music = arg_str(args, 0, "music")?;
                    ctx.put_state(music, Value::Int(0));
                    ctx.set_namespace(DrmMetaContract::NAME);
                    ctx.put_state(music, DrmContract::genesis_record(music));
                    ctx.set_namespace(Self::NAME);
                }
                other => panic!("drm-play-delta: unknown activity {other:?}"),
            }
            Ok(ExecStatus::Ok)
        })
    }

    fn activities(&self) -> Vec<&'static str> {
        vec!["play", "calcRevenue", "create"]
    }
}

/// Partitioned DRM, contract 2 (namespace `drm-meta`): metadata and rights.
#[derive(Debug, Default, Clone, Copy)]
pub struct DrmMetaContract;

impl DrmMetaContract {
    /// Chaincode namespace.
    pub const NAME: &'static str = "drm-meta";
}

impl Contract for DrmMetaContract {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn execute(&self, ctx: &mut TxContext<'_>, activity: &str, args: &[Value]) -> ExecStatus {
        aborting(|| {
            match activity {
                "viewMetaData" | "queryRightHolders" => {
                    let music = arg_str(args, 0, "music")?;
                    let _ = ctx.get_state(music);
                }
                "create" => {
                    let music = arg_str(args, 0, "music")?;
                    ctx.put_state(music, DrmContract::genesis_record(music));
                }
                other => panic!("drm-meta: unknown activity {other:?}"),
            }
            Ok(ExecStatus::Ok)
        })
    }

    fn activities(&self) -> Vec<&'static str> {
        vec!["viewMetaData", "queryRightHolders", "create"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::state::WorldState;
    use fabric_sim::types::TxType;

    fn base_state() -> WorldState {
        let mut s = WorldState::new();
        s.seed("drm/M0001".into(), DrmContract::genesis_record("M0001"));
        s
    }

    #[test]
    fn base_play_is_hot_key_update() {
        let mut s = base_state();
        let cc = DrmContract;
        let mut ctx = TxContext::new(&mut s, cc.name());
        assert!(cc.execute(&mut ctx, "play", &["M0001".into()]).is_ok());
        let rw = ctx.into_rwset();
        assert_eq!(rw.tx_type(), TxType::Update);
        // The written record bumps only the `plays` field by one — the
        // pattern the delta-writes recommendation detects.
        let written = rw.writes[0].value.as_ref().unwrap().as_map().unwrap();
        assert_eq!(written.get("plays"), Some(&Value::Int(1)));
        assert_eq!(
            written.get("meta"),
            Some(&Value::Str("meta:M0001".into())),
            "other fields unchanged"
        );
    }

    #[test]
    fn base_queries_touch_the_same_key_as_play() {
        let mut s = base_state();
        let cc = DrmContract;
        for act in ["viewMetaData", "queryRightHolders", "calcRevenue"] {
            let mut ctx = TxContext::new(&mut s, cc.name());
            assert!(cc.execute(&mut ctx, act, &["M0001".into()]).is_ok());
            let rw = ctx.into_rwset();
            assert!(rw.read_keys().contains(&"drm/M0001"), "{act}");
        }
    }

    #[test]
    fn delta_play_is_blind_write_to_unique_key() {
        let mut s = base_state();
        let cc = DrmDeltaContract;
        let mut ctx = TxContext::new(&mut s, cc.name());
        assert!(cc
            .execute(&mut ctx, "play", &["M0001".into(), Value::Int(17)])
            .is_ok());
        let rw = ctx.into_rwset();
        assert_eq!(rw.tx_type(), TxType::Write, "no read, no conflict");
        assert!(rw.writes[0].key.contains("#d000000017"));
    }

    #[test]
    fn delta_calc_revenue_aggregates_deltas() {
        let mut s = base_state();
        s.seed("drm/M0001#d000000001".into(), Value::Int(1));
        s.seed("drm/M0001#d000000002".into(), Value::Int(1));
        let cc = DrmDeltaContract;
        let mut ctx = TxContext::new(&mut s, cc.name());
        assert!(cc
            .execute(&mut ctx, "calcRevenue", &["M0001".into()])
            .is_ok());
        let rw = ctx.into_rwset();
        assert_eq!(rw.range_reads.len(), 1);
        assert_eq!(rw.range_reads[0].observed.len(), 2, "scans both deltas");
    }

    #[test]
    fn partitioned_contracts_use_disjoint_namespaces() {
        let mut s = WorldState::new();
        s.seed("drm-play/M0001".into(), Value::Int(0));
        s.seed(
            "drm-meta/M0001".into(),
            DrmContract::genesis_record("M0001"),
        );

        let play = DrmPlayContract;
        let mut ctx = TxContext::new(&mut s, play.name());
        assert!(play.execute(&mut ctx, "play", &["M0001".into()]).is_ok());
        let play_rw = ctx.into_rwset();

        let meta = DrmMetaContract;
        let mut ctx2 = TxContext::new(&mut s, meta.name());
        assert!(meta
            .execute(&mut ctx2, "viewMetaData", &["M0001".into()])
            .is_ok());
        let meta_rw = ctx2.into_rwset();

        let play_keys = play_rw.all_keys();
        let meta_keys = meta_rw.all_keys();
        assert!(
            !play_keys.iter().any(|k| meta_keys.contains(k)),
            "partitioning separates the world states: {play_keys:?} vs {meta_keys:?}"
        );
    }

    #[test]
    fn partitioned_create_cross_invokes() {
        let mut s = WorldState::new();
        let play = DrmPlayContract;
        let mut ctx = TxContext::new(&mut s, play.name());
        assert!(play.execute(&mut ctx, "create", &["M0002".into()]).is_ok());
        let rw = ctx.into_rwset();
        let keys = rw.write_keys();
        assert!(keys.contains(&"drm-play/M0002"));
        assert!(keys.contains(&"drm-meta/M0002"), "cross-contract create");
    }

    #[test]
    fn partitioned_play_increments_plain_counter() {
        let mut s = WorldState::new();
        s.seed("drm-play/M0001".into(), Value::Int(41));
        let play = DrmPlayContract;
        let mut ctx = TxContext::new(&mut s, play.name());
        assert!(play.execute(&mut ctx, "play", &["M0001".into()]).is_ok());
        let rw = ctx.into_rwset();
        assert_eq!(rw.writes[0].value, Some(Value::Int(42)));
    }
}

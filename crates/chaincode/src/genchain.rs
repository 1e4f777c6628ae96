//! The genChain synthetic contract.
//!
//! The paper's synthetic workloads (§5.1.1) run against a generic contract
//! with one function per transaction type. It has deliberately "simple logic
//! with no branches, increment/decrement operations or complex data model"
//! (§6.1) — which is why BlockOptR never recommends process-model pruning,
//! delta writes, or data-model alterations for it.
//!
//! Activities (arguments are chosen by the workload generator):
//!
//! * `read(key)` — point read;
//! * `write(key, value)` — blind write (insert);
//! * `update(key, nonce)` — read-modify-write storing an opaque string (NOT
//!   an increment, so the delta-writes condition never fires);
//! * `range_read(start, end)` — range scan;
//! * `delete(key)` — read + tombstone.

use crate::{aborting, arg_str, Contract, ExecStatus, TxContext, Value};

/// The synthetic genChain contract (namespace `genchain`).
#[derive(Debug, Default, Clone, Copy)]
pub struct GenChainContract;

impl GenChainContract {
    /// Chaincode namespace.
    pub const NAME: &'static str = "genchain";
}

impl Contract for GenChainContract {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn execute(&self, ctx: &mut TxContext<'_>, activity: &str, args: &[Value]) -> ExecStatus {
        aborting(|| {
            match activity {
                "read" => {
                    let key = arg_str(args, 0, "key")?;
                    let _ = ctx.get_state(key);
                }
                "write" => {
                    let key = arg_str(args, 0, "key")?;
                    ctx.put_state(key, args.get(1).cloned().unwrap_or(Value::Unit));
                }
                "update" => {
                    let key = arg_str(args, 0, "key")?;
                    let _ = ctx.get_state(key);
                    let nonce = args.get(1).cloned().unwrap_or(Value::Unit);
                    ctx.put_state(key, Value::Str(format!("u:{nonce}")));
                }
                "range_read" => {
                    let start = arg_str(args, 0, "start")?;
                    let end = arg_str(args, 1, "end")?;
                    let _ = ctx.get_state_by_range(start, end);
                }
                "delete" => {
                    let key = arg_str(args, 0, "key")?;
                    let _ = ctx.get_state(key);
                    ctx.delete_state(key);
                }
                other => panic!("genchain: unknown activity {other:?}"),
            }
            Ok(ExecStatus::Ok)
        })
    }

    fn activities(&self) -> Vec<&'static str> {
        vec!["read", "write", "update", "range_read", "delete"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::state::WorldState;
    use fabric_sim::types::TxType;

    fn state() -> WorldState {
        let mut s = WorldState::new();
        s.seed("genchain/k00001".into(), Value::Int(7));
        s.seed("genchain/k00002".into(), Value::Int(8));
        s
    }

    fn run(
        mut state: WorldState,
        activity: &str,
        args: &[Value],
    ) -> fabric_sim::rwset::ReadWriteSet {
        let cc = GenChainContract;
        let mut ctx = TxContext::new(&mut state, cc.name());
        assert!(cc.execute(&mut ctx, activity, args).is_ok());
        ctx.into_rwset()
    }

    #[test]
    fn read_produces_read_type() {
        let s = state();
        let rw = run(s, "read", &["k00001".into()]);
        assert_eq!(rw.tx_type(), TxType::Read);
        assert_eq!(rw.reads.len(), 1);
        assert!(rw.writes.is_empty());
    }

    #[test]
    fn write_is_blind() {
        let s = state();
        let rw = run(s, "write", &["k99999".into(), Value::Int(1)]);
        assert_eq!(rw.tx_type(), TxType::Write);
        assert!(rw.reads.is_empty(), "no read before blind write");
    }

    #[test]
    fn update_reads_then_writes_same_key() {
        let s = state();
        let rw = run(s, "update", &["k00001".into(), Value::Int(42)]);
        assert_eq!(rw.tx_type(), TxType::Update);
        assert_eq!(&*rw.reads[0].key, "genchain/k00001");
        assert_eq!(&*rw.writes[0].key, "genchain/k00001");
        // Not an increment: the written value is an opaque string.
        assert!(matches!(rw.writes[0].value, Some(Value::Str(_))));
    }

    #[test]
    fn range_read_observes_interval() {
        let s = state();
        let rw = run(s, "range_read", &["k00001".into(), "k00003".into()]);
        assert_eq!(rw.tx_type(), TxType::RangeRead);
        assert_eq!(rw.range_reads[0].observed.len(), 2);
    }

    #[test]
    fn delete_reads_and_tombstones() {
        let s = state();
        let rw = run(s, "delete", &["k00001".into()]);
        assert_eq!(rw.tx_type(), TxType::Delete);
        assert!(rw.writes[0].is_delete());
    }

    #[test]
    fn inverted_range_observes_nothing() {
        let s = state();
        let rw = run(s, "range_read", &["k00003".into(), "k00001".into()]);
        assert_eq!(rw.range_reads.len(), 1);
        assert!(rw.range_reads[0].observed.is_empty());
    }

    #[test]
    fn malformed_arguments_abort_with_the_accessor_message() {
        let cc = GenChainContract;
        let mut s = state();
        for (activity, args, reason) in [
            ("read", vec![], "argument 0 (key) must be a string"),
            (
                "delete",
                vec![Value::Int(1)],
                "argument 0 (key) must be a string",
            ),
            (
                "range_read",
                vec!["k1".into()],
                "argument 1 (end) must be a string",
            ),
        ] {
            let mut ctx = TxContext::new(&mut s, cc.name());
            assert_eq!(
                cc.execute(&mut ctx, activity, &args),
                ExecStatus::Abort(reason.to_string()),
                "{activity}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown activity")]
    fn unknown_activity_panics() {
        let s = state();
        let _ = run(s, "bogus", &[]);
    }
}

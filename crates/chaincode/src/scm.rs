//! Supply Chain Management (SCM) contract.
//!
//! Models the logistics pipeline of paper §5.1.2 / Figures 2–4. Each product
//! key walks the stage machine
//!
//! ```text
//! 1 = created → 2 = ASN pushed → 3 = shipped → 4 = unloaded
//! ```
//!
//! Activities:
//!
//! * `pushASN(product)` — read product, advance stage 1 → 2;
//! * `ship(product)` — read product, advance stage 2 → 3. When invoked out
//!   of order (stage ≠ 2) the **base contract commits a read-only record**
//!   (data provenance: track who deviated), which is exactly the anomalous
//!   branch BlockOptR's process-model-pruning detects in Figure 2;
//! * `queryASN(product)` — read product;
//! * `unload(product)` — read product, advance stage 3 → 4 (same anomalous
//!   read-only behaviour out of order);
//! * `queryProducts(p1, p2, p3)` — read several products (the reporting
//!   activity that the reordering recommendation reschedules);
//! * `updateAuditInfo(product, audit, nonce)` — reads the product and the
//!   audit entry, writes **only** the audit entry (Figure 3's reorderable
//!   activity: write sets disjoint from the product-stage activities).
//!
//! The *pruned* variant (`ScmContract::pruned()`) aborts anomalous
//! `ship`/`unload` during endorsement, implementing the paper's pruning
//! optimization in the smart contract (§3, §6.2).

use crate::{aborting, arg_str, Contract, ExecStatus, TxContext, Value};

/// The SCM contract; `pruned` controls the anomalous-path behaviour.
#[derive(Debug, Clone, Copy)]
pub struct ScmContract {
    pruned: bool,
}

impl ScmContract {
    /// Chaincode namespace.
    pub const NAME: &'static str = "scm";

    /// The base contract: anomalous paths commit read-only records.
    pub fn base() -> Self {
        ScmContract { pruned: false }
    }

    /// The pruned contract: anomalous paths abort during endorsement.
    pub fn pruned() -> Self {
        ScmContract { pruned: true }
    }

    /// Whether this instance early-aborts anomalous transactions.
    pub fn is_pruned(&self) -> bool {
        self.pruned
    }

    fn stage(ctx: &mut TxContext<'_>, product: &str) -> i64 {
        ctx.get_state(product).and_then(|v| v.as_int()).unwrap_or(0)
    }

    fn advance(
        &self,
        ctx: &mut TxContext<'_>,
        product: &str,
        expect: i64,
        next: i64,
        what: &str,
    ) -> ExecStatus {
        let stage = Self::stage(ctx, product);
        if stage == expect {
            ctx.put_state(product, Value::Int(next));
            ExecStatus::Ok
        } else if self.pruned {
            ExecStatus::Abort(format!(
                "{what}: product {product} at stage {stage}, need {expect}"
            ))
        } else {
            // Anomalous path: commit the read-only evidence on-chain.
            ExecStatus::Ok
        }
    }
}

impl Contract for ScmContract {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn id(&self) -> &str {
        if self.pruned {
            "scm:pruned"
        } else {
            "scm"
        }
    }

    fn execute(&self, ctx: &mut TxContext<'_>, activity: &str, args: &[Value]) -> ExecStatus {
        aborting(|| {
            Ok(match activity {
                "pushASN" => {
                    let product = arg_str(args, 0, "product")?;
                    self.advance(ctx, product, 1, 2, "pushASN")
                }
                "ship" => {
                    let product = arg_str(args, 0, "product")?;
                    self.advance(ctx, product, 2, 3, "ship")
                }
                "queryASN" => {
                    let product = arg_str(args, 0, "product")?;
                    let _ = ctx.get_state(product);
                    ExecStatus::Ok
                }
                "unload" => {
                    let product = arg_str(args, 0, "product")?;
                    self.advance(ctx, product, 3, 4, "unload")
                }
                "queryProducts" => {
                    for arg in args {
                        if let Some(p) = arg.as_str() {
                            let _ = ctx.get_state(p);
                        }
                    }
                    ExecStatus::Ok
                }
                "updateAuditInfo" => {
                    let product = arg_str(args, 0, "product")?;
                    let audit = arg_str(args, 1, "audit")?;
                    let _ = ctx.get_state(product);
                    let _ = ctx.get_state(audit);
                    let nonce = args.get(2).cloned().unwrap_or(Value::Unit);
                    ctx.put_state(audit, Value::Str(format!("audit:{product}:{nonce}")));
                    ExecStatus::Ok
                }
                other => panic!("scm: unknown activity {other:?}"),
            })
        })
    }

    fn activities(&self) -> Vec<&'static str> {
        vec![
            "pushASN",
            "ship",
            "queryASN",
            "unload",
            "queryProducts",
            "updateAuditInfo",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::state::WorldState;
    use fabric_sim::types::TxType;

    fn state_with_stage(stage: i64) -> WorldState {
        let mut s = WorldState::new();
        s.seed("scm/P0001".into(), Value::Int(stage));
        s.seed("scm/A0001".into(), Value::Str("audit:init".into()));
        s
    }

    fn run(
        cc: &ScmContract,
        mut state: WorldState,
        activity: &str,
        args: &[Value],
    ) -> (ExecStatus, fabric_sim::rwset::ReadWriteSet) {
        let mut ctx = TxContext::new(&mut state, cc.name());
        let st = cc.execute(&mut ctx, activity, args);
        (st, ctx.into_rwset())
    }

    #[test]
    fn happy_path_advances_stages() {
        let cc = ScmContract::base();
        let s = state_with_stage(1);
        let (st, rw) = run(&cc, s, "pushASN", &["P0001".into()]);
        assert!(st.is_ok());
        assert_eq!(rw.writes[0].value, Some(Value::Int(2)));
        assert_eq!(rw.tx_type(), TxType::Update);
    }

    #[test]
    fn base_contract_commits_anomalous_ship_read_only() {
        let cc = ScmContract::base();
        let s = state_with_stage(1); // ASN not pushed yet
        let (st, rw) = run(&cc, s, "ship", &["P0001".into()]);
        assert!(st.is_ok(), "base contract records the deviation");
        assert!(rw.writes.is_empty(), "read-only provenance record");
        assert_eq!(rw.tx_type(), TxType::Read);
    }

    #[test]
    fn pruned_contract_aborts_anomalous_ship() {
        let cc = ScmContract::pruned();
        let s = state_with_stage(1);
        let (st, _) = run(&cc, s, "ship", &["P0001".into()]);
        assert!(!st.is_ok(), "pruning aborts during endorsement");
        assert!(cc.is_pruned());
    }

    #[test]
    fn pruned_contract_allows_ordered_flow() {
        let cc = ScmContract::pruned();
        let s = state_with_stage(2);
        let (st, rw) = run(&cc, s, "ship", &["P0001".into()]);
        assert!(st.is_ok());
        assert_eq!(rw.writes[0].value, Some(Value::Int(3)));
    }

    #[test]
    fn unload_requires_shipped() {
        let base = ScmContract::base();
        let s = state_with_stage(3);
        let (st, rw) = run(&base, s, "unload", &["P0001".into()]);
        assert!(st.is_ok());
        assert_eq!(rw.writes[0].value, Some(Value::Int(4)));

        let s2 = state_with_stage(2);
        let (st2, rw2) = run(&base, s2, "unload", &["P0001".into()]);
        assert!(st2.is_ok());
        assert!(rw2.writes.is_empty(), "unload before ship is read-only");
    }

    #[test]
    fn update_audit_info_writes_only_audit_key() {
        // Figure 3: updateAuditInfo reads the product but writes the audit
        // entry — disjoint write sets make it reorderable w.r.t. pushASN.
        let cc = ScmContract::base();
        let s = state_with_stage(1);
        let (st, rw) = run(
            &cc,
            s,
            "updateAuditInfo",
            &["P0001".into(), "A0001".into(), Value::Int(7)],
        );
        assert!(st.is_ok());
        let reads = rw.read_keys();
        assert!(reads.contains(&"scm/P0001") && reads.contains(&"scm/A0001"));
        assert_eq!(rw.write_keys(), ["scm/A0001"]);
    }

    #[test]
    fn query_products_reads_all_arguments() {
        let cc = ScmContract::base();
        let mut s = state_with_stage(1);
        s.seed("scm/P0002".into(), Value::Int(2));
        let (st, rw) = run(&cc, s, "queryProducts", &["P0001".into(), "P0002".into()]);
        assert!(st.is_ok());
        assert_eq!(rw.reads.len(), 2);
        assert!(rw.writes.is_empty());
    }

    #[test]
    fn query_asn_is_single_read() {
        let cc = ScmContract::base();
        let s = state_with_stage(2);
        let (st, rw) = run(&cc, s, "queryASN", &["P0001".into()]);
        assert!(st.is_ok());
        assert_eq!(rw.reads.len(), 1);
        assert_eq!(rw.tx_type(), TxType::Read);
    }
}

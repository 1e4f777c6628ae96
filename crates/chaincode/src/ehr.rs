//! Electronic Health Records (EHR) contract.
//!
//! Patients grant or revoke access rights for medical and research
//! institutes, which query and update the records (paper §5.1.2). The
//! update-heavy workload (70 % `updateRecord`) produces the MVCC-conflict
//! regime of Figure 15.
//!
//! Each patient key holds `Map { access: Str(csv of institutes), record:
//! Str }`. Activities:
//!
//! * `grantAccess(patient, institute)` — read + rewrite the access list;
//! * `revokeAccess(patient, institute)` — read; **revoking an never-granted
//!   institute is the anomalous path** (Figure 15's pruning target): the base
//!   contract commits it read-only, the pruned variant aborts it;
//! * `queryRecord(patient)` — read;
//! * `updateRecord(patient, nonce)` — read + rewrite the record field.

use crate::{aborting, arg_str, Contract, ExecStatus, TxContext, Value};
use std::collections::BTreeMap;

/// The EHR contract; `pruned` selects the anomalous-path behaviour.
#[derive(Debug, Clone, Copy)]
pub struct EhrContract {
    pruned: bool,
}

impl EhrContract {
    /// Chaincode namespace.
    pub const NAME: &'static str = "ehr";

    /// Base behaviour: anomalous revokes commit read-only.
    pub fn base() -> Self {
        EhrContract { pruned: false }
    }

    /// Pruned behaviour: anomalous revokes abort during endorsement.
    pub fn pruned() -> Self {
        EhrContract { pruned: true }
    }

    /// Genesis value for a patient record.
    pub fn genesis_record(patient: &str) -> Value {
        let mut m = BTreeMap::new();
        m.insert("access".to_string(), Value::Str(String::new()));
        m.insert(
            "record".to_string(),
            Value::Str(format!("record:{patient}")),
        );
        Value::Map(m)
    }

    fn load(ctx: &mut TxContext<'_>, patient: &str) -> Option<BTreeMap<String, Value>> {
        ctx.get_state(patient).and_then(|v| match v {
            Value::Map(m) => Some(m),
            _ => None,
        })
    }

    fn access_list(m: &BTreeMap<String, Value>) -> Vec<String> {
        m.get("access")
            .and_then(Value::as_str)
            .map(|s| {
                s.split(',')
                    .filter(|x| !x.is_empty())
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default()
    }
}

impl Contract for EhrContract {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn id(&self) -> &str {
        if self.pruned {
            "ehr:pruned"
        } else {
            "ehr"
        }
    }

    fn execute(&self, ctx: &mut TxContext<'_>, activity: &str, args: &[Value]) -> ExecStatus {
        aborting(|| {
            Ok(match activity {
                "grantAccess" => {
                    let patient = arg_str(args, 0, "patient")?;
                    let institute = arg_str(args, 1, "institute")?;
                    let Some(mut m) = Self::load(ctx, patient) else {
                        return Err(format!("unknown patient {patient}"));
                    };
                    let mut list = Self::access_list(&m);
                    if !list.iter().any(|i| i == institute) {
                        list.push(institute.to_string());
                    }
                    m.insert("access".to_string(), Value::Str(list.join(",")));
                    ctx.put_state(patient, Value::Map(m));
                    ExecStatus::Ok
                }
                "revokeAccess" => {
                    let patient = arg_str(args, 0, "patient")?;
                    let institute = arg_str(args, 1, "institute")?;
                    let Some(mut m) = Self::load(ctx, patient) else {
                        return Err(format!("unknown patient {patient}"));
                    };
                    let mut list = Self::access_list(&m);
                    let had = list.iter().any(|i| i == institute);
                    if had {
                        list.retain(|i| i != institute);
                        m.insert("access".to_string(), Value::Str(list.join(",")));
                        ctx.put_state(patient, Value::Map(m));
                        ExecStatus::Ok
                    } else if self.pruned {
                        ExecStatus::Abort(format!("revoke without grant: {institute} on {patient}"))
                    } else {
                        // Anomalous path committed read-only for provenance.
                        ExecStatus::Ok
                    }
                }
                "queryRecord" => {
                    let patient = arg_str(args, 0, "patient")?;
                    let _ = ctx.get_state(patient);
                    ExecStatus::Ok
                }
                "updateRecord" => {
                    let patient = arg_str(args, 0, "patient")?;
                    let Some(mut m) = Self::load(ctx, patient) else {
                        return Err(format!("unknown patient {patient}"));
                    };
                    let nonce = args.get(1).cloned().unwrap_or(Value::Unit);
                    m.insert(
                        "record".to_string(),
                        Value::Str(format!("record:{patient}:{nonce}")),
                    );
                    ctx.put_state(patient, Value::Map(m));
                    ExecStatus::Ok
                }
                other => panic!("ehr: unknown activity {other:?}"),
            })
        })
    }

    fn activities(&self) -> Vec<&'static str> {
        vec!["grantAccess", "revokeAccess", "queryRecord", "updateRecord"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::state::WorldState;
    use fabric_sim::types::TxType;

    fn state() -> WorldState {
        let mut s = WorldState::new();
        s.seed("ehr/PT0001".into(), EhrContract::genesis_record("PT0001"));
        s
    }

    fn granted_state() -> WorldState {
        let mut s = state();
        let mut m = BTreeMap::new();
        m.insert("access".to_string(), Value::Str("inst1".into()));
        m.insert("record".to_string(), Value::Str("r".into()));
        s.seed("ehr/PT0002".into(), Value::Map(m));
        s
    }

    fn run(
        cc: &EhrContract,
        mut s: WorldState,
        activity: &str,
        args: &[Value],
    ) -> (ExecStatus, fabric_sim::rwset::ReadWriteSet) {
        let mut ctx = TxContext::new(&mut s, cc.name());
        let st = cc.execute(&mut ctx, activity, args);
        (st, ctx.into_rwset())
    }

    #[test]
    fn grant_appends_institute() {
        let cc = EhrContract::base();
        let s = state();
        let (st, rw) = run(&cc, s, "grantAccess", &["PT0001".into(), "inst9".into()]);
        assert!(st.is_ok());
        let written = rw.writes[0].value.as_ref().unwrap().as_map().unwrap();
        assert_eq!(written.get("access"), Some(&Value::Str("inst9".into())));
        assert_eq!(rw.tx_type(), TxType::Update);
    }

    #[test]
    fn grant_is_idempotent_on_list() {
        let cc = EhrContract::base();
        let s = granted_state();
        let (st, rw) = run(&cc, s, "grantAccess", &["PT0002".into(), "inst1".into()]);
        assert!(st.is_ok());
        let written = rw.writes[0].value.as_ref().unwrap().as_map().unwrap();
        assert_eq!(written.get("access"), Some(&Value::Str("inst1".into())));
    }

    #[test]
    fn revoke_after_grant_removes() {
        let cc = EhrContract::base();
        let s = granted_state();
        let (st, rw) = run(&cc, s, "revokeAccess", &["PT0002".into(), "inst1".into()]);
        assert!(st.is_ok());
        let written = rw.writes[0].value.as_ref().unwrap().as_map().unwrap();
        assert_eq!(written.get("access"), Some(&Value::Str(String::new())));
    }

    #[test]
    fn anomalous_revoke_base_commits_read_only() {
        let cc = EhrContract::base();
        let s = state();
        let (st, rw) = run(&cc, s, "revokeAccess", &["PT0001".into(), "ghost".into()]);
        assert!(st.is_ok());
        assert!(rw.writes.is_empty());
        assert_eq!(rw.tx_type(), TxType::Read);
    }

    #[test]
    fn anomalous_revoke_pruned_aborts() {
        let cc = EhrContract::pruned();
        let s = state();
        let (st, _) = run(&cc, s, "revokeAccess", &["PT0001".into(), "ghost".into()]);
        assert!(!st.is_ok());
    }

    #[test]
    fn update_record_rewrites_record_field() {
        let cc = EhrContract::base();
        let s = state();
        let (st, rw) = run(&cc, s, "updateRecord", &["PT0001".into(), Value::Int(3)]);
        assert!(st.is_ok());
        assert_eq!(rw.tx_type(), TxType::Update);
        let written = rw.writes[0].value.as_ref().unwrap().as_map().unwrap();
        assert_eq!(
            written.get("record"),
            Some(&Value::Str("record:PT0001:3".into()))
        );
    }

    #[test]
    fn unknown_patient_aborts() {
        let cc = EhrContract::base();
        let s = state();
        let (st, _) = run(&cc, s, "updateRecord", &["NOPE".into(), Value::Int(1)]);
        assert!(!st.is_ok());
    }

    #[test]
    fn query_record_is_read_only() {
        let cc = EhrContract::base();
        let s = state();
        let (st, rw) = run(&cc, s, "queryRecord", &["PT0001".into()]);
        assert!(st.is_ok());
        assert_eq!(rw.tx_type(), TxType::Read);
    }
}

//! Loan Application Process (LAP) contract and the altered data model.
//!
//! Reproduces the paper's §5.1.3 smart contract for the BPI-Challenge-2017
//! loan process of a Dutch financial institute. The paper's first
//! implementation uses the **employeeID as the key** whose value is an array
//! of application structures — convenient for "all applications processed by
//! an employee" queries, but employee 1 processes the most applications, so
//! their key becomes hot and every activity on any of their applications
//! conflicts (Figure 17's baseline).
//!
//! BlockOptR's *data model alteration* swaps the primary key to the
//! **applicationID** with the employee recorded inside the value
//! ([`LapByApplicationContract`]), removing the hot key.
//!
//! Both contracts expose the same loan-process activities:
//! `create`, `submit`, `handleLeads`, `createOffer`, `sendOffer`,
//! `validate`, `approve`, `decline`, `cancel`, `queryEmployee`.

use crate::{aborting, arg_str, Contract, ExecStatus, TxContext, Value};
use std::collections::BTreeMap;

/// The loan-process activity names, in canonical flow order.
pub const LAP_ACTIVITIES: [&str; 9] = [
    "create",
    "submit",
    "handleLeads",
    "createOffer",
    "sendOffer",
    "validate",
    "approve",
    "decline",
    "cancel",
];

fn application_entry(app: &str, employee: &str, amount: i64, status: &str) -> Value {
    let mut m = BTreeMap::new();
    m.insert("application".to_string(), Value::Str(app.to_string()));
    m.insert("employee".to_string(), Value::Str(employee.to_string()));
    m.insert("loan_type".to_string(), Value::Str("consumer".to_string()));
    m.insert("amount".to_string(), Value::Int(amount));
    m.insert("status".to_string(), Value::Str(status.to_string()));
    Value::Map(m)
}

/// Paper data model: key = employeeID, value = array of application records.
#[derive(Debug, Default, Clone, Copy)]
pub struct LapByEmployeeContract;

impl LapByEmployeeContract {
    /// Chaincode namespace.
    pub const NAME: &'static str = "lap";
}

impl LapByEmployeeContract {
    fn upsert(ctx: &mut TxContext<'_>, employee: &str, app: &str, amount: i64, status: &str) {
        let mut entries = match ctx.get_state(employee) {
            Some(Value::List(items)) => items,
            _ => Vec::new(),
        };
        let fresh = application_entry(app, employee, amount, status);
        if let Some(slot) = entries.iter_mut().find(|e| {
            e.as_map()
                .and_then(|m| m.get("application"))
                .and_then(Value::as_str)
                == Some(app)
        }) {
            *slot = fresh;
        } else {
            entries.push(fresh);
        }
        ctx.put_state(employee, Value::List(entries));
    }
}

impl Contract for LapByEmployeeContract {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn id(&self) -> &str {
        "lap:by-employee"
    }

    fn execute(&self, ctx: &mut TxContext<'_>, activity: &str, args: &[Value]) -> ExecStatus {
        aborting(|| {
            Ok(match activity {
                "queryEmployee" => {
                    let employee = arg_str(args, 0, "employee")?;
                    let _ = ctx.get_state(employee);
                    ExecStatus::Ok
                }
                act if LAP_ACTIVITIES.contains(&act) => {
                    let employee = arg_str(args, 0, "employee")?;
                    let app = arg_str(args, 1, "application")?;
                    let amount = args.get(2).and_then(Value::as_int).unwrap_or(0);
                    Self::upsert(ctx, employee, app, amount, act);
                    ExecStatus::Ok
                }
                other => panic!("lap: unknown activity {other:?}"),
            })
        })
    }

    fn activities(&self) -> Vec<&'static str> {
        let mut acts = LAP_ACTIVITIES.to_vec();
        acts.push("queryEmployee");
        acts
    }
}

/// Altered data model: key = applicationID, employee inside the value.
#[derive(Debug, Default, Clone, Copy)]
pub struct LapByApplicationContract;

impl LapByApplicationContract {
    /// Chaincode namespace (upgraded in place).
    pub const NAME: &'static str = "lap";
}

impl Contract for LapByApplicationContract {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn id(&self) -> &str {
        "lap:by-application"
    }

    fn execute(&self, ctx: &mut TxContext<'_>, activity: &str, args: &[Value]) -> ExecStatus {
        aborting(|| {
            Ok(match activity {
                "queryEmployee" => {
                    // Per-employee reporting now scans applications; kept cheap
                    // via the employee index key (read-only either way).
                    let employee = arg_str(args, 0, "employee")?;
                    let _ = ctx.get_state(&format!("emp-index:{employee}"));
                    ExecStatus::Ok
                }
                "create" => {
                    let employee = arg_str(args, 0, "employee")?;
                    let app = arg_str(args, 1, "application")?;
                    let amount = args.get(2).and_then(Value::as_int).unwrap_or(0);
                    ctx.put_state(app, application_entry(app, employee, amount, "create"));
                    ExecStatus::Ok
                }
                act if LAP_ACTIVITIES.contains(&act) => {
                    let employee = arg_str(args, 0, "employee")?;
                    let app = arg_str(args, 1, "application")?;
                    let amount = args.get(2).and_then(Value::as_int).unwrap_or(0);
                    let _ = ctx.get_state(app);
                    ctx.put_state(app, application_entry(app, employee, amount, act));
                    ExecStatus::Ok
                }
                other => panic!("lap-by-app: unknown activity {other:?}"),
            })
        })
    }

    fn activities(&self) -> Vec<&'static str> {
        let mut acts = LAP_ACTIVITIES.to_vec();
        acts.push("queryEmployee");
        acts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::state::WorldState;
    use fabric_sim::types::TxType;

    #[test]
    fn by_employee_all_activities_hit_employee_key() {
        let mut s = WorldState::new();
        let cc = LapByEmployeeContract;
        for act in ["create", "submit", "validate", "approve"] {
            let mut ctx = TxContext::new(&mut s, cc.name());
            assert!(cc
                .execute(
                    &mut ctx,
                    act,
                    &["E001".into(), "APP00001".into(), Value::Int(5000)]
                )
                .is_ok());
            let rw = ctx.into_rwset();
            assert_eq!(&*rw.writes[0].key, "lap/E001", "{act} writes employee key");
        }
    }

    #[test]
    fn by_employee_two_applications_same_employee_conflict() {
        // The structural hot-key problem: different applications handled by
        // the same employee share a key.
        let mut s = WorldState::new();
        let cc = LapByEmployeeContract;
        let mut c1 = TxContext::new(&mut s, cc.name());
        cc.execute(
            &mut c1,
            "create",
            &["E001".into(), "APP1".into(), Value::Int(1)],
        );
        let k1 = c1.into_rwset().writes[0].key.clone();
        let mut c2 = TxContext::new(&mut s, cc.name());
        cc.execute(
            &mut c2,
            "create",
            &["E001".into(), "APP2".into(), Value::Int(2)],
        );
        assert_eq!(k1, c2.into_rwset().writes[0].key);
    }

    #[test]
    fn by_employee_upsert_replaces_entry() {
        let mut s = WorldState::new();
        s.seed(
            "lap/E001".into(),
            Value::List(vec![application_entry("APP1", "E001", 100, "create")]),
        );
        let cc = LapByEmployeeContract;
        let mut ctx = TxContext::new(&mut s, cc.name());
        cc.execute(
            &mut ctx,
            "submit",
            &["E001".into(), "APP1".into(), Value::Int(100)],
        );
        let rw = ctx.into_rwset();
        let list = rw.writes[0].value.as_ref().unwrap().as_list().unwrap();
        assert_eq!(list.len(), 1, "entry replaced, not duplicated");
        assert_eq!(
            list[0].as_map().unwrap().get("status"),
            Some(&Value::Str("submit".into()))
        );
    }

    #[test]
    fn by_application_uses_distinct_keys() {
        let mut s = WorldState::new();
        let cc = LapByApplicationContract;
        let mut c1 = TxContext::new(&mut s, cc.name());
        cc.execute(
            &mut c1,
            "create",
            &["E001".into(), "APP1".into(), Value::Int(1)],
        );
        let k1 = c1.into_rwset().writes[0].key.clone();
        let mut c2 = TxContext::new(&mut s, cc.name());
        cc.execute(
            &mut c2,
            "create",
            &["E001".into(), "APP2".into(), Value::Int(2)],
        );
        let k2 = c2.into_rwset().writes[0].key.clone();
        assert_ne!(k1, k2, "one key per application");
        assert_eq!(&*k1, "lap/APP1");
    }

    #[test]
    fn by_application_create_is_blind_insert() {
        let mut s = WorldState::new();
        let cc = LapByApplicationContract;
        let mut ctx = TxContext::new(&mut s, cc.name());
        cc.execute(
            &mut ctx,
            "create",
            &["E001".into(), "APP1".into(), Value::Int(1)],
        );
        let rw = ctx.into_rwset();
        assert_eq!(rw.tx_type(), TxType::Write);
    }

    #[test]
    fn by_application_followup_reads_then_writes() {
        let mut s = WorldState::new();
        s.seed(
            "lap/APP1".into(),
            application_entry("APP1", "E001", 1, "create"),
        );
        let cc = LapByApplicationContract;
        let mut ctx = TxContext::new(&mut s, cc.name());
        cc.execute(
            &mut ctx,
            "validate",
            &["E001".into(), "APP1".into(), Value::Int(1)],
        );
        let rw = ctx.into_rwset();
        assert_eq!(rw.tx_type(), TxType::Update);
        let m = rw.writes[0].value.as_ref().unwrap().as_map().unwrap();
        assert_eq!(m.get("status"), Some(&Value::Str("validate".into())));
        assert_eq!(m.get("employee"), Some(&Value::Str("E001".into())));
    }

    #[test]
    fn query_employee_read_only_in_both_models() {
        let mut s = WorldState::new();
        let by_emp = LapByEmployeeContract;
        let mut c1 = TxContext::new(&mut s, by_emp.name());
        by_emp.execute(&mut c1, "queryEmployee", &["E001".into()]);
        assert!(c1.into_rwset().writes.is_empty());

        let by_app = LapByApplicationContract;
        let mut c2 = TxContext::new(&mut s, by_app.name());
        by_app.execute(&mut c2, "queryEmployee", &["E001".into()]);
        assert!(c2.into_rwset().writes.is_empty());
    }

    #[test]
    fn entry_structure_matches_paper_fields() {
        let v = application_entry("APP1", "E007", 25_000, "validate");
        let m = v.as_map().unwrap();
        for field in ["application", "employee", "loan_type", "amount", "status"] {
            assert!(m.contains_key(field), "missing {field}");
        }
    }
}

//! The chaincode execution interface.
//!
//! A [`Contract`] is a deterministic function from `(activity, args, state)`
//! to a [`ReadWriteSet`]. An endorsement's result is [`Contract::execute`]
//! run with a [`TxContext`] that wraps the committed world state *at
//! endorsement time*; every accessed key is recorded with its observed
//! version, exactly like Fabric's shim records
//! `GetState`/`PutState`/`GetStateByRange` calls.
//!
//! Contracts can *early-abort* a transaction (`ExecStatus::Abort`) — the
//! mechanism used by the paper's *process model pruning* optimization, where
//! anomalous transactions are rejected during endorsement so they skip the
//! expensive ordering and validation phases (§3).

use crate::rwset::ReadWriteSet;
use crate::state::WorldState;
use crate::types::Value;

/// Outcome of a simulated chaincode execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecStatus {
    /// Execution succeeded; the read-write set may be submitted for ordering.
    Ok,
    /// The contract rejected the transaction during endorsement (early abort).
    /// The string is the contract's reason, surfaced in simulation reports.
    Abort(String),
}

impl ExecStatus {
    /// Whether execution succeeded.
    pub fn is_ok(&self) -> bool {
        matches!(self, ExecStatus::Ok)
    }
}

/// Execution context handed to a contract: a read view of the committed
/// world state plus the accumulating read-write set.
///
/// Writes are buffered in the read-write set (they do **not** become visible
/// to subsequent reads within the same execution — matching Fabric, where
/// `GetState` reads committed state only).
///
/// The context borrows the state mutably for one reason: the state owns the
/// run's key handles. Naming a key as `"namespace/key"` looks its handle up
/// there, so it allocates only for a key the run has never named, and no
/// committed value changes. The namespace is borrowed too: opening a
/// context allocates nothing.
pub struct TxContext<'a> {
    state: &'a mut WorldState,
    namespace: &'a str,
    rwset: ReadWriteSet,
}

impl<'a> TxContext<'a> {
    /// A context over `state`, scoping keys under `namespace`.
    pub fn new(state: &'a mut WorldState, namespace: &'a str) -> Self {
        TxContext {
            state,
            namespace,
            rwset: ReadWriteSet::new(),
        }
    }

    /// Current namespace (chaincode name).
    pub fn namespace(&self) -> &str {
        self.namespace
    }

    /// Switch namespace for a cross-contract invocation
    /// (`invokeChaincode` in Fabric merges the callee's accesses into the
    /// caller's read-write set on the same channel).
    pub fn set_namespace(&mut self, namespace: &'a str) {
        self.namespace = namespace;
    }

    /// Read a key from committed state, recording the observed version.
    pub fn get_state(&mut self, key: &str) -> Option<Value> {
        let (qk, found) = self.state.resolve(self.namespace, key);
        let (version, value) = found.map(|vv| (vv.version, vv.value.clone())).unzip();
        self.rwset.record_read(qk, version);
        value
    }

    /// Buffer a write.
    pub fn put_state(&mut self, key: &str, value: Value) {
        let qk = self.state.resolve(self.namespace, key).0;
        self.rwset.record_write(qk, Some(value));
    }

    /// Buffer a delete.
    pub fn delete_state(&mut self, key: &str) {
        let qk = self.state.resolve(self.namespace, key).0;
        self.rwset.record_write(qk, None);
    }

    /// Range scan `[start, end)` over committed state, recording the observed
    /// result set for phantom detection. Returns `(unqualified key, value)`.
    pub fn get_state_by_range(&mut self, start: &str, end: &str) -> Vec<(String, Value)> {
        self.get_state_by_range_limited(start, end, usize::MAX)
    }

    /// Paginated range scan: at most `limit` rows (Fabric's paginated
    /// `GetStateByRangeWithPagination`). Only the returned page is recorded
    /// in the read set.
    pub fn get_state_by_range_limited(
        &mut self,
        start: &str,
        end: &str,
        limit: usize,
    ) -> Vec<(String, Value)> {
        let qstart = self.state.resolve(self.namespace, start).0;
        let qend = self.state.resolve(self.namespace, end).0;
        let mut observed = Vec::new();
        let mut out = Vec::new();
        for (k, vv) in self.state.range(&qstart, &qend).take(limit) {
            observed.push((k.clone(), vv.version));
            let short = k
                .strip_prefix(self.namespace)
                .and_then(|rest| rest.strip_prefix('/'))
                .unwrap_or(k)
                .to_string();
            out.push((short, vv.value.clone()));
        }
        self.rwset.record_range(qstart, qend, observed);
        out
    }

    /// Number of state accesses so far (used to scale simulated execution
    /// cost with contract work).
    pub fn access_count(&self) -> usize {
        self.rwset.reads.len()
            + self.rwset.writes.len()
            + self
                .rwset
                .range_reads
                .iter()
                .map(|r| r.observed.len().max(1))
                .sum::<usize>()
    }

    /// Finish execution and take the accumulated read-write set.
    pub fn into_rwset(self) -> ReadWriteSet {
        self.rwset
    }
}

/// A deterministic smart contract.
///
/// [`execute`](Contract::execute) must be a pure function of the committed
/// state it reads through the [`TxContext`], the activity and the
/// arguments: no interior mutability, no I/O, no clock and no RNG. The
/// simulator relies on this. It runs a proposal's chaincode once per
/// world-state generation and gives that one result to every endorsement
/// starting at the same generation, so a contract cannot count on being
/// called once per endorsement.
pub trait Contract: Send + Sync {
    /// Chaincode name; doubles as the world-state namespace.
    fn name(&self) -> &str;

    /// Registry identifier — unlike [`name`](Contract::name), distinct for
    /// every *variant* of a chaincode (a pruned rewrite shares its base
    /// contract's namespace but not its identity). Contract registries key
    /// lookups on this, so a serialized scenario can name the exact
    /// implementation to install. Defaults to the chaincode name.
    fn id(&self) -> &str {
        self.name()
    }

    /// Execute `activity(args)` against the given context.
    fn execute(&self, ctx: &mut TxContext<'_>, activity: &str, args: &[Value]) -> ExecStatus;

    /// The activity names this contract exposes (for documentation and
    /// workload validation).
    fn activities(&self) -> Vec<&'static str>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rwset::Version;

    fn seeded_state() -> WorldState {
        let mut s = WorldState::new();
        s.seed("cc/a".into(), Value::Int(10));
        s.seed("cc/b".into(), Value::Int(20));
        s.seed("other/a".into(), Value::Int(99));
        s
    }

    #[test]
    fn reads_are_namespaced_and_versioned() {
        let mut state = seeded_state();
        let mut ctx = TxContext::new(&mut state, "cc");
        assert_eq!(ctx.get_state("a"), Some(Value::Int(10)));
        assert_eq!(ctx.get_state("missing"), None);
        let rw = ctx.into_rwset();
        assert_eq!(rw.reads.len(), 2);
        assert_eq!(&*rw.reads[0].key, "cc/a");
        assert_eq!(rw.reads[0].version, Some(Version::new(0, 0)));
        assert_eq!(rw.reads[1].version, None, "absent key records None");
    }

    #[test]
    fn writes_are_buffered_not_visible() {
        let mut state = seeded_state();
        let mut ctx = TxContext::new(&mut state, "cc");
        ctx.put_state("a", Value::Int(11));
        // Fabric semantics: GetState still sees committed state.
        assert_eq!(ctx.get_state("a"), Some(Value::Int(10)));
        let rw = ctx.into_rwset();
        assert_eq!(&*rw.writes[0].key, "cc/a");
        assert_eq!(rw.writes[0].value, Some(Value::Int(11)));
    }

    #[test]
    fn namespace_isolation() {
        let mut state = seeded_state();
        let mut ctx = TxContext::new(&mut state, "nsX");
        assert_eq!(ctx.get_state("a"), None, "other namespace invisible");
    }

    #[test]
    fn cross_contract_invocation_merges_rwset() {
        let mut state = seeded_state();
        let mut ctx = TxContext::new(&mut state, "cc");
        ctx.get_state("a");
        ctx.set_namespace("other");
        assert_eq!(ctx.get_state("a"), Some(Value::Int(99)));
        let rw = ctx.into_rwset();
        let keys: Vec<_> = rw.reads.iter().map(|r| &*r.key).collect();
        assert_eq!(keys, vec!["cc/a", "other/a"]);
    }

    #[test]
    fn range_records_observed_set_and_strips_prefix() {
        let mut state = seeded_state();
        let mut ctx = TxContext::new(&mut state, "cc");
        let rows = ctx.get_state_by_range("a", "z");
        assert_eq!(
            rows.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            vec!["a", "b"]
        );
        let rw = ctx.into_rwset();
        assert_eq!(rw.range_reads.len(), 1);
        assert_eq!(rw.range_reads[0].observed.len(), 2);
        assert_eq!(&*rw.range_reads[0].start, "cc/a");
    }

    #[test]
    fn delete_buffers_tombstone() {
        let mut state = seeded_state();
        let mut ctx = TxContext::new(&mut state, "cc");
        ctx.delete_state("b");
        let rw = ctx.into_rwset();
        assert!(rw.writes[0].is_delete());
    }

    #[test]
    fn access_count_reflects_work() {
        let mut state = seeded_state();
        let mut ctx = TxContext::new(&mut state, "cc");
        ctx.get_state("a");
        ctx.put_state("c", Value::Unit);
        ctx.get_state_by_range("a", "z");
        assert_eq!(ctx.access_count(), 1 + 1 + 2);
    }

    #[test]
    fn exec_status_helpers() {
        assert!(ExecStatus::Ok.is_ok());
        assert!(!ExecStatus::Abort("why".into()).is_ok());
    }
}

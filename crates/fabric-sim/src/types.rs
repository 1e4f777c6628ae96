//! Identifiers and values shared across the simulated network.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A world-state key, namespaced per chaincode by a `"namespace/"` prefix
/// (Fabric scopes each chaincode's state the same way).
///
/// A shared handle: a run's [`WorldState`](crate::state::WorldState) hands
/// out one allocation per distinct key, and read-write sets, envelopes and
/// the analyzer's records clone that handle instead of copying the string.
pub type Key = std::sync::Arc<str>;

/// An interned identifier: contract, activity, and namespace names are
/// shared `Arc<str>`s, so schedule rewrites, request clones, and committed
/// transaction envelopes copy a pointer instead of re-allocating the same
/// handful of strings millions of times (the simulator's hot path).
pub type Name = std::sync::Arc<str>;

/// Intern a name: repeated calls with equal strings return clones of one
/// shared allocation. The table is process-wide and only ever grows —
/// workloads draw from a small fixed vocabulary of contract and activity
/// names, so this stays tiny. Call sites that already hold an `Arc<str>`
/// should clone it directly instead.
pub fn intern(name: &str) -> Name {
    use std::collections::BTreeSet;
    use std::sync::{Mutex, OnceLock};
    static TABLE: OnceLock<Mutex<BTreeSet<Name>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(BTreeSet::new()));
    let mut names = table.lock().expect("intern table lock");
    match names.get(name) {
        Some(existing) => existing.clone(),
        None => {
            let fresh: Name = std::sync::Arc::from(name);
            names.insert(fresh.clone());
            fresh
        }
    }
}

/// An organization in the consortium (`Org1`, `Org2`, …: 1-based display,
/// so `OrgId(u16::MAX)` is `Org65536`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct OrgId(pub u16);

impl OrgId {
    /// Display name used by policies and logs (`Org1` for index 0).
    pub fn name(self) -> String {
        self.to_string()
    }
}

impl fmt::Display for OrgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Widened: the 1-based number of the last index exceeds `u16`.
        write!(f, "Org{}", u32::from(self.0) + 1)
    }
}

/// An endorsing peer, identified by its organization and index within it.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct PeerId {
    /// Owning organization.
    pub org: OrgId,
    /// Peer index within the organization.
    pub index: u16,
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer{}.{}", self.index, self.org)
    }
}

/// A client worker (Caliper-style), identified by its organization and index.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ClientId {
    /// Organization the client is registered with.
    pub org: OrgId,
    /// Worker index within the organization.
    pub index: u16,
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client{}.{}", self.index, self.org)
    }
}

/// A transaction identifier, unique within a simulation run.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TxId(pub u64);

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx{}", self.0)
    }
}

/// Transaction type, derived from the read-write set exactly as the paper's
/// attribute (8): `read`, `write`, `update`, `range read`, `delete`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TxType {
    /// Only reads, no writes, no range scans.
    Read,
    /// Writes keys it did not read (blind write / insert).
    Write,
    /// Reads and writes an overlapping key set.
    Update,
    /// Contains at least one range scan (and no writes/deletes).
    RangeRead,
    /// Deletes at least one key.
    Delete,
}

impl fmt::Display for TxType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TxType::Read => "read",
            TxType::Write => "write",
            TxType::Update => "update",
            TxType::RangeRead => "range_read",
            TxType::Delete => "delete",
        };
        f.write_str(s)
    }
}

/// A world-state value.
///
/// Contracts store counters, strings, records and arrays of records; the
/// variants cover everything the six evaluation contracts need while keeping
/// values comparable and serializable.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Value {
    /// Unit marker (e.g. "key exists" flags).
    Unit,
    /// Signed integer (counters, vote tallies, play counts).
    Int(i64),
    /// UTF-8 string (status fields, metadata).
    Str(String),
    /// Ordered list (e.g. the LAP per-employee application array).
    List(Vec<Value>),
    /// String-keyed record (e.g. a loan application structure).
    Map(BTreeMap<String, Value>),
}

impl Value {
    /// Integer view, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// List view, if this is a [`Value::List`].
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// Map view, if this is a [`Value::Map`].
    pub fn as_map(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Rough serialized size in bytes, used for block-bytes cutting.
    pub fn approx_size(&self) -> u64 {
        match self {
            Value::Unit => 1,
            Value::Int(_) => 8,
            Value::Str(s) => s.len() as u64,
            Value::List(items) => 8 + items.iter().map(Value::approx_size).sum::<u64>(),
            Value::Map(m) => {
                8 + m
                    .iter()
                    .map(|(k, v)| k.len() as u64 + v.approx_size())
                    .sum::<u64>()
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => f.write_str("()"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => f.write_str(s),
            Value::List(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Map(m) => {
                f.write_str("{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{k}:{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn org_and_peer_display() {
        assert_eq!(OrgId(0).to_string(), "Org1");
        assert_eq!(OrgId(3).name(), "Org4");
        let p = PeerId {
            org: OrgId(1),
            index: 2,
        };
        assert_eq!(p.to_string(), "peer2.Org2");
        let c = ClientId {
            org: OrgId(0),
            index: 7,
        };
        assert_eq!(c.to_string(), "client7.Org1");
        let last = ClientId {
            org: OrgId(u16::MAX),
            index: u16::MAX,
        };
        assert_eq!(OrgId(u16::MAX).name(), "Org65536");
        assert_eq!(last.to_string(), "client65535.Org65536");
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Str("x".into()).as_int(), None);
        assert_eq!(Value::Str("hi".into()).as_str(), Some("hi"));
        let l = Value::List(vec![Value::Int(1)]);
        assert_eq!(l.as_list().map(|s| s.len()), Some(1));
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), Value::Int(1));
        assert!(Value::Map(m).as_map().is_some());
    }

    #[test]
    fn value_sizes_are_monotone() {
        let small = Value::Str("ab".into());
        let big = Value::List(vec![small.clone(), Value::Int(1), Value::Str("xyz".into())]);
        assert!(big.approx_size() > small.approx_size());
        assert_eq!(Value::Unit.approx_size(), 1);
    }

    #[test]
    fn value_display_is_compact() {
        let mut m = BTreeMap::new();
        m.insert("k".to_string(), Value::Int(3));
        let v = Value::List(vec![Value::Map(m), Value::Str("s".into())]);
        assert_eq!(v.to_string(), "[{k:3},s]");
    }

    #[test]
    fn tx_type_display_matches_paper_vocabulary() {
        assert_eq!(TxType::Read.to_string(), "read");
        assert_eq!(TxType::RangeRead.to_string(), "range_read");
        assert_eq!(TxType::Update.to_string(), "update");
        assert_eq!(TxType::Write.to_string(), "write");
        assert_eq!(TxType::Delete.to_string(), "delete");
    }

    #[test]
    fn intern_shares_one_allocation() {
        let a = intern("play");
        let b = intern("play");
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        let c = intern("pause");
        assert_eq!(&*c, "pause");
        assert!(!std::sync::Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn value_from_conversions() {
        assert_eq!(Value::from(4i64), Value::Int(4));
        assert_eq!(Value::from("s"), Value::Str("s".into()));
        assert_eq!(Value::from(String::from("t")), Value::Str("t".into()));
    }
}

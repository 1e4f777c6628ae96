//! The versioned world state.
//!
//! A single committed key-value store shared by all peers. The simulator
//! processes endorsement and commit events in global time order, so "the
//! committed state at time t" is always exactly this structure — peers never
//! diverge (they validate deterministically and commit in lock-step, as the
//! paper's single-channel Fabric deployment does).

use crate::rwset::{Version, WriteItem};
use crate::types::{Key, Value};
use std::collections::BTreeMap;
use std::ops::Bound;

/// A committed value and the version of the transaction that wrote it.
#[derive(Debug, Clone, PartialEq)]
pub struct VersionedValue {
    /// Current value.
    pub value: Value,
    /// Version of the last committed write.
    pub version: Version,
}

/// The committed world state: an ordered map so range scans are natural.
#[derive(Debug, Clone, Default)]
pub struct WorldState {
    map: BTreeMap<Key, VersionedValue>,
}

impl WorldState {
    /// An empty world state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a key.
    pub fn get(&self, key: &str) -> Option<&VersionedValue> {
        self.map.get(key)
    }

    /// The committed version of a key, if present.
    pub fn version_of(&self, key: &str) -> Option<Version> {
        self.map.get(key).map(|vv| vv.version)
    }

    /// Range scan over `[start, end)` in key order.
    pub fn range<'a>(
        &'a self,
        start: &str,
        end: &str,
    ) -> impl Iterator<Item = (&'a Key, &'a VersionedValue)> + 'a {
        self.map
            .range::<str, _>((Bound::Included(start), Bound::Excluded(end)))
    }

    /// Directly set a key (used for genesis/bootstrap state, version 0:0).
    pub fn seed(&mut self, key: Key, value: Value) {
        self.map.insert(
            key,
            VersionedValue {
                value,
                version: Version::new(0, 0),
            },
        );
    }

    /// Apply the write set of a validated transaction at `version`. An
    /// existing key is updated in place; only a new key is cloned in.
    pub fn apply(&mut self, writes: &[WriteItem], version: Version) {
        for w in writes {
            match &w.value {
                Some(v) => match self.map.get_mut(w.key.as_str()) {
                    Some(slot) => {
                        slot.value = v.clone();
                        slot.version = version;
                    }
                    None => {
                        self.map.insert(
                            w.key.clone(),
                            VersionedValue {
                                value: v.clone(),
                                version,
                            },
                        );
                    }
                },
                None => {
                    self.map.remove(&w.key);
                }
            }
        }
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the state is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate over all live keys in order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &VersionedValue)> {
        self.map.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(key: &str, val: i64) -> WriteItem {
        WriteItem {
            key: key.to_string(),
            value: Some(Value::Int(val)),
        }
    }

    fn del(key: &str) -> WriteItem {
        WriteItem {
            key: key.to_string(),
            value: None,
        }
    }

    #[test]
    fn apply_inserts_with_version() {
        let mut s = WorldState::new();
        s.apply(&[w("a", 1)], Version::new(3, 2));
        assert_eq!(s.get("a").unwrap().value, Value::Int(1));
        assert_eq!(s.version_of("a"), Some(Version::new(3, 2)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn apply_overwrites_bump_version() {
        let mut s = WorldState::new();
        s.apply(&[w("a", 1)], Version::new(1, 0));
        s.apply(&[w("a", 2)], Version::new(2, 5));
        assert_eq!(s.get("a").unwrap().value, Value::Int(2));
        assert_eq!(s.version_of("a"), Some(Version::new(2, 5)));
    }

    #[test]
    fn delete_removes_key() {
        let mut s = WorldState::new();
        s.apply(&[w("a", 1)], Version::new(1, 0));
        s.apply(&[del("a")], Version::new(2, 0));
        assert!(s.get("a").is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn range_is_half_open_and_ordered() {
        let mut s = WorldState::new();
        for k in ["k01", "k02", "k03", "k10"] {
            s.seed(k.to_string(), Value::Unit);
        }
        let keys: Vec<_> = s.range("k01", "k03").map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["k01", "k02"], "end bound excluded");
        let all: Vec<_> = s.range("", "z").map(|(k, _)| k.as_str()).collect();
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn seed_uses_genesis_version() {
        let mut s = WorldState::new();
        s.seed("g".into(), Value::Str("x".into()));
        assert_eq!(s.version_of("g"), Some(Version::new(0, 0)));
    }

    #[test]
    fn iter_walks_keys_in_order() {
        let mut s = WorldState::new();
        s.seed("b".into(), Value::Unit);
        s.seed("a".into(), Value::Unit);
        let keys: Vec<_> = s.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, vec!["a".to_string(), "b".to_string()]);
    }
}

//! The versioned world state.
//!
//! A single committed key-value store shared by all peers. The simulator
//! processes endorsement and commit events in global time order, so "the
//! committed state at time t" is always exactly this structure — peers never
//! diverge (they validate deterministically and commit in lock-step, as the
//! paper's single-channel Fabric deployment does).

use crate::rwset::{Version, WriteItem};
use crate::types::{Key, Value};
use std::collections::{BTreeMap, BTreeSet};
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
///
/// It also owns the run's key handles. Every key a run names, whether it
/// reads, writes or deletes it or bounds a range scan with it, has one
/// shared [`Key`] allocation: the live map's own key, or an entry of
/// `vacant` while the key holds no value. Read-write sets, envelopes and
/// the analyzer's records clone that handle, so each distinct key costs one
/// allocation per run.
#[derive(Debug, Clone, Default)]
pub struct WorldState {
    map: BTreeMap<Key, VersionedValue>,
    /// Handles of named keys that hold no value (read while absent,
    /// deleted, or a range bound). Disjoint from `map`'s keys.
    vacant: BTreeSet<Key>,
    /// Reused buffer for qualifying `"{namespace}/{key}"`.
    name_buf: String,
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

    /// The run's handle for `"{namespace}/{key}"` and its committed entry,
    /// if the key is live. The name is qualified in a reused buffer, so
    /// only a key the state has never named allocates.
    pub(crate) fn resolve(&mut self, namespace: &str, key: &str) -> (Key, Option<&VersionedValue>) {
        self.name_buf.clear();
        self.name_buf.push_str(namespace);
        self.name_buf.push('/');
        self.name_buf.push_str(key);
        if let Some((handle, entry)) = self.map.get_key_value(self.name_buf.as_str()) {
            return (handle.clone(), Some(entry));
        }
        let handle = match self.vacant.get(self.name_buf.as_str()) {
            Some(handle) => handle.clone(),
            None => {
                let fresh = Key::from(self.name_buf.as_str());
                self.vacant.insert(fresh.clone());
                fresh
            }
        };
        (handle, None)
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
        self.insert(key, value, Version::new(0, 0));
    }

    /// Make `key` live with `value` at `version`, keeping the handle the
    /// state already has for it.
    fn insert(&mut self, key: Key, value: Value, version: Version) {
        let key = self.vacant.take(&*key).unwrap_or(key);
        self.map.insert(key, VersionedValue { value, version });
    }

    /// Apply the write set of a validated transaction at `version`. An
    /// existing key is updated in place; a deleted key's handle moves to
    /// `vacant`, so a later write of it shares the same allocation.
    pub fn apply(&mut self, writes: &[WriteItem], version: Version) {
        for w in writes {
            match &w.value {
                Some(v) => match self.map.get_mut(&*w.key) {
                    Some(slot) => {
                        slot.value = v.clone();
                        slot.version = version;
                    }
                    None => self.insert(w.key.clone(), v.clone(), version),
                },
                None => {
                    if let Some((key, _)) = self.map.remove_entry(&*w.key) {
                        self.vacant.insert(key);
                    }
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
    use std::sync::Arc;

    fn w(key: &str, val: i64) -> WriteItem {
        WriteItem {
            key: key.into(),
            value: Some(Value::Int(val)),
        }
    }

    fn del(key: &str) -> WriteItem {
        WriteItem {
            key: key.into(),
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
            s.seed(k.into(), Value::Unit);
        }
        let keys: Vec<_> = s.range("k01", "k03").map(|(k, _)| &**k).collect();
        assert_eq!(keys, vec!["k01", "k02"], "end bound excluded");
        let all: Vec<_> = s.range("", "z").map(|(k, _)| &**k).collect();
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
        let keys: Vec<_> = s.iter().map(|(k, _)| &**k).collect();
        assert_eq!(keys, vec!["a", "b"]);
    }

    #[test]
    fn resolve_qualifies_keys_as_namespace_slash_key() {
        let mut s = WorldState::new();
        assert_eq!(&*s.resolve("kv", "counter").0, "kv/counter");
        assert_eq!(&*s.resolve("", "k").0, "/k");
        assert_eq!(&*s.resolve("ns", "").0, "ns/");
    }

    #[test]
    fn resolve_hands_out_one_handle_per_key() {
        let mut s = WorldState::new();
        s.seed("ns/live".into(), Value::Int(1));
        let (live, entry) = s.resolve("ns", "live");
        assert_eq!(&*live, "ns/live");
        assert_eq!(entry.map(|vv| vv.version), Some(Version::new(0, 0)));
        assert!(Arc::ptr_eq(&live, &s.resolve("ns", "live").0));

        // An absent key gets one handle, kept through its write and delete.
        let (absent, entry) = s.resolve("ns", "new");
        assert!(entry.is_none());
        assert!(Arc::ptr_eq(&absent, &s.resolve("ns", "new").0));
        let write = WriteItem {
            key: absent.clone(),
            value: Some(Value::Int(2)),
        };
        s.apply(&[write], Version::new(1, 0));
        let (written, entry) = s.resolve("ns", "new");
        assert!(Arc::ptr_eq(&absent, &written));
        assert_eq!(entry.map(|vv| &vv.value), Some(&Value::Int(2)));
        let delete = WriteItem {
            key: written,
            value: None,
        };
        s.apply(&[delete], Version::new(2, 0));
        let (deleted, entry) = s.resolve("ns", "new");
        assert!(entry.is_none());
        assert!(Arc::ptr_eq(&absent, &deleted));
        assert_eq!(s.len(), 1, "vacant handles are not live keys");
    }
}

//! The versioned world state.
//!
//! A single committed key-value store shared by all peers. The simulator
//! processes endorsement and commit events in global time order, so "the
//! committed state at time t" is always exactly this structure — peers never
//! diverge (they validate deterministically and commit in lock-step, as the
//! paper's single-channel Fabric deployment does).
//!
//! Every key a run names lives in a *slot*: its one shared [`Key`] handle
//! and its committed entry, if any. A key finds its slot through a hash
//! index with a fixed multiply-rotate hasher, so a point read, an MVCC
//! version check and a write each cost one probe. The index is only ever
//! probed, never iterated, so its order cannot leak into a run. An ordered
//! map of the live keys serves range scans and [`WorldState::iter`]: a scan
//! walks it in key order and reads each value from its slot, with no probe
//! per key.
//!
//! The keys come from the workload a spec describes. A spec that names
//! keys which collide under the fixed hasher slows only its own run.

use crate::rwset::{Version, WriteItem};
use crate::types::{Key, Value};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Bound;

/// A committed value and the version of the transaction that wrote it.
#[derive(Debug, Clone, PartialEq)]
pub struct VersionedValue {
    /// Current value.
    pub value: Value,
    /// Version of the last committed write.
    pub version: Version,
}

/// rustc's `FxHasher`: each word is folded in with a rotate, an xor and a
/// multiply. It is fixed (no per-process seed), and `finish` rotates the
/// well-mixed high bits down to where the table picks its bucket.
#[derive(Debug, Default, Clone, Copy)]
struct FxHasher {
    hash: u64,
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.hash = (self.hash.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(K);
        }
    }

    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// One named key: the run's handle for it and its committed entry (`None`
/// while the key holds no value: read while absent, deleted, or a range
/// bound).
#[derive(Debug, Clone)]
struct Slot {
    key: Key,
    entry: Option<VersionedValue>,
}

/// The committed world state.
///
/// It also owns the run's key handles. Every key a run names, whether it
/// reads, writes or deletes it or bounds a range scan with it, has one
/// shared [`Key`] allocation, kept in its slot for the whole run, through
/// deletes and re-inserts. Read-write sets, envelopes and the analyzer's
/// records clone that handle, so each distinct key costs one allocation per
/// run.
#[derive(Clone, Default)]
pub struct WorldState {
    slots: Vec<Slot>,
    /// The slot of every named key. Probed, never iterated.
    index: HashMap<Key, u32, BuildHasherDefault<FxHasher>>,
    /// The slots of the live keys (those holding a value), in key order.
    live: BTreeMap<Key, u32>,
    /// Reused buffer for qualifying `"{namespace}/{key}"`.
    name_buf: String,
}

impl fmt::Debug for WorldState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl WorldState {
    /// An empty world state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a key.
    pub fn get(&self, key: &str) -> Option<&VersionedValue> {
        let &slot = self.index.get(key)?;
        self.slots[slot as usize].entry.as_ref()
    }

    /// The run's handle for `"{namespace}/{key}"` and its committed entry,
    /// if the key is live. The name is qualified in a reused buffer, so
    /// only a key the state has never named allocates.
    pub(crate) fn resolve(&mut self, namespace: &str, key: &str) -> (Key, Option<&VersionedValue>) {
        self.name_buf.clear();
        self.name_buf.push_str(namespace);
        self.name_buf.push('/');
        self.name_buf.push_str(key);
        let slot = match self.index.get(self.name_buf.as_str()) {
            Some(&slot) => slot,
            None => {
                let fresh = Key::from(self.name_buf.as_str());
                self.add_slot(fresh)
            }
        };
        let slot = &self.slots[slot as usize];
        (slot.key.clone(), slot.entry.as_ref())
    }

    /// The committed version of a key, if present.
    pub fn version_of(&self, key: &str) -> Option<Version> {
        self.get(key).map(|vv| vv.version)
    }

    /// Range scan over `[start, end)` in key order. An inverted range
    /// (`start > end`) is empty.
    pub fn range<'a>(
        &'a self,
        start: &str,
        end: &str,
    ) -> impl Iterator<Item = (&'a Key, &'a VersionedValue)> + 'a {
        (start <= end)
            .then(|| {
                self.live
                    .range::<str, _>((Bound::Included(start), Bound::Excluded(end)))
            })
            .into_iter()
            .flatten()
            .map(|(key, &slot)| (key, self.live_entry(slot)))
    }

    /// Directly set a key (used for genesis/bootstrap state, version 0:0).
    pub fn seed(&mut self, key: Key, value: Value) {
        let slot = self.slot_of(&key);
        self.set(slot, value, Version::new(0, 0));
    }

    /// Apply the write set of a validated transaction at `version`. A
    /// deleted key keeps its slot, so a later write of it shares the same
    /// handle.
    pub fn apply(&mut self, writes: &[WriteItem], version: Version) {
        for w in writes {
            match &w.value {
                Some(value) => {
                    let slot = self.slot_of(&w.key);
                    self.set(slot, value.clone(), version);
                }
                None => {
                    let Some(&slot) = self.index.get(&*w.key) else {
                        continue;
                    };
                    let slot = &mut self.slots[slot as usize];
                    if slot.entry.take().is_some() {
                        self.live.remove(&*slot.key);
                    }
                }
            }
        }
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether the state is empty.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Iterate over all live keys in order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &VersionedValue)> {
        self.live
            .iter()
            .map(|(key, &slot)| (key, self.live_entry(slot)))
    }

    /// The slot of `key`, added with `key` as its handle if the state has
    /// never named it.
    fn slot_of(&mut self, key: &Key) -> u32 {
        match self.index.get(&**key) {
            Some(&slot) => slot,
            None => self.add_slot(key.clone()),
        }
    }

    fn add_slot(&mut self, key: Key) -> u32 {
        let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 named keys");
        self.index.insert(key.clone(), slot);
        self.slots.push(Slot { key, entry: None });
        slot
    }

    /// Commit `value` at `version` into `slot`, making its key live.
    fn set(&mut self, slot: u32, value: Value, version: Version) {
        let entry = &mut self.slots[slot as usize];
        if entry.entry.is_none() {
            self.live.insert(entry.key.clone(), slot);
        }
        entry.entry = Some(VersionedValue { value, version });
    }

    fn live_entry(&self, slot: u32) -> &VersionedValue {
        self.slots[slot as usize]
            .entry
            .as_ref()
            .expect("a live key's slot holds a value")
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

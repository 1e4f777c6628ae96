//! Metric derivation (paper §4.3).
//!
//! Eight metric families derived from the blockchain log:
//!
//! | Paper metric | Module |
//! |---|---|
//! | `Tr`, `Trdᵢ` (rates) / `TFr`, `Frdᵢ` (failures) | [`rates`] |
//! | `Bcount`, `Btimeout`, `Bsizeavg` | [`block`] |
//! | `EDsig` (endorser significance) | [`endorser`] |
//! | `IVsig` (invoker significance) | [`invoker`] |
//! | `Kfreq`, `Ksig`, `HK` (hotkeys) | [`keys`] |
//! | `corDV`, `corP`, `corPA` (correlations) | [`correlation`] |

pub mod block;
pub mod correlation;
pub mod endorser;
pub mod invoker;
pub mod keys;
pub mod rates;

pub use block::BlockMetrics;
pub use correlation::{CorrelationMetrics, CorrelationTracker};
pub(crate) use endorser::EndorserCounts;
pub use endorser::EndorserMetrics;
pub(crate) use invoker::InvokerCounts;
pub use invoker::InvokerMetrics;
pub use keys::{HotkeyIndex, KeyMetrics};
pub use rates::{RateMetrics, RateTracker};

use crate::log::BlockchainLog;
use fabric_sim::types::{ClientId, OrgId, PeerId};
use serde::{Deserialize, Serialize};
use sim_core::time::SimDuration;
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// Increment a counter-map entry by its borrowed key — the streaming
/// trackers' counter bump. The owned key is built only when `key` is new,
/// so bumping a counter that already exists allocates nothing.
pub(crate) fn increment<K, Q>(map: &mut BTreeMap<K, usize>, key: &Q)
where
    K: Borrow<Q> + Ord,
    Q: ToOwned<Owned = K> + Ord + ?Sized,
{
    update(map, key, |n| *n += 1);
}

/// Apply `f` to the entry at a borrowed `key`, inserting `V::default()`
/// first when `key` is new: `f(map.entry(key.to_owned()).or_default())`
/// without the owned key on a hit (nested counter maps).
pub(crate) fn update<K, Q, V>(map: &mut BTreeMap<K, V>, key: &Q, f: impl FnOnce(&mut V))
where
    K: Borrow<Q> + Ord,
    Q: ToOwned<Owned = K> + Ord + ?Sized,
    V: Default,
{
    match map.get_mut(key) {
        Some(value) => f(value),
        None => {
            let mut value = V::default();
            f(&mut value);
            map.insert(key.to_owned(), value);
        }
    }
}

/// An id-keyed counter map re-keyed by each id's display name, and so
/// ordered by name (`peer10.Org1` before `peer2.Org1`) — how a session
/// renders its id-keyed endorser and invoker counts.
pub(crate) fn by_name<K: std::fmt::Display>(map: &BTreeMap<K, usize>) -> BTreeMap<String, usize> {
    map.iter().map(|(id, &n)| (id.to_string(), n)).collect()
}

/// A peer, client or organization display name rendered into a stack
/// buffer, so the endorser and invoker counters look their keys up without
/// a heap allocation. Spelled exactly as the ids' `Display` (a test pins
/// that); the longest, `client65535.Org65536`, fills the 20 bytes.
pub(crate) struct Name {
    buf: [u8; 20],
    len: usize,
}

impl Name {
    /// `peer{index}.Org{n}`.
    pub(crate) fn peer(id: PeerId) -> Name {
        Name::of(&[("peer", id.index.into()), (".Org", org_number(id.org))])
    }

    /// `client{index}.Org{n}`.
    pub(crate) fn client(id: ClientId) -> Name {
        Name::of(&[("client", id.index.into()), (".Org", org_number(id.org))])
    }

    /// `Org{n}`.
    pub(crate) fn org(id: OrgId) -> Name {
        Name::of(&[("Org", org_number(id))])
    }

    pub(crate) fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len]).expect("rendered from ASCII")
    }

    /// Each part's text, then its number in decimal.
    fn of(parts: &[(&str, u32)]) -> Name {
        let mut name = Name {
            buf: [0; 20],
            len: 0,
        };
        for &(text, mut number) in parts {
            let mut digits = [0; 10];
            let mut at = digits.len();
            loop {
                at -= 1;
                digits[at] = b'0' + (number % 10) as u8;
                number /= 10;
                if number == 0 {
                    break;
                }
            }
            for bytes in [text.as_bytes(), &digits[at..]] {
                name.buf[name.len..name.len + bytes.len()].copy_from_slice(bytes);
                name.len += bytes.len();
            }
        }
        name
    }
}

/// An organization's 1-based display number (`Org1` for index 0).
fn org_number(org: OrgId) -> u32 {
    u32::from(org.0) + 1
}

/// Decrement a counter-map entry, removing it at zero — the shared
/// retraction primitive of the sliding-window trackers: a windowed tracker
/// must not keep zero-count entries a fresh derivation of the retained
/// window would lack. Returns the count before the decrement.
///
/// # Panics
/// Panics when `key` has no live count (a retract without its matching
/// observe).
pub(crate) fn decrement<K, Q>(map: &mut BTreeMap<K, usize>, key: &Q) -> usize
where
    K: Borrow<Q> + Ord,
    Q: Ord + std::fmt::Debug + ?Sized,
{
    let Some(n) = map.get_mut(key) else {
        panic!("retract without a matching observe for {key:?}");
    };
    let old = *n;
    if old > 1 {
        *n -= 1;
    } else {
        map.remove(key);
    }
    old
}

/// All metric families of one analysis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Metrics {
    /// Rate metrics.
    pub rates: RateMetrics,
    /// Block statistics.
    pub block: BlockMetrics,
    /// Endorser significance.
    pub endorsers: EndorserMetrics,
    /// Invoker significance.
    pub invokers: InvokerMetrics,
    /// Key frequency/significance and hotkeys.
    pub keys: KeyMetrics,
    /// Transaction correlations.
    pub correlation: CorrelationMetrics,
}

/// Knobs for metric derivation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MetricConfig {
    /// Interval size `ins` for the rate distributions (paper §4.3 (1)).
    pub interval: SimDuration,
    /// Hotkey threshold `Kt`: a key is hot when it appears in at least this
    /// fraction of failed-transaction accesses.
    pub hotkey_share: f64,
    /// Minimum failures before hotkey analysis is meaningful.
    pub min_failures_for_hotkeys: usize,
}

impl Default for MetricConfig {
    fn default() -> Self {
        MetricConfig {
            interval: SimDuration::from_secs(1),
            hotkey_share: 0.05,
            min_failures_for_hotkeys: 20,
        }
    }
}

impl Metrics {
    /// Derive every metric family from a log.
    pub fn derive(log: &BlockchainLog, config: &MetricConfig) -> Metrics {
        Metrics {
            rates: RateMetrics::derive(log, config.interval),
            block: BlockMetrics::derive(log),
            endorsers: EndorserMetrics::derive(log),
            invokers: InvokerMetrics::derive(log),
            keys: KeyMetrics::derive(log, config),
            correlation: CorrelationMetrics::derive(log),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_render_like_display_up_to_the_widest_ids() {
        for org in [0, 1, 9, 10, 65534, u16::MAX] {
            assert_eq!(Name::org(OrgId(org)).as_str(), OrgId(org).to_string());
            for index in [0, 7, 10, 999, u16::MAX] {
                let peer = PeerId {
                    org: OrgId(org),
                    index,
                };
                let client = ClientId {
                    org: OrgId(org),
                    index,
                };
                assert_eq!(Name::peer(peer).as_str(), peer.to_string());
                assert_eq!(Name::client(client).as_str(), client.to_string());
            }
        }
        let widest = ClientId {
            org: OrgId(u16::MAX),
            index: u16::MAX,
        };
        assert_eq!(Name::client(widest).as_str().len(), 20);
    }
}

//! CaseID derivation (paper §4.2).
//!
//! Blockchain logs have no explicit CaseID, and "in most of the use-cases
//! we observed, no single attribute is common to all activities" — so
//! BlockOptR derives a *common element* from the function arguments and the
//! read-write sets.
//!
//! Automation (mirrors the paper's approach, generalized): every string
//! argument and every accessed key contributes a *candidate identifier*;
//! candidates are grouped into **families** by their non-numeric prefix
//! (`P0042` → family `P`, `APP00007` → family `APP`). The family that covers
//! the most transactions wins; near-ties (within 5 % coverage) are broken
//! toward the family with more distinct values — process instances are the
//! finest-grained shared entity (e.g. LAP's `applicationID` over its
//! `employeeID`). Each transaction's case is its first candidate of the
//! winning family.

use crate::log::{BlockchainLog, TxRecord};
use crate::metrics::{decrement, increment, update};
use fabric_sim::types::{Key, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

/// Per-family distinct-value statistics: value → candidate-occurrence
/// count. A multiset rather than a set so sliding-window eviction can
/// *retract* a record's contribution exactly
/// ([`retract_family_candidates`]); the distinct-value count a family
/// reports is the map's length, identical to the old set semantics. The
/// values are hashed: a window holds hundreds of them per family, every
/// record looks its own up on ingest and again on eviction, and nothing
/// reads them in order.
pub(crate) type FamilyValues = BTreeMap<String, HashMap<String, usize>>;

/// How a case id was derived for the log.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseDerivation {
    /// The winning identifier family (non-numeric prefix).
    pub family: String,
    /// Fraction of transactions covered by the family.
    pub coverage: f64,
    /// Distinct case values observed.
    pub distinct_cases: usize,
    /// Per-transaction case ids (`None` where no candidate matched), in
    /// commit order over the retained window. Shared: streaming snapshots
    /// hand out the same allocation. A ring (`VecDeque`) so windowed
    /// sessions evict aged-out entries in O(1) each.
    pub case_ids: Arc<VecDeque<Option<String>>>,
}

/// The non-numeric prefix of an identifier (`"APP00012"` → `"APP"`).
/// Identifiers without a digit have no family (returns `None`), which keeps
/// free-form strings (metadata, nonces) out of the candidate pool.
pub(crate) fn family_of(ident: &str) -> Option<&str> {
    let digit_at = ident.find(|c: char| c.is_ascii_digit())?;
    if digit_at == 0 {
        return None;
    }
    Some(&ident[..digit_at])
}

/// A record's candidate identifiers, in order: its string arguments, then
/// its distinct accessed keys (sorted by full key) without the namespace
/// prefix. Borrowed from the record and its key list; allocates nothing.
pub(crate) struct Candidates<'r> {
    args: &'r [Value],
    keys: &'r [Key],
}

impl<'r> Candidates<'r> {
    /// Past this many candidates, [`for_each_family`](Self::for_each_family)
    /// switches from a look-back to a set.
    const LOOK_BACK: usize = 32;

    /// The candidates of `record`, whose distinct accessed keys `keys`
    /// lists as [`ReadWriteSet::all_keys`] does.
    ///
    /// [`ReadWriteSet::all_keys`]: fabric_sim::rwset::ReadWriteSet::all_keys
    pub(crate) fn of(record: &'r TxRecord, keys: &'r [Key]) -> Candidates<'r> {
        Candidates {
            args: &record.args,
            keys,
        }
    }

    fn iter(&self) -> impl Iterator<Item = &'r str> + '_ {
        let args = self.args.iter().filter_map(|arg| match arg {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        });
        // Strip the namespace prefix: "scm/P0001" → "P0001".
        let keys = self.keys.iter().map(|key| {
            let key: &'r str = key;
            key.rsplit('/').next().unwrap_or(key)
        });
        args.chain(keys)
    }

    /// Call `f` once per distinct family among the candidates. A record
    /// holds a handful of candidates, so each looks back over the earlier
    /// ones instead of filling a per-record set; only a hand-made log with
    /// more than [`Self::LOOK_BACK`] of them pays for a set, which keeps
    /// the scan from going quadratic.
    fn for_each_family(&self, mut f: impl FnMut(&'r str)) {
        let families = || self.iter().filter_map(family_of);
        if self.args.len() + self.keys.len() <= Self::LOOK_BACK {
            for (i, fam) in families().enumerate() {
                if !families().take(i).any(|seen| seen == fam) {
                    f(fam);
                }
            }
        } else {
            let mut seen = BTreeSet::new();
            for fam in families().filter(|fam| seen.insert(*fam)) {
                f(fam);
            }
        }
    }
}

/// Fold one record's candidates into the family statistics (streaming
/// update; `coverage` counts records contributing to each family,
/// `distinct` the family's identifier values with occurrence counts).
/// Counters are bumped by borrowed key, so only a family or value seen for
/// the first time allocates.
pub(crate) fn observe_family_candidates(
    cands: &Candidates<'_>,
    coverage: &mut BTreeMap<String, usize>,
    distinct: &mut FamilyValues,
) {
    cands.for_each_family(|fam| increment(coverage, fam));
    for cand in cands.iter() {
        if let Some(fam) = family_of(cand) {
            update(distinct, fam, |values| match values.get_mut(cand) {
                Some(n) => *n += 1,
                None => {
                    values.insert(cand.to_string(), 1);
                }
            });
        }
    }
}

/// The exact inverse of [`observe_family_candidates`]: retract one evicted
/// record's contribution. Families and values whose counts reach zero are
/// removed, so the statistics equal a fresh derivation over the retained
/// suffix (the sliding-window equivalence contract).
pub(crate) fn retract_family_candidates(
    cands: &Candidates<'_>,
    coverage: &mut BTreeMap<String, usize>,
    distinct: &mut FamilyValues,
) {
    cands.for_each_family(|fam| {
        decrement(coverage, fam);
    });
    for cand in cands.iter() {
        if let Some(fam) = family_of(cand) {
            if let Some(values) = distinct.get_mut(fam) {
                match values.get_mut(cand) {
                    Some(n) if *n > 1 => *n -= 1,
                    Some(_) => {
                        values.remove(cand);
                    }
                    None => panic!("retract without a matching observe for {cand:?}"),
                }
                if values.is_empty() {
                    distinct.remove(fam);
                }
            }
        }
    }
}

/// Pick the winning family: highest coverage, near-ties (within 5 % of
/// `total`) broken toward more distinct values, then family name for
/// determinism. Returns `(family, covered, distinct)`.
pub(crate) fn pick_family<'m>(
    coverage: &'m BTreeMap<String, usize>,
    distinct: &FamilyValues,
    total: usize,
) -> Option<(&'m str, usize, usize)> {
    coverage
        .iter()
        .map(|(fam, &cov)| {
            let d = distinct.get(fam).map(HashMap::len).unwrap_or(0);
            (fam.as_str(), cov, d)
        })
        .max_by(|a, b| {
            let band = (total as f64 * 0.05) as usize;
            if a.1.abs_diff(b.1) <= band {
                a.2.cmp(&b.2).then_with(|| b.0.cmp(a.0))
            } else {
                a.1.cmp(&b.1)
            }
        })
}

/// The case id of a record under `family`, borrowed from the record: its
/// first candidate of that family.
pub(crate) fn case_from_candidates<'r>(cands: &Candidates<'r>, family: &str) -> Option<&'r str> {
    cands.iter().find(|c| family_of(c) == Some(family))
}

/// Derive case ids for every transaction in the log.
pub fn derive_case_ids(log: &BlockchainLog) -> CaseDerivation {
    // Family → (covered tx count, distinct values).
    let mut coverage: BTreeMap<String, usize> = BTreeMap::new();
    let mut distinct: FamilyValues = BTreeMap::new();
    for record in log.records() {
        let keys = record.rwset.all_keys();
        observe_family_candidates(&Candidates::of(record, &keys), &mut coverage, &mut distinct);
    }

    let total = log.len().max(1);
    let Some((family, covered, d)) = pick_family(&coverage, &distinct, total) else {
        return CaseDerivation {
            family: String::new(),
            coverage: 0.0,
            distinct_cases: 0,
            case_ids: Arc::new(vec![None; log.len()].into()),
        };
    };

    let case_of = |r: &TxRecord| {
        let keys = r.rwset.all_keys();
        case_from_candidates(&Candidates::of(r, &keys), family).map(str::to_string)
    };
    let case_ids: VecDeque<Option<String>> = log.records().iter().map(case_of).collect();

    CaseDerivation {
        family: family.to_string(),
        coverage: covered as f64 / total as f64,
        distinct_cases: d,
        case_ids: Arc::new(case_ids),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::test_support::{log_of, Rec};

    #[test]
    fn family_extraction() {
        assert_eq!(family_of("P0042"), Some("P"));
        assert_eq!(family_of("APP00007"), Some("APP"));
        assert_eq!(family_of("party:P1"), Some("party:P"));
        assert_eq!(family_of("nodigits"), None);
        assert_eq!(family_of("42abc"), None, "leading digit has no prefix");
    }

    #[test]
    fn scm_like_log_picks_products() {
        let log = log_of(vec![
            Rec::new(0, "pushASN")
                .args(vec!["P0001".into()])
                .reads(&["scm/P0001"])
                .writes(&["scm/P0001"])
                .build(),
            Rec::new(1, "updateAuditInfo")
                .args(vec!["P0001".into(), "A0001".into()])
                .reads(&["scm/P0001", "scm/A0001"])
                .writes(&["scm/A0001"])
                .build(),
            Rec::new(2, "ship")
                .args(vec!["P0002".into()])
                .reads(&["scm/P0002"])
                .build(),
        ]);
        let d = derive_case_ids(&log);
        assert_eq!(d.family, "P", "products cover all txs, audits only one");
        assert_eq!(d.case_ids[0].as_deref(), Some("P0001"));
        assert_eq!(d.case_ids[1].as_deref(), Some("P0001"));
        assert_eq!(d.case_ids[2].as_deref(), Some("P0002"));
        assert!((d.coverage - 1.0).abs() < 1e-9);
        assert_eq!(d.distinct_cases, 2);
    }

    #[test]
    fn tie_breaks_toward_finer_family() {
        // Both E and APP cover everything (LAP shape) — APP has more
        // distinct values, so applications become the cases.
        let log = log_of(vec![
            Rec::new(0, "create")
                .args(vec!["E001".into(), "APP00001".into()])
                .build(),
            Rec::new(1, "submit")
                .args(vec!["E001".into(), "APP00002".into()])
                .build(),
            Rec::new(2, "validate")
                .args(vec!["E002".into(), "APP00003".into()])
                .build(),
        ]);
        let d = derive_case_ids(&log);
        assert_eq!(d.family, "APP");
        assert_eq!(d.distinct_cases, 3);
    }

    #[test]
    fn candidates_come_from_keys_too() {
        // No string args at all: keys carry the identifier.
        let log = log_of(vec![
            Rec::new(0, "read").reads(&["genchain/k00001"]).build(),
            Rec::new(1, "update")
                .reads(&["genchain/k00002"])
                .writes(&["genchain/k00002"])
                .build(),
        ]);
        let d = derive_case_ids(&log);
        assert_eq!(d.family, "k");
        assert_eq!(d.case_ids[1].as_deref(), Some("k00002"));
    }

    #[test]
    fn uncovered_txs_get_none() {
        let log = log_of(vec![
            Rec::new(0, "vote").args(vec!["party:P1".into()]).build(),
            Rec::new(1, "queryParties").build(), // no candidates at all
        ]);
        let d = derive_case_ids(&log);
        assert_eq!(d.family, "party:P");
        assert!(d.case_ids[1].is_none());
    }

    #[test]
    fn empty_log_yields_empty_derivation() {
        let d = derive_case_ids(&BlockchainLog::default());
        assert!(d.family.is_empty());
        assert!(d.case_ids.is_empty());
    }
}

//! Endorsement policies.
//!
//! Fabric endorsement policies are boolean expressions over organization
//! principals. The paper's experiments use four (§5.1):
//!
//! * `P1 = And(Org1, Or(Org2, Org3, Org4))`
//! * `P2 = And(Or(Org1, Org2), Or(Org3, Org4))`
//! * `P3 = Majority(Org1, …, OrgN)`
//! * `P4 = OutOf(2, Org1, Org2, Org3, Org4)`
//!
//! Clients pick a *minimal satisfying set* of organizations to endorse each
//! transaction; mandatory principals (like `Org1` in P1) therefore receive
//! every transaction and can become bottlenecks — the effect behind the
//! *endorser restructuring* recommendation.

use crate::types::OrgId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// The most distinct organizations a policy may mention. Its minimal
/// satisfying sets are found by sweeping every subset of those orgs, so the
/// sweep costs 2^n policy evaluations; scenario validation rejects wider
/// policies before any simulation expands one.
pub const MAX_POLICY_ORGS: usize = 16;

/// A boolean endorsement expression over organizations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EndorsementPolicy {
    /// A single organization principal.
    Org(OrgId),
    /// All sub-policies must be satisfied.
    And(Vec<EndorsementPolicy>),
    /// At least one sub-policy must be satisfied.
    Or(Vec<EndorsementPolicy>),
    /// At least `k` of the sub-policies must be satisfied.
    OutOf(usize, Vec<EndorsementPolicy>),
}

impl EndorsementPolicy {
    /// Paper policy `P1 = And(Org1, Or(Org2, Org3, Org4))`.
    pub fn p1() -> Self {
        use EndorsementPolicy::*;
        And(vec![
            Org(OrgId(0)),
            Or(vec![Org(OrgId(1)), Org(OrgId(2)), Org(OrgId(3))]),
        ])
    }

    /// Paper policy `P2 = And(Or(Org1, Org2), Or(Org3, Org4))`.
    pub fn p2() -> Self {
        use EndorsementPolicy::*;
        And(vec![
            Or(vec![Org(OrgId(0)), Org(OrgId(1))]),
            Or(vec![Org(OrgId(2)), Org(OrgId(3))]),
        ])
    }

    /// Paper policy `P3 = Majority(Org1, …, OrgN)`: strictly more than half.
    pub fn p3(n: usize) -> Self {
        use EndorsementPolicy::*;
        let orgs: Vec<_> = (0..n).map(|i| Org(OrgId(i as u16))).collect();
        OutOf(n / 2 + 1, orgs)
    }

    /// Paper policy `P4 = OutOf(2, Org1, Org2, Org3, Org4)`.
    pub fn p4() -> Self {
        use EndorsementPolicy::*;
        OutOf(
            2,
            vec![Org(OrgId(0)), Org(OrgId(1)), Org(OrgId(2)), Org(OrgId(3))],
        )
    }

    /// Generalized `OutOf(k, Org1..OrgN)`.
    pub fn out_of(k: usize, n: usize) -> Self {
        use EndorsementPolicy::*;
        OutOf(k, (0..n).map(|i| Org(OrgId(i as u16))).collect())
    }

    /// Whether endorsements from `orgs` satisfy the policy.
    pub fn satisfied_by(&self, orgs: &BTreeSet<OrgId>) -> bool {
        self.satisfied_when(&|o| orgs.contains(&o))
    }

    /// Whether the policy holds when exactly the orgs `endorsed` accepts
    /// have endorsed.
    fn satisfied_when<F: Fn(OrgId) -> bool>(&self, endorsed: &F) -> bool {
        match self {
            EndorsementPolicy::Org(o) => endorsed(*o),
            EndorsementPolicy::And(ps) => ps.iter().all(|p| p.satisfied_when(endorsed)),
            EndorsementPolicy::Or(ps) => ps.iter().any(|p| p.satisfied_when(endorsed)),
            EndorsementPolicy::OutOf(k, ps) => {
                ps.iter().filter(|p| p.satisfied_when(endorsed)).count() >= *k
            }
        }
    }

    /// All organizations mentioned anywhere in the policy.
    pub fn orgs(&self) -> BTreeSet<OrgId> {
        let mut out = BTreeSet::new();
        self.collect_orgs(&mut out);
        out
    }

    fn collect_orgs(&self, out: &mut BTreeSet<OrgId>) {
        match self {
            EndorsementPolicy::Org(o) => {
                out.insert(*o);
            }
            EndorsementPolicy::And(ps)
            | EndorsementPolicy::Or(ps)
            | EndorsementPolicy::OutOf(_, ps) => {
                for p in ps {
                    p.collect_orgs(out);
                }
            }
        }
    }

    /// All *minimal* satisfying organization sets (no satisfying non-empty
    /// proper subset), in the order of their bit masks over the sorted
    /// mentioned orgs. The power-set sweep is exact for up to
    /// [`MAX_POLICY_ORGS`] orgs.
    ///
    /// These policies are monotone (adding an org never breaks one), so a
    /// satisfying set is minimal exactly when removing any one of its orgs
    /// leaves the empty set or a set that fails: each candidate costs n
    /// evaluations, not a scan of every other satisfying set.
    pub fn minimal_satisfying_sets(&self) -> Vec<BTreeSet<OrgId>> {
        let orgs: Vec<OrgId> = self.orgs().into_iter().collect();
        let n = orgs.len();
        assert!(
            n <= MAX_POLICY_ORGS,
            "policy mentions too many orgs for exact expansion"
        );
        // Bit i of a mask stands for `orgs[i]`.
        let satisfied = |mask: u32| {
            self.satisfied_when(&|o| orgs.binary_search(&o).is_ok_and(|i| mask & (1 << i) != 0))
        };
        (1u32..(1 << n))
            .filter(|&mask| {
                satisfied(mask)
                    && (0..n).all(|i| {
                        let rest = mask & !(1 << i);
                        rest == mask || rest == 0 || !satisfied(rest)
                    })
            })
            .map(|mask| {
                (0..n)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| orgs[i])
                    .collect()
            })
            .collect()
    }

    /// Organizations present in *every* satisfying set — the mandatory
    /// endorsers that become bottlenecks (e.g. `Org1` under P1).
    pub fn mandatory_orgs(&self) -> BTreeSet<OrgId> {
        let sets = self.minimal_satisfying_sets();
        let mut iter = sets.into_iter();
        let Some(first) = iter.next() else {
            return BTreeSet::new();
        };
        iter.fold(first, |acc, s| acc.intersection(&s).copied().collect())
    }

    /// The smallest number of organizations that can satisfy the policy.
    pub fn min_endorsers(&self) -> usize {
        self.minimal_satisfying_sets()
            .iter()
            .map(BTreeSet::len)
            .min()
            .unwrap_or(0)
    }
}

impl fmt::Display for EndorsementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EndorsementPolicy::Org(o) => write!(f, "{o}"),
            EndorsementPolicy::And(ps) => {
                f.write_str("And(")?;
                join(f, ps)?;
                f.write_str(")")
            }
            EndorsementPolicy::Or(ps) => {
                f.write_str("Or(")?;
                join(f, ps)?;
                f.write_str(")")
            }
            EndorsementPolicy::OutOf(k, ps) => {
                write!(f, "OutOf({k},")?;
                join(f, ps)?;
                f.write_str(")")
            }
        }
    }
}

fn join(f: &mut fmt::Formatter<'_>, ps: &[EndorsementPolicy]) -> fmt::Result {
    for (i, p) in ps.iter().enumerate() {
        if i > 0 {
            f.write_str(",")?;
        }
        write!(f, "{p}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u16]) -> BTreeSet<OrgId> {
        ids.iter().map(|&i| OrgId(i)).collect()
    }

    #[test]
    fn p1_requires_org1_plus_one_other() {
        let p = EndorsementPolicy::p1();
        assert!(p.satisfied_by(&set(&[0, 1])));
        assert!(p.satisfied_by(&set(&[0, 3])));
        assert!(!p.satisfied_by(&set(&[0])), "Org1 alone insufficient");
        assert!(!p.satisfied_by(&set(&[1, 2, 3])), "Org1 is mandatory");
    }

    #[test]
    fn p1_mandatory_is_org1() {
        assert_eq!(EndorsementPolicy::p1().mandatory_orgs(), set(&[0]));
        assert_eq!(EndorsementPolicy::p1().min_endorsers(), 2);
    }

    #[test]
    fn p2_needs_one_from_each_pair() {
        let p = EndorsementPolicy::p2();
        assert!(p.satisfied_by(&set(&[0, 2])));
        assert!(p.satisfied_by(&set(&[1, 3])));
        assert!(!p.satisfied_by(&set(&[0, 1])));
        assert!(p.mandatory_orgs().is_empty());
        assert_eq!(p.minimal_satisfying_sets().len(), 4);
    }

    #[test]
    fn p3_majority_threshold() {
        let p = EndorsementPolicy::p3(4);
        assert!(p.satisfied_by(&set(&[0, 1, 2])));
        assert!(!p.satisfied_by(&set(&[0, 1])));
        let p2 = EndorsementPolicy::p3(2);
        assert!(p2.satisfied_by(&set(&[0, 1])));
        assert!(!p2.satisfied_by(&set(&[0])), "majority of 2 is both");
    }

    #[test]
    fn p4_any_two_of_four() {
        let p = EndorsementPolicy::p4();
        assert!(p.satisfied_by(&set(&[2, 3])));
        assert!(!p.satisfied_by(&set(&[2])));
        assert_eq!(p.minimal_satisfying_sets().len(), 6, "C(4,2) = 6");
        assert!(p.mandatory_orgs().is_empty());
    }

    #[test]
    fn minimal_sets_exclude_supersets() {
        let p = EndorsementPolicy::p1();
        let sets = p.minimal_satisfying_sets();
        assert_eq!(sets.len(), 3, "Org1 paired with each of Org2..Org4");
        assert!(sets.iter().all(|s| s.len() == 2));
    }

    #[test]
    fn orgs_lists_every_principal() {
        assert_eq!(EndorsementPolicy::p2().orgs(), set(&[0, 1, 2, 3]));
        assert_eq!(EndorsementPolicy::p3(2).orgs(), set(&[0, 1]));
    }

    #[test]
    fn display_matches_paper_syntax() {
        assert_eq!(
            EndorsementPolicy::p1().to_string(),
            "And(Org1,Or(Org2,Org3,Org4))"
        );
        assert_eq!(
            EndorsementPolicy::p4().to_string(),
            "OutOf(2,Org1,Org2,Org3,Org4)"
        );
    }

    #[test]
    fn single_org_policy() {
        let p = EndorsementPolicy::Org(OrgId(1));
        assert!(p.satisfied_by(&set(&[1])));
        assert!(!p.satisfied_by(&set(&[0])));
        assert_eq!(p.min_endorsers(), 1);
        assert_eq!(p.mandatory_orgs(), set(&[1]));
    }

    /// The pre-filter definition of minimality: a satisfying set with no
    /// smaller satisfying subset, collected in mask order.
    fn minimal_sets_by_subset_filter(p: &EndorsementPolicy) -> Vec<BTreeSet<OrgId>> {
        let orgs: Vec<OrgId> = p.orgs().into_iter().collect();
        let satisfying: Vec<BTreeSet<OrgId>> = (1u32..(1 << orgs.len()))
            .map(|mask| {
                (0..orgs.len())
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| orgs[i])
                    .collect()
            })
            .filter(|s| p.satisfied_by(s))
            .collect();
        satisfying
            .iter()
            .filter(|s| {
                !satisfying
                    .iter()
                    .any(|o| o.len() < s.len() && o.is_subset(s))
            })
            .cloned()
            .collect()
    }

    /// A random policy over orgs 0..6, up to three levels deep, with
    /// `OutOf` thresholds from 0 to one past the child count.
    fn random_policy(state: &mut u64, depth: u32) -> EndorsementPolicy {
        let mut next = |bound: u64| {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            *state % bound
        };
        let kind = if depth == 0 { 0 } else { next(4) };
        if kind == 0 {
            return EndorsementPolicy::Org(OrgId(next(6) as u16));
        }
        let width = 1 + next(3) as usize;
        let k = next(width as u64 + 2) as usize;
        let children = (0..width)
            .map(|_| random_policy(state, depth - 1))
            .collect();
        match kind {
            1 => EndorsementPolicy::And(children),
            2 => EndorsementPolicy::Or(children),
            _ => EndorsementPolicy::OutOf(k, children),
        }
    }

    #[test]
    fn single_removal_test_matches_the_subset_filter() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut policies = vec![
            EndorsementPolicy::p1(),
            EndorsementPolicy::p2(),
            EndorsementPolicy::p3(5),
            EndorsementPolicy::p4(),
            EndorsementPolicy::out_of(0, 3),
            EndorsementPolicy::out_of(4, 3),
        ];
        policies.extend((0..2_000).map(|_| random_policy(&mut state, 3)));
        for p in &policies {
            assert_eq!(
                p.minimal_satisfying_sets(),
                minimal_sets_by_subset_filter(p),
                "{p}"
            );
        }
    }

    #[test]
    fn widest_policy_expands_exactly() {
        let p = EndorsementPolicy::out_of(8, MAX_POLICY_ORGS);
        let sets = p.minimal_satisfying_sets();
        assert_eq!(sets.len(), 12_870, "C(16, 8)");
        assert!(sets.iter().all(|s| s.len() == 8));
        assert_eq!(sets[0], (0..8).map(OrgId).collect(), "mask order");
        assert_eq!(p.min_endorsers(), 8);
    }

    #[test]
    fn out_of_generalized() {
        let p = EndorsementPolicy::out_of(3, 5);
        assert!(p.satisfied_by(&set(&[0, 2, 4])));
        assert!(!p.satisfied_by(&set(&[0, 2])));
        assert_eq!(p.min_endorsers(), 3);
    }
}

//! Endorser significance `EDsig` (paper §4.3 (4)).
//!
//! Counts endorsement events per peer and per organization; the
//! restructuring recommendation compares each organization's share with the
//! even-participation expectation.

use super::Name;
use crate::log::BlockchainLog;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Endorsement counts per peer and per organization.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EndorserMetrics {
    /// Endorsements per peer (display name → count).
    pub per_peer: BTreeMap<String, usize>,
    /// Endorsements per organization (display name → count).
    pub per_org: BTreeMap<String, usize>,
    /// Total endorsement events (Σ per-tx endorser counts).
    pub total_endorsements: usize,
}

impl EndorserMetrics {
    /// Derive from a log.
    pub fn derive(log: &BlockchainLog) -> EndorserMetrics {
        let mut m = EndorserMetrics::default();
        for r in log.records() {
            m.observe(r);
        }
        m
    }

    /// Fold one transaction into the counts (streaming update). Names are
    /// rendered on the stack, so only a peer or organization seen for the
    /// first time allocates (its owned key).
    pub fn observe(&mut self, r: &crate::log::TxRecord) {
        for peer in &r.endorsers {
            super::increment(&mut self.per_peer, Name::peer(*peer).as_str());
            super::increment(&mut self.per_org, Name::org(peer.org).as_str());
            self.total_endorsements += 1;
        }
    }

    /// Reverse one earlier [`observe`](Self::observe) of `r`
    /// (sliding-window eviction); peers and organizations whose count
    /// reaches zero are removed. Allocates nothing.
    pub fn retract(&mut self, r: &crate::log::TxRecord) {
        for peer in &r.endorsers {
            super::decrement(&mut self.per_peer, Name::peer(*peer).as_str());
            super::decrement(&mut self.per_org, Name::org(peer.org).as_str());
            self.total_endorsements -= 1;
        }
    }

    /// The share of endorsement events carried by each organization,
    /// descending.
    pub fn org_shares(&self) -> Vec<(String, f64)> {
        let total = self.total_endorsements.max(1) as f64;
        let mut v: Vec<(String, f64)> = self
            .per_org
            .iter()
            .map(|(o, &c)| (o.clone(), c as f64 / total))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// The expected even share (1 / number of participating orgs).
    pub fn even_share(&self) -> f64 {
        if self.per_org.is_empty() {
            0.0
        } else {
            1.0 / self.per_org.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::test_support::{log_of, Rec};

    #[test]
    fn retract_reverses_observe() {
        let recs = [
            Rec::new(0, "a").endorsed_by(&[0, 1]).build(),
            Rec::new(1, "a").endorsed_by(&[0, 2]).build(),
        ];
        let mut m = EndorserMetrics::default();
        for r in &recs {
            m.observe(r);
        }
        m.retract(&recs[0]);
        let mut fresh = EndorserMetrics::default();
        fresh.observe(&recs[1]);
        assert_eq!(m.per_peer, fresh.per_peer);
        assert_eq!(m.per_org, fresh.per_org);
        assert_eq!(m.total_endorsements, fresh.total_endorsements);
        m.retract(&recs[1]);
        assert!(m.per_org.is_empty());
        assert_eq!(m.total_endorsements, 0);
    }

    #[test]
    fn counts_per_org_and_peer() {
        let log = log_of(vec![
            Rec::new(0, "a").endorsed_by(&[0, 1]).build(),
            Rec::new(1, "a").endorsed_by(&[0, 2]).build(),
            Rec::new(2, "a").endorsed_by(&[0, 1]).build(),
        ]);
        let m = EndorserMetrics::derive(&log);
        assert_eq!(m.total_endorsements, 6);
        assert_eq!(m.per_org.get("Org1"), Some(&3));
        assert_eq!(m.per_org.get("Org2"), Some(&2));
        assert_eq!(m.per_org.get("Org3"), Some(&1));
        let shares = m.org_shares();
        assert_eq!(shares[0].0, "Org1");
        assert!((shares[0].1 - 0.5).abs() < 1e-9);
        assert!((m.even_share() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_log() {
        let m = EndorserMetrics::derive(&BlockchainLog::default());
        assert_eq!(m.total_endorsements, 0);
        assert!(m.org_shares().is_empty());
        assert_eq!(m.even_share(), 0.0);
    }
}

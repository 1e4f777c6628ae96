//! Invoker significance `IVsig` (paper §4.3 (5)).
//!
//! Which clients — and thereby which organizations — invoke the majority of
//! transactions; drives the *client resource boost* recommendation.

use super::Name;
use crate::log::{BlockchainLog, TxRecord};
use fabric_sim::types::{ClientId, OrgId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Invocation counts per client and per organization.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct InvokerMetrics {
    /// Transactions per client (display name → count).
    pub per_client: BTreeMap<String, usize>,
    /// Transactions per organization (display name → count).
    pub per_org: BTreeMap<String, usize>,
    /// Total transactions.
    pub total: usize,
}

impl InvokerMetrics {
    /// Derive from a log.
    pub fn derive(log: &BlockchainLog) -> InvokerMetrics {
        let mut m = InvokerMetrics::default();
        for r in log.records() {
            m.observe(r);
        }
        m
    }

    /// Fold one transaction into the counts (streaming update). Names are
    /// rendered on the stack, so only a client or organization seen for the
    /// first time allocates (its owned key).
    pub fn observe(&mut self, r: &TxRecord) {
        super::increment(&mut self.per_client, Name::client(r.invoker).as_str());
        super::increment(&mut self.per_org, Name::org(r.invoker.org).as_str());
        self.total += 1;
    }

    /// Per-organization invocation shares, descending.
    pub fn org_shares(&self) -> Vec<(String, f64)> {
        let total = self.total.max(1) as f64;
        let mut v: Vec<(String, f64)> = self
            .per_org
            .iter()
            .map(|(o, &c)| (o.clone(), c as f64 / total))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }
}

/// Invocation counts keyed by client and organization id: a session's
/// running state, whose lookups compare integers where
/// [`InvokerMetrics`] compares display names.
/// [`render`](Self::render) spells them out by name.
#[derive(Debug, Clone, Default)]
pub(crate) struct InvokerCounts {
    per_client: BTreeMap<ClientId, usize>,
    per_org: BTreeMap<OrgId, usize>,
    total: usize,
}

impl InvokerCounts {
    /// Fold one transaction in; only a client or organization seen for
    /// the first time allocates (its map entry).
    pub(crate) fn observe(&mut self, r: &TxRecord) {
        super::increment(&mut self.per_client, &r.invoker);
        super::increment(&mut self.per_org, &r.invoker.org);
        self.total += 1;
    }

    /// Reverse one earlier [`observe`](Self::observe) of `r`
    /// (sliding-window eviction); clients and organizations whose count
    /// reaches zero are removed. Allocates nothing.
    pub(crate) fn retract(&mut self, r: &TxRecord) {
        super::decrement(&mut self.per_client, &r.invoker);
        super::decrement(&mut self.per_org, &r.invoker.org);
        self.total -= 1;
    }

    /// Clients with a live count.
    pub(crate) fn clients(&self) -> usize {
        self.per_client.len()
    }

    /// The counts as [`InvokerMetrics`], keyed and ordered by display name
    /// like [`InvokerMetrics::derive`]'s.
    pub(crate) fn render(&self) -> InvokerMetrics {
        InvokerMetrics {
            per_client: super::by_name(&self.per_client),
            per_org: super::by_name(&self.per_org),
            total: self.total,
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
            Rec::new(0, "a").invoker_org(0).build(),
            Rec::new(1, "a").invoker_org(1).build(),
            Rec::new(2, "a").invoker_org(1).build(),
        ];
        let mut counts = InvokerCounts::default();
        for r in &recs {
            counts.observe(r);
        }
        counts.retract(&recs[0]);
        let m = counts.render();
        let fresh = InvokerMetrics::derive(&log_of(recs[1..].to_vec()));
        assert_eq!(m.per_client, fresh.per_client);
        assert_eq!(m.per_org, fresh.per_org);
        assert_eq!(m.total, fresh.total);
        for r in &recs[1..] {
            counts.retract(r);
        }
        assert_eq!(counts.clients(), 0);
        assert!(counts.render().per_org.is_empty());
        assert_eq!(counts.render().total, 0);
    }

    #[test]
    fn counts_and_shares() {
        let log = log_of(vec![
            Rec::new(0, "a").invoker_org(0).build(),
            Rec::new(1, "a").invoker_org(0).build(),
            Rec::new(2, "a").invoker_org(0).build(),
            Rec::new(3, "a").invoker_org(1).build(),
        ]);
        let m = InvokerMetrics::derive(&log);
        assert_eq!(m.total, 4);
        assert_eq!(m.per_org.get("Org1"), Some(&3));
        let shares = m.org_shares();
        assert_eq!(shares[0], ("Org1".to_string(), 0.75));
        assert_eq!(shares[1], ("Org2".to_string(), 0.25));
    }

    #[test]
    fn per_client_granularity() {
        let log = log_of(vec![Rec::new(0, "a").build(), Rec::new(1, "a").build()]);
        let m = InvokerMetrics::derive(&log);
        assert_eq!(m.per_client.len(), 1, "same default client");
        assert_eq!(m.per_client.values().next(), Some(&2));
    }

    #[test]
    fn empty_log() {
        let m = InvokerMetrics::derive(&BlockchainLog::default());
        assert_eq!(m.total, 0);
        assert!(m.org_shares().is_empty());
    }
}

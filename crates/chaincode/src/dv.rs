//! Digital Voting (DV) contract and the altered-data-model variant.
//!
//! The base contract (§5.1.2) tallies votes directly on the party key — so
//! during the voting phase every `vote` transaction updates one of a handful
//! of party records, and within each block only the first vote per party
//! survives MVCC validation. That is why Figure 16's baseline commits only
//! ~10 % of transactions.
//!
//! BlockOptR's *data model alteration* recommendation (§6.2) changes the
//! primary key from `partyID` to `voterID`: each vote becomes an insert of a
//! unique key, removing the dependency entirely (100 % success in the
//! paper). [`DvPerVoterContract`] implements that redesign; results are
//! aggregated by a range scan at `seeResults`.

use crate::{aborting, arg_str, Contract, ExecStatus, TxContext, Value};
use std::collections::BTreeMap;

/// The base digital-voting contract (namespace `dv`): party-keyed tallies.
#[derive(Debug, Default, Clone, Copy)]
pub struct DvContract;

impl DvContract {
    /// Chaincode namespace.
    pub const NAME: &'static str = "dv";

    /// Genesis value of a party key.
    pub fn genesis_party(party: &str) -> Value {
        let mut m = BTreeMap::new();
        m.insert("name".to_string(), Value::Str(party.to_string()));
        m.insert("votes".to_string(), Value::Int(0));
        m.insert("voters".to_string(), Value::Str(String::new()));
        Value::Map(m)
    }
}

impl Contract for DvContract {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn execute(&self, ctx: &mut TxContext<'_>, activity: &str, args: &[Value]) -> ExecStatus {
        aborting(|| {
            Ok(match activity {
                "vote" => {
                    let party = arg_str(args, 0, "party")?;
                    let voter = arg_str(args, 1, "voter")?;
                    let Some(Value::Map(mut m)) = ctx.get_state(party) else {
                        return Err(format!("unknown party {party}"));
                    };
                    let votes = m.get("votes").and_then(Value::as_int).unwrap_or(0);
                    m.insert("votes".to_string(), Value::Int(votes + 1));
                    // Recording the voter prevents double voting and makes the
                    // write a multi-field change (not a pure counter delta).
                    let voters = m
                        .get("voters")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string();
                    m.insert(
                        "voters".to_string(),
                        Value::Str(if voters.is_empty() {
                            voter.to_string()
                        } else {
                            format!("{voters},{voter}")
                        }),
                    );
                    ctx.put_state(party, Value::Map(m));
                    ExecStatus::Ok
                }
                "queryParties" => {
                    let _ = ctx.get_state("parties");
                    ExecStatus::Ok
                }
                "seeResults" => {
                    let _ = ctx.get_state_by_range("party:", "party:~");
                    ExecStatus::Ok
                }
                "endElection" => {
                    let _ = ctx.get_state("election");
                    ctx.put_state("election", Value::Str("closed".into()));
                    ExecStatus::Ok
                }
                other => panic!("dv: unknown activity {other:?}"),
            })
        })
    }

    fn activities(&self) -> Vec<&'static str> {
        vec!["vote", "queryParties", "seeResults", "endElection"]
    }
}

/// The redesigned contract (namespace `dv`): voter-keyed ballots.
#[derive(Debug, Default, Clone, Copy)]
pub struct DvPerVoterContract;

impl DvPerVoterContract {
    /// Chaincode namespace (upgraded in place).
    pub const NAME: &'static str = "dv";
}

impl Contract for DvPerVoterContract {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn id(&self) -> &str {
        "dv:per-voter"
    }

    fn execute(&self, ctx: &mut TxContext<'_>, activity: &str, args: &[Value]) -> ExecStatus {
        aborting(|| {
            Ok(match activity {
                "vote" => {
                    // Each voter writes their own unique ballot key: voters are
                    // "restricted to a single vote", so inserts never collide.
                    let party = arg_str(args, 0, "party")?;
                    let voter = arg_str(args, 1, "voter")?;
                    ctx.put_state(&format!("ballot:{voter}"), Value::Str(party.to_string()));
                    ExecStatus::Ok
                }
                "queryParties" => {
                    let _ = ctx.get_state("parties");
                    ExecStatus::Ok
                }
                "seeResults" => {
                    // Tally by scanning the ballots.
                    let ballots = ctx.get_state_by_range("ballot:", "ballot:~");
                    let mut tally: BTreeMap<String, i64> = BTreeMap::new();
                    for (_, v) in ballots {
                        if let Some(p) = v.as_str() {
                            *tally.entry(p.to_string()).or_insert(0) += 1;
                        }
                    }
                    ExecStatus::Ok
                }
                "endElection" => {
                    let _ = ctx.get_state("election");
                    ctx.put_state("election", Value::Str("closed".into()));
                    ExecStatus::Ok
                }
                other => panic!("dv-per-voter: unknown activity {other:?}"),
            })
        })
    }

    fn activities(&self) -> Vec<&'static str> {
        vec!["vote", "queryParties", "seeResults", "endElection"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::state::WorldState;
    use fabric_sim::types::TxType;

    fn state() -> WorldState {
        let mut s = WorldState::new();
        s.seed("dv/party:A".into(), DvContract::genesis_party("A"));
        s.seed("dv/party:B".into(), DvContract::genesis_party("B"));
        s.seed("dv/parties".into(), Value::Str("A,B".into()));
        s
    }

    #[test]
    fn base_vote_updates_party_key() {
        let mut s = state();
        let cc = DvContract;
        let mut ctx = TxContext::new(&mut s, cc.name());
        assert!(cc
            .execute(&mut ctx, "vote", &["party:A".into(), "V001".into()])
            .is_ok());
        let rw = ctx.into_rwset();
        assert_eq!(rw.tx_type(), TxType::Update);
        assert_eq!(&*rw.writes[0].key, "dv/party:A");
        let m = rw.writes[0].value.as_ref().unwrap().as_map().unwrap();
        assert_eq!(m.get("votes"), Some(&Value::Int(1)));
        assert_eq!(m.get("voters"), Some(&Value::Str("V001".into())));
    }

    #[test]
    fn base_votes_for_same_party_share_a_key() {
        // The structural reason the base model collapses: all voters of one
        // party read-modify-write the same key.
        let mut s = state();
        let cc = DvContract;
        let mut ctx1 = TxContext::new(&mut s, cc.name());
        cc.execute(&mut ctx1, "vote", &["party:A".into(), "V001".into()]);
        let k1 = ctx1.into_rwset().writes[0].key.clone();
        let mut ctx2 = TxContext::new(&mut s, cc.name());
        cc.execute(&mut ctx2, "vote", &["party:A".into(), "V002".into()]);
        let k2 = ctx2.into_rwset().writes[0].key.clone();
        assert_eq!(k1, k2);
    }

    #[test]
    fn per_voter_votes_use_unique_keys() {
        let mut s = state();
        let cc = DvPerVoterContract;
        let mut ctx1 = TxContext::new(&mut s, cc.name());
        cc.execute(&mut ctx1, "vote", &["party:A".into(), "V001".into()]);
        let rw1 = ctx1.into_rwset();
        let mut ctx2 = TxContext::new(&mut s, cc.name());
        cc.execute(&mut ctx2, "vote", &["party:A".into(), "V002".into()]);
        let rw2 = ctx2.into_rwset();
        assert_eq!(rw1.tx_type(), TxType::Write, "blind insert");
        assert_ne!(rw1.writes[0].key, rw2.writes[0].key, "no shared key");
        assert!(rw1.reads.is_empty(), "no read dependency at all");
    }

    #[test]
    fn base_unknown_party_aborts() {
        let mut s = state();
        let cc = DvContract;
        let mut ctx = TxContext::new(&mut s, cc.name());
        let st = cc.execute(&mut ctx, "vote", &["party:Z".into(), "V1".into()]);
        assert!(!st.is_ok());
    }

    #[test]
    fn see_results_scans_parties_in_base() {
        let mut s = state();
        let cc = DvContract;
        let mut ctx = TxContext::new(&mut s, cc.name());
        assert!(cc.execute(&mut ctx, "seeResults", &[]).is_ok());
        let rw = ctx.into_rwset();
        assert_eq!(rw.range_reads[0].observed.len(), 2);
    }

    #[test]
    fn see_results_tallies_ballots_in_redesign() {
        let mut s = state();
        s.seed("dv/ballot:V001".into(), Value::Str("party:A".into()));
        s.seed("dv/ballot:V002".into(), Value::Str("party:A".into()));
        s.seed("dv/ballot:V003".into(), Value::Str("party:B".into()));
        let cc = DvPerVoterContract;
        let mut ctx = TxContext::new(&mut s, cc.name());
        assert!(cc.execute(&mut ctx, "seeResults", &[]).is_ok());
        let rw = ctx.into_rwset();
        assert_eq!(rw.range_reads[0].observed.len(), 3);
    }

    #[test]
    fn end_election_closes_once() {
        let mut s = state();
        let cc = DvContract;
        let mut ctx = TxContext::new(&mut s, cc.name());
        assert!(cc.execute(&mut ctx, "endElection", &[]).is_ok());
        let rw = ctx.into_rwset();
        assert_eq!(&*rw.writes[0].key, "dv/election");
    }

    #[test]
    fn query_parties_reads_directory_key_only() {
        // Ksig isolation: queryParties does NOT touch individual party keys,
        // so the party hotkeys are accessed only by `vote` (and the one-off
        // seeResults scan) — the shape behind the data-model recommendation.
        let mut s = state();
        let cc = DvContract;
        let mut ctx = TxContext::new(&mut s, cc.name());
        assert!(cc.execute(&mut ctx, "queryParties", &[]).is_ok());
        let rw = ctx.into_rwset();
        assert_eq!(rw.reads.len(), 1);
        assert_eq!(&*rw.reads[0].key, "dv/parties");
    }
}

//! The end-to-end simulation driver.
//!
//! [`Simulation`] wires the pieces together and runs a workload (a time-
//! stamped list of [`TxRequest`]s) through the full EOV pipeline:
//!
//! ```text
//! client worker ──► endorsers (execute @ endorsement time) ──► client
//!   (proposal)        per selected org, queued FIFO           (assemble)
//!        │                                                        │
//!        ▼                                                        ▼
//!     Commit ◄── Validate ◄── validator ◄── Raft ◄── orderer (block cutter
//!   (to ledger)  (MVCC)        queue                  + scheduler + assembly)
//! ```
//!
//! The run loop is a [`sim_core::des`] model: each Fabric phase is one
//! `Phase` event kind dispatched by the (private) `Engine` handler, and every
//! stage is a finite-rate queueing server with its service times drawn from
//! the [`ResourceProfile`](crate::config::ResourceProfile). All state reads
//! happen at their simulated instant in global event order, so MVCC
//! conflict windows — endorsement time to commit time — emerge from
//! queueing dynamics rather than being injected. Block cutting is two
//! racing events: a size/byte-triggered cut versus a timeout timer that is
//! cancelled when the size cut wins and re-armed on the first arrival of a
//! fresh buffer.
//!
//! Four invariants keep the run loop lean without changing a byte of output:
//!
//! * **One execution per proposal per state generation.** Only `Validate`
//!   writes the world state, and it bumps a generation counter when it does.
//!   `Propose` executes the chaincode once (its access count prices the
//!   endorsement) and keeps the result stamped with the generation. An
//!   endorser starting at the same generation reuses that result, since a
//!   [`Contract`] is a pure function of committed state, activity and
//!   arguments; one starting later re-executes and re-stamps it. All slots
//!   served by one run share its read-write set through an `Arc`, which the
//!   commit moves into the envelope; the analyzer's record of the
//!   transaction shares it from there.
//! * **Lazy arrivals.** Each `Submit` schedules the next request in
//!   injection order (send time, then index), so the event heap holds the
//!   in-flight events and one pending arrival rather than the whole
//!   schedule. Only one `Submit` is ever pending and every other kind has a
//!   different priority, so the dispatch order is the one a pre-filled heap
//!   would give.
//! * **One report fold.** `Commit` folds each block into the report as it
//!   commits (the same fold [`SimReport::from_ledger`] runs over a finished
//!   chain), and records each request's outcome when a fault plan needs
//!   per-window statistics. So the report never reads the ledger, and
//!   [`Simulation::run_report`] builds no envelope and keeps no ledger at
//!   all: its report is the bytes of [`Simulation::run`]'s.
//! * **One heap entry per FIFO server.** Each client worker's `Propose` and
//!   `Order` events and each endorsing peer's `Endorse` events go on that
//!   server's DES lane ([`DesQueue::schedule_on`]). A FIFO server's
//!   completions come in order, so its backlog waits in the lane behind
//!   one heap entry, and the heap holds tens of entries instead of every
//!   waiting job; an event out of its lane's order goes to the heap. The
//!   lanes are a k-way merge, so the dispatch order is the one heap's.

use crate::client::{EndorserFleet, EndorserSelector, WorkerFleet};
use crate::config::NetworkConfig;
use crate::contract::{Contract, ExecStatus, TxContext};
use crate::fault::RETRY_EXHAUSTED_REASON;
use crate::fault::{self, FaultRuntime, FaultSpec, RetryPolicy, BACKOFF_STREAM, DROP_STREAM};
use crate::ledger::{Block, CutReason, Ledger, TransactionEnvelope, TxStatus};
use crate::orderer::{ArrivalOutcome, BlockCutter, Cut};
use crate::report::{Degradation, FaultWindowStats, ReportFold, SimReport};
use crate::rwset::ReadWriteSet;
use crate::scheduler::{schedule_block, stale_tolerance_blocks, SchedTx};
use crate::state::WorldState;
use crate::types::{ClientId, Name, OrgId, PeerId, TxId, Value};
use crate::validator::{validate_block, TxToValidate, Verdict};
use sim_core::des::{self, DesQueue, EventKind, Handler, Lane, TimerId};
use sim_core::rng::SimRng;
use sim_core::server::QueueServer;
use sim_core::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Seed-stream label for the engine's service-time draws. Like
/// [`DROP_STREAM`]/[`BACKOFF_STREAM`], the engine RNG is derived from the
/// network seed through a dedicated named stream so new consumers of the
/// seed can never perturb existing draw sequences.
pub const ENGINE_STREAM: u64 = 0xE5D0;

/// One workload transaction to inject.
///
/// Names and arguments are shared ([`Name`] = `Arc<str>`, `Arc<[Value]>`):
/// workload generators build each distinct name once, and cloning a request
/// — which schedule rewrites and the multi-seed plan executor do wholesale —
/// copies three pointers instead of re-allocating strings and argument
/// vectors.
///
/// Requests serialize, so a whole schedule can be exported as JSON and
/// replayed later (the declarative `ScenarioSpec` layer relies on this).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TxRequest {
    /// When the client creates the proposal.
    pub send_time: SimTime,
    /// Target chaincode (must be registered on the simulation).
    pub contract: Name,
    /// Smart-contract function to invoke.
    pub activity: Name,
    /// Function arguments (contracts must be deterministic in these).
    pub args: Arc<[Value]>,
    /// Organization whose client invokes the transaction.
    pub invoker_org: OrgId,
}

/// Everything a finished run produces.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// The committed chain (the input to BlockOptR).
    pub ledger: Ledger,
    /// Aggregate measurements.
    pub report: SimReport,
}

/// The Fabric pipeline phases, as DES event kinds.
///
/// Priorities follow the pipeline: at one simulated instant, events
/// dispatch in the order work flows through the network — a client submits
/// before a proposal fans out, endorsements execute before assembly, and
/// validation applies state before the commit seals the block. The one
/// deliberate exception: the block-timeout timer outranks an envelope
/// arriving at the very same instant, so `block_timeout` is a hard upper
/// bound on block age — an envelope landing exactly on the deadline opens
/// the *next* block rather than sneaking into the expiring one.
///
/// Fault-window boundaries outrank everything at a shared instant:
/// `FaultEnd` before `FaultStart` so abutting windows hand off cleanly, and
/// both before the pipeline phases so any handler consulting live fault
/// state observes exactly the static window test `start <= now < end`. The
/// client's endorsement-timeout arm sits between `Assemble` and the cut
/// race: a fan-out completing at the very deadline still assembles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// A fault window closes (the affected component recovers).
    FaultEnd,
    /// A fault window opens (outage / latency spike / orderer stall).
    FaultStart,
    /// A client creates and signs a proposal.
    Submit,
    /// The signed proposal fans out to the selected endorsers.
    Propose,
    /// One endorser executes the chaincode (subject carries the slot).
    Endorse,
    /// The client verifies endorsements and assembles the envelope.
    Assemble,
    /// The client's endorsement deadline fires: retry or give up.
    EndorseTimeout,
    /// The envelope reaches the ordering service (may trigger a size cut).
    Order,
    /// The block-timeout timer fires (the losing racer is cancelled).
    CutBlock,
    /// The validator finishes a block: MVCC checks + state application.
    Validate,
    /// The validated block is sealed into the ledger.
    Commit,
}

impl EventKind for Phase {
    fn priority(&self) -> u8 {
        match self {
            Phase::FaultEnd => 0,
            Phase::FaultStart => 1,
            Phase::Submit => 2,
            Phase::Propose => 3,
            Phase::Endorse => 4,
            Phase::Assemble => 5,
            Phase::EndorseTimeout => 6,
            Phase::CutBlock => 7,
            Phase::Order => 8,
            Phase::Validate => 9,
            Phase::Commit => 10,
        }
    }
}

/// Event subject: which entity a [`Phase`] event targets.
///
/// `idx` is a transaction handle for client/endorse/order phases, a block
/// handle (index into the in-flight list) for validate/commit, and a fault
/// window index for `FaultStart`/`FaultEnd`; `slot` selects the endorsement
/// slot within a transaction. `epoch` is the transaction's attempt epoch:
/// events carrying a stale epoch belong to a fan-out the client already
/// timed out and are ignored on dispatch.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Target {
    idx: usize,
    slot: usize,
    epoch: u32,
}

impl Target {
    fn tx(idx: usize) -> Self {
        Target {
            idx,
            slot: 0,
            epoch: 0,
        }
    }
    fn tx_at(idx: usize, epoch: u32) -> Self {
        Target {
            idx,
            slot: 0,
            epoch,
        }
    }
    fn endorse(idx: usize, slot: usize, epoch: u32) -> Self {
        Target { idx, slot, epoch }
    }
    fn block(idx: usize) -> Self {
        Target {
            idx,
            slot: 0,
            epoch: 0,
        }
    }
    fn window(idx: usize) -> Self {
        Target {
            idx,
            slot: 0,
            epoch: 0,
        }
    }
    fn timer() -> Self {
        Target::default()
    }
}

/// One chaincode run's outcome. Every endorsement slot the run serves holds
/// the same `Arc`, so sharing it costs no copy of the read-write set.
#[derive(Debug, Clone)]
enum EndorseResult {
    Ok(Arc<ReadWriteSet>),
    Abort(String),
}

#[derive(Debug, Clone, Default)]
struct Pending {
    worker: Option<ClientId>,
    client_ts: SimTime,
    submit_ts: SimTime,
    endorse_peers: Vec<PeerId>,
    /// Earliest and latest endorsement start of the current attempt; the
    /// block scheduler prices their spread.
    endorse_span: Option<(SimTime, SimTime)>,
    results: Vec<Option<EndorseResult>>,
    /// The current attempt's latest chaincode run and the state generation
    /// it executed at; an endorsement at that generation reuses it.
    exec: Option<(u64, EndorseResult)>,
    /// Per-slot: the endorsement reply was lost in transit (fault drop).
    /// Filled only when the fault plan drops messages; a missing entry
    /// means the reply arrived.
    response_dropped: Vec<bool>,
    /// Proposal attempts so far (1 after the first fan-out).
    attempt: usize,
    /// Current attempt epoch; bumped when a timeout abandons a fan-out.
    epoch: u32,
    /// The pending `Assemble` event for the current fan-out, cancellable
    /// when the endorsement timeout wins the race.
    assemble_timer: Option<TimerId>,
    /// The armed endorsement-timeout event, cancelled when assembly wins.
    timeout_timer: Option<TimerId>,
    mismatch: bool,
    dropped: bool,
}

impl Pending {
    /// Open an endorsement slot of the current fan-out.
    fn add_slot(&mut self, peer: PeerId, start: SimTime) {
        self.endorse_peers.push(peer);
        self.results.push(None);
        self.endorse_span = Some(match self.endorse_span {
            Some((first, last)) => (first.min(start), last.max(start)),
            None => (start, start),
        });
    }

    /// Time between the first and the last endorsement start.
    fn endorse_spread(&self) -> SimDuration {
        self.endorse_span
            .map_or(SimDuration::ZERO, |(first, last)| last.since(first))
    }
}

/// Blocks in flight between cutting and commit. `number` and `verdicts`
/// are filled in by the `Validate` phase and consumed by `Commit`.
struct InFlightBlock {
    txs: Vec<usize>,
    order: Vec<usize>,
    aborted: std::collections::BTreeSet<usize>,
    policy_failed: std::collections::BTreeSet<usize>,
    cut_reason: CutReason,
    cut_ts: SimTime,
    number: u64,
    verdicts: Vec<Verdict>,
}

/// A configured Fabric network ready to run workloads.
pub struct Simulation {
    config: NetworkConfig,
    contracts: HashMap<String, Arc<dyn Contract>>,
    genesis: Vec<(String, String, Value)>,
    fault: FaultSpec,
    retry: RetryPolicy,
}

/// The DES handler holding all of one run's mutable state. Each [`Phase`]
/// arm is a direct port of one pipeline stage.
struct Engine<'a> {
    sim: &'a Simulation,
    requests: &'a [TxRequest],
    /// Request indices not yet submitted, in injection order; each `Submit`
    /// schedules the next one.
    arrivals: std::vec::IntoIter<usize>,
    state: WorldState,
    /// Bumped by every `Validate`, the only phase that writes `state`: two
    /// runs of a request at one generation see the same committed state.
    generation: u64,
    workers: WorkerFleet,
    endorsers: EndorserFleet,
    /// The DES lane of each client worker and of each endorsing peer, by
    /// org and index: the events a FIFO server's completions schedule.
    worker_lanes: Vec<Vec<Lane>>,
    peer_lanes: Vec<Vec<Lane>>,
    selector: EndorserSelector,
    rng: SimRng,
    /// Compiled fault windows with live activity flags (empty when the
    /// fault spec is a no-op, in which case no fault events exist either).
    faults: FaultRuntime,
    /// Dedicated stream for proposal/endorsement drop draws; untouched in
    /// healthy runs so enabling drops never perturbs endorser selection.
    drop_rng: SimRng,
    /// Dedicated stream for backoff jitter draws (retry path only).
    backoff_rng: SimRng,
    /// Client-resilience counters surfaced as the report's degradation
    /// section.
    degradation: Degradation,
    cutter: BlockCutter,
    /// The armed block-timeout timer, if any — the cancellable half of the
    /// cut race.
    cut_timer: Option<TimerId>,
    orderer_srv: QueueServer,
    validator_srv: QueueServer,
    pending: Vec<Pending>,
    inflight: Vec<InFlightBlock>,
    /// Blocks validated so far; the next block to validate gets the next
    /// number.
    validated: u64,
    /// The committed chain and its observer, when the run keeps a ledger;
    /// a report-only run builds no envelopes.
    ledger: Option<LedgerSink<'a>>,
    /// The report's ledger-borne part, folded block by block at commit.
    fold: ReportFold,
    /// Per request: whether it committed successfully and its latency in
    /// seconds, recorded at commit. Kept only under a fault plan, whose
    /// per-window statistics read it.
    outcomes: Vec<Option<(bool, f64)>>,
    early_aborted: usize,
    abort_reasons: BTreeMap<String, usize>,
    intra: usize,
    inter: usize,
}

type Queue = DesQueue<Phase, Target>;

/// A run's committed chain and the observer each block is handed to as it
/// commits.
type LedgerSink<'a> = (Ledger, &'a mut dyn FnMut(&Block));

impl Handler<Phase, Target> for Engine<'_> {
    fn handle(&mut self, now: SimTime, kind: Phase, target: Target, queue: &mut Queue) {
        match kind {
            Phase::FaultStart => self.faults.activate(target.idx),
            Phase::FaultEnd => self.faults.deactivate(target.idx),
            Phase::Submit => self.submit(now, target.idx, queue),
            Phase::Propose => self.propose(now, target.idx, target.epoch, queue),
            Phase::Endorse => self.endorse(target.idx, target.slot, target.epoch),
            Phase::Assemble => self.assemble(now, target.idx, target.epoch, queue),
            Phase::EndorseTimeout => self.endorse_timeout(now, target.idx, target.epoch, queue),
            Phase::Order => self.order(now, target.idx, queue),
            Phase::CutBlock => self.cut_block(now, queue),
            Phase::Validate => self.validate(now, target.idx, queue),
            Phase::Commit => self.commit(now, target.idx),
        }
    }

    /// Queue drained: flush any partial block, which schedules the events
    /// to validate and commit it; when nothing is buffered the run ends.
    fn on_idle(&mut self, now: SimTime, queue: &mut Queue) {
        if let Some(cut) = self.cutter.flush(now) {
            self.process_cut(cut, queue);
        }
    }
}

impl Engine<'_> {
    fn submit(&mut self, now: SimTime, i: usize, queue: &mut Queue) {
        if let Some(next) = self.arrivals.next() {
            queue.schedule(
                self.requests[next].send_time,
                Phase::Submit,
                Target::tx(next),
            );
        }
        let req = &self.requests[i];
        let worker = self.workers.assign(req.invoker_org);
        self.pending[i].worker = Some(worker);
        self.pending[i].client_ts = now;
        let (_, done) = self
            .workers
            .submit(worker, now, self.sim.config.resources.proposal_time());
        queue.schedule_on(
            self.worker_lane(worker),
            done,
            Phase::Propose,
            Target::tx(i),
        );
    }

    fn worker_lane(&self, worker: ClientId) -> Lane {
        self.worker_lanes[usize::from(worker.org.0)][usize::from(worker.index)]
    }

    /// Run request `i`'s chaincode against the committed state. Also
    /// returns the number of state accesses, which prices an endorsement.
    fn execute(&mut self, i: usize) -> (EndorseResult, usize) {
        let req = &self.requests[i];
        let contract = self
            .sim
            .contracts
            .get(req.contract.as_ref())
            .unwrap_or_else(|| panic!("contract {:?} not installed", req.contract));
        let mut ctx = TxContext::new(&mut self.state, contract.name());
        let status = contract.execute(&mut ctx, &req.activity, &req.args);
        let accesses = ctx.access_count();
        let result = match status {
            ExecStatus::Ok => EndorseResult::Ok(Arc::new(ctx.into_rwset())),
            ExecStatus::Abort(reason) => EndorseResult::Abort(reason),
        };
        (result, accesses)
    }

    fn propose(&mut self, now: SimTime, i: usize, epoch: u32, queue: &mut Queue) {
        if self.pending[i].dropped || self.pending[i].epoch != epoch {
            return;
        }
        let res = &self.sim.config.resources;
        // The proposal-time run prices the endorsement and is kept for the
        // endorsers to reuse while the state generation holds.
        let (result, accesses) = self.execute(i);
        self.pending[i].exec = Some((self.generation, result));
        let service = res.endorse_exec_base + res.endorse_exec_per_access.mul(accesses as u64);

        let arrival = now + self.net_delay();
        let mut last_done = now;
        let drops = self.sim.fault.drop;
        let p = &mut self.pending[i];
        p.attempt += 1;
        // Whether every selected endorser can be expected to answer this
        // fan-out. Peer availability is predicted with the static window
        // test at the execution start instant, which agrees exactly with
        // the live flags the `Endorse` handler will observe there.
        let mut all_responsive = true;
        for (slot, &org) in self.selector.choose(&mut self.rng).iter().enumerate() {
            let proposal_lost = drops.is_some_and(|d| self.drop_rng.chance(d.proposal_rate));
            if proposal_lost {
                // The proposal never reaches the peer: nothing executes and
                // no `Endorse` event exists for the slot. A placeholder
                // entry keeps the per-slot vectors aligned; it can never
                // reach an envelope because a fan-out with a missing result
                // either retries (vectors cleared) or aborts.
                self.degradation.dropped_proposals += 1;
                all_responsive = false;
                p.add_slot(PeerId { org, index: 0 }, arrival);
                p.response_dropped.push(false);
                continue;
            }
            let (peer, start, done) = self.endorsers.submit(org, arrival, service);
            let response_lost = drops.is_some_and(|d| self.drop_rng.chance(d.endorsement_rate));
            if response_lost {
                self.degradation.dropped_endorsements += 1;
            }
            if response_lost || self.faults.peer_down_at(peer, start) {
                all_responsive = false;
            }
            p.add_slot(peer, start);
            if drops.is_some() {
                p.response_dropped.push(response_lost);
            }
            last_done = last_done.max(done);
            let lane = self.peer_lanes[usize::from(peer.org.0)][usize::from(peer.index)];
            queue.schedule_on(lane, start, Phase::Endorse, Target::endorse(i, slot, epoch));
        }
        // The client races its endorsement deadline against the fan-out.
        // Assembly is only scheduled when every slot will answer (or when
        // no timeout is configured — the legacy client waits forever and
        // aborts on the incomplete result set).
        let timeout = self.sim.retry.endorse_timeout_duration();
        if all_responsive || timeout.is_none() {
            let at = last_done + self.net_delay();
            self.pending[i].assemble_timer =
                Some(queue.schedule_timer(at, Phase::Assemble, Target::tx_at(i, epoch)));
        }
        if let Some(deadline) = timeout {
            self.pending[i].timeout_timer = Some(queue.schedule_timer(
                now + deadline,
                Phase::EndorseTimeout,
                Target::tx_at(i, epoch),
            ));
        }
    }

    fn endorse(&mut self, tx: usize, slot: usize, epoch: u32) {
        {
            let p = &self.pending[tx];
            if p.dropped || p.epoch != epoch {
                return;
            }
            // Consult live fault state: a peer inside an active outage
            // window executes nothing, and a reply the fault plan drops
            // never reaches the client.
            if self.faults.peer_down_now(p.endorse_peers[slot]) {
                return;
            }
            if p.response_dropped.get(slot).copied().unwrap_or(false) {
                return;
            }
        }
        let generation = self.generation;
        let result = match &self.pending[tx].exec {
            Some((at, result)) if *at == generation => result.clone(),
            _ => {
                let (result, _) = self.execute(tx);
                self.pending[tx].exec = Some((generation, result.clone()));
                result
            }
        };
        self.pending[tx].results[slot] = Some(result);
    }

    fn assemble(&mut self, now: SimTime, i: usize, epoch: u32, queue: &mut Queue) {
        if self.pending[i].dropped || self.pending[i].epoch != epoch {
            return;
        }
        // Assembly won the race: disarm the endorsement deadline.
        self.pending[i].assemble_timer = None;
        if let Some(timer) = self.pending[i].timeout_timer.take() {
            queue.cancel(timer);
        }
        let p = &mut self.pending[i];
        // Every endorsement of this attempt has run.
        p.exec = None;
        let mut first_ok: Option<usize> = None;
        let mut aborted = false;
        let mut missing = false;
        for (slot, r) in p.results.iter().enumerate() {
            match r {
                Some(EndorseResult::Ok(_)) => {
                    first_ok = first_ok.or(Some(slot));
                }
                Some(EndorseResult::Abort(_)) => aborted = true,
                // A slot with no result (lost proposal/reply, peer down)
                // leaves the policy's org set unsatisfied — without a
                // timeout arm the client gives up here.
                None => missing = true,
            }
        }
        let Some(first) = first_ok.filter(|_| !aborted && !missing) else {
            // The chaincode rejected the proposal on at least one endorser:
            // the client cannot assemble a valid transaction — early abort
            // (pruning path). The contract's reason feeds the report's
            // failure breakdown.
            let reason = p
                .results
                .iter()
                .flatten()
                .find_map(|r| match r {
                    EndorseResult::Abort(reason) => Some(reason.as_str()),
                    EndorseResult::Ok(_) => None,
                })
                .unwrap_or(fault::NO_ENDORSEMENT_REASON);
            *self.abort_reasons.entry(reason.to_string()).or_insert(0) += 1;
            p.dropped = true;
            self.early_aborted += 1;
            return;
        };
        let canonical = match p.results[first].as_ref() {
            Some(EndorseResult::Ok(rw)) => rw,
            _ => unreachable!("first_ok indexes an Ok result"),
        };
        p.mismatch = p.results.iter().flatten().any(
            |r| matches!(r, EndorseResult::Ok(rw) if !Arc::ptr_eq(rw, canonical) && rw != canonical),
        );
        let worker = p.worker.expect("assigned at Submit");
        let (_, done) = self
            .workers
            .submit(worker, now, self.sim.config.resources.assemble_time());
        let p = &mut self.pending[i];
        p.submit_ts = done;
        // Keep only the canonical rwset, in slot 0: with the other slots'
        // handles gone, the envelope becomes its sole owner at commit.
        p.results.swap(0, first);
        p.results.truncate(1);
        let at = done + self.net_delay();
        queue.schedule_on(self.worker_lane(worker), at, Phase::Order, Target::tx(i));
    }

    /// The client's endorsement deadline fired before the fan-out
    /// completed: abandon the current attempt epoch, then either re-select
    /// endorsers and retry after a deterministic backoff, or — with the
    /// retry budget exhausted — abort with the typed exhaustion reason.
    fn endorse_timeout(&mut self, now: SimTime, i: usize, epoch: u32, queue: &mut Queue) {
        if self.pending[i].dropped || self.pending[i].epoch != epoch {
            return;
        }
        self.pending[i].timeout_timer = None;
        if let Some(timer) = self.pending[i].assemble_timer.take() {
            queue.cancel(timer);
        }
        self.degradation.timeouts += 1;
        let max_attempts = self.sim.retry.max_attempts.max(1);
        let p = &mut self.pending[i];
        if p.attempt >= max_attempts {
            *self
                .abort_reasons
                .entry(RETRY_EXHAUSTED_REASON.to_string())
                .or_insert(0) += 1;
            p.dropped = true;
            self.early_aborted += 1;
            self.degradation.retry_exhausted += 1;
            return;
        }
        self.degradation.retries += 1;
        p.epoch += 1;
        p.endorse_peers.clear();
        p.endorse_span = None;
        p.results.clear();
        p.response_dropped.clear();
        p.mismatch = false;
        let retry_index = p.attempt as u32;
        let next_epoch = p.epoch;
        let backoff = self.sim.retry.backoff(retry_index, &mut self.backoff_rng);
        queue.schedule(now + backoff, Phase::Propose, Target::tx_at(i, next_epoch));
    }

    /// The base network delay, inflated by any active latency-spike
    /// windows. Sampled at send time; with no active spike the base delay
    /// is returned untouched (no float round-trip).
    fn net_delay(&self) -> SimDuration {
        let base = self.sim.config.resources.net_delay;
        match self.faults.latency_factor() {
            Some(factor) => base.mul_f64(factor),
            None => base,
        }
    }

    fn order(&mut self, now: SimTime, i: usize, queue: &mut Queue) {
        let size = self.sim.proposal_size(&self.pending[i], &self.requests[i]);
        match self.cutter.on_arrival(now, i, size) {
            ArrivalOutcome::ArmTimer { deadline } => {
                self.cut_timer =
                    Some(queue.schedule_timer(deadline, Phase::CutBlock, Target::timer()));
            }
            ArrivalOutcome::CutNow(cut) => {
                // The size/byte cut won the race: disarm the timeout.
                if let Some(timer) = self.cut_timer.take() {
                    queue.cancel(timer);
                }
                self.process_cut(cut, queue);
            }
            ArrivalOutcome::Buffered => {}
        }
    }

    fn cut_block(&mut self, now: SimTime, queue: &mut Queue) {
        self.cut_timer = None;
        if let Some(cut) = self.cutter.on_timeout(now) {
            self.process_cut(cut, queue);
        }
    }

    /// Schedule a cut block through the orderer and validator queues: the
    /// scheduler fixes the in-block order, the orderer assembles and Raft
    /// replicates, and the validator's completion becomes the block's
    /// `Validate` event.
    fn process_cut(&mut self, cut: Cut, queue: &mut Queue) {
        let res = &self.sim.config.resources;
        let sched_txs: Vec<SchedTx<'_>> = cut
            .txs
            .iter()
            .map(|&i| {
                let p = &self.pending[i];
                let rwset = match p.results[0].as_ref().expect("assembled") {
                    EndorseResult::Ok(rw) => rw,
                    EndorseResult::Abort(_) => unreachable!(),
                };
                SchedTx {
                    rwset,
                    endorse_spread: p.endorse_spread(),
                }
            })
            .collect();
        let outcome = schedule_block(self.sim.config.scheduler, &sched_txs);

        let n = cut.txs.len() as u64;
        let assembly = res.order_block_fixed + res.order_per_tx.mul(n) + outcome.extra_cost;
        // An orderer stall holds the cut at the door: the block enters the
        // ordering queue when the stall window lifts.
        let accepted = self.faults.orderer_release(cut.at).unwrap_or(cut.at);
        let (_, assembled) = self.orderer_srv.submit(accepted, assembly);
        let delivered = assembled + res.raft_delay + self.net_delay();

        let mut validation = res.validate_block_fixed;
        for &i in &cut.txs {
            let p = &self.pending[i];
            let items = match p.results[0].as_ref() {
                Some(EndorseResult::Ok(rw)) => {
                    rw.reads.len()
                        + rw.range_reads
                            .iter()
                            .map(|r| r.observed.len())
                            .sum::<usize>()
                }
                _ => 0,
            };
            validation += res.validate_per_tx
                + res.validate_per_item.mul(items as u64)
                + res
                    .validate_per_endorsement
                    .mul(p.endorse_peers.len() as u64);
        }
        let (_, validated) = self.validator_srv.submit(delivered, validation);

        self.inflight.push(InFlightBlock {
            txs: cut.txs,
            order: outcome.order,
            aborted: outcome.aborted,
            policy_failed: outcome.policy_failed,
            cut_reason: cut.reason,
            cut_ts: cut.at,
            number: 0,
            verdicts: Vec::new(),
        });
        queue.schedule(
            validated,
            Phase::Validate,
            Target::block(self.inflight.len() - 1),
        );
    }

    /// MVCC-validate one block in its scheduled order, number it and apply
    /// the write sets; the verdicts are stashed for the `Commit` event
    /// scheduled at the same instant. Two blocks can validate at one
    /// instant (at zero validation cost), but their commits dispatch in
    /// the order their validations did, so the numbers stay contiguous.
    fn validate(&mut self, now: SimTime, block: usize, queue: &mut Queue) {
        self.validated += 1;
        let number = self.validated;
        let fb = &self.inflight[block];
        let to_validate: Vec<TxToValidate<'_>> = fb
            .order
            .iter()
            .map(|&pos| {
                let tx_idx = fb.txs[pos];
                let rwset = match self.pending[tx_idx].results[0]
                    .as_ref()
                    .expect("assembled tx has canonical rwset")
                {
                    EndorseResult::Ok(rw) => rw,
                    EndorseResult::Abort(_) => {
                        unreachable!("aborted txs never reach ordering")
                    }
                };
                TxToValidate {
                    rwset,
                    endorse_mismatch: self.pending[tx_idx].mismatch,
                    sched_aborted: fb.aborted.contains(&pos),
                    sched_policy_failed: fb.policy_failed.contains(&pos),
                }
            })
            .collect();
        let tolerance = stale_tolerance_blocks(self.sim.config.scheduler);
        let verdicts = validate_block(&mut self.state, number, &to_validate, tolerance);
        self.generation += 1;
        let fb = &mut self.inflight[block];
        fb.number = number;
        fb.verdicts = verdicts;
        queue.schedule(now, Phase::Commit, Target::block(block));
    }

    /// Seal a validated block: fold it into the report and, when the run
    /// keeps a ledger, build the envelopes, append the block and feed the
    /// live observer.
    fn commit(&mut self, now: SimTime, block: usize) {
        let fb = &self.inflight[block];
        self.fold.block(fb.cut_reason, now);
        let mut envelopes = Vec::with_capacity(if self.ledger.is_some() {
            fb.order.len()
        } else {
            0
        });
        for (k, &pos) in fb.order.iter().enumerate() {
            let tx_idx = fb.txs[pos];
            let verdict = fb.verdicts[k];
            if verdict.status == TxStatus::MvccReadConflict {
                if verdict.intra_block {
                    self.intra += 1;
                } else {
                    self.inter += 1;
                }
            }
            // A success that needed more than one fan-out is a graceful
            // degradation, not a failure — surfaced in the report.
            if verdict.status == TxStatus::Success && self.pending[tx_idx].attempt > 1 {
                self.degradation.degraded_success += 1;
            }
            // Each transaction commits exactly once, so the canonical rwset
            // handle and the endorser list move into the envelope (or are
            // released here when the run keeps no ledger).
            let p = &mut self.pending[tx_idx];
            let rwset = match p.results[0].take() {
                Some(EndorseResult::Ok(rw)) => rw,
                _ => unreachable!("committed tx has canonical rwset"),
            };
            let endorsers = std::mem::take(&mut p.endorse_peers);
            let latency = now.since(p.client_ts);
            self.fold.tx(verdict.status, latency);
            if let Some(outcome) = self.outcomes.get_mut(tx_idx) {
                *outcome = Some((verdict.status.is_success(), latency.as_secs_f64()));
            }
            if self.ledger.is_none() {
                continue;
            }
            let req = &self.requests[tx_idx];
            envelopes.push(TransactionEnvelope {
                id: TxId(tx_idx as u64),
                client_ts: p.client_ts,
                submit_ts: p.submit_ts,
                commit_ts: now,
                contract: req.contract.clone(),
                activity: req.activity.clone(),
                args: req.args.clone(),
                endorsers,
                invoker: p.worker.expect("assigned"),
                tx_type: rwset.tx_type(),
                rwset,
                status: verdict.status,
            });
        }
        if let Some((ledger, on_commit)) = &mut self.ledger {
            let fb = &self.inflight[block];
            ledger.append(Block {
                number: fb.number,
                cut_reason: fb.cut_reason,
                cut_ts: fb.cut_ts,
                commit_ts: now,
                txs: envelopes,
            });
            on_commit(ledger.blocks().last().expect("just appended"));
        }
    }
}

impl Simulation {
    /// A simulation over `config` with no contracts installed yet and no
    /// faults configured.
    pub fn new(config: NetworkConfig) -> Self {
        Simulation {
            config,
            contracts: HashMap::new(),
            genesis: Vec::new(),
            fault: FaultSpec::default(),
            retry: RetryPolicy::default(),
        }
    }

    /// Install a fault plan for subsequent runs. The spec must already be
    /// validated (the declarative scenario layer does this); a no-op spec
    /// is guaranteed not to change simulation output.
    pub fn set_fault(&mut self, fault: FaultSpec) {
        self.fault = fault;
    }

    /// Install the client retry policy for subsequent runs. The default
    /// policy (no endorsement timeout) reproduces the legacy client.
    pub fn set_retry(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// The configured fault plan.
    pub fn fault(&self) -> &FaultSpec {
        &self.fault
    }

    /// The configured client retry policy.
    pub fn retry(&self) -> &RetryPolicy {
        &self.retry
    }

    /// Install (deploy) a chaincode.
    pub fn install(&mut self, contract: Arc<dyn Contract>) {
        self.contracts.insert(contract.name().to_string(), contract);
    }

    /// Seed genesis state: `key` under `namespace` gets `value` at version 0:0.
    pub fn seed(&mut self, namespace: &str, key: &str, value: Value) {
        self.genesis
            .push((namespace.to_string(), key.to_string(), value));
    }

    /// The network configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Run the workload to completion and return the ledger + report.
    ///
    /// Panics if a request names an uninstalled contract.
    pub fn run(&self, requests: &[TxRequest]) -> SimOutput {
        self.run_observed(requests, &mut |_| {})
    }

    /// Run the workload to completion and return only the report: the
    /// same bytes as [`run`](Self::run)'s report, without building a
    /// single envelope or keeping the ledger. This is what a caller that
    /// measures a configuration and never reads its chain (the plan grid)
    /// runs.
    ///
    /// Panics if a request names an uninstalled contract.
    pub fn run_report(&self, requests: &[TxRequest]) -> SimReport {
        self.simulate(requests, None).0
    }

    /// Like [`run`](Self::run), but invoke `on_commit` with every block the
    /// moment it commits to the ledger — the committed-block feed a live
    /// monitoring loop consumes (`blockoptr watch --live` bridges this
    /// callback onto a channel and ingests each block into a windowed
    /// session while the simulation is still running).
    ///
    /// The callback runs on the simulation's thread between block commits;
    /// it sees each block exactly once, in chain order.
    pub fn run_observed(
        &self,
        requests: &[TxRequest],
        on_commit: &mut dyn FnMut(&Block),
    ) -> SimOutput {
        let (report, ledger) = self.simulate(requests, Some((Ledger::new(), on_commit)));
        let (ledger, _) = ledger.expect("the run was given a ledger");
        SimOutput { ledger, report }
    }

    /// The run behind [`run_observed`](Self::run_observed) and
    /// [`run_report`](Self::run_report): with `ledger`, every committed
    /// block is appended to it and handed to its observer; without, blocks
    /// only feed the report.
    fn simulate<'a>(
        &'a self,
        requests: &'a [TxRequest],
        ledger: Option<LedgerSink<'a>>,
    ) -> (SimReport, Option<LedgerSink<'a>>) {
        let cfg = &self.config;

        // Sorted injection schedule (stable by original index for ties).
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_key(|&i| (requests[i].send_time, i));

        let mut state = WorldState::new();
        for (ns, key, value) in &self.genesis {
            let key = state.resolve(ns, key).0;
            state.seed(key, value.clone());
        }

        let mut workers = WorkerFleet::new(cfg.orgs, cfg.clients_per_org);
        if let Some((org, factor)) = cfg.client_boost {
            workers.scale_org(OrgId(org), factor);
        }

        let first_send = order
            .first()
            .map(|&i| requests[i].send_time)
            .unwrap_or(SimTime::ZERO);
        let mut queue: Queue = DesQueue::new();
        // Fault-window boundaries become cancellable DES events toggling
        // the runtime's live availability flags. A no-op spec compiles to
        // zero windows, so healthy runs schedule exactly the same events
        // (and sequence numbers) as before faults existed.
        let faults = if self.fault.is_noop() {
            FaultRuntime::default()
        } else {
            FaultRuntime::compile(&self.fault)
        };
        for (w, start, end) in faults.spans() {
            let _ = queue.schedule_timer(start, Phase::FaultStart, Target::window(w));
            let _ = queue.schedule_timer(end, Phase::FaultEnd, Target::window(w));
        }
        // Only the first arrival is scheduled up front; each `Submit`
        // schedules the next.
        let mut arrivals = order.into_iter();
        if let Some(first) = arrivals.next() {
            queue.schedule(requests[first].send_time, Phase::Submit, Target::tx(first));
        }
        let endorsers = EndorserFleet::new(cfg.orgs, cfg.endorsers_per_org());
        let worker_lanes = (0..cfg.orgs)
            .map(|org| {
                let org = OrgId(org as u16);
                (0..workers.org_size(org))
                    .map(|_| queue.add_lane())
                    .collect()
            })
            .collect();
        let peer_lanes = (0..cfg.orgs)
            .map(|_| {
                (0..cfg.endorsers_per_org())
                    .map(|_| queue.add_lane())
                    .collect()
            })
            .collect();

        let mut engine = Engine {
            sim: self,
            requests,
            arrivals,
            state,
            generation: 0,
            workers,
            endorsers,
            worker_lanes,
            peer_lanes,
            selector: EndorserSelector::new(
                &cfg.endorsement_policy,
                cfg.orgs,
                self.endorser_skew_from_seed(),
            ),
            rng: SimRng::derive(cfg.seed, ENGINE_STREAM),
            faults,
            drop_rng: SimRng::derive(cfg.seed, DROP_STREAM),
            backoff_rng: SimRng::derive(cfg.seed, BACKOFF_STREAM),
            degradation: Degradation::default(),
            cutter: BlockCutter::new(cfg.block_count, cfg.block_bytes, cfg.block_timeout),
            cut_timer: None,
            orderer_srv: QueueServer::new(),
            validator_srv: QueueServer::new(),
            pending: vec![Pending::default(); requests.len()],
            inflight: Vec::new(),
            validated: 0,
            ledger,
            fold: ReportFold::new(),
            outcomes: if self.fault.is_noop() {
                Vec::new()
            } else {
                vec![None; requests.len()]
            },
            early_aborted: 0,
            abort_reasons: BTreeMap::new(),
            intra: 0,
            inter: 0,
        };
        let events = des::run(&mut queue, &mut engine);

        let Engine {
            workers,
            endorsers,
            orderer_srv,
            validator_srv,
            ledger,
            fold,
            outcomes,
            early_aborted,
            abort_reasons,
            intra,
            inter,
            mut degradation,
            ..
        } = engine;

        if !self.fault.is_noop() {
            degradation.windows = fault_window_stats(&self.fault, requests, &outcomes);
        }

        let mut report = fold.finish(requests.len(), first_send);
        report.early_aborted = early_aborted;
        report.early_abort_reasons = abort_reasons;
        report.intra_block_conflicts = intra;
        report.inter_block_conflicts = inter;
        report.events = events;
        report.degradation = degradation;
        let horizon = SimTime::ZERO
            + SimDuration::from_secs_f64(report.duration_s)
            + first_send.since(SimTime::ZERO);
        report.client_utilization = ratio(workers.total_busy(), horizon, workers.total_workers());
        report.endorser_utilization =
            ratio(endorsers.total_busy(), horizon, endorsers.total_peers());
        report.orderer_utilization = orderer_srv.utilization(horizon);
        report.validator_utilization = validator_srv.utilization(horizon);
        report.endorsements_per_peer = endorsers
            .endorsement_counts()
            .into_iter()
            .map(|(p, c)| (p.to_string(), c))
            .collect();

        (report, ledger)
    }

    /// Endorser-selection skew; stored on the config via the seed field would
    /// be opaque, so it lives in [`NetworkConfig`] — see `endorser_skew`.
    fn endorser_skew_from_seed(&self) -> f64 {
        self.config.endorser_skew
    }

    fn proposal_size(&self, p: &Pending, req: &TxRequest) -> u64 {
        let rw = match p.results[0].as_ref() {
            Some(EndorseResult::Ok(rw)) => rw.approx_size(),
            _ => 0,
        };
        let args: u64 = req.args.iter().map(Value::approx_size).sum();
        // Envelope framing + one signature per endorsement.
        256 + rw + args + 96 * p.endorse_peers.len() as u64
    }
}

/// Per-fault-window outcome statistics: which requests were sent while the
/// window was open, and how they fared. `outcomes` holds, per request
/// index, whether it committed successfully and its latency in seconds
/// (`None` when it never committed).
fn fault_window_stats(
    fault: &FaultSpec,
    requests: &[TxRequest],
    outcomes: &[Option<(bool, f64)>],
) -> Vec<FaultWindowStats> {
    fn at(secs: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(secs)
    }
    let mut windows: Vec<(String, SimTime, SimTime)> = Vec::new();
    for w in &fault.endorser_outages {
        let label = match w.peer {
            Some(p) => format!(
                "outage org{} peer{} {:.2}s+{:.2}s",
                w.org, p, w.start, w.duration
            ),
            None => format!("outage org{} {:.2}s+{:.2}s", w.org, w.start, w.duration),
        };
        windows.push((label, at(w.start), at(w.start + w.duration)));
    }
    for s in &fault.latency_spikes {
        windows.push((
            format!(
                "latency x{:.1} {:.2}s+{:.2}s",
                s.multiplier, s.start, s.duration
            ),
            at(s.start),
            at(s.start + s.duration),
        ));
    }
    for s in &fault.orderer_stalls {
        windows.push((
            format!("stall {:.2}s+{:.2}s", s.start, s.duration),
            at(s.start),
            at(s.start + s.duration),
        ));
    }
    windows
        .into_iter()
        .map(|(label, start, end)| {
            let mut submitted = 0usize;
            let mut successes = 0usize;
            let mut latency_sum = 0.0f64;
            for (i, req) in requests.iter().enumerate() {
                if req.send_time >= start && req.send_time < end {
                    submitted += 1;
                    if let Some((ok, latency)) = outcomes[i] {
                        if ok {
                            successes += 1;
                            latency_sum += latency;
                        }
                    }
                }
            }
            FaultWindowStats {
                label,
                submitted,
                successes,
                success_rate_pct: if submitted == 0 {
                    0.0
                } else {
                    successes as f64 / submitted as f64 * 100.0
                },
                avg_latency_s: if successes == 0 {
                    0.0
                } else {
                    latency_sum / successes as f64
                },
            }
        })
        .collect()
}

fn ratio(busy: SimDuration, horizon: SimTime, servers: usize) -> f64 {
    let cap = horizon.as_micros() as f64 * servers.max(1) as f64;
    if cap <= 0.0 {
        0.0
    } else {
        (busy.as_micros() as f64 / cap).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerKind;
    use crate::policy::EndorsementPolicy;

    /// A minimal key-value contract for driver tests:
    /// `put k v`, `get k`, `upd k` (read+write), `fail` (always aborts).
    struct KvContract;

    impl Contract for KvContract {
        fn name(&self) -> &str {
            "kv"
        }
        fn execute(&self, ctx: &mut TxContext<'_>, activity: &str, args: &[Value]) -> ExecStatus {
            match activity {
                "put" => {
                    let k = args[0].as_str().unwrap();
                    ctx.put_state(k, args[1].clone());
                    ExecStatus::Ok
                }
                "get" => {
                    let k = args[0].as_str().unwrap();
                    let _ = ctx.get_state(k);
                    ExecStatus::Ok
                }
                "upd" => {
                    let k = args[0].as_str().unwrap();
                    let v = ctx.get_state(k).and_then(|v| v.as_int()).unwrap_or(0);
                    ctx.put_state(k, Value::Int(v + 1));
                    ExecStatus::Ok
                }
                "fail" => ExecStatus::Abort("nope".into()),
                other => panic!("unknown activity {other}"),
            }
        }
        fn activities(&self) -> Vec<&'static str> {
            vec!["put", "get", "upd", "fail"]
        }
    }

    fn sim() -> Simulation {
        let cfg = NetworkConfig {
            orgs: 2,
            endorsement_policy: EndorsementPolicy::p3(2),
            block_count: 10,
            ..NetworkConfig::default()
        };
        let mut s = Simulation::new(cfg);
        s.install(Arc::new(KvContract));
        s.seed("kv", "counter", Value::Int(0));
        s
    }

    fn req(i: u64, activity: &str, args: Vec<Value>) -> TxRequest {
        TxRequest {
            send_time: SimTime::from_millis(i * 10),
            contract: "kv".into(),
            activity: activity.into(),
            args: args.into(),
            invoker_org: OrgId((i % 2) as u16),
        }
    }

    #[test]
    fn single_write_commits() {
        let s = sim();
        let out = s.run(&[req(0, "put", vec!["a".into(), Value::Int(1)])]);
        assert_eq!(out.report.committed, 1);
        assert_eq!(out.report.successes, 1);
        assert_eq!(out.report.blocks, 1);
        assert_eq!(out.ledger.blocks()[0].cut_reason, CutReason::Timeout);
        let tx = out.ledger.transactions().next().unwrap();
        assert_eq!(tx.activity.as_ref(), "put");
        assert_eq!(tx.status, TxStatus::Success);
        assert!(tx.commit_ts > tx.submit_ts);
        assert!(tx.submit_ts > tx.client_ts);
    }

    #[test]
    fn concurrent_updates_conflict() {
        let s = sim();
        // 20 updates of the same key sent in a burst: within each block only
        // the first updater wins; later ones read a stale version.
        let reqs: Vec<TxRequest> = (0..20)
            .map(|i| TxRequest {
                send_time: SimTime::from_micros(i * 100),
                contract: "kv".into(),
                activity: "upd".into(),
                args: vec!["counter".into()].into(),
                invoker_org: OrgId((i % 2) as u16),
            })
            .collect();
        let out = s.run(&reqs);
        assert_eq!(out.report.committed, 20);
        assert!(
            out.report.mvcc_conflicts > 10,
            "hot-key burst conflicts: {}",
            out.report.mvcc_conflicts
        );
        assert!(out.report.successes >= 1);
        assert!(
            out.report.intra_block_conflicts + out.report.inter_block_conflicts
                == out.report.mvcc_conflicts
        );
    }

    #[test]
    fn spaced_updates_all_succeed() {
        let s = sim();
        // 5 updates two seconds apart: every block commits before the next
        // endorsement, so no conflicts.
        let reqs: Vec<TxRequest> = (0..5)
            .map(|i| TxRequest {
                send_time: SimTime::from_secs(i * 2),
                contract: "kv".into(),
                activity: "upd".into(),
                args: vec!["counter".into()].into(),
                invoker_org: OrgId(0),
            })
            .collect();
        let out = s.run(&reqs);
        assert_eq!(out.report.successes, 5, "{}", out.report);
        assert_eq!(out.report.mvcc_conflicts, 0);
    }

    #[test]
    fn early_abort_skips_ledger() {
        let s = sim();
        let out = s.run(&[
            req(0, "fail", vec![]),
            req(1, "put", vec!["x".into(), Value::Int(1)]),
        ]);
        assert_eq!(out.report.early_aborted, 1);
        assert_eq!(out.report.committed, 1, "aborted tx never ordered");
        assert_eq!(out.report.requests, 2);
    }

    #[test]
    fn abort_reasons_reach_the_report() {
        let s = sim();
        let out = s.run(&[
            req(0, "fail", vec![]),
            req(1, "fail", vec![]),
            req(2, "put", vec!["x".into(), Value::Int(1)]),
        ]);
        assert_eq!(out.report.early_aborted, 2);
        // KvContract's `fail` activity aborts with reason "nope".
        assert_eq!(out.report.early_abort_reasons.get("nope"), Some(&2));
        assert_eq!(
            out.report.early_abort_reasons.values().sum::<usize>(),
            out.report.early_aborted,
            "every early abort carries a reason"
        );
        let text = out.report.to_string();
        assert!(text.contains("nope: 2"), "{text}");
    }

    #[test]
    fn block_count_cut_fires() {
        let s = sim(); // block_count = 10
        let reqs: Vec<TxRequest> = (0..25)
            .map(|i| req(i, "put", vec![format!("k{i}").into(), Value::Int(1)]))
            .collect();
        let out = s.run(&reqs);
        assert_eq!(out.report.committed, 25);
        let reasons: Vec<CutReason> = out.ledger.blocks().iter().map(|b| b.cut_reason).collect();
        assert!(
            reasons.iter().filter(|r| **r == CutReason::Count).count() >= 2,
            "{reasons:?}"
        );
        assert_eq!(out.ledger.blocks()[0].len(), 10);
    }

    #[test]
    fn deterministic_across_runs() {
        let s1 = sim();
        let s2 = sim();
        let reqs: Vec<TxRequest> = (0..50)
            .map(|i| req(i, "upd", vec!["counter".into()]))
            .collect();
        let a = s1.run(&reqs);
        let b = s2.run(&reqs);
        assert_eq!(a.report.successes, b.report.successes);
        assert_eq!(a.report.mvcc_conflicts, b.report.mvcc_conflicts);
        assert!((a.report.avg_latency_s - b.report.avg_latency_s).abs() < 1e-12);
        let ids_a: Vec<u64> = a.ledger.transactions().map(|t| t.id.0).collect();
        let ids_b: Vec<u64> = b.ledger.transactions().map(|t| t.id.0).collect();
        assert_eq!(ids_a, ids_b, "identical commit order");
        assert_eq!(a.report.events, b.report.events, "same event count");
    }

    #[test]
    fn endorsers_recorded_per_policy() {
        let s = sim(); // majority of 2 orgs = both
        let out = s.run(&[req(0, "get", vec!["counter".into()])]);
        let tx = out.ledger.transactions().next().unwrap();
        assert_eq!(tx.endorsers.len(), 2, "both orgs endorse under majority");
        let orgs: std::collections::BTreeSet<u16> = tx.endorsers.iter().map(|p| p.org.0).collect();
        assert_eq!(orgs.len(), 2);
    }

    #[test]
    fn fabric_plus_plus_rescues_intra_block_readers() {
        // Interleave writers and readers of one key in a single burst. The
        // vanilla scheduler commits in arrival order (readers after writers
        // fail); Fabric++ moves readers first.
        let build = |kind: SchedulerKind| {
            let cfg = NetworkConfig {
                scheduler: kind,
                block_count: 20,
                ..NetworkConfig::default()
            };
            let mut s = Simulation::new(cfg);
            s.install(Arc::new(KvContract));
            s.seed("kv", "hot", Value::Int(0));
            s
        };
        let reqs: Vec<TxRequest> = (0..20)
            .map(|i| TxRequest {
                send_time: SimTime::from_micros(i * 200),
                contract: "kv".into(),
                activity: if i % 2 == 0 { "upd" } else { "get" }.into(),
                args: vec!["hot".into()].into(),
                invoker_org: OrgId((i % 2) as u16),
            })
            .collect();
        let vanilla = build(SchedulerKind::Vanilla).run(&reqs);
        let pp = build(SchedulerKind::FabricPlusPlus).run(&reqs);
        assert!(
            pp.report.successes > vanilla.report.successes,
            "fabric++ {} vs vanilla {}",
            pp.report.successes,
            vanilla.report.successes
        );
    }

    #[test]
    fn utilizations_are_bounded() {
        let s = sim();
        let reqs: Vec<TxRequest> = (0..100)
            .map(|i| req(i, "put", vec![format!("k{i}").into(), Value::Int(1)]))
            .collect();
        let out = s.run(&reqs);
        for u in [
            out.report.client_utilization,
            out.report.endorser_utilization,
            out.report.orderer_utilization,
            out.report.validator_utilization,
        ] {
            assert!((0.0..=1.0).contains(&u), "{u}");
        }
        assert!(out.report.endorser_utilization > 0.0);
    }

    #[test]
    fn observer_sees_every_block_as_it_commits() {
        let s = sim();
        let reqs: Vec<TxRequest> = (0..30)
            .map(|i| req(i, "put", vec![format!("k{i}").into(), Value::Int(1)]))
            .collect();
        let mut seen: Vec<(u64, usize)> = Vec::new();
        let out = s.run_observed(&reqs, &mut |block| {
            seen.push((block.number, block.len()));
        });
        let chain: Vec<(u64, usize)> = out
            .ledger
            .blocks()
            .iter()
            .map(|b| (b.number, b.len()))
            .collect();
        assert_eq!(seen, chain, "observer sees the chain, in order, once");
        // And the observed run is identical to an unobserved one.
        let plain = sim().run(&reqs);
        assert_eq!(plain.report.committed, out.report.committed);
        assert_eq!(plain.ledger.height(), out.ledger.height());
    }

    /// [`KvContract`] that counts its executions.
    #[derive(Default)]
    struct CountingKv {
        runs: std::sync::atomic::AtomicUsize,
    }

    impl CountingKv {
        fn runs(&self) -> usize {
            self.runs.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl Contract for CountingKv {
        fn name(&self) -> &str {
            "kv"
        }
        fn execute(&self, ctx: &mut TxContext<'_>, activity: &str, args: &[Value]) -> ExecStatus {
            self.runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            KvContract.execute(ctx, activity, args)
        }
        fn activities(&self) -> Vec<&'static str> {
            KvContract.activities()
        }
    }

    /// [`sim`]'s network, counting chaincode runs, with a half-second
    /// network hop so a block can validate between a proposal and its
    /// endorsements.
    fn counting_sim() -> (Simulation, Arc<CountingKv>) {
        let mut cfg = sim().config.clone();
        cfg.resources.net_delay = SimDuration::from_millis(500);
        let mut s = Simulation::new(cfg);
        let kv = Arc::new(CountingKv::default());
        s.install(kv.clone());
        s.seed("kv", "counter", Value::Int(0));
        (s, kv)
    }

    #[test]
    fn two_org_endorsement_reuses_the_proposal_run() {
        let (s, kv) = counting_sim();
        let out = s.run(&[req(0, "upd", vec!["counter".into()])]);
        let tx = out.ledger.transactions().next().unwrap();
        assert_eq!(tx.endorsers.len(), 2, "both orgs endorse");
        assert_eq!(tx.status, TxStatus::Success);
        assert_eq!(
            kv.runs(),
            1,
            "one run serves the proposal and both endorsers"
        );
    }

    #[test]
    fn endorsement_after_a_validated_write_re_executes() {
        use crate::rwset::Version;
        let (s, kv) = counting_sim();
        let put = req(0, "put", vec!["counter".into(), Value::Int(7)]);
        let written_at = s.run(std::slice::from_ref(&put)).ledger.blocks()[0].commit_ts;
        // The reader proposes 0.25 s before the writer's block validates
        // and reaches its endorsers 0.5 s after proposing.
        let get = TxRequest {
            send_time: SimTime::from_micros(written_at.as_micros() - 250_000),
            ..req(1, "get", vec!["counter".into()])
        };
        let runs_before = kv.runs();
        let out = s.run(&[put, get]);
        assert_eq!(out.ledger.blocks()[0].commit_ts, written_at);
        // The writer runs once; the reader runs at proposal, then once more
        // for both endorsers at the new state generation.
        assert_eq!(kv.runs() - runs_before, 3);
        let reader = out.ledger.transactions().find(|t| t.id.0 == 1).unwrap();
        assert_eq!(reader.status, TxStatus::Success, "{}", out.report);
        assert_eq!(&*reader.rwset.reads[0].key, "kv/counter");
        assert_eq!(
            reader.rwset.reads[0].version,
            Some(Version::new(1, 0)),
            "the endorsement read the writer's version, not genesis"
        );
    }

    /// At zero validation cost two blocks validate at one instant, so the
    /// second validated before the first committed and both took number 1:
    /// the ledger refused the second (a panic). Blocks are numbered as
    /// they validate.
    #[test]
    fn blocks_validated_at_one_instant_commit_in_order() {
        let mut cfg = sim().config.clone();
        cfg.block_count = 1;
        cfg.resources = crate::config::ResourceProfile {
            client_per_tx: SimDuration::ZERO,
            net_delay: SimDuration::ZERO,
            endorse_exec_base: SimDuration::ZERO,
            endorse_exec_per_access: SimDuration::ZERO,
            order_block_fixed: SimDuration::ZERO,
            order_per_tx: SimDuration::ZERO,
            raft_delay: SimDuration::ZERO,
            validate_block_fixed: SimDuration::ZERO,
            validate_per_tx: SimDuration::ZERO,
            validate_per_item: SimDuration::ZERO,
            validate_per_endorsement: SimDuration::ZERO,
        };
        let mut s = Simulation::new(cfg);
        s.install(Arc::new(KvContract));
        let reqs: Vec<TxRequest> = (0..4)
            .map(|i| TxRequest {
                send_time: SimTime::ZERO,
                ..req(i, "put", vec![format!("k{i}").into(), Value::Int(1)])
            })
            .collect();
        let out = s.run(&reqs);
        let numbers: Vec<u64> = out.ledger.blocks().iter().map(|b| b.number).collect();
        assert_eq!(numbers, vec![1, 2, 3, 4]);
        assert_eq!(out.report.successes, 4);
        assert_eq!(
            format!("{:?}", s.run_report(&reqs)),
            format!("{:?}", out.report)
        );
    }

    #[test]
    fn empty_workload_is_fine() {
        let s = sim();
        let out = s.run(&[]);
        assert_eq!(out.report.committed, 0);
        assert_eq!(out.report.blocks, 0);
        assert_eq!(out.report.events, 0);
    }

    #[test]
    fn event_count_tracks_pipeline_depth() {
        let s = sim();
        let reqs: Vec<TxRequest> = (0..10)
            .map(|i| req(i, "put", vec![format!("k{i}").into(), Value::Int(1)]))
            .collect();
        let out = s.run(&reqs);
        // Every committed tx crosses at least Submit, Propose, ≥1 Endorse,
        // Assemble, Order; every block adds Validate + Commit.
        assert!(
            out.report.events as usize >= 5 * out.report.committed + 2 * out.report.blocks,
            "events {} too low",
            out.report.events
        );
    }

    // ---- fault injection & client resilience ----

    use crate::fault::{
        DropSpec, FaultSpec, LatencySpike, OutageWindow, RetryPolicy, StallWindow,
        RETRY_EXHAUSTED_REASON,
    };

    fn puts(n: u64) -> Vec<TxRequest> {
        (0..n)
            .map(|i| req(i, "put", vec![format!("k{i}").into(), Value::Int(1)]))
            .collect()
    }

    fn org0_outage(start: f64, duration: f64) -> FaultSpec {
        FaultSpec {
            endorser_outages: vec![OutageWindow {
                org: 0,
                peer: None,
                start,
                duration,
            }],
            ..FaultSpec::default()
        }
    }

    #[test]
    fn outage_without_retry_aborts_affected_transactions() {
        let mut s = sim(); // majority of 2 orgs: every tx needs org 0
        s.set_fault(org0_outage(0.0, 60.0));
        let out = s.run(&puts(5));
        assert_eq!(out.report.committed, 0, "{}", out.report);
        assert_eq!(out.report.early_aborted, 5);
        assert_eq!(
            out.report.early_abort_reasons.get("no endorsement result"),
            Some(&5)
        );
        let windows = &out.report.degradation.windows;
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].submitted, 5);
        assert_eq!(windows[0].successes, 0);
        assert!(windows[0].label.starts_with("outage org0"));
    }

    #[test]
    fn retry_rescues_transactions_once_the_outage_lifts() {
        let mut s = sim();
        s.set_fault(org0_outage(0.0, 0.5));
        s.set_retry(RetryPolicy {
            endorse_timeout: Some(0.2),
            max_attempts: 10,
            backoff_base: 0.1,
            backoff_multiplier: 2.0,
            jitter: 0.0,
        });
        let out = s.run(&puts(3));
        assert_eq!(out.report.committed, 3, "{}", out.report);
        assert_eq!(out.report.successes, 3);
        let d = &out.report.degradation;
        assert!(d.retries > 0, "{d:?}");
        assert!(d.timeouts > 0);
        assert_eq!(d.retry_exhausted, 0);
        assert_eq!(d.degraded_success, 3, "all successes needed retries");
    }

    #[test]
    fn exhausted_retry_budget_surfaces_as_typed_abort_reason() {
        let mut s = sim();
        s.set_fault(org0_outage(0.0, 60.0));
        s.set_retry(RetryPolicy {
            endorse_timeout: Some(0.1),
            max_attempts: 2,
            backoff_base: 0.05,
            backoff_multiplier: 2.0,
            jitter: 0.0,
        });
        let out = s.run(&puts(4));
        assert_eq!(out.report.committed, 0);
        assert_eq!(out.report.early_aborted, 4);
        assert_eq!(
            out.report.early_abort_reasons.get(RETRY_EXHAUSTED_REASON),
            Some(&4)
        );
        let d = &out.report.degradation;
        assert_eq!(d.retry_exhausted, 4);
        assert_eq!(d.retries, 4, "one retry each before exhaustion");
        assert_eq!(d.timeouts, 8, "two timeouts per transaction");
        let text = out.report.to_string();
        assert!(text.contains(RETRY_EXHAUSTED_REASON), "{text}");
        assert!(text.contains("degradation"), "{text}");
    }

    #[test]
    fn latency_spike_inflates_end_to_end_latency() {
        let healthy = sim().run(&puts(5));
        let mut s = sim();
        s.set_fault(FaultSpec {
            latency_spikes: vec![LatencySpike {
                start: 0.0,
                duration: 120.0,
                multiplier: 40.0,
            }],
            ..FaultSpec::default()
        });
        let spiked = s.run(&puts(5));
        assert_eq!(spiked.report.committed, 5);
        assert!(
            spiked.report.avg_latency_s > healthy.report.avg_latency_s,
            "spiked {} <= healthy {}",
            spiked.report.avg_latency_s,
            healthy.report.avg_latency_s
        );
    }

    #[test]
    fn orderer_stall_delays_the_block() {
        let mut s = sim();
        s.set_fault(FaultSpec {
            orderer_stalls: vec![StallWindow {
                start: 0.0,
                duration: 2.0,
            }],
            ..FaultSpec::default()
        });
        let out = s.run(&puts(1));
        assert_eq!(out.report.committed, 1);
        let commit = out.ledger.blocks()[0].commit_ts;
        assert!(
            commit >= SimTime::from_secs(2),
            "block committed at {commit:?} inside the stall"
        );
    }

    #[test]
    fn endorsement_drops_without_retry_abort() {
        let mut s = sim();
        s.set_fault(FaultSpec {
            drop: Some(DropSpec {
                proposal_rate: 0.0,
                endorsement_rate: 1.0,
            }),
            ..FaultSpec::default()
        });
        let out = s.run(&puts(3));
        assert_eq!(out.report.committed, 0);
        assert_eq!(out.report.early_aborted, 3);
        assert!(out.report.degradation.dropped_endorsements >= 3);
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let build = || {
            let mut s = sim();
            s.set_fault(FaultSpec {
                endorser_outages: vec![OutageWindow {
                    org: 1,
                    peer: Some(0),
                    start: 0.05,
                    duration: 0.3,
                }],
                drop: Some(DropSpec {
                    proposal_rate: 0.2,
                    endorsement_rate: 0.2,
                }),
                ..FaultSpec::default()
            });
            s.set_retry(RetryPolicy {
                endorse_timeout: Some(0.15),
                max_attempts: 4,
                backoff_base: 0.02,
                backoff_multiplier: 2.0,
                jitter: 0.3,
            });
            s
        };
        let reqs = puts(40);
        let a = build().run(&reqs);
        let b = build().run(&reqs);
        assert_eq!(a.report.events, b.report.events);
        assert_eq!(a.report.degradation, b.report.degradation);
        let ids_a: Vec<(u64, TxStatus)> = a
            .ledger
            .transactions()
            .map(|t| (t.id.0, t.status))
            .collect();
        let ids_b: Vec<(u64, TxStatus)> = b
            .ledger
            .transactions()
            .map(|t| (t.id.0, t.status))
            .collect();
        assert_eq!(ids_a, ids_b);
    }

    #[test]
    fn noop_fault_spec_changes_nothing() {
        let reqs: Vec<TxRequest> = (0..30)
            .map(|i| req(i, "upd", vec!["counter".into()]))
            .collect();
        let plain = sim().run(&reqs);
        let mut s = sim();
        // A present-but-empty fault spec and zero drop rates must leave
        // the run byte-identical: no events, no RNG draws.
        s.set_fault(FaultSpec {
            drop: Some(DropSpec::default()),
            ..FaultSpec::default()
        });
        s.set_retry(RetryPolicy::default());
        let gated = s.run(&reqs);
        assert_eq!(plain.report.events, gated.report.events);
        assert_eq!(plain.report.successes, gated.report.successes);
        let ids_a: Vec<u64> = plain.ledger.transactions().map(|t| t.id.0).collect();
        let ids_b: Vec<u64> = gated.ledger.transactions().map(|t| t.id.0).collect();
        assert_eq!(ids_a, ids_b);
        assert!(gated.report.degradation.is_trivial());
    }
}

//! The discrete-event simulation core.
//!
//! [`DesQueue`] is a binary-heap event clock, driven in the style of a
//! classic DES runner: pop the next event → advance the clock (which never
//! runs backwards) → dispatch to a handler → the handler schedules
//! follow-up events. It provides the four things a multi-phase pipeline
//! simulation needs:
//!
//! * **Targeted events** — [`Event`]`{ at, kind, subject }`: a timestamp, a
//!   typed phase kind (what to do), and a subject (which entity to do it
//!   to). Handlers dispatch on the kind and index state by the subject.
//! * **Deterministic kind-aware tie-breaking** — events at the same instant
//!   pop ordered by [`EventKind::priority`] first and schedule order
//!   (sequence number) second. Within one kind, events scheduled for the
//!   same instant pop FIFO; across kinds the priority pins a documented
//!   pipeline order instead of leaving it to incidental scheduling order.
//! * **Cancellable timers** — [`DesQueue::schedule_timer`] returns a
//!   [`TimerId`]; [`DesQueue::cancel`] guarantees the timer never fires.
//!   Cancellation is lazy (a tombstone set), so it is O(1) and the heap is
//!   never rebuilt. This is what lets a block cutter race a size-triggered
//!   cut against a timeout and simply disarm the loser.
//! * **FIFO lanes** — a FIFO server completes its jobs in order, so the
//!   events it schedules mostly arrive in `(time, priority)` order already.
//!   [`DesQueue::schedule_on`] puts such an event on the server's
//!   [`Lane`]: only the lane's head sits in the heap, and an event that
//!   keeps the lane's order waits in a queue behind it. An event that would
//!   break the order goes straight to the heap. Popping a lane's head moves
//!   its successor into the heap, so the heap is a k-way merge of the lanes
//!   and the plain events: it holds one entry per busy server instead of
//!   the server's whole backlog, and the dispatch order, same-time ties and
//!   [`DesQueue::dispatched`] are exactly those of one heap over every
//!   event.
//!
//! The runner ([`run`]) drives a [`Handler`] to quiescence: when the queue
//! drains it offers the handler one `on_idle` callback (end-of-run flushes
//! live there); if that schedules nothing, the run is over. The total
//! number of dispatched events is available from [`DesQueue::dispatched`]
//! for throughput accounting (events/s).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashSet, VecDeque};

/// A typed event kind with a total dispatch priority.
///
/// `priority` orders events scheduled for the *same instant*: lower values
/// dispatch first. Implementations should order priorities along the
/// pipeline (earlier stages first) so that, at one timestamp, work flows
/// through phases in the same direction it flows through time.
pub trait EventKind {
    /// Same-timestamp dispatch priority; lower dispatches first.
    fn priority(&self) -> u8;
}

/// A targeted event: *when*, *what*, and *to whom*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event<K, S> {
    /// The simulated instant the event fires.
    pub at: SimTime,
    /// The phase/action to dispatch on.
    pub kind: K,
    /// The entity the event targets (a transaction, a block, a timer epoch).
    pub subject: S,
}

/// Handle to a pending timer; pass to [`DesQueue::cancel`] to disarm it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// Handle to a FIFO lane of a [`DesQueue`] ([`DesQueue::add_lane`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lane(u32);

/// What a heap entry is, beyond its event.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// A plain event.
    Plain,
    /// A cancellable timer.
    Timer(TimerId),
    /// The head of a lane: popping it moves the lane's next entry into the
    /// heap.
    Lane(u32),
}

struct Entry<K, S> {
    at: SimTime,
    prio: u8,
    seq: u64,
    kind: K,
    subject: S,
    source: Source,
}

impl<K, S> PartialEq for Entry<K, S> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.prio == other.prio && self.seq == other.seq
    }
}
impl<K, S> Eq for Entry<K, S> {}

impl<K, S> PartialOrd for Entry<K, S> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K, S> Ord for Entry<K, S> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest
        // (time, priority, seq) triple pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.prio.cmp(&self.prio))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The entries of one lane behind its head in the heap.
struct LaneQueue<K, S> {
    /// Waiting entries, in `(time, priority, seq)` order.
    waiting: VecDeque<Entry<K, S>>,
    /// `(time, priority)` of the lane's last entry; `None` when the lane
    /// holds none, not even a head in the heap.
    tail: Option<(SimTime, u8)>,
}

/// The DES event queue: a binary-heap event clock over [`Event`]s with
/// deterministic `(time, kind priority, sequence)` ordering, lazily
/// cancelled timers and FIFO lanes.
pub struct DesQueue<K: EventKind, S> {
    heap: BinaryHeap<Entry<K, S>>,
    lanes: Vec<LaneQueue<K, S>>,
    /// Entries waiting in lanes behind their heads.
    waiting: usize,
    next_seq: u64,
    next_timer: u64,
    /// Timers cancelled while still pending; their entries are skipped on pop.
    cancelled: HashSet<TimerId>,
    /// Timers scheduled and not yet fired or cancelled.
    pending_timers: HashSet<TimerId>,
    now: SimTime,
    dispatched: u64,
}

impl<K: EventKind, S> Default for DesQueue<K, S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: EventKind, S> DesQueue<K, S> {
    /// An empty queue with the clock at [`SimTime::ZERO`] and no lanes.
    pub fn new() -> Self {
        DesQueue {
            heap: BinaryHeap::new(),
            lanes: Vec::new(),
            waiting: 0,
            next_seq: 0,
            next_timer: 0,
            cancelled: HashSet::new(),
            pending_timers: HashSet::new(),
            now: SimTime::ZERO,
            dispatched: 0,
        }
    }

    fn entry(&mut self, at: SimTime, kind: K, subject: S, source: Source) -> Entry<K, S> {
        let seq = self.next_seq;
        self.next_seq += 1;
        Entry {
            at,
            prio: kind.priority(),
            seq,
            kind,
            subject,
            source,
        }
    }

    /// Schedule `kind`/`subject` to fire at `at`. Scheduling in the past is
    /// allowed (the event fires "now"); the clock never runs backwards.
    pub fn schedule(&mut self, at: SimTime, kind: K, subject: S) {
        let entry = self.entry(at, kind, subject, Source::Plain);
        self.heap.push(entry);
    }

    /// Schedule a cancellable timer. The returned [`TimerId`] stays valid
    /// until the timer fires; cancelling after it fired is a no-op.
    pub fn schedule_timer(&mut self, at: SimTime, kind: K, subject: S) -> TimerId {
        let id = TimerId(self.next_timer);
        self.next_timer += 1;
        self.pending_timers.insert(id);
        let entry = self.entry(at, kind, subject, Source::Timer(id));
        self.heap.push(entry);
        id
    }

    /// A new, empty FIFO lane.
    pub fn add_lane(&mut self) -> Lane {
        let lane = u32::try_from(self.lanes.len()).expect("fewer than 2^32 lanes");
        self.lanes.push(LaneQueue {
            waiting: VecDeque::new(),
            tail: None,
        });
        Lane(lane)
    }

    /// [`schedule`](Self::schedule) on `lane`: the event dispatches exactly
    /// when a plain one would. It waits behind the lane's last event when
    /// it does not precede it in `(time, priority)`, and goes to the heap
    /// otherwise.
    pub fn schedule_on(&mut self, lane: Lane, at: SimTime, kind: K, subject: S) {
        let mut entry = self.entry(at, kind, subject, Source::Lane(lane.0));
        let key = (entry.at, entry.prio);
        let queue = &mut self.lanes[lane.0 as usize];
        match queue.tail {
            None => {
                queue.tail = Some(key);
                self.heap.push(entry);
            }
            Some(tail) if key >= tail => {
                queue.tail = Some(key);
                queue.waiting.push_back(entry);
                self.waiting += 1;
            }
            Some(_) => {
                entry.source = Source::Plain;
                self.heap.push(entry);
            }
        }
    }

    /// Disarm a pending timer: it will never fire. Returns whether the
    /// timer was still pending (false if it already fired or was already
    /// cancelled).
    pub fn cancel(&mut self, id: TimerId) -> bool {
        if self.pending_timers.remove(&id) {
            self.cancelled.insert(id);
            true
        } else {
            false
        }
    }

    /// Pop the next live event, advancing the clock to its timestamp.
    /// Cancelled timers are silently discarded and never surface here.
    pub fn pop(&mut self) -> Option<Event<K, S>> {
        loop {
            let mut head = self.heap.peek_mut()?;
            let e = match head.source {
                Source::Lane(lane) => {
                    let queue = &mut self.lanes[lane as usize];
                    match queue.waiting.pop_front() {
                        // The successor takes the head's place in the heap.
                        Some(next) => {
                            self.waiting -= 1;
                            std::mem::replace(&mut *head, next)
                        }
                        None => {
                            queue.tail = None;
                            PeekMut::pop(head)
                        }
                    }
                }
                Source::Plain | Source::Timer(_) => PeekMut::pop(head),
            };
            if let Source::Timer(id) = e.source {
                if self.cancelled.remove(&id) {
                    continue; // tombstoned: the timer was disarmed
                }
                self.pending_timers.remove(&id);
            }
            self.now = self.now.max(e.at);
            self.dispatched += 1;
            return Some(Event {
                at: self.now,
                kind: e.kind,
                subject: e.subject,
            });
        }
    }

    /// The timestamp of the next live event, if any (cancelled timers at
    /// the head are discarded first).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(head) = self.heap.peek_mut() {
            match head.source {
                Source::Timer(id) if self.cancelled.contains(&id) => {
                    self.cancelled.remove(&id);
                    PeekMut::pop(head);
                }
                _ => return Some(head.at),
            }
        }
        None
    }

    /// The current simulated clock (timestamp of the last dispatched event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live pending events (cancelled timers excluded).
    pub fn len(&self) -> usize {
        self.heap.len() + self.waiting - self.cancelled.len()
    }

    /// Whether no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events dispatched (popped live) so far — the numerator of an
    /// events-per-second throughput figure.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }
}

/// A simulation model driven by the DES runner: dispatches one event at a
/// time and schedules follow-ups on the queue.
pub trait Handler<K: EventKind, S> {
    /// Dispatch one event. `now` equals `event.at` clamped to the clock
    /// (never earlier than any previously dispatched event).
    fn handle(&mut self, now: SimTime, kind: K, subject: S, queue: &mut DesQueue<K, S>);

    /// Called when the queue drains. Schedule follow-up events to keep the
    /// run alive (end-of-run flushes); schedule nothing to let it end.
    fn on_idle(&mut self, _now: SimTime, _queue: &mut DesQueue<K, S>) {}
}

/// Drive `handler` to quiescence: pop → advance clock → dispatch, and when
/// the queue drains give `on_idle` a chance to schedule more. Returns the
/// total number of dispatched events.
pub fn run<K: EventKind, S, H: Handler<K, S>>(queue: &mut DesQueue<K, S>, handler: &mut H) -> u64 {
    loop {
        while let Some(Event { at, kind, subject }) = queue.pop() {
            handler.handle(at, kind, subject, queue);
        }
        handler.on_idle(queue.now(), queue);
        if queue.is_empty() {
            return queue.dispatched();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Phase {
        Early,
        Late,
    }

    impl EventKind for Phase {
        fn priority(&self) -> u8 {
            match self {
                Phase::Early => 0,
                Phase::Late => 1,
            }
        }
    }

    fn at(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q: DesQueue<Phase, &str> = DesQueue::new();
        q.schedule(at(3), Phase::Early, "c");
        q.schedule(at(1), Phase::Early, "a");
        q.schedule(at(2), Phase::Early, "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.subject).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.dispatched(), 3);
    }

    #[test]
    fn same_time_orders_by_kind_priority_then_seq() {
        let mut q: DesQueue<Phase, u32> = DesQueue::new();
        // Schedule a Late before an Early at the same instant: the Early
        // still dispatches first; within a kind, schedule order holds.
        q.schedule(at(1), Phase::Late, 10);
        q.schedule(at(1), Phase::Early, 0);
        q.schedule(at(1), Phase::Late, 11);
        q.schedule(at(1), Phase::Early, 1);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.subject).collect();
        assert_eq!(order, vec![0, 1, 10, 11]);
    }

    #[test]
    fn cancelled_timers_never_fire() {
        let mut q: DesQueue<Phase, &str> = DesQueue::new();
        let t1 = q.schedule_timer(at(1), Phase::Late, "doomed");
        q.schedule(at(2), Phase::Early, "real");
        let t2 = q.schedule_timer(at(3), Phase::Late, "kept");
        assert_eq!(q.len(), 3);
        assert!(q.cancel(t1));
        assert!(!q.cancel(t1), "double cancel is a no-op");
        assert_eq!(q.len(), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.subject).collect();
        assert_eq!(order, vec!["real", "kept"]);
        assert!(!q.cancel(t2), "cancelling a fired timer is a no-op");
        assert_eq!(q.dispatched(), 2, "the cancelled timer never dispatched");
    }

    #[test]
    fn cancelled_timer_does_not_advance_the_clock() {
        let mut q: DesQueue<Phase, ()> = DesQueue::new();
        q.schedule(at(1), Phase::Early, ());
        let far = q.schedule_timer(at(100), Phase::Late, ());
        q.cancel(far);
        while q.pop().is_some() {}
        assert_eq!(q.now(), at(1), "disarmed timer leaves no clock trace");
    }

    #[test]
    fn clock_never_runs_backwards() {
        let mut q: DesQueue<Phase, &str> = DesQueue::new();
        q.schedule(at(5), Phase::Late, "future");
        assert_eq!(q.pop().unwrap().at, at(5));
        // An event scheduled in the past fires at the current clock.
        q.schedule(at(1), Phase::Early, "past");
        assert_eq!(q.pop().unwrap().at, at(5));
        assert_eq!(q.now(), at(5));
    }

    #[test]
    fn peek_does_not_advance_clock() {
        let mut q: DesQueue<Phase, ()> = DesQueue::new();
        q.schedule(at(2) + SimDuration::from_millis(1), Phase::Early, ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(2_001_000)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_skips_cancelled_heads() {
        let mut q: DesQueue<Phase, ()> = DesQueue::new();
        let t = q.schedule_timer(at(1), Phase::Early, ());
        q.schedule(at(5), Phase::Early, ());
        q.cancel(t);
        assert_eq!(q.peek_time(), Some(at(5)));
        assert_eq!(q.len(), 1);
    }

    /// A two-phase model: every Early event spawns a Late follow-up one
    /// second later; on_idle injects one final Early wave, exactly once.
    struct Cascade {
        handled: Vec<(SimTime, Phase, u32)>,
        flushed: bool,
    }

    impl Handler<Phase, u32> for Cascade {
        fn handle(
            &mut self,
            now: SimTime,
            kind: Phase,
            subject: u32,
            q: &mut DesQueue<Phase, u32>,
        ) {
            self.handled.push((now, kind, subject));
            if kind == Phase::Early {
                q.schedule(now + SimDuration::from_secs(1), Phase::Late, subject);
            }
        }
        fn on_idle(&mut self, now: SimTime, q: &mut DesQueue<Phase, u32>) {
            if !self.flushed {
                self.flushed = true;
                q.schedule(now, Phase::Early, 99);
            }
        }
    }

    #[test]
    fn runner_drives_to_quiescence_with_idle_flush() {
        let mut q = DesQueue::new();
        q.schedule(at(0), Phase::Early, 1);
        let mut model = Cascade {
            handled: Vec::new(),
            flushed: false,
        };
        let dispatched = run(&mut q, &mut model);
        // 1 early + its late, then the idle-injected 99 + its late.
        assert_eq!(dispatched, 4);
        assert_eq!(
            model.handled,
            vec![
                (at(0), Phase::Early, 1),
                (at(1), Phase::Late, 1),
                (at(1), Phase::Early, 99),
                (at(2), Phase::Late, 99),
            ]
        );
    }
}

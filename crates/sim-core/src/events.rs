//! Plain event-queue checks on [`DesQueue`](crate::des::DesQueue).
//!
//! With a single event kind every event shares one priority, so the DES
//! queue behaves as a plain timed event queue: only the timestamp and the
//! schedule order decide what pops next.

mod tests {
    use crate::des::{DesQueue, EventKind};
    use crate::time::SimTime;

    /// The one event kind of a plain queue.
    #[derive(Debug, Clone, Copy)]
    struct Plain;

    impl EventKind for Plain {
        fn priority(&self) -> u8 {
            0
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q: DesQueue<Plain, &str> = DesQueue::new();
        q.schedule(SimTime::from_secs(3), Plain, "c");
        q.schedule(SimTime::from_secs(1), Plain, "a");
        q.schedule(SimTime::from_secs(2), Plain, "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.subject).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q: DesQueue<Plain, u32> = DesQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, Plain, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.subject).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }
}

//! Property tests for the DES primitives.

use proptest::prelude::*;
use sim_core::des::{DesQueue, EventKind, Lane};
use sim_core::dist::{DiscreteWeighted, Exponential, Zipf};
use sim_core::rng::SimRng;
use sim_core::server::QueueServer;
use sim_core::stats::{Summary, TimeBuckets};
use sim_core::time::{SimDuration, SimTime};

proptest! {
    /// With one event kind the DES queue is a plain event queue: it pops
    /// in nondecreasing time order and FIFO on ties, regardless of
    /// insertion order.
    #[test]
    fn event_queue_total_order(times in prop::collection::vec(0u64..10_000, 1..200)) {
        #[derive(Debug, Clone, Copy)]
        struct Plain;
        impl EventKind for Plain {
            fn priority(&self) -> u8 { 0 }
        }

        let mut q: DesQueue<Plain, usize> = DesQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), Plain, i);
        }
        let mut last: Option<usize> = None;
        let mut popped = 0usize;
        while let Some(e) = q.pop() {
            let t = times[e.subject];
            prop_assert_eq!(e.at, SimTime::from_micros(t));
            if let Some(lp) = last {
                prop_assert!(times[lp] <= t);
                if times[lp] == t {
                    prop_assert!(lp < e.subject, "FIFO on equal timestamps");
                }
            }
            last = Some(e.subject);
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// The DES queue pops in nondecreasing timestamp order; events at the
    /// same instant pop by kind priority first, schedule order second.
    #[test]
    fn des_queue_orders_by_time_kind_seq(
        events in prop::collection::vec((0u64..500, 0u8..4), 1..200)
    ) {
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        struct Kind(u8);
        impl EventKind for Kind {
            fn priority(&self) -> u8 { self.0 }
        }

        let mut q: DesQueue<Kind, usize> = DesQueue::new();
        for (i, &(t, k)) in events.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), Kind(k), i);
        }
        let mut last: Option<(u64, u8, usize)> = None;
        let mut popped = 0usize;
        while let Some(e) = q.pop() {
            let (t, k) = events[e.subject];
            prop_assert!(e.at >= SimTime::from_micros(t));
            if let Some((lt, lk, li)) = last {
                // Nondecreasing time; on equal times, nondecreasing kind
                // priority; on equal (time, kind), FIFO by schedule order.
                prop_assert!(lt <= t);
                if lt == t {
                    prop_assert!(lk <= k, "kind priority breaks the tie");
                    if lk == k {
                        prop_assert!(li < e.subject, "FIFO within a kind");
                    }
                }
            }
            last = Some((t, k, e.subject));
            popped += 1;
        }
        prop_assert_eq!(popped, events.len());
        prop_assert_eq!(q.dispatched(), events.len() as u64);
    }

    /// Cancelled timers never fire: for any mix of plain events, timers,
    /// and a subset of timers cancelled up front, exactly the live events
    /// pop and no cancelled subject ever surfaces.
    #[test]
    fn des_cancelled_timers_never_fire(
        events in prop::collection::vec((0u64..500, 0u8..2, 0u8..2), 1..150)
    ) {
        #[derive(Debug, Clone, Copy)]
        struct K;
        impl EventKind for K {
            fn priority(&self) -> u8 { 0 }
        }

        let mut q: DesQueue<K, usize> = DesQueue::new();
        let mut doomed = Vec::new();
        let mut live = 0usize;
        for (i, &(t, is_timer, cancel)) in events.iter().enumerate() {
            let (is_timer, cancel) = (is_timer == 1, cancel == 1);
            if is_timer {
                let id = q.schedule_timer(SimTime::from_micros(t), K, i);
                if cancel {
                    doomed.push((i, id));
                } else {
                    live += 1;
                }
            } else {
                q.schedule(SimTime::from_micros(t), K, i);
                live += 1;
            }
        }
        for &(_, id) in &doomed {
            prop_assert!(q.cancel(id), "pending timers cancel exactly once");
        }
        prop_assert_eq!(q.len(), live);
        let cancelled_subjects: std::collections::HashSet<usize> =
            doomed.iter().map(|&(i, _)| i).collect();
        let mut popped = 0usize;
        while let Some(e) = q.pop() {
            prop_assert!(
                !cancelled_subjects.contains(&e.subject),
                "cancelled timer {} fired", e.subject
            );
            popped += 1;
        }
        prop_assert_eq!(popped, live);
        for &(_, id) in &doomed {
            prop_assert!(!q.cancel(id), "cancel after drain is a no-op");
        }
    }

    /// FIFO server: jobs start no earlier than they arrive, never overlap,
    /// and busy time equals the sum of service demands.
    #[test]
    fn queue_server_is_work_conserving(
        jobs in prop::collection::vec((0u64..100_000, 1u64..5_000), 1..100)
    ) {
        let mut sorted = jobs.clone();
        sorted.sort();
        let mut s = QueueServer::new();
        let mut prev_done = SimTime::ZERO;
        let mut total = 0u64;
        for (arrival, service) in &sorted {
            let (start, done) = s.submit(
                SimTime::from_micros(*arrival),
                SimDuration::from_micros(*service),
            );
            prop_assert!(start >= SimTime::from_micros(*arrival));
            prop_assert!(start >= prev_done, "no overlap");
            prop_assert_eq!(done, start + SimDuration::from_micros(*service));
            prev_done = done;
            total += service;
        }
        prop_assert_eq!(s.busy_time(), SimDuration::from_micros(total));
        prop_assert_eq!(s.jobs_served(), sorted.len() as u64);
    }

    /// Zipf samples stay in range and the top rank dominates under skew.
    #[test]
    fn zipf_in_range(n in 2usize..500, s in 0.0f64..2.5, seed in 0u64..1_000) {
        let z = Zipf::new(n, s);
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..500 {
            prop_assert!(z.sample(&mut rng) < n);
        }
        let total: f64 = (0..n).map(|k| z.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-6);
        if s > 0.5 {
            prop_assert!(z.pmf(0) >= z.pmf(n - 1));
        }
    }

    /// Weighted sampling never returns a zero-weight index.
    #[test]
    fn weighted_respects_support(weights in prop::collection::vec(0.0f64..10.0, 2..20), seed in 0u64..500) {
        prop_assume!(weights.iter().any(|w| *w > 0.0));
        let d = DiscreteWeighted::new(&weights);
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..300 {
            let idx = d.sample(&mut rng);
            prop_assert!(weights[idx] > 0.0, "index {} has zero weight", idx);
        }
    }

    /// Exponential samples are strictly positive and mean-consistent.
    #[test]
    fn exponential_positive(mean_us in 10u64..100_000, seed in 0u64..200) {
        let e = Exponential::with_mean(SimDuration::from_micros(mean_us));
        let mut rng = SimRng::seed_from_u64(seed);
        let n = 2_000;
        let total: u64 = (0..n).map(|_| {
            let d = e.sample(&mut rng);
            assert!(d.as_micros() >= 1);
            d.as_micros()
        }).sum();
        let sample_mean = total as f64 / n as f64;
        prop_assert!(sample_mean > mean_us as f64 * 0.85);
        prop_assert!(sample_mean < mean_us as f64 * 1.15);
    }

    /// Summary invariants: min ≤ p50 ≤ p95 ≤ p99 ≤ max, mean within range.
    #[test]
    fn summary_order(values in prop::collection::vec(-1e6f64..1e6, 1..300)) {
        let s = Summary::of(&values);
        prop_assert!(s.min <= s.p50);
        prop_assert!(s.p50 <= s.p95);
        prop_assert!(s.p95 <= s.p99);
        prop_assert!(s.p99 <= s.max);
        prop_assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
        prop_assert_eq!(s.count, values.len());
    }

    /// Time buckets conserve the event count.
    #[test]
    fn buckets_conserve(events in prop::collection::vec(0u64..1_000_000, 0..300), width in 1u64..100_000) {
        let mut b = TimeBuckets::new(SimDuration::from_micros(width));
        for &t in &events {
            b.record(SimTime::from_micros(t));
        }
        prop_assert_eq!(b.total() as usize, events.len());
    }

    /// Derived RNG streams are reproducible.
    #[test]
    fn derived_streams_reproducible(seed in 0u64..10_000, label in 0u64..10_000) {
        let mut a = SimRng::derive(seed, label);
        let mut b = SimRng::derive(seed, label);
        for _ in 0..16 {
            prop_assert_eq!(a.f64().to_bits(), b.f64().to_bits());
        }
    }
}

proptest! {
    // Cheap cases: run many.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A queue with FIFO lanes dispatches exactly what one plain heap does.
    /// Lane events mostly keep their lane's order; some arrive earlier than
    /// the lane's last event or at a lower priority at its time, and go to
    /// the heap. Plain events, timers, cancels and pops are interleaved.
    #[test]
    fn lanes_dispatch_like_one_plain_heap(
        ops in prop::collection::vec((0u8..7, 0u64..400, 0u8..4, 0usize..4), 1..300)
    ) {
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        struct Kind(u8);
        impl EventKind for Kind {
            fn priority(&self) -> u8 { self.0 }
        }

        let mut laned: DesQueue<Kind, usize> = DesQueue::new();
        let mut plain: DesQueue<Kind, usize> = DesQueue::new();
        let lanes: Vec<Lane> = (0..4).map(|_| laned.add_lane()).collect();
        let mut lane_time = [0u64; 4];
        let mut timers = Vec::new();
        for (i, &(op, t, k, lane)) in ops.iter().enumerate() {
            match op {
                0..=2 => {
                    // Ops 0 and 1 step the lane's clock forward (or stay at
                    // it); op 2 lands anywhere, usually out of order.
                    let at = if op < 2 {
                        lane_time[lane] += t % 40;
                        lane_time[lane]
                    } else {
                        t
                    };
                    laned.schedule_on(lanes[lane], SimTime::from_micros(at), Kind(k), i);
                    plain.schedule(SimTime::from_micros(at), Kind(k), i);
                }
                3 => {
                    laned.schedule(SimTime::from_micros(t), Kind(k), i);
                    plain.schedule(SimTime::from_micros(t), Kind(k), i);
                }
                4 => {
                    let at = SimTime::from_micros(t);
                    timers.push((
                        laned.schedule_timer(at, Kind(k), i),
                        plain.schedule_timer(at, Kind(k), i),
                    ));
                }
                5 if !timers.is_empty() => {
                    let (a, b) = timers[t as usize % timers.len()];
                    prop_assert_eq!(laned.cancel(a), plain.cancel(b));
                }
                _ => {
                    prop_assert_eq!(laned.peek_time(), plain.peek_time());
                    prop_assert_eq!(laned.pop(), plain.pop());
                }
            }
            prop_assert_eq!(laned.len(), plain.len());
        }
        loop {
            let (a, b) = (laned.pop(), plain.pop());
            prop_assert_eq!(&a, &b);
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(laned.dispatched(), plain.dispatched());
        prop_assert_eq!(laned.now(), plain.now());
        prop_assert!(laned.is_empty());
    }
}

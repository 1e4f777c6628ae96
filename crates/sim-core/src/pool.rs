//! A small scoped-thread worker pool with deterministic result ordering.
//!
//! Every repeated-simulation path in the workspace (multi-seed plan
//! execution, the experiment grids, equivalence sweeps) fans out
//! *independent, deterministic* jobs: run a simulation for one
//! `(bundle, config, seed)` triple and collect its report. [`ThreadPool`]
//! covers exactly that shape with nothing but `std::thread`:
//!
//! * [`ThreadPool::map`] consumes a `Vec` of jobs and returns one result per
//!   job **in job order**, no matter how many worker threads ran them or
//!   how they interleaved — so a parallel run is byte-identical to a serial
//!   one as long as each job is itself deterministic;
//! * work is distributed by an atomic cursor (work stealing degenerates to
//!   FIFO hand-out), so a long job never blocks the queue behind it;
//! * a panicking job propagates the panic to the caller after all workers
//!   have drained (the guarantee `std::thread::scope` provides).
//!
//! The pool is deliberately *not* a global: each call site decides its
//! parallelism, typically via [`default_threads`], which honours the
//! `BLOCKOPTR_THREADS` environment variable (the CI matrix runs the test
//! suite under `BLOCKOPTR_THREADS=1` and `=4` to flush out accidental
//! order dependence) and otherwise uses the machine's available
//! parallelism.
//!
//! ```
//! use sim_core::pool::ThreadPool;
//!
//! let squares = ThreadPool::new(4).map((0..100).collect(), |i: u64| i * i);
//! assert_eq!(squares[7], 49, "results keep job order");
//! ```

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Parse a `BLOCKOPTR_THREADS`-style override: a positive integer enables
/// that many workers; anything else (absent, empty, malformed, zero) means
/// "no override".
fn parse_threads(spec: Option<&str>) -> Option<usize> {
    spec.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// The machine's available parallelism (1 when it cannot be determined).
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// The workspace-wide default worker count: the `BLOCKOPTR_THREADS`
/// environment variable when it holds a positive integer, otherwise the
/// machine's available parallelism.
pub fn default_threads() -> usize {
    #[expect(
        clippy::disallowed_methods,
        reason = "the pool is the sanctioned seam: the thread count is promised not to change results, and CI runs every suite at 1 and 4 threads"
    )]
    let env = std::env::var("BLOCKOPTR_THREADS").ok();
    parse_threads(env.as_deref()).unwrap_or_else(hardware_threads)
}

/// A fixed-width scoped worker pool. Cheap to build (no threads are kept
/// alive between calls); copyable configuration, not a handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPool {
    threads: usize,
}

impl Default for ThreadPool {
    /// A pool sized by [`default_threads`].
    fn default() -> Self {
        ThreadPool::new(default_threads())
    }
}

impl ThreadPool {
    /// A pool running `threads` workers (clamped to at least 1; one worker
    /// means the caller's thread runs every job serially).
    pub fn new(threads: usize) -> ThreadPool {
        ThreadPool {
            threads: threads.max(1),
        }
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f` over every task and return the results **in task order**.
    ///
    /// With one worker (or at most one task) everything runs on the calling
    /// thread with zero synchronization; otherwise `min(threads, tasks)`
    /// scoped workers pull tasks from an atomic cursor. A panic inside `f`
    /// is re-raised here once all workers have stopped.
    pub fn map<T, R, F>(&self, tasks: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = tasks.len();
        if self.threads <= 1 || n <= 1 {
            return tasks.into_iter().map(f).collect();
        }

        // Jobs are claimed exactly once via the cursor; slots are written
        // exactly once by whichever worker ran the job. Both vectors are
        // indexed by job position, which is what makes the output ordering
        // independent of scheduling.
        let jobs: Vec<Mutex<Option<T>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let f = &f;

        #[expect(
            clippy::disallowed_methods,
            reason = "the pool is the sanctioned seam for threads: results land in job-indexed slots, so their order never depends on scheduling"
        )]
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(n) {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let task = jobs[i]
                        .lock()
                        .expect("job mutexes are never poisoned before the claim")
                        .take()
                        .expect("the cursor hands each job out once");
                    let out = f(task);
                    *slots[i].lock().expect("slot mutex") = Some(out);
                });
            }
        });

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot mutex")
                    .expect("every job ran to completion")
            })
            .collect()
    }
}

/// Convenience: [`ThreadPool::map`] with an explicit worker count.
pub fn map<T, R, F>(threads: usize, tasks: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    ThreadPool::new(threads).map(tasks, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_keep_task_order() {
        for threads in [1, 2, 3, 8, 64] {
            let out = ThreadPool::new(threads).map((0..257u64).collect(), |i| i * 3);
            assert_eq!(out.len(), 257);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i as u64 * 3, "threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let work = |i: u64| -> (u64, String) {
            // A job with some allocation and data dependence on the input.
            let mut acc = i;
            for k in 0..100 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (acc, format!("job-{i}"))
        };
        let serial = ThreadPool::new(1).map((0..64).collect(), work);
        let parallel = ThreadPool::new(4).map((0..64).collect(), work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = ThreadPool::new(8).map((0..100usize).collect(), |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 100);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        let out = ThreadPool::new(16).map(vec![1, 2], |i: i32| i + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn empty_and_single_task_short_circuit() {
        let none: Vec<i32> = ThreadPool::new(4).map(Vec::<i32>::new(), |i| i);
        assert!(none.is_empty());
        assert_eq!(ThreadPool::new(4).map(vec![9], |i: i32| i * 2), vec![18]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.map(vec![1, 2, 3], |i: i32| i), vec![1, 2, 3]);
    }

    #[test]
    fn free_function_mirrors_pool() {
        assert_eq!(map(3, (0..10).collect(), |i: u32| i + 1)[9], 10);
    }

    #[test]
    fn thread_spec_parsing() {
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("-2")), None);
        assert_eq!(parse_threads(Some("abc")), None);
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 12 ")), Some(12));
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let _ = ThreadPool::new(4).map((0..32).collect(), |i: u32| {
            if i == 17 {
                panic!("boom");
            }
            i
        });
    }
}

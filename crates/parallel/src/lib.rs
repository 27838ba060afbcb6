//! A persistent thread pool for embarrassingly parallel batches, with no
//! dependencies outside the workspace (`nassc-trace` instruments batch
//! dispatch; it is itself dependency-free).
//!
//! The build environment has no access to crates.io (mirroring
//! `crates/compat/`), so instead of `rayon` this crate provides the small
//! slice of it the NASSC pipelines need: an order-preserving
//! [`ThreadPool::map`]. Workers draw job indices from an atomic counter and
//! write results back into their original slot, so the output order — and
//! therefore every downstream aggregate — is identical to a serial
//! `Vec::into_iter().map(f).collect()`, regardless of how the OS schedules
//! the workers.
//!
//! Dispatch runs on a **process-wide persistent worker pool** (see
//! [`pool`]): worker threads are spawned once, parked between calls, and
//! shared by every [`ThreadPool`] handle. A handle is therefore just a
//! concurrency *budget* — a `Copy` value bounding how many workers may join
//! each of its dispatches — which is what lets a long-lived `Transpiler`
//! session pay thread start-up once per process instead of once per call.
//! The publishing caller always participates in its own batch, so nested
//! dispatch (a batch job running layout trials running in-pass SWAP scoring)
//! can never deadlock, and jobs may still borrow from the caller's stack:
//! a dispatch blocks until its whole batch has completed.
//!
//! Worker count resolution (see [`default_parallelism`]): the
//! `NASSC_THREADS` environment variable when set to a positive integer,
//! otherwise [`std::thread::available_parallelism`]. `NASSC_THREADS=1` forces
//! fully serial execution on the caller's thread, which is useful for
//! benchmarking the parallel speedup and for bisecting scheduling-dependent
//! bugs (there should be none: outputs never depend on the worker count).
//!
//! # Example
//!
//! ```
//! use nassc_parallel::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let squares = pool.map((0u64..8).collect(), |x| x * x);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

pub mod budget;
pub mod pool;

pub use budget::{Budget, Cancelled};
pub use pool::{worker_pool_status, PoolStatus, MAX_POOL_WORKERS};

use std::panic::resume_unwind;
use std::sync::Mutex;

/// Environment variable overriding the worker count picked by
/// [`default_parallelism`].
pub const THREADS_ENV_VAR: &str = "NASSC_THREADS";

/// Parses a `NASSC_THREADS`-style override: `Some(n)` for a positive integer,
/// `None` for anything else (absent, empty, zero, garbage).
fn parse_thread_override(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// The worker count used by [`ThreadPool::with_default_parallelism`]:
/// `NASSC_THREADS` when set to a positive integer, otherwise the number of
/// hardware threads (at least 1).
///
/// A set-but-unusable override (empty, zero, garbage) is ignored **with a
/// warning on stderr** — a typoed `NASSC_THREADS=1` would otherwise
/// silently benchmark "serial" timings on every core.
pub fn default_parallelism() -> usize {
    let env = std::env::var(THREADS_ENV_VAR).ok();
    match env.as_deref() {
        Some(value) => parse_thread_override(Some(value)).unwrap_or_else(|| {
            eprintln!(
                "warning: ignoring invalid {THREADS_ENV_VAR}={value:?}; \
                 using all hardware threads"
            );
            hardware_parallelism()
        }),
        None => hardware_parallelism(),
    }
}

/// [`std::thread::available_parallelism`], defaulting to 1 when unknown.
fn hardware_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// An order-preserving concurrency budget over the persistent worker pool.
///
/// A `ThreadPool` value is a cheap `Copy` handle: it owns no threads itself.
/// Each [`map`](Self::map)/[`map_range`](Self::map_range) call publishes one
/// batch to the process-wide [`pool`] and lets at most `threads - 1`
/// persistent workers join the calling thread in draining it. There is no
/// per-handle state to manage and nothing to shut down; workers are spawned
/// lazily on first parallel dispatch and parked between calls.
///
/// Jobs may freely borrow from the caller's stack (no `'static` bound): a
/// dispatch blocks until its whole batch has completed, exactly like the
/// scoped-thread implementation it replaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool running jobs on up to `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// A pool sized by [`default_parallelism`].
    pub fn with_default_parallelism() -> Self {
        Self::new(default_parallelism())
    }

    /// The maximum number of workers (caller included) that may run this
    /// pool's jobs concurrently.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Splits this pool's worker budget between an outer batch of `jobs`
    /// and the parallelism nested inside each job, so the two levels never
    /// oversubscribe the budget: `outer.threads() * inner.threads() <=
    /// self.threads()` (both at least 1).
    ///
    /// The outer pool gets `min(threads, jobs)` workers — no point spawning
    /// more workers than jobs — and the inner pool divides what is left:
    /// `threads / outer`. A saturated outer level (at least as many jobs as
    /// workers) therefore yields a serial inner pool, while a single job
    /// hands the entire budget to its nested work. Because [`map`](Self::map)
    /// is order-preserving at every worker count, the split affects wall
    /// clock only, never results.
    ///
    /// Splits chain: the batch engine splits its budget between jobs and
    /// each job's share, and the transpile pipeline splits that share again
    /// between layout trials and in-pass SWAP scoring — the product of all
    /// levels never exceeds the original budget.
    pub fn split_budget(&self, jobs: usize) -> (ThreadPool, ThreadPool) {
        let outer = self.threads.min(jobs.max(1));
        let inner = (self.threads / outer).max(1);
        (Self::new(outer), Self::new(inner))
    }

    /// Applies `f` to every item, returning results in input order.
    ///
    /// Equivalent to `items.into_iter().map(f).collect()` — including when a
    /// job panics: remaining jobs finish, then the caller panics with the
    /// first job's original panic payload. With one worker (or ≤ 1 item) no
    /// batch is published and `f` runs on the caller's thread.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        if self.threads == 1 || n <= 1 {
            return items.into_iter().map(f).collect();
        }
        // Park each item in its own slot and dispatch by index through the
        // shared worker loop; every slot is taken exactly once, so the
        // per-item lock is never contended.
        let inputs: Vec<Mutex<Option<T>>> =
            items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        self.map_range(n, |index| {
            let item = inputs[index]
                .lock()
                .expect("input slot poisoned")
                .take()
                .expect("each index is dispatched exactly once");
            f(item)
        })
    }

    /// Applies `f` to every index in `0..n`, returning results in index
    /// order — [`map`](Self::map) over `(0..n).collect()` minus the input
    /// vector, and the primitive `map` itself is built on: workers draw
    /// indices from an atomic counter, so dispatching allocates nothing
    /// beyond the result slots. Built for per-step fan-outs inside hot
    /// loops (the routing engine scores SWAP candidates through this every
    /// step).
    pub fn map_range<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.threads == 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let task = |index: usize| {
            // Run the job before touching the slot, so a panicking job
            // cannot poison its result mutex for the collection loop below.
            let result = f(index);
            *slots[index].lock().expect("result slot poisoned") = Some(result);
        };
        if let Some(payload) = pool::run_batch(self.threads, n, &task) {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every index stores a result before the batch completes")
            })
            .collect()
    }
}

impl Default for ThreadPool {
    fn default() -> Self {
        Self::with_default_parallelism()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Serializes every test that panics inside pool jobs, so assertions on
    /// the process-wide `jobs_panicked` counter are not racy. Poison-tolerant
    /// because `#[should_panic]` tests unwind while holding it.
    fn panic_counter_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn map_matches_serial_and_preserves_order() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = ThreadPool::new(threads).map(items.clone(), |x| x * 3 + 1);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn order_is_preserved_under_skewed_job_costs() {
        // Early items are the slowest, so a naive push-in-completion-order
        // pool would return them last.
        let items: Vec<usize> = (0..32).collect();
        let got = ThreadPool::new(4).map(items.clone(), |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i
        });
        assert_eq!(got, items);
    }

    #[test]
    fn every_item_is_processed_exactly_once() {
        let counter = AtomicUsize::new(0);
        let results = ThreadPool::new(7).map((0..100).collect::<Vec<usize>>(), |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(results.len(), 100);
    }

    #[test]
    fn map_range_matches_serial_and_preserves_order() {
        let expected: Vec<usize> = (0..113).map(|i| i * 7 + 2).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = ThreadPool::new(threads).map_range(113, |i| i * 7 + 2);
            assert_eq!(got, expected, "threads = {threads}");
        }
        assert_eq!(ThreadPool::new(4).map_range(0, |i| i), Vec::<usize>::new());
        assert_eq!(ThreadPool::new(4).map_range(1, |i| i + 9), vec![9]);
    }

    #[test]
    fn map_range_runs_every_index_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        ThreadPool::new(5).map_range(64, |i| counts[i].fetch_add(1, Ordering::Relaxed));
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn jobs_may_borrow_from_the_caller_stack() {
        let base = [10usize, 20, 30];
        let got = ThreadPool::new(2).map(vec![0usize, 1, 2], |i| base[i] + i);
        assert_eq!(got, vec![10, 21, 32]);
    }

    #[test]
    fn empty_and_single_item_batches_work() {
        let pool = ThreadPool::new(8);
        assert_eq!(pool.map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(pool.map(vec![42u32], |x| x + 1), vec![43]);
    }

    #[test]
    fn thread_count_is_clamped_to_at_least_one() {
        assert_eq!(ThreadPool::new(0).threads(), 1);
        assert!(default_parallelism() >= 1);
        assert!(ThreadPool::default().threads() >= 1);
    }

    #[test]
    fn split_budget_never_oversubscribes() {
        for threads in [1, 2, 3, 8, 17] {
            let pool = ThreadPool::new(threads);
            for jobs in [0, 1, 2, 5, 8, 100] {
                let (outer, inner) = pool.split_budget(jobs);
                assert!(outer.threads() >= 1 && inner.threads() >= 1);
                assert!(
                    outer.threads() * inner.threads() <= threads,
                    "threads {threads}, jobs {jobs}: {} x {}",
                    outer.threads(),
                    inner.threads()
                );
                assert!(outer.threads() <= jobs.max(1));
            }
        }
    }

    #[test]
    fn split_budget_extremes() {
        // A single job hands the whole budget to the nested level.
        let (outer, inner) = ThreadPool::new(8).split_budget(1);
        assert_eq!((outer.threads(), inner.threads()), (1, 8));
        // A saturated outer level leaves the nested level serial.
        let (outer, inner) = ThreadPool::new(8).split_budget(64);
        assert_eq!((outer.threads(), inner.threads()), (8, 1));
        // Leftover workers go to the nested level.
        let (outer, inner) = ThreadPool::new(8).split_budget(3);
        assert_eq!((outer.threads(), inner.threads()), (3, 2));
    }

    #[test]
    fn thread_override_parsing() {
        assert_eq!(parse_thread_override(None), None);
        assert_eq!(parse_thread_override(Some("")), None);
        assert_eq!(parse_thread_override(Some("0")), None);
        assert_eq!(parse_thread_override(Some("garbage")), None);
        assert_eq!(parse_thread_override(Some("4")), Some(4));
        assert_eq!(parse_thread_override(Some(" 12 ")), Some(12));
    }

    #[test]
    #[should_panic(expected = "deliberate job panic")]
    fn job_panics_propagate_to_the_caller() {
        let _guard = panic_counter_guard();
        ThreadPool::new(4).map((0..8).collect::<Vec<usize>>(), |i| {
            if i == 5 {
                panic!("deliberate job panic");
            }
            i
        });
    }

    #[test]
    fn pool_survives_a_panicking_batch() {
        let _guard = panic_counter_guard();
        // Persistent workers must outlive panicking jobs: a batch that
        // panics is reported to its caller, and the very next dispatch on
        // the same workers still completes normally.
        let caught = std::panic::catch_unwind(|| {
            ThreadPool::new(4).map_range(16, |i| {
                if i == 3 {
                    panic!("poisoned batch");
                }
                i
            })
        });
        assert!(caught.is_err());
        let got = ThreadPool::new(4).map_range(16, |i| i * 2);
        assert_eq!(got, (0..16).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn try_map_range_contains_panics_and_counts_them() {
        let _guard = panic_counter_guard();
        let before = worker_pool_status().jobs_panicked;
        let payload = std::panic::catch_unwind(|| {
            ThreadPool::new(4).map_range(16, |i| {
                if i == 3 {
                    panic!("boom {i}");
                }
                i
            })
        })
        .expect_err("a panicking job must reach the caller");
        assert_eq!(payload.downcast_ref::<String>().unwrap(), "boom 3");
        assert_eq!(worker_pool_status().jobs_panicked, before + 1);
        // The pool is healthy afterwards.
        let got = ThreadPool::new(4).map_range(8, |i| i + 1);
        assert_eq!(got, (1..9).collect::<Vec<_>>());
    }

    #[test]
    fn budget_cancellation_is_not_a_job_panic() {
        let _guard = panic_counter_guard();
        let budget = Budget::unlimited();
        budget.cancel();
        let before = worker_pool_status().jobs_panicked;
        let payload = std::panic::catch_unwind(|| {
            ThreadPool::new(4).map_range(8, |i| {
                if i >= 4 {
                    budget.checkpoint();
                }
                i
            })
        })
        .expect_err("a tripped checkpoint must reach the caller");
        assert!(Cancelled::from_payload(payload.as_ref()));
        assert_eq!(
            worker_pool_status().jobs_panicked,
            before,
            "cooperative cancellation must not count as a panicked job"
        );
    }

    #[test]
    fn nested_dispatch_completes_without_deadlock() {
        // Outer jobs publish inner batches while every worker may already be
        // busy; caller participation guarantees progress. This mirrors the
        // transpile pipeline's layout-trials → in-pass-scoring nesting.
        let outer = ThreadPool::new(4);
        let inner = ThreadPool::new(4);
        let got = outer.map_range(8, |i| inner.map_range(8, |j| i * 8 + j));
        let expected: Vec<Vec<usize>> = (0..8)
            .map(|i| (0..8).map(|j| i * 8 + j).collect())
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn workers_persist_across_dispatches() {
        // Two dispatches must not grow the pool past the first one's needs,
        // and counters must advance: the whole point of the refactor.
        let pool = ThreadPool::new(3);
        pool.map_range(8, |i| i);
        let after_first = worker_pool_status();
        assert!(after_first.workers >= 2, "helpers spawned: {after_first:?}");
        pool.map_range(8, |i| i);
        let after_second = worker_pool_status();
        assert_eq!(after_second.workers, after_first.workers);
        assert!(after_second.batches_completed > after_first.batches_completed);
        assert!(after_second.items_completed >= after_first.items_completed + 8);
    }

    #[test]
    fn deep_nesting_with_skewed_budgets_completes() {
        // Three levels of nesting with mismatched budgets — the worst case
        // for a queue-based pool (every level blocks on the one below).
        let got = ThreadPool::new(8).map_range(4, |i| {
            ThreadPool::new(2).map_range(3, |j| {
                ThreadPool::new(5)
                    .map_range(4, |k| i * 100 + j * 10 + k)
                    .into_iter()
                    .sum::<usize>()
            })
        });
        let expected: Vec<Vec<usize>> = (0..4)
            .map(|i| {
                (0..3)
                    .map(|j| (0..4).map(|k| i * 100 + j * 10 + k).sum())
                    .collect()
            })
            .collect();
        assert_eq!(got, expected);
    }
}

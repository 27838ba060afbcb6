//! The process-wide persistent worker pool behind [`ThreadPool`]'s parallel
//! dispatch.
//!
//! Earlier revisions spawned OS threads inside every `map`/`map_range` call
//! via [`std::thread::scope`]. That is correct but pays thread creation on
//! every call — ruinous for the routing engine, which fans out candidate
//! scoring on every routing step, and wrong for a long-lived transpilation
//! service, where worker warm-up should be paid once per process, not once
//! per request. This module replaces it with **long-lived parked workers**
//! fed by a queue of published batches:
//!
//! * Workers are spawned lazily (up to the largest helper count any batch has
//!   ever asked for, capped at [`MAX_POOL_WORKERS`]) and then live for the
//!   rest of the process, parked on a condvar while idle.
//! * A [`ThreadPool::map_range`] call publishes one `Batch` — a shared
//!   index counter over `0..n` plus the job closure — wakes the workers, and
//!   **participates in draining its own batch**. Caller participation is
//!   what makes nested dispatch (batch jobs running layout trials running
//!   in-pass scoring) deadlock-free: even if every worker is busy elsewhere,
//!   the publishing thread drains the batch alone and the call completes.
//! * A handle's `threads` budget caps how many workers may join its batch
//!   (`threads - 1` helpers + the caller), so [`ThreadPool::split_budget`]
//!   arithmetic keeps its meaning: the configured budget bounds the
//!   parallelism of each dispatch, while the *pool* is shared process-wide.
//!
//! Results are written into per-index slots by the caller-provided closure,
//! so output order — and therefore every downstream aggregate — never
//! depends on scheduling, exactly as with the scoped implementation.
//!
//! # Safety
//!
//! This is the one module in the workspace that needs `unsafe`: a persistent
//! worker cannot borrow from a caller's stack through safe APIs (that is
//! precisely what [`std::thread::scope`] exists for, and scoped threads are
//! what this module removes). The single unsafe operation is erasing the
//! lifetime of the batch closure reference in `run_batch`. It is sound
//! because `run_batch` does not return until every index of the batch has
//! finished executing (`completed == n`, observed under the batch's
//! completion lock, which every increment happens-before), and workers never
//! dereference the closure after drawing an index `>= n`. The caller's stack
//! frame — and everything the closure borrows — therefore strictly outlives
//! every use of the erased reference. `Batch` itself is reference-counted,
//! so a late-waking worker that still holds the batch only ever touches its
//! atomics, never the closure.
//!
//! [`ThreadPool`]: crate::ThreadPool
//! [`ThreadPool::map_range`]: crate::ThreadPool::map_range
//! [`ThreadPool::split_budget`]: crate::ThreadPool::split_budget

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crate::budget::Cancelled;

/// Hard cap on the number of persistent workers the process will ever spawn,
/// however large the requesting [`ThreadPool`] budgets are. Batches asking
/// for more helpers than exist still complete — the publishing caller always
/// participates — they just run with fewer helpers.
///
/// [`ThreadPool`]: crate::ThreadPool
pub const MAX_POOL_WORKERS: usize = 256;

/// A snapshot of the persistent pool's lifetime counters, for observability
/// (the `Transpiler` session API surfaces this next to its cache counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStatus {
    /// Persistent workers spawned so far (they are never torn down).
    pub workers: usize,
    /// Parallel batches completed since process start.
    pub batches_completed: u64,
    /// Total items executed across all completed batches.
    pub items_completed: u64,
    /// Jobs that panicked (and were contained by the pool). Cooperative
    /// budget cancellations ([`Cancelled`] unwinds) are not counted — they
    /// are deadline aborts, not faults.
    ///
    /// [`Cancelled`]: crate::budget::Cancelled
    pub jobs_panicked: u64,
}

/// A snapshot of the pool's counters. Workers spawn lazily, so a process
/// that never dispatched a parallel batch reports zero workers.
pub fn worker_pool_status() -> PoolStatus {
    let shared = shared();
    PoolStatus {
        workers: shared.workers.load(Ordering::Relaxed),
        batches_completed: shared.batches.load(Ordering::Relaxed),
        items_completed: shared.items.load(Ordering::Relaxed),
        jobs_panicked: shared.jobs_panicked.load(Ordering::Relaxed),
    }
}

/// The job closure with its caller-stack lifetime erased. Soundness is
/// argued at [`run_batch`]: the erasing caller outlives every dereference.
#[derive(Clone, Copy)]
struct Task(&'static (dyn Fn(usize) + Sync));

/// Completion state of a batch, updated once per finished index.
struct DoneState {
    completed: usize,
    /// Payload of the first panic observed. "First" is completion order,
    /// not job index, which is fine — callers surface one representative
    /// fault.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// One published unit of parallel work: apply the task to every index in
/// `0..n`, with at most `seats` workers joining the publishing caller.
struct Batch {
    task: Task,
    n: usize,
    /// Next index to draw. Workers and the caller race on this counter;
    /// whoever draws an index executes it, so the partition is dynamic but
    /// every index runs exactly once.
    next: AtomicUsize,
    /// Remaining worker seats (the caller's own seat is not counted).
    seats: AtomicUsize,
    done: Mutex<DoneState>,
    all_done: Condvar,
}

impl Batch {
    /// Claims a worker seat, returning `false` when the batch is exhausted
    /// or its seat budget is spent. A seat claimed on a batch that runs out
    /// of indices immediately afterwards is harmless: the worker's drain
    /// loop exits on its first draw.
    fn try_claim_seat(&self) -> bool {
        if self.next.load(Ordering::Relaxed) >= self.n {
            return false;
        }
        self.seats
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |seats| {
                seats.checked_sub(1)
            })
            .is_ok()
    }

    /// Draws and executes indices until the batch is exhausted. Panics in
    /// the task are caught and stashed (first one wins) so persistent
    /// workers survive panicking jobs; the publishing caller receives the
    /// payload after completion. Genuine panics — not cooperative
    /// [`Cancelled`] budget aborts — also bump the pool-wide
    /// `jobs_panicked` counter.
    fn drain(&self, shared: &Shared) {
        loop {
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            if index >= self.n {
                break;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| (self.task.0)(index)));
            if let Err(payload) = &outcome {
                if !Cancelled::from_payload(payload.as_ref()) {
                    shared.jobs_panicked.fetch_add(1, Ordering::Relaxed);
                }
            }
            let mut done = self.done.lock().expect("batch completion state poisoned");
            if let Err(payload) = outcome {
                done.panic.get_or_insert(payload);
            }
            done.completed += 1;
            if done.completed == self.n {
                self.all_done.notify_all();
            }
        }
    }

    /// Blocks until every index has completed, handing back the first panic
    /// payload, if any.
    fn wait_done(&self) -> Option<Box<dyn std::any::Any + Send>> {
        let mut done = self.done.lock().expect("batch completion state poisoned");
        while done.completed < self.n {
            done = self
                .all_done
                .wait(done)
                .expect("batch completion state poisoned");
        }
        done.panic.take()
    }
}

/// State shared by every persistent worker and every publishing caller.
struct Shared {
    /// Published batches that still have open seats. Kept tiny: a batch is
    /// pushed by its caller, skipped by workers once exhausted, and removed
    /// by the caller before `run_batch` returns.
    queue: Mutex<Vec<Arc<Batch>>>,
    work_available: Condvar,
    workers: AtomicUsize,
    batches: AtomicU64,
    items: AtomicU64,
    jobs_panicked: AtomicU64,
}

fn shared() -> &'static Arc<Shared> {
    static SHARED: OnceLock<Arc<Shared>> = OnceLock::new();
    SHARED.get_or_init(|| {
        Arc::new(Shared {
            queue: Mutex::new(Vec::new()),
            work_available: Condvar::new(),
            workers: AtomicUsize::new(0),
            batches: AtomicU64::new(0),
            items: AtomicU64::new(0),
            jobs_panicked: AtomicU64::new(0),
        })
    })
}

/// Grows the pool until at least `want` workers exist (capped at
/// [`MAX_POOL_WORKERS`]). Workers are detached: they park on the shared
/// condvar between batches and die with the process.
fn ensure_workers(shared: &'static Arc<Shared>, want: usize) {
    let want = want.min(MAX_POOL_WORKERS);
    loop {
        let current = shared.workers.load(Ordering::Relaxed);
        if current >= want {
            return;
        }
        if shared
            .workers
            .compare_exchange(current, current + 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            let result = std::thread::Builder::new()
                .name(format!("nassc-worker-{current}"))
                .spawn(move || worker_main(shared));
            if result.is_err() {
                // Spawn failure (resource exhaustion) is not fatal: the
                // publishing caller always participates, so batches still
                // complete. Give the seat back and stop growing.
                shared.workers.fetch_sub(1, Ordering::Relaxed);
                return;
            }
        }
    }
}

/// A persistent worker: park until a batch with an open seat appears, drain
/// it, repeat forever.
fn worker_main(shared: &Arc<Shared>) {
    let mut queue = shared.queue.lock().expect("pool queue poisoned");
    loop {
        let claimed = queue.iter().find(|batch| batch.try_claim_seat()).cloned();
        match claimed {
            Some(batch) => {
                drop(queue);
                batch.drain(shared);
                queue = shared.queue.lock().expect("pool queue poisoned");
            }
            None => {
                queue = shared
                    .work_available
                    .wait(queue)
                    .expect("pool queue poisoned");
            }
        }
    }
}

/// Runs `task` over every index in `0..n` with up to `threads - 1` pool
/// workers helping the calling thread. Blocks until every index has
/// completed; returns the first job panic's payload, which
/// [`ThreadPool::map_range`] re-raises in the caller.
///
/// Expects `threads >= 2` and `n >= 2` — serial fast paths belong to the
/// caller ([`ThreadPool::map_range`]).
///
/// [`ThreadPool::map_range`]: crate::ThreadPool::map_range
pub(crate) fn run_batch(
    threads: usize,
    n: usize,
    task: &(dyn Fn(usize) + Sync),
) -> Option<Box<dyn std::any::Any + Send>> {
    debug_assert!(threads >= 2 && n >= 2, "serial batches bypass the pool");
    let mut span = nassc_trace::span!("pool_batch");
    span.arg_u64("threads", threads as u64);
    span.arg_u64("items", n as u64);
    // SAFETY: sound because this function does not return (and so the
    // closure and everything it borrows stays alive) until `wait_done`
    // observes `completed == n` — which happens-after the last task call
    // returned, under the completion lock — and because no worker
    // dereferences the closure after drawing an index `>= n`. See the
    // module-level safety discussion.
    #[allow(clippy::missing_transmute_annotations)]
    let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
    let helpers = threads.min(n) - 1;
    let batch = Arc::new(Batch {
        task: Task(task),
        n,
        next: AtomicUsize::new(0),
        seats: AtomicUsize::new(helpers),
        done: Mutex::new(DoneState {
            completed: 0,
            panic: None,
        }),
        all_done: Condvar::new(),
    });

    let shared = shared();
    if helpers > 0 {
        ensure_workers(shared, helpers);
        shared
            .queue
            .lock()
            .expect("pool queue poisoned")
            .push(Arc::clone(&batch));
        shared.work_available.notify_all();
    }

    // The caller is always a participant: progress never depends on a pool
    // worker being free, which is what makes nested dispatch safe.
    batch.drain(shared);
    let panic = batch.wait_done();

    if helpers > 0 {
        let mut queue = shared.queue.lock().expect("pool queue poisoned");
        if let Some(position) = queue.iter().position(|b| Arc::ptr_eq(b, &batch)) {
            queue.remove(position);
        }
    }
    shared.batches.fetch_add(1, Ordering::Relaxed);
    shared.items.fetch_add(n as u64, Ordering::Relaxed);

    panic
}

//! Zero-cost pipeline tracing for the NASSC transpiler.
//!
//! A process-wide recorder behind one atomic enable flag. With tracing
//! **disabled** (the default), every instrumentation site costs exactly one
//! relaxed atomic load and performs **zero allocation** — transpile outputs
//! and performance stay bit-identical to an uninstrumented build. With
//! tracing **enabled**, sites record nested spans and counters into
//! per-thread buffers that [`take_report`] merges into a deterministic
//! total order.
//!
//! The crate has no dependencies (the build environment has no registry
//! access, mirroring `crates/compat/`), and nothing in it is specific to
//! quantum circuits: it is the repo's generic instrumentation layer.
//!
//! # Recording model
//!
//! * [`span()`] returns a [`SpanGuard`]: an RAII guard that
//!   stamps a start time on creation and records one complete-span event on
//!   drop. Guards nest naturally — each thread tracks its current depth, so
//!   reports can reconstruct the span tree without timestamp inference.
//! * [`counter`] adds to a named counter. Consecutive additions to the same
//!   counter on the same thread **coalesce** into a single event, so
//!   per-routing-step counters (`route.steps`, `route.swap_candidates`)
//!   cost an uncontended lock and an integer add, not an allocation per
//!   step.
//! * Every thread's buffer is **bounded** ([`MAX_EVENTS_PER_THREAD`]).
//!   Overflowing events are dropped and counted — never silently lost:
//!   the count appears in [`TraceReport::events_dropped`] and the
//!   process-lifetime total in [`events_dropped_total`].
//! * Buffers merge deterministically: threads order by (name, registration
//!   order) — a parallel batch's helpers are named `nassc-worker-N` by
//!   their index in the batch — and events within a thread by their
//!   per-thread sequence number.
//! * A thread's buffer outlives the thread until [`take_report`] drains
//!   it, and is then dropped, so short-lived batch helpers do not pile up.
//!
//! # Allocation attribution
//!
//! The recorder itself never measures the heap; a binary that installs a
//! counting allocator (see `nassc_bench::alloc`) registers a probe with
//! [`set_alloc_probe`], and every span then records the probe delta between
//! its start and end, less what the recorder's own event buffer allocated
//! meanwhile. A span starts and ends on one thread, and
//! `nassc_bench::alloc::thread_total_bytes` (the probe of `bench_profile`
//! and `transpile_qasm`) counts only the calling thread's bytes, so a span's
//! bytes are its own thread's, the same at any worker count; what a batch
//! allocates on helper threads lands in the helpers' spans. A process-wide
//! probe instead charges concurrent allocations to every span open at the
//! time: exact in serial runs, an upper bound in parallel ones.
//!
//! # Example
//!
//! ```
//! nassc_trace::enable();
//! {
//!     let mut outer = nassc_trace::span!("layout_trials");
//!     outer.arg_u64("trials", 4);
//!     let _inner = nassc_trace::span!("route");
//!     nassc_trace::counter("route.steps", 3);
//! }
//! let report = nassc_trace::take_report();
//! nassc_trace::disable();
//! assert_eq!(report.span_count("route"), 1);
//! assert!(report.to_chrome_json().contains("\"layout_trials\""));
//! ```

pub mod report;

pub use report::{
    json_escape, ArgValue, CounterEvent, EventKind, SpanEvent, SpanStat, ThreadInfo, TraceEvent,
    TraceReport,
};

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Upper bound on buffered events per thread. Overflow increments the
/// dropped-event counters instead of growing without bound.
pub const MAX_EVENTS_PER_THREAD: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Events dropped since the last [`take_report`] (or [`enable`]).
static DROPPED: AtomicU64 = AtomicU64::new(0);
/// Events dropped over the whole process lifetime (never reset).
static DROPPED_TOTAL: AtomicU64 = AtomicU64::new(0);
/// Registration order for thread buffers (merge tie-breaker).
static REGISTERED: AtomicUsize = AtomicUsize::new(0);

/// Whether the recorder is currently enabled. One relaxed load — this is
/// the entire disabled-mode cost of every instrumentation site.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the recorder on, clearing any events buffered from a previous
/// recording window and resetting the per-window dropped count.
pub fn enable() {
    for buffer in registry_snapshot() {
        lock_buffer(&buffer).events.clear();
    }
    DROPPED.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the recorder off. Buffered events stay available to
/// [`take_report`]; sites go back to the one-relaxed-load fast path.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Registers the allocation probe spans sample at start and end (e.g.
/// `nassc_bench::alloc::thread_total_bytes`, the calling thread's allocated
/// bytes). First registration wins; the probe must be monotonically
/// non-decreasing on every thread.
pub fn set_alloc_probe(probe: fn() -> u64) {
    let _ = alloc_probe_cell().set(probe);
}

/// Total events dropped by bounded thread buffers over the process
/// lifetime, including drops not yet collected by [`take_report`].
pub fn events_dropped_total() -> u64 {
    DROPPED_TOTAL.load(Ordering::Relaxed) + DROPPED.load(Ordering::Relaxed)
}

fn alloc_probe_cell() -> &'static OnceLock<fn() -> u64> {
    static PROBE: OnceLock<fn() -> u64> = OnceLock::new();
    &PROBE
}

fn alloc_now() -> u64 {
    alloc_probe_cell().get().map(|probe| probe()).unwrap_or(0)
}

fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    anchor().elapsed().as_nanos() as u64
}

/// One buffered instrumentation record. Private: reports expose
/// [`TraceEvent`].
#[derive(Debug)]
enum RawEvent {
    Span {
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        depth: u32,
        alloc_bytes: u64,
        args: Vec<(&'static str, ArgValue)>,
    },
    Counter {
        name: &'static str,
        ts_ns: u64,
        value: u64,
    },
}

struct ThreadBuffer {
    /// OS thread name at registration (pool workers: `nassc-worker-N`).
    name: String,
    /// Registration order: merge tie-breaker for same-named threads.
    registered: usize,
    /// Current span nesting depth on this thread.
    depth: u32,
    /// Per-thread sequence number of the next recorded event.
    seq: u64,
    /// Bytes the allocation probe counted while `events` grew: the
    /// recorder's own allocations, which span deltas leave out.
    own_bytes: u64,
    events: Vec<(u64, RawEvent)>,
}

impl ThreadBuffer {
    /// Pushes one event, honouring the buffer bound.
    fn push(&mut self, event: RawEvent) {
        if self.events.len() >= MAX_EVENTS_PER_THREAD {
            DROPPED.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        if self.events.len() == self.events.capacity() {
            let before = alloc_now();
            self.events.push((seq, event));
            self.own_bytes += alloc_now().saturating_sub(before);
        } else {
            self.events.push((seq, event));
        }
    }
}

type SharedBuffer = Arc<Mutex<ThreadBuffer>>;

fn registry() -> &'static Mutex<Vec<SharedBuffer>> {
    static REGISTRY: OnceLock<Mutex<Vec<SharedBuffer>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn registry_snapshot() -> Vec<SharedBuffer> {
    registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// Poison-tolerant buffer lock: a panic while recording (spans drop during
/// unwinding) must never wedge tracing for the rest of the process.
fn lock_buffer(buffer: &SharedBuffer) -> MutexGuard<'_, ThreadBuffer> {
    buffer.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    static LOCAL: OnceLock<SharedBuffer> = const { OnceLock::new() };
}

fn with_buffer<R>(f: impl FnOnce(&mut ThreadBuffer) -> R) -> R {
    LOCAL.with(|cell| {
        let shared = cell.get_or_init(|| {
            let buffer = Arc::new(Mutex::new(ThreadBuffer {
                name: std::thread::current().name().unwrap_or("").to_string(),
                registered: REGISTERED.fetch_add(1, Ordering::Relaxed),
                depth: 0,
                seq: 0,
                own_bytes: 0,
                events: Vec::new(),
            }));
            registry()
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(Arc::clone(&buffer));
            buffer
        });
        f(&mut lock_buffer(shared))
    })
}

/// An RAII span: created by [`span()`]/[`span!`], records one
/// complete-span event when dropped. Inert (`None` inside, zero further
/// work) when tracing was disabled at creation.
#[must_use = "a span measures the scope it is bound to; binding to _ drops it immediately"]
pub struct SpanGuard {
    inner: Option<ActiveSpan>,
}

struct ActiveSpan {
    name: &'static str,
    start_ns: u64,
    depth: u32,
    alloc_start: u64,
    args: Vec<(&'static str, ArgValue)>,
}

impl SpanGuard {
    /// Attaches an integer annotation (e.g. trial index, item count).
    /// No-op on an inert guard.
    pub fn arg_u64(&mut self, key: &'static str, value: u64) {
        if let Some(active) = &mut self.inner {
            active.args.push((key, ArgValue::U64(value)));
        }
    }

    /// Attaches a float annotation (e.g. a trial's routing cost).
    pub fn arg_f64(&mut self, key: &'static str, value: f64) {
        if let Some(active) = &mut self.inner {
            active.args.push((key, ArgValue::F64(value)));
        }
    }

    /// Attaches a text annotation (e.g. the chosen router).
    pub fn arg_text(&mut self, key: &'static str, value: &str) {
        if let Some(active) = &mut self.inner {
            active.args.push((key, ArgValue::Text(value.to_string())));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.inner.take() else {
            return;
        };
        let dur_ns = now_ns().saturating_sub(active.start_ns);
        with_buffer(|buffer| {
            let alloc_bytes = alloc_now()
                .saturating_sub(buffer.own_bytes)
                .saturating_sub(active.alloc_start);
            buffer.depth = buffer.depth.saturating_sub(1);
            buffer.push(RawEvent::Span {
                name: active.name,
                start_ns: active.start_ns,
                dur_ns,
                depth: active.depth,
                alloc_bytes,
                args: active.args,
            });
        });
    }
}

/// Opens a span with a static name. Disabled mode: one relaxed load, an
/// inert guard, zero allocation.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { inner: None };
    }
    let (depth, own_bytes) = with_buffer(|buffer| {
        let depth = buffer.depth;
        buffer.depth += 1;
        (depth, buffer.own_bytes)
    });
    SpanGuard {
        inner: Some(ActiveSpan {
            name,
            start_ns: now_ns(),
            depth,
            alloc_start: alloc_now().saturating_sub(own_bytes),
            args: Vec::new(),
        }),
    }
}

/// Opens a span; sugar for [`span()`] so call sites read
/// `nassc_trace::span!("sabre_layout")`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// Adds `value` to the named counter. Consecutive adds to the same counter
/// on the same thread coalesce into one buffered event, so hot-loop sites
/// (one call per routing step) stay allocation-free after the first step.
#[inline]
pub fn counter(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    let ts_ns = now_ns();
    with_buffer(|buffer| {
        if let Some((
            _,
            RawEvent::Counter {
                name: last,
                ts_ns: last_ts,
                value: total,
            },
        )) = buffer.events.last_mut()
        {
            if *last == name {
                *total += value;
                *last_ts = ts_ns;
                return;
            }
        }
        buffer.push(RawEvent::Counter { name, ts_ns, value });
    });
}

/// Drains every thread's buffer into one deterministically merged report
/// and folds the per-window dropped count into the process total. The
/// buffer of a thread that has exited is dropped once drained.
///
/// Merge order: threads sort by (thread name, registration order) — stable
/// across runs whenever thread names are distinct, as they are for the
/// main thread and for one batch's `nassc-worker-N` helpers — then each
/// thread's events in per-thread sequence order. Spans still open when the
/// report is taken are not included (their guards have not dropped yet).
pub fn take_report() -> TraceReport {
    // (thread name, registration order, drained events) per thread.
    type DrainedBuffer = (String, usize, Vec<(u64, RawEvent)>);
    let mut buffers: Vec<DrainedBuffer> = Vec::new();
    registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .retain(|shared| {
            // Besides the registry, a buffer is owned by its thread's
            // thread-local, released when the thread exits (nothing can
            // record into it after that), and for a moment by `enable`'s
            // snapshot, which only delays the drop to a later report.
            let exited = Arc::strong_count(shared) == 1;
            let mut buffer = lock_buffer(shared);
            let events = std::mem::take(&mut buffer.events);
            if !events.is_empty() {
                buffers.push((buffer.name.clone(), buffer.registered, events));
            }
            !exited
        });
    buffers.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));

    let mut threads = Vec::with_capacity(buffers.len());
    let mut events = Vec::new();
    for (tid, (name, _, raw_events)) in buffers.into_iter().enumerate() {
        threads.push(ThreadInfo { tid, name });
        for (seq, raw) in raw_events {
            let kind = match raw {
                RawEvent::Span {
                    name,
                    start_ns,
                    dur_ns,
                    depth,
                    alloc_bytes,
                    args,
                } => EventKind::Span(SpanEvent {
                    name: name.to_string(),
                    start_ns,
                    dur_ns,
                    depth,
                    alloc_bytes,
                    args: args
                        .into_iter()
                        .map(|(key, value)| (key.to_string(), value))
                        .collect(),
                }),
                RawEvent::Counter { name, ts_ns, value } => EventKind::Counter(CounterEvent {
                    name: name.to_string(),
                    ts_ns,
                    value,
                }),
            };
            events.push(TraceEvent { tid, seq, kind });
        }
    }
    let events_dropped = DROPPED.swap(0, Ordering::Relaxed);
    DROPPED_TOTAL.fetch_add(events_dropped, Ordering::Relaxed);
    TraceReport {
        threads,
        events,
        events_dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorder is process-wide; tests that enable it must not overlap.
    fn recorder_guard() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_mode_records_nothing() {
        let _guard = recorder_guard();
        disable();
        let _ = take_report();
        {
            let mut outer = span!("outer");
            outer.arg_u64("k", 1);
            let _inner = span("inner");
            counter("c", 5);
        }
        let report = take_report();
        assert!(report.events.is_empty());
        assert_eq!(report.events_dropped, 0);
    }

    #[test]
    fn spans_nest_and_counters_coalesce() {
        let _guard = recorder_guard();
        enable();
        {
            let mut outer = span!("outer");
            outer.arg_f64("cost", 2.5);
            {
                let _inner = span!("inner");
                counter("steps", 1);
                counter("steps", 1);
                counter("candidates", 7);
                counter("steps", 1);
            }
        }
        let report = take_report();
        disable();

        assert_eq!(report.span_count("outer"), 1);
        assert_eq!(report.span_count("inner"), 1);
        let spans: Vec<&SpanEvent> = report.spans().collect();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        // The child's interval sits inside the parent's.
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
        assert_eq!(outer.args, vec![("cost".to_string(), ArgValue::F64(2.5))]);
        // Consecutive same-name adds coalesced; the interleaved counter
        // broke one run into two events.
        assert_eq!(report.counter_total("steps"), 3);
        assert_eq!(report.counter_total("candidates"), 7);
        let step_events = report
            .events
            .iter()
            .filter(|e| matches!(&e.kind, EventKind::Counter(c) if c.name == "steps"))
            .count();
        assert_eq!(step_events, 2);
    }

    #[test]
    fn merge_order_is_deterministic_across_runs() {
        let _guard = recorder_guard();
        let run = || {
            enable();
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    std::thread::Builder::new()
                        .name(format!("trace-test-{i}"))
                        .spawn(move || {
                            for step in 0..4u64 {
                                let mut s = span!("work");
                                s.arg_u64("step", step);
                                counter("ticks", i + 1);
                            }
                        })
                        .expect("spawn test thread")
                })
                .collect();
            for handle in handles {
                handle.join().expect("test thread");
            }
            let report = take_report();
            disable();
            // Project out the deterministic shape: (thread name, seq, event
            // name) for every event, in merged order.
            report
                .events
                .iter()
                .map(|event| {
                    let name = match &event.kind {
                        EventKind::Span(s) => s.name.clone(),
                        EventKind::Counter(c) => c.name.clone(),
                    };
                    (report.threads[event.tid].name.clone(), event.seq, name)
                })
                .collect::<Vec<_>>()
        };
        let first = run();
        let second = run();
        assert_eq!(first, second);
        assert_eq!(
            first.len(),
            8 * 4 * 2,
            "4 spans + 4 counter events per thread"
        );
    }

    #[test]
    fn exited_threads_are_drained_then_dropped_from_the_registry() {
        let _guard = recorder_guard();
        let registered = || {
            registry()
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len()
        };
        enable();
        let _ = take_report();
        let before = registered();
        let handles: Vec<_> = (0..16)
            .map(|i| {
                std::thread::Builder::new()
                    .name(format!("trace-exit-{i}"))
                    .spawn(|| drop(span!("short_lived")))
                    .expect("spawn test thread")
            })
            .collect();
        for handle in handles {
            handle.join().expect("test thread");
        }
        let report = take_report();
        disable();
        assert_eq!(report.span_count("short_lived"), 16);
        // A buffer from an earlier test's thread may also have gone, so the
        // registry can only have shrunk.
        assert!(registered() <= before, "{} > {before}", registered());
    }

    #[test]
    fn buffers_are_bounded_and_drops_are_counted() {
        let _guard = recorder_guard();
        enable();
        for _ in 0..(MAX_EVENTS_PER_THREAD + 100) {
            let _span = span!("flood");
        }
        let report = take_report();
        disable();
        let flood = report.span_count("flood") as usize;
        assert!(flood <= MAX_EVENTS_PER_THREAD);
        assert!(report.events_dropped >= 100);
        assert_eq!(
            flood as u64 + report.events_dropped,
            MAX_EVENTS_PER_THREAD as u64 + 100
        );
        assert!(events_dropped_total() >= report.events_dropped);
        // The next window starts clean.
        enable();
        let _span = span!("after");
        drop(_span);
        let next = take_report();
        disable();
        assert_eq!(next.events_dropped, 0);
        assert_eq!(next.span_count("after"), 1);
    }

    #[test]
    fn chrome_json_and_span_table_round_trip_the_events() {
        let _guard = recorder_guard();
        enable();
        for i in 0..3u64 {
            let mut s = span!("pass");
            s.arg_u64("index", i);
        }
        counter("hits", 2);
        let report = take_report();
        disable();

        let json = report.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"pass\""));
        assert!(json.contains("\"ph\":\"C\""));

        let stats = report.span_table();
        let pass = stats.iter().find(|s| s.name == "pass").unwrap();
        assert_eq!(pass.count, 3);
        assert!(pass.total_ns >= pass.p50_ns);
        assert!(pass.p99_ns >= pass.p50_ns);
        let table_json = report.span_table_json();
        assert!(table_json.contains("\"name\":\"pass\",\"count\":3"));
        assert!(table_json.contains("\"counters\":[{\"name\":\"hits\",\"total\":2}]"));
        assert!(table_json.contains("\"events_dropped\":0"));
    }
}

//! A counting global allocator for the scale benchmarks.
//!
//! [`CountingAlloc`] forwards every request to [`std::alloc::System`] and
//! keeps three atomic counters: live bytes, peak live bytes, and cumulative
//! allocated bytes. `bench_scale` installs it with `#[global_allocator]` and
//! calls [`reset`] before each timed row, so every row self-reports its peak
//! and total allocation without any external profiler — the same
//! dependency-free spirit as the compat shims.
//!
//! The counters use `Relaxed` ordering: they are statistics, not
//! synchronisation. Under the worker pool the peak is a true global peak
//! across threads (every thread's allocations feed the same counter), but
//! the exact value can vary run to run with scheduling; only the routed
//! circuits themselves are bit-deterministic, not the allocator high-water
//! mark.
//!
//! Each thread also counts its own allocated bytes, which [`reset`] never
//! touches. [`thread_total_bytes`] reads that count and is the trace
//! allocation probe `bench_profile` and `transpile_qasm` register, so a
//! span's bytes are the bytes its own thread allocated while it was open,
//! whatever other threads allocate meanwhile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`LIVE`] since the last [`reset`].
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Cumulative bytes handed out since the last [`reset`].
static TOTAL: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Cumulative bytes the current thread has allocated; never reset.
    static THREAD_TOTAL: Cell<u64> = const { Cell::new(0) };
}

/// Counting wrapper around the system allocator (see module docs).
pub struct CountingAlloc;

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    TOTAL.fetch_add(size, Ordering::Relaxed);
    PEAK.fetch_max(live, Ordering::Relaxed);
    // `try_with` keeps the count usable while the thread tears down.
    let _ = THREAD_TOTAL.try_with(|total| total.set(total.get() + size as u64));
}

fn on_dealloc(size: usize) {
    LIVE.fetch_sub(size, Ordering::Relaxed);
}

// SAFETY: every method delegates verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counter updates never touch the returned
// memory. Counters are only bumped when `System` reports success, so failed
// allocations leave the statistics untouched.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        new_ptr
    }
}

/// Restarts the measurement window: zeroes the cumulative total and resets
/// the peak to the bytes currently live, so the next [`peak_bytes`] reading
/// reflects only growth beyond the present footprint.
pub fn reset() {
    TOTAL.store(0, Ordering::Relaxed);
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// High-water mark of live bytes since the last [`reset`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Cumulative bytes allocated since the last [`reset`].
pub fn total_bytes() -> usize {
    TOTAL.load(Ordering::Relaxed)
}

/// Cumulative bytes the calling thread has allocated since it started. It
/// only grows, and [`reset`] leaves it alone.
pub fn thread_total_bytes() -> u64 {
    THREAD_TOTAL.try_with(Cell::get).unwrap_or(0)
}

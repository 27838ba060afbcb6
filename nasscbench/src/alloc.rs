//! A counting global allocator: live bytes, the peak of live bytes since the
//! last [`reset_peak`], and cumulative bytes allocated.
//!
//! The counters are statistics, not synchronisation, so they use `Relaxed`
//! ordering. With several threads allocating, the peak is a true
//! process-wide high-water mark whose exact value depends on scheduling.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static TOTAL: AtomicU64 = AtomicU64::new(0);

/// Forwards to [`System`] and counts every successful request.
pub struct Counting;

fn on_alloc(size: usize) {
    let size = size as u64;
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    TOTAL.fetch_add(size, Ordering::Relaxed);
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn on_dealloc(size: usize) {
    LIVE.fetch_sub(size as u64, Ordering::Relaxed);
}

// SAFETY: every method delegates verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counters never touch the returned memory and
// are only updated when `System` reports success.
unsafe impl GlobalAlloc for Counting {
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

/// Starts a new peak window at the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The highest live heap since the last [`reset_peak`], in bytes.
pub fn peak() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Bytes allocated since the process started (never decreases).
pub fn total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

//! A span's allocation bytes are its own thread's.
//!
//! This binary installs the counting allocator and registers
//! `alloc::thread_total_bytes` as the trace probe, as `bench_profile` and
//! `transpile_qasm` do. Two threads each hold a span open while both
//! allocate, one 1 MiB and the other 4 MiB, and record enough child spans
//! to grow their event buffers. Each span must report its own allocation:
//! not the sum a process-wide counter would give it, and not the
//! recorder's buffer growth.

use std::hint::black_box;
use std::sync::Barrier;

use nassc::trace;
use nassc_bench::alloc::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Child spans per thread: their events grow the thread's buffer by far
/// more than `SLACK`.
const CHILD_SPANS: usize = 1000;

/// Allowance for allocations the measured code does not make itself.
const SLACK: u64 = 1024;

#[test]
fn concurrent_spans_report_only_their_own_threads_bytes() {
    const MIB: usize = 1 << 20;
    trace::set_alloc_probe(alloc::thread_total_bytes);
    trace::enable();
    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        for (name, bytes) in [("alloc_1mib", MIB), ("alloc_4mib", 4 * MIB)] {
            let barrier = &barrier;
            scope.spawn(move || {
                let _span = trace::span(name);
                // Both spans are open before either thread allocates, and
                // stay open until both have.
                barrier.wait();
                black_box(vec![1u8; bytes]);
                for _ in 0..CHILD_SPANS {
                    let _child = trace::span("child");
                }
                barrier.wait();
            });
        }
    });
    let report = trace::take_report();
    trace::disable();
    for (name, bytes) in [("alloc_1mib", MIB), ("alloc_4mib", 4 * MIB)] {
        let span = report
            .spans()
            .find(|span| span.name == name)
            .unwrap_or_else(|| panic!("no {name} span recorded"));
        let bytes = bytes as u64;
        assert!(
            (bytes..=bytes + SLACK).contains(&span.alloc_bytes),
            "{name} reported {} bytes, allocated {bytes}",
            span.alloc_bytes
        );
    }
}

//! A calibrated slot is counted against the session's byte budget.
//!
//! This binary installs the counting allocator, as `bench_scale` does, and
//! holds one test, so the live heap it reads moves with that test alone. A
//! session keeps one slot per (circuit, options), and each slot keeps its
//! own clone of the options: with a calibration in them, two maps and two
//! vectors, most of a slot's heap. A sweep of one-off calibrated seeds
//! must therefore grow `cache_bytes` by at least 90% of what it grows the
//! live heap.

use nassc::qasm;
use nassc::topology::Calibration;
use nassc::{Device, TranspileOptions, Transpiler};
use nassc_bench::alloc::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const GHZ5: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[5];\nh q[0];\n\
                    cx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\ncx q[3],q[4];\n";

#[test]
fn one_off_calibrated_seeds_grow_cache_bytes_with_the_heap() {
    let session = Transpiler::new(Device::montreal(), TranspileOptions::new());
    let calibration = Calibration::synthetic(session.device().coupling(), 1);
    let circuit = qasm::parse(GHZ5).expect("GHZ-5 parses");
    let transpile = |seed: u64| {
        let options = TranspileOptions::new()
            .calibration(calibration.clone())
            .seed(seed);
        let result = session.transpile_with(&circuit, &options);
        result.expect("a calibrated seed transpiles");
    };
    // The entry, the noise-aware distance table and a first slot.
    transpile(1);
    let (live, cached) = (alloc::live_bytes(), session.cache_usage().bytes);
    for seed in 2..=16 {
        transpile(seed);
    }
    let heap_growth = alloc::live_bytes() - live;
    let cache_growth = session.cache_usage().bytes - cached;
    assert!(
        10 * cache_growth >= 9 * heap_growth,
        "15 calibrated seeds grew the live heap by {heap_growth} B but cache_bytes \
         by {cache_growth} B ({:.1}%)",
        100.0 * cache_growth as f64 / heap_growth as f64
    );
}

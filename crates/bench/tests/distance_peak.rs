//! Distance tables are built at their final size.
//!
//! This binary installs the counting allocator, as `bench_scale` does, and
//! reads the peak live bytes of each table's construction. A
//! `DistanceMatrix` keeps 12 bytes per qubit pair (a `u32` hop count and an
//! `f64` weight), so the hop-count matrix must peak at that, and the
//! noise-aware one at that plus the weight table it replaces the hop-derived
//! one with: no wider intermediate table may be built on the way.

use nassc_bench::alloc::{self, CountingAlloc};
use nassc_topology::{noise_aware_distance, Calibration, CouplingMap};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allowance for what a construction keeps besides its tables: BFS or
/// Dijkstra scratch, a few rows long.
const SLACK: usize = 32 << 10;

#[test]
fn distance_tables_peak_at_their_final_size() {
    // The hop-count matrix on 1,024 qubits.
    let device = CouplingMap::grid(32, 32);
    let pairs = device.num_qubits() * device.num_qubits();
    let (hops, peak) = peak_growth(|| device.distance_matrix());
    assert!(
        peak <= 12 * pairs + SLACK,
        "distance_matrix peaked at {peak} bytes, {:.1} per pair",
        peak as f64 / pairs as f64
    );
    drop(hops);

    // Dijkstra from every source is O(n³), so the noise-aware matrix is
    // pinned on 256 qubits to keep this debug-built test quick.
    let device = CouplingMap::grid(16, 16);
    let calibration = Calibration::synthetic(&device, 1);
    let pairs = device.num_qubits() * device.num_qubits();
    let (weighted, peak) = peak_growth(|| noise_aware_distance(&device, &calibration));
    assert!(
        peak <= 20 * pairs + SLACK,
        "noise_aware_distance peaked at {peak} bytes, {:.1} per pair",
        peak as f64 / pairs as f64
    );
    drop(weighted);
}

/// The most live bytes `build` added above what was live when it started.
fn peak_growth<T>(build: impl FnOnce() -> T) -> (T, usize) {
    // After `reset` the peak is the bytes live now.
    alloc::reset();
    let live = alloc::peak_bytes();
    let built = build();
    (built, alloc::peak_bytes() - live)
}

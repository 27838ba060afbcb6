//! The heavy-hex scale determinism contract: a 10k-gate QV-style circuit on
//! the 127-qubit Eagle device transpiles **bit-identically** at 1 and 8
//! workers under both routers, and digests to the committed value. This pins
//! the compact instruction storage and the allocation-free routing hot loop
//! at a scale the montreal corpus never reaches — any worker-count-dependent
//! divergence or output change in layout, routing, or decomposition shows up
//! as a hard failure here.

#[path = "../../../tests/fingerprint/mod.rs"]
mod fingerprint;

use nassc::{RouterKind, ThreadPool, TranspileOptions, Transpiler};
use nassc_bench::scale::qv_style;
use nassc_bench::BASE_SEED;
use nassc_topology::CouplingMap;

/// Output digest per router (`tests/fingerprint/mod.rs` says what it covers).
const FINGERPRINTS: [(RouterKind, u64); 2] = [
    (RouterKind::Sabre, 0x1a13_1b52_fca5_0ea5),
    (RouterKind::Nassc, 0xa10d_d07d_790d_eeee),
];

#[test]
fn eagle_10k_gates_transpile_identically_across_thread_counts() {
    let device = CouplingMap::heavy_hex(7);
    assert_eq!(device.num_qubits(), 127, "heavy_hex(7) must be Eagle-sized");
    let circuit = qv_style(device.num_qubits(), 10_000, BASE_SEED);

    for (router, expected) in FINGERPRINTS {
        let options = TranspileOptions::new().router(router).seed(7);
        for workers in [1, 8] {
            let result = Transpiler::new(device.clone(), options.clone())
                .with_pool(ThreadPool::new(workers))
                .transpile(&circuit)
                .unwrap_or_else(|e| panic!("eagle/qv10k ({router:?}): {e}"));
            let digest = fingerprint::digest(&result);
            assert_eq!(
                digest, expected,
                "eagle/qv10k ({router:?}): output digest {digest:#018x} at {workers} workers"
            );
        }
    }
}

//! Smoke tests pinning the `nassc` facade's public API surface: if a
//! re-export disappears or an entry-point signature drifts, these fail before
//! any downstream consumer notices.

use nassc::{
    CacheStats, Error, OptimizationFlags, RouterKind, SessionJob, ThreadPool, TranspileOptions,
    Transpiler,
};

/// The 4-qubit circuit used by every smoke test below.
fn smoke_circuit() -> nassc::circuit::QuantumCircuit {
    let mut qc = nassc::circuit::QuantumCircuit::new(4);
    qc.h(0).cx(0, 1).t(1).cx(1, 2).cx(0, 3).h(3).cx(2, 3);
    qc
}

#[test]
fn transpiler_session_is_the_facade_entry_point() {
    let qc = smoke_circuit();
    for router in [RouterKind::Sabre, RouterKind::Nassc] {
        let session = Transpiler::new(
            nassc::topology::CouplingMap::linear(4),
            TranspileOptions::new().router(router).seed(1),
        )
        .with_pool(ThreadPool::new(2));
        let result = session.transpile(&qc).expect("transpile");
        assert!(nassc::passes::is_mapped(
            &result.circuit,
            session.device().coupling()
        ));
        assert!(result.circuit.iter().all(|i| i.gate.in_ibm_basis()));
        assert!(result.cx_count() > 0);
        assert!(result.depth() > 0);
        // The session-cache surface: per-request and cumulative counters.
        assert_eq!(result.cache.misses(), 3);
        let batch = session.transpile_jobs(&[SessionJob::new(&qc)]);
        assert_eq!(batch[0].as_ref().expect("batch").cache.hits(), 3);
        assert_eq!(
            session.cache_stats().misses(),
            CacheStats::default().misses() + 3
        );
        // Pool observability is part of the surface; helpers run only
        // during a batch, so only the cap is a safe invariant to pin.
        assert!(nassc::worker_pool_status().workers <= nassc::parallel::MAX_POOL_WORKERS);
    }
    // The pre-routing baseline stays callable on its own.
    let optimized = nassc::optimize_without_routing(&qc).expect("optimize");
    assert!(optimized.cx_count() <= qc.cx_count());
}

#[test]
fn transpile_qasm_surfaces_the_unified_error() {
    let session = Transpiler::new(
        nassc::topology::CouplingMap::linear(2),
        TranspileOptions::new().seed(1),
    );
    let err = session
        .transpile_qasm("not qasm")
        .expect_err("parse failure");
    assert!(matches!(err, Error::Qasm(_)));
}

#[test]
fn router_kind_is_part_of_the_options_surface() {
    assert_eq!(TranspileOptions::sabre(3).router, RouterKind::Sabre);
    assert_eq!(TranspileOptions::nassc(3).router, RouterKind::Nassc);
    let flags = OptimizationFlags::default();
    assert_eq!(
        TranspileOptions::nassc(3).flags(flags).router,
        RouterKind::Nassc
    );
    // The builder spelling constructs the same options as the shorthands.
    assert_eq!(
        TranspileOptions::new().router(RouterKind::Sabre).seed(3),
        TranspileOptions::sabre(3)
    );
    assert_eq!(TranspileOptions::new().seed(3), TranspileOptions::nassc(3));
}

#[test]
fn sub_crate_namespaces_are_re_exported() {
    // One cheap touch per namespace keeps the re-export list honest.
    assert!(nassc::math::Matrix4::identity().approx_eq(&nassc::math::Matrix4::identity(), 1e-12));
    assert_eq!(nassc::topology::CouplingMap::linear(5).num_qubits(), 5);
    let qft = nassc::benchmarks::qft(3);
    assert_eq!(qft.num_qubits(), 3);
    assert!(qft.iter().count() > 0);
    assert!(nassc::synthesis::two_qubit_cnot_cost(&nassc::math::Matrix4::swap()).unwrap() >= 3);
    let calibration =
        nassc::topology::Calibration::synthetic(&nassc::topology::CouplingMap::linear(3), 7);
    let _noise = nassc::sim::NoiseModel::from_calibration(
        &nassc::topology::CouplingMap::linear(3),
        calibration,
    );
    let _config = nassc::sabre::SabreConfig::default();
    let _pipeline = nassc::passes::standard_optimization_pipeline();
}

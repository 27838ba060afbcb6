//! The [`Transpiler`] session determinism contract: a warm session (every
//! cache populated) returns results bit-identical to a cold one, for both
//! routers, at every worker budget and for single requests and batches alike
//! — only `elapsed` and `cache` may differ. Plus the cache-counter
//! arithmetic the contract's observability rests on.

use nassc::circuit::QuantumCircuit;
use nassc::{
    CacheStats, Error, RouterKind, SessionJob, ThreadPool, TranspileOptions, TranspileResult,
    Transpiler,
};
use nassc_topology::{CouplingMap, Layout};

fn sample_circuit() -> QuantumCircuit {
    let mut qc = QuantumCircuit::new(6);
    qc.h(0);
    for i in 0..5 {
        qc.cx(i, i + 1);
    }
    qc.cx(0, 5).cx(1, 4).cx(2, 5).cx(0, 3);
    qc
}

fn options_for(router: RouterKind, trials: usize) -> TranspileOptions {
    TranspileOptions::new()
        .router(router)
        .seed(7)
        .layout_trials(trials)
}

/// Everything two equal transpiles must share (`elapsed` and `cache` are
/// legitimately run-dependent).
fn assert_same_result(left: &TranspileResult, right: &TranspileResult, context: &str) {
    assert_eq!(left.circuit, right.circuit, "{context}: circuit");
    assert_eq!(
        left.initial_layout, right.initial_layout,
        "{context}: initial layout"
    );
    assert_eq!(
        left.final_layout, right.final_layout,
        "{context}: final layout"
    );
    assert_eq!(left.swap_count, right.swap_count, "{context}: swap count");
    assert_eq!(
        left.chosen_layout_trial, right.chosen_layout_trial,
        "{context}: chosen trial"
    );
    assert_eq!(
        left.layout_trial_costs, right.layout_trial_costs,
        "{context}: trial costs"
    );
}

#[test]
fn warm_sessions_match_a_one_worker_cold_session() {
    let circuit = sample_circuit();
    let device = CouplingMap::grid(2, 3);
    for router in [RouterKind::Sabre, RouterKind::Nassc] {
        for trials in [1, 3] {
            let options = options_for(router, trials);
            let reference = Transpiler::new(device.clone(), options.clone())
                .with_pool(ThreadPool::new(1))
                .transpile(&circuit)
                .expect("reference");
            for workers in [1, 8] {
                let session = Transpiler::new(device.clone(), options.clone())
                    .with_pool(ThreadPool::new(workers));
                let cold = session.transpile(&circuit).expect("cold");
                let warm = session.transpile(&circuit).expect("warm");
                let context = format!("{router:?} trials={trials} workers={workers}");
                assert_same_result(&cold, &reference, &format!("cold vs reference, {context}"));
                assert_same_result(&warm, &reference, &format!("warm vs reference, {context}"));
                // The second request was served entirely from the caches.
                assert_eq!(warm.cache.hits(), 3, "{context}: warm hits");
                assert_eq!(warm.cache.misses(), 0, "{context}: warm misses");
            }
        }
    }

    // Without two-qubit gates there is nothing to lay out: every router and
    // trial count keeps the identity layout and inserts no SWAP, cold or warm.
    let mut local = QuantumCircuit::new(4);
    local.h(0).x(1).h(3).measure(0).measure(3);
    for router in [RouterKind::Sabre, RouterKind::Nassc] {
        for trials in [1, 4] {
            let session = Transpiler::new(device.clone(), options_for(router, trials));
            let cold = session.transpile(&local).expect("cold");
            let warm = session.transpile(&local).expect("warm");
            let context = format!("single-qubit circuit, {router:?} trials={trials}");
            assert_eq!(cold.initial_layout, Layout::trivial(6), "{context}");
            assert_eq!(cold.swap_count, 0, "{context}");
            assert!(cold.layout_trial_costs.is_empty(), "{context}");
            assert_same_result(&warm, &cold, &format!("warm vs cold, {context}"));
        }
    }
}

#[test]
fn batch_through_a_warm_session_matches_its_serial_replay() {
    let circuit = sample_circuit();
    let device = CouplingMap::linear(6);
    let jobs: Vec<TranspileOptions> = (0..3)
        .flat_map(|seed| {
            [
                options_for(RouterKind::Sabre, 1).seed(seed),
                options_for(RouterKind::Nassc, 2).seed(seed),
            ]
        })
        .collect();

    // Serial 1-worker reference, one request at a time on a fresh session.
    let reference = Transpiler::new(device.clone(), options_for(RouterKind::Nassc, 1))
        .with_pool(ThreadPool::new(1));
    let expected: Vec<TranspileResult> = jobs
        .iter()
        .map(|options| {
            reference
                .transpile_with(&circuit, options)
                .expect("reference")
        })
        .collect();

    for workers in [1, 8] {
        let session = Transpiler::new(device.clone(), options_for(RouterKind::Nassc, 1))
            .with_pool(ThreadPool::new(workers));
        let batch: Vec<SessionJob<'_>> = jobs
            .iter()
            .map(|options| SessionJob::with_options(&circuit, options.clone()))
            .collect();
        // Twice through the same session: cold fan-out, then fully warm.
        for temperature in ["cold", "warm"] {
            let results = session.transpile_jobs(&batch);
            assert_eq!(results.len(), expected.len());
            for (index, (result, expected)) in results.iter().zip(&expected).enumerate() {
                let result = result.as_ref().expect("batch transpile");
                let context = format!("workers={workers} {temperature} job {index}");
                assert_same_result(result, expected, &context);
            }
        }
    }
}

#[test]
fn cache_counters_track_hits_and_misses_request_by_request() {
    let circuit = sample_circuit();
    let mut other = sample_circuit();
    other.cx(3, 4); // structurally distinct: its own prepared/layout entries
    let session = Transpiler::new(CouplingMap::linear(6), options_for(RouterKind::Nassc, 1));

    let first = session.transpile(&circuit).expect("first");
    assert_eq!(
        first.cache,
        CacheStats {
            distance_misses: 1,
            prepared_misses: 1,
            layout_misses: 1,
            ..CacheStats::default()
        }
    );

    // Same circuit, same options: every cache hits.
    let second = session.transpile(&circuit).expect("second");
    assert_eq!(
        second.cache,
        CacheStats {
            distance_hits: 1,
            prepared_hits: 1,
            layout_hits: 1,
            ..CacheStats::default()
        }
    );

    // Same circuit, different seed: the layout winner no longer applies,
    // but distances and the prepared baseline still hit.
    let reseeded = session
        .transpile_with(&circuit, &options_for(RouterKind::Nassc, 1).seed(99))
        .expect("reseeded");
    assert_eq!(
        reseeded.cache,
        CacheStats {
            distance_hits: 1,
            prepared_hits: 1,
            layout_misses: 1,
            ..CacheStats::default()
        }
    );

    // A structurally different circuit misses everything but distances.
    let distinct = session.transpile(&other).expect("distinct");
    assert_eq!(
        distinct.cache,
        CacheStats {
            distance_hits: 1,
            prepared_misses: 1,
            layout_misses: 1,
            ..CacheStats::default()
        }
    );

    // Session totals are the sum of the per-request counters.
    let mut expected_total = CacheStats::default();
    for stats in [
        &first.cache,
        &second.cache,
        &reseeded.cache,
        &distinct.cache,
    ] {
        expected_total.accumulate(stats);
    }
    assert_eq!(session.cache_stats(), expected_total);
}

#[test]
fn duplicate_cold_jobs_in_one_batch_stay_deterministic() {
    // Two identical jobs in one cold batch: resolution is serial, so both
    // miss the layout cache (the winner is only committed after the batch),
    // but they must still return identical results and the second request
    // after the batch must hit.
    let circuit = sample_circuit();
    let session = Transpiler::new(CouplingMap::linear(6), options_for(RouterKind::Nassc, 1));
    let jobs = [SessionJob::new(&circuit), SessionJob::new(&circuit)];
    let results = session.transpile_jobs(&jobs);
    let first = results[0].as_ref().expect("first");
    let second = results[1].as_ref().expect("second");
    assert_same_result(first, second, "duplicate cold jobs");
    assert_eq!(first.cache.layout_misses, 1);
    assert_eq!(second.cache.layout_misses, 1);
    assert_eq!(
        second.cache.prepared_hits, 1,
        "prepared cache fills in-batch"
    );

    let after = session.transpile(&circuit).expect("after");
    assert_same_result(first, &after, "post-batch request");
    assert_eq!(after.cache.hits(), 3);
}

#[test]
fn transpile_qasm_folds_both_failure_domains_into_one_error() {
    let session = Transpiler::new(CouplingMap::linear(3), TranspileOptions::new().seed(1));
    let result = session
        .transpile_qasm(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncx q[0], q[2];\ncx q[0], q[1];\n",
        )
        .expect("valid program");
    assert!(result.cx_count() >= 2);

    let err = session
        .transpile_qasm("OPENQASM 2.0;\nqreg q[;\n")
        .expect_err("syntax error");
    assert!(matches!(err, Error::Qasm(_)));
    assert!(err.to_string().to_lowercase().contains("qasm") || !err.to_string().is_empty());
}

//! The batch engine's determinism contract: a session batch
//! (`Transpiler::transpile_jobs`) must equal the corresponding serial cold
//! transpiles gate-for-gate, layout-for-layout, at every worker count.

use nassc::parallel::ThreadPool;
use nassc::{SessionJob, TranspileOptions, TranspileResult, Transpiler};
use nassc_benchmarks::quick_benchmarks;
use nassc_topology::{Calibration, CouplingMap};

/// Asserts everything but the wall-clock and cache counters matches between
/// two results.
fn assert_identical(serial: &TranspileResult, batched: &TranspileResult, context: &str) {
    assert_eq!(serial.swap_count, batched.swap_count, "{context}: swaps");
    assert_eq!(
        serial.initial_layout, batched.initial_layout,
        "{context}: initial layout"
    );
    assert_eq!(
        serial.final_layout, batched.final_layout,
        "{context}: final layout"
    );
    // Gate-for-gate: same instruction sequence, not just equal counts.
    assert_eq!(serial.circuit, batched.circuit, "{context}: circuit");
}

#[test]
fn batch_over_eight_seeds_matches_serial_transpile_gate_for_gate() {
    let device = CouplingMap::ibmq_montreal();
    let bench = &quick_benchmarks()[0]; // Grover_4-qubits
    let jobs: Vec<SessionJob<'_>> = (0..8)
        .map(|seed| {
            let options = if seed % 2 == 0 {
                TranspileOptions::nassc(seed)
            } else {
                TranspileOptions::sabre(seed)
            };
            SessionJob::with_options(&bench.circuit, options)
        })
        .collect();

    let batched = Transpiler::new(device.clone(), TranspileOptions::new()).transpile_jobs(&jobs);
    assert_eq!(batched.len(), 8);
    for (seed, (job, batched)) in jobs.iter().zip(&batched).enumerate() {
        let options = job.options.clone().expect("per-job options");
        let serial = Transpiler::new(device.clone(), options)
            .transpile(job.circuit)
            .expect("serial transpile");
        let batched = batched.as_ref().expect("batched transpile");
        assert_identical(&serial, batched, &format!("seed {seed}"));
    }
}

#[test]
fn worker_count_never_changes_results() {
    let device = CouplingMap::linear(25);
    let cal = Calibration::synthetic(&device, 3);
    let bench = &quick_benchmarks()[0];
    let jobs: Vec<SessionJob<'_>> = (0..4)
        .flat_map(|seed| {
            [
                TranspileOptions::nassc(seed),
                TranspileOptions::sabre(seed).calibration(cal.clone()),
            ]
        })
        .map(|options| SessionJob::with_options(&bench.circuit, options))
        .collect();
    let batch_on = |workers| {
        Transpiler::new(device.clone(), TranspileOptions::new())
            .with_pool(ThreadPool::new(workers))
            .transpile_jobs(&jobs)
    };

    let single = batch_on(1);
    for workers in [2, 3, 8] {
        let multi = batch_on(workers);
        for (index, (s, m)) in single.iter().zip(&multi).enumerate() {
            assert_identical(
                s.as_ref().expect("serial"),
                m.as_ref().expect("parallel"),
                &format!("{workers} workers, job {index}"),
            );
        }
    }
}

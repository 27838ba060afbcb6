//! The layout-trials determinism contract: transpile output is bit-identical
//! at every worker budget ({1, 2, 8} workers) for both the single-trial
//! compatibility mode and multi-trial selection, and trial selection is
//! reproducible with deterministic lowest-index tie-breaking.

use nassc::circuit::{DagCircuit, QuantumCircuit};
use nassc::parallel::ThreadPool;
use nassc::sabre::{route_prepared, SabreConfig, SabrePolicy};
use nassc::{
    NasscPolicy, OptimizationFlags, RouterKind, SessionJob, TranspileOptions, TranspileResult,
    Transpiler,
};
use nassc_topology::{CouplingMap, Layout};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
    let base = match router {
        RouterKind::Sabre => TranspileOptions::sabre(7),
        RouterKind::Nassc => TranspileOptions::nassc(7),
    };
    base.layout_trials(trials)
}

/// Everything except wall-clock must match, gate for gate.
fn assert_identical(reference: &TranspileResult, other: &TranspileResult, context: &str) {
    assert_eq!(
        reference.initial_layout, other.initial_layout,
        "{context}: initial layout"
    );
    assert_eq!(
        reference.final_layout, other.final_layout,
        "{context}: final layout"
    );
    assert_eq!(
        reference.swap_count, other.swap_count,
        "{context}: swap count"
    );
    assert_eq!(
        reference.chosen_layout_trial, other.chosen_layout_trial,
        "{context}: chosen trial"
    );
    assert_eq!(
        reference.layout_trial_costs, other.layout_trial_costs,
        "{context}: trial costs"
    );
    for (i, (a, b)) in reference
        .circuit
        .iter()
        .zip(other.circuit.iter())
        .enumerate()
    {
        assert_eq!(a, b, "{context}: instruction {i}");
    }
    assert_eq!(reference.circuit, other.circuit, "{context}: circuit");
}

/// A cold transpile on a fresh session with a `workers`-wide budget.
fn transpile_on(
    workers: usize,
    device: &CouplingMap,
    circuit: &QuantumCircuit,
    options: TranspileOptions,
) -> TranspileResult {
    Transpiler::new(device.clone(), options)
        .with_pool(ThreadPool::new(workers))
        .transpile(circuit)
        .unwrap()
}

/// The headline contract: {1, 2, 8} workers × trial counts {1, 4} × both
/// routers, all bit-identical to the single-worker run.
#[test]
fn transpile_is_bit_identical_across_thread_and_trial_counts() {
    let device = CouplingMap::ibmq_montreal();
    let circuit = sample_circuit();
    for router in [RouterKind::Sabre, RouterKind::Nassc] {
        for trials in [1usize, 4] {
            let mut reference: Option<TranspileResult> = None;
            for workers in [1, 2, 8] {
                let result = transpile_on(workers, &device, &circuit, options_for(router, trials));
                let expected_costs = if trials == 1 { 0 } else { trials };
                assert_eq!(result.layout_trial_costs.len(), expected_costs);
                match &reference {
                    None => reference = Some(result),
                    Some(reference) => assert_identical(
                        reference,
                        &result,
                        &format!("{router:?}, {trials} trials, {workers} workers"),
                    ),
                }
            }
        }
    }
}

/// A session batch splits its worker budget between jobs and trials;
/// whatever the split, multi-trial results match the serial run.
#[test]
fn batched_multi_trial_jobs_match_serial_pools() {
    let device = CouplingMap::grid(5, 5);
    let circuit = sample_circuit();
    let jobs: Vec<SessionJob> = (0..3)
        .flat_map(|seed| {
            [
                SessionJob::with_options(&circuit, TranspileOptions::sabre(seed).layout_trials(4)),
                SessionJob::with_options(&circuit, TranspileOptions::nassc(seed).layout_trials(4)),
            ]
        })
        .collect();
    let batch_on = |workers| {
        Transpiler::new(device.clone(), TranspileOptions::new())
            .with_pool(ThreadPool::new(workers))
            .transpile_jobs(&jobs)
    };
    let serial = batch_on(1);
    for workers in [2, 3, 8] {
        let parallel = batch_on(workers);
        for (index, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_identical(
                s.as_ref().expect("serial"),
                p.as_ref().expect("parallel"),
                &format!("{workers} workers, job {index}"),
            );
        }
    }
}

/// In-pass parallel SWAP scoring: a single routing pass driven through an
/// explicit score pool is bit-identical to the serial pass, for both the
/// SABRE and the NASSC policy, at every worker count. (The worker sweep
/// above exercises the same machinery through the pipeline's budget split;
/// this pins the router-level contract directly.)
#[test]
fn in_pass_parallel_scoring_is_bit_identical() {
    let device = CouplingMap::ibmq_montreal();
    let distances = device.distance_matrix();
    let dag = DagCircuit::from_circuit(&sample_circuit());
    let layout = Layout::trivial(device.num_qubits());
    let config = SabreConfig { seed: 3 };

    let sabre_route = |threads: usize| {
        route_prepared(
            &dag,
            &device,
            &distances,
            &layout,
            &config,
            &mut SabrePolicy,
            &mut StdRng::seed_from_u64(3),
            &ThreadPool::new(threads),
        )
    };
    let nassc_route = |threads: usize| {
        route_prepared(
            &dag,
            &device,
            &distances,
            &layout,
            &config,
            &mut NasscPolicy::new(OptimizationFlags::all()),
            &mut StdRng::seed_from_u64(3),
            &ThreadPool::new(threads),
        )
    };
    let (sabre_serial, nassc_serial) = (sabre_route(1), nassc_route(1));
    assert!(nassc_serial.swap_count > 0, "inner loop never exercised");
    for threads in [2, 8] {
        let sabre = sabre_route(threads);
        assert_eq!(
            sabre_serial.circuit, sabre.circuit,
            "sabre, {threads} workers"
        );
        assert_eq!(sabre_serial.final_layout, sabre.final_layout);
        let nassc = nassc_route(threads);
        assert_eq!(
            nassc_serial.circuit, nassc.circuit,
            "nassc, {threads} workers"
        );
        assert_eq!(nassc_serial.final_layout, nassc.final_layout);
        assert_eq!(nassc_serial.swap_count, nassc.swap_count);
    }
}

/// Trial selection picks the first trial achieving the minimum cost, and the
/// reported diagnostics are internally consistent.
#[test]
fn chosen_trial_is_the_first_cost_minimum() {
    let device = CouplingMap::ibmq_montreal();
    let circuit = sample_circuit();
    for seed in 0..4 {
        let options = TranspileOptions::nassc(seed).layout_trials(6);
        let result = transpile_on(2, &device, &circuit, options);
        assert_eq!(result.layout_trial_costs.len(), 6);
        let best = result.layout_trial_costs[result.chosen_layout_trial];
        let first_min = result
            .layout_trial_costs
            .iter()
            .position(|&c| c == best)
            .unwrap();
        assert_eq!(
            result.chosen_layout_trial, first_min,
            "seed {seed}: tie must break to the lowest trial index"
        );
        assert!(result.layout_trial_costs.iter().all(|&c| c >= best));
    }
}

//! The layout-trials determinism contract: transpile output is bit-identical
//! at every worker budget ({1, 2, 8} workers) for both the single-trial
//! search and multi-trial selection, trial selection is reproducible with
//! deterministic lowest-index tie-breaking, and the single-trial search is
//! the one a caller recomposes from the public stage functions.

use std::path::PathBuf;

use nassc::circuit::{DagCircuit, QuantumCircuit};
use nassc::parallel::ThreadPool;
use nassc::passes::standard_optimization_pipeline;
use nassc::sabre::{route_prepared, sabre_layout_prepared, SabreConfig, SabrePolicy, SwapPolicy};
use nassc::synthesis::expand_swaps;
use nassc::{
    optimize_without_routing, NasscPolicy, RouterKind, SessionJob, TranspileOptions,
    TranspileResult, Transpiler,
};
use nassc_topology::{CouplingMap, DistanceMatrix, Layout};
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

/// A session batch maps its jobs, and each job its layout trials, over one
/// pool; at every worker count, multi-trial results match the serial run.
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

/// The single-trial pipeline recomposed stage by stage from public
/// functions, as a benchmark that times each stage does it.
fn recomposed<P: SwapPolicy>(
    circuit: &QuantumCircuit,
    device: &CouplingMap,
    distances: &DistanceMatrix,
    config: &SabreConfig,
    mut policy: P,
) -> TranspileResult {
    let pool = ThreadPool::new(1);
    let prepared = optimize_without_routing(circuit).expect("prepare");
    let dag = DagCircuit::from_circuit(&prepared);
    let reversed = DagCircuit::from_circuit(&prepared.reversed());
    let layout = if prepared.two_qubit_gate_count() == 0 {
        Layout::trivial(device.num_qubits())
    } else {
        sabre_layout_prepared(&dag, &reversed, device, distances, config, &pool)
    };
    let mut rng = StdRng::seed_from_u64(config.seed);
    let routed = route_prepared(
        &dag,
        device,
        distances,
        &layout,
        config,
        &mut policy,
        &mut rng,
        &pool,
    );
    let optimized = standard_optimization_pipeline()
        .run(&expand_swaps(&routed.circuit))
        .expect("post-optimize");
    TranspileResult {
        circuit: optimized,
        initial_layout: routed.initial_layout,
        final_layout: routed.final_layout,
        swap_count: routed.swap_count,
        chosen_layout_trial: 0,
        layout_trial_costs: Vec::new(),
        cache: Default::default(),
        elapsed: Default::default(),
    }
}

/// `layout_trials = 1` is the search `sabre_layout_prepared` runs, followed
/// by one route on a fresh policy and an RNG seeded from the seed: a
/// stage-by-stage recomposition reproduces every corpus output.
#[test]
fn single_trial_sessions_match_the_recomposed_stages() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("benchmarks/qasm");
    let corpus = nassc::qasm::load_corpus(&dir).expect("corpus directory must be readable");
    assert!(!corpus.is_empty(), "the committed corpus is empty");
    let device = CouplingMap::ibmq_montreal();
    let distances = device.distance_matrix();
    for router in [RouterKind::Sabre, RouterKind::Nassc] {
        let options = options_for(router, 1);
        let session = Transpiler::new(device.clone(), options.clone());
        for file in &corpus {
            let (name, circuit) = (&file.name, file.circuit.as_ref().expect("corpus parses"));
            let result = session.transpile(circuit).expect("session transpile");
            let expected = match router {
                RouterKind::Sabre => {
                    recomposed(circuit, &device, &distances, &options.config, SabrePolicy)
                }
                RouterKind::Nassc => recomposed(
                    circuit,
                    &device,
                    &distances,
                    &options.config,
                    NasscPolicy::new(options.flags),
                ),
            };
            assert_identical(&expected, &result, &format!("{router:?}, {name}"));
        }
    }
}

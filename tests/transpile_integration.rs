//! Cross-crate integration tests: full transpile pipelines preserve circuit
//! semantics, respect the coupling map, and NASSC never loses to SABRE on
//! CNOT overhead by more than seed noise.

use nassc::{
    optimize_without_routing, OptimizationFlags, TranspileOptions, TranspileResult, Transpiler,
};
use nassc_benchmarks::{adder, bernstein_vazirani, grover, qft, qpe, vqe};
use nassc_circuit::{circuit_unitary, QuantumCircuit};
use nassc_passes::is_mapped;
use nassc_topology::CouplingMap;

/// A cold transpile on a fresh session.
fn transpile(
    circuit: &QuantumCircuit,
    device: &CouplingMap,
    options: &TranspileOptions,
) -> Result<TranspileResult, nassc::Error> {
    Transpiler::new(device.clone(), options.clone()).transpile(circuit)
}

/// Checks that a routed+optimized physical circuit implements the same
/// statistics as the logical circuit: because the final layout permutes the
/// wires, we compare the *sorted multiset* of output-distribution
/// probabilities, which is permutation-invariant and catches real
/// miscompilations.
fn assert_same_output_distribution(logical: &QuantumCircuit, physical: &QuantumCircuit) {
    let strip = |qc: &QuantumCircuit| {
        let mut out = QuantumCircuit::new(qc.num_qubits());
        for inst in qc.iter() {
            if inst.gate.is_unitary() {
                out.push(inst.clone());
            }
        }
        out
    };
    let compact = |qc: &QuantumCircuit| {
        let active = qc.active_qubits();
        let stripped = strip(qc);
        stripped.map_qubits(active.len(), |q| active.binary_search(&q).expect("active"))
    };
    let logical_c = compact(logical);
    let physical_c = compact(physical);
    assert!(physical_c.num_qubits() >= logical_c.num_qubits());

    let probabilities = |qc: &QuantumCircuit| {
        let u = circuit_unitary(qc);
        let mut probs: Vec<f64> = (0..u.dim()).map(|row| u.get(row, 0).norm_sqr()).collect();
        probs.retain(|p| *p > 1e-9);
        probs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        probs
    };
    let expected = probabilities(&logical_c);
    let actual = probabilities(&physical_c);
    assert_eq!(
        expected.len(),
        actual.len(),
        "different number of output branches"
    );
    for (e, a) in expected.iter().zip(actual.iter()) {
        assert!((e - a).abs() < 1e-6, "probability mismatch: {e} vs {a}");
    }
}

#[test]
fn sabre_and_nassc_preserve_semantics_on_small_benchmarks() {
    let device = CouplingMap::linear(6);
    let mut qc = QuantumCircuit::new(4);
    qc.h(0).cx(0, 2).t(2).cx(1, 3).cx(0, 3).h(3).cx(2, 3);
    for options in [TranspileOptions::sabre(5), TranspileOptions::nassc(5)] {
        let result = transpile(&qc, &device, &options).unwrap();
        assert!(is_mapped(&result.circuit, &device));
        assert_same_output_distribution(&qc, &result.circuit);
    }
}

#[test]
fn grover_routes_correctly_on_montreal() {
    let device = CouplingMap::ibmq_montreal();
    let circuit = grover(4);
    let result = transpile(&circuit, &device, &TranspileOptions::nassc(1)).unwrap();
    assert!(is_mapped(&result.circuit, &device));
    assert!(result.circuit.iter().all(|i| i.gate.in_ibm_basis()));
    assert_same_output_distribution(&circuit, &result.circuit);
}

#[test]
fn bv_routes_correctly_on_grid() {
    let device = CouplingMap::grid(3, 3);
    let circuit = bernstein_vazirani(6);
    for options in [TranspileOptions::sabre(2), TranspileOptions::nassc(2)] {
        let result = transpile(&circuit, &device, &options).unwrap();
        assert!(is_mapped(&result.circuit, &device));
        assert_same_output_distribution(&circuit, &result.circuit);
    }
}

#[test]
fn qft_and_qpe_route_on_linear_topology() {
    let device = CouplingMap::linear(8);
    for circuit in [qft(5), qpe(5)] {
        let result = transpile(&circuit, &device, &TranspileOptions::nassc(3)).unwrap();
        assert!(is_mapped(&result.circuit, &device));
        assert_same_output_distribution(&circuit, &result.circuit);
    }
}

#[test]
fn adder_roundtrips_through_the_pipeline() {
    let device = CouplingMap::grid(3, 4);
    let circuit = adder(6);
    let result = transpile(&circuit, &device, &TranspileOptions::nassc(4)).unwrap();
    assert!(is_mapped(&result.circuit, &device));
    assert_same_output_distribution(&circuit, &result.circuit);
}

#[test]
fn nassc_beats_or_matches_sabre_on_average_across_benchmarks() {
    let device = CouplingMap::linear(25);
    let circuits = vec![grover(4), vqe(6, 2, 1), qft(8), bernstein_vazirani(10)];
    let runs = 3;
    let mut sabre_total = 0usize;
    let mut nassc_total = 0usize;
    for circuit in &circuits {
        for seed in 0..runs {
            sabre_total += transpile(circuit, &device, &TranspileOptions::sabre(seed))
                .unwrap()
                .cx_count();
            nassc_total += transpile(circuit, &device, &TranspileOptions::nassc(seed))
                .unwrap()
                .cx_count();
        }
    }
    assert!(
        nassc_total <= sabre_total,
        "NASSC total {nassc_total} CNOTs exceeds SABRE total {sabre_total}"
    );
}

#[test]
fn all_optimization_flag_combinations_produce_valid_circuits() {
    let device = CouplingMap::linear(6);
    let circuit = vqe(5, 2, 3);
    for flags in OptimizationFlags::all_combinations() {
        let options = TranspileOptions::nassc(9).flags(flags);
        let result = transpile(&circuit, &device, &options).unwrap();
        assert!(
            is_mapped(&result.circuit, &device),
            "flags {}",
            flags.label()
        );
    }
}

#[test]
fn routing_overhead_is_zero_on_fully_connected_devices() {
    let device = CouplingMap::fully_connected(8);
    let circuit = vqe(8, 2, 4);
    let baseline = optimize_without_routing(&circuit).unwrap();
    let result = transpile(&circuit, &device, &TranspileOptions::nassc(6)).unwrap();
    assert_eq!(result.swap_count, 0);
    assert_eq!(result.cx_count(), baseline.cx_count());
}

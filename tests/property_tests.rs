//! Property-based tests over the whole stack: random circuits stay
//! semantically equivalent through synthesis, optimization and routing, and
//! structural invariants (coupling compliance, CNOT-cost bounds) always hold.

use proptest::prelude::*;

use nassc::{TranspileOptions, Transpiler};
use nassc_circuit::{circuits_equivalent, DagCircuit, Gate, QuantumCircuit};
use nassc_math::Matrix4;
use nassc_passes::{is_mapped, standard_optimization_pipeline};
use nassc_synthesis::{interaction_circuit, synthesize_two_qubit, WeylDecomposition};
use nassc_topology::CouplingMap;

/// A random gate on up to `width` qubits, encoded from simple proptest
/// primitives so shrinking stays meaningful.
fn random_circuit(width: usize, ops: Vec<(u8, usize, usize, f64)>) -> QuantumCircuit {
    let mut qc = QuantumCircuit::new(width);
    for (kind, a, b, angle) in ops {
        let a = a % width;
        let b = b % width;
        match kind % 6 {
            0 => {
                qc.h(a);
            }
            1 => {
                qc.rz(angle, a);
            }
            2 => {
                qc.t(a);
            }
            3 => {
                qc.x(a);
            }
            _ => {
                if a != b {
                    qc.cx(a, b);
                }
            }
        }
    }
    qc
}

/// A random 6-qubit circuit of `h`, `cx`, `ccx`, measurements and
/// full-width barriers (whose 6-qubit list spills out of the inline
/// `QubitList` storage).
fn random_dag_circuit(ops: Vec<(u8, usize, usize, usize)>) -> QuantumCircuit {
    let mut qc = QuantumCircuit::new(6);
    for (kind, a, b, c) in ops {
        match kind % 8 {
            0 | 1 => {
                qc.h(a);
            }
            2 | 3 => {
                if a != b {
                    qc.cx(a, b);
                }
            }
            4 | 5 => {
                if a != b && b != c && a != c {
                    qc.ccx(a, b, c);
                }
            }
            6 => {
                qc.measure(a);
            }
            _ => {
                qc.barrier_all();
            }
        }
    }
    qc
}

/// The dependency DAG the naive way: each gate depends on the last earlier
/// gate on each of its wires, found by scanning backwards. Returns every
/// node's successors (ascending) and in-degree.
fn reference_dag(circuit: &QuantumCircuit) -> (Vec<Vec<usize>>, Vec<usize>) {
    let gates = circuit.instructions();
    let mut successors = vec![Vec::new(); gates.len()];
    let mut in_degrees = vec![0; gates.len()];
    for (node, gate) in gates.iter().enumerate() {
        let mut preds = Vec::new();
        for q in gate.qubits().iter() {
            if let Some(pred) = (0..node).rev().find(|&i| gates[i].acts_on(q)) {
                if !preds.contains(&pred) {
                    preds.push(pred);
                }
            }
        }
        in_degrees[node] = preds.len();
        for pred in preds {
            successors[pred].push(node);
        }
    }
    (successors, in_degrees)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dag_edges_match_a_backwards_wire_scan(
        ops in proptest::collection::vec((any::<u8>(), 0usize..6, 0usize..6, 0usize..6), 0..40),
    ) {
        let circuit = random_dag_circuit(ops);
        let dag = DagCircuit::from_circuit(&circuit);
        let (successors, in_degrees) = reference_dag(&circuit);
        prop_assert_eq!(dag.num_nodes(), circuit.num_gates());
        for (node, expected) in successors.iter().enumerate() {
            prop_assert_eq!(dag.node(node).successors(), &expected[..], "node {}", node);
        }
        let front: Vec<usize> = (0..in_degrees.len()).filter(|&n| in_degrees[n] == 0).collect();
        prop_assert_eq!(dag.in_degrees(), in_degrees);
        prop_assert_eq!(dag.front_layer(), front);
    }

    #[test]
    fn weyl_decomposition_reconstructs_random_interactions(
        a in -1.5f64..1.5, b in -1.5f64..1.5, c in -1.5f64..1.5,
        t1 in 0.0f64..3.0, t2 in -3.0f64..3.0,
    ) {
        // Build a two-qubit unitary from locals and an interaction.
        let local = Gate::U(t1, t2, 0.4).matrix2().unwrap().kron(&Gate::Ry(t2).matrix2().unwrap());
        let interaction = nassc_synthesis::interaction_matrix(a, b, c);
        let target = local.mul(&interaction);
        let d = WeylDecomposition::new(&target).unwrap();
        prop_assert!(d.reconstruct().approx_eq(&target, 1e-6));
        prop_assert!(d.cnot_cost() <= 3);
    }

    #[test]
    fn two_qubit_synthesis_is_exact_and_bounded(
        a in -1.5f64..1.5, b in -1.5f64..1.5, c in -1.5f64..1.5,
    ) {
        let target = nassc_synthesis::interaction_matrix(a, b, c).mul(&Matrix4::cnot());
        let circuit = synthesize_two_qubit(&target, 0, 1).unwrap();
        let cx = circuit.iter().filter(|i| i.gate == Gate::Cx).count();
        prop_assert!(cx <= 3);
        let mut qc = QuantumCircuit::new(2);
        for inst in circuit {
            qc.push(inst);
        }
        let mut reference = QuantumCircuit::new(2);
        reference.append(Gate::Unitary2(Box::new(target)), vec![0, 1]);
        prop_assert!(circuits_equivalent(&qc, &reference, 1e-6));
    }

    #[test]
    fn interaction_circuits_match_their_matrices(
        a in -1.5f64..1.5, b in -1.5f64..1.5, c in -1.5f64..1.5,
    ) {
        let circuit = interaction_circuit(a, b, c, 0, 1);
        let mut qc = QuantumCircuit::new(2);
        for inst in circuit {
            qc.push(inst);
        }
        let mut reference = QuantumCircuit::new(2);
        reference.append(
            Gate::Unitary2(Box::new(nassc_synthesis::interaction_matrix(a, b, c))),
            vec![0, 1],
        );
        prop_assert!(circuits_equivalent(&qc, &reference, 1e-6));
    }

    #[test]
    fn optimization_pipeline_preserves_random_circuit_semantics(
        ops in proptest::collection::vec((any::<u8>(), 0usize..4, 0usize..4, -3.0f64..3.0), 5..30),
    ) {
        let circuit = random_circuit(4, ops);
        let optimized = standard_optimization_pipeline().run(&circuit).unwrap();
        prop_assert!(circuits_equivalent(&circuit, &optimized, 1e-6));
        prop_assert!(optimized.cx_count() <= circuit.cx_count());
    }

    #[test]
    fn routed_circuits_always_respect_the_coupling_map(
        ops in proptest::collection::vec((any::<u8>(), 0usize..5, 0usize..5, -3.0f64..3.0), 5..25),
        seed in 0u64..50,
    ) {
        let circuit = random_circuit(5, ops);
        let device = CouplingMap::linear(6);
        for options in [TranspileOptions::sabre(seed), TranspileOptions::nassc(seed)] {
            let result = Transpiler::new(device.clone(), options).transpile(&circuit).unwrap();
            prop_assert!(is_mapped(&result.circuit, &device));
            prop_assert!(result.circuit.iter().all(|i| i.gate.in_ibm_basis()));
        }
    }

    #[test]
    fn distance_matrices_are_metrics(rows in 2usize..5, cols in 2usize..5) {
        let map = CouplingMap::grid(rows, cols);
        let d = map.distance_matrix();
        let n = map.num_qubits();
        for i in 0..n {
            prop_assert_eq!(d.weight(i, i), 0.0);
            for j in 0..n {
                prop_assert_eq!(d.weight(i, j), d.weight(j, i));
                for k in 0..n {
                    prop_assert!(d.weight(i, j) <= d.weight(i, k) + d.weight(k, j));
                }
            }
        }
    }
}

//! Coupling-map compliance checking.

use nassc_circuit::QuantumCircuit;
use nassc_topology::CouplingMap;

/// Checks that every two-qubit gate acts on a connected pair of physical
/// qubits, returning the indices of violating instructions.
pub fn coupling_violations(circuit: &QuantumCircuit, coupling: &CouplingMap) -> Vec<usize> {
    circuit
        .iter()
        .enumerate()
        .filter(|(_, inst)| {
            inst.is_two_qubit() && !coupling.are_connected(inst.qubit(0), inst.qubit(1))
        })
        .map(|(idx, _)| idx)
        .collect()
}

/// Convenience: `true` when the circuit respects the coupling map.
pub fn is_mapped(circuit: &QuantumCircuit, coupling: &CouplingMap) -> bool {
    coupling_violations(circuit, coupling).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violations_found_on_linear_device() {
        let line = CouplingMap::linear(4);
        let mut qc = QuantumCircuit::new(4);
        qc.cx(0, 1).cx(0, 3).cx(2, 3);
        assert_eq!(coupling_violations(&qc, &line), vec![1]);
        assert!(!is_mapped(&qc, &line));
    }

    #[test]
    fn compliant_circuit_passes() {
        let line = CouplingMap::linear(4);
        let mut qc = QuantumCircuit::new(4);
        qc.cx(0, 1).cx(2, 1).h(3).measure(3);
        assert!(is_mapped(&qc, &line));
    }
}

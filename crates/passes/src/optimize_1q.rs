//! Merging of single-qubit gate runs (Qiskit's `Optimize1qGates`).

use nassc_circuit::QuantumCircuit;
use nassc_math::Matrix2;
use nassc_synthesis::OneQubitEulerDecomposer;

use crate::manager::{PassError, TranspilePass};

/// Collapses every maximal run of consecutive single-qubit gates on a wire
/// into at most `rz·sx·rz·sx·rz`, dropping runs that multiply to the
/// identity.
///
/// # Example
///
/// ```
/// use nassc_circuit::QuantumCircuit;
/// use nassc_passes::{Optimize1qGates, PassManager};
///
/// let mut qc = QuantumCircuit::new(1);
/// qc.t(0).t(0).s(0).z(0); // multiplies to the identity (up to phase)
/// let mut pm = PassManager::new();
/// pm.push(Optimize1qGates::default());
/// assert_eq!(pm.run(&qc).unwrap().num_gates(), 0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Optimize1qGates;

impl TranspilePass for Optimize1qGates {
    fn name(&self) -> &str {
        "optimize-1q-gates"
    }

    fn run(&self, circuit: &QuantumCircuit) -> Result<QuantumCircuit, PassError> {
        let mut out = QuantumCircuit::new(circuit.num_qubits());
        // Pending single-qubit matrix accumulated per wire (in circuit order).
        let mut pending: Vec<Option<Matrix2>> = vec![None; circuit.num_qubits()];

        let flush = |out: &mut QuantumCircuit, pending: &mut Vec<Option<Matrix2>>, qubit: usize| {
            if let Some(m) = pending[qubit].take() {
                for inst in OneQubitEulerDecomposer::to_zsx(&m, qubit) {
                    out.push(inst);
                }
            }
        };

        for inst in circuit.iter() {
            let is_mergeable_1q = inst.gate.is_unitary() && inst.gate.num_qubits() == 1;
            if is_mergeable_1q {
                let m = inst.gate.matrix2().ok_or_else(|| {
                    PassError::new("optimize-1q-gates", "single-qubit gate without matrix")
                })?;
                let q = inst.qubit(0);
                let acc = pending[q].take().unwrap_or_else(Matrix2::identity);
                pending[q] = Some(m.mul(&acc));
            } else {
                for q in inst.qubits().iter() {
                    flush(&mut out, &mut pending, q);
                }
                out.push(inst.clone());
            }
        }
        for q in 0..circuit.num_qubits() {
            flush(&mut out, &mut pending, q);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassc_circuit::{circuits_equivalent, Gate};

    #[test]
    fn merges_runs_across_other_wires() {
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).x(1).h(0); // The x(1) does not break the run on wire 0.
        let out = Optimize1qGates.run(&qc).unwrap();
        // h·h cancels, x(1) stays.
        assert_eq!(out.num_gates(), 1);
        assert_eq!(out.instructions()[0].qubits().to_vec(), vec![1]);
    }

    #[test]
    fn runs_are_cut_by_two_qubit_gates() {
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).cx(0, 1).h(0);
        let out = Optimize1qGates.run(&qc).unwrap();
        // The two Hadamards cannot merge across the CX.
        assert!(out.num_gates() > 1);
        assert!(circuits_equivalent(&qc, &out, 1e-8));
        assert_eq!(out.cx_count(), 1);
    }

    #[test]
    fn preserves_semantics_on_mixed_circuit() {
        let mut qc = QuantumCircuit::new(3);
        qc.h(0)
            .t(0)
            .s(1)
            .cx(0, 1)
            .rz(0.3, 1)
            .ry(0.2, 1)
            .cx(1, 2)
            .h(2)
            .h(2);
        let out = Optimize1qGates.run(&qc).unwrap();
        assert!(circuits_equivalent(&qc, &out, 1e-8));
        // The trailing h·h pair on wire 2 multiplies to the identity and is
        // dropped entirely.
        assert!(!out
            .iter()
            .any(|i| i.qubits().to_vec() == vec![2] && i.gate.is_unitary()));
    }

    #[test]
    fn output_single_qubit_gates_are_in_basis() {
        let mut qc = QuantumCircuit::new(1);
        qc.h(0).t(0).ry(0.4, 0);
        let out = Optimize1qGates.run(&qc).unwrap();
        assert!(out.iter().all(|i| i.gate.in_ibm_basis()));
    }

    #[test]
    fn measurement_flushes_pending_run() {
        let mut qc = QuantumCircuit::new(1);
        qc.h(0).measure(0);
        let out = Optimize1qGates.run(&qc).unwrap();
        // The Hadamard must stay ahead of the measurement.
        assert!(out.num_gates() >= 2);
        assert_eq!(out.instructions().last().unwrap().gate, Gate::Measure);
    }
}

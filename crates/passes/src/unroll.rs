//! Unrolling to the IBM hardware basis `{id, rz, sx, x, cx}`.

use nassc_circuit::{Gate, Instruction, QuantumCircuit};
use nassc_synthesis::{swap_decomposition, synthesize_two_qubit, OneQubitEulerDecomposer};

use crate::manager::{PassError, TranspilePass};

/// Decomposes every gate into the IBM basis `{id, rz, sx, x, cx}`
/// (measurements and barriers pass through).
///
/// Single-qubit gates go through the ZSX Euler template; two-qubit gates
/// other than `cx` are re-synthesised from their matrix via the Weyl
/// decomposition; `swap` expands to three CNOTs; `ccx`/`cswap` use the
/// standard Toffoli construction.
///
/// # Example
///
/// ```
/// use nassc_circuit::QuantumCircuit;
/// use nassc_passes::{PassManager, UnrollToBasis};
///
/// let mut qc = QuantumCircuit::new(2);
/// qc.h(0).cz(0, 1);
/// let mut pm = PassManager::new();
/// pm.push(UnrollToBasis::default());
/// let unrolled = pm.run(&qc).unwrap();
/// assert!(unrolled.iter().all(|i| i.gate.in_ibm_basis()));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct UnrollToBasis;

impl TranspilePass for UnrollToBasis {
    fn name(&self) -> &str {
        "unroll-to-basis"
    }

    fn run(&self, circuit: &QuantumCircuit) -> Result<QuantumCircuit, PassError> {
        let mut out = QuantumCircuit::new(circuit.num_qubits());
        for inst in circuit.iter() {
            for lowered in unroll_instruction(inst)? {
                out.push(lowered);
            }
        }
        Ok(out)
    }
}

/// Lowers one instruction to basis gates.
fn unroll_instruction(inst: &Instruction) -> Result<Vec<Instruction>, PassError> {
    if inst.gate.in_ibm_basis() {
        return Ok(vec![inst.clone()]);
    }
    match &inst.gate {
        Gate::Swap => Ok(swap_decomposition(inst.qubit(0), inst.qubit(1)).into()),
        Gate::Ccx => Ok(toffoli(inst.qubit(0), inst.qubit(1), inst.qubit(2))
            .into_iter()
            .flat_map(|i| unroll_instruction(&i).expect("toffoli gates are simple"))
            .collect()),
        Gate::Cswap => {
            // CSWAP(c, a, b) = CX(b, a) · CCX(c, a, b) · CX(b, a).
            let (c, a, b) = (inst.qubit(0), inst.qubit(1), inst.qubit(2));
            let mut gates = vec![Instruction::new(Gate::Cx, vec![b, a])];
            gates.extend(toffoli(c, a, b));
            gates.push(Instruction::new(Gate::Cx, vec![b, a]));
            Ok(gates
                .into_iter()
                .flat_map(|i| unroll_instruction(&i).expect("cswap gates are simple"))
                .collect())
        }
        gate if gate.num_qubits() == 1 => {
            let m = gate.matrix2().ok_or_else(|| {
                PassError::new("unroll-to-basis", format!("no matrix for {}", gate.name()))
            })?;
            Ok(OneQubitEulerDecomposer::to_zsx(&m, inst.qubit(0)))
        }
        gate if gate.num_qubits() == 2 => {
            let m = gate.matrix4().ok_or_else(|| {
                PassError::new("unroll-to-basis", format!("no matrix for {}", gate.name()))
            })?;
            let synthesized = synthesize_two_qubit(&m, inst.qubit(0), inst.qubit(1))
                .map_err(|e| PassError::new("unroll-to-basis", e.to_string()))?;
            Ok(synthesized
                .into_iter()
                .flat_map(|i| unroll_instruction(&i).expect("synthesized gates are 1q or cx"))
                .collect())
        }
        other => Err(PassError::new(
            "unroll-to-basis",
            format!("cannot lower gate {}", other.name()),
        )),
    }
}

/// The standard 6-CNOT Toffoli decomposition.
fn toffoli(c1: usize, c2: usize, target: usize) -> Vec<Instruction> {
    vec![
        Instruction::new(Gate::H, vec![target]),
        Instruction::new(Gate::Cx, vec![c2, target]),
        Instruction::new(Gate::Tdg, vec![target]),
        Instruction::new(Gate::Cx, vec![c1, target]),
        Instruction::new(Gate::T, vec![target]),
        Instruction::new(Gate::Cx, vec![c2, target]),
        Instruction::new(Gate::Tdg, vec![target]),
        Instruction::new(Gate::Cx, vec![c1, target]),
        Instruction::new(Gate::T, vec![c2]),
        Instruction::new(Gate::T, vec![target]),
        Instruction::new(Gate::H, vec![target]),
        Instruction::new(Gate::Cx, vec![c1, c2]),
        Instruction::new(Gate::T, vec![c1]),
        Instruction::new(Gate::Tdg, vec![c2]),
        Instruction::new(Gate::Cx, vec![c1, c2]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassc_circuit::circuits_equivalent;

    fn unroll(circuit: &QuantumCircuit) -> QuantumCircuit {
        UnrollToBasis.run(circuit).expect("unroll")
    }

    #[test]
    fn basis_gates_pass_through() {
        let mut qc = QuantumCircuit::new(2);
        qc.x(0).rz(0.3, 1).sx(0).cx(0, 1);
        assert_eq!(unroll(&qc), qc);
    }

    #[test]
    fn one_qubit_gates_lower_equivalently() {
        let mut qc = QuantumCircuit::new(1);
        qc.h(0).t(0).s(0).ry(0.7, 0).u(0.2, 0.4, 0.6, 0);
        let lowered = unroll(&qc);
        assert!(lowered.iter().all(|i| i.gate.in_ibm_basis()));
        assert!(circuits_equivalent(&qc, &lowered, 1e-8));
    }

    #[test]
    fn two_qubit_gates_lower_equivalently() {
        let mut qc = QuantumCircuit::new(2);
        qc.cz(0, 1).swap(0, 1).cp(0.5, 1, 0).crx(1.1, 0, 1);
        let lowered = unroll(&qc);
        assert!(lowered.iter().all(|i| i.gate.in_ibm_basis()));
        assert!(circuits_equivalent(&qc, &lowered, 1e-7));
    }

    #[test]
    fn toffoli_lowers_equivalently() {
        let mut qc = QuantumCircuit::new(3);
        qc.ccx(0, 1, 2);
        let lowered = unroll(&qc);
        assert!(lowered.iter().all(|i| i.gate.in_ibm_basis()));
        assert_eq!(lowered.cx_count(), 6);
        assert!(circuits_equivalent(&qc, &lowered, 1e-8));
    }

    #[test]
    fn cswap_lowers_equivalently() {
        let mut qc = QuantumCircuit::new(3);
        qc.append(Gate::Cswap, vec![0, 1, 2]);
        let lowered = unroll(&qc);
        assert!(lowered.iter().all(|i| i.gate.in_ibm_basis()));
        assert!(circuits_equivalent(&qc, &lowered, 1e-8));
    }

    #[test]
    fn measurements_and_barriers_survive() {
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).barrier_all().measure(0).measure(1);
        let lowered = unroll(&qc);
        assert_eq!(lowered.count_ops()["measure"], 2);
        assert_eq!(lowered.count_ops()["barrier"], 1);
    }
}

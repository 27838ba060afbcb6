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
    fn name(&self) -> &'static str {
        "unroll-to-basis"
    }

    fn run(&self, circuit: &QuantumCircuit) -> Result<QuantumCircuit, PassError> {
        let mut out = QuantumCircuit::new(circuit.num_qubits());
        for inst in circuit.iter() {
            unroll_into(&mut out, inst)?;
        }
        Ok(out)
    }
}

/// Lowers one instruction to basis gates at the end of `out`.
fn unroll_into(out: &mut QuantumCircuit, inst: &Instruction) -> Result<(), PassError> {
    let fail = |message: String| PassError::new("unroll-to-basis", message);
    let no_matrix = || fail(format!("no matrix for {}", inst.gate.name()));
    match &inst.gate {
        gate if gate.in_ibm_basis() => {
            out.push(inst.clone());
        }
        Gate::Swap => {
            for cx in swap_decomposition(inst.qubit(0), inst.qubit(1)) {
                out.push(cx);
            }
        }
        Gate::Ccx => {
            for lowered in toffoli(inst.qubit(0), inst.qubit(1), inst.qubit(2)) {
                unroll_into(out, &lowered)?;
            }
        }
        Gate::Cswap => {
            // CSWAP(c, a, b) = CX(b, a) · CCX(c, a, b) · CX(b, a).
            let (c, a, b) = (inst.qubit(0), inst.qubit(1), inst.qubit(2));
            out.append(Gate::Cx, [b, a]);
            unroll_into(out, &Instruction::new(Gate::Ccx, [c, a, b]))?;
            out.append(Gate::Cx, [b, a]);
        }
        gate if gate.num_qubits() == 1 => {
            let m = gate.matrix2().ok_or_else(no_matrix)?;
            for lowered in OneQubitEulerDecomposer::to_zsx(&m, inst.qubit(0)) {
                out.push(lowered);
            }
        }
        gate if gate.num_qubits() == 2 => {
            let m = gate.matrix4().ok_or_else(no_matrix)?;
            let synthesized = synthesize_two_qubit(&m, inst.qubit(0), inst.qubit(1))
                .map_err(|e| fail(e.to_string()))?;
            for lowered in synthesized {
                unroll_into(out, &lowered)?;
            }
        }
        other => return Err(fail(format!("cannot lower gate {}", other.name()))),
    }
    Ok(())
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

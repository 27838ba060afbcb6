//! Dense state-vector and unitary construction for *small* circuits.
//!
//! This module exists for correctness checking: property tests and the
//! transpiler's equivalence assertions build the full `2ⁿ × 2ⁿ` unitary of a
//! circuit (n ≤ ~12) and compare it before/after a transformation. The noisy
//! simulator crate reuses [`apply_instruction`] as its state-update kernel.
//!
//! Bit convention: qubit `q` is bit `q` of the basis-state index
//! (little-endian), matching the gate-matrix convention where the first
//! listed qubit of an instruction is least significant.

use nassc_math::matrix::approx_eq_up_to_phase;
use nassc_math::C64;

use crate::circuit::QuantumCircuit;
use crate::gate::Gate;
use crate::instruction::Instruction;

/// A dense `dim × dim` complex matrix stored column-major as flat data,
/// representing the unitary of a whole circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitUnitary {
    dim: usize,
    /// `data[col * dim + row]`.
    data: Vec<C64>,
}

impl CircuitUnitary {
    /// The matrix dimension (`2^num_qubits`).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Element access (row, column).
    pub fn get(&self, row: usize, col: usize) -> C64 {
        self.data[col * self.dim + row]
    }

    /// Compares two unitaries entry-wise ignoring a global phase (see
    /// [`nassc_math::matrix::approx_eq_up_to_phase`]); unitaries of
    /// different dimensions never match.
    pub fn approx_eq_up_to_phase(&self, other: &CircuitUnitary, tol: f64) -> bool {
        approx_eq_up_to_phase(&self.data, &other.data, tol)
    }

    /// Reorders the *output* wires of the unitary according to `perm`, where
    /// logical output wire `i` is moved to wire `perm[i]`. This is used to
    /// compare a routed circuit (which ends with its qubits permuted by the
    /// inserted SWAPs and the chosen layout) against the original.
    pub fn permute_output(&self, perm: &[usize]) -> CircuitUnitary {
        let n = perm.len();
        assert_eq!(self.dim, 1 << n, "permutation size must match qubit count");
        let mut out = vec![C64::zero(); self.data.len()];
        for col in 0..self.dim {
            for row in 0..self.dim {
                let mut new_row = 0usize;
                for (i, &p) in perm.iter().enumerate() {
                    if (row >> i) & 1 == 1 {
                        new_row |= 1 << p;
                    }
                }
                out[col * self.dim + new_row] = self.data[col * self.dim + row];
            }
        }
        CircuitUnitary {
            dim: self.dim,
            data: out,
        }
    }
}

/// Applies one instruction to a dense state vector in place.
///
/// # Panics
///
/// Panics on `Measure` (not a unitary operation) and on gates without a
/// matrix representation for their arity.
pub fn apply_instruction(state: &mut [C64], num_qubits: usize, inst: &Instruction) {
    match &inst.gate {
        Gate::Barrier(_) => {}
        Gate::Measure => panic!("cannot apply a measurement as a unitary"),
        Gate::Ccx => {
            let (c1, c2, t) = (inst.qubit(0), inst.qubit(1), inst.qubit(2));
            for idx in 0..state.len() {
                if (idx >> c1) & 1 == 1 && (idx >> c2) & 1 == 1 && (idx >> t) & 1 == 0 {
                    state.swap(idx, idx | (1 << t));
                }
            }
        }
        Gate::Cswap => {
            let (c, a, b) = (inst.qubit(0), inst.qubit(1), inst.qubit(2));
            for idx in 0..state.len() {
                let bit_a = (idx >> a) & 1;
                let bit_b = (idx >> b) & 1;
                if (idx >> c) & 1 == 1 && bit_a == 1 && bit_b == 0 {
                    let other = (idx & !(1 << a)) | (1 << b);
                    state.swap(idx, other);
                }
            }
        }
        gate if gate.num_qubits() == 1 => {
            let m = gate
                .matrix2()
                .expect("single-qubit gate must have a matrix");
            let q = inst.qubit(0);
            let stride = 1usize << q;
            let dim = 1usize << num_qubits;
            let mut idx = 0;
            while idx < dim {
                if (idx >> q) & 1 == 0 {
                    let a = state[idx];
                    let b = state[idx + stride];
                    state[idx] = m.get(0, 0) * a + m.get(0, 1) * b;
                    state[idx + stride] = m.get(1, 0) * a + m.get(1, 1) * b;
                }
                idx += 1;
            }
        }
        gate if gate.num_qubits() == 2 => {
            let m = gate.matrix4().expect("two-qubit gate must have a matrix");
            let (q0, q1) = (inst.qubit(0), inst.qubit(1));
            let dim = 1usize << num_qubits;
            for idx in 0..dim {
                if (idx >> q0) & 1 == 0 && (idx >> q1) & 1 == 0 {
                    // Gather the four basis states |q1 q0> = 00, 01, 10, 11.
                    let i00 = idx;
                    let i01 = idx | (1 << q0);
                    let i10 = idx | (1 << q1);
                    let i11 = idx | (1 << q0) | (1 << q1);
                    let v = [state[i00], state[i01], state[i10], state[i11]];
                    let indices = [i00, i01, i10, i11];
                    for (r, &out_idx) in indices.iter().enumerate() {
                        let mut acc = C64::zero();
                        for (c, &vc) in v.iter().enumerate() {
                            acc += m.get(r, c) * vc;
                        }
                        state[out_idx] = acc;
                    }
                }
            }
        }
        other => panic!("unsupported gate {} in unitary construction", other.name()),
    }
}

/// Builds the full unitary matrix of a circuit by applying it to every basis
/// state.
///
/// # Panics
///
/// Panics when the circuit has more than 14 qubits (the dense matrix would
/// not fit in a reasonable amount of memory) or contains measurements.
pub fn circuit_unitary(circuit: &QuantumCircuit) -> CircuitUnitary {
    let n = circuit.num_qubits();
    assert!(
        n <= 14,
        "dense unitary construction is limited to 14 qubits, got {n}"
    );
    let dim = 1usize << n;
    let mut data = vec![C64::zero(); dim * dim];
    for col in 0..dim {
        let column = &mut data[col * dim..(col + 1) * dim];
        column[col] = C64::one();
        for inst in circuit.iter() {
            apply_instruction(column, n, inst);
        }
    }
    CircuitUnitary { dim, data }
}

/// Convenience: `true` when two circuits implement the same unitary up to a
/// global phase.
pub fn circuits_equivalent(a: &QuantumCircuit, b: &QuantumCircuit, tol: f64) -> bool {
    if a.num_qubits() != b.num_qubits() {
        return false;
    }
    circuit_unitary(a).approx_eq_up_to_phase(&circuit_unitary(b), tol)
}

/// Convenience: `true` when circuit `b` equals circuit `a` followed by the
/// output-wire permutation `perm` (logical wire `i` of `a` ends up on wire
/// `perm[i]` of `b`). This is the equivalence notion for routed circuits.
pub fn circuits_equivalent_up_to_permutation(
    a: &QuantumCircuit,
    b: &QuantumCircuit,
    perm: &[usize],
    tol: f64,
) -> bool {
    if a.num_qubits() != b.num_qubits() {
        return false;
    }
    let ua = circuit_unitary(a).permute_output(perm);
    let ub = circuit_unitary(b);
    ua.approx_eq_up_to_phase(&ub, tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bell_circuit_unitary() {
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).cx(0, 1);
        let u = circuit_unitary(&qc);
        let s = std::f64::consts::FRAC_1_SQRT_2;
        // Column 0 = (|00> + |11>)/sqrt2.
        assert!(u.get(0, 0).approx_eq(C64::real(s), 1e-12));
        assert!(u.get(3, 0).approx_eq(C64::real(s), 1e-12));
        assert!(u.get(1, 0).is_zero(1e-12));
    }

    #[test]
    fn swap_equals_three_cnots() {
        let mut a = QuantumCircuit::new(2);
        a.swap(0, 1);
        let mut b = QuantumCircuit::new(2);
        b.cx(0, 1).cx(1, 0).cx(0, 1);
        assert!(circuits_equivalent(&a, &b, 1e-10));
    }

    #[test]
    fn ccx_decomposition_matches() {
        // Standard 6-CNOT Toffoli decomposition.
        let mut a = QuantumCircuit::new(3);
        a.ccx(0, 1, 2);
        let mut b = QuantumCircuit::new(3);
        b.h(2)
            .cx(1, 2)
            .tdg(2)
            .cx(0, 2)
            .t(2)
            .cx(1, 2)
            .tdg(2)
            .cx(0, 2)
            .t(1)
            .t(2)
            .h(2)
            .cx(0, 1)
            .t(0)
            .tdg(1)
            .cx(0, 1);
        assert!(circuits_equivalent(&a, &b, 1e-10));
    }

    #[test]
    fn permutation_equivalence_of_routed_swap() {
        // Circuit a: cx(0,1). Circuit b: swap(0,1) then cx(1,0): the logical
        // wires end up exchanged, which the permutation accounts for.
        let mut a = QuantumCircuit::new(2);
        a.cx(0, 1);
        let mut b = QuantumCircuit::new(2);
        b.swap(0, 1).cx(1, 0);
        assert!(circuits_equivalent_up_to_permutation(
            &a,
            &b,
            &[1, 0],
            1e-10
        ));
        assert!(!circuits_equivalent(&a, &b, 1e-10));
    }

    #[test]
    fn different_circuits_are_not_equivalent() {
        let mut a = QuantumCircuit::new(2);
        a.cx(0, 1);
        let mut b = QuantumCircuit::new(2);
        b.cx(1, 0);
        assert!(!circuits_equivalent(&a, &b, 1e-10));
    }

    #[test]
    fn global_phase_is_ignored() {
        let mut a = QuantumCircuit::new(1);
        a.rz(1.0, 0);
        let mut b = QuantumCircuit::new(1);
        b.p(1.0, 0); // p = rz up to global phase
        assert!(circuits_equivalent(&a, &b, 1e-10));
    }

    #[test]
    fn cswap_swaps_conditionally() {
        let mut qc = QuantumCircuit::new(3);
        qc.append(Gate::Cswap, vec![0, 1, 2]);
        let u = circuit_unitary(&qc);
        // |c=1, q1=1, q2=0> = index 0b011 = 3 maps to |c=1,q1=0,q2=1> = 0b101 = 5.
        assert!(u.get(5, 3).approx_eq(C64::one(), 1e-12));
        assert!(u.get(3, 3).is_zero(1e-12));
        // Control off: |011 with c=0> stays.
        assert!(u.get(2, 2).approx_eq(C64::one(), 1e-12));
    }

    #[test]
    fn barrier_is_identity() {
        let mut a = QuantumCircuit::new(2);
        a.h(0).barrier_all().cx(0, 1);
        let mut b = QuantumCircuit::new(2);
        b.h(0).cx(0, 1);
        assert!(circuits_equivalent(&a, &b, 1e-12));
    }
}

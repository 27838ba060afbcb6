//! Synthetic large-circuit generators for the scale benchmarks.
//!
//! The paper's benchmark suite tops out at a few thousand gates on 27
//! qubits; heavy-hex devices (Eagle at 127 qubits, Osprey at 433) need
//! workloads an order of magnitude larger to stress the pipeline's memory
//! behaviour. Two deterministic generators cover the interesting extremes:
//!
//! * [`qv_style`] — quantum-volume-style layers: a seeded random pairing of
//!   all qubits per layer, each pair getting a small SU(4)-flavoured block
//!   (single-qubit rotations around two CNOTs). Dense parallelism, random
//!   structure — the router's worst case for lookahead.
//! * [`qft_style`] — repeated QFT rounds (Hadamard plus controlled-phase
//!   cascade). Long-range, highly serial interactions — the distance
//!   matrix's worst case.
//!
//! Both generators hit the requested gate count **exactly** (truncating
//! mid-layer or mid-round) so `10_000` means 10k instructions, and both
//! pre-size the circuit buffer via [`QuantumCircuit::with_capacity`] so
//! generation itself is a single allocation of the instruction vector.

use std::f64::consts::PI;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use nassc::circuit::QuantumCircuit;

/// Quantum-volume-style random circuit: seeded layers of disjoint two-qubit
/// blocks (`ry`/`rz` on each qubit, `cx`, `ry` pair, `cx`) over a fresh
/// random pairing per layer, truncated at exactly `gates` instructions.
pub fn qv_style(num_qubits: usize, gates: usize, seed: u64) -> QuantumCircuit {
    assert!(num_qubits >= 2, "qv_style needs at least 2 qubits");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut qc = QuantumCircuit::with_capacity(num_qubits, gates);
    let mut order: Vec<usize> = (0..num_qubits).collect();
    while qc.num_gates() < gates {
        order.shuffle(&mut rng);
        for pair in order.chunks_exact(2) {
            let (a, b) = (pair[0], pair[1]);
            for step in 0..8 {
                if qc.num_gates() == gates {
                    return qc;
                }
                match step {
                    0 => qc.ry(rng.gen_range(-PI..PI), a),
                    1 => qc.rz(rng.gen_range(-PI..PI), a),
                    2 => qc.ry(rng.gen_range(-PI..PI), b),
                    3 => qc.rz(rng.gen_range(-PI..PI), b),
                    4 => qc.cx(a, b),
                    5 => qc.ry(rng.gen_range(-PI..PI), a),
                    6 => qc.ry(rng.gen_range(-PI..PI), b),
                    _ => qc.cx(b, a),
                };
            }
        }
    }
    qc
}

/// Repeated-QFT workload: full QFT rounds (Hadamard plus the
/// controlled-phase cascade) back to back, truncated at exactly `gates`
/// instructions.
pub fn qft_style(num_qubits: usize, gates: usize) -> QuantumCircuit {
    assert!(num_qubits >= 2, "qft_style needs at least 2 qubits");
    let mut qc = QuantumCircuit::with_capacity(num_qubits, gates);
    while qc.num_gates() < gates {
        for target in 0..num_qubits {
            if qc.num_gates() == gates {
                return qc;
            }
            qc.h(target);
            for control in (target + 1)..num_qubits {
                if qc.num_gates() == gates {
                    return qc;
                }
                qc.cp(PI / 2f64.powi((control - target) as i32), control, target);
            }
        }
    }
    qc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_hit_the_gate_count_exactly() {
        for gates in [1, 7, 100, 1003] {
            assert_eq!(qv_style(27, gates, 7).num_gates(), gates);
            assert_eq!(qft_style(27, gates).num_gates(), gates);
        }
    }

    #[test]
    fn qv_style_is_seed_deterministic() {
        let a = qv_style(127, 2000, 42);
        let b = qv_style(127, 2000, 42);
        assert_eq!(a, b);
        assert_ne!(a, qv_style(127, 2000, 43));
    }

    #[test]
    fn generated_circuits_round_trip_through_qasm() {
        for qc in [qv_style(27, 500, 11), qft_style(27, 500)] {
            let qasm = nassc_qasm::export(&qc).expect("exportable");
            let parsed = nassc_qasm::parse(&qasm).expect("parseable");
            assert_eq!(parsed, qc);
        }
    }
}

//! One-qubit Euler decomposition into the IBM basis.
//!
//! Any single-qubit unitary can be written as `e^{iφ}·Rz(ϕ)·Ry(θ)·Rz(λ)`
//! (ZYZ angles). The hardware basis of the paper is `{rz, sx, x}`, so the
//! [`OneQubitEulerDecomposer`] further rewrites the ZYZ form into the
//! standard "ZSX" template `Rz(ϕ+π)·SX·Rz(θ+π)·SX·Rz(λ)` that Qiskit's
//! `Optimize1qGates` pass emits, dropping rotations that collapse to the
//! identity.

use nassc_circuit::{Gate, Instruction};
use nassc_math::{Matrix2, C64};
use std::f64::consts::PI;

/// Numerical tolerance for treating an angle as zero.
const ANGLE_TOL: f64 = 1e-9;

/// The ZYZ Euler angles of a single-qubit unitary: `U = e^{iφ}·Rz(ϕ)·Ry(θ)·Rz(λ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EulerAngles {
    /// Polar rotation θ.
    pub theta: f64,
    /// Leading Z rotation ϕ.
    pub phi: f64,
    /// Trailing Z rotation λ.
    pub lambda: f64,
    /// Global phase φ.
    pub phase: f64,
}

/// Decomposer for single-qubit unitaries.
///
/// # Example
///
/// ```
/// use nassc_circuit::Gate;
/// use nassc_synthesis::OneQubitEulerDecomposer;
///
/// let h = Gate::H.matrix2().unwrap();
/// let angles = OneQubitEulerDecomposer::angles(&h);
/// let rebuilt = OneQubitEulerDecomposer::matrix_from_angles(&angles);
/// assert!(rebuilt.approx_eq(&h, 1e-10));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct OneQubitEulerDecomposer;

impl OneQubitEulerDecomposer {
    /// Extracts ZYZ Euler angles (and the global phase) from a unitary.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not unitary.
    pub fn angles(u: &Matrix2) -> EulerAngles {
        assert!(
            u.is_unitary(1e-6),
            "euler decomposition requires a unitary matrix"
        );
        // Normalise to SU(2).
        let det = u.det();
        let det_phase = det.arg() / 2.0;
        let scale = C64::exp_i(-det_phase);
        let su = u.scale(scale);

        let u00 = su.get(0, 0);
        let u10 = su.get(1, 0);
        let u11 = su.get(1, 1);

        let theta = 2.0 * u10.abs().atan2(u00.abs());
        let (phi, lambda) = if u10.abs() < ANGLE_TOL {
            // theta ~ 0: only phi+lambda is defined.
            (2.0 * u11.arg(), 0.0)
        } else if u00.abs() < ANGLE_TOL {
            // theta ~ pi: only phi-lambda is defined.
            (2.0 * u10.arg(), 0.0)
        } else {
            let phi_plus_lambda = 2.0 * u11.arg();
            let phi_minus_lambda = 2.0 * u10.arg();
            (
                (phi_plus_lambda + phi_minus_lambda) / 2.0,
                (phi_plus_lambda - phi_minus_lambda) / 2.0,
            )
        };
        EulerAngles {
            theta,
            phi,
            lambda,
            phase: det_phase,
        }
    }

    /// Rebuilds the matrix `e^{iφ}·Rz(ϕ)·Ry(θ)·Rz(λ)` from its angles.
    pub fn matrix_from_angles(angles: &EulerAngles) -> Matrix2 {
        let rz_phi = Gate::Rz(angles.phi).matrix2().expect("rz matrix");
        let ry = Gate::Ry(angles.theta).matrix2().expect("ry matrix");
        let rz_lam = Gate::Rz(angles.lambda).matrix2().expect("rz matrix");
        rz_phi.mul(&ry).mul(&rz_lam).scale(C64::exp_i(angles.phase))
    }

    /// Synthesises a unitary into the `{rz, sx}` basis on `qubit`.
    ///
    /// The output uses at most two `sx` gates and three `rz` gates; pure
    /// Z rotations collapse to a single `rz` and identities to nothing.
    pub fn to_zsx(u: &Matrix2, qubit: usize) -> Vec<Instruction> {
        let a = Self::angles(u);
        let mut out = Vec::new();
        let push_rz = |out: &mut Vec<Instruction>, angle: f64| {
            let wrapped = wrap_angle(angle);
            if wrapped.abs() > ANGLE_TOL {
                out.push(Instruction::new(Gate::Rz(wrapped), vec![qubit]));
            }
        };
        if a.theta.abs() < ANGLE_TOL {
            // Pure Z rotation.
            push_rz(&mut out, a.phi + a.lambda);
            return out;
        }
        if u.approx_eq_up_to_phase(&Matrix2::pauli_x(), ANGLE_TOL) {
            out.push(Instruction::new(Gate::X, vec![qubit]));
            return out;
        }
        // General case: Rz(phi) Ry(theta) Rz(lambda)
        //             = Rz(phi + pi) SX Rz(theta + pi) SX Rz(lambda)   (up to phase).
        push_rz(&mut out, a.lambda);
        out.push(Instruction::new(Gate::Sx, vec![qubit]));
        push_rz(&mut out, a.theta + PI);
        out.push(Instruction::new(Gate::Sx, vec![qubit]));
        push_rz(&mut out, a.phi + PI);
        out
    }
}

/// Wraps an angle into `(-π, π]`.
pub fn wrap_angle(angle: f64) -> f64 {
    let two_pi = 2.0 * PI;
    let mut a = angle % two_pi;
    if a > PI {
        a -= two_pi;
    } else if a <= -PI {
        a += two_pi;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassc_circuit::circuit_unitary;
    use nassc_circuit::QuantumCircuit;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_unitary2(rng: &mut StdRng) -> Matrix2 {
        // Random ZYZ angles give a Haar-ish random unitary good enough for tests.
        let theta = rng.gen_range(0.0..PI);
        let phi = rng.gen_range(-PI..PI);
        let lam = rng.gen_range(-PI..PI);
        let phase = rng.gen_range(-PI..PI);
        OneQubitEulerDecomposer::matrix_from_angles(&EulerAngles {
            theta,
            phi,
            lambda: lam,
            phase,
        })
    }

    #[test]
    fn angles_reconstruct_named_gates() {
        for gate in [
            Gate::H,
            Gate::X,
            Gate::S,
            Gate::T,
            Gate::Sx,
            Gate::Rz(0.4),
            Gate::Ry(1.1),
        ] {
            let m = gate.matrix2().unwrap();
            let a = OneQubitEulerDecomposer::angles(&m);
            let rebuilt = OneQubitEulerDecomposer::matrix_from_angles(&a);
            assert!(
                rebuilt.approx_eq(&m, 1e-9),
                "{} reconstruction failed",
                gate.name()
            );
        }
    }

    #[test]
    fn angles_reconstruct_random_unitaries() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let m = random_unitary2(&mut rng);
            let a = OneQubitEulerDecomposer::angles(&m);
            let rebuilt = OneQubitEulerDecomposer::matrix_from_angles(&a);
            assert!(rebuilt.approx_eq(&m, 1e-8));
        }
    }

    #[test]
    fn zsx_synthesis_is_equivalent_and_in_basis() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let m = random_unitary2(&mut rng);
            let gates = OneQubitEulerDecomposer::to_zsx(&m, 0);
            assert!(gates.iter().all(|i| i.gate.in_ibm_basis()));
            let mut qc = QuantumCircuit::new(1);
            for g in &gates {
                qc.push(g.clone());
            }
            let mut reference = QuantumCircuit::new(1);
            reference.append(Gate::Unitary1(Box::new(m)), vec![0]);
            assert!(
                circuit_unitary(&qc).approx_eq_up_to_phase(&circuit_unitary(&reference), 1e-8),
                "zsx synthesis mismatch"
            );
        }
    }

    #[test]
    fn zsx_collapses_z_rotations() {
        let m = Gate::Rz(0.7).matrix2().unwrap();
        let gates = OneQubitEulerDecomposer::to_zsx(&m, 3);
        assert_eq!(gates.len(), 1);
        assert_eq!(gates[0].gate.name(), "rz");
        assert_eq!(gates[0].qubits().to_vec(), vec![3]);
    }

    #[test]
    fn zsx_of_identity_is_empty() {
        let gates = OneQubitEulerDecomposer::to_zsx(&Matrix2::identity(), 0);
        assert!(gates.is_empty());
    }

    #[test]
    fn zsx_of_x_is_single_gate() {
        let gates = OneQubitEulerDecomposer::to_zsx(&Matrix2::pauli_x(), 0);
        assert_eq!(gates.len(), 1);
        assert_eq!(gates[0].gate, Gate::X);
    }

    #[test]
    fn wrap_angle_range() {
        assert!((wrap_angle(3.0 * PI) - PI).abs() < 1e-12);
        assert!((wrap_angle(-3.0 * PI) - PI).abs() < 1e-12);
        assert!((wrap_angle(0.5) - 0.5).abs() < 1e-15);
        assert!(wrap_angle(2.0 * PI).abs() < 1e-12);
    }
}

//! The standard gate library.
//!
//! Every gate the benchmark circuits, the transpiler and the routers need is
//! a variant of [`Gate`]. Matrix representations follow a little-endian
//! convention: for an instruction applied to qubits `[a, b]`, the first
//! listed qubit `a` is the *least significant* bit of the 4×4 matrix basis
//! `|b a⟩`. Controlled gates list the control qubit first.

use nassc_math::{Matrix2, Matrix4, C64};
use std::f64::consts::FRAC_PI_4;

/// A quantum gate (or the non-unitary `Measure`/`Barrier` markers).
///
/// # Example
///
/// ```
/// use nassc_circuit::Gate;
///
/// assert_eq!(Gate::Cx.num_qubits(), 2);
/// assert!(Gate::H.is_self_inverse());
/// assert_eq!(Gate::S.inverse(), Gate::Sdg);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Gate {
    /// Identity.
    I,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate `diag(1, i)`.
    S,
    /// Inverse phase gate `diag(1, -i)`.
    Sdg,
    /// T gate `diag(1, e^{iπ/4})`.
    T,
    /// Inverse T gate.
    Tdg,
    /// Square root of X.
    Sx,
    /// Inverse square root of X.
    Sxdg,
    /// X rotation by the given angle.
    Rx(f64),
    /// Y rotation by the given angle.
    Ry(f64),
    /// Z rotation by the given angle.
    Rz(f64),
    /// Phase rotation `diag(1, e^{iλ})`.
    Phase(f64),
    /// Generic single-qubit gate `U(θ, φ, λ)` (IBM convention).
    U(f64, f64, f64),
    /// Controlled-X (CNOT); qubit order is `[control, target]`.
    Cx,
    /// Controlled-Y.
    Cy,
    /// Controlled-Z.
    Cz,
    /// Controlled-Hadamard.
    Ch,
    /// SWAP gate.
    Swap,
    /// Controlled X rotation.
    Crx(f64),
    /// Controlled Y rotation.
    Cry(f64),
    /// Controlled Z rotation.
    Crz(f64),
    /// Controlled phase rotation.
    Cp(f64),
    /// Ising XX interaction.
    Rxx(f64),
    /// Ising ZZ interaction.
    Rzz(f64),
    /// Toffoli; qubit order is `[control, control, target]`.
    Ccx,
    /// Controlled-SWAP; qubit order is `[control, target, target]`.
    Cswap,
    /// An explicit single-qubit unitary (produced by 1q optimization).
    /// Boxed, like [`Unitary2`](Self::Unitary2), so the matrix does not
    /// widen every `Gate`.
    Unitary1(Box<Matrix2>),
    /// An explicit two-qubit unitary (produced by block consolidation).
    Unitary2(Box<Matrix4>),
    /// Measurement in the computational basis (non-unitary marker).
    Measure,
    /// Barrier over the given number of qubits (compilation marker).
    Barrier(usize),
}

impl Gate {
    /// The lower-case OpenQASM-style name of the gate.
    pub fn name(&self) -> &'static str {
        match self {
            Gate::I => "id",
            Gate::X => "x",
            Gate::Y => "y",
            Gate::Z => "z",
            Gate::H => "h",
            Gate::S => "s",
            Gate::Sdg => "sdg",
            Gate::T => "t",
            Gate::Tdg => "tdg",
            Gate::Sx => "sx",
            Gate::Sxdg => "sxdg",
            Gate::Rx(_) => "rx",
            Gate::Ry(_) => "ry",
            Gate::Rz(_) => "rz",
            Gate::Phase(_) => "p",
            Gate::U(_, _, _) => "u",
            Gate::Cx => "cx",
            Gate::Cy => "cy",
            Gate::Cz => "cz",
            Gate::Ch => "ch",
            Gate::Swap => "swap",
            Gate::Crx(_) => "crx",
            Gate::Cry(_) => "cry",
            Gate::Crz(_) => "crz",
            Gate::Cp(_) => "cp",
            Gate::Rxx(_) => "rxx",
            Gate::Rzz(_) => "rzz",
            Gate::Ccx => "ccx",
            Gate::Cswap => "cswap",
            Gate::Unitary1(_) => "unitary1",
            Gate::Unitary2(_) => "unitary2",
            Gate::Measure => "measure",
            Gate::Barrier(_) => "barrier",
        }
    }

    /// The number of qubits the gate acts on.
    pub fn num_qubits(&self) -> usize {
        match self {
            Gate::I
            | Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::H
            | Gate::S
            | Gate::Sdg
            | Gate::T
            | Gate::Tdg
            | Gate::Sx
            | Gate::Sxdg
            | Gate::Rx(_)
            | Gate::Ry(_)
            | Gate::Rz(_)
            | Gate::Phase(_)
            | Gate::U(_, _, _)
            | Gate::Unitary1(_)
            | Gate::Measure => 1,
            Gate::Cx
            | Gate::Cy
            | Gate::Cz
            | Gate::Ch
            | Gate::Swap
            | Gate::Crx(_)
            | Gate::Cry(_)
            | Gate::Crz(_)
            | Gate::Cp(_)
            | Gate::Rxx(_)
            | Gate::Rzz(_)
            | Gate::Unitary2(_) => 2,
            Gate::Ccx | Gate::Cswap => 3,
            Gate::Barrier(n) => *n,
        }
    }

    /// Returns `true` for unitary gates (everything except measure/barrier).
    pub fn is_unitary(&self) -> bool {
        !matches!(self, Gate::Measure | Gate::Barrier(_))
    }

    /// Returns `true` when the gate is directive-like (barrier) and carries
    /// no operation.
    pub fn is_directive(&self) -> bool {
        matches!(self, Gate::Barrier(_))
    }

    /// Returns `true` for two-qubit unitary gates.
    pub fn is_two_qubit(&self) -> bool {
        self.is_unitary() && self.num_qubits() == 2
    }

    /// Returns `true` when the gate equals its own inverse.
    pub fn is_self_inverse(&self) -> bool {
        matches!(
            self,
            Gate::I
                | Gate::X
                | Gate::Y
                | Gate::Z
                | Gate::H
                | Gate::Cx
                | Gate::Cy
                | Gate::Cz
                | Gate::Ch
                | Gate::Swap
                | Gate::Ccx
                | Gate::Cswap
        )
    }

    /// The inverse gate.
    ///
    /// # Panics
    ///
    /// Panics for the non-unitary `Measure` marker.
    pub fn inverse(&self) -> Gate {
        match self {
            Gate::S => Gate::Sdg,
            Gate::Sdg => Gate::S,
            Gate::T => Gate::Tdg,
            Gate::Tdg => Gate::T,
            Gate::Sx => Gate::Sxdg,
            Gate::Sxdg => Gate::Sx,
            Gate::Rx(t) => Gate::Rx(-t),
            Gate::Ry(t) => Gate::Ry(-t),
            Gate::Rz(t) => Gate::Rz(-t),
            Gate::Phase(t) => Gate::Phase(-t),
            Gate::U(t, p, l) => Gate::U(-t, -l, -p),
            Gate::Crx(t) => Gate::Crx(-t),
            Gate::Cry(t) => Gate::Cry(-t),
            Gate::Crz(t) => Gate::Crz(-t),
            Gate::Cp(t) => Gate::Cp(-t),
            Gate::Rxx(t) => Gate::Rxx(-t),
            Gate::Rzz(t) => Gate::Rzz(-t),
            Gate::Unitary1(m) => Gate::Unitary1(Box::new(m.adjoint())),
            Gate::Unitary2(m) => Gate::Unitary2(Box::new(m.adjoint())),
            Gate::Barrier(n) => Gate::Barrier(*n),
            Gate::Measure => panic!("measure has no inverse"),
            other => other.clone(),
        }
    }

    /// The 2×2 matrix of a single-qubit gate, if this is one.
    pub fn matrix2(&self) -> Option<Matrix2> {
        let z = C64::zero();
        let o = C64::one();
        let m = match self {
            Gate::I => Matrix2::identity(),
            Gate::X => Matrix2::pauli_x(),
            Gate::Y => Matrix2::pauli_y(),
            Gate::Z => Matrix2::pauli_z(),
            Gate::H => Matrix2::hadamard(),
            Gate::S => Matrix2::new([[o, z], [z, C64::i()]]),
            Gate::Sdg => Matrix2::new([[o, z], [z, -C64::i()]]),
            Gate::T => Matrix2::new([[o, z], [z, C64::exp_i(FRAC_PI_4)]]),
            Gate::Tdg => Matrix2::new([[o, z], [z, C64::exp_i(-FRAC_PI_4)]]),
            Gate::Sx => Matrix2::new([
                [C64::new(0.5, 0.5), C64::new(0.5, -0.5)],
                [C64::new(0.5, -0.5), C64::new(0.5, 0.5)],
            ]),
            Gate::Sxdg => Matrix2::new([
                [C64::new(0.5, -0.5), C64::new(0.5, 0.5)],
                [C64::new(0.5, 0.5), C64::new(0.5, -0.5)],
            ]),
            Gate::Rx(t) => {
                let c = C64::real((t / 2.0).cos());
                let s = C64::new(0.0, -(t / 2.0).sin());
                Matrix2::new([[c, s], [s, c]])
            }
            Gate::Ry(t) => {
                let c = C64::real((t / 2.0).cos());
                let s = C64::real((t / 2.0).sin());
                Matrix2::new([[c, -s], [s, c]])
            }
            Gate::Rz(t) => Matrix2::new([[C64::exp_i(-t / 2.0), z], [z, C64::exp_i(t / 2.0)]]),
            Gate::Phase(t) => Matrix2::new([[o, z], [z, C64::exp_i(*t)]]),
            Gate::U(theta, phi, lam) => u_matrix(*theta, *phi, *lam),
            Gate::Unitary1(m) => **m,
            _ => return None,
        };
        Some(m)
    }

    /// The 4×4 matrix of a two-qubit gate, if this is one.
    ///
    /// The first listed qubit of the instruction (the control for controlled
    /// gates) is the least significant bit of the basis ordering.
    pub fn matrix4(&self) -> Option<Matrix4> {
        let z = C64::zero();
        let o = C64::one();
        let ctrl = |u: Matrix2| -> Matrix4 {
            // Control is qubit 0 (least significant): act with u on qubit 1
            // when bit 0 is set. Basis order |00>,|01>,|10>,|11> = |q1 q0>.
            let mut m = Matrix4::identity();
            // The |x1> states are indices 1 and 3.
            m.set(1, 1, u.get(0, 0));
            m.set(1, 3, u.get(0, 1));
            m.set(3, 1, u.get(1, 0));
            m.set(3, 3, u.get(1, 1));
            m
        };
        let m = match self {
            Gate::Cx => Matrix4::cnot(),
            Gate::Cy => ctrl(Matrix2::pauli_y()),
            Gate::Cz => ctrl(Matrix2::pauli_z()),
            Gate::Ch => ctrl(Matrix2::hadamard()),
            Gate::Swap => Matrix4::swap(),
            Gate::Crx(t) => ctrl(Gate::Rx(*t).matrix2().expect("rx matrix")),
            Gate::Cry(t) => ctrl(Gate::Ry(*t).matrix2().expect("ry matrix")),
            Gate::Crz(t) => ctrl(Gate::Rz(*t).matrix2().expect("rz matrix")),
            Gate::Cp(t) => ctrl(Gate::Phase(*t).matrix2().expect("p matrix")),
            Gate::Rxx(t) => {
                let c = C64::real((t / 2.0).cos());
                let s = C64::new(0.0, -(t / 2.0).sin());
                Matrix4::new([[c, z, z, s], [z, c, s, z], [z, s, c, z], [s, z, z, c]])
            }
            Gate::Rzz(t) => {
                let e0 = C64::exp_i(-t / 2.0);
                let e1 = C64::exp_i(t / 2.0);
                Matrix4::new([[e0, z, z, z], [z, e1, z, z], [z, z, e1, z], [z, z, z, e0]])
            }
            Gate::Unitary2(m) => *m.clone(),
            _ => {
                let _ = (z, o);
                return None;
            }
        };
        Some(m)
    }

    /// The gate's parameters, if any.
    pub fn params(&self) -> Vec<f64> {
        match self {
            Gate::Rx(t)
            | Gate::Ry(t)
            | Gate::Rz(t)
            | Gate::Phase(t)
            | Gate::Crx(t)
            | Gate::Cry(t)
            | Gate::Crz(t)
            | Gate::Cp(t)
            | Gate::Rxx(t)
            | Gate::Rzz(t) => vec![*t],
            Gate::U(t, p, l) => vec![*t, *p, *l],
            _ => Vec::new(),
        }
    }

    /// Returns `true` when the gate belongs to the IBM hardware basis
    /// `{id, rz, sx, x, cx}` used throughout the paper's evaluation.
    pub fn in_ibm_basis(&self) -> bool {
        matches!(
            self,
            Gate::I
                | Gate::Rz(_)
                | Gate::Sx
                | Gate::X
                | Gate::Cx
                | Gate::Measure
                | Gate::Barrier(_)
        )
    }
}

/// The IBM `U(θ, φ, λ)` matrix.
fn u_matrix(theta: f64, phi: f64, lam: f64) -> Matrix2 {
    let c = (theta / 2.0).cos();
    let s = (theta / 2.0).sin();
    Matrix2::new([
        [C64::real(c), C64::exp_i(lam).scale(-s)],
        [C64::exp_i(phi).scale(s), C64::exp_i(phi + lam).scale(c)],
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassc_math::Matrix4;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn names_and_arities() {
        assert_eq!(Gate::Cx.name(), "cx");
        assert_eq!(Gate::Rz(0.3).name(), "rz");
        assert_eq!(Gate::Ccx.num_qubits(), 3);
        assert_eq!(Gate::Barrier(5).num_qubits(), 5);
        assert_eq!(Gate::U(0.1, 0.2, 0.3).params(), vec![0.1, 0.2, 0.3]);
    }

    #[test]
    fn self_inverse_classification() {
        assert!(Gate::X.is_self_inverse());
        assert!(Gate::Cz.is_self_inverse());
        assert!(!Gate::S.is_self_inverse());
        assert!(!Gate::Rz(0.5).is_self_inverse());
    }

    #[test]
    fn gate_inverses_multiply_to_identity_1q() {
        let gates = [
            Gate::S,
            Gate::T,
            Gate::Sx,
            Gate::Rx(0.37),
            Gate::Ry(-1.2),
            Gate::Rz(2.1),
            Gate::Phase(0.9),
            Gate::U(0.5, 1.1, -0.3),
        ];
        for g in gates {
            let m = g.matrix2().unwrap();
            let mi = g.inverse().matrix2().unwrap();
            assert!(
                m.mul(&mi)
                    .approx_eq_up_to_phase(&Matrix2::identity(), 1e-10),
                "{} inverse failed",
                g.name()
            );
        }
    }

    #[test]
    fn gate_inverses_multiply_to_identity_2q() {
        let gates = [
            Gate::Crx(0.7),
            Gate::Cp(1.3),
            Gate::Rzz(0.4),
            Gate::Rxx(-0.8),
        ];
        for g in gates {
            let m = g.matrix4().unwrap();
            let mi = g.inverse().matrix4().unwrap();
            assert!(
                m.mul(&mi)
                    .approx_eq_up_to_phase(&Matrix4::identity(), 1e-10),
                "{} inverse failed",
                g.name()
            );
        }
    }

    #[test]
    fn matrices_are_unitary() {
        let one_q = [
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::T,
            Gate::Sx,
            Gate::Sxdg,
            Gate::Rx(0.3),
            Gate::Ry(0.3),
            Gate::Rz(0.3),
            Gate::Phase(0.3),
            Gate::U(1.0, 2.0, 3.0),
        ];
        for g in one_q {
            assert!(g.matrix2().unwrap().is_unitary(1e-10), "{}", g.name());
        }
        let two_q = [
            Gate::Cx,
            Gate::Cy,
            Gate::Cz,
            Gate::Ch,
            Gate::Swap,
            Gate::Crx(0.4),
            Gate::Cp(0.4),
            Gate::Rxx(0.4),
            Gate::Rzz(0.4),
        ];
        for g in two_q {
            assert!(g.matrix4().unwrap().is_unitary(1e-10), "{}", g.name());
        }
    }

    #[test]
    fn u_gate_special_cases() {
        // U(0,0,λ) == Phase(λ) up to phase, U(π/2,0,π) == H up to phase.
        let p = Gate::U(0.0, 0.0, 0.7).matrix2().unwrap();
        assert!(p.approx_eq_up_to_phase(&Gate::Phase(0.7).matrix2().unwrap(), 1e-10));
        let h = Gate::U(FRAC_PI_2, 0.0, std::f64::consts::PI)
            .matrix2()
            .unwrap();
        assert!(h.approx_eq_up_to_phase(&Matrix2::hadamard(), 1e-10));
    }

    #[test]
    fn sx_squares_to_x() {
        let sx = Gate::Sx.matrix2().unwrap();
        assert!(sx
            .mul(&sx)
            .approx_eq_up_to_phase(&Matrix2::pauli_x(), 1e-10));
    }

    #[test]
    fn cz_is_symmetric_under_qubit_swap() {
        let cz = Gate::Cz.matrix4().unwrap();
        assert!(cz.approx_eq(&cz.swap_qubits(), 1e-12));
        let cx = Gate::Cx.matrix4().unwrap();
        assert!(!cx.approx_eq(&cx.swap_qubits(), 1e-12));
    }

    #[test]
    fn ibm_basis_membership() {
        assert!(Gate::Rz(0.2).in_ibm_basis());
        assert!(Gate::Cx.in_ibm_basis());
        assert!(!Gate::H.in_ibm_basis());
        assert!(!Gate::Swap.in_ibm_basis());
    }
}

//! Two-qubit Weyl (KAK) decomposition.
//!
//! Every two-qubit unitary `U` factors as
//!
//! ```text
//! U = e^{iφ} · (K1l ⊗ K1r) · exp(i(α·XX + β·YY + γ·ZZ)) · (K2l ⊗ K2r)
//! ```
//!
//! with single-qubit `K` factors. The interaction angles `(α, β, γ)` carry
//! all the entangling content and determine how many CNOTs a re-synthesis of
//! `U` needs — the quantity NASSC's `C_2q` cost term is built on.
//!
//! The algorithm follows the standard magic-basis procedure: transform into
//! the magic basis, diagonalise `M = UᵀU` with a real orthogonal matrix
//! (simultaneously diagonalising its commuting real and imaginary parts),
//! recover the interaction angles from the eigenphases, and read the local
//! factors off the orthogonal diagonaliser. It runs in two stages: the
//! *angle stage* ends at the reduced interaction angles, which is all a CNOT
//! count needs, and allocates nothing unless it fails; the *factor stage*
//! splits the local factors and verifies the reconstruction.
//! [`crate::two_qubit_cnot_cost`] runs the first stage only,
//! [`WeylDecomposition::new`] runs both, so the two agree on every angle bit
//! for bit.

use nassc_math::eigen::{jacobi_eigen, RealMatrix};
use nassc_math::{Matrix2, Matrix4, C64};
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};
use std::fmt;

use crate::local::{from_magic, interaction_matrix, magic_signatures, split_kron, to_magic};

/// Numerical tolerance for the decomposition internals.
const TOL: f64 = 1e-9;

/// Threshold below which an interaction angle is treated as absent, shared
/// with the circuit emission so counts and emitted CNOTs agree.
pub(crate) const ANGLE_TOL: f64 = 1e-7;

/// Mixing angles `r` tried, in order, for diagonalising
/// `cos(r)·Re(M) + sin(r)·Im(M)`; the first generic one wins.
const MIXING_ANGLES: [f64; 7] = [
    0.614_352_1,
    1.170_313,
    0.0,
    2.035_77,
    0.333_33,
    std::f64::consts::E,
    FRAC_PI_2,
];

/// Error returned when a two-qubit decomposition cannot be computed.
#[derive(Debug, Clone, PartialEq)]
pub struct DecomposeUnitaryError {
    message: String,
}

impl DecomposeUnitaryError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for DecomposeUnitaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "two-qubit decomposition failed: {}", self.message)
    }
}

impl std::error::Error for DecomposeUnitaryError {}

/// The result of a Weyl decomposition of a two-qubit unitary.
///
/// The reconstruction identity is
/// `U = e^{i·phase} · (k1l ⊗ k1r) · exp(i(αXX + βYY + γZZ)) · (k2l ⊗ k2r)`,
/// where the `l` factors act on qubit 1 (the more significant bit of the
/// matrix basis) and the `r` factors on qubit 0.
///
/// The interaction angles are reduced to `(-π/2, π/2]` with exact ±π/2
/// interactions folded into the local factors, so an angle is (numerically)
/// zero exactly when the corresponding axis carries no entangling content.
#[derive(Debug, Clone)]
pub struct WeylDecomposition {
    /// Global phase φ.
    pub phase: f64,
    /// Left local factor on qubit 1.
    pub k1l: Matrix2,
    /// Left local factor on qubit 0.
    pub k1r: Matrix2,
    /// Right local factor on qubit 1.
    pub k2l: Matrix2,
    /// Right local factor on qubit 0.
    pub k2r: Matrix2,
    /// XX interaction angle.
    pub alpha: f64,
    /// YY interaction angle.
    pub beta: f64,
    /// ZZ interaction angle.
    pub gamma: f64,
}

impl WeylDecomposition {
    /// Decomposes a two-qubit unitary.
    ///
    /// # Errors
    ///
    /// Returns an error when the input is not unitary or the numerical
    /// procedure fails to converge (which the retry loop makes vanishingly
    /// rare).
    pub fn new(u: &Matrix4) -> Result<Self, DecomposeUnitaryError> {
        AngleStage::new(u)?.factor(u)
    }

    /// The canonical interaction matrix `exp(i(αXX + βYY + γZZ))` of this
    /// decomposition.
    pub fn canonical_matrix(&self) -> Matrix4 {
        interaction_matrix(self.alpha, self.beta, self.gamma)
    }

    /// Rebuilds the original unitary from the factors.
    pub fn reconstruct(&self) -> Matrix4 {
        let k1 = self.k1l.kron(&self.k1r);
        let k2 = self.k2l.kron(&self.k2r);
        k1.mul(&self.canonical_matrix())
            .mul(&k2)
            .scale(C64::exp_i(self.phase))
    }

    /// The interaction angles `(α, β, γ)`.
    pub fn interaction_angles(&self) -> (f64, f64, f64) {
        (self.alpha, self.beta, self.gamma)
    }

    /// The number of interaction axes with non-negligible angles (0–3). This
    /// equals the CNOT count of the re-synthesis this crate emits, except for
    /// the single-axis ±π/4 case which needs only one CNOT.
    pub fn entangling_axes(&self) -> usize {
        entangling_axes([self.alpha, self.beta, self.gamma])
    }

    /// The number of CNOTs [`crate::synthesize_two_qubit`] will emit for this
    /// operator.
    pub fn cnot_cost(&self) -> usize {
        cnot_cost([self.alpha, self.beta, self.gamma])
    }

    /// Recomputes the global phase by comparing the reconstruction against
    /// the original matrix, verifying the decomposition along the way.
    fn fix_phase(&mut self, original: &Matrix4) -> Result<(), DecomposeUnitaryError> {
        self.phase = 0.0;
        let rebuilt = self.reconstruct();
        // Find the largest entry to estimate the phase.
        let mut best = (0, 0);
        let mut best_norm = -1.0;
        for r in 0..4 {
            for c in 0..4 {
                if rebuilt.get(r, c).norm_sqr() > best_norm {
                    best_norm = rebuilt.get(r, c).norm_sqr();
                    best = (r, c);
                }
            }
        }
        let ratio = original.get(best.0, best.1) / rebuilt.get(best.0, best.1);
        self.phase = ratio.arg();
        let adjusted = self.reconstruct();
        if adjusted.approx_eq(original, 1e-6) {
            Ok(())
        } else {
            Err(DecomposeUnitaryError::new(
                "reconstruction does not match the input",
            ))
        }
    }
}

/// The angle stage of a decomposition: everything up to the reduced
/// interaction angles, on the stack.
pub(crate) struct AngleStage {
    /// The orthogonal diagonaliser `P` of the magic-basis Gram matrix.
    p: RealMatrix,
    /// `K̂1 = Um · P · diag(e^{-iθ})`, the left factor in the magic basis.
    k1_hat: Matrix4,
    /// The interaction angles `(α, β, γ)`, reduced to `(-π/2, π/2]`.
    angles: [f64; 3],
    /// Axes whose exact π/2 interaction is local and folds into `K1`.
    folded: [bool; 3],
}

impl AngleStage {
    /// Runs the angle stage on `u`.
    pub(crate) fn new(u: &Matrix4) -> Result<Self, DecomposeUnitaryError> {
        if !u.is_unitary(1e-7) {
            return Err(DecomposeUnitaryError::new("input matrix is not unitary"));
        }

        // Normalise to SU(4) and move to the magic basis.
        let det = u.det();
        let phase0 = det.arg() / 4.0;
        let u_su = u.scale(C64::exp_i(-phase0));
        let um = to_magic(&u_su);
        let m2 = um.transpose().mul(&um);

        // Split M2 into commuting real symmetric parts.
        let mut re = RealMatrix::zeros();
        let mut im = RealMatrix::zeros();
        for r in 0..4 {
            for c in 0..4 {
                re.set(r, c, m2.get(r, c).re);
                im.set(r, c, m2.get(r, c).im);
            }
        }
        // Symmetrise away numerical noise.
        for m in [&mut re, &mut im] {
            for r in 0..4 {
                for c in (r + 1)..4 {
                    let avg = 0.5 * (m.get(r, c) + m.get(c, r));
                    m.set(r, c, avg);
                    m.set(c, r, avg);
                }
            }
        }

        // Diagonalise cos(r)·Re + sin(r)·Im for a generic mixing angle; for a
        // generic angle the eigenvalues are simple and the eigenvectors
        // diagonalise both parts simultaneously.
        let mut p = MIXING_ANGLES
            .iter()
            .find_map(|&ang| {
                let (cos, sin) = (ang.cos(), ang.sin());
                let mut mix = RealMatrix::zeros();
                for r in 0..4 {
                    for c in 0..4 {
                        mix.set(r, c, cos * re.get(r, c) + sin * im.get(r, c));
                    }
                }
                let p = jacobi_eigen(&mix).vectors;
                is_simultaneous_diagonalizer(&p, &re, &im, 1e-7).then_some(p)
            })
            .ok_or_else(|| {
                DecomposeUnitaryError::new(
                    "failed to simultaneously diagonalize the magic-basis Gram matrix",
                )
            })?;

        // Force det(P) = +1 so that P corresponds to a local unitary.
        if p.det() < 0.0 {
            for r in 0..4 {
                p.set(r, 0, -p.get(r, 0));
            }
        }

        // Eigenphases of M2 on the diagonal of Pᵀ M2 P.
        let mut theta = [0.0_f64; 4];
        for (j, th) in theta.iter_mut().enumerate() {
            let mut acc = C64::zero();
            for r in 0..4 {
                for c in 0..4 {
                    acc += m2.get(r, c).scale(p.get(r, j) * p.get(c, j));
                }
            }
            *th = acc.arg() / 2.0;
        }

        // Fix the half-angle branch parity: the left local factor lies in
        // SO(4) (i.e. is a tensor product of single-qubit gates) only when
        // the eigenphases sum to 0 mod 2π. Flipping one branch by π toggles
        // the parity without affecting anything else.
        let phase_sum = C64::exp_i(theta.iter().sum::<f64>());
        if (phase_sum - C64::one()).abs() > 0.5 {
            theta[0] += PI;
        }
        let k1_hat = left_factor(&um, &p, &theta);
        let k1_imag = max_imag(&k1_hat);
        if k1_imag > 1e-6 {
            return Err(DecomposeUnitaryError::new(format!(
                "left local factor is not real (residual {k1_imag:.2e})"
            )));
        }

        // Solve the interaction angles from the eigenphases using the fixed
        // magic-basis signatures of XX, YY, ZZ (a consistent 4×3 linear
        // system once the mean eigenphase is moved into the global phase).
        let mean = theta.iter().sum::<f64>() / 4.0;
        let centred = theta.map(|t| t - mean);
        let mut angles =
            solve_interaction_angles(&centred, &magic_signatures()).ok_or_else(|| {
                DecomposeUnitaryError::new("eigenphases are inconsistent with XX/YY/ZZ axes")
            })?;

        // Reduce each angle into (-π/2, π/2]; an exact π/2 interaction is
        // local up to phase, so its axis is zeroed and folded into K1.
        let mut folded = [false; 3];
        for (angle, fold) in angles.iter_mut().zip(&mut folded) {
            while *angle > FRAC_PI_2 + TOL {
                *angle -= PI;
            }
            while *angle <= -FRAC_PI_2 + TOL {
                *angle += PI;
            }
            if (*angle - FRAC_PI_2).abs() < 1e-9 {
                *fold = true;
                *angle = 0.0;
            }
        }
        Ok(Self {
            p,
            k1_hat,
            angles,
            folded,
        })
    }

    /// The number of CNOTs [`crate::synthesize_two_qubit`] will emit.
    pub(crate) fn cnot_cost(&self) -> usize {
        cnot_cost(self.angles)
    }

    /// The factor stage: local factors, π/2 folding, global phase and the
    /// reconstruction check against `u`.
    fn factor(self, u: &Matrix4) -> Result<WeylDecomposition, DecomposeUnitaryError> {
        // Local factors: K̂2 = Pᵀ, K̂1 = Um · P · diag(e^{-iθ}).
        let k1 = from_magic(&realify(&self.k1_hat));
        let mut k2_hat = Matrix4::identity();
        for r in 0..4 {
            for c in 0..4 {
                k2_hat.set(r, c, C64::real(self.p.get(c, r)));
            }
        }
        let k2 = from_magic(&k2_hat);

        let (mut k1l, mut k1r) = split_kron(&k1, 1e-6).ok_or_else(|| {
            DecomposeUnitaryError::new("left local factor is not a tensor product")
        })?;
        let (k2l, k2r) = split_kron(&k2, 1e-6).ok_or_else(|| {
            DecomposeUnitaryError::new("right local factor is not a tensor product")
        })?;

        // exp(i·π/2·PP) = i·(P⊗P): absorb the Paulis of folded axes into K1.
        let paulis = [Matrix2::pauli_x(), Matrix2::pauli_y(), Matrix2::pauli_z()];
        for (pauli, _) in paulis.iter().zip(self.folded).filter(|(_, fold)| *fold) {
            k1l = k1l.mul(pauli);
            k1r = k1r.mul(pauli);
        }

        let [alpha, beta, gamma] = self.angles;
        let mut decomposition = WeylDecomposition {
            phase: 0.0,
            k1l,
            k1r,
            k2l,
            k2r,
            alpha,
            beta,
            gamma,
        };
        decomposition.fix_phase(u)?;
        Ok(decomposition)
    }
}

/// The number of reduced interaction angles that are non-negligible.
fn entangling_axes(angles: [f64; 3]) -> usize {
    angles.iter().filter(|a| a.abs() > ANGLE_TOL).count()
}

/// The CNOT count of the re-synthesis for reduced interaction angles: none
/// for local operators, one for a single ±π/4 axis, two when an axis
/// vanishes, three otherwise.
fn cnot_cost(angles: [f64; 3]) -> usize {
    match entangling_axes(angles) {
        0 => 0,
        1 => {
            let angle = angles
                .into_iter()
                .find(|a| a.abs() > ANGLE_TOL)
                .expect("one non-zero axis");
            if (angle.abs() - FRAC_PI_4).abs() < ANGLE_TOL {
                1
            } else {
                2
            }
        }
        2 => 2,
        _ => 3,
    }
}

/// `K̂1 = Um · P · diag(e^{-iθ})` in the magic basis.
fn left_factor(um: &Matrix4, p: &RealMatrix, theta: &[f64; 4]) -> Matrix4 {
    let mut out = Matrix4::identity();
    for r in 0..4 {
        for (c, th) in theta.iter().enumerate() {
            let mut acc = C64::zero();
            for k in 0..4 {
                acc += um.get(r, k).scale(p.get(k, c));
            }
            out.set(r, c, acc * C64::exp_i(-th));
        }
    }
    out
}

/// The largest imaginary component of any entry.
fn max_imag(m: &Matrix4) -> f64 {
    let mut worst: f64 = 0.0;
    for r in 0..4 {
        for c in 0..4 {
            worst = worst.max(m.get(r, c).im.abs());
        }
    }
    worst
}

/// Drops (numerically negligible) imaginary parts.
fn realify(m: &Matrix4) -> Matrix4 {
    let mut out = *m;
    for r in 0..4 {
        for c in 0..4 {
            out.set(r, c, C64::real(m.get(r, c).re));
        }
    }
    out
}

/// Checks that `P` diagonalises both symmetric matrices.
fn is_simultaneous_diagonalizer(p: &RealMatrix, a: &RealMatrix, b: &RealMatrix, tol: f64) -> bool {
    [a, b]
        .into_iter()
        .all(|m| p.transpose().mul(m).mul(p).max_off_diagonal() <= tol)
}

/// Solves `θ_j ≈ α·s_xx[j] + β·s_yy[j] + γ·s_zz[j]` for the three angles.
fn solve_interaction_angles(theta: &[f64; 4], sigs: &[[f64; 4]; 3]) -> Option<[f64; 3]> {
    // Normal equations of the 4×3 least-squares system; the signature rows
    // are orthogonal (they are distinct non-trivial ±1 patterns summing to
    // zero), so the system is diagonal: coefficient = <θ, s> / 4.
    let angles = sigs.map(|s| theta.iter().zip(s.iter()).map(|(t, x)| t * x).sum::<f64>() / 4.0);
    // Verify the residual: the centred eigenphases must be fully explained.
    for j in 0..4 {
        let model = angles[0] * sigs[0][j] + angles[1] * sigs[1][j] + angles[2] * sigs[2][j];
        let residual = (theta[j] - model).rem_euclid(2.0 * PI);
        let residual = residual.min(2.0 * PI - residual);
        if residual > 1e-5 {
            return None;
        }
    }
    Some(angles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassc_circuit::Gate;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_local(rng: &mut StdRng) -> Matrix2 {
        Gate::U(
            rng.gen_range(0.0..std::f64::consts::PI),
            rng.gen_range(-3.0..3.0),
            rng.gen_range(-3.0..3.0),
        )
        .matrix2()
        .unwrap()
    }

    fn random_two_qubit(rng: &mut StdRng) -> Matrix4 {
        // Random locals sandwiching a random interaction cover the whole
        // two-qubit group.
        let k1 = random_local(rng).kron(&random_local(rng));
        let k2 = random_local(rng).kron(&random_local(rng));
        let a = interaction_matrix(
            rng.gen_range(-1.5..1.5),
            rng.gen_range(-1.5..1.5),
            rng.gen_range(-1.5..1.5),
        );
        k1.mul(&a)
            .mul(&k2)
            .scale(C64::exp_i(rng.gen_range(-3.0..3.0)))
    }

    #[test]
    fn decomposes_named_gates() {
        for (gate, axes) in [
            (Gate::Cx, 1),
            (Gate::Cz, 1),
            (Gate::Swap, 3),
            (Gate::Crx(0.8), 1),
            (Gate::Rzz(0.6), 1),
        ] {
            let m = gate.matrix4().unwrap();
            let d = WeylDecomposition::new(&m).unwrap_or_else(|e| panic!("{}: {e}", gate.name()));
            assert!(
                d.reconstruct().approx_eq(&m, 1e-7),
                "{} reconstruction",
                gate.name()
            );
            assert_eq!(d.entangling_axes(), axes, "{} axes", gate.name());
        }
    }

    #[test]
    fn cnot_costs_of_named_gates() {
        let cases = [
            (Matrix4::identity(), 0),
            (Gate::Cx.matrix4().unwrap(), 1),
            (Gate::Cz.matrix4().unwrap(), 1),
            (Gate::Crx(0.8).matrix4().unwrap(), 2),
            (Gate::Swap.matrix4().unwrap(), 3),
            // SWAP·CX is the paper's Figure 1 example: only 2 CNOTs needed.
            (Matrix4::swap().mul(&Matrix4::cnot()), 2),
        ];
        for (m, expected) in cases {
            let d = WeylDecomposition::new(&m).unwrap();
            assert_eq!(d.cnot_cost(), expected);
        }
    }

    #[test]
    fn local_gate_has_no_entangling_axes() {
        let m = Gate::H.matrix2().unwrap().kron(&Gate::T.matrix2().unwrap());
        let d = WeylDecomposition::new(&m).unwrap();
        assert_eq!(d.entangling_axes(), 0);
        assert!(d.reconstruct().approx_eq(&m, 1e-7));
    }

    #[test]
    fn random_unitaries_reconstruct() {
        let mut rng = StdRng::seed_from_u64(42);
        for i in 0..120 {
            let m = random_two_qubit(&mut rng);
            let d = WeylDecomposition::new(&m).unwrap_or_else(|e| panic!("case {i}: {e}"));
            assert!(
                d.reconstruct().approx_eq(&m, 1e-6),
                "case {i} reconstruction failed"
            );
            assert!(d.alpha.abs() <= std::f64::consts::FRAC_PI_2 + 1e-9);
            assert!(d.beta.abs() <= std::f64::consts::FRAC_PI_2 + 1e-9);
            assert!(d.gamma.abs() <= std::f64::consts::FRAC_PI_2 + 1e-9);
        }
    }

    #[test]
    fn products_of_circuit_gates_reconstruct() {
        // Matrices that arise from real blocks (SWAP followed by CNOT and
        // locals) — the exact shapes NASSC re-synthesises.
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..60 {
            let mut m = Matrix4::identity();
            for _ in 0..6 {
                let pick: u8 = rng.gen_range(0..4);
                let factor = match pick {
                    0 => Matrix4::cnot(),
                    1 => Matrix4::swap(),
                    2 => random_local(&mut rng).kron(&Matrix2::identity()),
                    _ => Matrix2::identity().kron(&random_local(&mut rng)),
                };
                m = factor.mul(&m);
            }
            let d = WeylDecomposition::new(&m).unwrap();
            assert!(d.reconstruct().approx_eq(&m, 1e-6));
            assert!(d.cnot_cost() <= 3);
        }
    }

    #[test]
    fn non_unitary_input_is_rejected() {
        let mut m = Matrix4::identity();
        m.set(0, 0, C64::real(2.0));
        assert!(WeylDecomposition::new(&m).is_err());
    }

    #[test]
    fn error_type_displays() {
        let err = DecomposeUnitaryError {
            message: "boom".into(),
        };
        assert!(format!("{err}").contains("boom"));
    }
}

//! Fixed-size square complex matrices.
//!
//! The quantum stack manipulates only one- and two-qubit operators, so one
//! stack-allocated `N×N` type serves both sizes: every operation they share
//! is written once for [`Matrix<N>`], and what only one size has lives on
//! its alias, [`Matrix2`] or [`Matrix4`]. The global-phase rule,
//! [`global_phase`] and [`approx_eq_up_to_phase`], works on entry slices, so
//! whole-circuit unitaries of any size share it.

use crate::complex::C64;

/// A dense `N×N` complex matrix, stored row-major on the stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Matrix<const N: usize> {
    data: [[C64; N]; N],
}

/// A 2×2 complex matrix (a single-qubit operator).
///
/// # Example
///
/// ```
/// use nassc_math::Matrix2;
///
/// let x = Matrix2::pauli_x();
/// assert!(x.mul(&x).approx_eq(&Matrix2::identity(), 1e-12));
/// ```
pub type Matrix2 = Matrix<2>;

/// A 4×4 complex matrix (a two-qubit operator).
///
/// # Example
///
/// ```
/// use nassc_math::Matrix4;
///
/// let cx = Matrix4::cnot();
/// assert!(cx.mul(&cx).approx_eq(&Matrix4::identity(), 1e-12));
/// ```
pub type Matrix4 = Matrix<4>;

impl<const N: usize> Matrix<N> {
    /// Builds a matrix from rows.
    pub const fn new(data: [[C64; N]; N]) -> Self {
        Self { data }
    }

    /// The identity.
    pub fn identity() -> Self {
        let mut data = [[C64::zero(); N]; N];
        for (i, row) in data.iter_mut().enumerate() {
            row[i] = C64::one();
        }
        Self::new(data)
    }

    /// Element access.
    pub fn get(&self, row: usize, col: usize) -> C64 {
        self.data[row][col]
    }

    /// Mutable element access.
    pub fn set(&mut self, row: usize, col: usize, value: C64) {
        self.data[row][col] = value;
    }

    /// The entries, row by row.
    pub fn entries(&self) -> &[C64] {
        self.data.as_flattened()
    }

    /// Matrix product `self * rhs`.
    pub fn mul(&self, rhs: &Self) -> Self {
        let mut out = [[C64::zero(); N]; N];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                let mut acc = C64::zero();
                for k in 0..N {
                    acc += self.data[i][k] * rhs.data[k][j];
                }
                *cell = acc;
            }
        }
        Self::new(out)
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> Self {
        self.transpose_map(C64::conj)
    }

    /// Transpose (no conjugation).
    pub fn transpose(&self) -> Self {
        self.transpose_map(|c| c)
    }

    /// The transpose with `f` applied to every entry.
    fn transpose_map(&self, f: impl Fn(C64) -> C64) -> Self {
        let mut out = [[C64::zero(); N]; N];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = f(self.data[j][i]);
            }
        }
        Self::new(out)
    }

    /// Multiplies every entry by a complex scalar.
    pub fn scale(&self, s: C64) -> Self {
        let mut out = self.data;
        for row in &mut out {
            for cell in row.iter_mut() {
                *cell *= s;
            }
        }
        Self::new(out)
    }

    /// Entry-wise comparison within `tol`.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.data
            .iter()
            .flatten()
            .zip(other.data.iter().flatten())
            .all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// Comparison that ignores a global phase factor: `self ≈ p · other`
    /// for some `p` of modulus 1 (see [`approx_eq_up_to_phase`]).
    pub fn approx_eq_up_to_phase(&self, other: &Self, tol: f64) -> bool {
        approx_eq_up_to_phase(self.entries(), other.entries(), tol)
    }

    /// Returns `true` when `self * self† ≈ I`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        self.mul(&self.adjoint()).approx_eq(&Self::identity(), tol)
    }
}

/// The global phase `p` with `target ≈ p · reference`, for two matrices'
/// entries listed in the same order: the ratio of the entries where
/// `reference` has its largest one (the first of equals; a NaN entry is
/// never the largest). A reference whose largest entry is within `tol` of
/// zero, or that has none, gives phase 1.
pub fn global_phase(target: &[C64], reference: &[C64], tol: f64) -> C64 {
    let mut largest = None;
    let mut largest_norm = -1.0;
    for (&a, &b) in target.iter().zip(reference) {
        if b.norm_sqr() > largest_norm {
            largest = Some((a, b));
            largest_norm = b.norm_sqr();
        }
    }
    match largest {
        Some((a, b)) if b.abs() > tol => a / b,
        _ => C64::one(),
    }
}

/// Whether `target ≈ p · reference` entry-wise within `tol`, `p` being the
/// [`global_phase`] between them. A `p` whose modulus is more than 1e-6
/// from 1 is a scaling, not a phase, and slices of different lengths never
/// match.
pub fn approx_eq_up_to_phase(target: &[C64], reference: &[C64], tol: f64) -> bool {
    if target.len() != reference.len() {
        return false;
    }
    let phase = global_phase(target, reference, tol);
    (phase.abs() - 1.0).abs() <= 1e-6
        && target
            .iter()
            .zip(reference)
            .all(|(a, b)| a.approx_eq(*b * phase, tol))
}

impl Matrix2 {
    /// The Pauli-X matrix.
    pub fn pauli_x() -> Self {
        Self::new([[C64::zero(), C64::one()], [C64::one(), C64::zero()]])
    }

    /// The Pauli-Y matrix.
    pub fn pauli_y() -> Self {
        Self::new([
            [C64::zero(), C64::new(0.0, -1.0)],
            [C64::new(0.0, 1.0), C64::zero()],
        ])
    }

    /// The Pauli-Z matrix.
    pub fn pauli_z() -> Self {
        Self::new([[C64::one(), C64::zero()], [C64::zero(), C64::real(-1.0)]])
    }

    /// The Hadamard matrix.
    pub fn hadamard() -> Self {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        Self::new([[C64::real(s), C64::real(s)], [C64::real(s), C64::real(-s)]])
    }

    /// Determinant.
    pub fn det(&self) -> C64 {
        self.data[0][0] * self.data[1][1] - self.data[0][1] * self.data[1][0]
    }

    /// Kronecker product producing a 4×4 matrix. `self` acts on the most
    /// significant qubit of the pair.
    pub fn kron(&self, rhs: &Matrix2) -> Matrix4 {
        let mut out = [[C64::zero(); 4]; 4];
        for i in 0..2 {
            for j in 0..2 {
                for k in 0..2 {
                    for l in 0..2 {
                        out[2 * i + k][2 * j + l] = self.data[i][j] * rhs.data[k][l];
                    }
                }
            }
        }
        Matrix4::new(out)
    }
}

impl Matrix4 {
    /// The CNOT matrix with qubit 0 (least significant) as control and
    /// qubit 1 as target, in little-endian ordering `|q1 q0>`.
    pub fn cnot() -> Self {
        let o = C64::one();
        let z = C64::zero();
        // Basis order |00>, |01>, |10>, |11> with q0 least significant.
        // Control q0: |01> -> |11>, |11> -> |01>.
        Self::new([[o, z, z, z], [z, z, z, o], [z, z, o, z], [z, o, z, z]])
    }

    /// The SWAP matrix.
    pub fn swap() -> Self {
        let o = C64::one();
        let z = C64::zero();
        Self::new([[o, z, z, z], [z, z, o, z], [z, o, z, z], [z, z, z, o]])
    }

    /// Determinant via cofactor expansion.
    pub fn det(&self) -> C64 {
        let m = &self.data;
        let det3 = |r: [usize; 3], c: [usize; 3]| -> C64 {
            m[r[0]][c[0]] * (m[r[1]][c[1]] * m[r[2]][c[2]] - m[r[1]][c[2]] * m[r[2]][c[1]])
                - m[r[0]][c[1]] * (m[r[1]][c[0]] * m[r[2]][c[2]] - m[r[1]][c[2]] * m[r[2]][c[0]])
                + m[r[0]][c[2]] * (m[r[1]][c[0]] * m[r[2]][c[1]] - m[r[1]][c[1]] * m[r[2]][c[0]])
        };
        let rows = [1, 2, 3];
        let cols = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]];
        let mut det = C64::zero();
        for j in 0..4 {
            let sign = if j % 2 == 0 { 1.0 } else { -1.0 };
            det += m[0][j] * det3(rows, cols[j]).scale(sign);
        }
        det
    }

    /// Reinterprets the matrix with the two qubits exchanged (conjugation by
    /// SWAP). Useful for mapping little-endian conventions.
    pub fn swap_qubits(&self) -> Matrix4 {
        let s = Matrix4::swap();
        s.mul(self).mul(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The operations both sizes share, checked on a set of unitaries.
    fn check_algebra<const N: usize>(unitaries: &[Matrix<N>]) {
        let id = Matrix::<N>::identity();
        for u in unitaries {
            assert!(u.is_unitary(1e-12));
            assert!(id.mul(u).approx_eq(u, 1e-12) && u.mul(&id).approx_eq(u, 1e-12));
            assert_eq!(u.adjoint().adjoint(), *u);
            assert_eq!(u.transpose().transpose(), *u);
            for i in 0..N {
                for j in 0..N {
                    assert_eq!(u.transpose().get(i, j), u.get(j, i));
                    assert_eq!(u.adjoint().get(i, j), u.get(j, i).conj());
                }
            }
            assert!(u.scale(C64::exp_i(0.7)).approx_eq_up_to_phase(u, 1e-12));
            for v in unitaries {
                let uv = u.mul(v);
                assert!(uv.is_unitary(1e-12));
                assert!(uv
                    .adjoint()
                    .approx_eq(&v.adjoint().mul(&u.adjoint()), 1e-12));
            }
        }
    }

    #[test]
    fn shared_algebra_holds_at_both_sizes() {
        let (x, y, z, h) = (
            Matrix2::pauli_x(),
            Matrix2::pauli_y(),
            Matrix2::pauli_z(),
            Matrix2::hadamard(),
        );
        check_algebra(&[x, y, z, h, h.mul(&y)]);
        let (cx, swap) = (Matrix4::cnot(), Matrix4::swap());
        check_algebra(&[
            cx,
            swap,
            h.kron(&y),
            x.kron(&h).mul(&cx),
            swap.mul(&z.kron(&h)),
        ]);
    }

    #[test]
    fn matrices_stay_unboxed_arrays() {
        assert_eq!(std::mem::size_of::<Matrix2>(), 64);
        assert_eq!(std::mem::size_of::<Matrix4>(), 256);
    }

    #[test]
    fn pauli_matrices_square_to_identity() {
        for m in [
            Matrix2::pauli_x(),
            Matrix2::pauli_y(),
            Matrix2::pauli_z(),
            Matrix2::hadamard(),
        ] {
            assert!(m.mul(&m).approx_eq(&Matrix2::identity(), 1e-12));
            assert!(m.is_unitary(1e-12));
        }
    }

    #[test]
    fn xy_equals_iz() {
        let xy = Matrix2::pauli_x().mul(&Matrix2::pauli_y());
        let iz = Matrix2::pauli_z().scale(C64::i());
        assert!(xy.approx_eq(&iz, 1e-12));
    }

    #[test]
    fn kron_identity_is_identity() {
        let id4 = Matrix2::identity().kron(&Matrix2::identity());
        assert!(id4.approx_eq(&Matrix4::identity(), 1e-12));
    }

    #[test]
    fn cnot_and_swap_are_unitary_involutions() {
        assert!(Matrix4::cnot().is_unitary(1e-12));
        assert!(Matrix4::swap().is_unitary(1e-12));
        assert!(Matrix4::cnot()
            .mul(&Matrix4::cnot())
            .approx_eq(&Matrix4::identity(), 1e-12));
        assert!(Matrix4::swap()
            .mul(&Matrix4::swap())
            .approx_eq(&Matrix4::identity(), 1e-12));
    }

    #[test]
    fn swap_from_three_cnots() {
        // SWAP = CX(0,1) CX(1,0) CX(0,1) where CX(1,0) = (H⊗H) CX (H⊗H).
        let cx01 = Matrix4::cnot();
        let hh = Matrix2::hadamard().kron(&Matrix2::hadamard());
        let cx10 = hh.mul(&cx01).mul(&hh);
        let swap = cx01.mul(&cx10).mul(&cx01);
        assert!(swap.approx_eq(&Matrix4::swap(), 1e-12));
    }

    #[test]
    fn determinant_of_unitary_has_modulus_one() {
        let m = Matrix2::hadamard()
            .kron(&Matrix2::pauli_y())
            .mul(&Matrix4::cnot());
        assert!((m.det().abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn phase_insensitive_comparison() {
        let m = Matrix4::cnot();
        let phased = m.scale(C64::exp_i(0.7));
        assert!(m.approx_eq_up_to_phase(&phased, 1e-12));
        assert!(!m.approx_eq(&phased, 1e-12));
        assert!(!m.approx_eq_up_to_phase(&Matrix4::swap(), 1e-9));
        // A scalar multiple whose modulus is not 1 is not a global phase.
        let id = Matrix2::identity();
        assert!(!id.approx_eq_up_to_phase(&id.scale(C64::real(2.0)), 1e-12));
        assert!(!m.approx_eq_up_to_phase(&m.scale(C64::new(0.0, 0.5)), 1e-12));
    }

    /// One rule for every size: 2×2, 4×4 and 8×8 unitaries as entry slices.
    #[test]
    fn the_phase_rule_holds_on_2x2_4x4_and_8x8_entries() {
        let h = Matrix2::hadamard();
        let hycx = h.kron(&Matrix2::pauli_y()).mul(&Matrix4::cnot());
        // H ⊗ hycx, row-major.
        let eight: Vec<C64> = (0..64)
            .map(|k| {
                let (row, col) = (k / 8, k % 8);
                h.get(row / 4, col / 4) * hycx.get(row % 4, col % 4)
            })
            .collect();
        let p = C64::exp_i(0.7);
        for entries in [h.entries().to_vec(), hycx.entries().to_vec(), eight] {
            let phased: Vec<C64> = entries.iter().map(|&e| e * p).collect();
            assert!(global_phase(&phased, &entries, 1e-12).approx_eq(p, 1e-12));
            assert!(approx_eq_up_to_phase(&phased, &entries, 1e-12));
            assert!(approx_eq_up_to_phase(&entries, &phased, 1e-12));
            // A scaled reference is not a phase away, in either direction.
            let scaled: Vec<C64> = entries.iter().map(|&e| e * 2.0).collect();
            assert!(!approx_eq_up_to_phase(&entries, &scaled, 1e-12));
            assert!(!approx_eq_up_to_phase(&scaled, &entries, 1e-12));
            // A NaN entry is never the largest, and never matches.
            let mut broken = entries.clone();
            broken[0] = C64::new(f64::NAN, 0.0);
            assert!(global_phase(&phased, &broken, 1e-12).approx_eq(p, 1e-12));
            assert!(!approx_eq_up_to_phase(&entries, &broken, 1e-12));
            assert!(!approx_eq_up_to_phase(&broken, &entries, 1e-12));
            // A near-zero reference compares at phase 1.
            let tiny = vec![C64::real(1e-13); entries.len()];
            let zero = vec![C64::zero(); entries.len()];
            assert_eq!(global_phase(&entries, &tiny, 1e-12), C64::one());
            assert!(approx_eq_up_to_phase(&tiny, &zero, 1e-12));
            assert!(approx_eq_up_to_phase(&zero, &tiny, 1e-12));
            assert!(!approx_eq_up_to_phase(&entries, &tiny, 1e-12));
            assert!(!approx_eq_up_to_phase(&entries, &entries[1..], 1e-12));
        }
        // The first of equal largest entries sets the phase.
        let diagonal = [C64::i(), C64::zero(), C64::zero(), C64::real(-1.0)];
        assert_eq!(
            global_phase(&diagonal, Matrix2::identity().entries(), 1e-12),
            C64::i()
        );
    }

    #[test]
    fn swap_qubits_conjugation() {
        // CNOT with control/target exchanged equals SWAP * CNOT * SWAP.
        let reversed = Matrix4::cnot().swap_qubits();
        let hh = Matrix2::hadamard().kron(&Matrix2::hadamard());
        let expected = hh.mul(&Matrix4::cnot()).mul(&hh);
        assert!(reversed.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn det4_matches_product_for_diagonal() {
        let mut d = Matrix4::identity();
        d.set(0, 0, C64::real(2.0));
        d.set(1, 1, C64::real(3.0));
        d.set(2, 2, C64::new(0.0, 1.0));
        d.set(3, 3, C64::real(-1.0));
        assert!(d.det().approx_eq(C64::new(0.0, -6.0), 1e-12));
    }
}

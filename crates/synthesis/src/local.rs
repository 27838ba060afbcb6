//! Helpers for local (tensor-product) structure of two-qubit operators:
//! the magic basis, Kronecker-factor extraction, and the canonical
//! interaction matrix `exp(i(αXX + βYY + γZZ))`.

use nassc_math::{Matrix2, Matrix4, C64};
use std::sync::OnceLock;

/// The magic-basis change-of-basis matrix `B`.
///
/// In the magic basis, local unitaries (`SU(2) ⊗ SU(2)`) become real
/// orthogonal matrices and the canonical two-qubit interactions become
/// diagonal — the key facts behind the Weyl (KAK) decomposition.
pub fn magic_basis() -> Matrix4 {
    let s = std::f64::consts::FRAC_1_SQRT_2;
    let z = C64::zero();
    let r = C64::real(s);
    let i = C64::new(0.0, s);
    Matrix4::new([[r, z, z, i], [z, i, r, z], [z, i, -r, z], [r, z, z, -i]])
}

/// Transforms a two-qubit operator into the magic basis: `B† · U · B`.
pub fn to_magic(u: &Matrix4) -> Matrix4 {
    let b = magic_basis();
    b.adjoint().mul(u).mul(&b)
}

/// Transforms a two-qubit operator out of the magic basis: `B · U · B†`.
pub fn from_magic(u: &Matrix4) -> Matrix4 {
    let b = magic_basis();
    b.mul(u).mul(&b.adjoint())
}

/// The Kronecker product `high ⊗ low`, with `high` acting on the more
/// significant qubit (qubit 1 of the pair) and `low` on qubit 0.
pub fn kron(high: &Matrix2, low: &Matrix2) -> Matrix4 {
    high.kron(low)
}

/// Splits a 4×4 operator that is (numerically) a Kronecker product into its
/// two 2×2 factors `(high, low)` with `high ⊗ low ≈ m`.
///
/// Any global phase is absorbed into the `high` factor. Returns `None` when
/// `m` is not a tensor product within `tol`.
pub fn split_kron(m: &Matrix4, tol: f64) -> Option<(Matrix2, Matrix2)> {
    // Blocks of m: m[2i+k][2j+l] = high[i][j] * low[k][l].
    let block = |i: usize, j: usize| -> Matrix2 {
        Matrix2::new([
            [m.get(2 * i, 2 * j), m.get(2 * i, 2 * j + 1)],
            [m.get(2 * i + 1, 2 * j), m.get(2 * i + 1, 2 * j + 1)],
        ])
    };
    // Find the block with the largest norm to serve as the low-factor seed.
    let mut best = (0, 0);
    let mut best_norm = -1.0;
    for i in 0..2 {
        for j in 0..2 {
            let b = block(i, j);
            let norm: f64 = (0..2)
                .flat_map(|r| (0..2).map(move |c| (r, c)))
                .map(|(r, c)| b.get(r, c).norm_sqr())
                .sum();
            if norm > best_norm {
                best_norm = norm;
                best = (i, j);
            }
        }
    }
    let seed = block(best.0, best.1);
    let det = seed.det();
    if det.abs() < 1e-12 {
        return None;
    }
    let low = seed.scale(C64::one() / det.sqrt());
    // high[i][j] = <low, block(i,j)> / 2 (blocks are high[i][j] * low).
    let mut high = Matrix2::identity();
    for i in 0..2 {
        for j in 0..2 {
            let b = block(i, j);
            let mut acc = C64::zero();
            for r in 0..2 {
                for c in 0..2 {
                    acc += b.get(r, c) * low.get(r, c).conj();
                }
            }
            high.set(i, j, acc / 2.0);
        }
    }
    let rebuilt = high.kron(&low);
    if rebuilt.approx_eq(m, tol) {
        Some((high, low))
    } else {
        None
    }
}

/// The canonical interaction matrix `exp(i(α·XX + β·YY + γ·ZZ))`.
///
/// The three generators commute, so the matrix is the product of the three
/// individual exponentials, each of which has the closed form
/// `cos(θ)·I + i·sin(θ)·P⊗P`.
pub fn interaction_matrix(alpha: f64, beta: f64, gamma: f64) -> Matrix4 {
    let xx = Matrix2::pauli_x().kron(&Matrix2::pauli_x());
    let yy = Matrix2::pauli_y().kron(&Matrix2::pauli_y());
    let zz = Matrix2::pauli_z().kron(&Matrix2::pauli_z());
    let expo = |theta: f64, pp: &Matrix4| -> Matrix4 {
        let id = Matrix4::identity();
        let mut out = Matrix4::identity();
        for r in 0..4 {
            for c in 0..4 {
                let v = id.get(r, c).scale(theta.cos()) + pp.get(r, c) * C64::new(0.0, theta.sin());
                out.set(r, c, v);
            }
        }
        out
    };
    expo(alpha, &xx)
        .mul(&expo(beta, &yy))
        .mul(&expo(gamma, &zz))
}

/// The diagonal signatures of `XX`, `YY`, `ZZ` in the magic basis.
///
/// Each is a vector of ±1 entries `s` such that `B†·(P⊗P)·B = diag(s)`.
/// Used to solve for the interaction angles from magic-basis eigenphases;
/// computed on the first call and cached.
pub fn magic_signatures() -> [[f64; 4]; 3] {
    static SIGNATURES: OnceLock<[[f64; 4]; 3]> = OnceLock::new();
    *SIGNATURES.get_or_init(|| {
        [Matrix2::pauli_x(), Matrix2::pauli_y(), Matrix2::pauli_z()].map(|p| {
            let m = to_magic(&p.kron(&p));
            std::array::from_fn(|j| m.get(j, j).re)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassc_circuit::Gate;

    #[test]
    fn magic_basis_is_unitary() {
        assert!(magic_basis().is_unitary(1e-12));
    }

    #[test]
    fn local_gates_become_real_orthogonal_in_magic_basis() {
        let u = Gate::Ry(0.7)
            .matrix2()
            .unwrap()
            .kron(&Gate::Rz(1.3).matrix2().unwrap());
        let m = to_magic(&u);
        for r in 0..4 {
            for c in 0..4 {
                assert!(m.get(r, c).im.abs() < 1e-10, "expected real entries");
            }
        }
        assert!(m.mul(&m.transpose()).approx_eq(&Matrix4::identity(), 1e-10));
    }

    #[test]
    fn pauli_pairs_are_diagonal_in_magic_basis() {
        for sig in magic_signatures() {
            // Every signature entry is ±1 and they sum to zero.
            for s in sig {
                assert!((s.abs() - 1.0).abs() < 1e-10);
            }
            assert!(sig.iter().sum::<f64>().abs() < 1e-10);
        }
        // The three signatures are distinct.
        let sigs = magic_signatures();
        assert_ne!(sigs[0], sigs[1]);
        assert_ne!(sigs[1], sigs[2]);
    }

    #[test]
    fn split_kron_roundtrips() {
        let a = Gate::U(0.3, 1.0, -0.4).matrix2().unwrap();
        let b = Gate::Ry(2.0).matrix2().unwrap();
        let m = a.kron(&b);
        let (high, low) = split_kron(&m, 1e-9).expect("is a product");
        assert!(high.kron(&low).approx_eq(&m, 1e-9));
    }

    #[test]
    fn split_kron_rejects_entangling_gates() {
        assert!(split_kron(&Matrix4::cnot(), 1e-9).is_none());
        assert!(split_kron(&Matrix4::swap(), 1e-9).is_none());
    }

    #[test]
    fn split_kron_absorbs_global_phase() {
        let a = Gate::H.matrix2().unwrap();
        let b = Gate::S.matrix2().unwrap();
        let m = a.kron(&b).scale(C64::exp_i(0.9));
        let (high, low) = split_kron(&m, 1e-9).expect("still a product");
        assert!(high.kron(&low).approx_eq(&m, 1e-9));
    }

    #[test]
    fn interaction_matrix_special_values() {
        // Zero angles give the identity.
        assert!(interaction_matrix(0.0, 0.0, 0.0).approx_eq(&Matrix4::identity(), 1e-12));
        // pi/2 on one axis is a local gate (X⊗X up to phase).
        let m = interaction_matrix(std::f64::consts::FRAC_PI_2, 0.0, 0.0);
        let xx = Matrix2::pauli_x().kron(&Matrix2::pauli_x());
        assert!(m.approx_eq_up_to_phase(&xx, 1e-10));
        // The SWAP gate is exp(i pi/4 (XX+YY+ZZ)) up to phase.
        let q = std::f64::consts::FRAC_PI_4;
        assert!(interaction_matrix(q, q, q).approx_eq_up_to_phase(&Matrix4::swap(), 1e-10));
    }

    #[test]
    fn interaction_matrix_is_unitary_and_symmetric_in_magic_basis() {
        let m = interaction_matrix(0.3, 0.2, -0.1);
        assert!(m.is_unitary(1e-10));
        let mm = to_magic(&m);
        // Diagonal in the magic basis.
        for r in 0..4 {
            for c in 0..4 {
                if r != c {
                    assert!(mm.get(r, c).abs() < 1e-10);
                }
            }
        }
    }
}

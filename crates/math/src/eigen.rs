//! Jacobi eigensolver for small real-symmetric matrices.
//!
//! The two-qubit Weyl (KAK) decomposition diagonalises the complex-symmetric
//! matrix `M = Uᵀ U` (in the magic basis) through a generic real mixture of
//! its commuting real and imaginary parts, both of which are real symmetric
//! 4×4 matrices. This module provides what that requires: [`RealMatrix`], a
//! 4×4 real matrix on the stack, and [`jacobi_eigen`], eigenvalues and an
//! orthonormal eigenbasis by cyclic Jacobi rotations. Neither allocates.

/// The dimension of every [`RealMatrix`].
pub const DIM: usize = 4;

/// A 4×4 dense real matrix stored row-major on the stack.
///
/// Only the handful of operations needed by the eigensolver are provided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RealMatrix {
    data: [f64; DIM * DIM],
}

impl RealMatrix {
    /// The zero matrix.
    pub fn zeros() -> Self {
        Self {
            data: [0.0; DIM * DIM],
        }
    }

    /// The identity matrix.
    pub fn identity() -> Self {
        let mut m = Self::zeros();
        for i in 0..DIM {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from row-major entries.
    pub fn from_rows(data: &[f64; DIM * DIM]) -> Self {
        Self { data: *data }
    }

    /// Element access.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * DIM + j]
    }

    /// Mutable element access.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * DIM + j] = v;
    }

    /// Matrix product.
    pub fn mul(&self, rhs: &RealMatrix) -> RealMatrix {
        let mut out = RealMatrix::zeros();
        for i in 0..DIM {
            for k in 0..DIM {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..DIM {
                    out.data[i * DIM + j] += a * rhs.get(k, j);
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> RealMatrix {
        let mut out = RealMatrix::zeros();
        for i in 0..DIM {
            for j in 0..DIM {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Returns `true` when the matrix is symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for i in 0..DIM {
            for j in (i + 1)..DIM {
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// The largest absolute off-diagonal entry.
    pub fn max_off_diagonal(&self) -> f64 {
        let mut m: f64 = 0.0;
        for i in 0..DIM {
            for j in 0..DIM {
                if i != j {
                    m = m.max(self.get(i, j).abs());
                }
            }
        }
        m
    }

    /// Determinant via LU decomposition with partial pivoting.
    pub fn det(&self) -> f64 {
        let mut a = *self;
        let mut det = 1.0;
        for col in 0..DIM {
            // Pivot.
            let mut pivot = col;
            for row in (col + 1)..DIM {
                if a.get(row, col).abs() > a.get(pivot, col).abs() {
                    pivot = row;
                }
            }
            if a.get(pivot, col).abs() < 1e-300 {
                return 0.0;
            }
            if pivot != col {
                for j in 0..DIM {
                    let tmp = a.get(col, j);
                    a.set(col, j, a.get(pivot, j));
                    a.set(pivot, j, tmp);
                }
                det = -det;
            }
            det *= a.get(col, col);
            for row in (col + 1)..DIM {
                let factor = a.get(row, col) / a.get(col, col);
                for j in col..DIM {
                    let v = a.get(row, j) - factor * a.get(col, j);
                    a.set(row, j, v);
                }
            }
        }
        det
    }
}

/// The result of a symmetric eigendecomposition: `matrix = V · diag(values) · Vᵀ`.
#[derive(Debug, Clone, Copy)]
pub struct Eigen {
    /// Eigenvalues, in the order matching the columns of `vectors`.
    pub values: [f64; DIM],
    /// Orthonormal eigenvectors stored as columns.
    pub vectors: RealMatrix,
}

/// Diagonalises a real symmetric matrix with the cyclic Jacobi method.
///
/// Returns eigenvalues and an orthonormal eigenvector matrix (columns are
/// eigenvectors). Eigenvalues are **not** sorted.
///
/// # Panics
///
/// Panics if the matrix is not symmetric within `1e-8`.
pub fn jacobi_eigen(matrix: &RealMatrix) -> Eigen {
    assert!(
        matrix.is_symmetric(1e-8),
        "jacobi_eigen requires a symmetric matrix"
    );
    let mut a = *matrix;
    let mut v = RealMatrix::identity();

    for _sweep in 0..100 {
        if a.max_off_diagonal() < 1e-14 {
            break;
        }
        for p in 0..DIM {
            for q in (p + 1)..DIM {
                let apq = a.get(p, q);
                if apq.abs() < 1e-15 {
                    continue;
                }
                let app = a.get(p, p);
                let aqq = a.get(q, q);
                // Standard Jacobi rotation angle: tan(2θ) = 2a_pq / (a_pp - a_qq)
                let phi = 0.5 * (2.0 * apq).atan2(app - aqq);
                let c = phi.cos();
                let s = phi.sin();
                // Apply rotation R(p,q,phi) on both sides: A' = Rᵀ A R.
                for k in 0..DIM {
                    let akp = a.get(k, p);
                    let akq = a.get(k, q);
                    a.set(k, p, c * akp + s * akq);
                    a.set(k, q, -s * akp + c * akq);
                }
                for k in 0..DIM {
                    let apk = a.get(p, k);
                    let aqk = a.get(q, k);
                    a.set(p, k, c * apk + s * aqk);
                    a.set(q, k, -s * apk + c * aqk);
                }
                for k in 0..DIM {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp + s * vkq);
                    v.set(k, q, -s * vkp + c * vkq);
                }
            }
        }
    }

    let values = std::array::from_fn(|i| a.get(i, i));
    Eigen { values, vectors: v }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(e: &Eigen) -> RealMatrix {
        let mut d = RealMatrix::zeros();
        for (i, &value) in e.values.iter().enumerate() {
            d.set(i, i, value);
        }
        e.vectors.mul(&d).mul(&e.vectors.transpose())
    }

    #[test]
    fn diagonalizes_simple_symmetric_matrix() {
        // A tridiagonal 3×3 block with a decoupled fourth eigenvalue.
        let m = RealMatrix::from_rows(&[
            2.0, 1.0, 0.0, 0.0, 1.0, 2.0, 1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 5.0,
        ]);
        let e = jacobi_eigen(&m);
        let r = reconstruct(&e);
        for i in 0..DIM {
            for j in 0..DIM {
                assert!((r.get(i, j) - m.get(i, j)).abs() < 1e-10);
            }
        }
        let mut values = e.values;
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let sqrt2 = std::f64::consts::SQRT_2;
        assert!((values[0] - (2.0 - sqrt2)).abs() < 1e-10);
        assert!((values[1] - 2.0).abs() < 1e-10);
        assert!((values[2] - (2.0 + sqrt2)).abs() < 1e-10);
        assert!((values[3] - 5.0).abs() < 1e-10);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m = RealMatrix::from_rows(&[
            4.0, 1.0, 0.5, 0.0, 1.0, 3.0, 0.0, 0.2, 0.5, 0.0, 2.0, 1.0, 0.0, 0.2, 1.0, 1.0,
        ]);
        let e = jacobi_eigen(&m);
        let vtv = e.vectors.transpose().mul(&e.vectors);
        for i in 0..DIM {
            for j in 0..DIM {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((vtv.get(i, j) - expected).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn determinant_of_rotation_is_one() {
        let m = RealMatrix::from_rows(&[
            2.0, 0.1, 0.0, 0.0, 0.1, 2.0, 0.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0, 4.0,
        ]);
        let e = jacobi_eigen(&m);
        assert!((e.vectors.det().abs() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn identity_is_fixed_point() {
        let id = RealMatrix::identity();
        let e = jacobi_eigen(&id);
        for v in &e.values {
            assert!((v - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn det_lu_matches_known_value() {
        // det of the 3×3 block [[1,2,3],[4,5,6],[7,8,10]] is -3; the unit
        // fourth diagonal entry leaves it unchanged.
        let m = RealMatrix::from_rows(&[
            1.0, 2.0, 3.0, 0.0, 4.0, 5.0, 6.0, 0.0, 7.0, 8.0, 10.0, 0.0, 0.0, 0.0, 0.0, 1.0,
        ]);
        assert!((m.det() - -3.0).abs() < 1e-10);
    }
}

//! Small complex linear-algebra toolkit for the NASSC reproduction.
//!
//! The quantum-circuit stack only ever needs 2×2 and 4×4 complex matrices
//! (single- and two-qubit unitaries), so everything here is fixed-size and
//! allocation-free. The crate provides:
//!
//! * [`C64`] — a minimal complex-number type (we avoid external crates),
//! * [`Matrix`](matrix::Matrix) — one dense `N×N` complex matrix type, used
//!   as its aliases [`Matrix2`] and [`Matrix4`], with the handful of
//!   operations the synthesis code needs (multiply, adjoint, transpose,
//!   Kronecker product, determinant, phase-insensitive comparison),
//! * [`eigen`] — a Jacobi eigensolver for small real-symmetric matrices, used
//!   by the two-qubit Weyl (KAK) decomposition.
//!
//! # Example
//!
//! ```
//! use nassc_math::{C64, Matrix2};
//!
//! let h = Matrix2::hadamard();
//! let hh = h.mul(&h);
//! assert!(hh.approx_eq(&Matrix2::identity(), 1e-12));
//! ```

pub mod complex;
pub mod eigen;
pub mod matrix;

pub use complex::C64;
pub use matrix::{Matrix2, Matrix4};

//! One- and two-qubit unitary synthesis for the NASSC reproduction.
//!
//! The transpiler's block re-synthesis (the optimization NASSC's `C_2q` cost
//! term anticipates) and its single-qubit optimization pass are built on the
//! decompositions in this crate:
//!
//! * [`OneQubitEulerDecomposer`] — ZYZ Euler angles and `{rz, sx, x}`-basis
//!   synthesis of single-qubit unitaries,
//! * [`WeylDecomposition`] — the two-qubit Weyl (KAK) decomposition, giving
//!   the interaction angles that determine the CNOT cost of any two-qubit
//!   operator,
//! * [`synthesize_two_qubit`] / [`two_qubit_cnot_cost`] — re-synthesis of a
//!   two-qubit unitary with 0–3 CNOTs, and its CNOT count from the
//!   decomposition's allocation-free angle stage alone,
//! * [`swap_decomposition`] / [`SwapOrientation`] — the two SWAP-to-CNOT
//!   expansions the optimization-aware decomposition of §IV-E selects from.
//!
//! # Example
//!
//! ```
//! use nassc_math::Matrix4;
//! use nassc_synthesis::two_qubit_cnot_cost;
//!
//! // A SWAP fused with a CNOT only needs two CNOTs — the paper's Figure 1.
//! let fused = Matrix4::swap().mul(&Matrix4::cnot());
//! assert_eq!(two_qubit_cnot_cost(&fused).unwrap(), 2);
//! ```

pub mod euler;
pub mod local;
pub mod synth;
pub mod weyl;

pub use euler::{wrap_angle, EulerAngles, OneQubitEulerDecomposer};
pub use local::{interaction_matrix, magic_basis, split_kron};
pub use synth::{
    interaction_circuit, swap_decomposition, synthesize_two_qubit, two_qubit_cnot_cost,
    SwapOrientation,
};
pub use weyl::{DecomposeUnitaryError, WeylDecomposition};

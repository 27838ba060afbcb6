//! Quantum-circuit intermediate representation for the NASSC reproduction.
//!
//! This crate is the substrate every other crate builds on:
//!
//! * [`Gate`] — the standard gate library with matrix semantics,
//! * [`Instruction`] — a gate bound to qubit indices,
//! * [`QuantumCircuit`] — an ordered instruction list with builder helpers
//!   and size/depth metrics,
//! * [`DagCircuit`] — the dependency-DAG view routing walks,
//! * [`unitary`] — dense unitary construction for equivalence checking of
//!   small circuits.
//!
//! The IR knows no file format: OpenQASM 2.0 is read and written by the
//! `nassc-qasm` crate, which owns the gate spellings. [`Gate::name`] is the
//! canonical lower-case name that counts, hashes and the exporter share.
//!
//! # Example
//!
//! ```
//! use nassc_circuit::{QuantumCircuit, DagCircuit};
//!
//! let mut qc = QuantumCircuit::new(3);
//! qc.h(0).cx(0, 1).cx(1, 2);
//! assert_eq!(qc.depth(), 3);
//!
//! let dag = DagCircuit::from_circuit(&qc);
//! assert_eq!(dag.front_layer(), vec![0]);
//! ```

pub mod circuit;
pub mod dag;
pub mod failpoints;
pub mod gate;
pub mod instruction;
pub mod qubits;
pub mod unitary;

pub use circuit::QuantumCircuit;
pub use dag::{DagCircuit, DagNode};
pub use gate::Gate;
pub use instruction::Instruction;
pub use qubits::QubitList;
pub use unitary::{
    apply_instruction, circuit_unitary, circuits_equivalent, circuits_equivalent_up_to_permutation,
    CircuitUnitary,
};

//! Transpiler pass framework and circuit optimizations for the NASSC
//! reproduction.
//!
//! The crate mirrors the parts of Qiskit's transpiler that interact with
//! qubit routing in the paper:
//!
//! * [`PassManager`] / [`TranspilePass`] — the pipeline scaffolding,
//! * [`UnrollToBasis`] — decomposition into `{id, rz, sx, x, cx}`,
//! * [`Optimize1qGates`] — single-qubit run merging,
//! * [`TwoQubitBlockResynthesis`] (with [`collect_two_qubit_blocks`]) — the
//!   two-qubit block re-synthesis that NASSC's `C_2q` cost term anticipates,
//! * [`CommutativeCancellation`] (with [`instructions_commute`]) — the
//!   commutation-based gate cancellation behind `C_commute1`/`C_commute2`,
//! * [`is_mapped`] / [`coupling_violations`] — coupling-map compliance
//!   checks.
//!
//! # Example
//!
//! ```
//! use nassc_circuit::QuantumCircuit;
//! use nassc_passes::{standard_optimization_pipeline, PassManager};
//!
//! let mut qc = QuantumCircuit::new(2);
//! qc.h(0).cx(0, 1).cx(1, 0).cx(0, 1).cx(0, 1); // SWAP + CX on the same pair
//! let optimized = standard_optimization_pipeline().run(&qc).unwrap();
//! assert!(optimized.cx_count() <= 2);
//! ```

pub mod blocks;
pub mod commutation;
pub mod layout_passes;
pub mod manager;
pub mod optimize_1q;
pub mod unroll;

pub use blocks::{collect_two_qubit_blocks, pair_matrix, TwoQubitBlock, TwoQubitBlockResynthesis};
pub use commutation::{instructions_commute, CommutativeCancellation, COMMUTE_SET_LIMIT};
pub use layout_passes::{coupling_violations, is_mapped};
pub use manager::{PassError, PassManager, TranspilePass};
pub use optimize_1q::Optimize1qGates;
pub use unroll::UnrollToBasis;

/// The post-routing optimization pipeline both evaluation arms of the paper
/// share: block re-synthesis, commutation-based cancellation, basis
/// unrolling and single-qubit optimization.
pub fn standard_optimization_pipeline() -> PassManager {
    let mut pm = PassManager::new();
    pm.push(TwoQubitBlockResynthesis);
    pm.push(CommutativeCancellation);
    pm.push(TwoQubitBlockResynthesis);
    pm.push(UnrollToBasis);
    pm.push(CommutativeCancellation);
    pm.push(Optimize1qGates);
    pm
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassc_circuit::QuantumCircuit;

    #[test]
    fn standard_pipeline_produces_basis_gates() {
        let mut qc = QuantumCircuit::new(3);
        qc.h(0).cz(0, 1).swap(1, 2).ccx(0, 1, 2);
        let out = standard_optimization_pipeline().run(&qc).unwrap();
        assert!(out.iter().all(|i| i.gate.in_ibm_basis()));
    }

    #[test]
    fn standard_pipeline_reduces_swap_cnot_pair() {
        let mut qc = QuantumCircuit::new(2);
        qc.cx(0, 1).swap(0, 1);
        let out = standard_optimization_pipeline().run(&qc).unwrap();
        assert!(out.cx_count() <= 2);
    }
}

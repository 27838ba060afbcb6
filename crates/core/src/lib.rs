//! NASSC — *Not All SWAPs have the Same Cost* — optimization-aware qubit
//! routing (HPCA 2022), reproduced in Rust.
//!
//! State-of-the-art routers such as SABRE pick SWAPs by minimising a distance
//! heuristic, implicitly assuming every SWAP costs three CNOTs. NASSC's
//! observation is that the *subsequent* optimization passes — two-qubit block
//! re-synthesis and commutation-based gate cancellation — remove many of
//! those CNOTs, and that the routing decision should anticipate it. This
//! crate provides:
//!
//! * [`OptimizationFlags`] and the `C_2q`/`C_commute1`/`C_commute2` reduction
//!   terms of the cost function (Eq. 1–2),
//! * [`NasscPolicy`] — the optimization-aware SWAP scorer plugged into the
//!   SABRE traversal engine, with optimization-aware SWAP decomposition and
//!   single-qubit movement through SWAPs (§IV-E),
//! * [`Transpiler`] / [`TranspileOptions`] — the long-lived session API: the
//!   full `Qiskit+SABRE` and `Qiskit+NASSC` pipelines evaluated in the paper
//!   (including the noise-aware `+HA` variants of Eq. 3 and multi-trial
//!   layout selection via `TranspileOptions::new().layout_trials(n)`) behind
//!   one entry point that owns the worker budget and reuses
//!   distance matrices, prepared baselines and layout winners across
//!   requests ([`CacheStats`] reports the hit rates),
//! * [`Transpiler::transpile_jobs`] / [`SessionJob`] — the batch engine
//!   fanning (benchmark × seed × router) grids across cores with results
//!   bit-identical to serial execution at any cache temperature.
//!
//! The two pipelines share one tail — layout and routing through
//! `nassc_sabre::LayoutTrials`, SWAP expansion and post-routing
//! optimization — that cold and warm session requests both run; the
//! routers differ only in their SWAP policy: how a candidate is
//! scored and how the winner is emitted. NASSC lists first the qubit that
//! must control a SWAP's first CNOT, so the shared expansion follows it.
//!
//! # Example
//!
//! ```
//! use nassc::{Transpiler, TranspileOptions, RouterKind};
//! use nassc_circuit::QuantumCircuit;
//! use nassc_topology::CouplingMap;
//!
//! // The paper's Figure 1: three CNOTs on a 3-qubit line.
//! let mut qc = QuantumCircuit::new(3);
//! qc.cx(1, 2).cx(0, 1).cx(0, 2);
//! let device = CouplingMap::linear(3);
//!
//! let sabre = Transpiler::new(
//!     device.clone(),
//!     TranspileOptions::new().router(RouterKind::Sabre).seed(7),
//! );
//! let nassc = Transpiler::new(device, TranspileOptions::new().seed(7));
//! let baseline = sabre.transpile(&qc).unwrap();
//! let ours = nassc.transpile(&qc).unwrap();
//! assert!(ours.cx_count() <= baseline.cx_count());
//! ```

pub mod cost;
pub mod device;
pub mod error;
pub mod pipeline;
pub mod policy;
pub mod session;

pub use cost::{evaluate_swap_reduction, OptimizationFlags, SwapReduction};
pub use device::{Device, DeviceParseError};
pub use error::{Error, ErrorKind};
pub use pipeline::{optimize_without_routing, RouterKind, TranspileOptions, TranspileResult};
pub use policy::NasscPolicy;
pub use session::{CacheStats, QasmResult, SessionJob, Transpiler, STORED_RESULT_BYTES};

/// The batch engine, [`Transpiler::transpile_jobs`]: a batch equals its
/// serial replay at every worker budget.
#[cfg(test)]
mod batch {
    mod tests {
        use crate::{CacheStats, SessionJob, TranspileOptions, TranspileResult, Transpiler};
        use nassc_circuit::QuantumCircuit;
        use nassc_parallel::ThreadPool;
        use nassc_topology::CouplingMap;

        fn session(workers: usize) -> Transpiler {
            Transpiler::new(CouplingMap::linear(5), TranspileOptions::new())
                .with_pool(ThreadPool::new(workers))
        }

        /// One job per entry of `options`, over a circuit that needs SWAPs
        /// on the line, as one batch on a fresh `workers`-wide session.
        fn batch(options: &[TranspileOptions], workers: usize) -> Vec<TranspileResult> {
            let mut qc = QuantumCircuit::new(5);
            qc.h(0).cx(0, 1).cx(1, 2).cx(2, 3).cx(3, 4);
            qc.cx(0, 4).cx(1, 3).cx(0, 2);
            let jobs: Vec<SessionJob<'_>> = options
                .iter()
                .map(|options| SessionJob::with_options(&qc, options.clone()))
                .collect();
            let results = session(workers).transpile_jobs(&jobs);
            results.into_iter().map(Result::unwrap).collect()
        }

        #[test]
        fn batch_matches_serial_for_a_seed_sweep() {
            let options: Vec<TranspileOptions> = (0..6)
                .flat_map(|seed| [TranspileOptions::sabre(seed), TranspileOptions::nassc(seed)])
                .collect();
            for (options, batched) in options.iter().zip(batch(&options, 4)) {
                let serial = &batch(std::slice::from_ref(options), 1)[0];
                assert_eq!(serial.circuit, batched.circuit);
                assert_eq!(serial.initial_layout, batched.initial_layout);
                assert_eq!(serial.final_layout, batched.final_layout);
                assert_eq!(serial.swap_count, batched.swap_count);
            }
        }

        #[test]
        fn multi_trial_jobs_match_serial_at_every_worker_count() {
            let options: Vec<TranspileOptions> = (0..3)
                .map(|seed| TranspileOptions::nassc(seed).layout_trials(4))
                .collect();
            let serial = batch(&options, 1);
            for workers in [2, 8] {
                for (s, p) in serial.iter().zip(batch(&options, workers)) {
                    assert_eq!(s.circuit, p.circuit, "{workers} workers");
                    assert_eq!(s.chosen_layout_trial, p.chosen_layout_trial);
                    assert_eq!(s.layout_trial_costs, p.layout_trial_costs);
                }
            }
        }

        #[test]
        fn empty_batch_is_fine() {
            let session = session(1);
            assert!(session.transpile_jobs(&[]).is_empty());
            assert_eq!(session.cache_stats(), CacheStats::default());
        }
    }
}

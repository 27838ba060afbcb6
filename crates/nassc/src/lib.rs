//! # NASSC — *Not All SWAPs have the Same Cost* (HPCA 2022), in Rust
//!
//! Facade crate: one `use nassc::...` away from the whole reproduction.
//!
//! The heavy lifting lives in the sub-crates (re-exported below under short
//! module names); this crate re-exports the handful of types that nearly
//! every consumer needs. The blessed entry point is the [`Transpiler`]
//! session: constructed once per device, it owns the worker budget and
//! reuses distance matrices, prepared baselines and layout
//! winners across requests ([`CacheStats`] reports the hit rates, and
//! [`Error`] folds pass and QASM failures into one type for
//! [`Transpiler::transpile_qasm`]). Single circuits, per-request options
//! and whole batches all go through the session
//! ([`Transpiler::transpile_with`], [`Transpiler::transpile_jobs`]).
//!
//! External OpenQASM 2.0 workloads enter and leave through the [`qasm`]
//! namespace: `nassc::qasm::parse` lowers a `.qasm` source into a
//! [`circuit::QuantumCircuit`] (or go straight through
//! [`Transpiler::transpile_qasm`]), and `nassc::qasm::export` serializes any
//! transpiled circuit back out (round-trip exact, float parameters
//! included). A service that answers in OpenQASM hands its request's source
//! to [`Transpiler::transpile_to_qasm`], with its admission [`Limits`]: the
//! session stores the text its first repeat exports, and later repeats share
//! it instead of exporting again. Both text entry points index a source by
//! its exact bytes once its parse finds a circuit the session already
//! knows, so later arrivals of those bytes are not parsed at all. A slot
//! stores one answer, in the form its replay returned, so a repeat through
//! the other entry point runs cold and returns the same answer.
//!
//! # Example
//!
//! ```
//! use nassc::{RouterKind, Transpiler, TranspileOptions};
//! use nassc::circuit::QuantumCircuit;
//! use nassc::topology::CouplingMap;
//!
//! let mut qc = QuantumCircuit::new(3);
//! qc.cx(1, 2).cx(0, 1).cx(0, 2);
//!
//! let session = Transpiler::new(
//!     CouplingMap::linear(3),
//!     TranspileOptions::new().router(RouterKind::Nassc).seed(7),
//! );
//! let cold = session.transpile(&qc).unwrap();
//! let warm = session.transpile(&qc).unwrap(); // served from the caches
//! assert_eq!(cold.circuit, warm.circuit);
//! assert!(warm.cache.hits() > 0);
//! ```

pub use nassc_core::{
    evaluate_swap_reduction, optimize_without_routing, CacheStats, CacheUsage, Device,
    DeviceParseError, Error, ErrorKind, Limits, NasscPolicy, OptimizationFlags, QasmResult,
    RouterKind, SessionJob, TranspileOptions, TranspileResult, Transpiler, CACHE_BUDGET_BYTES,
};

// The parallel batches behind every `Transpiler` dispatch: the budget handle
// plus the process-wide dispatch counters, and the cooperative
// deadline/cancellation primitives behind `TranspileOptions::deadline`.
pub use nassc_parallel::{worker_pool_status, Budget, Cancelled, PoolStatus, ThreadPool};

// The multi-trial layout subsystem (see `nassc::sabre::layout`): the engine,
// its selection record and the deterministic seed splitter, surfaced at the
// top level because `TranspileOptions::new().layout_trials(n)` consumers
// read its diagnostics.
pub use nassc_sabre::{split_seed, LayoutSelection, LayoutTrials, RoutingState};

// Sub-crate namespaces, so downstream code can write `nassc::circuit::...`
// without depending on each `nassc-*` crate individually.
pub use nassc_benchmarks as benchmarks;
pub use nassc_circuit as circuit;
pub use nassc_core as core;
pub use nassc_math as math;
pub use nassc_parallel as parallel;
pub use nassc_passes as passes;
pub use nassc_qasm as qasm;
pub use nassc_sabre as sabre;
pub use nassc_sim as sim;
pub use nassc_synthesis as synthesis;
pub use nassc_topology as topology;
pub use nassc_trace as trace;

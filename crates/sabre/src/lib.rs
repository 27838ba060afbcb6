//! SABRE qubit layout and routing — the paper's baseline router.
//!
//! SABRE (Li, Ding, Xie — ASPLOS 2019) routes a logical circuit onto a
//! constrained device by repeatedly inserting the SWAP that minimises a
//! lookahead distance heuristic over the front and extended layers. The
//! routing and single-trial layout functions take the circuit as a prebuilt
//! [`DagCircuit`](nassc_circuit::DagCircuit), so callers that route one
//! circuit many times build its DAG once. This crate provides:
//!
//! * [`route_prepared_budgeted`] / [`SwapPolicy`] — the routing pass: the
//!   SABRE traversal with a pluggable SWAP score, which is how the NASSC
//!   router reuses the machinery while replacing only the scoring.
//!   [`SabrePolicy`] is the plain SABRE heuristic. Candidate scoring fans
//!   across a thread pool, bit-identical to serial at any worker count.
//! * [`sabre_layout_prepared_budgeted`] — random initial layout refined by
//!   reverse traversal (the single-trial path),
//! * [`LayoutTrials`] — the multi-trial layout engine: N independently
//!   seeded trials refined through any [`SwapPolicy`], scored by a full
//!   routing pass, argmin kept with deterministic lowest-index tie-breaking,
//!   optionally fanned across a thread pool without affecting results,
//! * [`RoutingState`] — the incremental output-circuit state (per-qubit
//!   touch index with O(1) push/pop and O(window) pair queries) the hot
//!   loop is built around.
//!
//! [`route_prepared`] and [`sabre_layout_prepared`] are the same two
//! functions with an unlimited budget.
//!
//! # Example
//!
//! ```
//! use nassc_circuit::{DagCircuit, QuantumCircuit};
//! use nassc_parallel::ThreadPool;
//! use nassc_sabre::{route_prepared, sabre_layout_prepared, SabreConfig, SabrePolicy};
//! use nassc_topology::CouplingMap;
//! use rand::SeedableRng;
//!
//! let mut qc = QuantumCircuit::new(3);
//! qc.cx(1, 2).cx(0, 1).cx(0, 2);
//! let dag = DagCircuit::from_circuit(&qc);
//! let reversed_dag = DagCircuit::from_circuit(&qc.reversed());
//! let device = CouplingMap::linear(3);
//! let distances = device.distance_matrix();
//! let config = SabreConfig::with_seed(7);
//! let pool = ThreadPool::new(1);
//! let layout = sabre_layout_prepared(&dag, &reversed_dag, &device, &distances, &config, &pool);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let routed = route_prepared(
//!     &dag, &device, &distances, &layout, &config, &mut SabrePolicy, &mut rng, &pool,
//! );
//! assert!(routed.swap_count <= 2);
//! ```

pub mod config;
pub mod layout;
pub mod router;
pub mod state;

pub use config::SabreConfig;
pub use layout::{
    sabre_layout_prepared, sabre_layout_prepared_budgeted, split_seed, LayoutSelection,
    LayoutTrials, TrialOutcome,
};
pub use router::{
    route_prepared, route_prepared_budgeted, RoutingContext, RoutingResult, SabrePolicy,
    StepEndpoints, SwapPolicy, PARALLEL_SCORE_THRESHOLD,
};
pub use state::RoutingState;

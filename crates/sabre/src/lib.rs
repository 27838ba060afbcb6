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
//!   SABRE traversal with a pluggable policy that scores each SWAP
//!   candidate and emits the winner. SABRE and NASSC differ only in their
//!   policy: [`SabrePolicy`] is the plain SABRE heuristic and emits every
//!   SWAP as `swap p1, p2`; NASSC's policy also lists the qubit that
//!   controls a SWAP's first CNOT first. A routing pass scores its
//!   candidates on its own thread.
//! * [`LayoutTrials`] — the layout engine, the one path from a prepared
//!   circuit to its production route: it builds the DAG once, searches a
//!   layout and routes from it on the production RNG, and replays a cached
//!   layout's route. One trial is [`sabre_layout_prepared_budgeted`]'s
//!   random initial layout refined by reverse traversal; N trials are
//!   independently seeded and refined through any [`SwapPolicy`], each
//!   priced by the SWAPs its full routing pass inserts, argmin kept with
//!   deterministic lowest-index tie-breaking, optionally fanned across a
//!   thread pool without affecting results,
//! * [`RoutingState`] — the incremental output-circuit state (per-qubit
//!   touch index with O(1) push/pop, in-place SWAP orientation and
//!   O(window) pair queries) the hot loop is built around.
//!
//! [`route_prepared`] and [`sabre_layout_prepared`] are the same two
//! functions with an unlimited budget, taking the seed as a [`SabreConfig`].
//!
//! The heuristic itself is fixed, as in the paper's evaluation (§V) and in
//! Qiskit's `sabre_swap.py` module constants: an extended layer of
//! [`EXTENDED_SET_SIZE`](config::EXTENDED_SET_SIZE) = 20 gates weighted by
//! [`EXTENDED_SET_WEIGHT`](config::EXTENDED_SET_WEIGHT) = 0.5, a decay of
//! [`DECAY_DELTA`](config::DECAY_DELTA) = 0.001 reset every
//! [`DECAY_RESET_INTERVAL`](config::DECAY_RESET_INTERVAL) = 5 SWAPs, and
//! [`LAYOUT_ITERATIONS`](config::LAYOUT_ITERATIONS) = 3 layout refinement
//! rounds. Only the seed varies between runs.
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
//! let config = SabreConfig { seed: 7 };
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
    LayoutTrials,
};
pub use router::{
    route_prepared, route_prepared_budgeted, RoutingContext, RoutingResult, SabrePolicy,
    StepEndpoints, SwapPolicy,
};
pub use state::RoutingState;

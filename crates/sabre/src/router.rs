//! The SWAP-insertion routing engine.
//!
//! The engine implements the SABRE traversal (front layer / extended layer /
//! decay, eager execution of gates that already fit the device) and delegates
//! the scoring and emission of SWAP candidates to a [`SwapPolicy`]. The
//! plain SABRE heuristic is provided here as [`SabrePolicy`]; the NASSC crate
//! plugs in its optimization-aware cost function and SWAP orientation
//! through the same interface.
//!
//! # Hot-loop architecture
//!
//! The inner loop is built around incremental state so one routing pass is
//! O(gates · window) instead of quadratic in the output size:
//!
//! * the output circuit lives in a [`RoutingState`], whose per-qubit touch
//!   indices answer "which recent gates touch this pair?" in O(window) —
//!   this is what NASSC's commutation searches consume;
//! * candidate scores are evaluated against per-step cached physical
//!   endpoints ([`RoutingContext::front_distance_after_swap`]), so scoring a
//!   SWAP clones no [`Layout`] and allocates nothing;
//! * each step scores its candidates and keeps the decay-weighted argmin in
//!   one loop over the shuffled candidates, on the routing thread. A step's
//!   scores cost microseconds, far less than one worker-pool dispatch, so
//!   parallelism lives a level up: in layout trials and batch jobs;
//! * all per-step buffers (front layer, extended set, candidate edges) are
//!   reused scratch owned by the routing loop. The front and extended
//!   layers depend only on which gates have executed, so a step whose SWAP
//!   executed nothing keeps the previous step's layers instead of
//!   rebuilding them;
//! * a layout refinement pass keeps only its final layout, so under a
//!   policy that never reads the output ([`SwapPolicy::READS_OUTPUT`]) it
//!   records none: no [`RoutingState`] pushes, no SWAP emission, no
//!   circuit.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use nassc_circuit::{DagCircuit, Gate, Instruction, QuantumCircuit};
use nassc_parallel::{Budget, ThreadPool};
use nassc_topology::{CouplingMap, DistanceMatrix, Layout};

use crate::config::{
    SabreConfig, DECAY_DELTA, DECAY_RESET_INTERVAL, EXTENDED_SET_SIZE, EXTENDED_SET_WEIGHT,
};
use crate::state::RoutingState;

/// Per-step cache of the front/extended layers' *physical* endpoints.
///
/// Candidate scoring asks for the front and extended distance after a
/// hypothetical SWAP, for every candidate. Resolving each gate's logical
/// qubits through the layout once per step (instead of once per candidate)
/// and storing the physical pairs flat lets
/// [`RoutingContext::front_distance_after_swap`] answer with a pure scan —
/// no layout clone, no DAG chasing, no allocation.
#[derive(Debug, Default)]
pub struct StepEndpoints {
    front: Vec<(u32, u32)>,
    extended: Vec<(u32, u32)>,
}

impl StepEndpoints {
    /// An empty cache (fill it with [`prepare`](Self::prepare)).
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves the physical endpoint pairs of `front` and `extended` under
    /// `layout`, reusing the internal buffers.
    pub fn prepare(
        &mut self,
        dag: &DagCircuit,
        front: &[usize],
        extended: &[usize],
        layout: &Layout,
    ) {
        let resolve = |node: &usize| {
            let inst = &dag.node(*node).instruction;
            (
                layout.physical_of(inst.qubit(0)) as u32,
                layout.physical_of(inst.qubit(1)) as u32,
            )
        };
        self.front.clear();
        self.front.extend(front.iter().map(resolve));
        self.extended.clear();
        self.extended.extend(extended.iter().map(resolve));
    }
}

/// The physical qubit `p` maps to after a SWAP on `(p1, p2)`.
#[inline]
fn after_swap(p: u32, p1: u32, p2: u32) -> usize {
    if p == p1 {
        p2 as usize
    } else if p == p2 {
        p1 as usize
    } else {
        p as usize
    }
}

/// Read-only view of the router's state handed to a [`SwapPolicy`] when
/// scoring a SWAP candidate.
#[derive(Debug)]
pub struct RoutingContext<'a> {
    /// The distance matrix used by the heuristic (plain or noise-aware).
    pub distances: &'a DistanceMatrix,
    /// DAG node ids of the unroutable two-qubit gates in the front layer.
    pub front: &'a [usize],
    /// DAG node ids of the lookahead (extended) layer.
    pub extended: &'a [usize],
    /// The logical circuit's dependency DAG.
    pub dag: &'a DagCircuit,
    /// The physical circuit emitted so far (resolved gates and earlier
    /// SWAPs), with its per-qubit touch index for windowed queries.
    pub state: &'a RoutingState,
    endpoints: &'a StepEndpoints,
}

impl<'a> RoutingContext<'a> {
    /// Builds a context over an explicitly prepared [`StepEndpoints`]
    /// (`endpoints.prepare` must have been called with the same
    /// `front`/`extended` and the current layout). The router does this once
    /// per step; exposed so tests and embedders can score candidates
    /// directly.
    pub fn new(
        distances: &'a DistanceMatrix,
        front: &'a [usize],
        extended: &'a [usize],
        dag: &'a DagCircuit,
        state: &'a RoutingState,
        endpoints: &'a StepEndpoints,
    ) -> Self {
        Self {
            distances,
            front,
            extended,
            dag,
            state,
            endpoints,
        }
    }

    /// The summed front-layer distance after a SWAP on `(p1, p2)`, computed
    /// from the cached physical endpoints with zero clones and zero
    /// allocation: same gates and summation order as re-resolving the front
    /// layer through a swapped copy of the layout, so bit-identical to it.
    pub fn front_distance_after_swap(&self, p1: usize, p2: usize) -> f64 {
        let (p1, p2) = (p1 as u32, p2 as u32);
        self.endpoints
            .front
            .iter()
            .map(|&(a, b)| {
                self.distances
                    .weight(after_swap(a, p1, p2), after_swap(b, p1, p2))
            })
            .sum()
    }

    /// The summed extended-layer distance after a SWAP on `(p1, p2)` (see
    /// [`front_distance_after_swap`](Self::front_distance_after_swap)).
    pub fn extended_distance_after_swap(&self, p1: usize, p2: usize) -> f64 {
        let (p1, p2) = (p1 as u32, p2 as u32);
        self.endpoints
            .extended
            .iter()
            .map(|&(a, b)| {
                self.distances
                    .weight(after_swap(a, p1, p2), after_swap(b, p1, p2))
            })
            .sum()
    }

    /// The lookahead term both routers add to their front-layer cost: the
    /// extended-layer distance after a SWAP on `(p1, p2)`, normalised by the
    /// layer's size and weighted by [`EXTENDED_SET_WEIGHT`]; `0` when the
    /// extended layer is empty.
    pub fn extended_cost(&self, p1: usize, p2: usize) -> f64 {
        if self.extended.is_empty() {
            0.0
        } else {
            EXTENDED_SET_WEIGHT * self.extended_distance_after_swap(p1, p2)
                / self.extended.len() as f64
        }
    }

    /// SABRE's lookahead distance term: normalised front-layer distance plus
    /// the [`extended_cost`](Self::extended_cost), evaluated after the
    /// candidate SWAP.
    pub fn lookahead_cost(&self, p1: usize, p2: usize) -> f64 {
        let front_len = self.front.len().max(1) as f64;
        let front_term = self.front_distance_after_swap(p1, p2) / front_len;
        front_term + self.extended_cost(p1, p2)
    }
}

/// What distinguishes one router from another: how a SWAP candidate is
/// scored and how the winner is emitted.
///
/// Lower scores are better. The engine multiplies the returned score by the
/// SABRE decay factor of the two physical qubits before comparing.
///
/// [`score`](Self::score) takes `&self` — a score is a pure function of the
/// context and the candidate, so the order in which candidates are scored
/// cannot change the result. Mutable state belongs in
/// [`emit_swap`](Self::emit_swap), which runs exactly once per inserted
/// SWAP.
pub trait SwapPolicy {
    /// Whether the policy's decisions read the output emitted so far: its
    /// [`score`](Self::score) reads [`RoutingContext::state`], or its
    /// [`emit_swap`](Self::emit_swap) does more than append the SWAP.
    ///
    /// A layout refinement pass keeps only its final layout. Under a policy
    /// that declares `false` it records no output: it builds no circuit,
    /// hands `score` an empty state over zero qubits and never calls
    /// `emit_swap`. The default, `true`, records every pass.
    const READS_OUTPUT: bool = true;

    /// Scores the SWAP on physical qubits `(p1, p2)`.
    fn score(&self, ctx: &RoutingContext<'_>, p1: usize, p2: usize) -> f64;

    /// Appends the winning SWAP on `(p1, p2)` to the output; the default
    /// pushes `swap p1, p2`.
    ///
    /// A policy may list the SWAP's qubits in either order, since the first
    /// one controls the first CNOT of its expansion, and may rearrange the
    /// gates around it (NASSC moves trailing single-qubit gates through the
    /// SWAP). Mutations go through [`RoutingState`]'s methods, which keep
    /// the touch index exact.
    fn emit_swap(&mut self, output: &mut RoutingState, p1: usize, p2: usize) {
        output.push(Instruction::new(Gate::Swap, [p1, p2]));
    }
}

/// The plain SABRE heuristic: front-layer distance with extended-layer
/// lookahead (Li et al., ASPLOS 2019) — the paper's baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct SabrePolicy;

impl SwapPolicy for SabrePolicy {
    const READS_OUTPUT: bool = false;

    fn score(&self, ctx: &RoutingContext<'_>, p1: usize, p2: usize) -> f64 {
        ctx.lookahead_cost(p1, p2)
    }
}

/// The product of routing a circuit onto a device.
#[derive(Debug, Clone)]
pub struct RoutingResult {
    /// The physical circuit: resolved gates plus inserted SWAPs, kept as
    /// `swap` instructions whose first qubit controls the first CNOT of
    /// their expansion (see `nassc_synthesis::expand_swaps`).
    pub circuit: QuantumCircuit,
    /// The layout in force before the first gate.
    pub initial_layout: Layout,
    /// The layout in force after the last gate (differs from the initial one
    /// by the net effect of the inserted SWAPs).
    pub final_layout: Layout,
    /// Number of SWAP gates inserted.
    pub swap_count: usize,
}

/// [`route_prepared_budgeted`] with an unlimited budget, kept with its
/// signature for callers that recompose the pipeline stage by stage. The
/// seed reaches routing through `rng` and every routing pass scores on its
/// own thread, so `_config` and `_score_pool` are unused.
#[allow(clippy::too_many_arguments)]
pub fn route_prepared<P: SwapPolicy>(
    dag: &DagCircuit,
    coupling: &CouplingMap,
    distances: &DistanceMatrix,
    initial_layout: &Layout,
    _config: &SabreConfig,
    policy: &mut P,
    rng: &mut StdRng,
    _score_pool: &ThreadPool,
) -> RoutingResult {
    route_prepared_budgeted(
        dag,
        coupling,
        distances,
        initial_layout,
        policy,
        rng,
        &Budget::unlimited(),
    )
}

/// Routes the circuit behind a prebuilt dependency DAG from
/// `initial_layout`, scoring SWAP candidates with `policy`.
///
/// Every gate of the output acts on physical qubits and every two-qubit gate
/// respects the coupling map (inserted SWAPs included). The DAG is an input
/// because layout search routes the same circuit (and its reversal) many
/// times; callers build it once per circuit instead of once per pass.
///
/// The loop checks `budget` once per SWAP step and aborts by unwinding with
/// a typed [`Cancelled`] payload when it is exhausted. The checkpoint is one
/// relaxed atomic load on an unexpired budget, so the routed output — and
/// its cost — is unchanged whenever the budget does not trip.
///
/// # Panics
///
/// Panics when the device is smaller than the circuit, the coupling graph is
/// disconnected, or routing fails to make progress (which would indicate an
/// internal bug).
///
/// [`Cancelled`]: nassc_parallel::Cancelled
pub fn route_prepared_budgeted<P: SwapPolicy>(
    dag: &DagCircuit,
    coupling: &CouplingMap,
    distances: &DistanceMatrix,
    initial_layout: &Layout,
    policy: &mut P,
    rng: &mut StdRng,
    budget: &Budget,
) -> RoutingResult {
    let (state, final_layout, swap_count) = route_pass::<P, true>(
        dag,
        coupling,
        distances,
        initial_layout,
        policy,
        rng,
        budget,
    );
    RoutingResult {
        circuit: state.into_circuit(),
        initial_layout: initial_layout.clone(),
        final_layout,
        swap_count,
    }
}

/// The final layout of a layout refinement pass: the traversal of
/// [`route_prepared_budgeted`], with its budget checkpoints, failpoint and
/// SWAP-budget assert, which records its output only when
/// [`P::READS_OUTPUT`](SwapPolicy::READS_OUTPUT). Either way it draws the
/// same random numbers and returns the same layout.
pub(crate) fn refinement_pass<P: SwapPolicy>(
    dag: &DagCircuit,
    coupling: &CouplingMap,
    distances: &DistanceMatrix,
    initial_layout: &Layout,
    policy: &mut P,
    rng: &mut StdRng,
    budget: &Budget,
) -> Layout {
    let pass = if P::READS_OUTPUT {
        route_pass::<P, true>
    } else {
        route_pass::<P, false>
    };
    pass(
        dag,
        coupling,
        distances,
        initial_layout,
        policy,
        rng,
        budget,
    )
    .1
}

/// One routing pass: returns the output state, the final layout and the
/// SWAP count. With `RECORD` false the state stays empty over zero qubits:
/// no gate is pushed and `emit_swap` is never called.
fn route_pass<P: SwapPolicy, const RECORD: bool>(
    dag: &DagCircuit,
    coupling: &CouplingMap,
    distances: &DistanceMatrix,
    initial_layout: &Layout,
    policy: &mut P,
    rng: &mut StdRng,
    budget: &Budget,
) -> (RoutingState, Layout, usize) {
    assert!(
        dag.num_qubits() <= coupling.num_qubits(),
        "circuit needs {} qubits but the device has {}",
        dag.num_qubits(),
        coupling.num_qubits()
    );
    let num_physical = coupling.num_qubits();
    let mut in_deg = dag.in_degrees();
    let mut executed = vec![false; dag.num_nodes()];
    let mut ready: Vec<usize> = dag.front_layer();
    let mut layout = initial_layout.clone();
    let mut state = RoutingState::new(if RECORD { num_physical } else { 0 });
    let mut decay = vec![1.0_f64; num_physical];
    let mut swaps_since_reset = 0usize;
    let mut swap_count = 0usize;
    let mut remaining = dag.num_nodes();

    let max_swaps = 10 + 20 * dag.num_nodes() * num_physical;
    let mut total_swaps_guard = 0usize;

    // Reusable per-step scratch: nothing below allocates after warm-up.
    let mut next_ready: Vec<usize> = Vec::new();
    let mut front: Vec<usize> = Vec::new();
    let mut extended_scratch = ExtendedScratch::new(dag.num_nodes());
    let mut candidates: Vec<(usize, usize)> = Vec::new();
    let mut edge_seen = vec![false; num_physical * num_physical];
    let mut endpoints = StepEndpoints::new();
    // Set whenever a gate executes: the front and extended layers need a
    // rebuild before the next SWAP is scored.
    let mut layers_stale = true;

    // Trace totals, accumulated locally and emitted once per route call:
    // per-step counter events would dominate the enabled-mode overhead on
    // small circuits (and a cancellation unwinds without emitting — the
    // trace of a cancelled route is best-effort).
    let mut trace_steps = 0u64;
    let mut trace_swap_candidates = 0u64;

    while remaining > 0 {
        // A deadline mid-routing aborts here — before the step's scoring,
        // the expensive part — by unwinding with `Cancelled`.
        budget.checkpoint();
        nassc_circuit::failpoints::hit("route_step");

        // Execute everything that fits under the current layout.
        let mut progress = true;
        while progress {
            progress = false;
            next_ready.clear();
            for &node in &ready {
                if executed[node] {
                    continue;
                }
                let inst = &dag.node(node).instruction;
                let runnable = if inst.is_two_qubit() {
                    let a = layout.physical_of(inst.qubit(0));
                    let b = layout.physical_of(inst.qubit(1));
                    coupling.are_connected(a, b)
                } else {
                    true
                };
                if runnable {
                    layers_stale = true;
                    if RECORD {
                        state.push(inst.map_qubits(|q| layout.physical_of(q)));
                    }
                    executed[node] = true;
                    remaining -= 1;
                    progress = true;
                    for &succ in dag.node(node).successors() {
                        in_deg[succ] -= 1;
                        if in_deg[succ] == 0 {
                            next_ready.push(succ);
                        }
                    }
                } else {
                    next_ready.push(node);
                }
            }
            std::mem::swap(&mut ready, &mut next_ready);
            ready.sort_unstable();
            ready.dedup();
        }
        if remaining == 0 {
            break;
        }

        // The remaining ready gates are two-qubit gates that need SWAPs. The
        // front and extended layers depend only on which gates have
        // executed, so a step after a SWAP that executed nothing reuses them.
        if layers_stale {
            front.clear();
            front.extend(
                ready
                    .iter()
                    .copied()
                    .filter(|&n| !executed[n] && dag.node(n).instruction.is_two_qubit()),
            );
            assert!(
                !front.is_empty(),
                "routing stalled: unresolved gates remain but the front layer is empty"
            );
            collect_extended_set(
                dag,
                &front,
                &executed,
                EXTENDED_SET_SIZE,
                &mut extended_scratch,
            );
            layers_stale = false;
        }
        let extended = &extended_scratch.extended[..];

        // Candidate SWAPs: every coupling edge incident to a front-layer
        // qubit, deduplicated through a per-edge bitset (insertion order is
        // preserved, so the shuffle below sees the same vector as ever).
        candidates.clear();
        for &node in &front {
            for logical in dag.node(node).instruction.qubits().iter() {
                let p = layout.physical_of(logical);
                for &n in coupling.neighbors(p) {
                    let edge = (p.min(n), p.max(n));
                    let slot = edge.0 * num_physical + edge.1;
                    if !edge_seen[slot] {
                        edge_seen[slot] = true;
                        candidates.push(edge);
                    }
                }
            }
        }
        for &(a, b) in &candidates {
            edge_seen[a * num_physical + b] = false;
        }
        candidates.shuffle(rng);
        trace_steps += 1;
        trace_swap_candidates += candidates.len() as u64;

        endpoints.prepare(dag, &front, extended, &layout);
        let ctx = RoutingContext::new(distances, &front, extended, dag, &state, &endpoints);
        // Argmin in shuffled candidate order: ties keep the first minimum.
        let mut best: Option<((usize, usize), f64)> = None;
        for &(p1, p2) in &candidates {
            let score = policy.score(&ctx, p1, p2) * decay[p1].max(decay[p2]);
            if best.is_none_or(|(_, b)| score < b) {
                best = Some(((p1, p2), score));
            }
        }
        let ((p1, p2), _) = best.expect("at least one SWAP candidate");

        if RECORD {
            policy.emit_swap(&mut state, p1, p2);
        }
        layout.swap_physical(p1, p2);
        swap_count += 1;
        total_swaps_guard += 1;
        assert!(
            total_swaps_guard <= max_swaps,
            "routing exceeded the SWAP budget; the coupling graph may be disconnected"
        );
        decay[p1] += DECAY_DELTA;
        decay[p2] += DECAY_DELTA;
        swaps_since_reset += 1;
        if swaps_since_reset >= DECAY_RESET_INTERVAL {
            decay.iter_mut().for_each(|d| *d = 1.0);
            swaps_since_reset = 0;
        }
    }

    nassc_trace::counter("route.steps", trace_steps);
    nassc_trace::counter("route.swap_candidates", trace_swap_candidates);

    (state, layout, swap_count)
}

/// Reusable buffers for [`collect_extended_set`]: the BFS queue, the visited
/// bitmap (cleared via the touched list, so a step costs O(visited) rather
/// than O(nodes)) and the output vector.
struct ExtendedScratch {
    queue: VecDeque<usize>,
    seen: Vec<bool>,
    seen_touched: Vec<usize>,
    extended: Vec<usize>,
}

impl ExtendedScratch {
    fn new(num_nodes: usize) -> Self {
        Self {
            queue: VecDeque::new(),
            seen: vec![false; num_nodes],
            seen_touched: Vec::new(),
            extended: Vec::new(),
        }
    }
}

/// Collects up to `limit` not-yet-executed two-qubit gates reachable from the
/// front layer — the lookahead (extended) layer — into `scratch.extended`.
fn collect_extended_set(
    dag: &DagCircuit,
    front: &[usize],
    executed: &[bool],
    limit: usize,
    scratch: &mut ExtendedScratch,
) {
    for node in scratch.seen_touched.drain(..) {
        scratch.seen[node] = false;
    }
    scratch.queue.clear();
    scratch.extended.clear();
    for &node in front {
        if !scratch.seen[node] {
            scratch.seen[node] = true;
            scratch.seen_touched.push(node);
        }
        scratch.queue.push_back(node);
    }
    while let Some(node) = scratch.queue.pop_front() {
        if scratch.extended.len() >= limit {
            break;
        }
        for &succ in dag.node(node).successors() {
            if !scratch.seen[succ] {
                scratch.seen[succ] = true;
                scratch.seen_touched.push(succ);
                if !executed[succ] {
                    if dag.node(succ).instruction.is_two_qubit() {
                        scratch.extended.push(succ);
                        if scratch.extended.len() >= limit {
                            break;
                        }
                    }
                    scratch.queue.push_back(succ);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassc_circuit::circuits_equivalent_up_to_permutation;
    use nassc_passes::is_mapped;
    use rand::SeedableRng;

    /// Routes `circuit` from `layout` with the plain SABRE heuristic, `seed`
    /// seeding the RNG.
    fn sabre_route(
        circuit: &QuantumCircuit,
        coupling: &CouplingMap,
        layout: &Layout,
        seed: u64,
    ) -> RoutingResult {
        route_prepared_budgeted(
            &DagCircuit::from_circuit(circuit),
            coupling,
            &coupling.distance_matrix(),
            layout,
            &mut SabrePolicy,
            &mut StdRng::seed_from_u64(seed),
            &Budget::unlimited(),
        )
    }

    fn route(circuit: &QuantumCircuit, coupling: &CouplingMap, seed: u64) -> RoutingResult {
        sabre_route(
            circuit,
            coupling,
            &Layout::trivial(coupling.num_qubits()),
            seed,
        )
    }

    /// Expands SWAPs so the equivalence checker sees plain unitaries and
    /// verifies the routed circuit implements the original (up to the final
    /// qubit permutation induced by the SWAPs and layout).
    fn assert_routing_preserves_semantics(original: &QuantumCircuit, result: &RoutingResult) {
        // Embed the original on the device width with the initial layout.
        let device_width = result.circuit.num_qubits();
        let embedded = original.map_qubits(device_width, |q| result.initial_layout.physical_of(q));
        let perm = result.initial_layout.permutation_to(&result.final_layout);
        // The routed circuit applies: initial-embedding followed by extra
        // SWAPs, so original ∘ permutation == routed.
        assert!(
            circuits_equivalent_up_to_permutation(&embedded, &result.circuit, &perm, 1e-7),
            "routing changed circuit semantics"
        );
    }

    #[test]
    fn already_mapped_circuit_needs_no_swaps() {
        let line = CouplingMap::linear(3);
        let mut qc = QuantumCircuit::new(3);
        qc.h(0).cx(0, 1).cx(1, 2);
        let result = route(&qc, &line, 1);
        assert_eq!(result.swap_count, 0);
        assert_eq!(result.circuit.num_gates(), 3);
    }

    #[test]
    fn routes_distant_cnot_on_a_line() {
        let line = CouplingMap::linear(4);
        let mut qc = QuantumCircuit::new(4);
        qc.cx(0, 3);
        let result = route(&qc, &line, 3);
        assert!(result.swap_count >= 2);
        assert!(is_mapped(&result.circuit, &line));
        assert_routing_preserves_semantics(&qc, &result);
    }

    #[test]
    fn figure1_linear_example_routes_with_one_swap() {
        // The paper's Figure 1: gates on (1,2), (0,1), (0,2) on a 3-qubit line.
        let line = CouplingMap::linear(3);
        let mut qc = QuantumCircuit::new(3);
        qc.cx(1, 2).cx(0, 1).cx(0, 2);
        let result = route(&qc, &line, 5);
        assert_eq!(result.swap_count, 1);
        assert!(is_mapped(&result.circuit, &line));
        assert_routing_preserves_semantics(&qc, &result);
    }

    #[test]
    fn routing_preserves_semantics_on_random_circuits() {
        use rand::Rng;
        let grid = CouplingMap::grid(2, 3);
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..10 {
            let mut qc = QuantumCircuit::new(5);
            for _ in 0..15 {
                let a = rng.gen_range(0..5);
                let b = (a + rng.gen_range(1..5)) % 5;
                if rng.gen_bool(0.3) {
                    qc.h(a);
                } else {
                    qc.cx(a, b);
                }
            }
            let result = route(&qc, &grid, trial as u64);
            assert!(
                is_mapped(&result.circuit, &grid),
                "trial {trial} not mapped"
            );
            assert_routing_preserves_semantics(&qc, &result);
        }
    }

    #[test]
    fn measurements_are_mapped_to_physical_qubits() {
        let line = CouplingMap::linear(3);
        let mut qc = QuantumCircuit::new(2);
        qc.cx(0, 1).measure(0).measure(1);
        let mut layout = Layout::trivial(3);
        layout.swap_physical(0, 2);
        let result = sabre_route(&qc, &line, &layout, 0);
        let measures: Vec<_> = result
            .circuit
            .iter()
            .filter(|i| i.gate == Gate::Measure)
            .map(|i| i.qubit(0))
            .collect();
        assert_eq!(measures.len(), 2);
        assert!(measures.contains(&2) || measures.contains(&1));
    }

    /// A seeded circuit of `gates` CNOTs and Hadamards on `width` qubits.
    fn random_circuit(width: usize, gates: usize, seed: u64) -> QuantumCircuit {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut qc = QuantumCircuit::new(width);
        for _ in 0..gates {
            let a = rng.gen_range(0..width);
            if rng.gen_bool(0.25) {
                qc.h(a);
            } else {
                qc.cx(a, (a + rng.gen_range(1..width)) % width);
            }
        }
        qc
    }

    #[test]
    fn output_free_passes_end_where_recording_passes_do() {
        use rand::Rng;
        let devices = [
            CouplingMap::linear(7),
            CouplingMap::grid(3, 3),
            CouplingMap::heavy_hex(3),
        ];
        for device in &devices {
            let distances = device.distance_matrix();
            for seed in 0..8 {
                let circuit = random_circuit(7, 40, seed);
                let dag = DagCircuit::from_circuit(&circuit);
                let layout = Layout::random(device.num_qubits(), &mut StdRng::seed_from_u64(seed));
                let pass = |rng: &mut StdRng, record: bool| {
                    let route = if record {
                        route_pass::<SabrePolicy, true>
                    } else {
                        route_pass::<SabrePolicy, false>
                    };
                    let budget = Budget::unlimited();
                    let (state, final_layout, swaps) = route(
                        &dag,
                        device,
                        &distances,
                        &layout,
                        &mut SabrePolicy,
                        rng,
                        &budget,
                    );
                    (state.num_gates(), final_layout, swaps)
                };
                let mut recording_rng = StdRng::seed_from_u64(seed);
                let mut free_rng = StdRng::seed_from_u64(seed);
                let (recorded_gates, recorded, recorded_swaps) = pass(&mut recording_rng, true);
                let (free_gates, free, free_swaps) = pass(&mut free_rng, false);
                let context = format!("{} qubits, seed {seed}", device.num_qubits());
                assert_eq!(free, recorded, "{context}: final layout");
                assert_eq!(free_swaps, recorded_swaps, "{context}: SWAP count");
                assert!(recorded_gates >= circuit.num_gates(), "{context}");
                assert_eq!(free_gates, 0, "{context}: the output-free pass recorded");
                // Both drew the same random numbers, so a search threading
                // one RNG through its passes continues identically.
                assert_eq!(
                    free_rng.gen::<u64>(),
                    recording_rng.gen::<u64>(),
                    "{context}: RNG stream"
                );
                let refined = refinement_pass(
                    &dag,
                    device,
                    &distances,
                    &layout,
                    &mut SabrePolicy,
                    &mut StdRng::seed_from_u64(seed),
                    &Budget::unlimited(),
                );
                assert_eq!(refined, recorded, "{context}: refinement pass");
            }
        }
    }

    #[test]
    fn output_free_passes_keep_the_budget_checkpoint() {
        let line = CouplingMap::linear(5);
        let circuit = random_circuit(5, 20, 1);
        let budget = Budget::unlimited();
        budget.cancel();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            refinement_pass(
                &DagCircuit::from_circuit(&circuit),
                &line,
                &line.distance_matrix(),
                &Layout::trivial(5),
                &mut SabrePolicy,
                &mut StdRng::seed_from_u64(1),
                &budget,
            )
        }));
        let payload = caught.expect_err("a cancelled budget aborts the pass");
        assert!(nassc_parallel::Cancelled::from_payload(payload.as_ref()));
    }

    #[test]
    fn extended_set_respects_limit() {
        let mut qc = QuantumCircuit::new(6);
        for i in 0..5 {
            qc.cx(i, i + 1);
        }
        let dag = DagCircuit::from_circuit(&qc);
        let executed = vec![false; dag.num_nodes()];
        let mut scratch = ExtendedScratch::new(dag.num_nodes());
        collect_extended_set(&dag, &[0], &executed, 2, &mut scratch);
        assert!(scratch.extended.len() <= 2);
    }
}

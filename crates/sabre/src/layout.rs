//! Initial-layout selection and the production route.
//!
//! [`LayoutTrials`] is the one entry point from a prepared circuit to its
//! production route, at every trial count. It builds the dependency DAG
//! once, chooses a layout — the identity for a circuit without two-qubit
//! gates, [`sabre_layout_prepared_budgeted`]'s single-RNG refinement for
//! one trial, [`split_seed`]-seeded policy-aware trials otherwise — and
//! routes from it on the production RNG, which it owns.
//!
//! A refinement pass keeps only its final layout. Under a policy whose
//! decisions never read the routed output ([`SwapPolicy::READS_OUTPUT`]
//! false, as [`SabrePolicy`] declares) it records none: no routing-state
//! pushes, no SWAP emission, no circuit. So the six passes of the
//! single-trial search and every refinement pass of a SABRE multi-trial
//! search build nothing, while NASSC's refinement passes, whose score reads
//! the output, and every scoring or production route still record. Either
//! way a pass keeps its budget checkpoints, failpoint and SWAP-budget
//! assert, draws the same random numbers and ends on the same layout.

use rand::rngs::StdRng;
use rand::SeedableRng;

use nassc_circuit::{DagCircuit, QuantumCircuit};
use nassc_parallel::{Budget, ThreadPool};
use nassc_topology::{CouplingMap, DistanceMatrix, Layout};

use crate::config::{SabreConfig, LAYOUT_ITERATIONS};
use crate::router::{
    refinement_pass, route_prepared_budgeted, RoutingResult, SabrePolicy, SwapPolicy,
};

/// Derives an independent child seed from `base` and a stream index.
///
/// SplitMix64-style finalizer over the combined words: statistically
/// independent streams for neighbouring indices, and child `i` of a given
/// base is the same value no matter how many siblings exist — the property
/// that makes trial results independent of the configured trial count and of
/// scheduling order.
pub fn split_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// [`sabre_layout_prepared_budgeted`] with an unlimited budget and the
/// seed of `config`, kept with its signature for callers that recompose the
/// pipeline stage by stage. Every routing pass scores on its own thread, so
/// `_score_pool` is unused.
pub fn sabre_layout_prepared(
    dag: &DagCircuit,
    reversed_dag: &DagCircuit,
    coupling: &CouplingMap,
    distances: &DistanceMatrix,
    config: &SabreConfig,
    _score_pool: &ThreadPool,
) -> Layout {
    sabre_layout_prepared_budgeted(
        dag,
        reversed_dag,
        coupling,
        distances,
        config.seed,
        &Budget::unlimited(),
    )
}

/// Chooses an initial layout with SABRE's random start and reverse-traversal
/// refinement — the single-trial search of [`LayoutTrials`].
///
/// `dag` and `reversed_dag` are the dependency DAGs of the circuit and of
/// its reversal; [`LayoutTrials`] builds them once and shares the forward
/// one with its production route. One `StdRng` seeded from `seed` threads
/// through the random start and all [`LAYOUT_ITERATIONS`] refinement
/// rounds; a multi-trial search instead seeds each trial from its own
/// stream, which does not depend on call-ordering internals.
///
/// The search always runs: [`LayoutTrials::run`] gives a circuit without
/// two-qubit gates the identity layout instead of calling it. Its
/// refinement passes record no output (see the [module docs](self)).
///
/// `budget` is checked at the start of the search and once per routing step
/// of every refinement pass (see [`route_prepared_budgeted`]). Outputs are
/// unchanged whenever the budget does not trip.
pub fn sabre_layout_prepared_budgeted(
    dag: &DagCircuit,
    reversed_dag: &DagCircuit,
    coupling: &CouplingMap,
    distances: &DistanceMatrix,
    seed: u64,
    budget: &Budget,
) -> Layout {
    budget.checkpoint();
    nassc_circuit::failpoints::hit("layout_trial");
    let _span = nassc_trace::span!("sabre_layout");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut layout = Layout::random(coupling.num_qubits(), &mut rng);
    for _ in 0..LAYOUT_ITERATIONS {
        let forward = refinement_pass(
            dag,
            coupling,
            distances,
            &layout,
            &mut SabrePolicy,
            &mut rng,
            budget,
        );
        layout = refinement_pass(
            reversed_dag,
            coupling,
            distances,
            &forward,
            &mut SabrePolicy,
            &mut rng,
            budget,
        );
    }
    layout
}

/// The result of a layout search: the winning layout plus the per-trial
/// diagnostics benchmark reports record.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutSelection {
    /// The layout of the winning trial.
    pub layout: Layout,
    /// Index of the winning trial (lowest index on cost ties).
    pub chosen_trial: usize,
    /// Each trial's cost, in trial order: the number of SWAPs its scoring
    /// routing pass inserted (lower is better). Trial `t` refined its
    /// layout from the seed `split_seed(seed, t)`. Empty when no trial was
    /// scored: a single-trial search, or a circuit without two-qubit gates.
    pub trial_costs: Vec<f64>,
}

/// Deterministic argmin over trial costs, tie-breaking by lowest index.
///
/// # Panics
///
/// Panics on an empty slice.
fn select_best_trial(costs: &[f64]) -> usize {
    assert!(!costs.is_empty(), "no layout trials to select from");
    let mut best = 0;
    for (index, &cost) in costs.iter().enumerate().skip(1) {
        if cost < costs[best] {
            best = index;
        }
    }
    best
}

/// The layout engine: the one path from a prepared circuit to its
/// production route, at every trial count.
///
/// [`new`](Self::new) builds the dependency DAG, [`run`](Self::run) chooses
/// a layout and routes from it, and [`route`](Self::route) replays the
/// route from a layout an earlier run chose. Every production route — a
/// trial's scoring pass, the single-trial route, the identity-layout route
/// and the replay — runs on a `StdRng` seeded directly from `seed` with a
/// fresh policy, so a replay equals its cold run.
///
/// With one trial (the default) `run` refines a random start with
/// [`sabre_layout_prepared_budgeted`]. With `N > 1` it keeps the trial
/// whose refined layout routes with the fewest SWAPs, the trial score of
/// Qiskit's `SabreLayout`. Refinement stage `k` of trial `t` seeds a fresh
/// `StdRng` with `split_seed(split_seed(seed, t), k)`, so the result is a
/// pure function of `(inputs, seed, trial index)`: independent of the
/// worker count, of how many sibling trials run, and of how many random
/// draws any routing pass consumes. The scoring pass is the production
/// route, so a trial's cost is what the pipeline pays if it wins, and the
/// winner's scoring route is returned instead of routing again.
///
/// Refinement and scoring run through a caller-supplied [`SwapPolicy`]
/// factory, so optimization-aware routers refine layouts with their own cost
/// function instead of the plain SABRE heuristic; a refinement pass records
/// its output only when the policy reads it (see the [module docs](self)).
/// Every policy is priced alike: routing emits each input gate once and
/// every SWAP later expands into three CNOTs, so the SWAP count ranks trials
/// exactly as the CNOT count of the expanded circuit would.
///
/// # Example
///
/// ```
/// use nassc_circuit::QuantumCircuit;
/// use nassc_sabre::{LayoutTrials, SabrePolicy};
/// use nassc_topology::CouplingMap;
///
/// let mut qc = QuantumCircuit::new(3);
/// qc.cx(1, 2).cx(0, 1).cx(0, 2);
/// let device = CouplingMap::linear(3);
/// let distances = device.distance_matrix();
/// let engine = LayoutTrials::new(&qc, &device, &distances, 7).trials(4);
/// let (selection, routed) = engine.run(|| SabrePolicy);
/// assert_eq!(selection.trial_costs.len(), 4);
/// assert!(selection.chosen_trial < 4);
/// let replay = engine.route(&selection.layout, &|| SabrePolicy);
/// assert_eq!(replay.circuit, routed.circuit);
/// ```
#[derive(Debug, Clone)]
pub struct LayoutTrials<'a> {
    circuit: &'a QuantumCircuit,
    dag: DagCircuit,
    coupling: &'a CouplingMap,
    distances: &'a DistanceMatrix,
    seed: u64,
    trials: usize,
    pool: ThreadPool,
    budget: Budget,
}

impl<'a> LayoutTrials<'a> {
    /// An engine over the given inputs, defaulting to one trial on a serial
    /// pool. Builds the circuit's dependency DAG, which every route shares.
    pub fn new(
        circuit: &'a QuantumCircuit,
        coupling: &'a CouplingMap,
        distances: &'a DistanceMatrix,
        seed: u64,
    ) -> Self {
        let dag = {
            let _span = nassc_trace::span!("dag_build");
            DagCircuit::from_circuit(circuit)
        };
        Self {
            circuit,
            dag,
            coupling,
            distances,
            seed,
            trials: 1,
            pool: ThreadPool::new(1),
            budget: Budget::unlimited(),
        }
    }

    /// Sets the number of independent trials (clamped to at least 1).
    pub fn trials(mut self, trials: usize) -> Self {
        self.trials = trials.max(1);
        self
    }

    /// Maps the trials of a multi-trial [`run`](Self::run) over `pool`
    /// (results never depend on its size). Each trial's routing passes,
    /// and every route outside a trial, score on their own thread.
    pub fn pool(mut self, pool: ThreadPool) -> Self {
        self.pool = pool;
        self
    }

    /// Runs the engine under a cooperative [`Budget`]: the search checks it
    /// at every trial start and every route once per routing step, aborting
    /// by unwinding with a typed [`Cancelled`] payload when it is
    /// exhausted. The budget's flag is shared, so once one trial trips,
    /// sibling trials on other workers abort at their own next checkpoint.
    ///
    /// [`Cancelled`]: nassc_parallel::Cancelled
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Chooses the layout and returns it with the per-trial diagnostics,
    /// plus the production route from it.
    ///
    /// `make_policy` builds a fresh [`SwapPolicy`] for each routing pass, so
    /// stateful policies never leak state across passes. A circuit without
    /// two-qubit gates gets the identity layout and is routed as is; one
    /// trial refines a single layout and then routes it; several trials
    /// return the winner's scoring route, which is byte-identical to what
    /// [`route`](Self::route) produces from the winning layout.
    pub fn run<P, F>(&self, make_policy: F) -> (LayoutSelection, RoutingResult)
    where
        P: SwapPolicy,
        F: Fn() -> P + Sync,
    {
        let unscored = |layout: Layout| {
            let routed = self.route(&layout, &make_policy);
            let selection = LayoutSelection {
                layout,
                chosen_trial: 0,
                trial_costs: Vec::new(),
            };
            (selection, routed)
        };
        if self.circuit.two_qubit_gate_count() == 0 {
            return unscored(Layout::trivial(self.coupling.num_qubits()));
        }
        let reversed_dag = {
            let _span = nassc_trace::span!("dag_build");
            DagCircuit::from_circuit(&self.circuit.reversed())
        };
        if self.trials == 1 {
            let layout = sabre_layout_prepared_budgeted(
                &self.dag,
                &reversed_dag,
                self.coupling,
                self.distances,
                self.seed,
                &self.budget,
            );
            // The production route reads only the forward DAG.
            drop(reversed_dag);
            return unscored(layout);
        }
        let mut span = nassc_trace::span!("layout_trials");
        span.arg_u64("trials", self.trials as u64);
        let mut candidates: Vec<(Layout, f64, RoutingResult)> =
            self.pool.map((0..self.trials).collect(), |trial| {
                self.run_trial(trial, &reversed_dag, &make_policy)
            });
        let trial_costs: Vec<f64> = candidates.iter().map(|c| c.1).collect();
        let chosen_trial = select_best_trial(&trial_costs);
        span.arg_u64("chosen_trial", chosen_trial as u64);
        span.arg_f64("chosen_cost", trial_costs[chosen_trial]);
        let (layout, _, routed) = candidates.swap_remove(chosen_trial);
        let selection = LayoutSelection {
            layout,
            chosen_trial,
            trial_costs,
        };
        (selection, routed)
    }

    /// The production route from `layout`: the warm replay of a layout an
    /// earlier [`run`](Self::run) chose, bit-identical to that run's route.
    pub fn route<P, F>(&self, layout: &Layout, make_policy: &F) -> RoutingResult
    where
        P: SwapPolicy,
        F: Fn() -> P,
    {
        let _span = nassc_trace::span!("route");
        self.production_route(layout, make_policy)
    }

    /// Builds every production route: a fresh policy, and the RNG seeded
    /// directly from `seed`.
    fn production_route<P: SwapPolicy>(
        &self,
        layout: &Layout,
        make_policy: &impl Fn() -> P,
    ) -> RoutingResult {
        route_prepared_budgeted(
            &self.dag,
            self.coupling,
            self.distances,
            layout,
            &mut make_policy(),
            &mut StdRng::seed_from_u64(self.seed),
            &self.budget,
        )
    }

    /// One trial: random start, [`LAYOUT_ITERATIONS`] forward/backward
    /// refinement rounds (each stage on its own freshly seeded RNG from the
    /// trial's stream), then the production route as its scoring pass, so
    /// the returned cost is exactly what the pipeline pays for this layout.
    fn run_trial<P, F>(
        &self,
        trial: usize,
        reversed_dag: &DagCircuit,
        make_policy: &F,
    ) -> (Layout, f64, RoutingResult)
    where
        P: SwapPolicy,
        F: Fn() -> P,
    {
        // A trial is the per-trial budget checkpoint: a deadline tripping
        // here unwinds with `Cancelled`, which the worker pool recognises
        // (not a fault) and the session boundary maps to a deadline error.
        self.budget.checkpoint();
        nassc_circuit::failpoints::hit("layout_trial");
        let trial_seed = split_seed(self.seed, trial as u64);
        let mut span = nassc_trace::span!("layout_trial");
        span.arg_u64("trial", trial as u64);
        span.arg_u64("seed", trial_seed);
        let mut stage = 0u64;
        let mut stage_rng = || {
            let rng = StdRng::seed_from_u64(split_seed(trial_seed, stage));
            stage += 1;
            rng
        };

        let mut layout = Layout::random(self.coupling.num_qubits(), &mut stage_rng());
        for _ in 0..LAYOUT_ITERATIONS {
            let forward = refinement_pass(
                &self.dag,
                self.coupling,
                self.distances,
                &layout,
                &mut make_policy(),
                &mut stage_rng(),
                &self.budget,
            );
            layout = refinement_pass(
                reversed_dag,
                self.coupling,
                self.distances,
                &forward,
                &mut make_policy(),
                &mut stage_rng(),
                &self.budget,
            );
        }
        let scored = self.production_route(&layout, make_policy);
        let cost = scored.swap_count as f64;
        span.arg_f64("cost", cost);
        (layout, cost, scored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::route_prepared;
    use nassc_passes::is_mapped;

    fn run(engine: &LayoutTrials<'_>) -> LayoutSelection {
        engine.run(|| SabrePolicy).0
    }

    fn ring_circuit(n: usize, rounds: usize) -> QuantumCircuit {
        let mut qc = QuantumCircuit::new(n);
        for _ in 0..rounds {
            for i in 0..n {
                qc.cx(i, (i + 1) % n);
            }
        }
        qc
    }

    fn assert_is_permutation(layout: &Layout, n: usize) {
        let mut seen = vec![false; n];
        for q in 0..n {
            seen[layout.physical_of(q)] = true;
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn sabre_layout_produces_valid_layout() {
        let montreal = CouplingMap::ibmq_montreal();
        let distances = montreal.distance_matrix();
        let mut qc = QuantumCircuit::new(5);
        qc.cx(0, 1).cx(1, 2).cx(2, 3).cx(3, 4).cx(0, 4);
        let layout = sabre_layout_prepared(
            &DagCircuit::from_circuit(&qc),
            &DagCircuit::from_circuit(&qc.reversed()),
            &montreal,
            &distances,
            &SabreConfig { seed: 9 },
            &ThreadPool::new(1),
        );
        assert_eq!(layout.len(), 27);
        assert_is_permutation(&layout, 27);
    }

    #[test]
    fn layout_refinement_reduces_swaps_compared_to_worst_case() {
        // A ring-structured circuit on the montreal map: a refined layout
        // should route with a reasonable number of SWAPs.
        let montreal = CouplingMap::ibmq_montreal();
        let distances = montreal.distance_matrix();
        let qc = ring_circuit(6, 3);
        let config = SabreConfig { seed: 2 };
        let (dag, reversed_dag) = (
            DagCircuit::from_circuit(&qc),
            DagCircuit::from_circuit(&qc.reversed()),
        );
        let pool = ThreadPool::new(1);
        let layout =
            sabre_layout_prepared(&dag, &reversed_dag, &montreal, &distances, &config, &pool);
        let routed = route_prepared(
            &dag,
            &montreal,
            &distances,
            &layout,
            &config,
            &mut SabrePolicy,
            &mut StdRng::seed_from_u64(2),
            &pool,
        );
        assert!(is_mapped(&routed.circuit, &montreal));
        // 18 CNOTs on a sensible layout should need well under 2 SWAPs per CNOT.
        assert!(
            routed.swap_count <= 27,
            "needed {} swaps",
            routed.swap_count
        );
    }

    #[test]
    fn split_seed_is_deterministic_and_spreads() {
        assert_eq!(split_seed(2022, 3), split_seed(2022, 3));
        let children: Vec<u64> = (0..32).map(|i| split_seed(2022, i)).collect();
        let mut unique = children.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), children.len(), "child seeds collide");
        assert_ne!(split_seed(2022, 0), split_seed(2023, 0));
    }

    #[test]
    fn select_best_trial_tie_breaks_by_lowest_index() {
        assert_eq!(select_best_trial(&[3.0, 2.0, 2.0, 5.0]), 1);
        assert_eq!(select_best_trial(&[4.0, 4.0, 4.0]), 0);
        assert_eq!(select_best_trial(&[9.0]), 0);
        assert_eq!(select_best_trial(&[5.0, 1.0, 0.5, 0.5]), 2);
    }

    #[test]
    #[should_panic(expected = "no layout trials")]
    fn select_best_trial_rejects_empty_input() {
        select_best_trial(&[]);
    }

    #[test]
    fn degenerate_circuits_get_the_identity_layout() {
        let device = CouplingMap::linear(5);
        let distances = device.distance_matrix();
        let mut qc = QuantumCircuit::new(3);
        qc.h(0).h(1).h(2);
        for trials in [1, 4] {
            let (selection, routed) = LayoutTrials::new(&qc, &device, &distances, 4)
                .trials(trials)
                .run(|| SabrePolicy);
            assert_eq!(selection.layout, Layout::trivial(5), "{trials} trials");
            assert_eq!(selection.chosen_trial, 0);
            assert!(selection.trial_costs.is_empty());
            assert_eq!(routed.initial_layout, Layout::trivial(5));
            assert_eq!(routed.swap_count, 0, "{trials} trials");
            assert_eq!(routed.circuit.num_gates(), 3);
        }
    }

    #[test]
    fn trial_results_are_independent_of_worker_count_and_trial_count() {
        let device = CouplingMap::grid(2, 3);
        let distances = device.distance_matrix();
        let qc = ring_circuit(5, 2);
        let engine = LayoutTrials::new(&qc, &device, &distances, 11);

        let serial = run(&engine.clone().trials(4));
        for workers in [2, 8] {
            let parallel = run(&engine.clone().trials(4).pool(ThreadPool::new(workers)));
            assert_eq!(serial, parallel, "{workers} workers");
        }
        // Trial 0..4 of an 8-trial run are the same trials: costs are a
        // pure function of (inputs, seed, trial index).
        let wider = run(&engine.clone().trials(8));
        assert_eq!(&wider.trial_costs[..4], &serial.trial_costs[..]);
    }

    #[test]
    fn selection_wins_by_cost_and_layout_is_valid() {
        let device = CouplingMap::ibmq_montreal();
        let distances = device.distance_matrix();
        let qc = ring_circuit(6, 3);
        let selection = run(&LayoutTrials::new(&qc, &device, &distances, 2).trials(5));
        assert_eq!(selection.trial_costs.len(), 5);
        assert_is_permutation(&selection.layout, 27);
        let best = selection.trial_costs[selection.chosen_trial];
        assert!(selection.trial_costs.iter().all(|&cost| cost >= best));
        // The winner is the first trial achieving the minimum.
        let first_min = selection
            .trial_costs
            .iter()
            .position(|&cost| cost == best)
            .unwrap();
        assert_eq!(selection.chosen_trial, first_min);
    }

    #[test]
    fn exhausted_budget_aborts_the_search_with_a_cancelled_payload() {
        let device = CouplingMap::ibmq_montreal();
        let distances = device.distance_matrix();
        let qc = ring_circuit(6, 3);
        let budget = Budget::unlimited();
        budget.cancel();
        let engine = LayoutTrials::new(&qc, &device, &distances, 2)
            .trials(3)
            .budget(budget);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&engine)));
        let payload = caught.expect_err("cancelled budget must abort the search");
        assert!(
            nassc_parallel::Cancelled::from_payload(payload.as_ref()),
            "abort must carry the typed Cancelled payload"
        );
    }

    #[test]
    fn generous_budget_leaves_results_bit_identical() {
        let device = CouplingMap::grid(2, 3);
        let distances = device.distance_matrix();
        let qc = ring_circuit(5, 2);
        let engine = LayoutTrials::new(&qc, &device, &distances, 11).trials(4);
        let unbudgeted = run(&engine);
        let budgeted = run(&engine
            .clone()
            .budget(Budget::with_timeout(std::time::Duration::from_secs(3600))));
        assert_eq!(unbudgeted, budgeted);
    }

    #[test]
    fn more_trials_never_worsen_the_scoring_cost() {
        let device = CouplingMap::ibmq_montreal();
        let distances = device.distance_matrix();
        let qc = ring_circuit(6, 3);
        let four = run(&LayoutTrials::new(&qc, &device, &distances, 13).trials(4));
        assert!(
            four.trial_costs[four.chosen_trial] <= four.trial_costs[0],
            "the 4-trial winner scored worse than trial 0 alone"
        );
    }
}

//! Initial-layout selection: SABRE's reverse-traversal refinement and the
//! multi-trial selection engine.
//!
//! Two entry points:
//!
//! * [`sabre_layout_prepared_budgeted`] — the single-trial path: one random
//!   start refined with the plain SABRE heuristic through a single shared
//!   RNG, over prebuilt dependency DAGs. This is what `layout_trials = 1`
//!   pipelines use. It always runs the search, so callers give a circuit
//!   without two-qubit gates the identity layout themselves.
//! * [`LayoutTrials`] — the multi-trial engine: `N` independent trials, each
//!   with its own [`split_seed`]-derived seed stream, refined through a
//!   *generic* [`SwapPolicy`] (so NASSC refines layouts with its
//!   optimization-aware cost, not just plain SABRE), scored by a full
//!   routing pass and reduced to the argmin with deterministic lowest-index
//!   tie-breaking. Trials fan out across a [`ThreadPool`]; because every
//!   trial owns its seed stream, results are bit-identical regardless of
//!   worker count or of how many sibling trials run. A circuit with no
//!   two-qubit gates needs no search: the engine returns the identity
//!   layout without routing.

use rand::rngs::StdRng;
use rand::SeedableRng;

use nassc_circuit::{DagCircuit, QuantumCircuit};
use nassc_parallel::{Budget, ThreadPool};
use nassc_topology::{CouplingMap, DistanceMatrix, Layout};

use crate::config::SabreConfig;
use crate::router::{route_prepared_budgeted, RoutingResult, SabrePolicy, SwapPolicy};

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

/// [`sabre_layout_prepared_budgeted`] with an unlimited budget.
pub fn sabre_layout_prepared(
    dag: &DagCircuit,
    reversed_dag: &DagCircuit,
    coupling: &CouplingMap,
    distances: &DistanceMatrix,
    config: &SabreConfig,
    score_pool: &ThreadPool,
) -> Layout {
    sabre_layout_prepared_budgeted(
        dag,
        reversed_dag,
        coupling,
        distances,
        config,
        score_pool,
        &Budget::unlimited(),
    )
}

/// Chooses an initial layout with SABRE's random start and reverse-traversal
/// refinement — the single-trial path.
///
/// `dag` and `reversed_dag` are the dependency DAGs of the circuit and of
/// its reversal; the single-trial pipeline builds them once and shares the
/// forward one with its production routing pass. One `StdRng` seeded from
/// `config.seed` threads through the random start and every refinement
/// pass; multi-trial pipelines use [`LayoutTrials`], whose per-trial seed
/// streams do not depend on call-ordering internals. `score_pool` fans
/// candidate scoring across workers and affects wall clock only.
///
/// The search always runs: callers check first whether the circuit has any
/// two-qubit gate, and give one without the identity layout.
///
/// `budget` is checked at the start of the search and once per routing step
/// of every refinement pass (see [`route_prepared_budgeted`]). Outputs are
/// unchanged whenever the budget does not trip.
pub fn sabre_layout_prepared_budgeted(
    dag: &DagCircuit,
    reversed_dag: &DagCircuit,
    coupling: &CouplingMap,
    distances: &DistanceMatrix,
    config: &SabreConfig,
    score_pool: &ThreadPool,
    budget: &Budget,
) -> Layout {
    budget.checkpoint();
    nassc_circuit::failpoints::hit("layout_trial");
    let _span = nassc_trace::span!("sabre_layout");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut layout = Layout::random(coupling.num_qubits(), &mut rng);
    for _ in 0..config.layout_iterations {
        let forward = route_prepared_budgeted(
            dag,
            coupling,
            distances,
            &layout,
            config,
            &mut SabrePolicy,
            &mut rng,
            score_pool,
            budget,
        );
        let backward = route_prepared_budgeted(
            reversed_dag,
            coupling,
            distances,
            &forward.final_layout,
            config,
            &mut SabrePolicy,
            &mut rng,
            score_pool,
            budget,
        );
        layout = backward.final_layout;
    }
    layout
}

/// The outcome of one layout trial: its seed and the cost of the full
/// routing pass that scored its refined layout.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutcome {
    /// Trial index (`0..trials`).
    pub trial: usize,
    /// The [`split_seed`]-derived seed this trial's refinement stream
    /// started from (the scoring pass itself runs on the production RNG).
    pub seed: u64,
    /// Cost of the scoring routing pass, as the `score` function handed to
    /// [`LayoutTrials::run`] priced it. Lower is better.
    pub cost: f64,
}

/// The result of a [`LayoutTrials`] run: the winning layout plus the
/// per-trial diagnostics benchmark reports record.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutSelection {
    /// The layout of the winning trial.
    pub layout: Layout,
    /// Index of the winning trial (lowest index on cost ties).
    pub chosen_trial: usize,
    /// One outcome per trial, in trial order. Empty for the degenerate
    /// no-two-qubit-gate case, where no search runs.
    pub outcomes: Vec<TrialOutcome>,
}

impl LayoutSelection {
    /// The per-trial scoring costs, in trial order.
    pub fn trial_costs(&self) -> Vec<f64> {
        self.outcomes.iter().map(|outcome| outcome.cost).collect()
    }
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

/// The multi-trial layout engine.
///
/// Runs `trials` independent layout searches and keeps the one whose refined
/// layout routes the circuit most cheaply. Refinement draws randomness from
/// a private per-trial seed stream — refinement stage `k` of trial `t` seeds
/// a fresh `StdRng` with `split_seed(split_seed(config.seed, t), k)` — so
/// the result is a pure function of `(inputs, config.seed, trial index)`:
/// independent of the worker count, of how many sibling trials run, and of
/// how many random draws any individual routing pass happens to consume.
///
/// The scoring pass deliberately does *not* use the trial stream: it routes
/// with a `StdRng` seeded directly from `config.seed` — exactly the RNG the
/// production routing pass uses — so each trial's cost is the cost the
/// pipeline will actually pay if that trial's layout wins, not a
/// differently-seeded estimate of it.
///
/// Refinement and scoring run through a caller-supplied [`SwapPolicy`]
/// factory, so optimization-aware routers refine layouts with their own cost
/// function instead of the plain SABRE heuristic.
///
/// # Example
///
/// ```
/// use nassc_circuit::QuantumCircuit;
/// use nassc_sabre::{LayoutTrials, SabreConfig, SabrePolicy};
/// use nassc_topology::CouplingMap;
///
/// let mut qc = QuantumCircuit::new(3);
/// qc.cx(1, 2).cx(0, 1).cx(0, 2);
/// let device = CouplingMap::linear(3);
/// let distances = device.distance_matrix();
/// let config = SabreConfig::with_seed(7);
/// let (selection, _) = LayoutTrials::new(&qc, &device, &distances, &config)
///     .trials(4)
///     .run(|| SabrePolicy, |routed, _| routed.swap_count as f64);
/// assert_eq!(selection.outcomes.len(), 4);
/// assert!(selection.chosen_trial < 4);
/// ```
#[derive(Debug, Clone)]
pub struct LayoutTrials<'a> {
    circuit: &'a QuantumCircuit,
    coupling: &'a CouplingMap,
    distances: &'a DistanceMatrix,
    config: &'a SabreConfig,
    trials: usize,
    pool: ThreadPool,
    score_pool: ThreadPool,
    budget: Budget,
}

impl<'a> LayoutTrials<'a> {
    /// An engine over the given inputs, defaulting to one trial on a serial
    /// pool.
    pub fn new(
        circuit: &'a QuantumCircuit,
        coupling: &'a CouplingMap,
        distances: &'a DistanceMatrix,
        config: &'a SabreConfig,
    ) -> Self {
        Self {
            circuit,
            coupling,
            distances,
            config,
            trials: 1,
            pool: ThreadPool::new(1),
            score_pool: ThreadPool::new(1),
            budget: Budget::unlimited(),
        }
    }

    /// Sets the number of independent trials (clamped to at least 1).
    pub fn trials(mut self, trials: usize) -> Self {
        self.trials = trials.max(1);
        self
    }

    /// Fans trials across `pool` (results never depend on its size).
    pub fn pool(mut self, pool: ThreadPool) -> Self {
        self.pool = pool;
        self
    }

    /// Fans each routing pass's candidate scoring across `pool` (results
    /// never depend on its size). Callers with a fixed worker budget split
    /// it between trials and scoring via
    /// [`ThreadPool::split_budget`] so the two levels never oversubscribe.
    pub fn score_pool(mut self, pool: ThreadPool) -> Self {
        self.score_pool = pool;
        self
    }

    /// Runs the trials under a cooperative [`Budget`]: each trial checks it
    /// at trial start and once per routing step, aborting the whole search
    /// by unwinding with a typed [`Cancelled`] payload when it is
    /// exhausted. The budget's flag is shared, so once one trial trips,
    /// sibling trials on other workers abort at their own next checkpoint.
    ///
    /// [`Cancelled`]: nassc_parallel::Cancelled
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Runs every trial and returns the winning layout with per-trial
    /// diagnostics, plus the winning trial's scoring pass: its
    /// [`RoutingResult`] and the policy that produced it.
    ///
    /// `make_policy` builds a fresh [`SwapPolicy`] for each routing pass, so
    /// stateful policies never leak state across passes. `score` receives
    /// each trial's scoring [`RoutingResult`] together with the policy that
    /// produced it, and returns the cost to minimise — the SWAP count for
    /// plain SABRE, or, for an optimization-aware router, the CNOTs that
    /// survive decomposing the routed SWAPs with the policy's recorded
    /// orientations.
    ///
    /// Because the scoring pass routes on the production RNG
    /// (`config.seed`), the returned result is byte-identical to what
    /// re-routing the winning layout would produce — callers (the transpile
    /// pipeline) reuse it instead of paying a duplicate routing pass. `None`
    /// only in the degenerate no-two-qubit-gate case, where no routing runs.
    #[allow(clippy::type_complexity)]
    pub fn run<P, F, S>(
        &self,
        make_policy: F,
        score: S,
    ) -> (LayoutSelection, Option<(RoutingResult, P)>)
    where
        P: SwapPolicy + Send + Sync,
        F: Fn() -> P + Sync,
        S: Fn(&RoutingResult, &P) -> f64 + Sync,
    {
        if self.circuit.two_qubit_gate_count() == 0 {
            let selection = LayoutSelection {
                layout: Layout::trivial(self.coupling.num_qubits()),
                chosen_trial: 0,
                outcomes: Vec::new(),
            };
            return (selection, None);
        }
        // Every trial routes the same two circuits; build each dependency
        // DAG once and share it across all trials and refinement rounds.
        let mut span = nassc_trace::span!("layout_trials");
        span.arg_u64("trials", self.trials as u64);
        let dag = DagCircuit::from_circuit(self.circuit);
        let reversed_dag = DagCircuit::from_circuit(&self.circuit.reversed());
        let mut candidates: Vec<(Layout, TrialOutcome, RoutingResult, P)> =
            self.pool.map((0..self.trials).collect(), |trial| {
                self.run_trial(trial, &dag, &reversed_dag, &make_policy, &score)
            });
        let outcomes: Vec<TrialOutcome> = candidates.iter().map(|c| c.1.clone()).collect();
        let costs: Vec<f64> = outcomes.iter().map(|outcome| outcome.cost).collect();
        let chosen_trial = select_best_trial(&costs);
        span.arg_u64("chosen_trial", chosen_trial as u64);
        span.arg_f64("chosen_cost", costs[chosen_trial]);
        let (layout, _, routed, policy) = candidates.swap_remove(chosen_trial);
        let selection = LayoutSelection {
            layout,
            chosen_trial,
            outcomes,
        };
        (selection, Some((routed, policy)))
    }

    /// One trial: random start, `layout_iterations` forward/backward
    /// refinement rounds (each stage on its own freshly seeded RNG from the
    /// trial's stream), then a scoring pass on the production RNG
    /// (`config.seed`), so the recorded cost is exactly what the pipeline's
    /// final routing pass will pay for this layout.
    fn run_trial<P, F, S>(
        &self,
        trial: usize,
        dag: &DagCircuit,
        reversed_dag: &DagCircuit,
        make_policy: &F,
        score: &S,
    ) -> (Layout, TrialOutcome, RoutingResult, P)
    where
        P: SwapPolicy + Sync,
        F: Fn() -> P + Sync,
        S: Fn(&RoutingResult, &P) -> f64 + Sync,
    {
        // A trial is the per-trial budget checkpoint: a deadline tripping
        // here unwinds with `Cancelled`, which the worker pool recognises
        // (not a fault) and the session boundary maps to a deadline error.
        self.budget.checkpoint();
        nassc_circuit::failpoints::hit("layout_trial");
        let trial_seed = split_seed(self.config.seed, trial as u64);
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
        for _ in 0..self.config.layout_iterations {
            let forward = route_prepared_budgeted(
                dag,
                self.coupling,
                self.distances,
                &layout,
                self.config,
                &mut make_policy(),
                &mut stage_rng(),
                &self.score_pool,
                &self.budget,
            );
            let backward = route_prepared_budgeted(
                reversed_dag,
                self.coupling,
                self.distances,
                &forward.final_layout,
                self.config,
                &mut make_policy(),
                &mut stage_rng(),
                &self.score_pool,
                &self.budget,
            );
            layout = backward.final_layout;
        }
        let mut scoring_policy = make_policy();
        let scored = route_prepared_budgeted(
            dag,
            self.coupling,
            self.distances,
            &layout,
            self.config,
            &mut scoring_policy,
            &mut StdRng::seed_from_u64(self.config.seed),
            &self.score_pool,
            &self.budget,
        );
        let cost = score(&scored, &scoring_policy);
        span.arg_f64("cost", cost);
        let outcome = TrialOutcome {
            trial,
            seed: trial_seed,
            cost,
        };
        (layout, outcome, scored, scoring_policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::route_prepared;
    use nassc_passes::is_mapped;

    /// Prices a trial by the SWAP count of its scoring pass.
    fn swap_cost(routed: &RoutingResult, _: &SabrePolicy) -> f64 {
        routed.swap_count as f64
    }

    fn run(engine: &LayoutTrials<'_>) -> LayoutSelection {
        engine.run(|| SabrePolicy, swap_cost).0
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
            &SabreConfig::with_seed(9),
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
        let config = SabreConfig::with_seed(2);
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
        let config = SabreConfig::with_seed(4);
        let (selection, routed) = LayoutTrials::new(&qc, &device, &distances, &config)
            .trials(4)
            .run(|| SabrePolicy, swap_cost);
        assert_eq!(selection.layout, Layout::trivial(5));
        assert_eq!(selection.chosen_trial, 0);
        assert!(selection.outcomes.is_empty());
        assert!(
            routed.is_none(),
            "no trial routes a circuit without 2q gates"
        );
    }

    #[test]
    fn trial_results_are_independent_of_worker_count_and_trial_count() {
        let device = CouplingMap::grid(2, 3);
        let distances = device.distance_matrix();
        let qc = ring_circuit(5, 2);
        let config = SabreConfig::with_seed(11);
        let engine = LayoutTrials::new(&qc, &device, &distances, &config);

        let serial = run(&engine.clone().trials(4));
        for workers in [2, 8] {
            let parallel = run(&engine.clone().trials(4).pool(ThreadPool::new(workers)));
            assert_eq!(serial, parallel, "{workers} workers");
        }
        // Trial 0..4 of an 8-trial run are the same trials: outcomes are a
        // pure function of (inputs, seed, trial index).
        let wider = run(&engine.clone().trials(8));
        assert_eq!(&wider.outcomes[..4], &serial.outcomes[..]);
    }

    #[test]
    fn selection_wins_by_cost_and_layout_is_valid() {
        let device = CouplingMap::ibmq_montreal();
        let distances = device.distance_matrix();
        let qc = ring_circuit(6, 3);
        let config = SabreConfig::with_seed(2);
        let selection = run(&LayoutTrials::new(&qc, &device, &distances, &config).trials(5));
        assert_eq!(selection.outcomes.len(), 5);
        assert_is_permutation(&selection.layout, 27);
        let best = selection.outcomes[selection.chosen_trial].cost;
        assert!(selection.outcomes.iter().all(|o| o.cost >= best));
        // The winner is the first trial achieving the minimum.
        let first_min = selection
            .outcomes
            .iter()
            .position(|o| o.cost == best)
            .unwrap();
        assert_eq!(selection.chosen_trial, first_min);
    }

    #[test]
    fn exhausted_budget_aborts_the_search_with_a_cancelled_payload() {
        let device = CouplingMap::ibmq_montreal();
        let distances = device.distance_matrix();
        let qc = ring_circuit(6, 3);
        let config = SabreConfig::with_seed(2);
        let budget = Budget::unlimited();
        budget.cancel();
        let engine = LayoutTrials::new(&qc, &device, &distances, &config)
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
        let config = SabreConfig::with_seed(11);
        let engine = LayoutTrials::new(&qc, &device, &distances, &config).trials(4);
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
        let config = SabreConfig::with_seed(13);
        let engine = LayoutTrials::new(&qc, &device, &distances, &config);
        let one = run(&engine.clone().trials(1));
        let four = run(&engine.clone().trials(4));
        assert!(
            four.outcomes[four.chosen_trial].cost <= one.outcomes[0].cost,
            "4 trials scored worse than trial 0 alone"
        );
    }
}

//! End-to-end transpile pipelines: the paper's `Qiskit+SABRE` baseline and
//! `Qiskit+NASSC`, with optional noise-aware (HA) distance matrices.
//!
//! The two flows differ in three places only: how a candidate SWAP is
//! scored, how a layout trial is priced, and how each SWAP is expanded into
//! CNOTs. A crate-private `Router` trait captures those three, and one tail
//! generic over it serves every [`Transpiler`] request, cold or warm.
//! [`RouterKind`] is matched once, where that tail is instantiated, so the
//! routing hot loop stays statically dispatched.
//!
//! [`Transpiler`]: crate::session::Transpiler

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use nassc_circuit::{DagCircuit, QuantumCircuit};
use nassc_parallel::{Budget, ThreadPool};
use nassc_passes::{standard_optimization_pipeline, PassError, PassManager, UnrollToBasis};
use nassc_sabre::{
    route_prepared_budgeted, sabre_layout_prepared_budgeted, LayoutTrials, RoutingResult,
    SabreConfig, SabrePolicy, SwapPolicy,
};
use nassc_topology::{Calibration, CouplingMap, DistanceMatrix, Layout};

use crate::cost::OptimizationFlags;
use crate::policy::NasscPolicy;
use crate::session::CacheStats;

/// Which routing algorithm a [`TranspileOptions`] selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterKind {
    /// The SABRE baseline (Li et al., ASPLOS 2019).
    Sabre,
    /// The paper's optimization-aware router.
    Nassc,
}

/// Options controlling a full transpilation.
///
/// Construct via the fluent builder —
/// `TranspileOptions::new().router(RouterKind::Sabre).layout_trials(4).seed(7)`
/// — or one of the named presets ([`sabre`](Self::sabre),
/// [`nassc`](Self::nassc)). Struct-literal construction over the public
/// fields keeps working for existing callers.
#[derive(Debug, Clone)]
pub struct TranspileOptions {
    /// Which router to use.
    pub router: RouterKind,
    /// Shared SABRE/NASSC heuristic parameters (extended-layer size 20 and
    /// weight 0.5 by default, as in the paper).
    pub config: SabreConfig,
    /// NASSC's optimization flags (`b_k` bits); ignored by SABRE.
    pub flags: OptimizationFlags,
    /// When set, routing uses the noise-aware distance matrix of Eq. 3
    /// (the `+HA` variants of Figure 11).
    pub calibration: Option<Calibration>,
    /// Number of independent layout trials (see
    /// [`nassc_sabre::LayoutTrials`]). `1` (the default) selects the
    /// single-trial path, the single-`StdRng` refinement of
    /// [`nassc_sabre::sabre_layout_prepared_budgeted`]; `N > 1` runs `N`
    /// independently seeded trials refined through the router's own
    /// [`nassc_sabre::SwapPolicy`] and keeps the one whose full routing pass
    /// costs least — fewest SWAPs for SABRE, fewest CNOTs surviving the
    /// optimization-aware decomposition for NASSC (ties break to the lowest
    /// trial index).
    pub layout_trials: usize,
    /// When set, the transpile runs under a cooperative deadline measured
    /// from request entry ([`Transpiler`] methods anchor it when they start
    /// the request): an in-flight transpile aborts at its next checkpoint —
    /// per layout trial, per routing step, per optimization pass — with
    /// [`Error::Deadline`]. `None` (the default) never aborts.
    ///
    /// [`Transpiler`]: crate::session::Transpiler
    /// [`Error::Deadline`]: crate::error::Error::Deadline
    pub deadline: Option<Duration>,
}

/// `deadline` is deliberately **excluded**: options are the layout-cache
/// key, and two requests differing only in how long they may run must share
/// cache entries (the cached result is bit-identical either way).
impl PartialEq for TranspileOptions {
    fn eq(&self, other: &Self) -> bool {
        self.router == other.router
            && self.config == other.config
            && self.flags == other.flags
            && self.calibration == other.calibration
            && self.layout_trials == other.layout_trials
    }
}

impl Default for TranspileOptions {
    /// The paper's headline configuration: `Qiskit+NASSC` with every
    /// optimization enabled and the default seed ([`SabreConfig::default`]).
    fn default() -> Self {
        Self {
            router: RouterKind::Nassc,
            config: SabreConfig::default(),
            flags: OptimizationFlags::all(),
            calibration: None,
            layout_trials: 1,
            deadline: None,
        }
    }
}

impl TranspileOptions {
    /// Starts the fluent builder from the [`Default`] configuration
    /// (`Qiskit+NASSC`, all optimizations, default seed, one layout trial).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the routing algorithm and resets [`flags`](Self::flags) to
    /// that router's canonical set (none for SABRE, which ignores them; all
    /// for NASSC) — so `new().router(RouterKind::Sabre).seed(s)` equals
    /// [`sabre(s)`](Self::sabre) exactly. Set custom flags *after* the
    /// router.
    #[must_use]
    pub fn router(mut self, router: RouterKind) -> Self {
        self.router = router;
        self.flags = match router {
            RouterKind::Sabre => OptimizationFlags::none(),
            RouterKind::Nassc => OptimizationFlags::all(),
        };
        self
    }

    /// Sets the layout/routing RNG seed, keeping the other heuristic
    /// parameters as configured.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Replaces the full SABRE/NASSC heuristic configuration.
    #[must_use]
    pub fn config(mut self, config: SabreConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets NASSC's optimization flags (`b_k` bits); ignored by SABRE.
    #[must_use]
    pub fn flags(mut self, flags: OptimizationFlags) -> Self {
        self.flags = flags;
        self
    }

    /// Builder alias of [`with_calibration`](Self::with_calibration): route
    /// on the noise-aware distance matrix of Eq. 3.
    #[must_use]
    pub fn calibration(self, calibration: Calibration) -> Self {
        self.with_calibration(calibration)
    }

    /// Builder alias of [`with_layout_trials`](Self::with_layout_trials):
    /// run `trials` independent layout trials (clamped to at least 1).
    #[must_use]
    pub fn layout_trials(self, trials: usize) -> Self {
        self.with_layout_trials(trials)
    }

    /// `Qiskit+SABRE` with the given seed.
    pub fn sabre(seed: u64) -> Self {
        Self::new().router(RouterKind::Sabre).seed(seed)
    }

    /// `Qiskit+NASSC` with all optimizations enabled and the given seed.
    pub fn nassc(seed: u64) -> Self {
        Self::new().seed(seed)
    }

    /// `Qiskit+NASSC` with a specific optimization-flag combination
    /// (used by the Figure 9 sweep).
    pub fn nassc_with_flags(seed: u64, flags: OptimizationFlags) -> Self {
        Self::nassc(seed).flags(flags)
    }

    /// The noise-aware variant (`SABRE+HA` / `NASSC+HA`).
    #[must_use]
    pub fn with_calibration(mut self, calibration: Calibration) -> Self {
        self.calibration = Some(calibration);
        self
    }

    /// Runs `trials` independent layout trials (clamped to at least 1) and
    /// keeps the cheapest-to-route layout. `1` preserves the historical
    /// single-trial outputs bit-for-bit.
    #[must_use]
    pub fn with_layout_trials(mut self, trials: usize) -> Self {
        self.layout_trials = trials.max(1);
        self
    }

    /// Caps how long the transpile may run (measured from request entry by
    /// the session API): past the limit the in-flight transpile aborts at
    /// its next checkpoint with [`Error::Deadline`]. A deadline never
    /// changes results — outputs are bit-identical whenever the transpile
    /// finishes in time — and never affects cache keys (see the manual
    /// [`PartialEq`] impl).
    ///
    /// [`Error::Deadline`]: crate::error::Error::Deadline
    #[must_use]
    pub fn deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(limit);
        self
    }
}

/// The outcome of a full transpilation.
#[derive(Debug, Clone)]
pub struct TranspileResult {
    /// The final physical circuit in the IBM basis.
    pub circuit: QuantumCircuit,
    /// The chosen initial layout.
    pub initial_layout: Layout,
    /// The layout after all SWAPs.
    pub final_layout: Layout,
    /// Number of SWAPs inserted during routing (before optimization).
    pub swap_count: usize,
    /// Index of the layout trial whose layout was used (always 0 in the
    /// single-trial compatibility mode).
    pub chosen_layout_trial: usize,
    /// Scoring cost of every layout trial, in trial order. The unit is
    /// router-specific: SWAPs inserted by the trial's full routing pass for
    /// SABRE, CNOTs surviving the optimization-aware decomposition for
    /// NASSC — comparable within a run, not across routers. Empty in
    /// single-trial mode, where no scoring pass runs.
    pub layout_trial_costs: Vec<f64>,
    /// Cache activity this request observed on the [`Transpiler`] session
    /// that served it: hits and misses against the distance, prepared and
    /// layout caches.
    ///
    /// [`Transpiler`]: crate::session::Transpiler
    pub cache: CacheStats,
    /// Wall-clock time of layout, routing, SWAP decomposition and
    /// post-routing optimization. Preparation is not included: the session
    /// runs it earlier, while resolving the request against its caches.
    pub elapsed: Duration,
}

impl TranspileResult {
    /// CNOT count of the final circuit.
    pub fn cx_count(&self) -> usize {
        self.circuit.cx_count()
    }

    /// Depth of the final circuit.
    pub fn depth(&self) -> usize {
        self.circuit.depth()
    }
}

/// The pre-routing pipeline: basis unrolling followed by the standard
/// optimizations (this is also what the paper's "original circuit optimized
/// by Qiskit" baseline columns report).
pub fn optimize_without_routing(circuit: &QuantumCircuit) -> Result<QuantumCircuit, PassError> {
    optimize_without_routing_budgeted(circuit, &Budget::unlimited())
}

/// [`optimize_without_routing`] under a cooperative [`Budget`], checked
/// before each pass (see [`PassManager::run_with_budget`]).
pub(crate) fn optimize_without_routing_budgeted(
    circuit: &QuantumCircuit,
    budget: &Budget,
) -> Result<QuantumCircuit, PassError> {
    let _span = nassc_trace::span!("prepare");
    let mut pm = PassManager::new();
    pm.push(UnrollToBasis);
    let unrolled = pm.run_with_budget(circuit, budget)?;
    standard_optimization_pipeline().run_with_budget(&unrolled, budget)
}

/// What one router contributes to the shared pipeline tail: its SWAP
/// scorer, how it prices a layout trial and how it expands SWAPs.
pub(crate) trait Router: SwapPolicy + Send + Sync {
    /// A fresh policy for one routing pass, so no state leaks across passes.
    fn from_options(options: &TranspileOptions) -> Self;

    /// The cost of a layout trial whose scoring pass this policy routed;
    /// the cheapest trial wins.
    fn trial_cost(&self, routed: &RoutingResult) -> f64;

    /// The routed circuit with every SWAP expanded into CNOTs.
    fn expand_swaps(&self, routed: &QuantumCircuit) -> QuantumCircuit;
}

/// SABRE prices every SWAP at three CNOTs, so a trial's SWAP count is (up to
/// a constant factor) the CNOT overhead its layout costs — the trial score
/// Qiskit's SabreLayout uses. Its SWAPs expand with the fixed default
/// template (what the baseline Qiskit+SABRE flow does): NASSC's expansion
/// with no orientation recorded.
impl Router for SabrePolicy {
    fn from_options(_: &TranspileOptions) -> Self {
        SabrePolicy
    }

    fn trial_cost(&self, routed: &RoutingResult) -> f64 {
        routed.swap_count as f64
    }

    fn expand_swaps(&self, routed: &QuantumCircuit) -> QuantumCircuit {
        NasscPolicy::default().decompose_swaps(routed)
    }
}

/// Not all SWAPs have the same cost: NASSC's expansion cancels CNOTs against
/// neighbouring gates, so a trial is priced by the CNOTs that survive it.
impl Router for NasscPolicy {
    fn from_options(options: &TranspileOptions) -> Self {
        NasscPolicy::new(options.flags)
    }

    fn trial_cost(&self, routed: &RoutingResult) -> f64 {
        self.decompose_swaps(&routed.circuit).cx_count() as f64
    }

    fn expand_swaps(&self, routed: &QuantumCircuit) -> QuantumCircuit {
        self.decompose_swaps(routed)
    }
}

/// A layout search's outcome, as the session's layout cache keeps it.
#[derive(Debug, Clone)]
pub(crate) struct LayoutWinner {
    pub layout: Layout,
    pub chosen_trial: usize,
    pub trial_costs: Vec<f64>,
}

/// The tail of every session request: layout, routing, SWAP expansion and
/// post-routing optimization of a circuit that [`optimize_without_routing`]
/// already prepared.
///
/// A cold request (`cached` is `None`) runs the layout search, splitting
/// `pool` between layout trials and in-pass SWAP scoring. A warm request
/// routes once from the cached winner's layout and echoes its trial
/// diagnostics. The two agree field by field because of how the cold path
/// routes: in single-trial mode its production route is one pass from the
/// refined layout, and in multi-trial mode the winner's scoring pass already
/// runs on the production RNG, so its route *is* the production route (see
/// [`LayoutTrials::run`]). The pool size affects wall clock only.
///
/// Every layout trial, routing step and optimization pass checkpoints
/// `budget`; an exhausted budget unwinds with a typed `Cancelled` payload,
/// caught and classified at the session boundary.
pub(crate) fn transpile_prepared(
    prepared: &QuantumCircuit,
    coupling: &CouplingMap,
    distances: &DistanceMatrix,
    options: &TranspileOptions,
    cached: Option<&LayoutWinner>,
    pool: &ThreadPool,
    budget: &Budget,
) -> Result<TranspileResult, PassError> {
    let tail = Tail {
        prepared,
        coupling,
        distances,
        options,
        budget,
    };
    match options.router {
        RouterKind::Sabre => tail.run::<SabrePolicy>(cached, pool),
        RouterKind::Nassc => tail.run::<NasscPolicy>(cached, pool),
    }
}

/// The inputs every stage of one request's tail reads.
struct Tail<'a> {
    prepared: &'a QuantumCircuit,
    coupling: &'a CouplingMap,
    distances: &'a DistanceMatrix,
    options: &'a TranspileOptions,
    budget: &'a Budget,
}

impl Tail<'_> {
    fn run<R: Router>(
        &self,
        cached: Option<&LayoutWinner>,
        pool: &ThreadPool,
    ) -> Result<TranspileResult, PassError> {
        let start = Instant::now();
        let (routed, decomposed, chosen_layout_trial, layout_trial_costs) = match cached {
            Some(winner) => {
                let mut span = nassc_trace::span!("route_from");
                span.arg_u64("chosen_trial", winner.chosen_trial as u64);
                let (routed, router) = self.route_from::<R>(&winner.layout, pool);
                let decomposed = router.expand_swaps(&routed.circuit);
                let costs = winner.trial_costs.clone();
                (routed, decomposed, winner.chosen_trial, costs)
            }
            None => self.layout_route_decompose::<R>(pool),
        };
        let optimized = {
            let _span = nassc_trace::span!("post_optimize");
            standard_optimization_pipeline().run_with_budget(&decomposed, self.budget)?
        };
        Ok(TranspileResult {
            circuit: optimized,
            initial_layout: routed.initial_layout,
            final_layout: routed.final_layout,
            swap_count: routed.swap_count,
            chosen_layout_trial,
            layout_trial_costs,
            cache: CacheStats::default(),
            elapsed: start.elapsed(),
        })
    }

    /// The cold path: layout search, the production route and SWAP
    /// expansion, plus the layout-trial diagnostics.
    ///
    /// One trial takes the compatibility path — the single-trial SABRE
    /// layout refinement, then one routing pass on the production RNG,
    /// bit-identical to the historical pipeline. Several trials run the
    /// policy-aware [`LayoutTrials`] engine and reuse the winner's scoring
    /// route instead of paying a duplicate routing pass.
    fn layout_route_decompose<R: Router>(
        &self,
        pool: &ThreadPool,
    ) -> (RoutingResult, QuantumCircuit, usize, Vec<f64>) {
        let (trial_pool, score_pool) = pool.split_budget(self.options.layout_trials);
        let (routed, router, chosen_trial, costs) = if self.options.layout_trials <= 1 {
            // Build the dependency DAG once and share it between the layout
            // search and the production routing pass — at 100k gates the
            // per-pass rebuild used to dominate the single-trial path.
            let dag = {
                let _span = nassc_trace::span!("dag_build");
                DagCircuit::from_circuit(self.prepared)
            };
            let layout = if self.prepared.two_qubit_gate_count() == 0 {
                Layout::trivial(self.coupling.num_qubits())
            } else {
                let reversed_dag = DagCircuit::from_circuit(&self.prepared.reversed());
                sabre_layout_prepared_budgeted(
                    &dag,
                    &reversed_dag,
                    self.coupling,
                    self.distances,
                    &self.options.config,
                    &score_pool,
                    self.budget,
                )
            };
            let _span = nassc_trace::span!("route");
            let (routed, router) = self.route_dag::<R>(&dag, &layout, &score_pool);
            (routed, router, 0, Vec::new())
        } else {
            let (selection, winner) = LayoutTrials::new(
                self.prepared,
                self.coupling,
                self.distances,
                &self.options.config,
            )
            .trials(self.options.layout_trials)
            .pool(trial_pool)
            .score_pool(score_pool)
            .budget(self.budget.clone())
            .run(
                || R::from_options(self.options),
                |routed, router: &R| router.trial_cost(routed),
            );
            // No trial routes a circuit without two-qubit gates, so route
            // that degenerate case once from the engine's identity layout.
            let (routed, router) =
                winner.unwrap_or_else(|| self.route_from::<R>(&selection.layout, &score_pool));
            (
                routed,
                router,
                selection.chosen_trial,
                selection.trial_costs(),
            )
        };
        let decomposed = {
            let _span = nassc_trace::span!("decompose");
            router.expand_swaps(&routed.circuit)
        };
        (routed, decomposed, chosen_trial, costs)
    }

    /// One production routing pass from `layout` over a freshly built DAG.
    fn route_from<R: Router>(&self, layout: &Layout, pool: &ThreadPool) -> (RoutingResult, R) {
        self.route_dag(&DagCircuit::from_circuit(self.prepared), layout, pool)
    }

    /// One production routing pass: a fresh policy, and the RNG seeded from
    /// `options.config.seed`.
    fn route_dag<R: Router>(
        &self,
        dag: &DagCircuit,
        layout: &Layout,
        pool: &ThreadPool,
    ) -> (RoutingResult, R) {
        let mut router = R::from_options(self.options);
        let routed = route_prepared_budgeted(
            dag,
            self.coupling,
            self.distances,
            layout,
            &self.options.config,
            &mut router,
            &mut StdRng::seed_from_u64(self.options.config.seed),
            pool,
            self.budget,
        );
        (routed, router)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Transpiler;
    use nassc_passes::is_mapped;

    fn sample_circuit() -> QuantumCircuit {
        let mut qc = QuantumCircuit::new(5);
        qc.h(0);
        for i in 0..4 {
            qc.cx(i, i + 1);
        }
        qc.cx(0, 4).cx(1, 3).cx(0, 2);
        qc
    }

    /// A cold transpile on a fresh session.
    fn transpile(
        circuit: &QuantumCircuit,
        device: &CouplingMap,
        options: &TranspileOptions,
    ) -> TranspileResult {
        Transpiler::new(device.clone(), options.clone())
            .transpile(circuit)
            .unwrap()
    }

    #[test]
    fn sabre_pipeline_produces_mapped_basis_circuit() {
        let device = CouplingMap::linear(5);
        let result = transpile(&sample_circuit(), &device, &TranspileOptions::sabre(3));
        assert!(is_mapped(&result.circuit, &device));
        assert!(result.circuit.iter().all(|i| i.gate.in_ibm_basis()));
        assert!(result.cx_count() > 0);
    }

    #[test]
    fn nassc_pipeline_produces_mapped_basis_circuit() {
        let device = CouplingMap::linear(5);
        let result = transpile(&sample_circuit(), &device, &TranspileOptions::nassc(3));
        assert!(is_mapped(&result.circuit, &device));
        assert!(result.circuit.iter().all(|i| i.gate.in_ibm_basis()));
    }

    #[test]
    fn nassc_does_not_use_more_cnots_than_sabre_on_average() {
        let device = CouplingMap::linear(5);
        let circuit = sample_circuit();
        let mut sabre_total = 0usize;
        let mut nassc_total = 0usize;
        for seed in 0..5 {
            sabre_total += transpile(&circuit, &device, &TranspileOptions::sabre(seed)).cx_count();
            nassc_total += transpile(&circuit, &device, &TranspileOptions::nassc(seed)).cx_count();
        }
        assert!(
            nassc_total <= sabre_total,
            "NASSC used {nassc_total} CNOTs vs SABRE's {sabre_total}"
        );
    }

    #[test]
    fn optimize_without_routing_reaches_basis() {
        let out = optimize_without_routing(&sample_circuit()).unwrap();
        assert!(out.iter().all(|i| i.gate.in_ibm_basis()));
    }

    #[test]
    fn fixed_swap_decomposition_removes_swaps() {
        let mut qc = QuantumCircuit::new(3);
        qc.swap(0, 1).cx(1, 2).swap(1, 2);
        let out = SabrePolicy.expand_swaps(&qc);
        assert_eq!(out.swap_count(), 0);
        assert_eq!(out.cx_count(), 7);
    }

    #[test]
    fn noise_aware_options_run() {
        let device = CouplingMap::ibmq_montreal();
        let cal = Calibration::synthetic(&device, 5);
        let mut qc = QuantumCircuit::new(4);
        qc.h(0).cx(0, 1).cx(1, 2).cx(2, 3).cx(0, 3);
        for options in [
            TranspileOptions::sabre(1).with_calibration(cal.clone()),
            TranspileOptions::nassc(1).with_calibration(cal),
        ] {
            let result = transpile(&qc, &device, &options);
            assert!(is_mapped(&result.circuit, &device));
        }
    }

    #[test]
    fn precomputed_distances_match_the_inline_path() {
        // One session serves every request, so later requests route on a
        // distance matrix an earlier one computed; each must match a fresh
        // session computing its own.
        let device = CouplingMap::ibmq_montreal();
        let cal = Calibration::synthetic(&device, 5);
        let circuit = sample_circuit();
        let shared = Transpiler::new(device.clone(), TranspileOptions::default());
        for options in [
            TranspileOptions::sabre(7),
            TranspileOptions::nassc(7),
            TranspileOptions::nassc(7).with_calibration(cal.clone()),
            TranspileOptions::sabre(7).with_calibration(cal),
        ] {
            let inline = transpile(&circuit, &device, &options);
            let precomputed = shared.transpile_with(&circuit, &options).unwrap();
            assert_eq!(inline.circuit, precomputed.circuit);
            assert_eq!(inline.initial_layout, precomputed.initial_layout);
            assert_eq!(inline.final_layout, precomputed.final_layout);
            assert_eq!(inline.swap_count, precomputed.swap_count);
        }
        // One distance entry per calibration, each reused once.
        let stats = shared.cache_stats();
        assert_eq!((stats.distance_misses, stats.distance_hits), (2, 2));
    }

    #[test]
    fn single_trial_mode_records_no_trial_diagnostics() {
        let device = CouplingMap::linear(5);
        let result = transpile(&sample_circuit(), &device, &TranspileOptions::nassc(3));
        assert_eq!(result.chosen_layout_trial, 0);
        assert!(result.layout_trial_costs.is_empty());
    }

    #[test]
    fn multi_trial_pipeline_is_mapped_and_records_diagnostics() {
        let device = CouplingMap::ibmq_montreal();
        let circuit = sample_circuit();
        for options in [
            TranspileOptions::sabre(3).with_layout_trials(4),
            TranspileOptions::nassc(3).with_layout_trials(4),
        ] {
            let result = transpile(&circuit, &device, &options);
            assert!(is_mapped(&result.circuit, &device));
            assert_eq!(result.layout_trial_costs.len(), 4);
            assert!(result.chosen_layout_trial < 4);
            let best = result.layout_trial_costs[result.chosen_layout_trial];
            assert!(result.layout_trial_costs.iter().all(|&c| c >= best));
        }
    }

    #[test]
    fn multi_trial_results_are_reproducible() {
        let device = CouplingMap::ibmq_montreal();
        let circuit = sample_circuit();
        let options = TranspileOptions::nassc(5).with_layout_trials(3);
        let a = transpile(&circuit, &device, &options);
        let b = transpile(&circuit, &device, &options);
        assert_eq!(a.circuit, b.circuit);
        assert_eq!(a.initial_layout, b.initial_layout);
        assert_eq!(a.chosen_layout_trial, b.chosen_layout_trial);
        assert_eq!(a.layout_trial_costs, b.layout_trial_costs);
    }

    #[test]
    fn transpile_reports_timing_and_swaps() {
        let device = CouplingMap::linear(5);
        let result = transpile(&sample_circuit(), &device, &TranspileOptions::nassc(9));
        assert!(result.elapsed > Duration::ZERO);
        assert!(result.depth() > 0);
        // The sample circuit cannot be routed on a line without SWAPs.
        assert!(result.swap_count > 0);
    }
}

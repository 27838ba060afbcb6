//! End-to-end transpile pipelines: the paper's `Qiskit+SABRE` baseline and
//! `Qiskit+NASSC`, with optional noise-aware (HA) distance matrices.
//!
//! The two flows differ only in their [`SwapPolicy`]: how a candidate SWAP
//! is scored and how the winner is emitted. Both price a layout trial by its
//! SWAP count and expand SWAPs with [`expand_swaps`], which follows the
//! qubit order each SWAP was emitted in. One function serves every
//! [`Transpiler`] request, cold or warm: [`LayoutTrials`] places and routes
//! the prepared circuit, then SWAPs are expanded and the result optimized.
//! [`RouterKind`] is matched once, where the engine is handed its policy
//! factory, so the routing hot loop stays statically dispatched.
//!
//! [`Transpiler`]: crate::session::Transpiler

use std::time::{Duration, Instant};

use nassc_circuit::QuantumCircuit;
use nassc_parallel::{Budget, ThreadPool};
use nassc_passes::{standard_optimization_pipeline, PassError, PassManager, UnrollToBasis};
use nassc_sabre::{
    LayoutSelection, LayoutTrials, RoutingResult, SabreConfig, SabrePolicy, SwapPolicy,
};
use nassc_synthesis::expand_swaps;
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
/// [`nassc`](Self::nassc)). Every option has one builder method, and each
/// is a public field, so struct-literal construction works too.
#[derive(Debug, Clone)]
pub struct TranspileOptions {
    /// Which router to use.
    pub router: RouterKind,
    /// The layout/routing seed. The heuristic's other parameters are the
    /// paper's fixed values (see [`nassc_sabre::config`]).
    pub config: SabreConfig,
    /// NASSC's optimization flags (`b_k` bits); ignored by SABRE.
    pub flags: OptimizationFlags,
    /// When set, routing uses the noise-aware distance matrix of Eq. 3
    /// (the `+HA` variants of Figure 11). Options are the one place a
    /// calibration lives.
    pub calibration: Option<Calibration>,
    /// Number of layout trials (see [`nassc_sabre::LayoutTrials`], the one
    /// entry point from a prepared circuit to its production route, which
    /// also owns the production RNG). `1` (the default) runs the one-RNG
    /// SABRE refinement of
    /// [`nassc_sabre::sabre_layout_prepared_budgeted`]; `N > 1` runs `N`
    /// independently seeded trials refined through the router's own
    /// [`nassc_sabre::SwapPolicy`] and keeps the one whose full routing pass
    /// inserts the fewest SWAPs, for either router (ties break to the lowest
    /// trial index). A circuit without two-qubit gates is routed from the
    /// identity layout at any count.
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

    /// Sets the layout/routing RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets NASSC's optimization flags (`b_k` bits); ignored by SABRE.
    #[must_use]
    pub fn flags(mut self, flags: OptimizationFlags) -> Self {
        self.flags = flags;
        self
    }

    /// Routes on the noise-aware distance matrix of Eq. 3 built from
    /// `calibration`: the `SABRE+HA` / `NASSC+HA` variants.
    #[must_use]
    pub fn calibration(mut self, calibration: Calibration) -> Self {
        self.calibration = Some(calibration);
        self
    }

    /// Runs `trials` independent layout trials (clamped to at least 1) and
    /// keeps the cheapest-to-route layout. `1` preserves the historical
    /// single-trial outputs bit-for-bit.
    #[must_use]
    pub fn layout_trials(mut self, trials: usize) -> Self {
        self.layout_trials = trials.max(1);
        self
    }

    /// `Qiskit+SABRE` with the given seed.
    pub fn sabre(seed: u64) -> Self {
        Self::new().router(RouterKind::Sabre).seed(seed)
    }

    /// `Qiskit+NASSC` with all optimizations enabled and the given seed.
    pub fn nassc(seed: u64) -> Self {
        Self::new().seed(seed)
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
    /// Index of the layout trial whose layout was used (always 0 with one
    /// trial).
    pub chosen_layout_trial: usize,
    /// Scoring cost of every layout trial, in trial order: the SWAPs the
    /// trial's full routing pass inserted, with the router's own policy.
    /// Empty in single-trial mode, where no scoring pass runs.
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

/// The tail of every session request: layout, routing, SWAP expansion and
/// post-routing optimization of a circuit that [`optimize_without_routing`]
/// already prepared.
///
/// [`LayoutTrials`] owns the layout search and the production route. A cold
/// request (`cached` is `None`) runs the search; a warm request routes once
/// from the cached winner's layout and echoes its trial diagnostics. The
/// two agree field by field because the engine builds every production
/// route on the same RNG and a fresh policy. The pool size affects wall
/// clock only.
///
/// Every layout trial, routing step and optimization pass checkpoints
/// `budget`; an exhausted budget unwinds with a typed `Cancelled` payload,
/// caught and classified at the session boundary.
pub(crate) fn transpile_prepared(
    prepared: &QuantumCircuit,
    coupling: &CouplingMap,
    distances: &DistanceMatrix,
    options: &TranspileOptions,
    cached: Option<&LayoutSelection>,
    pool: &ThreadPool,
    budget: &Budget,
) -> Result<TranspileResult, PassError> {
    let start = Instant::now();
    // The engine owns the DAG, so it is dropped before post-optimization.
    let (selection, routed) = {
        let engine = LayoutTrials::new(prepared, coupling, distances, options.config.seed)
            .trials(options.layout_trials)
            .pool(*pool)
            .budget(budget.clone());
        match options.router {
            RouterKind::Sabre => place_and_route(&engine, cached, || SabrePolicy),
            RouterKind::Nassc => {
                place_and_route(&engine, cached, || NasscPolicy::new(options.flags))
            }
        }
    };
    let decomposed = {
        let _span = nassc_trace::span!("decompose");
        expand_swaps(&routed.circuit)
    };
    let optimized = {
        let _span = nassc_trace::span!("post_optimize");
        standard_optimization_pipeline().run_with_budget(&decomposed, budget)?
    };
    Ok(TranspileResult {
        circuit: optimized,
        initial_layout: routed.initial_layout,
        final_layout: routed.final_layout,
        swap_count: routed.swap_count,
        chosen_layout_trial: selection.chosen_trial,
        layout_trial_costs: selection.trial_costs,
        cache: CacheStats::default(),
        elapsed: start.elapsed(),
    })
}

/// Replays the cached winner, or runs the layout search when there is none.
/// `make_policy` builds a fresh policy for every routing pass.
fn place_and_route<P, F>(
    engine: &LayoutTrials<'_>,
    cached: Option<&LayoutSelection>,
    make_policy: F,
) -> (LayoutSelection, RoutingResult)
where
    P: SwapPolicy + Sync,
    F: Fn() -> P + Sync,
{
    match cached {
        Some(winner) => {
            let mut span = nassc_trace::span!("route_from");
            span.arg_u64("chosen_trial", winner.chosen_trial as u64);
            (winner.clone(), engine.route(&winner.layout, &make_policy))
        }
        None => engine.run(make_policy),
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
        let out = expand_swaps(&qc);
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
            TranspileOptions::sabre(1).calibration(cal.clone()),
            TranspileOptions::nassc(1).calibration(cal),
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
            TranspileOptions::nassc(7).calibration(cal.clone()),
            TranspileOptions::sabre(7).calibration(cal),
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
            TranspileOptions::sabre(3).layout_trials(4),
            TranspileOptions::nassc(3).layout_trials(4),
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
        let options = TranspileOptions::nassc(5).layout_trials(3);
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

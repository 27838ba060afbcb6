//! The long-lived [`Transpiler`] session: the one entry point, owning the
//! worker budget and every cross-request cache.
//!
//! A service handling many requests against one device wants the reusable
//! state — distance matrices, prepared pre-routing baselines, thread
//! budgets — owned in one place and reused automatically. A `Transpiler` is
//! constructed once per device and then serves any number of requests,
//! reusing three caches across them:
//!
//! 1. **Distances** — one [`DistanceMatrix`] per distinct calibration (the
//!    device is fixed, so the calibration alone keys an entry); requests
//!    whose options carry a different calibration get their own entry.
//! 2. **Prepared baselines** — the deterministic, seed-independent
//!    pre-routing optimization ([`optimize_without_routing`]) memoized per
//!    structurally distinct circuit, keyed by
//!    [`QuantumCircuit::structural_hash`] and confirmed by full equality.
//! 3. **Layout winners** — the chosen initial layout (plus trial
//!    diagnostics) per options, stored under the prepared entry they were
//!    found for. A warm request replays one routing pass from the cached
//!    layout instead of re-running the whole layout search; the result is
//!    bit-identical to the cold path (see `transpile_prepared` in
//!    `pipeline.rs` for why).
//!
//! Hit/miss counters for all three caches are attached to every
//! [`TranspileResult`] (`result.cache`, this request only) and accumulated
//! on the session ([`Transpiler::cache_stats`]). The session's
//! [`ThreadPool`] handle is the concurrency budget of its two fan-outs, a
//! batch's jobs and a job's layout trials: each parallel batch runs on its
//! caller plus helper threads spawned for it (`nassc-parallel`), so
//! construction is cheap and `NASSC_THREADS` keeps working.
//!
//! Determinism contract: for equal inputs a session returns the same
//! circuits, layouts, SWAP counts and trial diagnostics, bit for bit, at any
//! worker count and any cache temperature — only `elapsed` and `cache`
//! differ. `tests/output_fingerprints.rs` pins those outputs to committed
//! digests.
//!
//! **Fault containment.** Every session entry point is a `catch_unwind`
//! boundary: a panic anywhere in preparation, layout, routing or
//! optimization becomes [`Error::Internal`] for that request alone — the
//! session, its caches and its sibling requests stay serviceable. A request
//! whose [`TranspileOptions::deadline`] expires is aborted cooperatively at
//! the next checkpoint (per layout trial, per routing step, per pass) and
//! reported as [`Error::Deadline`]. Should a panic ever poison the session
//! lock (the cache-commit window is the only code that runs under it), the
//! next lock acquisition recovers by clearing the caches —
//! counted by [`Transpiler::cache_resets`] — and the session continues
//! with a cold cache rather than failing every subsequent request.
//!
//! [`optimize_without_routing`]: crate::pipeline::optimize_without_routing

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nassc_circuit::QuantumCircuit;
use nassc_parallel::{Budget, Cancelled, ThreadPool};
use nassc_passes::PassError;
use nassc_sabre::LayoutSelection;
use nassc_topology::{noise_aware_distance, Calibration, DistanceMatrix};

use crate::device::Device;
use crate::error::Error;
use crate::pipeline::{
    optimize_without_routing_budgeted, transpile_prepared, TranspileOptions, TranspileResult,
};

/// Hit/miss counters of the [`Transpiler`] caches.
///
/// On a [`TranspileResult`] the counters describe that request alone (each
/// of the three pairs sums to the number of cache consultations the request
/// made — one for a single transpile). On [`Transpiler::cache_stats`] they
/// accumulate over the session's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Distance-matrix cache hits (one lookup per request).
    pub distance_hits: u64,
    /// Distance-matrix cache misses (each miss builds a matrix).
    pub distance_misses: u64,
    /// Prepared-baseline cache hits (one lookup per request).
    pub prepared_hits: u64,
    /// Prepared-baseline cache misses (each miss runs the pre-routing
    /// optimization pipeline).
    pub prepared_misses: u64,
    /// Layout-winner cache hits (a hit skips the whole layout search).
    pub layout_hits: u64,
    /// Layout-winner cache misses (each miss runs layout + trials).
    pub layout_misses: u64,
}

impl CacheStats {
    /// Total hits across all three caches.
    pub fn hits(&self) -> u64 {
        self.distance_hits + self.prepared_hits + self.layout_hits
    }

    /// Total misses across all three caches.
    pub fn misses(&self) -> u64 {
        self.distance_misses + self.prepared_misses + self.layout_misses
    }

    /// Adds `other`'s counters into `self` (used to roll per-request stats
    /// into the session totals).
    pub fn accumulate(&mut self, other: &CacheStats) {
        self.distance_hits += other.distance_hits;
        self.distance_misses += other.distance_misses;
        self.prepared_hits += other.prepared_hits;
        self.prepared_misses += other.prepared_misses;
        self.layout_hits += other.layout_hits;
        self.layout_misses += other.layout_misses;
    }
}

/// One request of a [`Transpiler::transpile_jobs`] batch: a circuit and,
/// optionally, options overriding the session defaults (a different seed,
/// router, flag set or calibration — the sweep axes of the paper's grids).
#[derive(Debug, Clone)]
pub struct SessionJob<'a> {
    /// The logical circuit to transpile.
    pub circuit: &'a QuantumCircuit,
    /// Options for this job; `None` uses the session's defaults.
    pub options: Option<TranspileOptions>,
}

impl<'a> SessionJob<'a> {
    /// A job using the session's default options.
    pub fn new(circuit: &'a QuantumCircuit) -> Self {
        Self {
            circuit,
            options: None,
        }
    }

    /// A job with per-job options (seed sweeps, router comparisons).
    pub fn with_options(circuit: &'a QuantumCircuit, options: TranspileOptions) -> Self {
        Self {
            circuit,
            options: Some(options),
        }
    }
}

/// A prepared baseline memoized per structurally distinct raw circuit,
/// with the layout-search winners found for it, one per options.
struct PreparedEntry {
    raw_hash: u64,
    raw: QuantumCircuit,
    prepared: Arc<QuantumCircuit>,
    layouts: Vec<(TranspileOptions, LayoutSelection)>,
}

/// Everything mutable behind the session lock.
#[derive(Default)]
struct SessionState {
    distances: Vec<(Option<Calibration>, Arc<DistanceMatrix>)>,
    prepared: Vec<PreparedEntry>,
    stats: CacheStats,
}

/// What the serial resolution phase hands each fanned-out job: every cache
/// decision is already made, so workers share state without touching the
/// session lock.
struct ResolvedJob {
    index: usize,
    options: TranspileOptions,
    distances: Arc<DistanceMatrix>,
    prepared: Arc<QuantumCircuit>,
    cached_layout: Option<LayoutSelection>,
    stats: CacheStats,
    /// The job's cooperative deadline, anchored at request entry; unlimited
    /// when [`TranspileOptions::deadline`] is unset.
    budget: Budget,
}

/// A long-lived transpilation session for one device.
///
/// Construct once, reuse for every request against that device; see the
/// [module docs](self) for what is cached between requests. All methods
/// take `&self` — the caches sit behind an internal lock, so a session can
/// be shared across threads (requests resolve their cache lookups serially,
/// then fan out).
///
/// # Example
///
/// ```
/// use nassc_core::{RouterKind, Transpiler, TranspileOptions};
/// use nassc_circuit::QuantumCircuit;
/// use nassc_topology::CouplingMap;
///
/// let mut qc = QuantumCircuit::new(3);
/// qc.cx(1, 2).cx(0, 1).cx(0, 2);
///
/// let session = Transpiler::new(
///     CouplingMap::linear(3),
///     TranspileOptions::new().router(RouterKind::Nassc).seed(7),
/// );
/// let cold = session.transpile(&qc).unwrap();
/// let warm = session.transpile(&qc).unwrap();
/// assert_eq!(cold.circuit, warm.circuit);
/// assert_eq!(warm.cache.hits(), 3); // distances, baseline, layout
/// ```
pub struct Transpiler {
    device: Device,
    options: TranspileOptions,
    pool: ThreadPool,
    state: Mutex<SessionState>,
    cache_resets: AtomicU64,
}

impl std::fmt::Debug for Transpiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transpiler")
            .field("device", &self.device)
            .field("options", &self.options)
            .field("pool", &self.pool)
            .field("cache_stats", &self.cache_stats())
            .finish()
    }
}

impl Transpiler {
    /// A session for `device` with the given default options. Anything that
    /// converts into a [`Device`] is accepted — a bare
    /// [`CouplingMap`](nassc_topology::CouplingMap) becomes an anonymous
    /// device. The session routes noise-aware when `options` (or a
    /// request's own options) carry a
    /// [`calibration`](TranspileOptions::calibration). The worker budget
    /// defaults to [`ThreadPool::with_default_parallelism`]
    /// (`NASSC_THREADS` applies).
    pub fn new(device: impl Into<Device>, options: TranspileOptions) -> Self {
        Self {
            device: device.into(),
            options,
            pool: ThreadPool::with_default_parallelism(),
            state: Mutex::new(SessionState::default()),
            cache_resets: AtomicU64::new(0),
        }
    }

    /// Replaces the session's worker budget (builder style). A batch's
    /// jobs and each job's layout trials are mapped over it; routing passes
    /// score on their own thread. Outputs never depend on its size.
    #[must_use]
    pub fn with_pool(mut self, pool: ThreadPool) -> Self {
        self.pool = pool;
        self
    }

    /// The device this session transpiles onto.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The session's default options.
    pub fn options(&self) -> &TranspileOptions {
        &self.options
    }

    /// The session's worker budget.
    pub fn pool(&self) -> ThreadPool {
        self.pool
    }

    /// Cumulative cache counters over every request served so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// How many times poison recovery has reset the session caches — `0`
    /// in a healthy session. Each reset empties all three caches (the next
    /// requests run cold) but preserves the accumulated
    /// [`cache_stats`](Self::cache_stats).
    pub fn cache_resets(&self) -> u64 {
        self.cache_resets.load(Ordering::Relaxed)
    }

    /// Transpiles one circuit under the session's default options.
    ///
    /// # Errors
    ///
    /// [`Error::TooWide`] when the circuit needs more qubits than the device
    /// has, [`Error::Pass`] when an optimization pass fails,
    /// [`Error::Internal`] when a panic was caught (and contained) at the
    /// session boundary, [`Error::Deadline`] when
    /// [`TranspileOptions::deadline`] expired mid-flight.
    pub fn transpile(&self, circuit: &QuantumCircuit) -> Result<TranspileResult, Error> {
        self.transpile_with(circuit, &self.options)
    }

    /// Transpiles one circuit with per-request options (different seed,
    /// router, flags or calibration), still sharing the session caches.
    ///
    /// # Errors
    ///
    /// As [`transpile`](Self::transpile).
    pub fn transpile_with(
        &self,
        circuit: &QuantumCircuit,
        options: &TranspileOptions,
    ) -> Result<TranspileResult, Error> {
        let job = SessionJob::with_options(circuit, options.clone());
        self.transpile_jobs(std::slice::from_ref(&job))
            .pop()
            .expect("one job yields one result")
    }

    /// The general batch entry point: transpiles every job (each optionally
    /// overriding the session options), sharing all caches. Jobs are mapped
    /// over the session's pool, and each job maps its layout trials over
    /// the same pool; trials get helper threads only while the jobs leave
    /// some of the budget free, so the batch never runs more jobs at once
    /// than the budget.
    ///
    /// Results come back in job order and are bit-identical to calling
    /// [`transpile_with`](Self::transpile_with) per job in sequence —
    /// whatever the worker count or cache temperature. A failed job yields
    /// its error in place (see [`transpile`](Self::transpile) for the
    /// kinds); its siblings are unaffected.
    pub fn transpile_jobs(&self, jobs: &[SessionJob<'_>]) -> Vec<Result<TranspileResult, Error>> {
        // Deadlines are anchored here, at request entry: a job's budget
        // covers its share of resolution, layout, routing and optimization.
        let entry = Instant::now();

        // Phase 1 — serial resolution under the lock: every cache read and
        // every preparation happens here, in job order, so cache counters
        // are deterministic and workers never contend on the session lock.
        // The catch boundary sits *inside* the lock scope, so a contained
        // panic never poisons the session lock.
        let resolved: Vec<Result<ResolvedJob, Error>> = {
            let mut resolve_span = nassc_trace::span!("resolve");
            resolve_span.arg_u64("jobs", jobs.len() as u64);
            let mut state = self.lock();
            jobs.iter()
                .enumerate()
                .map(|(index, job)| {
                    let options = job.options.clone().unwrap_or_else(|| self.options.clone());
                    let deadline = options.deadline;
                    // A deadline beyond `Instant`'s range means no deadline.
                    let budget = match deadline.and_then(|limit| entry.checked_add(limit)) {
                        Some(at) => Budget::with_deadline(at),
                        None => Budget::unlimited(),
                    };
                    catch_unwind(AssertUnwindSafe(|| {
                        self.resolve(&mut state, index, job.circuit, options, budget)
                    }))
                    .unwrap_or_else(|payload| Err(classify_panic("prepare", payload, deadline)))
                })
                .collect()
        };

        // Phase 2 — fan the seed-dependent tails across the pool. Each
        // job's tail is its own catch boundary: one panicking or expired
        // job fails alone while its siblings complete normally.
        let mut results = self
            .pool
            .map(resolved.iter().collect(), |resolved| match resolved {
                Ok(resolved) => self.run_resolved(resolved),
                Err(e) => Err(e.clone()),
            });

        // Phase 3 — commit: stamp per-request counters, memoize the layout
        // winners that cold jobs just discovered, roll up session stats.
        for (resolved, result) in resolved.iter().zip(results.iter_mut()) {
            if let (Ok(resolved), Ok(result)) = (resolved, result.as_mut()) {
                result.cache = resolved.stats;
            }
        }
        let committed: Vec<ResolvedJob> = resolved.into_iter().filter_map(Result::ok).collect();
        // Contained: the results are already valid, so a panic while
        // memoizing is swallowed here. It poisons the session lock (commit
        // runs under it) and the next `lock()` recovers by resetting the
        // caches — requests keep succeeding, just cold.
        let _ = catch_unwind(AssertUnwindSafe(|| self.commit(&committed, &results)));
        results
    }

    /// Transpiles OpenQASM 2.0 source under the session's default options:
    /// parse, then [`transpile`](Self::transpile), with every failure domain
    /// folded into one [`Error`] (branch on [`Error::kind`]).
    ///
    /// # Errors
    ///
    /// [`Error::Qasm`] when the source does not parse; otherwise as
    /// [`transpile`](Self::transpile).
    pub fn transpile_qasm(&self, source: &str) -> Result<TranspileResult, Error> {
        self.transpile_qasm_with(source, &self.options)
    }

    /// [`transpile_qasm`](Self::transpile_qasm) with per-request options —
    /// what the `nassc-serve` daemon calls for requests overriding the
    /// session defaults (router, seed, layout trials).
    ///
    /// # Errors
    ///
    /// As [`transpile_qasm`](Self::transpile_qasm).
    pub fn transpile_qasm_with(
        &self,
        source: &str,
        options: &TranspileOptions,
    ) -> Result<TranspileResult, Error> {
        let circuit = nassc_qasm::parse(source)?;
        self.transpile_with(&circuit, options)
    }

    /// Checks that `circuit` fits on the session's device; routing a wider
    /// circuit would panic deep inside layout instead of failing cleanly.
    fn check_fits(&self, circuit: &QuantumCircuit) -> Result<(), Error> {
        if circuit.num_qubits() > self.device.num_qubits() {
            return Err(Error::too_wide(
                circuit.num_qubits(),
                self.device.num_qubits(),
            ));
        }
        Ok(())
    }

    /// The prepared pre-routing baseline of `circuit` (what
    /// [`optimize_without_routing`](crate::pipeline::optimize_without_routing)
    /// produces), served from the session's
    /// prepared cache. Benchmark drivers report baseline CNOT/depth from
    /// this without paying preparation twice.
    ///
    /// # Errors
    ///
    /// [`Error::Pass`] when the preparation pipeline fails,
    /// [`Error::Internal`] when it panicked (contained at this boundary).
    pub fn prepared(&self, circuit: &QuantumCircuit) -> Result<Arc<QuantumCircuit>, Error> {
        let mut state = self.lock();
        let (entry, hit) = catch_unwind(AssertUnwindSafe(|| {
            Self::prepared_locked(&mut state, circuit, &Budget::unlimited()).map_err(Error::from)
        }))
        .unwrap_or_else(|payload| Err(classify_panic("prepare", payload, None)))?;
        if hit {
            state.stats.prepared_hits += 1;
        } else {
            state.stats.prepared_misses += 1;
        }
        Ok(Arc::clone(&state.prepared[entry].prepared))
    }

    /// Acquires the session lock, recovering from poison: a panic while
    /// the lock was held (only the cache-commit window runs fallible code
    /// under it) leaves the caches in an unknown state, so recovery resets
    /// all three to empty — preserving the accumulated stats — counts the
    /// reset in [`cache_resets`](Self::cache_resets), clears the poison
    /// flag and continues serving. Layout winners live under their prepared
    /// entries, so clearing those empties both caches.
    fn lock(&self) -> std::sync::MutexGuard<'_, SessionState> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.distances.clear();
                guard.prepared.clear();
                self.cache_resets.fetch_add(1, Ordering::Relaxed);
                self.state.clear_poison();
                guard
            }
        }
    }

    /// Looks up / computes the prepared baseline for `circuit`, returning
    /// the index of its entry in `state.prepared` with a hit flag. Does not
    /// touch the stats counters — callers attribute the hit/miss to the
    /// right request.
    fn prepared_locked(
        state: &mut SessionState,
        circuit: &QuantumCircuit,
        budget: &Budget,
    ) -> Result<(usize, bool), PassError> {
        let raw_hash = circuit.structural_hash();
        if let Some(index) = state
            .prepared
            .iter()
            .position(|e| e.raw_hash == raw_hash && e.raw == *circuit)
        {
            return Ok((index, true));
        }
        let prepared = Arc::new(optimize_without_routing_budgeted(circuit, budget)?);
        state.prepared.push(PreparedEntry {
            raw_hash,
            raw: circuit.clone(),
            prepared,
            layouts: Vec::new(),
        });
        Ok((state.prepared.len() - 1, false))
    }

    /// Makes every cache decision for one job, updating that job's private
    /// counters. Runs under the session lock. A circuit too wide for the
    /// device fails here, before it touches any cache.
    fn resolve(
        &self,
        state: &mut SessionState,
        index: usize,
        circuit: &QuantumCircuit,
        options: TranspileOptions,
        budget: Budget,
    ) -> Result<ResolvedJob, Error> {
        self.check_fits(circuit)?;
        let mut stats = CacheStats::default();

        let cached = state
            .distances
            .iter()
            .find(|(calibration, _)| *calibration == options.calibration);
        let distances = match cached {
            Some((_, cached)) => {
                stats.distance_hits += 1;
                nassc_trace::counter("cache.distance_hit", 1);
                Arc::clone(cached)
            }
            None => {
                stats.distance_misses += 1;
                nassc_trace::counter("cache.distance_miss", 1);
                // Hop counts, or the noise-aware Eq. 3 matrix when calibrated.
                let coupling = self.device.coupling();
                let computed = Arc::new(match &options.calibration {
                    Some(cal) => noise_aware_distance(coupling, cal),
                    None => coupling.distance_matrix(),
                });
                let entry = (options.calibration.clone(), Arc::clone(&computed));
                state.distances.push(entry);
                computed
            }
        };

        let (entry, prepared_hit) = Self::prepared_locked(state, circuit, &budget)?;
        if prepared_hit {
            stats.prepared_hits += 1;
            nassc_trace::counter("cache.prepared_hit", 1);
        } else {
            stats.prepared_misses += 1;
            nassc_trace::counter("cache.prepared_miss", 1);
        }

        let entry = &state.prepared[entry];
        let prepared = Arc::clone(&entry.prepared);
        let cached_layout = entry
            .layouts
            .iter()
            .find(|(cached, _)| *cached == options)
            .map(|(_, winner)| winner.clone());
        if cached_layout.is_some() {
            stats.layout_hits += 1;
            nassc_trace::counter("cache.layout_hit", 1);
        } else {
            stats.layout_misses += 1;
            nassc_trace::counter("cache.layout_miss", 1);
        }

        Ok(ResolvedJob {
            index,
            options,
            distances,
            prepared,
            cached_layout,
            stats,
            budget,
        })
    }

    /// The lock-free tail of one job: warm jobs replay a single routing
    /// pass from the cached layout, cold jobs run the full layout search.
    /// This is the per-job catch boundary — a panic or budget abort in here
    /// fails this job alone.
    fn run_resolved(&self, resolved: &ResolvedJob) -> Result<TranspileResult, Error> {
        let mut span = nassc_trace::span!("job");
        span.arg_u64("index", resolved.index as u64);
        span.arg_text(
            "path",
            if resolved.cached_layout.is_some() {
                "warm"
            } else {
                "cold"
            },
        );
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            transpile_prepared(
                &resolved.prepared,
                self.device.coupling(),
                &resolved.distances,
                &resolved.options,
                resolved.cached_layout.as_ref(),
                &self.pool,
                &resolved.budget,
            )
        }));
        match outcome {
            Ok(result) => result.map_err(Error::from),
            Err(payload) => Err(classify_panic(
                "transpile",
                payload,
                resolved.options.deadline,
            )),
        }
    }

    /// Rolls per-request counters into the session totals and memoizes the
    /// layout winners cold jobs discovered under their prepared entry.
    /// Insertion re-checks for an existing winner so duplicate cold jobs in
    /// one batch stay idempotent; a winner whose entry poison recovery has
    /// cleared since resolution is dropped.
    fn commit(&self, resolved: &[ResolvedJob], results: &[Result<TranspileResult, Error>]) {
        let _span = nassc_trace::span!("commit");
        let mut state = self.lock();
        nassc_circuit::failpoints::hit("cache_commit");
        for job in resolved {
            state.stats.accumulate(&job.stats);
            if job.cached_layout.is_some() {
                continue;
            }
            let Some(Ok(result)) = results.get(job.index) else {
                continue;
            };
            let Some(entry) = state
                .prepared
                .iter_mut()
                .find(|e| Arc::ptr_eq(&e.prepared, &job.prepared))
            else {
                continue;
            };
            if !entry
                .layouts
                .iter()
                .any(|(cached, _)| *cached == job.options)
            {
                entry.layouts.push((
                    job.options.clone(),
                    LayoutSelection {
                        layout: result.initial_layout.clone(),
                        chosen_trial: result.chosen_layout_trial,
                        trial_costs: result.layout_trial_costs.clone(),
                    },
                ));
            }
        }
    }
}

/// Renders a caught panic payload best-effort: the `&str`/`String` message
/// when there is one, a placeholder otherwise.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Classifies a payload caught at a session boundary: a typed [`Cancelled`]
/// is the cooperative deadline abort ([`Error::Deadline`]); anything else is
/// a contained fault ([`Error::Internal`] with the boundary's site name).
fn classify_panic(site: &str, payload: Box<dyn Any + Send>, deadline: Option<Duration>) -> Error {
    if Cancelled::from_payload(payload.as_ref()) {
        return Error::deadline(deadline.unwrap_or_default());
    }
    Error::internal(site, panic_message(payload.as_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::RouterKind;
    use nassc_topology::CouplingMap;

    fn ghz(n: usize) -> QuantumCircuit {
        let mut qc = QuantumCircuit::new(n);
        qc.h(0);
        for i in 1..n {
            qc.cx(0, i);
        }
        qc
    }

    fn session() -> Transpiler {
        Transpiler::new(
            CouplingMap::linear(4),
            TranspileOptions::new().router(RouterKind::Nassc).seed(7),
        )
    }

    #[test]
    fn an_expired_deadline_aborts_with_a_deadline_error() {
        let session = session();
        let options = session.options().clone().deadline(Duration::ZERO);
        let err = session.transpile_with(&ghz(4), &options).unwrap_err();
        assert_eq!(err.kind(), crate::ErrorKind::Deadline);
        assert_eq!(err.to_string(), "transpile exceeded its 0 ms deadline");
    }

    #[test]
    fn a_generous_deadline_changes_nothing() {
        let session = session();
        let reference = session.transpile(&ghz(4)).expect("unlimited transpile");
        let options = session
            .options()
            .clone()
            .deadline(Duration::from_secs(3600));
        let budgeted = session
            .transpile_with(&ghz(4), &options)
            .expect("budgeted transpile");
        assert_eq!(reference.circuit, budgeted.circuit);
        assert_eq!(reference.initial_layout, budgeted.initial_layout);
    }

    #[test]
    fn an_unrepresentable_deadline_means_no_deadline() {
        let session = session();
        let reference = session.transpile(&ghz(4)).expect("unlimited transpile");
        let options = session.options().clone().deadline(Duration::MAX);
        let result = session
            .transpile_with(&ghz(4), &options)
            .expect("Duration::MAX transpile");
        assert_eq!(reference.circuit, result.circuit);
        assert_eq!(reference.initial_layout, result.initial_layout);
        assert_eq!(reference.final_layout, result.final_layout);
        assert_eq!(session.cache_resets(), 0);
    }

    #[test]
    fn deadlined_and_unlimited_requests_share_cache_entries() {
        // `deadline` is excluded from the options cache key: the second
        // request must hit all three caches despite its deadline differing.
        let session = session();
        session.transpile(&ghz(4)).expect("cold transpile");
        let options = session
            .options()
            .clone()
            .deadline(Duration::from_secs(3600));
        let warm = session
            .transpile_with(&ghz(4), &options)
            .expect("warm transpile");
        assert_eq!(warm.cache.hits(), 3);
        assert_eq!(warm.cache.misses(), 0);
    }

    #[test]
    fn poison_recovery_resets_caches_and_keeps_serving() {
        let session = Arc::new(session());
        let cold = session.transpile(&ghz(4)).expect("cold transpile");
        assert_eq!(session.cache_resets(), 0);

        // Poison the session lock the only way a panic can reach it: by
        // unwinding while the guard is held.
        let poisoner = Arc::clone(&session);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.state.lock().unwrap();
            panic!("poison the session lock");
        })
        .join();
        assert!(session.state.is_poisoned());

        // The next request recovers: caches reset (so it runs cold again),
        // the reset is counted, and the output is bit-identical.
        let recovered = session.transpile(&ghz(4)).expect("post-poison transpile");
        assert_eq!(session.cache_resets(), 1);
        assert!(!session.state.is_poisoned());
        assert_eq!(recovered.cache.misses(), 3);
        assert_eq!(recovered.circuit, cold.circuit);

        // And the one after that is warm, as if nothing happened.
        let warm = session.transpile(&ghz(4)).expect("warm transpile");
        assert_eq!(warm.cache.hits(), 3);
        assert_eq!(session.cache_resets(), 1);
    }

    #[test]
    fn classify_panic_separates_cancellation_from_faults() {
        let cancelled: Box<dyn Any + Send> = Box::new(Cancelled);
        let fault: Box<dyn Any + Send> = Box::new("index out of bounds".to_string());
        assert_eq!(
            classify_panic("transpile", cancelled, Some(Duration::from_millis(40))),
            Error::deadline(Duration::from_millis(40))
        );
        assert_eq!(
            classify_panic("transpile", fault, None),
            Error::internal("transpile", "index out of bounds")
        );
    }

    #[test]
    fn distance_cache_keys_entries_by_calibration() {
        let session = session();
        let coupling = session.device().coupling();
        let calibration = Calibration::synthetic(coupling, 1);
        let plain = session.options().clone();
        let calibrated = plain.clone().calibration(calibration.clone());
        for options in [&plain, &calibrated, &plain, &calibrated] {
            session.transpile_with(&ghz(4), options).expect("transpile");
        }
        let state = session.lock();
        assert_eq!(state.stats.distance_misses, 2);
        assert_eq!(state.stats.distance_hits, 2);
        let keys: Vec<_> = state.distances.iter().map(|(key, _)| key.clone()).collect();
        assert_eq!(keys, [None, Some(calibration)]);
        assert_eq!(*state.distances[0].1, coupling.distance_matrix());
        assert_ne!(*state.distances[1].1, *state.distances[0].1);
    }

    #[test]
    fn too_wide_circuits_fail_cleanly_at_every_entry_point() {
        // The session's device has 4 qubits.
        let session = session();
        let wide = ghz(6);
        let narrow = ghz(3);
        let too_wide = |result: &Result<TranspileResult, Error>| {
            let err = result.as_ref().expect_err("a 6-qubit circuit cannot fit");
            assert_eq!(err.kind(), crate::ErrorKind::TooWide, "{err}");
        };
        too_wide(&session.transpile(&wide));
        too_wide(&session.transpile_qasm(&wide.to_qasm().unwrap()));
        let results = session.transpile_jobs(&[SessionJob::new(&wide), SessionJob::new(&narrow)]);
        too_wide(&results[0]);
        results[1].as_ref().expect("the narrow sibling transpiles");
        // Only the narrow job consulted the caches: one miss in each.
        let stats = session.cache_stats();
        assert_eq!((stats.misses(), stats.hits()), (3, 0));
    }

    #[test]
    fn batch_sibling_jobs_survive_one_deadline_abort() {
        let reference = session().transpile(&ghz(3)).expect("reference");
        // Fresh session so nothing is cached for either circuit.
        let session = session();
        let doomed = ghz(4);
        let sibling = ghz(3);
        let jobs = [
            SessionJob::with_options(&doomed, session.options().clone().deadline(Duration::ZERO)),
            SessionJob::new(&sibling),
        ];
        let results = session.transpile_jobs(&jobs);
        assert_eq!(
            results[0].as_ref().unwrap_err().kind(),
            crate::ErrorKind::Deadline
        );
        let survivor = results[1].as_ref().expect("sibling survives");
        assert_eq!(survivor.circuit, reference.circuit);
    }
}

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
//! 3. **Layout winners, then stored results** — one slot per options,
//!    under the prepared entry it was found for, in one of two states. A
//!    cold request leaves the layout winner: the initial layout, the chosen
//!    trial and the trial costs. The first repeat replays one routing pass
//!    from that winner instead of re-running the whole layout search, and
//!    its result then replaces the winner. Every later repeat returns a copy
//!    of the stored result, without routing, SWAP expansion or
//!    post-optimization. A result is stored only after a replay, so a
//!    one-off request (a fresh seed, say) leaves nothing but its compact
//!    winner, and only while the session's stored results stay within
//!    [`STORED_RESULT_BYTES`]; past that, repeats keep replaying. Nothing is
//!    evicted. All three paths return the same result bit for bit (see
//!    `transpile_prepared` in `pipeline.rs` for why the replay does).
//!
//!    The QASM-out entry point, [`Transpiler::transpile_to_qasm`], exports
//!    every result it computes inside the session, under a `qasm_export`
//!    span, and the slot keeps the text of its stored result beside it, with
//!    the circuit's CNOT count and depth, within the same byte bound. A
//!    stored hit on that entry point then hands back the shared text without
//!    copying, exporting or scanning the circuit. Library callers
//!    ([`transpile`](Transpiler::transpile) and the rest) never export.
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
//! reported as [`Error::Deadline`]; a stored hit checks its deadline once,
//! before the copy. Should a panic ever poison the session lock (the
//! cache-commit window is the only code that runs under it), the next lock
//! acquisition recovers by clearing the caches and the stored-result count
//! — counted by [`Transpiler::cache_resets`] — and the session continues
//! with a cold cache rather than failing every subsequent request.
//!
//! [`optimize_without_routing`]: crate::pipeline::optimize_without_routing

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nassc_circuit::{Instruction, QuantumCircuit};
use nassc_parallel::{Budget, Cancelled, ThreadPool};
use nassc_passes::PassError;
use nassc_sabre::LayoutSelection;
use nassc_topology::{noise_aware_distance, Calibration, DistanceMatrix, Layout};

use crate::device::Device;
use crate::error::Error;
use crate::pipeline::{
    optimize_without_routing_budgeted, transpile_prepared, TranspileOptions, TranspileResult,
};

/// The most bytes of transpile results one [`Transpiler`] stores for its
/// repeat requests (see the [module docs](self)), counted per result as its
/// instructions at `size_of::<Instruction>()` each, its two layouts and its
/// trial costs, and per kept OpenQASM text as its length.
///
/// 64 MiB holds the results of the whole `benchmarks/qasm` corpus
/// (≈ 0.18 MiB, and ≈ 0.07 MiB of text) several hundred times over, or
/// three results of a 100k-gate QV circuit on Montreal (≈ 17.8 MiB each),
/// and bounds what storing adds to a long-running daemon whatever its
/// traffic. A result that would take the total past it is not stored, and
/// its repeats keep replaying from the layout winner; a text that would is
/// not kept, and its QASM-out repeats export the stored result again.
/// Nothing is evicted.
pub const STORED_RESULT_BYTES: usize = 64 << 20;

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
    /// Layout-winner cache hits: a hit skips the whole layout search, and a
    /// hit on a stored result also skips routing, SWAP expansion and
    /// post-optimization.
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
/// with one slot per options it was transpiled under.
struct PreparedEntry {
    raw_hash: u64,
    raw: QuantumCircuit,
    prepared: Arc<QuantumCircuit>,
    slots: Vec<(TranspileOptions, Slot)>,
}

/// What the session keeps for one (prepared circuit, options) pair.
enum Slot {
    /// After a cold request: the layout winner to replay from.
    Winner(Winner),
    /// After the first replay: its whole result, for every later repeat.
    /// Boxed, so that the winners one-off requests leave stay small.
    Stored(Box<Stored>),
}

/// A stored result, and its OpenQASM text once a QASM-out request has
/// exported it: library repeats copy the result, QASM-out repeats share the
/// text.
#[derive(Clone)]
struct Stored {
    result: Arc<TranspileResult>,
    /// Kept with `cache` at its default; each hit stamps its own.
    qasm: Option<QasmResult>,
}

/// What [`Transpiler::transpile_to_qasm`] returns: the transpiled circuit as
/// OpenQASM 2.0, with the numbers a service reports beside it.
#[derive(Debug, Clone, PartialEq)]
pub struct QasmResult {
    /// What [`nassc_qasm::export`] writes for the transpiled circuit. A
    /// stored hit shares the session's copy.
    pub qasm: Arc<str>,
    /// CNOT count of the transpiled circuit.
    pub cx_count: usize,
    /// Depth of the transpiled circuit.
    pub depth: usize,
    /// As [`TranspileResult::swap_count`].
    pub swap_count: usize,
    /// As [`TranspileResult::chosen_layout_trial`].
    pub chosen_layout_trial: usize,
    /// As [`TranspileResult::cache`]: this request's cache activity.
    pub cache: CacheStats,
}

impl QasmResult {
    /// Exports `result` under the `qasm_export` span.
    fn export(result: &TranspileResult) -> Result<Self, Error> {
        let qasm = {
            let _span = nassc_trace::span!("qasm_export");
            Arc::from(nassc_qasm::export(&result.circuit).map_err(Error::Export)?)
        };
        Ok(Self {
            qasm,
            cx_count: result.cx_count(),
            depth: result.depth(),
            swap_count: result.swap_count,
            chosen_layout_trial: result.chosen_layout_trial,
            cache: CacheStats::default(),
        })
    }
}

/// A layout winner, kept in what a replay needs: one-off requests leave
/// one each, so it is small.
struct Winner {
    /// The initial layout, logical → physical.
    layout: Box<[u32]>,
    chosen_trial: usize,
    trial_costs: Box<[f64]>,
}

impl Winner {
    fn new(result: &TranspileResult) -> Self {
        let layout = result.initial_layout.logical_to_physical().iter();
        Self {
            layout: layout
                .map(|&physical| u32::try_from(physical).expect("a physical qubit fits in u32"))
                .collect(),
            chosen_trial: result.chosen_layout_trial,
            trial_costs: result.layout_trial_costs.as_slice().into(),
        }
    }

    fn selection(&self) -> LayoutSelection {
        let layout = self.layout.iter().map(|&physical| physical as usize);
        LayoutSelection {
            layout: Layout::from_logical_to_physical(layout.collect()),
            chosen_trial: self.chosen_trial,
            trial_costs: self.trial_costs.to_vec(),
        }
    }
}

/// Everything mutable behind the session lock.
#[derive(Default)]
struct SessionState {
    distances: Vec<(Option<Calibration>, Arc<DistanceMatrix>)>,
    prepared: Vec<PreparedEntry>,
    /// The bytes of every [`Slot::Stored`] result, by [`stored_bytes`], and
    /// of every text kept beside one.
    stored_bytes: usize,
    stats: CacheStats,
}

impl SessionState {
    /// The entry `job` resolved against, unless poison recovery has cleared
    /// it since.
    fn entry_mut(&mut self, job: &ResolvedJob) -> Option<&mut PreparedEntry> {
        self.prepared
            .iter_mut()
            .find(|e| Arc::ptr_eq(&e.prepared, &job.prepared))
    }

    /// The slot `job` resolved against, unless poison recovery has cleared
    /// it since.
    fn slot_mut(&mut self, job: &ResolvedJob) -> Option<&mut Slot> {
        let entry = self.entry_mut(job)?;
        let mut slots = entry.slots.iter_mut();
        slots
            .find(|(cached, _)| *cached == job.options)
            .map(|(_, slot)| slot)
    }

    /// Stores `result` in place of the winner `job` replayed from, unless
    /// the slot already holds a result, is gone, or `bytes` would take the
    /// stored total past `cap`.
    fn admit(&mut self, job: &ResolvedJob, result: Arc<TranspileResult>, bytes: usize, cap: usize) {
        if self.stored_bytes + bytes > cap {
            return;
        }
        if let Some(slot @ Slot::Winner(_)) = self.slot_mut(job) {
            *slot = Slot::Stored(Box::new(Stored { result, qasm: None }));
            self.stored_bytes += bytes;
        }
    }

    /// Keeps `qasm` beside the result stored for `job`, unless the slot
    /// holds no result, already keeps a text, or the text would take the
    /// stored total past `cap`.
    fn keep_qasm(&mut self, job: &ResolvedJob, qasm: &QasmResult, cap: usize) {
        let bytes = qasm.qasm.len();
        if self.stored_bytes + bytes > cap {
            return;
        }
        if let Some(Slot::Stored(stored)) = self.slot_mut(job) {
            if stored.qasm.is_none() {
                stored.qasm = Some(QasmResult {
                    cache: CacheStats::default(),
                    ..qasm.clone()
                });
                self.stored_bytes += bytes;
            }
        }
    }
}

/// The bytes a stored result counts against [`STORED_RESULT_BYTES`].
fn stored_bytes(result: &TranspileResult) -> usize {
    let layouts = result.initial_layout.len() + result.final_layout.len();
    size_of::<TranspileResult>()
        + result.circuit.num_gates() * size_of::<Instruction>()
        + layouts * 2 * size_of::<usize>()
        + result.layout_trial_costs.len() * size_of::<f64>()
}

/// How a resolved job gets its result; the `job` span's `path`.
enum Path {
    /// No slot: run the layout search.
    Cold,
    /// A winner: replay one routing pass from it.
    Warm(LayoutSelection),
    /// A stored result: copy it, or share its text.
    Stored(Stored),
}

impl Path {
    fn name(&self) -> &'static str {
        match self {
            Path::Cold => "cold",
            Path::Warm(_) => "warm",
            Path::Stored(_) => "stored",
        }
    }
}

/// What the serial resolution phase hands each fanned-out job: every cache
/// decision is already made, so workers share state without touching the
/// session lock.
struct ResolvedJob {
    index: usize,
    options: TranspileOptions,
    distances: Arc<DistanceMatrix>,
    prepared: Arc<QuantumCircuit>,
    path: Path,
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
        self.run_jobs(jobs, STORED_RESULT_BYTES)
    }

    /// [`transpile_jobs`](Self::transpile_jobs), storing replayed results
    /// while the session's stored total stays within `cap` bytes.
    fn run_jobs(&self, jobs: &[SessionJob<'_>], cap: usize) -> Vec<Result<TranspileResult, Error>> {
        let (resolved, room) = self.resolve_jobs(jobs, cap);

        // Phase 2 — fan the seed-dependent tails across the pool. Each
        // job's tail is its own catch boundary: one panicking or expired
        // job fails alone while its siblings complete normally.
        let mut results = self
            .pool
            .map(resolved.iter().collect(), |resolved| match resolved {
                Ok(resolved) => self.run_tail(resolved, copy_stored, Ok),
                Err(e) => Err(e.clone()),
            });

        // Phase 3 — commit: stamp per-request counters, memoize the layout
        // winners that cold jobs just discovered and the results that warm
        // jobs just replayed, roll up session stats.
        for (resolved, result) in resolved.iter().zip(results.iter_mut()) {
            if let (Ok(resolved), Ok(result)) = (resolved, result.as_mut()) {
                result.cache = resolved.stats;
            }
        }
        let outcomes: Vec<Outcome<'_>> = resolved
            .iter()
            .zip(&results)
            .filter_map(|(job, result)| {
                Some(Outcome {
                    job: job.as_ref().ok()?,
                    result: result.as_ref().ok(),
                    qasm: None,
                })
            })
            .collect();
        self.commit_contained(&outcomes, room, cap);
        results
    }

    /// Transpiles one circuit with per-request options, as
    /// [`transpile_with`](Self::transpile_with) does, and returns the
    /// result as OpenQASM 2.0 text (what [`nassc_qasm::export`] writes for
    /// its circuit) with the numbers a service reports beside it.
    ///
    /// A cold or replayed request exports its result here, under a
    /// `qasm_export` span, and a replay that stores its result keeps the
    /// text beside it. A later repeat hands back that shared text: it
    /// neither copies nor exports nor scans the circuit. This is what the
    /// `nassc-serve` daemon calls.
    ///
    /// # Errors
    ///
    /// As [`transpile`](Self::transpile), plus [`Error::Export`] when the
    /// transpiled circuit has no OpenQASM 2.0 spelling.
    pub fn transpile_to_qasm(
        &self,
        circuit: &QuantumCircuit,
        options: &TranspileOptions,
    ) -> Result<QasmResult, Error> {
        self.run_qasm(circuit, options, STORED_RESULT_BYTES)
    }

    /// [`transpile_to_qasm`](Self::transpile_to_qasm), storing results and
    /// texts while the session's stored total stays within `cap` bytes.
    fn run_qasm(
        &self,
        circuit: &QuantumCircuit,
        options: &TranspileOptions,
        cap: usize,
    ) -> Result<QasmResult, Error> {
        let job = SessionJob::with_options(circuit, options.clone());
        let (mut resolved, room) = self.resolve_jobs(std::slice::from_ref(&job), cap);
        let resolved = resolved.pop().expect("one job resolves to one")?;
        // A slot that keeps its text is read, not written.
        let kept = matches!(&resolved.path, Path::Stored(Stored { qasm: Some(_), .. }));
        let tail = self.run_tail(
            &resolved,
            |stored| match &stored.qasm {
                Some(qasm) => Ok((qasm.clone(), None)),
                None => QasmResult::export(&stored.result).map(|qasm| (qasm, None)),
            },
            |result| Ok((QasmResult::export(&result)?, Some(result))),
        );
        let (qasm, result) = match &tail {
            Ok((qasm, result)) => ((!kept).then_some(qasm), result.as_ref()),
            Err(_) => (None, None),
        };
        let outcome = Outcome {
            job: &resolved,
            result,
            qasm,
        };
        self.commit_contained(std::slice::from_ref(&outcome), room, cap);
        tail.map(|(qasm, _)| QasmResult {
            cache: resolved.stats,
            ..qasm
        })
    }

    /// Phase 1 — serial resolution under the lock: every cache read and
    /// every preparation happens here, in job order, so cache counters are
    /// deterministic and workers never contend on the session lock. Also
    /// returns the room the cap left at resolution: a result larger than
    /// that is not copied for storing.
    fn resolve_jobs(
        &self,
        jobs: &[SessionJob<'_>],
        cap: usize,
    ) -> (Vec<Result<ResolvedJob, Error>>, usize) {
        // Deadlines are anchored here, at request entry: a job's budget
        // covers its share of resolution, layout, routing and optimization.
        let entry = Instant::now();
        let mut resolve_span = nassc_trace::span!("resolve");
        resolve_span.arg_u64("jobs", jobs.len() as u64);
        let mut state = self.lock();
        // The catch boundary sits *inside* the lock scope, so a contained
        // panic never poisons the session lock.
        let resolved = jobs
            .iter()
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
            .collect();
        (resolved, cap.saturating_sub(state.stored_bytes))
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

    /// [`transpile_qasm`](Self::transpile_qasm) with per-request options
    /// (router, seed, layout trials).
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
    /// flag and continues serving. Winners and stored results live under
    /// their prepared entries, so clearing those empties both caches, and
    /// the stored-result count restarts at zero.
    fn lock(&self) -> std::sync::MutexGuard<'_, SessionState> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.distances.clear();
                guard.prepared.clear();
                guard.stored_bytes = 0;
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
            slots: Vec::new(),
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
        let slot = entry.slots.iter().find(|(cached, _)| *cached == options);
        let path = match slot.map(|(_, slot)| slot) {
            None => Path::Cold,
            Some(Slot::Winner(winner)) => Path::Warm(winner.selection()),
            Some(Slot::Stored(stored)) => Path::Stored(Stored::clone(stored)),
        };
        if let Path::Cold = path {
            stats.layout_misses += 1;
            nassc_trace::counter("cache.layout_miss", 1);
        } else {
            stats.layout_hits += 1;
            nassc_trace::counter("cache.layout_hit", 1);
        }

        Ok(ResolvedJob {
            index,
            options,
            distances,
            prepared,
            path,
            stats,
            budget,
        })
    }

    /// The lock-free tail of one job, in its `job` span: a stored hit checks
    /// its deadline and hands its slot's record to `stored`, a warm job
    /// replays a single routing pass from the cached layout and a cold job
    /// runs the full layout search, handing the result to `computed`. This
    /// is the per-job catch boundary — a panic or budget abort in here
    /// fails this job alone.
    fn run_tail<T>(
        &self,
        resolved: &ResolvedJob,
        stored: impl FnOnce(&Stored) -> Result<T, Error>,
        computed: impl FnOnce(TranspileResult) -> Result<T, Error>,
    ) -> Result<T, Error> {
        let mut span = nassc_trace::span!("job");
        span.arg_u64("index", resolved.index as u64);
        span.arg_text("path", resolved.path.name());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let cached = match &resolved.path {
                Path::Stored(hit) => {
                    resolved.budget.checkpoint();
                    return stored(hit);
                }
                Path::Warm(winner) => Some(winner),
                Path::Cold => None,
            };
            computed(transpile_prepared(
                &resolved.prepared,
                self.device.coupling(),
                &resolved.distances,
                &resolved.options,
                cached,
                &self.pool,
                &resolved.budget,
            )?)
        }));
        outcome.unwrap_or_else(|payload| {
            Err(classify_panic(
                "transpile",
                payload,
                resolved.options.deadline,
            ))
        })
    }

    /// [`commit`](Self::commit) as its own catch boundary. The results are
    /// already valid, so a panic while memoizing is swallowed here. It
    /// poisons the session lock (commit runs under it) and the next
    /// `lock()` recovers by resetting the caches — requests keep
    /// succeeding, just cold.
    fn commit_contained(&self, outcomes: &[Outcome<'_>], room: usize, cap: usize) {
        let _ = catch_unwind(AssertUnwindSafe(|| self.commit(outcomes, room, cap)));
    }

    /// Rolls per-request counters into the session totals and fills the
    /// slots: a cold job leaves its layout winner, a warm job's result
    /// replaces the winner it replayed from while the stored total stays
    /// within `cap`, and a text exported now is kept beside its slot's
    /// stored result while the total still does. Each re-checks the slot,
    /// so duplicate jobs in one batch stay idempotent, and a slot whose
    /// entry poison recovery has cleared since resolution is dropped.
    fn commit(&self, outcomes: &[Outcome<'_>], room: usize, cap: usize) {
        let _span = nassc_trace::span!("commit");
        // Copies to store are built before taking the lock: copying a large
        // result takes milliseconds, and every `resolve` waits on the lock.
        let stored: Vec<_> = outcomes
            .iter()
            .filter_map(|outcome| {
                let (Path::Warm(_), Some(result)) = (&outcome.job.path, outcome.result) else {
                    return None;
                };
                let bytes = stored_bytes(result);
                if bytes > room {
                    return None;
                }
                let mut copy = result.clone();
                copy.cache = CacheStats::default();
                copy.elapsed = Duration::ZERO;
                Some((outcome.job, Arc::new(copy), bytes))
            })
            .collect();

        let mut state = self.lock();
        nassc_circuit::failpoints::hit("cache_commit");
        for &Outcome { job, result, .. } in outcomes {
            state.stats.accumulate(&job.stats);
            let (Path::Cold, Some(result)) = (&job.path, result) else {
                continue;
            };
            let Some(entry) = state.entry_mut(job) else {
                continue;
            };
            if !entry.slots.iter().any(|(cached, _)| *cached == job.options) {
                let winner = Slot::Winner(Winner::new(result));
                entry.slots.push((job.options.clone(), winner));
            }
        }
        for (job, result, bytes) in stored {
            state.admit(job, result, bytes, cap);
        }
        for &Outcome { job, qasm, .. } in outcomes {
            if let Some(qasm) = qasm {
                state.keep_qasm(job, qasm, cap);
            }
        }
    }
}

/// What one resolved job hands the commit phase.
struct Outcome<'a> {
    job: &'a ResolvedJob,
    /// A cold or warm job's result, computed now; `None` after a failure.
    result: Option<&'a TranspileResult>,
    /// A text exported now, rather than read from the job's slot.
    qasm: Option<&'a QasmResult>,
}

/// A library stored hit: a copy of the stored result, whose `elapsed` is
/// the time the copy took.
fn copy_stored(stored: &Stored) -> Result<TranspileResult, Error> {
    let start = Instant::now();
    let mut result = TranspileResult::clone(&stored.result);
    result.elapsed = start.elapsed();
    Ok(result)
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

    /// Every field two equal transpiles share (`elapsed` and `cache` are
    /// per request).
    fn assert_same_result(left: &TranspileResult, right: &TranspileResult, context: &str) {
        assert_eq!(left.circuit, right.circuit, "{context}: circuit");
        assert_eq!(left.initial_layout, right.initial_layout, "{context}");
        assert_eq!(left.final_layout, right.final_layout, "{context}");
        assert_eq!(left.swap_count, right.swap_count, "{context}");
        assert_eq!(
            left.chosen_layout_trial, right.chosen_layout_trial,
            "{context}"
        );
        assert_eq!(
            left.layout_trial_costs, right.layout_trial_costs,
            "{context}"
        );
    }

    /// The state of every slot, in insertion order.
    fn slot_states(session: &Transpiler) -> Vec<&'static str> {
        let state = session.lock();
        let slots = state.prepared.iter().flat_map(|entry| &entry.slots);
        slots
            .map(|(_, slot)| match slot {
                Slot::Winner(_) => "winner",
                Slot::Stored(stored) if stored.qasm.is_none() => "stored",
                Slot::Stored(_) => "stored+qasm",
            })
            .collect()
    }

    /// The text every stored slot keeps, in insertion order.
    fn kept_texts(session: &Transpiler) -> Vec<Arc<str>> {
        let state = session.lock();
        let slots = state.prepared.iter().flat_map(|entry| &entry.slots);
        slots
            .filter_map(|(_, slot)| match slot {
                Slot::Stored(stored) => Some(Arc::clone(&stored.qasm.as_ref()?.qasm)),
                Slot::Winner(_) => None,
            })
            .collect()
    }

    /// Every field of `out` that `cold` fixes (`cache` is per request).
    fn assert_same_qasm(out: &QasmResult, cold: &TranspileResult, context: &str) {
        let text = nassc_qasm::export(&cold.circuit).expect("a result exports");
        assert_eq!(*out.qasm, *text, "{context}: text");
        assert_eq!(out.cx_count, cold.cx_count(), "{context}");
        assert_eq!(out.depth, cold.depth(), "{context}");
        assert_eq!(out.swap_count, cold.swap_count, "{context}");
        assert_eq!(
            out.chosen_layout_trial, cold.chosen_layout_trial,
            "{context}"
        );
    }

    #[test]
    fn qasm_repeats_share_the_text_kept_with_the_stored_result() {
        let circuit = ghz(4);
        for router in [RouterKind::Sabre, RouterKind::Nassc] {
            for trials in [1, 4] {
                let options = TranspileOptions::new()
                    .router(router)
                    .seed(7)
                    .layout_trials(trials);
                let context = format!("{router:?} trials={trials}");
                let reference = Transpiler::new(CouplingMap::linear(4), options.clone());
                let cold = reference.transpile(&circuit).expect("library cold");
                let session = Transpiler::new(CouplingMap::linear(4), options.clone());
                let outputs: Vec<QasmResult> = (0..4)
                    .map(|_| session.transpile_to_qasm(&circuit, &options))
                    .collect::<Result<_, _>>()
                    .expect("QASM-out requests");
                for (request, out) in outputs.iter().enumerate() {
                    assert_same_qasm(out, &cold, &format!("{context} request {request}"));
                    let hits = if request == 0 { 0 } else { 3 };
                    assert_eq!(out.cache.hits(), hits, "{context} request {request}");
                }
                // The replay stored its result with the text it exported,
                // and every later request shares that text.
                assert_eq!(slot_states(&session), ["stored+qasm"], "{context}");
                let kept = &kept_texts(&session)[0];
                for out in &outputs[1..] {
                    assert!(Arc::ptr_eq(&out.qasm, kept), "{context}");
                }
                let stored_total = session.lock().stored_bytes;
                assert_eq!(stored_total, stored_bytes(&cold) + kept.len(), "{context}");
            }
        }
    }

    #[test]
    fn library_callers_never_export_and_a_qasm_hit_exports_once() {
        let session = session();
        let options = session.options().clone();
        let circuit = ghz(4);
        let cold = session.transpile(&circuit).expect("cold");
        session.transpile_with(&circuit, &options).expect("replay");
        let results = session.transpile_jobs(&[SessionJob::new(&circuit)]);
        results[0].as_ref().expect("stored hit");
        assert_eq!(slot_states(&session), ["stored"]);

        let first = session
            .transpile_to_qasm(&circuit, &options)
            .expect("export");
        assert_eq!(slot_states(&session), ["stored+qasm"]);
        let second = session
            .transpile_to_qasm(&circuit, &options)
            .expect("share");
        assert!(Arc::ptr_eq(&first.qasm, &second.qasm));
        assert!(Arc::ptr_eq(&second.qasm, &kept_texts(&session)[0]));
        assert_same_qasm(&second, &cold, "after a library replay");
        let copied = session.transpile(&circuit).expect("library stored hit");
        assert_same_result(&copied, &cold, "after a QASM hit");
        let stored_total = session.lock().stored_bytes;
        assert_eq!(stored_total, stored_bytes(&cold) + first.qasm.len());
    }

    #[test]
    fn a_text_past_the_cap_is_not_kept_and_its_hits_export_again() {
        let session = session();
        let options = session.options().clone();
        let circuit = ghz(4);
        let cold = session.transpile(&circuit).expect("cold");
        // The replayed result fits the cap exactly; its text no longer does.
        let cap = stored_bytes(&cold);
        let outputs: Vec<QasmResult> = (0..3)
            .map(|_| session.run_qasm(&circuit, &options, cap))
            .collect::<Result<_, _>>()
            .expect("QASM-out repeats");
        assert_eq!(slot_states(&session), ["stored"]);
        assert_eq!(session.lock().stored_bytes, cap);
        for out in &outputs {
            assert_same_qasm(out, &cold, "past the cap");
        }
        assert!(!Arc::ptr_eq(&outputs[1].qasm, &outputs[2].qasm));
    }

    #[test]
    fn an_unexportable_result_is_a_pass_error() {
        let mut result = session().transpile(&ghz(4)).expect("transpile");
        result.circuit.rz(f64::NAN, 0);
        let err = QasmResult::export(&result).unwrap_err();
        assert_eq!(err.kind(), crate::ErrorKind::Pass);
        assert!(err.to_string().starts_with("exporting result: "), "{err}");
    }

    #[test]
    fn repeats_after_the_first_copy_the_stored_result() {
        let circuit = ghz(4);
        for router in [RouterKind::Sabre, RouterKind::Nassc] {
            for trials in [1, 4] {
                let options = TranspileOptions::new()
                    .router(router)
                    .seed(7)
                    .layout_trials(trials);
                let session = Transpiler::new(CouplingMap::linear(4), options);
                let context = format!("{router:?} trials={trials}");
                let cold = session.transpile(&circuit).expect("cold");
                assert_eq!(slot_states(&session), ["winner"], "{context}");
                let replayed = session.transpile(&circuit).expect("replay");
                assert_eq!(slot_states(&session), ["stored"], "{context}");
                assert_same_result(&replayed, &cold, &context);
                for request in [3, 4] {
                    let stored = session.transpile(&circuit).expect("stored");
                    let context = format!("{context} request {request}");
                    assert_same_result(&stored, &cold, &context);
                    assert_eq!(stored.cache, replayed.cache, "{context}");
                }
                let stored_total = session.lock().stored_bytes;
                assert_eq!(stored_total, stored_bytes(&cold), "{context}");
            }
        }
    }

    #[test]
    fn a_one_off_seed_leaves_a_winner_and_stores_nothing() {
        let session = session();
        let reseeded = session.options().clone().seed(99);
        session.transpile(&ghz(4)).expect("default seed");
        session.transpile(&ghz(4)).expect("default seed again");
        session
            .transpile_with(&ghz(4), &reseeded)
            .expect("fresh seed");
        assert_eq!(slot_states(&session), ["stored", "winner"]);
        let state = session.lock();
        let (_, Slot::Winner(winner)) = &state.prepared[0].slots[1] else {
            panic!("the fresh seed's slot holds a winner");
        };
        assert_eq!(winner.layout.len(), 4);
        assert!(winner.trial_costs.is_empty());
    }

    #[test]
    fn admission_stops_at_the_cap() {
        let session = session();
        let small = ghz(3);
        let large = ghz(4);
        let cap = stored_bytes(&session.transpile(&small).expect("cold small"));
        let jobs = |circuit| [SessionJob::new(circuit)];
        session.transpile(&large).expect("cold large");
        // The small result fits the cap exactly; the large one no longer
        // fits beside it, so its repeats keep replaying from the winner.
        for circuit in [&small, &large, &large] {
            let results = session.run_jobs(&jobs(circuit), cap);
            results[0].as_ref().expect("repeat");
        }
        assert_eq!(slot_states(&session), ["stored", "winner"]);
        assert_eq!(session.lock().stored_bytes, cap);
        // Past the cap the repeat still returns the cold result.
        let fresh = Transpiler::new(CouplingMap::linear(4), session.options().clone());
        let cold = fresh.transpile(&large).expect("fresh cold");
        let results = session.run_jobs(&jobs(&large), cap);
        assert_same_result(results[0].as_ref().expect("repeat"), &cold, "past the cap");
    }

    #[test]
    fn duplicate_replays_in_one_batch_store_one_result() {
        let session = session();
        let circuit = ghz(4);
        let cold = session.transpile(&circuit).expect("cold");
        let results =
            session.transpile_jobs(&[SessionJob::new(&circuit), SessionJob::new(&circuit)]);
        for result in &results {
            assert_same_result(result.as_ref().expect("replay"), &cold, "duplicate replay");
        }
        assert_eq!(slot_states(&session), ["stored"]);
        assert_eq!(session.lock().stored_bytes, stored_bytes(&cold));
    }

    #[test]
    fn a_zero_deadline_on_a_stored_slot_is_a_deadline_error() {
        let session = session();
        for _ in 0..2 {
            session.transpile(&ghz(4)).expect("fill the slot");
        }
        assert_eq!(slot_states(&session), ["stored"]);
        let options = session.options().clone().deadline(Duration::ZERO);
        let err = session.transpile_with(&ghz(4), &options).unwrap_err();
        assert_eq!(err.kind(), crate::ErrorKind::Deadline);
        assert_eq!(err.to_string(), "transpile exceeded its 0 ms deadline");
    }

    #[test]
    fn poison_recovery_resets_caches_and_keeps_serving() {
        let session = Arc::new(session());
        let cold = session.transpile(&ghz(4)).expect("cold transpile");
        let options = session.options().clone();
        let replay = session.transpile_to_qasm(&ghz(4), &options);
        let text = replay.expect("replay").qasm;
        assert_eq!(slot_states(&session), ["stored+qasm"]);
        let stored_total = session.lock().stored_bytes;
        assert_eq!(stored_total, stored_bytes(&cold) + text.len());
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
        assert_eq!(slot_states(&session), ["winner"]);
        assert_eq!(session.lock().stored_bytes, 0);

        // And the one after that replays and stores, as if nothing happened.
        let warm = session.transpile(&ghz(4)).expect("warm transpile");
        assert_eq!(warm.cache.hits(), 3);
        assert_eq!(session.cache_resets(), 1);
        assert_eq!(slot_states(&session), ["stored"]);
        assert_eq!(session.lock().stored_bytes, stored_bytes(&cold));
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
        too_wide(&session.transpile_qasm(&nassc_qasm::export(&wide).unwrap()));
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

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
//!    structurally distinct circuit, found through a map keyed by
//!    [`QuantumCircuit::structural_hash`] and confirmed by full equality.
//!    The OpenQASM entry points ([`transpile_qasm`](Transpiler::transpile_qasm)
//!    and [`transpile_to_qasm`](Transpiler::transpile_to_qasm)) also reach
//!    it by text: a source whose parse found an entry that already existed
//!    is indexed by its exact bytes, and every later arrival of the same
//!    bytes goes straight to that entry, with no parse, no hash and no
//!    circuit comparison. A source seen once is not indexed, as a one-off
//!    answer is not stored (below).
//! 3. **Layout winners, then stored answers** — one slot per options,
//!    under the prepared entry it was found for, in one of two states. A
//!    cold request leaves the layout winner: the initial layout, the chosen
//!    trial and the trial costs. The first repeat replays one routing pass
//!    from that winner instead of re-running the whole layout search, and
//!    the answer it returned to its caller then replaces the winner: a copy
//!    of the result for [`transpile_jobs`](Transpiler::transpile_jobs) and
//!    the calls built on it, the OpenQASM text with its numbers for
//!    [`transpile_to_qasm`](Transpiler::transpile_to_qasm). Every later
//!    repeat through the same entry point hands back that answer (a copy of
//!    the result, or the shared text) without routing, SWAP expansion,
//!    post-optimization or export. A repeat through the other entry point
//!    is a layout miss: it runs cold and leaves the slot's answer in place.
//!    An answer is stored only after a replay, so a one-off request (a fresh
//!    seed, say) leaves nothing but its compact winner. All three paths
//!    return the same answer bit for bit (see `transpile_prepared` in
//!    `pipeline.rs` for why the replay does). `transpile_to_qasm` exports
//!    inside the session, under a `qasm_export` span; library callers never
//!    export.
//!
//! **Memory.** The caches hold at most [`CACHE_BUDGET_BYTES`], counted per
//! prepared entry: its circuits, its slots and its indexed sources (the
//! constant says how each is sized). An entry keeps at most 16 slots, its
//! most recently resolved: a new options pushes out the least recently
//! resolved one, so one-off seeds stop piling up while a sweep of 8 seeds
//! under both routers stays warm. When a new entry, slot, answer or source
//! takes the total past the budget, the least recently resolved entries
//! are evicted, each with its slots and its text keys, the entry that grew
//! going last; an answer or a source that would not fit beside its own
//! entry within the budget is not stored. Eviction never changes an answer:
//! a request whose entry or slot was evicted runs cold (a text parses
//! again) and returns the same bytes, and only its cache counters differ.
//! [`Transpiler::cache_usage`] reports the bytes held, the entries and the
//! evictions so far.
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
//! acquisition recovers by clearing the caches, the text index and the
//! byte total — counted by [`Transpiler::cache_resets`] — and the session continues
//! with a cold cache rather than failing every subsequent request.
//!
//! [`optimize_without_routing`]: crate::pipeline::optimize_without_routing

use std::any::Any;
use std::collections::HashMap;
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

/// The most bytes one [`Transpiler`]'s caches hold (see the [module
/// docs](self)).
///
/// A prepared entry counts its own struct, its raw and prepared circuits at
/// `size_of::<Instruction>()` per instruction (both buffers hold exactly
/// their instructions: the prepared one is shrunk to fit when the entry is
/// made), its slots, and the length of each OpenQASM source indexed to it.
/// A slot counts its `(options, slot)` pair, plus a layout winner's compact
/// layout and trial costs, or a stored answer: a result's instructions, two
/// layouts and trial costs, or a text's length.
///
/// 64 MiB holds the whole `benchmarks/qasm` corpus on Montreal, each file
/// with its stored text, its indexed source and 15 one-off winners
/// (253,590 bytes), over 250 times, or one 100k-gate QV circuit on Montreal
/// with its stored result (36.2 MiB). Past it the least recently resolved
/// entries are evicted, so what a long-running daemon keeps for repeats
/// stays bounded whatever its traffic.
pub const CACHE_BUDGET_BYTES: usize = 64 << 20;

/// The most slots one prepared entry keeps: a sweep of 8 seeds under both
/// routers stays warm, and one-off options push out the least recently
/// resolved.
const SLOTS_PER_ENTRY: usize = 16;

/// Admission limits a service applies to every request's circuit before
/// any cache or transpilation work: a circuit declaring more than
/// `max_qubits` qubits, or with more than `max_gates` gates, fails with
/// [`Error::OverLimit`] (checked in that order, then the device's width).
/// The default admits any size. The limits are not part of any cache key:
/// a circuit the session already knows, by its text or its structure, is
/// checked on every arrival.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Limits {
    /// The most qubits a circuit may declare; `None` admits any width.
    pub max_qubits: Option<usize>,
    /// The most gates a circuit may have; `None` admits any size.
    pub max_gates: Option<usize>,
}

impl Limits {
    /// Refuses `circuit` when it is over a limit.
    fn check(&self, circuit: &QuantumCircuit) -> Result<(), Error> {
        let over = |unit, count, max: Option<usize>| match max {
            Some(max) if count > max => Err(Error::OverLimit { unit, count, max }),
            _ => Ok(()),
        };
        over("qubits", circuit.num_qubits(), self.max_qubits)?;
        over("gates", circuit.num_gates(), self.max_gates)
    }
}

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
    /// hit on a stored answer also skips routing, SWAP expansion,
    /// post-optimization and export.
    pub layout_hits: u64,
    /// Layout-winner cache misses (each miss runs layout + trials). A slot
    /// whose answer the other entry point stored counts as a miss.
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

/// What a [`Transpiler`]'s caches hold, and what they have evicted, as
/// [`Transpiler::cache_usage`] reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheUsage {
    /// What the prepared entries count against [`CACHE_BUDGET_BYTES`]; at
    /// most that once a request has resolved or committed.
    pub bytes: usize,
    /// The prepared entries held.
    pub entries: usize,
    /// Entries evicted so far, each with its slots and indexed sources, to
    /// keep `bytes` within the budget.
    pub evicted_entries: u64,
    /// Slots pushed out so far by a new options on an entry that already
    /// held 16.
    pub evicted_slots: u64,
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
    raw: QuantumCircuit,
    prepared: Arc<QuantumCircuit>,
    /// The structural hash of `raw`, its key in `SessionState::by_hash`.
    hash: u64,
    /// The OpenQASM sources indexed to this entry, its keys in
    /// `SessionState::texts`.
    texts: Vec<Arc<str>>,
    /// At most [`SLOTS_PER_ENTRY`], least recently resolved first.
    slots: Vec<(TranspileOptions, Slot)>,
    /// The session's recency clock when a request last resolved to it.
    used: u64,
}

impl PreparedEntry {
    /// What the entry counts against [`CACHE_BUDGET_BYTES`].
    fn bytes(&self) -> usize {
        let slots: usize = self.slots.iter().map(|(_, slot)| slot.bytes()).sum();
        let texts: usize = self.texts.iter().map(|text| text.len()).sum();
        size_of::<Self>() + circuit_bytes(&self.raw) + circuit_bytes(&self.prepared) + slots + texts
    }
}

/// What a cached circuit counts against [`CACHE_BUDGET_BYTES`].
fn circuit_bytes(circuit: &QuantumCircuit) -> usize {
    size_of::<QuantumCircuit>() + circuit.num_gates() * size_of::<Instruction>()
}

/// What the session keeps for one (prepared circuit, options) pair.
enum Slot {
    /// After a cold request: the layout winner to replay from.
    Winner(Winner),
    /// After the first replay: the answer it returned, for every later
    /// repeat through the same entry point.
    Stored(Stored),
}

impl Slot {
    /// What the slot counts against [`CACHE_BUDGET_BYTES`]: its pair with
    /// its options, plus a winner's compact layout and trial costs, or the
    /// stored answer's [`Stored::bytes`].
    fn bytes(&self) -> usize {
        let held = match self {
            Slot::Winner(winner) => {
                size_of_val(&*winner.layout) + size_of_val(&*winner.trial_costs)
            }
            Slot::Stored(stored) => stored.bytes(),
        };
        size_of::<(TranspileOptions, Slot)>() + held
    }
}

/// The answer a replay returned to its caller, kept with `cache` at its
/// default (each hit stamps its own).
enum Stored {
    /// From [`Transpiler::transpile_jobs`]: its hits return a copy.
    Result(Arc<TranspileResult>),
    /// From [`Transpiler::transpile_to_qasm`]: its hits share the text.
    Qasm(Arc<QasmResult>),
}

impl Stored {
    /// What the answer counts against [`CACHE_BUDGET_BYTES`]: the result's
    /// [`stored_bytes`], or the text's length.
    fn bytes(&self) -> usize {
        match self {
            Stored::Result(result) => stored_bytes(result),
            Stored::Qasm(qasm) => qasm.qasm.len(),
        }
    }

    /// The answer a library hit hands back, if the library stored it.
    fn result(&self) -> Option<Arc<TranspileResult>> {
        match self {
            Stored::Result(result) => Some(Arc::clone(result)),
            Stored::Qasm(_) => None,
        }
    }

    /// The answer a QASM-out hit hands back, if a QASM-out replay stored it.
    fn qasm(&self) -> Option<Arc<QasmResult>> {
        match self {
            Stored::Qasm(qasm) => Some(Arc::clone(qasm)),
            Stored::Result(_) => None,
        }
    }
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
    /// The prepared entries; an evicted entry leaves its index vacant until
    /// a new entry takes it.
    prepared: Vec<Option<PreparedEntry>>,
    /// The vacant indices in `prepared`.
    vacant: Vec<usize>,
    /// The indices in `prepared` of the entries whose raw circuit has each
    /// structural hash.
    by_hash: HashMap<u64, Vec<usize>>,
    /// The index in `prepared` each indexed OpenQASM source resolved to.
    texts: HashMap<Arc<str>, usize>,
    /// What the held entries count, by [`PreparedEntry::bytes`].
    bytes: usize,
    /// The bound on `bytes`: [`CACHE_BUDGET_BYTES`], lower in tests.
    budget: usize,
    /// Ticks once per resolution; stamps `PreparedEntry::used`.
    clock: u64,
    evicted_entries: u64,
    evicted_slots: u64,
    stats: CacheStats,
}

impl SessionState {
    /// The held entry at `index`.
    fn entry(&self, index: usize) -> &PreparedEntry {
        self.prepared[index]
            .as_ref()
            .expect("an indexed entry is held")
    }

    /// Makes the held entry at `index` the most recently resolved.
    fn touch(&mut self, index: usize) -> &mut PreparedEntry {
        self.clock += 1;
        let entry = self.prepared[index].as_mut();
        let entry = entry.expect("a resolved entry is held");
        entry.used = self.clock;
        entry
    }

    /// Holds `entry` at a vacant index, or a new one, and returns it.
    fn insert(&mut self, entry: PreparedEntry) -> usize {
        self.bytes += entry.bytes();
        let hash = entry.hash;
        let index = match self.vacant.pop() {
            Some(index) => {
                self.prepared[index] = Some(entry);
                index
            }
            None => {
                self.prepared.push(Some(entry));
                self.prepared.len() - 1
            }
        };
        self.by_hash.entry(hash).or_default().push(index);
        index
    }

    /// Evicts the least recently resolved entries, the one at `keep` last,
    /// until the caches hold at most the budget.
    fn evict_to_budget(&mut self, keep: usize) {
        while self.bytes > self.budget {
            let held = self.prepared.iter().enumerate();
            let held = held.filter_map(|(index, entry)| Some((index, entry.as_ref()?)));
            let lru = held.min_by_key(|(index, entry)| (*index == keep, entry.used));
            let Some((victim, _)) = lru else {
                return;
            };
            let entry = self.prepared[victim].take().expect("the victim is held");
            self.bytes -= entry.bytes();
            if let Some(indices) = self.by_hash.get_mut(&entry.hash) {
                indices.retain(|&index| index != victim);
                if indices.is_empty() {
                    self.by_hash.remove(&entry.hash);
                }
            }
            for text in &entry.texts {
                self.texts.remove(text);
            }
            self.vacant.push(victim);
            self.evicted_entries += 1;
        }
    }

    /// Fills the slot `job` resolved against: a cold job's winner goes
    /// where no slot is yet, pushing out the least recently resolved slot
    /// when the entry already has [`SLOTS_PER_ENTRY`], and a warm job's
    /// answer replaces the winner it replayed from when it fits beside its
    /// entry within the budget. Anything else is dropped, so duplicate jobs
    /// in one batch stay idempotent, a cold job leaves the other entry
    /// point's answer in place, and a slot whose entry was evicted, or
    /// cleared by poison recovery, since resolution is gone. Other entries
    /// are then evicted as the budget requires.
    fn fill<A>(&mut self, job: &ResolvedJob<A>, slot: Slot) {
        let Some(entry) = held(&mut self.prepared, job) else {
            return;
        };
        let cached = entry.slots.iter().position(|(key, _)| *key == job.options);
        match (cached, slot) {
            (None, winner @ Slot::Winner(_)) => {
                if entry.slots.len() == SLOTS_PER_ENTRY {
                    let (_, dropped) = entry.slots.remove(0);
                    self.bytes -= dropped.bytes();
                    self.evicted_slots += 1;
                }
                self.bytes += winner.bytes();
                entry.slots.push((job.options.clone(), winner));
            }
            (Some(index), Slot::Stored(stored))
                if matches!(entry.slots[index].1, Slot::Winner(_))
                    && stored.bytes() <= self.budget.saturating_sub(entry.bytes()) =>
            {
                let stored = Slot::Stored(stored);
                self.bytes += stored.bytes();
                self.bytes -= std::mem::replace(&mut entry.slots[index].1, stored).bytes();
            }
            _ => return,
        }
        self.evict_to_budget(job.entry);
    }

    /// Indexes `source` to the entry `job` resolved to, unless it already
    /// is, that entry is gone, or the source would not fit beside it within
    /// the budget. Other entries are then evicted as the budget requires.
    fn index_text<A>(&mut self, source: &str, job: &ResolvedJob<A>) {
        let Some(entry) = held(&mut self.prepared, job) else {
            return;
        };
        let fits = entry.bytes() + source.len() <= self.budget;
        if !fits || self.texts.contains_key(source) {
            return;
        }
        let key: Arc<str> = source.into();
        entry.texts.push(Arc::clone(&key));
        self.texts.insert(key, job.entry);
        self.bytes += source.len();
        self.evict_to_budget(job.entry);
    }
}

/// The entry `job` resolved to, unless it has been evicted or cleared since
/// (its index may hold another entry by now).
fn held<'a, A>(
    prepared: &'a mut [Option<PreparedEntry>],
    job: &ResolvedJob<A>,
) -> Option<&'a mut PreparedEntry> {
    let entry = prepared.get_mut(job.entry)?.as_mut()?;
    Arc::ptr_eq(&entry.prepared, &job.prepared).then_some(entry)
}

/// The bytes a stored result counts against [`CACHE_BUDGET_BYTES`].
fn stored_bytes(result: &TranspileResult) -> usize {
    let layouts = result.initial_layout.len() + result.final_layout.len();
    size_of::<TranspileResult>()
        + result.circuit.num_gates() * size_of::<Instruction>()
        + layouts * 2 * size_of::<usize>()
        + result.layout_trial_costs.len() * size_of::<f64>()
}

/// How a resolved job gets its answer `A`; the `job` span's `path`.
enum Path<A> {
    /// No slot, or one the other entry point stored: run the layout search.
    Cold,
    /// A winner: replay one routing pass from it.
    Warm(LayoutSelection),
    /// This entry point's stored answer: hand it back.
    Stored(A),
}

impl<A> Path<A> {
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
struct ResolvedJob<A> {
    options: TranspileOptions,
    distances: Arc<DistanceMatrix>,
    /// The index in `SessionState::prepared` of the entry `prepared` came
    /// from, which its slot is filled under.
    entry: usize,
    prepared: Arc<QuantumCircuit>,
    path: Path<A>,
    stats: CacheStats,
    /// The job's cooperative deadline, anchored at request entry; unlimited
    /// when [`TranspileOptions::deadline`] is unset.
    budget: Budget,
    /// For a warm job, the room the budget left beside its entry at
    /// resolution: a result larger than that is not copied for storing.
    room: usize,
}

/// Where a request's raw circuit is.
#[derive(Clone, Copy)]
enum Raw<'a> {
    /// Parsed for this request, or passed in: resolved by its structure.
    Circuit(&'a QuantumCircuit),
    /// In the entry at this index, which the request's text is indexed to.
    Indexed(usize),
}

impl<A> ResolvedJob<A> {
    /// What the job leaves in its slot once it has computed `result`: a
    /// cold job its layout winner, a warm job the answer `store` builds
    /// (`None` stores nothing).
    fn fill(
        &self,
        result: &TranspileResult,
        store: impl FnOnce() -> Option<Stored>,
    ) -> Option<Slot> {
        match self.path {
            Path::Cold => Some(Slot::Winner(Winner::new(result))),
            Path::Warm(_) => store().map(Slot::Stored),
            Path::Stored(_) => None,
        }
    }
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
            state: Mutex::new(SessionState {
                budget: CACHE_BUDGET_BYTES,
                ..SessionState::default()
            }),
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

    /// Cumulative cache counters over every request resolved so far,
    /// including those that failed and those still in flight.
    pub fn cache_stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// What the caches hold now, and what they have evicted so far (see
    /// the [module docs](self)).
    pub fn cache_usage(&self) -> CacheUsage {
        let state = self.lock();
        CacheUsage {
            bytes: state.bytes,
            entries: state.prepared.len() - state.vacant.len(),
            evicted_entries: state.evicted_entries,
            evicted_slots: state.evicted_slots,
        }
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
        self.run_library(self.resolve_jobs(jobs))
    }

    /// Phases 2 and 3 of the entry points that return results. Phase 2 fans
    /// the seed-dependent tails across the pool. Each job's tail is its own
    /// catch boundary: one panicking or expired job fails alone while its
    /// siblings complete normally. Phase 3 stamps the per-request counters,
    /// then memoizes the layout winners that cold jobs just discovered and
    /// a copy of each result that a warm job just replayed, if the room the
    /// budget left beside its entry at resolution holds it.
    fn run_library(
        &self,
        resolved: Vec<Result<ResolvedJob<Arc<TranspileResult>>, Error>>,
    ) -> Vec<Result<TranspileResult, Error>> {
        let items = resolved.iter().enumerate().collect();
        let mut results = self.pool.map(items, |(index, resolved)| match resolved {
            Ok(resolved) => self.run_tail(index, resolved, copy_stored, Ok),
            Err(e) => Err(e.clone()),
        });
        for (resolved, result) in resolved.iter().zip(results.iter_mut()) {
            if let (Ok(resolved), Ok(result)) = (resolved, result.as_mut()) {
                result.cache = resolved.stats;
            }
        }
        self.commit(resolved.iter().zip(&results).filter_map(|(job, result)| {
            let (Ok(job), Ok(result)) = (job, result) else {
                return None;
            };
            let fill = job.fill(result, || {
                (stored_bytes(result) <= job.room).then(|| {
                    let mut copy = result.clone();
                    copy.cache = CacheStats::default();
                    copy.elapsed = Duration::ZERO;
                    Stored::Result(Arc::new(copy))
                })
            });
            Some((job, fill?))
        }));
        results
    }

    /// Transpiles OpenQASM 2.0 source with per-request options, as
    /// [`transpile_qasm_with`](Self::transpile_qasm_with) does, admitting
    /// only a circuit within `limits`, and returns the result as OpenQASM
    /// 2.0 text (what [`nassc_qasm::export`] writes for its circuit) with
    /// the numbers a service reports beside it.
    ///
    /// A source the session has indexed (see the [module docs](self)) goes
    /// straight to its prepared entry; any other is parsed here, under a
    /// `qasm_parse` span. `limits`, then the device's width, apply to the
    /// circuit either way, before any cache or transpilation work. A cold
    /// or replayed request exports its result here, under a `qasm_export`
    /// span, and a replay stores the text in place of the layout winner. A
    /// later repeat hands back that shared text: it neither copies nor
    /// exports nor scans the circuit. A slot whose result
    /// [`transpile_jobs`](Self::transpile_jobs) stored is a layout miss
    /// here: the request runs cold and exports, and the slot keeps its
    /// result. This is what the `nassc-serve` daemon calls with each
    /// request's body.
    ///
    /// # Errors
    ///
    /// As [`transpile_qasm`](Self::transpile_qasm), plus
    /// [`Error::OverLimit`] when the circuit is over `limits` and
    /// [`Error::Export`] when the transpiled circuit has no OpenQASM 2.0
    /// spelling.
    pub fn transpile_to_qasm(
        &self,
        source: &str,
        options: &TranspileOptions,
        limits: Limits,
    ) -> Result<QasmResult, Error> {
        let resolved = self.resolve_source(source, options, limits, Stored::qasm)?;
        let mut fill = None;
        let qasm = self.run_tail(
            0,
            &resolved,
            |stored| Ok(QasmResult::clone(stored)),
            |result| {
                let qasm = QasmResult::export(&result)?;
                fill = resolved.fill(&result, || Some(Stored::Qasm(Arc::new(qasm.clone()))));
                Ok(qasm)
            },
        );
        self.commit(fill.map(|slot| (&resolved, slot)));
        qasm.map(|qasm| QasmResult {
            cache: resolved.stats,
            ..qasm
        })
    }

    /// Phase 1 of a batch — serial resolution under the lock: every cache
    /// read and every preparation happens here, in job order, so cache
    /// counters are deterministic and workers never contend on the session
    /// lock. A slot the library stored serves its result; one holding a
    /// text is a layout miss.
    fn resolve_jobs(
        &self,
        jobs: &[SessionJob<'_>],
    ) -> Vec<Result<ResolvedJob<Arc<TranspileResult>>, Error>> {
        // Deadlines are anchored here, at request entry: a job's budget
        // covers its share of resolution, layout, routing and optimization.
        let entry = Instant::now();
        let mut resolve_span = nassc_trace::span!("resolve");
        resolve_span.arg_u64("jobs", jobs.len() as u64);
        let mut state = self.lock();
        jobs.iter()
            .map(|job| {
                let options = job.options.clone().unwrap_or_else(|| self.options.clone());
                let budget = anchored_budget(entry, options.deadline);
                let raw = Raw::Circuit(job.circuit);
                let limits = Limits::default();
                self.resolve_locked(&mut state, raw, options, limits, budget, Stored::result)
            })
            .collect()
    }

    /// Phase 1 of a text request, in one `resolve` span. An indexed source
    /// resolves its entry under the lock at once. Any other is parsed
    /// outside the lock, under a `qasm_parse` span, then resolved by its
    /// circuit; when that finds an entry that already existed, the source
    /// is indexed to it. The deadline is anchored before the parse, so the
    /// parse counts against it. A slot stored by the other entry point is a
    /// layout miss (`hit` takes nothing from it).
    fn resolve_source<A>(
        &self,
        source: &str,
        options: &TranspileOptions,
        limits: Limits,
        hit: fn(&Stored) -> Option<A>,
    ) -> Result<ResolvedJob<A>, Error> {
        let budget = anchored_budget(Instant::now(), options.deadline);
        let mut resolve_span = nassc_trace::span!("resolve");
        resolve_span.arg_u64("jobs", 1);
        let mut state = self.lock();
        if let Some(&entry) = state.texts.get(source) {
            let raw = Raw::Indexed(entry);
            return self.resolve_locked(&mut state, raw, options.clone(), limits, budget, hit);
        }
        drop(state);
        let circuit = {
            let _span = nassc_trace::span!("qasm_parse");
            catch_unwind(|| nassc_qasm::parse(source).map_err(Error::from))
                .unwrap_or_else(|payload| Err(classify_panic("parse", payload, options.deadline)))?
        };
        let mut state = self.lock();
        let raw = Raw::Circuit(&circuit);
        let resolved = self.resolve_locked(&mut state, raw, options.clone(), limits, budget, hit);
        if let Ok(job) = &resolved {
            if job.stats.prepared_hits > 0 {
                state.index_text(source, job);
            }
        }
        resolved
    }

    /// Resolves one job under the lock: the admission checks (`limits`,
    /// then the device's width), which a refused circuit fails before it
    /// touches any cache, then [`resolve`](Self::resolve). This is the
    /// job's catch boundary, inside the lock scope, so a contained panic
    /// never poisons the session lock. The job's counters join the session
    /// totals whether it resolved, failed or panicked.
    fn resolve_locked<A>(
        &self,
        state: &mut SessionState,
        raw: Raw<'_>,
        options: TranspileOptions,
        limits: Limits,
        budget: Budget,
        hit: fn(&Stored) -> Option<A>,
    ) -> Result<ResolvedJob<A>, Error> {
        let deadline = options.deadline;
        let mut stats = CacheStats::default();
        let resolved = catch_unwind(AssertUnwindSafe(|| {
            let circuit = match raw {
                Raw::Circuit(circuit) => circuit,
                Raw::Indexed(entry) => &state.entry(entry).raw,
            };
            limits.check(circuit)?;
            self.check_fits(circuit)?;
            self.resolve(state, raw, options, budget, hit, &mut stats)
        }))
        .unwrap_or_else(|payload| Err(classify_panic("prepare", payload, deadline)));
        state.stats.accumulate(&stats);
        resolved
    }

    /// Transpiles OpenQASM 2.0 source under the session's default options:
    /// [`transpile`](Self::transpile) of the parsed circuit, with every
    /// failure domain folded into one [`Error`] (branch on [`Error::kind`]).
    /// A source the session has indexed (see the [module docs](self)) is
    /// not parsed again.
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
        let resolved = self.resolve_source(source, options, Limits::default(), Stored::result);
        self.run_library(vec![resolved])
            .pop()
            .expect("one job yields one result")
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
        let mut stats = CacheStats::default();
        let entry = catch_unwind(AssertUnwindSafe(|| {
            Self::prepared_locked(&mut state, circuit, &Budget::unlimited(), &mut stats)
                .map_err(Error::from)
        }))
        .unwrap_or_else(|payload| Err(classify_panic("prepare", payload, None)));
        state.stats.accumulate(&stats);
        let entry = entry?;
        let prepared = Arc::clone(&state.touch(entry).prepared);
        state.evict_to_budget(entry);
        Ok(prepared)
    }

    /// Acquires the session lock, recovering from poison: a panic while
    /// the lock was held (only the cache-commit window runs fallible code
    /// under it) leaves the caches in an unknown state, so recovery resets
    /// all three to empty — preserving the accumulated stats — counts the
    /// reset in [`cache_resets`](Self::cache_resets), clears the poison
    /// flag and continues serving. Winners and stored answers live under
    /// their prepared entries, so clearing those, with the hash and text
    /// indexes into them, empties both caches, and the byte total restarts
    /// at zero.
    fn lock(&self) -> std::sync::MutexGuard<'_, SessionState> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.distances.clear();
                guard.prepared.clear();
                guard.vacant.clear();
                guard.by_hash.clear();
                guard.texts.clear();
                guard.bytes = 0;
                self.cache_resets.fetch_add(1, Ordering::Relaxed);
                self.state.clear_poison();
                guard
            }
        }
    }

    /// Looks up / computes the prepared baseline for `circuit`, returning
    /// the index of its entry in `state.prepared`: the candidates are the
    /// entries with its structural hash, and a hit is one whose raw
    /// circuit equals it. Counts the hit or miss in `stats`, a miss before
    /// it prepares, so a failed preparation is counted too. A new entry
    /// counts against the budget, which the caller then enforces.
    fn prepared_locked(
        state: &mut SessionState,
        circuit: &QuantumCircuit,
        budget: &Budget,
        stats: &mut CacheStats,
    ) -> Result<usize, PassError> {
        let raw_hash = circuit.structural_hash();
        let candidates = state.by_hash.get(&raw_hash).map_or(&[][..], Vec::as_slice);
        let found = candidates.iter().find(|&&e| state.entry(e).raw == *circuit);
        if let Some(&entry) = found {
            stats.prepared_hits += 1;
            return Ok(entry);
        }
        stats.prepared_misses += 1;
        let mut prepared = optimize_without_routing_budgeted(circuit, budget)?;
        prepared.shrink_to_fit();
        Ok(state.insert(PreparedEntry {
            raw: circuit.clone(),
            prepared: Arc::new(prepared),
            hash: raw_hash,
            texts: Vec::new(),
            slots: Vec::new(),
            used: state.clock,
        }))
    }

    /// Makes every cache decision for one admitted job, counting them in
    /// `stats`. Runs under the session lock. A job whose text is indexed
    /// is a prepared hit on the entry the text is indexed to. The entry and
    /// the slot the job found become the most recently resolved (a slot by
    /// moving to the end of its entry's list), and a new entry may evict
    /// others, never the job's own before them.
    fn resolve<A>(
        &self,
        state: &mut SessionState,
        raw: Raw<'_>,
        options: TranspileOptions,
        budget: Budget,
        hit: fn(&Stored) -> Option<A>,
        stats: &mut CacheStats,
    ) -> Result<ResolvedJob<A>, Error> {
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

        let entry = match raw {
            Raw::Circuit(circuit) => Self::prepared_locked(state, circuit, &budget, stats)?,
            Raw::Indexed(entry) => {
                stats.prepared_hits += 1;
                entry
            }
        };
        nassc_trace::counter(
            match stats.prepared_hits {
                0 => "cache.prepared_miss",
                _ => "cache.prepared_hit",
            },
            1,
        );

        let cache_budget = state.budget;
        let held = state.touch(entry);
        let prepared = Arc::clone(&held.prepared);
        let found = held.slots.iter().position(|(cached, _)| *cached == options);
        let slot = found.and_then(|found| {
            held.slots[found..].rotate_left(1);
            held.slots.last().map(|(_, slot)| slot)
        });
        let path = match slot {
            None => Path::Cold,
            Some(Slot::Winner(winner)) => Path::Warm(winner.selection()),
            Some(Slot::Stored(stored)) => hit(stored).map_or(Path::Cold, Path::Stored),
        };
        let room = match path {
            Path::Warm(_) => cache_budget.saturating_sub(held.bytes()),
            _ => 0,
        };
        // A new entry may have taken the caches past the budget.
        state.evict_to_budget(entry);
        if let Path::Cold = path {
            stats.layout_misses += 1;
            nassc_trace::counter("cache.layout_miss", 1);
        } else {
            stats.layout_hits += 1;
            nassc_trace::counter("cache.layout_hit", 1);
        }

        Ok(ResolvedJob {
            options,
            distances,
            entry,
            prepared,
            path,
            stats: *stats,
            budget,
            room,
        })
    }

    /// The lock-free tail of the `index`th job, in its `job` span: a stored
    /// hit checks its deadline and hands its answer to `stored`, a warm job
    /// replays a single routing pass from the cached layout and a cold job
    /// runs the full layout search, handing the result to `computed`. This
    /// is the per-job catch boundary — a panic or budget abort in here
    /// fails this job alone.
    fn run_tail<A, T>(
        &self,
        index: usize,
        resolved: &ResolvedJob<A>,
        stored: impl FnOnce(&A) -> Result<T, Error>,
        computed: impl FnOnce(TranspileResult) -> Result<T, Error>,
    ) -> Result<T, Error> {
        let mut span = nassc_trace::span!("job");
        span.arg_u64("index", index as u64);
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

    /// Phase 3 — fills the slots (see [`SessionState::fill`]), as its own
    /// catch boundary. The answers are already valid, so a panic while
    /// memoizing is swallowed here. It poisons the session lock (the fills
    /// run under it) and the next `lock()` recovers by resetting the caches
    /// — requests keep succeeding, just cold. With nothing to fill, as on
    /// every stored hit, it neither opens its span nor takes the lock.
    fn commit<'a, A: 'a>(&self, fills: impl IntoIterator<Item = (&'a ResolvedJob<A>, Slot)>) {
        let _ = catch_unwind(AssertUnwindSafe(|| {
            // The fills are built before taking the lock: copying a large
            // result takes milliseconds, and every `resolve` waits on the lock.
            let fills: Vec<_> = fills.into_iter().collect();
            if fills.is_empty() {
                return;
            }
            let _span = nassc_trace::span!("commit");
            let mut state = self.lock();
            nassc_circuit::failpoints::hit("cache_commit");
            for (job, slot) in fills {
                state.fill(job, slot);
            }
        }));
    }
}

/// The cooperative deadline of a request that entered at `entry`:
/// unlimited without a deadline, or with one beyond `Instant`'s range.
fn anchored_budget(entry: Instant, deadline: Option<Duration>) -> Budget {
    match deadline.and_then(|limit| entry.checked_add(limit)) {
        Some(at) => Budget::with_deadline(at),
        None => Budget::unlimited(),
    }
}

/// A library stored hit: a copy of the stored result, whose `elapsed` is
/// the time the copy took.
fn copy_stored(stored: &Arc<TranspileResult>) -> Result<TranspileResult, Error> {
    let start = Instant::now();
    let mut result = TranspileResult::clone(stored);
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

    /// `circuit` as OpenQASM source.
    fn source_of(circuit: &QuantumCircuit) -> String {
        nassc_qasm::export(circuit).expect("a circuit exports")
    }

    /// What `run` returns, and the names of the spans it recorded on this
    /// thread: the recorder is process-wide, and other tests may record on
    /// their own threads meanwhile. The tests that read it take turns.
    fn spans_of<T>(run: impl FnOnce() -> T) -> (T, Vec<String>) {
        static RECORDER: Mutex<()> = Mutex::new(());
        let _turn = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
        nassc_trace::enable();
        let out = run();
        let report = nassc_trace::take_report();
        nassc_trace::disable();
        let this = std::thread::current();
        let name = this.name().expect("test threads are named");
        let thread = report.threads.iter().find(|t| t.name == name);
        let tid = thread.expect("this thread recorded spans").tid;
        let names = report.events.iter().filter(|event| event.tid == tid);
        let names = names.filter_map(|event| match &event.kind {
            nassc_trace::EventKind::Span(span) => Some(span.name.clone()),
            nassc_trace::EventKind::Counter(_) => None,
        });
        (out, names.collect())
    }

    /// How many of `spans` are named `name`.
    fn count(spans: &[String], name: &str) -> usize {
        spans.iter().filter(|span| *span == name).count()
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
    fn a_request_that_fails_while_resolving_keeps_its_cache_counts() {
        // The expired request builds the distance matrix, then aborts in
        // preparation: both consultations stay counted.
        let session = session();
        let options = session.options().clone().deadline(Duration::ZERO);
        session.transpile_with(&ghz(4), &options).unwrap_err();
        let failed = CacheStats {
            distance_misses: 1,
            prepared_misses: 1,
            ..CacheStats::default()
        };
        assert_eq!(session.cache_stats(), failed);
        let next = session.transpile(&ghz(4)).expect("transpile");
        let expected = CacheStats {
            distance_hits: 1,
            prepared_misses: 1,
            layout_misses: 1,
            ..CacheStats::default()
        };
        assert_eq!(next.cache, expected);
        let mut total = failed;
        total.accumulate(&expected);
        assert_eq!(session.cache_stats(), total);
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

    /// The state of every slot, by entry index, each entry's least
    /// recently resolved first.
    fn slot_states(session: &Transpiler) -> Vec<&'static str> {
        let state = session.lock();
        let slots = state
            .prepared
            .iter()
            .flatten()
            .flat_map(|entry| &entry.slots);
        slots
            .map(|(_, slot)| match slot {
                Slot::Winner(_) => "winner",
                Slot::Stored(Stored::Result(_)) => "stored",
                Slot::Stored(Stored::Qasm(_)) => "text",
            })
            .collect()
    }

    /// The text every slot stores, in the order of [`slot_states`].
    fn stored_texts(session: &Transpiler) -> Vec<Arc<str>> {
        stored_texts_locked(&session.lock())
    }

    /// [`stored_texts`] under a lock the caller holds.
    fn stored_texts_locked(state: &SessionState) -> Vec<Arc<str>> {
        let slots = state
            .prepared
            .iter()
            .flatten()
            .flat_map(|entry| &entry.slots);
        slots
            .filter_map(|(_, slot)| match slot {
                Slot::Stored(Stored::Qasm(stored)) => Some(Arc::clone(&stored.qasm)),
                _ => None,
            })
            .collect()
    }

    /// What the stored answers and the indexed sources count, once the
    /// session's running byte total is checked against a recount of its
    /// entries.
    fn stored_total(session: &Transpiler) -> usize {
        stored_total_locked(&session.lock())
    }

    /// [`stored_total`] under a lock the caller holds.
    fn stored_total_locked(state: &SessionState) -> usize {
        let entries = state.prepared.iter().flatten();
        let recount: usize = entries.clone().map(PreparedEntry::bytes).sum();
        assert_eq!(state.bytes, recount, "the running byte total");
        let answers = entries.clone().flat_map(|entry| &entry.slots);
        let answers = answers.filter_map(|(_, slot)| match slot {
            Slot::Stored(stored) => Some(stored.bytes()),
            Slot::Winner(_) => None,
        });
        let sources = entries
            .flat_map(|entry| &entry.texts)
            .map(|text| text.len());
        answers.sum::<usize>() + sources.sum::<usize>()
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
    fn a_qasm_replay_stores_its_text_and_later_hits_share_it() {
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
                let source = source_of(&circuit);
                let outputs: Vec<QasmResult> = (0..4)
                    .map(|_| session.transpile_to_qasm(&source, &options, Limits::default()))
                    .collect::<Result<_, _>>()
                    .expect("QASM-out requests");
                for (request, out) in outputs.iter().enumerate() {
                    assert_same_qasm(out, &cold, &format!("{context} request {request}"));
                    let hits = if request == 0 { 0 } else { 3 };
                    assert_eq!(out.cache.hits(), hits, "{context} request {request}");
                }
                // The replay stored the text it exported in place of the
                // winner, and every later request shares that text.
                assert_eq!(slot_states(&session), ["text"], "{context}");
                let stored = &stored_texts(&session)[0];
                let text = nassc_qasm::export(&cold.circuit).expect("a result exports");
                assert_eq!(**stored, *text, "{context}");
                for out in &outputs[1..] {
                    assert!(Arc::ptr_eq(&out.qasm, stored), "{context}");
                }
                // The second request also indexed its source.
                let total = stored.len() + source.len();
                assert_eq!(stored_total(&session), total, "{context}");
            }
        }
    }

    #[test]
    fn a_repeat_through_the_other_entry_point_runs_cold_and_keeps_the_answer() {
        let (library_first, qasm_first) = (session(), session());
        let options = library_first.options().clone();
        let circuit = ghz(4);
        let source = source_of(&circuit);
        let layout_miss = CacheStats {
            distance_hits: 1,
            prepared_hits: 1,
            layout_misses: 1,
            ..CacheStats::default()
        };

        // A library replay stores its result, counted by its byte estimate;
        // QASM-out repeats then miss the layout and leave it in place. The
        // first of them finds the entry the library made, so it indexes its
        // source.
        let cold = library_first.transpile(&circuit).expect("library cold");
        library_first.transpile(&circuit).expect("library replay");
        assert_eq!(slot_states(&library_first), ["stored"]);
        for _ in 0..2 {
            let out = library_first.transpile_to_qasm(&source, &options, Limits::default());
            let out = out.expect("QASM-out repeat");
            assert_same_qasm(&out, &cold, "after a library replay");
            assert_eq!(out.cache, layout_miss);
        }
        assert_eq!(slot_states(&library_first), ["stored"]);
        let total = stored_bytes(&cold) + source.len();
        assert_eq!(stored_total(&library_first), total);
        let copied = library_first.transpile(&circuit).expect("library hit");
        assert_same_result(&copied, &cold, "after QASM-out repeats");
        assert_eq!(copied.cache.hits(), 3);

        // A QASM-out replay stores its text; library repeats then miss the
        // layout and leave it in place.
        qasm_first
            .transpile_to_qasm(&source, &options, Limits::default())
            .expect("cold");
        let replay = qasm_first.transpile_to_qasm(&source, &options, Limits::default());
        let replay = replay.expect("QASM-out replay");
        assert_eq!(slot_states(&qasm_first), ["text"]);
        for _ in 0..2 {
            let result = qasm_first.transpile_with(&circuit, &options);
            let result = result.expect("library repeat");
            assert_same_result(&result, &cold, "after a QASM-out replay");
            assert_eq!(result.cache, layout_miss);
        }
        assert_eq!(slot_states(&qasm_first), ["text"]);
        let total = replay.qasm.len() + source.len();
        assert_eq!(stored_total(&qasm_first), total);
        let hit = qasm_first.transpile_to_qasm(&source, &options, Limits::default());
        let hit = hit.expect("QASM-out hit");
        assert!(Arc::ptr_eq(&hit.qasm, &replay.qasm));
        assert_eq!(hit.cache.hits(), 3);
    }

    #[test]
    fn a_text_past_the_budget_evicts_the_least_recently_resolved_entry() {
        let (older, newer) = (ghz(3), ghz(4));
        let reference = session();
        let options = reference.options().clone();
        let (older_source, newer_source) = (source_of(&older), source_of(&newer));
        let ask = |session: &Transpiler, source: &str| {
            let out = session.transpile_to_qasm(source, &options, Limits::default());
            out.expect("QASM-out request")
        };
        let older_text = ask(&reference, &older_source).qasm;
        let newer_cold = session().transpile(&newer).expect("reference");

        // A text that would not fit beside its own entry is not stored,
        // whatever is evicted: the source fits, its answer's text does not,
        // so every repeat replays from the winner and exports its own text.
        let session = session();
        ask(&session, &newer_source);
        let budget = session.cache_usage().bytes + newer_source.len();
        session.lock().budget = budget;
        let outputs: Vec<QasmResult> = (0..3).map(|_| ask(&session, &newer_source)).collect();
        assert_eq!(slot_states(&session), ["winner"]);
        assert_eq!(stored_total(&session), newer_source.len());
        for (request, out) in outputs.iter().enumerate() {
            assert_same_qasm(out, &newer_cold, &format!("past the budget, {request}"));
            assert_eq!(out.cache.hits(), 3);
        }
        assert!(!Arc::ptr_eq(&outputs[1].qasm, &outputs[2].qasm));

        // A text that fits beside its entry, but not beside every other
        // entry, evicts the least recently resolved one to be stored.
        let session = Transpiler::new(CouplingMap::linear(4), options.clone());
        for source in [&older_source, &older_source, &newer_source] {
            ask(&session, source);
        }
        let full = {
            let unbounded = Transpiler::new(CouplingMap::linear(4), options.clone());
            for source in [&older_source, &older_source, &newer_source, &newer_source] {
                ask(&unbounded, source);
            }
            unbounded.cache_usage().bytes
        };
        let budget = full - 1;
        session.lock().budget = budget;
        let stored = ask(&session, &newer_source);
        assert_same_qasm(&stored, &newer_cold, "stored past the budget");
        assert_eq!(slot_states(&session), ["text"]);
        let usage = session.cache_usage();
        assert_eq!((usage.entries, usage.evicted_entries), (1, 1));
        assert!(usage.bytes <= budget, "{usage:?}");
        let hit = ask(&session, &newer_source);
        assert!(Arc::ptr_eq(&hit.qasm, &stored.qasm));
        assert_eq!(hit.cache.hits(), 3);
        // The evicted entry's circuit runs cold and returns the same text.
        let recomputed = ask(&session, &older_source);
        assert_eq!(recomputed.qasm, older_text);
        let cold = CacheStats {
            distance_hits: 1,
            prepared_misses: 1,
            layout_misses: 1,
            ..CacheStats::default()
        };
        assert_eq!(recomputed.cache, cold);
        assert!(session.cache_usage().bytes <= budget);
    }

    #[test]
    fn a_slot_and_its_options_take_at_most_232_bytes() {
        // A one-off request (a fresh seed, say) leaves one pair, until 16
        // newer options on its circuit push it out.
        let bytes = size_of::<(TranspileOptions, Slot)>();
        assert!(
            bytes <= 232,
            "a (TranspileOptions, Slot) pair takes {bytes} bytes"
        );
    }

    #[test]
    fn forty_seeds_keep_the_sixteen_most_recently_resolved_slots() {
        let session = session();
        let source = source_of(&ghz(4));
        let ask = |seed: u64| {
            let options = session.options().clone().seed(seed);
            let out = session.transpile_to_qasm(&source, &options, Limits::default());
            out.expect("seeded request")
        };
        let cold: Vec<Arc<str>> = (0..40).map(|seed| ask(seed).qasm).collect();
        assert_eq!(slot_states(&session), ["winner"; SLOTS_PER_ENTRY]);
        assert_eq!(session.cache_usage().evicted_slots, 24);
        // The 16 most recent seeds replay warm from their winners.
        for seed in 24..40 {
            let warm = ask(seed);
            assert_eq!(warm.cache.hits(), 3, "seed {seed}");
            assert_eq!(warm.qasm, cold[seed as usize], "seed {seed}");
        }
        assert_eq!(slot_states(&session), ["text"; SLOTS_PER_ENTRY]);
        // An older seed runs cold, a layout miss on a prepared hit, with the
        // same bytes, and pushes out the least recently resolved slot.
        let older = ask(3);
        assert_eq!(older.qasm, cold[3]);
        let layout_miss = CacheStats {
            distance_hits: 1,
            prepared_hits: 1,
            layout_misses: 1,
            ..CacheStats::default()
        };
        assert_eq!(older.cache, layout_miss);
        let mut states = vec!["text"; SLOTS_PER_ENTRY - 1];
        states.push("winner");
        assert_eq!(slot_states(&session), states);
        assert_eq!(ask(25).cache.hits(), 3, "seed 25 is still held");
        assert_eq!(ask(24).cache.layout_misses, 1, "seed 24 was pushed out");
    }

    #[test]
    fn a_thousand_fresh_seeds_leave_sixteen_slots_and_flat_bytes() {
        let session = session();
        let circuit = ghz(4);
        let mut after_sixteen = 0;
        for seed in 0..1000 {
            let options = session.options().clone().seed(1000 + seed);
            session
                .transpile_with(&circuit, &options)
                .expect("fresh seed");
            if seed == 15 {
                after_sixteen = session.cache_usage().bytes;
            }
            assert!(session.lock().entry(0).slots.len() <= SLOTS_PER_ENTRY);
        }
        let usage = session.cache_usage();
        assert_eq!(usage.bytes, after_sixteen, "{usage:?}");
        assert_eq!((usage.entries, usage.evicted_slots), (1, 984));
        assert_eq!(stored_total(&session), 0);
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
                assert_eq!(stored_total(&session), stored_bytes(&cold), "{context}");
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
        let (_, Slot::Winner(winner)) = &state.entry(0).slots[1] else {
            panic!("the fresh seed's slot holds a winner");
        };
        assert_eq!(winner.layout.len(), 4);
        assert!(winner.trial_costs.is_empty());
    }

    #[test]
    fn past_the_budget_the_least_recently_resolved_entry_goes() {
        let session = session();
        let small = ghz(3);
        let large = ghz(4);
        session.transpile(&small).expect("cold small");
        session.transpile(&small).expect("small replay");
        session.transpile(&large).expect("cold large");
        // The small entry with its stored result and the large one with its
        // winner fill the budget exactly.
        let budget = session.cache_usage().bytes;
        session.lock().budget = budget;
        session.transpile(&small).expect("small hit");
        // Storing the large result takes the total past the budget, so the
        // small entry, resolved less recently, goes with its slot.
        session.transpile(&large).expect("large replay");
        assert_eq!(slot_states(&session), ["stored"]);
        let usage = session.cache_usage();
        assert_eq!((usage.entries, usage.evicted_entries), (1, 1));
        assert!(usage.bytes <= budget, "{usage:?}");
        // Past the budget every request still returns the cold result, and
        // the total stays within it after every commit.
        let fresh = Transpiler::new(CouplingMap::linear(4), session.options().clone());
        let cold = [&small, &large].map(|circuit| fresh.transpile(circuit).expect("fresh cold"));
        for (request, index) in [0, 0, 1, 0, 1, 1, 0].into_iter().enumerate() {
            let circuit = [&small, &large][index];
            let result = session.transpile(circuit).expect("request");
            assert_same_result(&result, &cold[index], &format!("request {request}"));
            let usage = session.cache_usage();
            assert!(usage.bytes <= budget, "request {request}: {usage:?}");
            stored_total(&session);
        }
        assert!(session.cache_usage().evicted_entries > 1);
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
        assert_eq!(stored_total(&session), stored_bytes(&cold));
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
        let source = source_of(&ghz(4));
        let replay = session.transpile_to_qasm(&source, &options, Limits::default());
        let text = replay.expect("replay").qasm;
        assert_eq!(slot_states(&session), ["text"]);
        assert_eq!(stored_total(&session), text.len() + source.len());
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
        assert!(session.lock().texts.is_empty());
        assert_eq!(stored_total(&session), 0);

        // And the one after that replays and stores, as if nothing happened.
        let warm = session.transpile(&ghz(4)).expect("warm transpile");
        assert_eq!(warm.cache.hits(), 3);
        assert_eq!(session.cache_resets(), 1);
        assert_eq!(slot_states(&session), ["stored"]);
        assert_eq!(stored_total(&session), stored_bytes(&cold));
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

    #[test]
    fn a_texts_second_arrival_indexes_it_and_its_third_is_not_parsed() {
        let session = session();
        let options = session.options().clone();
        let source = source_of(&ghz(4));
        let ask = || session.transpile_to_qasm(&source, &options, Limits::default());
        let (cold, cold_spans) = spans_of(ask);
        assert!(
            session.lock().texts.is_empty(),
            "a first arrival is not indexed"
        );
        let (second, second_spans) = spans_of(ask);
        assert_eq!(
            session.lock().texts.get(source.as_str()),
            Some(&0),
            "the second arrival indexes its source to its entry"
        );
        let (third, third_spans) = spans_of(ask);
        assert_eq!(count(&cold_spans, "qasm_parse"), 1);
        assert_eq!(count(&second_spans, "qasm_parse"), 1);
        assert_eq!(count(&third_spans, "qasm_parse"), 0, "{third_spans:?}");
        assert_eq!(count(&third_spans, "resolve"), 1, "{third_spans:?}");
        let (cold, second, third) = (cold.unwrap(), second.unwrap(), third.unwrap());
        assert_eq!(cold.qasm, second.qasm);
        assert!(Arc::ptr_eq(&second.qasm, &third.qasm));
        // A text hit is the prepared hit it stands for.
        assert_eq!(third.cache, second.cache);
        assert_eq!(third.cache.hits(), 3);
        let total = source.len() + second.qasm.len();
        assert_eq!(stored_total(&session), total);
    }

    #[test]
    fn a_comment_or_whitespace_variant_resolves_to_the_same_entry() {
        let session = session();
        let options = session.options().clone();
        let source = source_of(&ghz(4));
        let ask = |text: &str| session.transpile_to_qasm(text, &options, Limits::default());
        ask(&source).expect("cold");
        let stored = ask(&source).expect("replay").qasm;
        let variants = [
            format!("// the same circuit\n{source}"),
            source.replace('\n', " \n\n"),
        ];
        for variant in &variants {
            let hit = ask(variant).expect("variant");
            assert!(Arc::ptr_eq(&hit.qasm, &stored), "{variant:?}");
            assert_eq!(hit.cache.hits(), 3, "{variant:?}");
        }
        let state = session.lock();
        assert_eq!(state.prepared.len(), 1);
        assert_eq!(state.texts.len(), 3);
        assert!(state.texts.values().all(|&entry| entry == 0));
    }

    #[test]
    fn an_evicted_entry_takes_its_text_keys_with_it() {
        let circuit = ghz(4);
        let reference = session();
        let options = reference.options().clone();
        let source = source_of(&circuit);
        let text = reference
            .transpile_to_qasm(&source, &options, Limits::default())
            .expect("reference")
            .qasm;
        let session = session();
        let ask = || session.transpile_to_qasm(&source, &options, Limits::default());
        for _ in 0..3 {
            ask().expect("QASM-out request");
        }
        assert_eq!(session.lock().texts.len(), 1);
        // A new entry past the budget evicts the indexed one, and its text
        // key with it.
        let budget = session.cache_usage().bytes;
        session.lock().budget = budget;
        session.transpile(&ghz(3)).expect("another circuit");
        assert_eq!(session.cache_usage().evicted_entries, 1);
        {
            let state = session.lock();
            assert!(state.texts.is_empty());
            assert!(state
                .by_hash
                .values()
                .flatten()
                .all(|&e| state.prepared[e].is_some()));
        }
        // So the next arrival parses, runs cold, and returns the same text.
        let (out, spans) = spans_of(ask);
        let out = out.expect("after the eviction");
        assert_eq!(count(&spans, "qasm_parse"), 1, "{spans:?}");
        assert_eq!(out.qasm, text);
        assert_eq!(out.cache.prepared_misses, 1);
        assert_eq!(out.cache.layout_misses, 1);
    }

    #[test]
    fn after_poison_recovery_the_next_arrival_parses_and_returns_the_same_bytes() {
        let session = Arc::new(session());
        let options = session.options().clone();
        let source = source_of(&ghz(4));
        let ask = || session.transpile_to_qasm(&source, &options, Limits::default());
        let reference = ask().expect("cold").qasm;
        for _ in 0..2 {
            ask().expect("repeat");
        }
        assert_eq!(session.lock().texts.len(), 1);

        let poisoner = Arc::clone(&session);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.state.lock().unwrap();
            panic!("poison the session lock");
        })
        .join();

        let (recovered, spans) = spans_of(ask);
        let recovered = recovered.expect("post-poison request");
        assert_eq!(session.cache_resets(), 1);
        assert_eq!(count(&spans, "qasm_parse"), 1, "{spans:?}");
        assert_eq!(recovered.qasm, reference);
        assert_eq!(recovered.cache.misses(), 3);
        // It ran cold, so it is not indexed; the next arrival indexes it.
        assert!(session.lock().texts.is_empty());
        let (again, spans) = spans_of(ask);
        assert_eq!(again.expect("second post-poison request").qasm, reference);
        assert_eq!(count(&spans, "qasm_parse"), 1, "{spans:?}");
        assert_eq!(session.lock().texts.len(), 1);
    }

    #[test]
    fn concurrent_duplicate_arrivals_index_a_text_once() {
        let session = session();
        let options = session.options().clone();
        let source = source_of(&ghz(4));
        let ask = || session.transpile_to_qasm(&source, &options, Limits::default());
        let reference = ask().expect("cold").qasm;
        let start = std::sync::Barrier::new(4);
        let outputs: Vec<QasmResult> = std::thread::scope(|scope| {
            let arrivals: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        ask()
                    })
                })
                .collect();
            let outputs = arrivals.into_iter().map(|arrival| arrival.join().unwrap());
            outputs
                .collect::<Result<_, _>>()
                .expect("duplicate arrivals")
        });
        for out in &outputs {
            assert_eq!(out.qasm, reference);
        }
        assert_eq!(slot_states(&session), ["text"]);
        let state = session.lock();
        assert_eq!(state.texts.len(), 1);
        let stored = stored_texts_locked(&state);
        assert_eq!(stored_total_locked(&state), source.len() + stored[0].len());
    }

    #[test]
    fn limits_and_deadlines_apply_to_every_arrival() {
        let session = session();
        let options = session.options().clone();
        // 4 qubits, 4 gates.
        let source = source_of(&ghz(4));
        for _ in 0..3 {
            let out = session.transpile_to_qasm(&source, &options, Limits::default());
            out.expect("admitted");
        }
        assert_eq!(session.lock().texts.len(), 1);
        let before = session.cache_stats();
        let refused = |limits: Limits| {
            let err = session.transpile_to_qasm(&source, &options, limits);
            err.expect_err("over a limit")
        };
        let both = refused(Limits {
            max_qubits: Some(3),
            max_gates: Some(3),
        });
        assert_eq!(both.kind(), crate::ErrorKind::Limits);
        assert_eq!(
            both.to_string(),
            "circuit declares 4 qubits; at most 3 are admitted"
        );
        let gates = refused(Limits {
            max_gates: Some(3),
            ..Limits::default()
        });
        assert_eq!(
            gates.to_string(),
            "circuit has 4 gates; at most 3 are admitted"
        );
        // A refused request consults no cache.
        assert_eq!(session.cache_stats(), before);
        let expired = options.clone().deadline(Duration::ZERO);
        let err = session.transpile_to_qasm(&source, &expired, Limits::default());
        assert_eq!(err.unwrap_err().kind(), crate::ErrorKind::Deadline);
        // A new text over the limits is refused after its parse, and not
        // indexed.
        let variant = format!("// over the limits\n{source}");
        let limits = Limits {
            max_gates: Some(3),
            ..Limits::default()
        };
        for _ in 0..2 {
            let err = session.transpile_to_qasm(&variant, &options, limits);
            assert_eq!(err.unwrap_err().kind(), crate::ErrorKind::Limits);
        }
        assert_eq!(session.lock().texts.len(), 1);
    }
}

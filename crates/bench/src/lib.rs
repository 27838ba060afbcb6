//! Benchmark harness regenerating the paper's tables and figures.
//!
//! Each binary in `src/bin/` reproduces one table or figure:
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `table1_cnot_montreal` | Table I — additional CNOTs on `ibmq_montreal` |
//! | `table2_depth_montreal` | Table II — circuit depth on `ibmq_montreal` |
//! | `table3_cnot_linear` | Table III — additional CNOTs on the 25-qubit line |
//! | `table4_cnot_grid` | Table IV — additional CNOTs on the 5×5 grid |
//! | `fig9_opt_combinations` | Figure 9 — best-of-8 flag combinations vs all-enabled |
//! | `fig11_noise_aware` | Figure 11 — noise-aware routing and success rates |
//!
//! Binaries run the reduced `quick` suite by default; pass `--full` for the
//! complete 15-benchmark suite of the paper, `--runs N` to average over `N`
//! seeds (the paper uses 10), `--layout-trials N` to run `N` independent
//! layout trials per transpile (keeping the cheapest-to-route layout, as the
//! Qiskit+SABRE baseline stack does), and `--json <path>` to additionally
//! write a machine-readable [`BenchReport`] (see [`report`]).
//!
//! The whole (benchmark × seed × router) grid of each binary runs through
//! one [`nassc::Transpiler`] session per device
//! ([`Transpiler::transpile_jobs`]), fanning jobs across the session's
//! worker budget while staying bit-identical to serial execution; set
//! `NASSC_THREADS=1` to force the serial baseline.

use std::path::PathBuf;

use nassc::{SessionJob, TranspileOptions, Transpiler};
use nassc_benchmarks::Benchmark;
use nassc_parallel::default_parallelism;
use nassc_topology::CouplingMap;

pub mod alloc;
pub mod report;
pub mod scale;

pub use report::{BenchReport, Metrics, ReportError, ReportRow};

/// Averaged metrics for one benchmark under one router.
#[derive(Debug, Clone, Default)]
pub struct RouterMetrics {
    /// Mean CNOT count of the final circuit.
    pub cx_total: f64,
    /// Mean circuit depth of the final circuit.
    pub depth_total: f64,
    /// Mean transpile wall-clock time in seconds.
    pub time_s: f64,
    /// Mean index of the winning layout trial (0.0 in single-trial mode).
    pub chosen_trial: f64,
    /// Mean scoring cost of each layout trial, in trial order (empty in
    /// single-trial mode, where no scoring pass runs): the SWAPs the
    /// trial's scoring pass inserts, under either router.
    pub trial_costs: Vec<f64>,
}

impl RouterMetrics {
    /// Accumulates one transpile result (divide by the run count afterwards).
    fn accumulate(&mut self, result: &nassc::TranspileResult) {
        self.cx_total += result.cx_count() as f64;
        self.depth_total += result.depth() as f64;
        self.time_s += result.elapsed.as_secs_f64();
        self.chosen_trial += result.chosen_layout_trial as f64;
        if self.trial_costs.len() < result.layout_trial_costs.len() {
            self.trial_costs
                .resize(result.layout_trial_costs.len(), 0.0);
        }
        for (slot, cost) in self.trial_costs.iter_mut().zip(&result.layout_trial_costs) {
            *slot += cost;
        }
    }

    /// Divides every accumulated sum by `scale`.
    fn finish(&mut self, scale: f64) {
        self.cx_total /= scale;
        self.depth_total /= scale;
        self.time_s /= scale;
        self.chosen_trial /= scale;
        for cost in &mut self.trial_costs {
            *cost /= scale;
        }
    }

    /// The layout-trial metrics this router contributes to a report row:
    /// the mean winning-trial index plus one mean cost per trial. Empty in
    /// single-trial mode.
    fn trial_metrics(&self, prefix: &str) -> Metrics {
        if self.trial_costs.is_empty() {
            return Vec::new();
        }
        let mut metrics = vec![(format!("{prefix}_chosen_trial"), self.chosen_trial)];
        for (trial, cost) in self.trial_costs.iter().enumerate() {
            metrics.push((format!("{prefix}_layout_cost_t{trial}"), *cost));
        }
        metrics
    }
}

/// One row of a comparison table.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Benchmark name.
    pub name: String,
    /// Qubit count of the benchmark.
    pub qubits: usize,
    /// CNOTs of the original circuit after optimization only.
    pub original_cx: usize,
    /// Depth of the original circuit after optimization only.
    pub original_depth: usize,
    /// Metrics for Qiskit+SABRE.
    pub sabre: RouterMetrics,
    /// Metrics for Qiskit+NASSC.
    pub nassc: RouterMetrics,
}

impl ComparisonRow {
    /// Additional CNOTs over the unrouted baseline, per router.
    pub fn additional_cx(&self) -> (f64, f64) {
        (
            (self.sabre.cx_total - self.original_cx as f64).max(0.0),
            (self.nassc.cx_total - self.original_cx as f64).max(0.0),
        )
    }

    /// Additional depth over the unrouted baseline, per router.
    pub fn additional_depth(&self) -> (f64, f64) {
        (
            (self.sabre.depth_total - self.original_depth as f64).max(0.0),
            (self.nassc.depth_total - self.original_depth as f64).max(0.0),
        )
    }

    /// `ΔCNOT_total`: relative reduction of total CNOTs (NASSC vs SABRE).
    pub fn delta_cx_total(&self) -> f64 {
        relative_reduction(self.nassc.cx_total, self.sabre.cx_total)
    }

    /// `ΔCNOT_add`: relative reduction of additional CNOTs.
    pub fn delta_cx_add(&self) -> f64 {
        let (sabre_add, nassc_add) = self.additional_cx();
        relative_reduction(nassc_add, sabre_add)
    }

    /// `Δdepth_total`: relative reduction of total depth.
    pub fn delta_depth_total(&self) -> f64 {
        relative_reduction(self.nassc.depth_total, self.sabre.depth_total)
    }

    /// `Δdepth_add`: relative reduction of additional depth.
    pub fn delta_depth_add(&self) -> f64 {
        let (sabre_add, nassc_add) = self.additional_depth();
        relative_reduction(nassc_add, sabre_add)
    }

    /// Transpile-time ratio `t_NASSC / t_SABRE`.
    pub fn time_ratio(&self) -> f64 {
        if self.sabre.time_s <= 0.0 {
            1.0
        } else {
            self.nassc.time_s / self.sabre.time_s
        }
    }
}

/// Total wall-clock seconds spent in transpiles across a table run: the
/// per-row mean times scaled back up by the seed count. This is the
/// `total_transpile_seconds` summary metric every report carries, so
/// `BENCH_*.json` tracks the speed trajectory alongside quality (and
/// `bench_gate --max total_transpile_seconds <bound>` can sanity-gate it).
pub fn total_transpile_seconds(rows: &[ComparisonRow], runs: usize) -> f64 {
    rows.iter()
        .map(|row| (row.sabre.time_s + row.nassc.time_s) * runs as f64)
        .sum()
}

/// `1 - new/old`, guarded against division by zero.
pub fn relative_reduction(new: f64, old: f64) -> f64 {
    if old <= 0.0 {
        0.0
    } else {
        1.0 - new / old
    }
}

/// Geometric mean of reductions, matching the paper's averaging of Δ columns.
pub fn geometric_mean_reduction(reductions: &[f64]) -> f64 {
    if reductions.is_empty() {
        return 0.0;
    }
    let product: f64 = reductions.iter().map(|r| (1.0 - r).max(1e-9)).product();
    1.0 - product.powf(1.0 / reductions.len() as f64)
}

/// The base seed of every seed sweep (run `r` uses seed `BASE_SEED + r`),
/// matching the serial harness of earlier revisions.
pub const BASE_SEED: u64 = 1000;

/// Runs SABRE and NASSC over a whole suite through a caller-owned
/// [`Transpiler`] session, averaging over `runs` seeds per benchmark, with
/// `layout_trials` independent layout trials per transpile (`1` = the
/// single-trial path).
///
/// The full (benchmark × seed × router) grid goes through the session as a
/// single [`Transpiler::transpile_jobs`] batch, so parallelism spans
/// benchmarks, seeds and routers at once; each job's layout trials run on
/// its own thread while the jobs use the whole budget, so the grid never
/// oversubscribes the cores. The seed-independent work is done exactly once
/// per benchmark — pre-routing optimization (whose output is also the
/// unrouted baseline of each row, served from the session's prepared cache)
/// and the per-device distance matrix — instead of once per job. CNOT and
/// depth aggregates are bit-identical to a serial per-benchmark loop;
/// `time_s` covers the seed-dependent pipeline tail only (layout, routing,
/// decomposition, post-optimization), so the shared preparation does not
/// dilute the `t_NASSC / t_SABRE` ratio. The session-reuse benchmark drives
/// a cold and a warm corpus pass through one session to measure what the
/// caches buy.
pub fn compare_suite_on(
    session: &Transpiler,
    suite: &[Benchmark],
    runs: usize,
    layout_trials: usize,
) -> Vec<ComparisonRow> {
    // One flat job grid: for each benchmark, `runs` seeds × {SABRE, NASSC}.
    // Jobs carry the raw circuits; the session's prepared cache makes the
    // per-benchmark preparation happen exactly once.
    let mut jobs = Vec::with_capacity(suite.len() * runs * 2);
    for benchmark in suite {
        for run in 0..runs {
            let seed = BASE_SEED + run as u64;
            jobs.push(SessionJob::with_options(
                &benchmark.circuit,
                TranspileOptions::sabre(seed).layout_trials(layout_trials),
            ));
            jobs.push(SessionJob::with_options(
                &benchmark.circuit,
                TranspileOptions::nassc(seed).layout_trials(layout_trials),
            ));
        }
    }
    let results = session.transpile_jobs(&jobs);

    suite
        .iter()
        .enumerate()
        .map(|(index, benchmark)| {
            // The row's unrouted baseline is the prepared circuit the batch
            // just cached — a guaranteed cache hit, never a second run.
            let original = session
                .prepared(&benchmark.circuit)
                .expect("baseline optimization");
            let mut sabre = RouterMetrics::default();
            let mut nassc = RouterMetrics::default();
            let per_benchmark = &results[index * runs * 2..(index + 1) * runs * 2];
            for pair in per_benchmark.chunks_exact(2) {
                sabre.accumulate(pair[0].as_ref().expect("sabre transpile"));
                nassc.accumulate(pair[1].as_ref().expect("nassc transpile"));
            }
            let scale = runs.max(1) as f64;
            for m in [&mut sabre, &mut nassc] {
                m.finish(scale);
            }
            ComparisonRow {
                name: benchmark.name.to_string(),
                qubits: benchmark.qubits,
                original_cx: original.cx_count(),
                original_depth: original.depth(),
                sabre,
                nassc,
            }
        })
        .collect()
}

/// Returns the value following `name` in the process arguments
/// (e.g. `cli_value("--shots")` for `--shots 4096`), or `None` when the flag
/// is absent.
///
/// A flag that is present but missing its operand (nothing follows, or the
/// next argument is itself a `--flag`) aborts the process: silently eating
/// the next flag — `--json --full` writing a file named `--full` — would let
/// CI runs pass while producing no artifact.
pub fn cli_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let index = args.iter().position(|a| a == name)?;
    match args.get(index + 1) {
        Some(value) if !value.starts_with("--") => Some(value.clone()),
        _ => {
            eprintln!("error: {name} requires a value");
            std::process::exit(1);
        }
    }
}

/// [`cli_value`] parsed as an integer; an unparsable value aborts instead of
/// silently falling back to a default.
pub fn cli_usize(name: &str) -> Option<usize> {
    cli_value(name).map(|value| {
        value.parse().unwrap_or_else(|_| {
            eprintln!("error: {name} expects a non-negative integer, got {value:?}");
            std::process::exit(1);
        })
    })
}

/// Command-line options shared by the table/figure binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Run the complete 15-benchmark suite instead of the quick subset.
    pub full: bool,
    /// Number of seeds to average over.
    pub runs: usize,
    /// Independent layout trials per transpile (1 = single-trial mode).
    pub layout_trials: usize,
    /// When set, also write the run's [`BenchReport`] to this path.
    pub json: Option<PathBuf>,
    /// When set, replace the built-in suite with every `.qasm` file of this
    /// directory (external-workload corpus mode).
    pub qasm_dir: Option<PathBuf>,
}

impl HarnessArgs {
    /// Parses `--full`, `--runs N`, `--layout-trials N`, `--json <path>` and
    /// `--qasm-dir <dir>` from the process arguments.
    pub fn from_env() -> Self {
        let full = std::env::args().any(|a| a == "--full");
        let runs = cli_usize("--runs").unwrap_or(2);
        if runs == 0 {
            // NaN tables and all-null reports that still exit 0 would defeat
            // the CI gate; reject up front like every other bad flag value.
            eprintln!("error: --runs must be at least 1");
            std::process::exit(1);
        }
        let layout_trials = cli_usize("--layout-trials").unwrap_or(1);
        if layout_trials == 0 {
            eprintln!("error: --layout-trials must be at least 1");
            std::process::exit(1);
        }
        let json = cli_value("--json").map(PathBuf::from);
        let qasm_dir = cli_value("--qasm-dir").map(PathBuf::from);
        Self {
            full,
            runs,
            layout_trials,
            json,
            qasm_dir,
        }
    }

    /// The benchmark suite selected by the arguments: a `--qasm-dir` corpus
    /// when given (any unreadable or unparsable file aborts — a table run
    /// must cover the whole corpus), else the built-in quick/full suite.
    pub fn suite(&self) -> Vec<Benchmark> {
        if let Some(dir) = &self.qasm_dir {
            return qasm_corpus_suite(dir).unwrap_or_else(|message| {
                eprintln!("error: {message}");
                std::process::exit(1);
            });
        }
        if self.full {
            nassc_benchmarks::table_benchmarks()
        } else {
            nassc_benchmarks::quick_benchmarks()
        }
    }

    /// The suite name recorded in reports.
    pub fn suite_label(&self) -> String {
        if let Some(dir) = &self.qasm_dir {
            format!("qasm:{}", dir.display())
        } else if self.full {
            "full".to_string()
        } else {
            "quick".to_string()
        }
    }

    /// Writes `report` to the `--json` path, if one was given.
    ///
    /// Exits the process with an error message when the file cannot be
    /// written — a silently missing artifact must fail the CI job.
    pub fn emit_report(&self, report: &BenchReport) {
        let Some(path) = &self.json else { return };
        if let Err(e) = report.write_to_file(path) {
            eprintln!("error: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote {}", path.display());
    }
}

/// Loads every `.qasm` file of `dir` as a [`Benchmark`] suite (sorted by
/// filename, so job order — and therefore batch output order — is
/// deterministic).
///
/// # Errors
///
/// Returns a message naming the first unreadable or unparsable file; callers
/// that tolerate partial corpora (the `transpile_qasm` corpus mode) use
/// [`nassc_qasm::load_corpus`] directly instead.
pub fn qasm_corpus_suite(dir: &std::path::Path) -> Result<Vec<Benchmark>, String> {
    let corpus =
        nassc_qasm::load_corpus(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    if corpus.is_empty() {
        return Err(format!("no .qasm files in {}", dir.display()));
    }
    corpus
        .into_iter()
        .map(|file| match file.circuit {
            Ok(circuit) => Ok(Benchmark::new(file.name, circuit)),
            Err(e) => Err(format!("{}: {e}", file.path.display())),
        })
        .collect()
}

/// Exits with a clean error when any benchmark is wider than the device —
/// otherwise the session answers its jobs with `nassc::Error::TooWide`, and
/// the harness's `expect` on each result panics mid-run. Relevant for
/// `--qasm-dir` corpora, whose widths are user-controlled.
pub fn ensure_suite_fits(suite: &[Benchmark], device: &CouplingMap) {
    for bench in suite {
        if bench.qubits > device.num_qubits() {
            eprintln!(
                "error: benchmark {} needs {} qubits but the target device has {}",
                bench.name,
                bench.qubits,
                device.num_qubits()
            );
            std::process::exit(1);
        }
    }
}

/// Prints a CNOT-comparison table (Tables I / III / IV).
pub fn print_cnot_table(title: &str, rows: &[ComparisonRow]) {
    println!("\n== {title} ==");
    println!(
        "{:<22} {:>3}  {:>9} | {:>10} {:>10} {:>8} | {:>10} {:>10} {:>8} | {:>8} {:>8} {:>6}",
        "benchmark",
        "n",
        "CX_orig",
        "SABRE_tot",
        "SABRE_add",
        "t_S(s)",
        "NASSC_tot",
        "NASSC_add",
        "t_N(s)",
        "dCX_tot",
        "dCX_add",
        "t_N/t_S"
    );
    for row in rows {
        let (sabre_add, nassc_add) = row.additional_cx();
        println!(
            "{:<22} {:>3}  {:>9} | {:>10.1} {:>10.1} {:>8.2} | {:>10.1} {:>10.1} {:>8.2} | {:>7.2}% {:>7.2}% {:>6.2}",
            row.name,
            row.qubits,
            row.original_cx,
            row.sabre.cx_total,
            sabre_add,
            row.sabre.time_s,
            row.nassc.cx_total,
            nassc_add,
            row.nassc.time_s,
            100.0 * row.delta_cx_total(),
            100.0 * row.delta_cx_add(),
            row.time_ratio(),
        );
    }
    let d_tot: Vec<f64> = rows.iter().map(|r| r.delta_cx_total()).collect();
    let d_add: Vec<f64> = rows.iter().map(|r| r.delta_cx_add()).collect();
    println!(
        "geometric mean: dCX_total {:.2}%  dCX_add {:.2}%",
        100.0 * geometric_mean_reduction(&d_tot),
        100.0 * geometric_mean_reduction(&d_add)
    );
}

/// Prints a depth-comparison table (Table II).
pub fn print_depth_table(title: &str, rows: &[ComparisonRow]) {
    println!("\n== {title} ==");
    println!(
        "{:<22} {:>3}  {:>10} | {:>11} {:>11} | {:>11} {:>11} | {:>9} {:>9}",
        "benchmark",
        "n",
        "depth_orig",
        "SABRE_tot",
        "SABRE_add",
        "NASSC_tot",
        "NASSC_add",
        "dD_tot",
        "dD_add"
    );
    for row in rows {
        let (sabre_add, nassc_add) = row.additional_depth();
        println!(
            "{:<22} {:>3}  {:>10} | {:>11.1} {:>11.1} | {:>11.1} {:>11.1} | {:>8.2}% {:>8.2}%",
            row.name,
            row.qubits,
            row.original_depth,
            row.sabre.depth_total,
            sabre_add,
            row.nassc.depth_total,
            nassc_add,
            100.0 * row.delta_depth_total(),
            100.0 * row.delta_depth_add(),
        );
    }
    let d_tot: Vec<f64> = rows.iter().map(|r| r.delta_depth_total()).collect();
    let d_add: Vec<f64> = rows.iter().map(|r| r.delta_depth_add()).collect();
    println!(
        "geometric mean: ddepth_total {:.2}%  ddepth_add {:.2}%",
        100.0 * geometric_mean_reduction(&d_tot),
        100.0 * geometric_mean_reduction(&d_add)
    );
}

/// Which metric family a table binary reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableKind {
    /// CNOT counts (Tables I / III / IV).
    Cnot,
    /// Circuit depth (Table II).
    Depth,
}

/// Builds the [`BenchReport`] for a CNOT table run.
pub fn cnot_report(
    artefact: &str,
    title: &str,
    suite: &str,
    runs: usize,
    rows: &[ComparisonRow],
) -> BenchReport {
    let mut report = BenchReport::new(artefact, title, suite, runs);
    for row in rows {
        let (sabre_add, nassc_add) = row.additional_cx();
        let mut metrics = vec![
            ("original_cx".to_string(), row.original_cx as f64),
            ("sabre_cx_total".to_string(), row.sabre.cx_total),
            ("sabre_cx_add".to_string(), sabre_add),
            ("sabre_time_s".to_string(), row.sabre.time_s),
            ("nassc_cx_total".to_string(), row.nassc.cx_total),
            ("nassc_cx_add".to_string(), nassc_add),
            ("nassc_time_s".to_string(), row.nassc.time_s),
            ("delta_cx_total".to_string(), row.delta_cx_total()),
            ("delta_cx_add".to_string(), row.delta_cx_add()),
            ("time_ratio".to_string(), row.time_ratio()),
            ("sabre_transpile_ms".to_string(), 1000.0 * row.sabre.time_s),
            ("nassc_transpile_ms".to_string(), 1000.0 * row.nassc.time_s),
        ];
        metrics.extend(row.sabre.trial_metrics("sabre"));
        metrics.extend(row.nassc.trial_metrics("nassc"));
        report.rows.push(ReportRow {
            name: row.name.clone(),
            qubits: row.qubits,
            metrics,
        });
    }
    let d_tot: Vec<f64> = rows.iter().map(|r| r.delta_cx_total()).collect();
    let d_add: Vec<f64> = rows.iter().map(|r| r.delta_cx_add()).collect();
    report.summary = vec![
        (
            "geomean_delta_cx_total".to_string(),
            geometric_mean_reduction(&d_tot),
        ),
        (
            "geomean_delta_cx_add".to_string(),
            geometric_mean_reduction(&d_add),
        ),
        (
            "total_transpile_seconds".to_string(),
            total_transpile_seconds(rows, runs),
        ),
    ];
    report
}

/// Builds the [`BenchReport`] for a depth table run.
pub fn depth_report(
    artefact: &str,
    title: &str,
    suite: &str,
    runs: usize,
    rows: &[ComparisonRow],
) -> BenchReport {
    let mut report = BenchReport::new(artefact, title, suite, runs);
    for row in rows {
        let (sabre_add, nassc_add) = row.additional_depth();
        let mut metrics = vec![
            ("original_depth".to_string(), row.original_depth as f64),
            ("sabre_depth_total".to_string(), row.sabre.depth_total),
            ("sabre_depth_add".to_string(), sabre_add),
            ("nassc_depth_total".to_string(), row.nassc.depth_total),
            ("nassc_depth_add".to_string(), nassc_add),
            ("delta_depth_total".to_string(), row.delta_depth_total()),
            ("delta_depth_add".to_string(), row.delta_depth_add()),
            ("sabre_transpile_ms".to_string(), 1000.0 * row.sabre.time_s),
            ("nassc_transpile_ms".to_string(), 1000.0 * row.nassc.time_s),
        ];
        metrics.extend(row.sabre.trial_metrics("sabre"));
        metrics.extend(row.nassc.trial_metrics("nassc"));
        report.rows.push(ReportRow {
            name: row.name.clone(),
            qubits: row.qubits,
            metrics,
        });
    }
    let d_tot: Vec<f64> = rows.iter().map(|r| r.delta_depth_total()).collect();
    let d_add: Vec<f64> = rows.iter().map(|r| r.delta_depth_add()).collect();
    report.summary = vec![
        (
            "geomean_delta_depth_total".to_string(),
            geometric_mean_reduction(&d_tot),
        ),
        (
            "geomean_delta_depth_add".to_string(),
            geometric_mean_reduction(&d_add),
        ),
        (
            "total_transpile_seconds".to_string(),
            total_transpile_seconds(rows, runs),
        ),
    ];
    report
}

/// The whole body of a table binary: parse args, run the grid through one
/// [`Transpiler`] session, print the table, emit the optional JSON report
/// (with the session's cache counters in the summary).
pub fn run_table_binary(artefact: &str, title: &str, device: &CouplingMap, kind: TableKind) {
    let args = HarnessArgs::from_env();
    let suite = args.suite();
    ensure_suite_fits(&suite, device);
    eprintln!(
        "transpiling {} benchmarks × {} seeds × 2 routers = {} jobs \
         ({} layout trials each) on {} threads...",
        suite.len(),
        args.runs,
        suite.len() * args.runs * 2,
        args.layout_trials,
        default_parallelism()
    );
    let session = Transpiler::new(device.clone(), TranspileOptions::new());
    let rows = compare_suite_on(&session, &suite, args.runs, args.layout_trials);
    let suite_label = args.suite_label();
    let mut report = match kind {
        TableKind::Cnot => {
            print_cnot_table(title, &rows);
            cnot_report(artefact, title, &suite_label, args.runs, &rows)
        }
        TableKind::Depth => {
            print_depth_table(title, &rows);
            depth_report(artefact, title, &suite_label, args.runs, &rows)
        }
    };
    report.layout_trials = args.layout_trials;
    let stats = session.cache_stats();
    report
        .summary
        .push(("session_cache_hits".to_string(), stats.hits() as f64));
    report
        .summary
        .push(("session_cache_misses".to_string(), stats.misses() as f64));
    println!(
        "total transpile time: {:.3}s across {} transpiles \
         (session caches: {} hits / {} misses)",
        total_transpile_seconds(&rows, args.runs),
        suite.len() * args.runs * 2,
        stats.hits(),
        stats.misses(),
    );
    args.emit_report(&report);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassc_benchmarks::quick_benchmarks;

    /// [`compare_suite_on`] through a fresh single-trial session.
    fn compare_suite(
        suite: &[Benchmark],
        coupling: &CouplingMap,
        runs: usize,
    ) -> Vec<ComparisonRow> {
        let session = Transpiler::new(coupling.clone(), TranspileOptions::new());
        compare_suite_on(&session, suite, runs, 1)
    }

    #[test]
    fn relative_reduction_basic_cases() {
        assert!((relative_reduction(80.0, 100.0) - 0.2).abs() < 1e-12);
        assert_eq!(relative_reduction(5.0, 0.0), 0.0);
    }

    #[test]
    fn geometric_mean_of_equal_reductions_is_that_reduction() {
        let g = geometric_mean_reduction(&[0.25, 0.25, 0.25]);
        assert!((g - 0.25).abs() < 1e-9);
        assert_eq!(geometric_mean_reduction(&[]), 0.0);
    }

    #[test]
    fn comparison_row_on_small_benchmark() {
        let device = CouplingMap::linear(25);
        let suite = &quick_benchmarks()[..1]; // Grover_4-qubits
        let row = &compare_suite(suite, &device, 1)[0];
        assert!(row.original_cx > 0);
        assert!(row.sabre.cx_total >= row.original_cx as f64);
    }

    #[test]
    fn compare_suite_matches_the_serial_transpile_loop() {
        // The suite runs as one batch; the reference is one request at a
        // time through a one-worker session.
        let device = CouplingMap::linear(25);
        let suite = &quick_benchmarks()[..2];
        let runs = 2;
        let rows = compare_suite(suite, &device, runs);
        assert_eq!(rows.len(), suite.len());
        let serial = Transpiler::new(device.clone(), TranspileOptions::new())
            .with_pool(nassc::ThreadPool::new(1));
        let cx = |circuit, options| serial.transpile_with(circuit, &options).unwrap().cx_count();
        for (bench, row) in suite.iter().zip(&rows) {
            let mut sabre_cx = 0.0;
            let mut nassc_cx = 0.0;
            for run in 0..runs {
                let seed = BASE_SEED + run as u64;
                sabre_cx += cx(&bench.circuit, TranspileOptions::sabre(seed)) as f64;
                nassc_cx += cx(&bench.circuit, TranspileOptions::nassc(seed)) as f64;
            }
            assert_eq!(row.sabre.cx_total, sabre_cx / runs as f64, "{}", bench.name);
            assert_eq!(row.nassc.cx_total, nassc_cx / runs as f64, "{}", bench.name);
        }
    }

    #[test]
    fn report_builders_record_rows_and_geomeans() {
        let device = CouplingMap::linear(25);
        let rows = compare_suite(&quick_benchmarks()[..1], &device, 1);
        let cnot = cnot_report("table1_cnot_montreal", "Table I", "quick", 1, &rows);
        assert_eq!(cnot.rows.len(), 1);
        assert_eq!(
            cnot.rows[0].metric("original_cx"),
            Some(rows[0].original_cx as f64)
        );
        assert_eq!(
            cnot.summary_value("geomean_delta_cx_add"),
            Some(geometric_mean_reduction(&[rows[0].delta_cx_add()]))
        );
        let depth = depth_report("table2_depth_montreal", "Table II", "quick", 1, &rows);
        assert_eq!(
            depth.rows[0].metric("sabre_depth_total"),
            Some(rows[0].sabre.depth_total)
        );
        assert!(depth.summary_value("geomean_delta_depth_total").is_some());
        // Reports must survive the JSON round trip.
        assert_eq!(BenchReport::from_json(&cnot.to_json()).unwrap(), cnot);
    }
}

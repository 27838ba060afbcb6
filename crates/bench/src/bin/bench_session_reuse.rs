//! What the [`Transpiler`] session's caches buy: drive the same comparison
//! grid through one session three times — a cold pass that fills the
//! caches, a warm pass that replays from the layout winners and stores its
//! results, and a stored pass that copies them — and report each pass's
//! transpile time, at a 1-worker and an 8-worker budget.
//!
//! The warm and stored passes must be **bit-identical** to the cold one
//! (the session's determinism contract); any divergence is counted in the
//! `warm_mismatches` and `stored_mismatches` summary metrics so CI can gate
//! them to zero. The headline metrics are `warm_over_cold_w{1,8}` — the
//! warm pass replays one routing pass per job instead of re-running the
//! whole layout search, so the ratio must stay ≤ 1 — and
//! `stored_over_warm_w{1,8}`: the stored pass runs no routing and no pass,
//! so it takes a small fraction of the warm pass's time:
//!
//! ```text
//! bench_session_reuse --qasm-dir benchmarks/qasm --json BENCH_session_reuse.json
//! bench_gate BENCH_session_reuse.json --max warm_mismatches 0 --max warm_over_cold_w1 1 \
//!     --max stored_mismatches 0 --max stored_over_warm_w1 0.5
//! ```
//!
//! Flags are the shared harness set (`--full`, `--runs N`,
//! `--layout-trials N`, `--qasm-dir <dir>`, `--json <path>`); the device is
//! `ibmq_montreal`, matching the Table I driver.

use std::time::Instant;

use nassc::{SessionJob, ThreadPool, TranspileOptions, TranspileResult, Transpiler};
use nassc_bench::{ensure_suite_fits, BenchReport, HarnessArgs, ReportRow, BASE_SEED};
use nassc_benchmarks::Benchmark;
use nassc_topology::CouplingMap;

/// The worker budgets the reuse experiment runs under: the serial baseline
/// and a parallel budget (a batch spawns at most `min(8, jobs) − 1` helper
/// threads, whatever the core count).
const WORKER_COUNTS: [usize; 2] = [1, 8];

/// The standard comparison grid over raw circuits: for every benchmark,
/// `runs` seeds × {SABRE, NASSC}.
fn job_grid(suite: &[Benchmark], runs: usize, layout_trials: usize) -> Vec<SessionJob<'_>> {
    let mut jobs = Vec::with_capacity(suite.len() * runs * 2);
    for bench in suite {
        for run in 0..runs {
            let seed = BASE_SEED + run as u64;
            jobs.push(SessionJob::with_options(
                &bench.circuit,
                TranspileOptions::sabre(seed).layout_trials(layout_trials),
            ));
            jobs.push(SessionJob::with_options(
                &bench.circuit,
                TranspileOptions::nassc(seed).layout_trials(layout_trials),
            ));
        }
    }
    jobs
}

/// How many of `results` differ from `cold` in anything but `elapsed` and
/// `cache`.
fn mismatches(
    cold: &[Result<TranspileResult, nassc::Error>],
    results: &[Result<TranspileResult, nassc::Error>],
) -> usize {
    cold.iter()
        .zip(results)
        .filter(|(c, r)| {
            let (c, r) = (c.as_ref().expect("cold"), r.as_ref().expect("repeat"));
            c.circuit != r.circuit
                || c.initial_layout != r.initial_layout
                || c.final_layout != r.final_layout
                || c.swap_count != r.swap_count
                || c.chosen_layout_trial != r.chosen_layout_trial
                || c.layout_trial_costs != r.layout_trial_costs
        })
        .count()
}

/// Sum of per-result transpile times — scheduling-noise-resistant, unlike
/// wall clock, because it never counts idle workers.
fn transpile_seconds(results: &[Result<TranspileResult, nassc::Error>]) -> f64 {
    results
        .iter()
        .map(|r| r.as_ref().expect("transpile").elapsed.as_secs_f64())
        .sum()
}

fn main() {
    let args = HarnessArgs::from_env();
    let suite = args.suite();
    let device = CouplingMap::ibmq_montreal();
    ensure_suite_fits(&suite, &device);

    let mut report = BenchReport::new(
        "session_reuse",
        "Transpiler session reuse — cold vs warm pass over the same grid",
        args.suite_label(),
        args.runs,
    );
    report.layout_trials = args.layout_trials;
    let mut total_mismatches = 0usize;
    let mut total_stored_mismatches = 0usize;

    println!(
        "== Session reuse — cold vs warm vs stored pass ({} jobs per pass) ==",
        { suite.len() * args.runs * 2 }
    );
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>11} {:>11} {:>9} {:>11} {:>11}",
        "workers",
        "cold(s)",
        "warm(s)",
        "stored(s)",
        "cold wall",
        "warm wall",
        "warm/cold",
        "stored/warm",
        "mismatches"
    );

    for workers in WORKER_COUNTS {
        let session = Transpiler::new(device.clone(), TranspileOptions::new())
            .with_pool(ThreadPool::new(workers));
        let jobs = job_grid(&suite, args.runs, args.layout_trials);

        let cold_start = Instant::now();
        let cold = session.transpile_jobs(&jobs);
        let cold_wall = cold_start.elapsed().as_secs_f64();
        let cold_s = transpile_seconds(&cold);
        let cold_stats = session.cache_stats();

        let warm_start = Instant::now();
        let warm = session.transpile_jobs(&jobs);
        let warm_wall = warm_start.elapsed().as_secs_f64();
        let warm_s = transpile_seconds(&warm);
        let warm_stats = session.cache_stats();

        let stored = session.transpile_jobs(&jobs);
        let stored_s = transpile_seconds(&stored);

        // The determinism contract: the warm and stored passes differ from
        // the cold one in `elapsed` and `cache` only.
        let warm_mismatches = mismatches(&cold, &warm);
        let stored_mismatches = mismatches(&cold, &stored);
        total_mismatches += warm_mismatches;
        total_stored_mismatches += stored_mismatches;

        let ratio = if cold_s > 0.0 { warm_s / cold_s } else { 1.0 };
        let stored_ratio = if warm_s > 0.0 { stored_s / warm_s } else { 1.0 };
        println!(
            "{:<8} {:>10.3} {:>10.3} {:>10.4} {:>11.3} {:>11.3} {:>9.3} {:>11.4} {:>11}",
            workers,
            cold_s,
            warm_s,
            stored_s,
            cold_wall,
            warm_wall,
            ratio,
            stored_ratio,
            warm_mismatches + stored_mismatches
        );

        report.rows.push(ReportRow {
            name: format!("workers_{workers}"),
            qubits: device.num_qubits(),
            metrics: vec![
                ("cold_transpile_seconds".to_string(), cold_s),
                ("warm_transpile_seconds".to_string(), warm_s),
                ("cold_wall_seconds".to_string(), cold_wall),
                ("warm_wall_seconds".to_string(), warm_wall),
                ("stored_transpile_seconds".to_string(), stored_s),
                ("warm_over_cold".to_string(), ratio),
                ("stored_over_warm".to_string(), stored_ratio),
                ("mismatches".to_string(), warm_mismatches as f64),
                ("stored_mismatches".to_string(), stored_mismatches as f64),
                ("cold_cache_hits".to_string(), cold_stats.hits() as f64),
                ("cold_cache_misses".to_string(), cold_stats.misses() as f64),
                (
                    "warm_cache_hits".to_string(),
                    (warm_stats.hits() - cold_stats.hits()) as f64,
                ),
                (
                    "warm_cache_misses".to_string(),
                    (warm_stats.misses() - cold_stats.misses()) as f64,
                ),
            ],
        });
        report
            .summary
            .push((format!("warm_over_cold_w{workers}"), ratio));
        report
            .summary
            .push((format!("stored_over_warm_w{workers}"), stored_ratio));
        report
            .summary
            .push((format!("cold_transpile_seconds_w{workers}"), cold_s));
        report
            .summary
            .push((format!("warm_transpile_seconds_w{workers}"), warm_s));
    }

    report
        .summary
        .push(("warm_mismatches".to_string(), total_mismatches as f64));
    report.summary.push((
        "stored_mismatches".to_string(),
        total_stored_mismatches as f64,
    ));
    println!("warm-pass mismatches across all budgets: {total_mismatches}");
    println!("stored-pass mismatches across all budgets: {total_stored_mismatches}");
    args.emit_report(&report);
    if total_mismatches + total_stored_mismatches > 0 && args.json.is_none() {
        // Without a report for a CI gate to inspect, broken determinism must
        // fail here.
        std::process::exit(1);
    }
}

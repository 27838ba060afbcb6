//! Figure 11: additional CNOTs and success rates of SABRE, NASSC and their
//! noise-aware (+HA) variants under the `ibmq_montreal` noise model.
//!
//! Always runs the dedicated noise suite (`--full` does not apply and is
//! warned about); `--runs N` averages each variant over `N` routing seeds,
//! `--shots N` controls the per-circuit noisy simulation.

use nassc::{SessionJob, TranspileOptions, Transpiler};
use nassc_bench::{cli_usize, BenchReport, HarnessArgs, ReportRow};
use nassc_sim::{success_rate, NoiseModel};
use nassc_topology::{Calibration, CouplingMap};

const VARIANT_NAMES: [&str; 4] = ["sabre", "nassc", "sabre_ha", "nassc_ha"];

/// Routing seed of run `r` (run 0 matches the old single-seed harness).
fn seed(run: usize) -> u64 {
    11 + run as u64
}

fn main() {
    let args = HarnessArgs::from_env();
    if args.full {
        eprintln!("warning: --full has no effect; Figure 11 always uses the noise suite");
    }
    if args.qasm_dir.is_some() {
        // Success-rate simulation is tuned to the five small noise-suite
        // circuits; silently reporting built-in numbers for a user corpus
        // would be worse than refusing.
        eprintln!("error: --qasm-dir is not supported; Figure 11 always uses the noise suite");
        std::process::exit(1);
    }
    let shots: usize = cli_usize("--shots").unwrap_or(8192);
    let device = CouplingMap::ibmq_montreal();
    let calibration = Calibration::synthetic(&device, 2022);
    let noise = NoiseModel::from_calibration(&device, calibration.clone());
    let benchmarks = nassc_benchmarks::noise_benchmarks();

    let variant_option = |variant: usize, run: usize| {
        let base = match variant {
            0 => TranspileOptions::sabre(seed(run)),
            1 => TranspileOptions::nassc(seed(run)),
            2 => TranspileOptions::sabre(seed(run)).calibration(calibration.clone()),
            _ => TranspileOptions::nassc(seed(run)).calibration(calibration.clone()),
        };
        base.layout_trials(args.layout_trials)
    };

    // One session serves the whole grid: the prepared cache runs the
    // pre-routing optimization once per benchmark (the prepared circuit is
    // also the unrouted CNOT baseline, served back by `Transpiler::prepared`
    // below), and the distance cache holds one matrix per calibration — the
    // plain hop-count one and the noise-aware one of the `+HA` variants.
    let session = Transpiler::new(device.clone(), TranspileOptions::new());
    // The full (benchmark × variant × run) grid in one batch.
    let mut jobs: Vec<SessionJob<'_>> = Vec::with_capacity(benchmarks.len() * 4 * args.runs);
    for bench in &benchmarks {
        for variant in 0..4 {
            for run in 0..args.runs {
                jobs.push(SessionJob::with_options(
                    &bench.circuit,
                    variant_option(variant, run),
                ));
            }
        }
    }
    eprintln!(
        "routing {} jobs, then simulating with {} shots each...",
        jobs.len(),
        shots
    );
    let routed = session.transpile_jobs(&jobs);
    let total_transpile_s: f64 = routed
        .iter()
        .map(|r| r.as_ref().expect("transpile").elapsed.as_secs_f64())
        .sum();
    // The noisy shot simulations dominate wall-clock; fan them out over the
    // session's worker budget too (the per-call seed is fixed, so rates
    // match the serial harness).
    let rates = session.pool().map(routed.iter().collect(), |result| {
        success_rate(
            &result.as_ref().expect("transpile").circuit,
            &noise,
            shots,
            97,
        )
    });

    let mut report = BenchReport::new(
        "fig11_noise_aware",
        "Figure 11 — noise-aware routing and success rates on ibmq_montreal",
        "noise",
        args.runs,
    );
    report.layout_trials = args.layout_trials;
    println!(
        "== Figure 11 — noise-aware routing on ibmq_montreal (shots = {shots}, runs = {}) ==",
        args.runs
    );
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10} | {:>8} {:>8} {:>8} {:>8}",
        "benchmark",
        "SABRE+cx",
        "NASSC+cx",
        "S+HA+cx",
        "N+HA+cx",
        "S rate",
        "N rate",
        "S+HA",
        "N+HA"
    );
    let per_bench = 4 * args.runs;
    let mut rate_sums = [0.0f64; 4];
    for (index, bench) in benchmarks.iter().enumerate() {
        // A guaranteed cache hit: the batch above already prepared it.
        let baseline = session
            .prepared(&bench.circuit)
            .expect("baseline")
            .cx_count();
        let mean = |values: &mut dyn Iterator<Item = f64>| -> f64 {
            values.sum::<f64>() / args.runs.max(1) as f64
        };
        let mut added = [0.0f64; 4];
        let mut bench_rates = [0.0f64; 4];
        for variant in 0..4 {
            let start = index * per_bench + variant * args.runs;
            added[variant] = mean(&mut routed[start..start + args.runs].iter().map(|r| {
                r.as_ref()
                    .expect("transpile")
                    .cx_count()
                    .saturating_sub(baseline) as f64
            }));
            bench_rates[variant] = mean(&mut rates[start..start + args.runs].iter().copied());
        }
        println!(
            "{:<16} {:>10.1} {:>10.1} {:>10.1} {:>10.1} | {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            bench.name,
            added[0],
            added[1],
            added[2],
            added[3],
            bench_rates[0],
            bench_rates[1],
            bench_rates[2],
            bench_rates[3]
        );
        let row_jobs = &routed[index * per_bench..(index + 1) * per_bench];
        let mean_ms = row_jobs
            .iter()
            .map(|r| r.as_ref().expect("transpile").elapsed.as_secs_f64())
            .sum::<f64>()
            * 1000.0
            / row_jobs.len() as f64;
        let mut metrics = vec![
            ("baseline_cx".to_string(), baseline as f64),
            ("mean_transpile_ms".to_string(), mean_ms),
        ];
        for (v, name) in VARIANT_NAMES.iter().enumerate() {
            metrics.push((format!("added_cx_{name}"), added[v]));
            metrics.push((format!("rate_{name}"), bench_rates[v]));
            rate_sums[v] += bench_rates[v];
        }
        report.rows.push(ReportRow {
            name: bench.name.to_string(),
            qubits: bench.qubits,
            metrics,
        });
    }
    for (v, name) in VARIANT_NAMES.iter().enumerate() {
        report.summary.push((
            format!("mean_rate_{name}"),
            rate_sums[v] / benchmarks.len().max(1) as f64,
        ));
    }
    report.summary.push(("shots".to_string(), shots as f64));
    report
        .summary
        .push(("total_transpile_seconds".to_string(), total_transpile_s));
    let stats = session.cache_stats();
    report
        .summary
        .push(("session_cache_hits".to_string(), stats.hits() as f64));
    report
        .summary
        .push(("session_cache_misses".to_string(), stats.misses() as f64));
    println!("total transpile time: {total_transpile_s:.3}s (simulation excluded)");
    args.emit_report(&report);
}

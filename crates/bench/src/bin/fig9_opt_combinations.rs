//! Figure 9: CNOT reduction of the best of the 8 optimization-flag
//! combinations versus enabling all three, on each coupling map.

use nassc::{OptimizationFlags, SessionJob, TranspileOptions, Transpiler};
use nassc_bench::{
    ensure_suite_fits, geometric_mean_reduction, relative_reduction, BenchReport, HarnessArgs,
    ReportRow,
};
use nassc_topology::CouplingMap;

/// Seed of run `r` (kept from the serial harness so outputs stay comparable).
fn seed(run: usize) -> u64 {
    2000 + run as u64
}

fn main() {
    let args = HarnessArgs::from_env();
    let suite = args.suite();
    let combinations = OptimizationFlags::all_combinations();
    let maps: Vec<(&str, CouplingMap)> = vec![
        ("ibmq_montreal", CouplingMap::ibmq_montreal()),
        ("linear-25", CouplingMap::linear(25)),
        ("grid-5x5", CouplingMap::grid(5, 5)),
    ];
    // A `--qasm-dir` corpus can be wider than the narrowest map; fail the
    // whole run up front instead of panicking mid-batch.
    for (_, device) in &maps {
        ensure_suite_fits(&suite, device);
    }
    let mut report = BenchReport::new(
        "fig9_opt_combinations",
        "Figure 9 — best-of-8 flag combinations vs all-enabled",
        args.suite_label(),
        args.runs,
    );
    report.layout_trials = args.layout_trials;
    let mut total_transpile_s = 0.0f64;

    for (map_name, device) in &maps {
        // One session per map, fed the raw circuits: the prepared cache runs
        // the device-independent pre-routing optimization once per benchmark
        // and shares it across all nine flag variants of the grid.
        let session = Transpiler::new(device.clone(), TranspileOptions::new());
        // For each benchmark, `runs` SABRE baselines followed by `runs` jobs
        // per flag combination.
        let variants_per_bench = args.runs * (1 + combinations.len());
        let mut jobs = Vec::with_capacity(suite.len() * variants_per_bench);
        for bench in &suite {
            for run in 0..args.runs {
                jobs.push(SessionJob::with_options(
                    &bench.circuit,
                    TranspileOptions::sabre(seed(run)).layout_trials(args.layout_trials),
                ));
            }
            for &flags in &combinations {
                for run in 0..args.runs {
                    jobs.push(SessionJob::with_options(
                        &bench.circuit,
                        TranspileOptions::nassc(seed(run))
                            .flags(flags)
                            .layout_trials(args.layout_trials),
                    ));
                }
            }
        }
        eprintln!("[{map_name}] transpiling {} jobs...", jobs.len());
        let results = session.transpile_jobs(&jobs);
        total_transpile_s += results
            .iter()
            .map(|r| r.as_ref().expect("transpile").elapsed.as_secs_f64())
            .sum::<f64>();
        let mean_cx = |slice: &[Result<nassc::TranspileResult, _>]| -> f64 {
            slice
                .iter()
                .map(|r| r.as_ref().expect("transpile").cx_count() as f64)
                .sum::<f64>()
                / args.runs as f64
        };

        println!("\n== Figure 9 — {map_name} ==");
        println!(
            "{:<22} {:>12} {:>12} {:>14}",
            "benchmark", "best-of-8", "all-enabled", "best flags"
        );
        let mut best_deltas = Vec::new();
        let mut all_enabled_deltas = Vec::new();
        for (index, bench) in suite.iter().enumerate() {
            let per_bench = &results[index * variants_per_bench..(index + 1) * variants_per_bench];
            let mean_ms = per_bench
                .iter()
                .map(|r| r.as_ref().expect("transpile").elapsed.as_secs_f64())
                .sum::<f64>()
                * 1000.0
                / per_bench.len() as f64;
            let sabre_cx = mean_cx(&per_bench[..args.runs]);
            let mut metrics = vec![
                ("sabre_cx".to_string(), sabre_cx),
                ("mean_transpile_ms".to_string(), mean_ms),
            ];
            let mut best = (f64::MAX, String::new());
            let mut all_enabled = 0.0;
            for (c, &flags) in combinations.iter().enumerate() {
                let offset = args.runs * (1 + c);
                let cx = mean_cx(&per_bench[offset..offset + args.runs]);
                metrics.push((format!("cx_{}", flags.label()), cx));
                if cx < best.0 {
                    best = (cx, flags.label());
                }
                if flags == OptimizationFlags::all() {
                    all_enabled = cx;
                }
            }
            let best_delta = relative_reduction(best.0, sabre_cx);
            let all_enabled_delta = relative_reduction(all_enabled, sabre_cx);
            best_deltas.push(best_delta);
            all_enabled_deltas.push(all_enabled_delta);
            metrics.push(("best_of_8_delta".to_string(), best_delta));
            metrics.push(("all_enabled_delta".to_string(), all_enabled_delta));
            println!(
                "{:<22} {:>11.2}% {:>11.2}% {:>14}",
                bench.name,
                100.0 * best_delta,
                100.0 * all_enabled_delta,
                best.1
            );
            report.rows.push(ReportRow {
                name: format!("{map_name}/{}", bench.name),
                qubits: bench.qubits,
                metrics,
            });
        }
        report.summary.push((
            format!("geomean_best_of_8_{map_name}"),
            geometric_mean_reduction(&best_deltas),
        ));
        report.summary.push((
            format!("geomean_all_enabled_{map_name}"),
            geometric_mean_reduction(&all_enabled_deltas),
        ));
        let stats = session.cache_stats();
        report.summary.push((
            format!("session_cache_hits_{map_name}"),
            stats.hits() as f64,
        ));
        report.summary.push((
            format!("session_cache_misses_{map_name}"),
            stats.misses() as f64,
        ));
    }

    report
        .summary
        .push(("total_transpile_seconds".to_string(), total_transpile_s));
    println!("total transpile time: {total_transpile_s:.3}s");
    args.emit_report(&report);
}

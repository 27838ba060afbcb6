//! Per-stage pipeline profile and tracing-overhead measurement over the
//! benchmark corpus.
//!
//! Runs the suite through the standard SABRE-vs-NASSC comparison grid
//! twice per repetition — once with tracing disabled, once enabled — on
//! fresh (all-cold) sessions, takes the best wall time of each mode across
//! repetitions, and reports:
//!
//! * `trace_overhead_ratio` — traced / untraced corpus wall time. CI gates
//!   this at ≤ 1.10: the recorder must stay effectively free even when on.
//! * one row per span name with count, total/p50/p99 wall time and
//!   allocation bytes (this binary installs the counting allocator and
//!   registers its per-thread byte count as the trace allocation probe).
//! * `trace_events` / `trace_events_dropped` — a non-zero dropped count
//!   means the per-thread buffers overflowed and the profile is truncated.
//!
//! ```text
//! bench_profile --qasm-dir benchmarks/qasm --runs 1 --json BENCH_profile.json
//! bench_gate BENCH_profile.json --max trace_overhead_ratio 1.1
//! ```

use std::time::Instant;

use nassc::{TranspileOptions, Transpiler};
use nassc_bench::{
    alloc, compare_suite_on, ensure_suite_fits, print_cnot_table, total_transpile_seconds,
    BenchReport, HarnessArgs, ReportRow,
};
use nassc_topology::CouplingMap;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Interleaved (untraced, traced) repetitions; best-of-N per mode keeps the
/// overhead ratio robust to scheduling noise on shared CI runners.
const REPS: usize = 3;

fn main() {
    let args = HarnessArgs::from_env();
    let suite = args.suite();
    let device = CouplingMap::ibmq_montreal();
    ensure_suite_fits(&suite, &device);
    nassc::trace::set_alloc_probe(alloc::thread_total_bytes);

    eprintln!(
        "profiling {} benchmarks × {} seeds × 2 routers ({} layout trials), \
         {REPS} reps per mode on {} threads...",
        suite.len(),
        args.runs,
        args.layout_trials,
        nassc_parallel::default_parallelism()
    );

    let run_suite = || {
        let session = Transpiler::new(device.clone(), TranspileOptions::new());
        let start = Instant::now();
        let rows = compare_suite_on(&session, &suite, args.runs, args.layout_trials);
        (start.elapsed().as_secs_f64(), rows)
    };

    let mut untraced_best = f64::INFINITY;
    let mut traced_best = f64::INFINITY;
    let mut rows = Vec::new();
    let mut trace = None;
    for rep in 0..REPS {
        nassc::trace::disable();
        let (untraced, untraced_rows) = run_suite();
        untraced_best = untraced_best.min(untraced);
        rows = untraced_rows;

        nassc::trace::enable();
        let (traced, traced_rows) = run_suite();
        let report = nassc::trace::take_report();
        nassc::trace::disable();
        traced_best = traced_best.min(traced);
        trace = Some(report);
        eprintln!("rep {rep}: untraced {untraced:.3}s, traced {traced:.3}s");

        // Tracing must never change results; CNOT counts are the cheap
        // canary (timing metrics legitimately differ between the passes).
        let project = |rows: &[nassc_bench::ComparisonRow]| {
            rows.iter()
                .map(|row| {
                    (
                        row.name.clone(),
                        row.sabre.cx_total.to_bits(),
                        row.nassc.cx_total.to_bits(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            project(&rows),
            project(&traced_rows),
            "traced and untraced corpus results diverged"
        );
    }
    let trace = trace.expect("at least one traced repetition");
    let ratio = if untraced_best > 0.0 {
        traced_best / untraced_best
    } else {
        1.0
    };

    let title = format!("Pipeline profile: {} suite", args.suite_label());
    print_cnot_table(&title, &rows);
    eprint!("{}", trace.render_span_table());
    println!(
        "trace overhead: untraced {untraced_best:.3}s, traced {traced_best:.3}s, \
         ratio {ratio:.3} ({} events, {} dropped)",
        trace.events.len(),
        trace.events_dropped
    );

    let mut report = BenchReport::new("profile", &title, args.suite_label(), args.runs);
    report.layout_trials = args.layout_trials;
    for stat in trace.span_table() {
        report.rows.push(ReportRow {
            name: format!("span:{}", stat.name),
            qubits: 0,
            metrics: vec![
                ("count".to_string(), stat.count as f64),
                ("total_ms".to_string(), stat.total_ns as f64 / 1e6),
                ("p50_ms".to_string(), stat.p50_ns as f64 / 1e6),
                ("p99_ms".to_string(), stat.p99_ns as f64 / 1e6),
                ("alloc_bytes".to_string(), stat.alloc_bytes as f64),
            ],
        });
    }
    for (name, total) in trace.counter_totals() {
        report.rows.push(ReportRow {
            name: format!("counter:{name}"),
            qubits: 0,
            metrics: vec![("total".to_string(), total as f64)],
        });
    }
    report.summary = vec![
        ("trace_overhead_ratio".to_string(), ratio),
        ("untraced_seconds".to_string(), untraced_best),
        ("traced_seconds".to_string(), traced_best),
        (
            "total_transpile_seconds".to_string(),
            total_transpile_seconds(&rows, args.runs),
        ),
        ("trace_events".to_string(), trace.events.len() as f64),
        (
            "trace_events_dropped".to_string(),
            trace.events_dropped as f64,
        ),
    ];
    args.emit_report(&report);
}

//! Scale benchmark — heavy-hex devices × 10k/100k-gate circuits, with
//! self-reported allocation.
//!
//! Runs the {`montreal`, `eagle`, `osprey`} × {`qv`, `qft`} × {10k, 100k
//! gates} × {SABRE, NASSC} grid through the [`nassc::Transpiler`] session
//! API. Every circuit is generated (see [`nassc_bench::scale`]), exported to
//! OPENQASM and re-parsed — so the parser is exercised at 100k-gate scale —
//! and the parsed copy is what gets transpiled. Two mismatch checks feed the
//! `scale_mismatches` summary metric CI gates to zero:
//!
//! 1. **round-trip** — `parse(export(generated))` must equal the generated
//!    circuit exactly;
//! 2. **cold vs warm vs stored** — the same session transpiles the parsed
//!    circuit a second time, which replays one routing pass from the cached
//!    layout (the warm `route_from` path) and stores its result, and a third
//!    time, which copies that stored result (or replays again, for a result
//!    that does not fit the session's `CACHE_BUDGET_BYTES` beside its
//!    prepared entry); both must equal the cold one field by field
//!    (circuit, layouts, swap count, trial diagnostics).
//!    Row metrics come from the cold call alone.
//!
//! Peak/total heap use per row comes from the crate's counting global
//! allocator ([`nassc_bench::alloc`]) — no external profiler. The table
//! prints it in MiB (2^20 bytes), the JSON rows keep exact `peak_bytes` and
//! `total_bytes`, and the summary carries `peak_alloc_mib` (max over rows)
//! and `total_transpile_seconds` so CI can put hard bounds on both:
//!
//! ```text
//! bench_scale --max-qubits 127 --json BENCH_scale.json
//! bench_gate BENCH_scale.json --max scale_mismatches 0 \
//!     --max peak_alloc_mib 2048 --max total_transpile_seconds 900
//! ```
//!
//! Flags: `--devices a,b,c` (any `Device::from_str` spec; default
//! `montreal,eagle,osprey`), `--sizes n,m` (default `10000,100000`),
//! `--styles qv,qft`, `--max-qubits N` (skip devices wider than `N` — how CI
//! keeps the 433-qubit Osprey rows out of the smoke budget), `--json <path>`.

use std::time::Instant;

use nassc::circuit::QuantumCircuit;
use nassc::{Device, TranspileOptions, Transpiler};
use nassc_bench::scale::{qft_style, qv_style};
use nassc_bench::{alloc, cli_value, BenchReport, ReportRow, BASE_SEED};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const MIB: f64 = 1024.0 * 1024.0;

fn csv_list(flag: &str, default: &str) -> Vec<String> {
    cli_value(flag)
        .unwrap_or_else(|| default.to_string())
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

/// Generates one workload: the circuit, its QASM text, and the re-parsed
/// copy (what the timed transpile consumes).
fn workload(style: &str, width: usize, gates: usize) -> (QuantumCircuit, QuantumCircuit) {
    let generated = match style {
        "qv" => qv_style(width, gates, BASE_SEED),
        "qft" => qft_style(width, gates),
        other => {
            eprintln!("error: unknown style {other:?} (expected qv or qft)");
            std::process::exit(1);
        }
    };
    let qasm = nassc_qasm::export(&generated).expect("generated circuits are exportable");
    let parsed = nassc_qasm::parse(&qasm).expect("exported QASM must re-parse");
    (generated, parsed)
}

fn main() {
    let devices = csv_list("--devices", "montreal,eagle,osprey");
    let sizes: Vec<usize> = csv_list("--sizes", "10000,100000")
        .iter()
        .map(|s| s.parse().expect("--sizes takes integers"))
        .collect();
    let styles = csv_list("--styles", "qv,qft");
    let max_qubits = cli_value("--max-qubits").map(|v| v.parse::<usize>().expect("--max-qubits"));
    let json_path = cli_value("--json");

    let mut report = BenchReport::new(
        "scale",
        "Heavy-hex scale sweep — transpile time and peak allocation",
        "scale",
        1,
    );
    let mut mismatches = 0usize;
    let mut peak_alloc_mib = 0f64;
    let mut total_seconds = 0f64;

    println!("== Scale sweep — devices {devices:?}, sizes {sizes:?}, styles {styles:?} ==");
    println!(
        "{:<26} {:>6} {:>8} {:>12} {:>8} {:>10} {:>10}",
        "row", "qubits", "gates", "transpile ms", "swaps", "peak MiB", "total MiB"
    );

    for spec in &devices {
        let device: Device = spec.parse().unwrap_or_else(|e| {
            eprintln!("error: --devices {spec}: {e}");
            std::process::exit(1);
        });
        let width = device.coupling().num_qubits();
        if max_qubits.is_some_and(|cap| width > cap) {
            println!(
                "{:<26} skipped (--max-qubits {})",
                spec,
                max_qubits.unwrap()
            );
            continue;
        }
        for style in &styles {
            for &gates in &sizes {
                let (generated, parsed) = workload(style, width, gates);
                if parsed != generated {
                    eprintln!("MISMATCH: {spec}/{style}{gates}: QASM round-trip diverged");
                    mismatches += 1;
                }
                for router in ["sabre", "nassc"] {
                    let options = match router {
                        "sabre" => TranspileOptions::sabre(BASE_SEED),
                        _ => TranspileOptions::nassc(BASE_SEED),
                    };
                    let session = Transpiler::new(device.clone(), options);

                    alloc::reset();
                    let start = Instant::now();
                    let result = session.transpile(&parsed).expect("transpile");
                    let elapsed = start.elapsed().as_secs_f64();
                    let peak = alloc::peak_bytes();
                    let total = alloc::total_bytes();

                    for path in ["warm", "stored"] {
                        let repeat = session.transpile(&parsed).expect("repeat transpile");
                        if repeat.circuit != result.circuit
                            || repeat.initial_layout != result.initial_layout
                            || repeat.final_layout != result.final_layout
                            || repeat.swap_count != result.swap_count
                            || repeat.chosen_layout_trial != result.chosen_layout_trial
                            || repeat.layout_trial_costs != result.layout_trial_costs
                        {
                            eprintln!(
                                "MISMATCH: {spec}/{style}{gates}/{router}: {path} output \
                                 diverged from the cold transpile"
                            );
                            mismatches += 1;
                        }
                    }

                    let name = format!("{spec}/{style}{}k/{router}", gates / 1000);
                    println!(
                        "{:<26} {:>6} {:>8} {:>12.1} {:>8} {:>10.1} {:>10.1}",
                        name,
                        width,
                        gates,
                        elapsed * 1e3,
                        result.swap_count,
                        peak as f64 / MIB,
                        total as f64 / MIB
                    );
                    report.rows.push(ReportRow {
                        name,
                        qubits: width,
                        metrics: vec![
                            ("gates".into(), gates as f64),
                            ("transpile_ms".into(), elapsed * 1e3),
                            ("swaps".into(), result.swap_count as f64),
                            ("cx_total".into(), result.cx_count() as f64),
                            ("peak_bytes".into(), peak as f64),
                            ("total_bytes".into(), total as f64),
                        ],
                    });
                    peak_alloc_mib = peak_alloc_mib.max(peak as f64 / MIB);
                    total_seconds += elapsed;
                }
            }
        }
    }

    report.summary = vec![
        ("rows".into(), report.rows.len() as f64),
        ("scale_mismatches".into(), mismatches as f64),
        ("peak_alloc_mib".into(), peak_alloc_mib),
        ("total_transpile_seconds".into(), total_seconds),
    ];
    println!(
        "\nsummary: rows {} | mismatches {} | peak alloc {:.1} MiB | transpile {:.1} s",
        report.rows.len(),
        mismatches,
        peak_alloc_mib,
        total_seconds
    );

    if let Some(path) = json_path {
        report
            .write_to_file(std::path::Path::new(&path))
            .expect("write report");
        println!("report written to {path}");
    }
    if mismatches > 0 {
        std::process::exit(1);
    }
}

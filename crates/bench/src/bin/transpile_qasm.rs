//! Transpile external OpenQASM 2.0 workloads through the NASSC pipeline.
//!
//! Two modes:
//!
//! * **Single-circuit** (default): read one `.qasm` file (or stdin when the
//!   path is `-` or omitted), transpile it under the chosen router, and
//!   print the transpiled circuit back out as OpenQASM 2.0.
//!
//!   ```text
//!   transpile_qasm input.qasm --router nassc --seed 1000 --layout-trials 4
//!   cat input.qasm | transpile_qasm --device linear:16 --output out.qasm
//!   ```
//!
//! * **Corpus** (`--qasm-dir <dir>`): run every `.qasm` file of a directory
//!   through one [`Transpiler`] session under *both* routers (the standard
//!   SABRE-vs-NASSC comparison grid, fanned across all cores), print the
//!   comparison table, and — with `--json` — write a [`BenchReport`] whose
//!   summary carries `corpus_files`, `parse_failures`, `skipped_too_wide`
//!   (parsed fine but wider than the device — a capacity skip, not a
//!   frontend defect) and `total_transpile_seconds` for CI gating:
//!
//!   ```text
//!   transpile_qasm --qasm-dir benchmarks/qasm --runs 2 --json BENCH_qasm_corpus.json
//!   bench_gate BENCH_qasm_corpus.json --max parse_failures 0
//!   ```
//!
//! Parse failures in corpus mode are recorded in the report (and listed on
//! stderr) rather than aborting, so one bad file cannot hide the metrics of
//! the rest; without `--json` they make the exit status non-zero.
//!
//! Devices: `--device montreal` (default, 27 qubits), `eagle` (127),
//! `osprey` (433), `heavy-hex:<d>`, `linear:<n>`, `grid:<rows>x<cols>`.
//!
//! Either mode accepts `--profile <out.json>`: tracing is enabled around
//! the transpile and a Chrome `trace_event` profile (open it in
//! `chrome://tracing` or Perfetto) is written to the given path, with the
//! aggregated per-span table printed to stderr. Single-circuit mode also
//! reports what share of the transpile wall time the top-level spans
//! account for.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use nassc::qasm;
use nassc::{Device, RouterKind, TranspileOptions, Transpiler};
use nassc_bench::{
    alloc, cli_usize, cli_value, cnot_report, compare_suite_on, print_cnot_table,
    total_transpile_seconds, BenchReport, ReportRow, BASE_SEED,
};
use nassc_benchmarks::Benchmark;

// The counting allocator feeds the per-span allocation column of
// `--profile` span tables (its per-thread byte count is registered as the
// trace probe in `main`).
#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Parses `--device` into a [`Device`] via its [`FromStr`](std::str::FromStr)
/// impl — the same parser (and the same error message) the `nassc-serve`
/// daemon uses for its device config.
fn device_from_args() -> Device {
    let spec = cli_value("--device").unwrap_or_else(|| "montreal".to_string());
    spec.parse().unwrap_or_else(|e| {
        eprintln!("error: --device: {e}");
        std::process::exit(1);
    })
}

/// Parses `--router` into a router kind (single-circuit mode only; corpus
/// mode always compares both).
fn router_from_args() -> RouterKind {
    match cli_value("--router").as_deref() {
        None | Some("nassc") => RouterKind::Nassc,
        Some("sabre") => RouterKind::Sabre,
        Some(other) => {
            eprintln!("error: --router expects sabre or nassc, got {other:?}");
            std::process::exit(1);
        }
    }
}

/// Every flag of this binary that consumes a value — the single source of
/// truth for [`input_path`]'s skipping, so a newly added flag cannot have
/// its value mistaken for the positional input file.
const VALUE_FLAGS: &[&str] = &[
    "--device",
    "--router",
    "--seed",
    "--layout-trials",
    "--runs",
    "--json",
    "--output",
    "--qasm-dir",
    "--profile",
];

/// The positional input path of single-circuit mode (`-`/absent = stdin).
fn input_path() -> Option<PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            flag if VALUE_FLAGS.contains(&flag) => {
                args.next();
            }
            "-" => return None,
            flag if flag.starts_with("--") => {}
            path => return Some(PathBuf::from(path)),
        }
    }
    None
}

/// Warns about flags that the selected mode ignores, so a mis-invocation
/// leaves a trace instead of silently reporting something else.
fn warn_ignored_flags(mode: &str, ignored: &[&str]) {
    for flag in ignored {
        if cli_value(flag).is_some() {
            eprintln!("warning: {flag} has no effect in {mode} mode");
        }
    }
}

fn main() -> ExitCode {
    nassc::trace::set_alloc_probe(alloc::thread_total_bytes);
    let device = device_from_args();
    let layout_trials = cli_usize("--layout-trials").unwrap_or(1).max(1);
    let json = cli_value("--json").map(PathBuf::from);

    if let Some(dir) = cli_value("--qasm-dir").map(PathBuf::from) {
        // Corpus mode always compares both routers on the shared seed sweep
        // and emits no per-circuit QASM.
        warn_ignored_flags("corpus", &["--router", "--seed", "--output"]);
        let runs = cli_usize("--runs").unwrap_or(1).max(1);
        return corpus_mode(&dir, &device, runs, layout_trials, json);
    }
    warn_ignored_flags("single-circuit", &["--runs"]);
    single_mode(&device, router_from_args(), layout_trials, json)
}

/// Single-circuit mode: file/stdin in, transpiled QASM out.
fn single_mode(
    device: &Device,
    router: RouterKind,
    layout_trials: usize,
    json: Option<PathBuf>,
) -> ExitCode {
    let (source, name) = match input_path() {
        Some(path) => match std::fs::read_to_string(&path) {
            Ok(source) => (
                source,
                path.file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| path.display().to_string()),
            ),
            Err(e) => {
                eprintln!("error: reading {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
        None => {
            let mut source = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut source) {
                eprintln!("error: reading stdin: {e}");
                return ExitCode::FAILURE;
            }
            (source, "stdin".to_string())
        }
    };
    let circuit = match qasm::parse(&source) {
        Ok(circuit) => circuit,
        Err(e) => {
            eprintln!("error: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if circuit.num_qubits() > device.num_qubits() {
        eprintln!(
            "error: {name} needs {} qubits but the device has {} (try --device linear:{})",
            circuit.num_qubits(),
            device.num_qubits(),
            circuit.num_qubits()
        );
        return ExitCode::FAILURE;
    }
    let seed = cli_usize("--seed").map_or(BASE_SEED, |s| s as u64);
    let options = TranspileOptions::new()
        .router(router)
        .seed(seed)
        .layout_trials(layout_trials);
    let session = Transpiler::new(device.clone(), options.clone());
    let profile = cli_value("--profile").map(PathBuf::from);
    if profile.is_some() {
        nassc::trace::enable();
    }
    let traced_start = Instant::now();
    let result = session.transpile(&circuit);
    let traced_wall = traced_start.elapsed();
    let trace = profile.as_ref().map(|_| {
        let report = nassc::trace::take_report();
        nassc::trace::disable();
        report
    });
    let result = match result {
        Ok(result) => result,
        Err(e) => {
            eprintln!("error: transpiling {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let (Some(path), Some(trace)) = (&profile, &trace) {
        if let Err(e) = std::fs::write(path, trace.to_chrome_json()) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        let coverage = 100.0 * trace.top_level_span_ns() as f64 / traced_wall.as_nanos() as f64;
        eprint!("{}", trace.render_span_table());
        eprintln!(
            "trace: {} events, {:.1}% of {:.1} ms wall accounted by top-level spans, \
             {} dropped; wrote {}",
            trace.events.len(),
            coverage,
            1000.0 * traced_wall.as_secs_f64(),
            trace.events_dropped,
            path.display()
        );
    }
    let out_qasm = match qasm::export(&result.circuit) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: exporting {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "{name}: {} qubits, {} -> {} CNOTs, depth {}, {} SWAPs inserted, {:.1} ms ({:?})",
        circuit.num_qubits(),
        circuit.cx_count(),
        result.cx_count(),
        result.depth(),
        result.swap_count,
        1000.0 * result.elapsed.as_secs_f64(),
        options.router,
    );
    if let Some(path) = &json {
        let mut report = BenchReport::new(
            "transpile_qasm",
            "Single-circuit OpenQASM transpile",
            format!("qasm:{name}"),
            1,
        );
        report.layout_trials = layout_trials;
        report.rows.push(ReportRow {
            name: name.clone(),
            qubits: circuit.num_qubits(),
            metrics: vec![
                ("original_cx".to_string(), circuit.cx_count() as f64),
                ("cx_total".to_string(), result.cx_count() as f64),
                ("depth_total".to_string(), result.depth() as f64),
                ("swap_count".to_string(), result.swap_count as f64),
                (
                    "transpile_ms".to_string(),
                    1000.0 * result.elapsed.as_secs_f64(),
                ),
            ],
        });
        report.summary = vec![
            ("parse_failures".to_string(), 0.0),
            (
                "total_transpile_seconds".to_string(),
                result.elapsed.as_secs_f64(),
            ),
        ];
        if let Err(e) = report.write_to_file(path) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
    }
    match cli_value("--output").map(PathBuf::from) {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, out_qasm) {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", path.display());
        }
        None => print!("{out_qasm}"),
    }
    ExitCode::SUCCESS
}

/// Corpus mode: the whole directory through the batch comparison grid.
fn corpus_mode(
    dir: &Path,
    device: &Device,
    runs: usize,
    layout_trials: usize,
    json: Option<PathBuf>,
) -> ExitCode {
    let corpus = match qasm::load_corpus(dir) {
        Ok(corpus) => corpus,
        Err(e) => {
            eprintln!("error: reading {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    if corpus.is_empty() {
        eprintln!("error: no .qasm files in {}", dir.display());
        return ExitCode::FAILURE;
    }
    let total_files = corpus.len();
    let mut suite = Vec::new();
    let mut parse_failures = 0usize;
    // A circuit wider than the device parsed fine — that is a capacity
    // skip, tracked separately so the `parse_failures` CI gate keeps
    // meaning "frontend regression".
    let mut skipped_too_wide = 0usize;
    for file in corpus {
        match file.circuit {
            Ok(circuit) if circuit.num_qubits() > device.num_qubits() => {
                eprintln!(
                    "skipped (too wide): {}: needs {} qubits but the device has {}",
                    file.path.display(),
                    circuit.num_qubits(),
                    device.num_qubits()
                );
                skipped_too_wide += 1;
            }
            Ok(circuit) => suite.push(Benchmark::new(file.name, circuit)),
            Err(e) => {
                eprintln!("parse failure: {}: {e}", file.path.display());
                parse_failures += 1;
            }
        }
    }
    eprintln!(
        "transpiling {} of {total_files} corpus files × {runs} seeds × 2 routers \
         ({layout_trials} layout trials each) on {} threads...",
        suite.len(),
        nassc_parallel::default_parallelism()
    );
    let session = Transpiler::new(device.clone(), TranspileOptions::new());
    let profile = cli_value("--profile").map(PathBuf::from);
    if profile.is_some() {
        nassc::trace::enable();
    }
    let rows = compare_suite_on(&session, &suite, runs, layout_trials);
    if let Some(path) = &profile {
        let trace = nassc::trace::take_report();
        nassc::trace::disable();
        if let Err(e) = std::fs::write(path, trace.to_chrome_json()) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprint!("{}", trace.render_span_table());
        eprintln!(
            "trace: {} events, {} dropped; wrote {}",
            trace.events.len(),
            trace.events_dropped,
            path.display()
        );
    }
    let title = format!(
        "OpenQASM corpus {} on {} qubits",
        dir.display(),
        device.num_qubits()
    );
    print_cnot_table(&title, &rows);
    println!(
        "total transpile time: {:.3}s across {} transpiles \
         ({parse_failures} parse failures, {skipped_too_wide} skipped too-wide)",
        total_transpile_seconds(&rows, runs),
        suite.len() * runs * 2
    );
    let mut report = cnot_report(
        "qasm_corpus",
        &title,
        &format!("qasm:{}", dir.display()),
        runs,
        &rows,
    );
    report.layout_trials = layout_trials;
    report
        .summary
        .push(("corpus_files".to_string(), total_files as f64));
    report
        .summary
        .push(("parse_failures".to_string(), parse_failures as f64));
    report
        .summary
        .push(("skipped_too_wide".to_string(), skipped_too_wide as f64));
    let stats = session.cache_stats();
    report
        .summary
        .push(("session_cache_hits".to_string(), stats.hits() as f64));
    report
        .summary
        .push(("session_cache_misses".to_string(), stats.misses() as f64));
    if let Some(path) = &json {
        if let Err(e) = report.write_to_file(path) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
        // The report records the failures; let the CI gate decide.
        ExitCode::SUCCESS
    } else if parse_failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

//! `serve_bench`: load generator for the `nassc-serve` daemon.
//!
//! Default (in-process) mode boots a daemon at 1 and at 8 handler workers,
//! drives the committed QASM corpus through it — a sequential *cold* phase
//! (fresh session, empty caches) and a concurrent *warm* phase (`--clients`
//! connections × `--rounds` corpus passes) — and writes `BENCH_serve.json`
//! with throughput and exact client-side p50/p99 latency rows:
//!
//! ```text
//! serve_bench --qasm-dir benchmarks/qasm --clients 8 --rounds 2 --json BENCH_serve.json
//! ```
//!
//! Every response body is compared byte-for-byte against a direct
//! [`Transpiler`] call with the same options — the daemon must be a
//! transparent wrapper, so `serve_mismatches` must be 0 regardless of worker
//! count, concurrency or cache temperature.
//!
//! `--addr HOST:PORT` switches to external mode: the same phases against an
//! already-running daemon (which must serve the montreal device with default
//! options). CI's bench-smoke boots `nassc-serve`, points `serve_bench
//! --addr` at it, and gates the report:
//!
//! After the warm phase, a *traced* corpus pass drives
//! `POST /transpile?trace=1` with client-chosen `X-Request-Id`s: every
//! response must echo the id, carry a non-empty span table, and round-trip
//! the exact QASM bytes of the untraced reference (`serve_trace_mismatches`
//! must be 0 — tracing is observational only).
//!
//! ```text
//! bench_gate BENCH_serve.json --max error_responses 0 --max serve_mismatches 0 \
//!            --max serve_trace_mismatches 0
//! ```
//!
//! `--chaos <rate>` (requires `--features failpoints`) switches to the
//! fault-injection harness instead: it arms the pipeline failpoints at the
//! given per-hit probability (panicking parse/pass/routing/commit sites,
//! slow layout trials, dying handler workers), sweeps the corpus under
//! chaos, then disarms and replays it, writing `BENCH_chaos.json`. Every
//! injected fault must be *contained* (an error status or at worst a
//! dropped connection — never a dead daemon) and every post-recovery
//! response must be byte-identical to the unfaulted reference:
//!
//! ```text
//! serve_bench --chaos 0.05 --json BENCH_chaos.json
//! bench_gate BENCH_chaos.json --max post_recovery_mismatches 0 --max uncontained_faults 0
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use nassc::{qasm, Device, TranspileOptions, Transpiler};
use nassc_bench::{cli_usize, cli_value, BenchReport, ReportRow};
use nassc_serve::{client, ServeConfig, Server};

/// Worker counts exercised by in-process mode.
const WORKER_COUNTS: [usize; 2] = [1, 8];

/// Arms the chaos failpoints at the given per-hit probability. The slow
/// site gets a higher probability (delays are contained by construction);
/// the worker-killing site a lower one (each hit costs a whole connection).
#[cfg(feature = "failpoints")]
fn arm_chaos_sites(rate: f64) {
    use nassc::circuit::failpoints::{arm, Action};
    arm("parse", Action::Panic, rate);
    arm("pass", Action::Panic, rate);
    arm("route_step", Action::Panic, rate);
    arm(
        "layout_trial",
        Action::Delay(std::time::Duration::from_millis(5)),
        (2.0 * rate).min(1.0),
    );
    arm("cache_commit", Action::Panic, rate);
    arm("handler", Action::Panic, rate / 4.0);
}

#[cfg(feature = "failpoints")]
fn disarm_chaos_sites() {
    nassc::circuit::failpoints::disarm_all();
}

#[cfg(feature = "failpoints")]
fn injections_so_far() -> u64 {
    nassc::circuit::failpoints::total_injections()
}

#[cfg(not(feature = "failpoints"))]
fn arm_chaos_sites(_rate: f64) {
    unreachable!("--chaos is rejected before arming when failpoints are compiled out");
}

#[cfg(not(feature = "failpoints"))]
fn disarm_chaos_sites() {}

#[cfg(not(feature = "failpoints"))]
fn injections_so_far() -> u64 {
    0
}

/// The `--chaos <rate>` harness: sweep the corpus with failpoints armed,
/// then disarm and verify full recovery. Returns the process exit code.
fn chaos_main(
    rate: f64,
    expected: Arc<Vec<Expected>>,
    clients: usize,
    rounds: usize,
    json: Option<PathBuf>,
    qubits: usize,
    suite_label: String,
) -> ExitCode {
    let server = match Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        queue_depth: 256,
        default_timeout_ms: 300_000,
        ..ServeConfig::default()
    }) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: binding in-process server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr().to_string();
    let shutdown = server.shutdown_handle();
    let running = std::thread::spawn(move || server.run());
    eprintln!("chaos daemon at {addr}, fault rate {rate}");

    // Phase 1 — chaos: contained faults show up as error statuses or
    // dropped connections; any 200 must still be byte-correct (the
    // determinism contract holds *during* the faults, not just after).
    let injected_before = injections_so_far();
    arm_chaos_sites(rate);
    let chaos = run_phase(&addr, Arc::clone(&expected), clients, rounds);
    disarm_chaos_sites();
    let injected = injections_so_far() - injected_before;

    // The daemon must have survived: a worker's loop catches its handler's
    // panic and poison recovery resets the caches, so /health and a fresh
    // transpile both still work.
    let alive = matches!(client::get(&addr, "/health"), Ok(r) if r.status == 200);

    // Phase 2 — recovery: every response byte-identical, no errors.
    let recovery = run_phase(&addr, Arc::clone(&expected), 1, 1);

    shutdown.shutdown();
    running.join().expect("server thread panicked");

    let uncontained = u64::from(!alive) + chaos.mismatches;
    let mut report = BenchReport::new(
        "serve_chaos",
        "nassc-serve fault-injection harness: corpus sweep under armed failpoints, then recovery",
        suite_label,
        rounds,
    );
    push_row(&mut report, &format!("chaos_rate_{rate}"), qubits, &chaos);
    push_row(&mut report, "recovery", qubits, &recovery);
    report.summary = vec![
        ("fault_rate".to_string(), rate),
        ("injected_faults".to_string(), injected as f64),
        ("chaos_requests".to_string(), chaos.requests() as f64),
        ("contained_faults".to_string(), chaos.error_responses as f64),
        ("uncontained_faults".to_string(), uncontained as f64),
        (
            "post_recovery_requests".to_string(),
            recovery.requests() as f64,
        ),
        (
            "post_recovery_errors".to_string(),
            recovery.error_responses as f64,
        ),
        (
            "post_recovery_mismatches".to_string(),
            recovery.mismatches as f64,
        ),
    ];
    eprintln!(
        "chaos: {injected} faults injected over {} requests — {} contained as error \
         responses, {uncontained} uncontained; recovery: {} requests, {} errors, \
         {} mismatches",
        chaos.requests(),
        chaos.error_responses,
        recovery.requests(),
        recovery.error_responses,
        recovery.mismatches,
    );
    if let Some(path) = &json {
        if let Err(e) = report.write_to_file(path) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
    }
    if uncontained > 0 || recovery.error_responses > 0 || recovery.mismatches > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// One corpus circuit with its expected (direct-call) transpiled QASM.
struct Expected {
    name: String,
    source: String,
    body: String,
}

/// Measurements from one load phase.
#[derive(Default)]
struct PhaseStats {
    latencies_ms: Vec<f64>,
    wall_seconds: f64,
    error_responses: u64,
    mismatches: u64,
}

impl PhaseStats {
    /// Adds another pass's requests, errors and mismatches; the wall time
    /// is the caller's to set.
    fn merge(&mut self, other: PhaseStats) {
        self.latencies_ms.extend(other.latencies_ms);
        self.error_responses += other.error_responses;
        self.mismatches += other.mismatches;
    }

    fn requests(&self) -> usize {
        self.latencies_ms.len()
    }

    fn throughput_rps(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.requests() as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Exact quantile over the recorded client-side latencies.
    fn quantile_ms(&self, q: f64) -> f64 {
        if self.latencies_ms.is_empty() {
            return 0.0;
        }
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank - 1]
    }

    fn mean_ms(&self) -> f64 {
        if self.latencies_ms.is_empty() {
            return 0.0;
        }
        self.latencies_ms.iter().sum::<f64>() / self.latencies_ms.len() as f64
    }
}

/// Builds the reference answers by transpiling the corpus directly through
/// one `Transpiler` session with the daemon's default options.
fn build_expected(dir: &Path, device: &Device) -> Result<Vec<Expected>, String> {
    let corpus = qasm::load_corpus(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    if corpus.is_empty() {
        return Err(format!("no .qasm files in {}", dir.display()));
    }
    let session = Transpiler::new(device.clone(), TranspileOptions::new());
    let mut expected = Vec::new();
    for file in corpus {
        let source = std::fs::read_to_string(&file.path)
            .map_err(|e| format!("reading {}: {e}", file.path.display()))?;
        match file.circuit {
            Ok(circuit) if circuit.num_qubits() > device.num_qubits() => {
                eprintln!("skipping {} (wider than the device)", file.name);
            }
            Ok(_) => {
                let result = session
                    .transpile_qasm(&source)
                    .map_err(|e| format!("direct transpile of {}: {e}", file.name))?;
                let body = qasm::export(&result.circuit)
                    .map_err(|e| format!("exporting {}: {e}", file.name))?;
                expected.push(Expected {
                    name: file.name,
                    source,
                    body,
                });
            }
            Err(e) => return Err(format!("parse failure in {}: {e}", file.path.display())),
        }
    }
    Ok(expected)
}

/// Runs one pass of the full corpus on the calling thread.
fn run_corpus_pass(addr: &str, expected: &[Expected]) -> PhaseStats {
    let mut stats = PhaseStats::default();
    for item in expected {
        let started = Instant::now();
        match client::post(addr, "/transpile", &item.source) {
            Ok(response) => {
                stats
                    .latencies_ms
                    .push(1000.0 * started.elapsed().as_secs_f64());
                if response.status != 200 {
                    eprintln!("{}: status {}", item.name, response.status);
                    stats.error_responses += 1;
                } else if response.body != item.body {
                    eprintln!("{}: body differs from direct transpile", item.name);
                    stats.mismatches += 1;
                }
            }
            Err(e) => {
                eprintln!("{}: request failed: {e}", item.name);
                stats
                    .latencies_ms
                    .push(1000.0 * started.elapsed().as_secs_f64());
                stats.error_responses += 1;
            }
        }
    }
    stats
}

/// One corpus pass through `POST /transpile?trace=1`: every response must
/// echo the client-chosen `X-Request-Id`, carry a non-empty span table, and
/// round-trip the exact QASM bytes of the untraced reference — tracing is
/// observational only, so any divergence counts as a mismatch.
fn run_traced_pass(addr: &str, expected: &[Expected], tag: &str) -> PhaseStats {
    let mut stats = PhaseStats::default();
    let started_pass = Instant::now();
    for (index, item) in expected.iter().enumerate() {
        let request_id = format!("{tag}-{index}-{}", item.name);
        let started = Instant::now();
        let response = client::request_with_headers(
            addr,
            "POST",
            "/transpile?trace=1",
            &[("x-request-id", &request_id)],
            &item.source,
        );
        stats
            .latencies_ms
            .push(1000.0 * started.elapsed().as_secs_f64());
        let response = match response {
            Ok(response) => response,
            Err(e) => {
                eprintln!("{}: traced request failed: {e}", item.name);
                stats.error_responses += 1;
                continue;
            }
        };
        if response.status != 200 {
            eprintln!("{}: traced status {}", item.name, response.status);
            stats.error_responses += 1;
            continue;
        }
        let id_ok = response.header("x-request-id") == Some(request_id.as_str())
            && response
                .body
                .contains(&format!("\"request_id\":\"{request_id}\""));
        let spans_ok = response.body.contains("\"spans\":[{");
        let qasm_ok =
            client::json_str_field(&response.body, "qasm").as_deref() == Some(item.body.as_str());
        if !id_ok || !spans_ok || !qasm_ok {
            eprintln!(
                "{}: traced round-trip mismatch (id {}, spans {}, qasm {})",
                item.name, id_ok, spans_ok, qasm_ok
            );
            stats.mismatches += 1;
        }
    }
    stats.wall_seconds = started_pass.elapsed().as_secs_f64();
    stats
}

/// Runs `clients` threads × `rounds` corpus passes each, merging the stats.
fn run_phase(
    addr: &str,
    expected: Arc<Vec<Expected>>,
    clients: usize,
    rounds: usize,
) -> PhaseStats {
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let addr = addr.to_string();
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut merged = PhaseStats::default();
                for _ in 0..rounds {
                    merged.merge(run_corpus_pass(&addr, &expected));
                }
                merged
            })
        })
        .collect();
    let mut total = PhaseStats::default();
    for handle in handles {
        total.merge(handle.join().expect("client thread panicked"));
    }
    total.wall_seconds = started.elapsed().as_secs_f64();
    total
}

/// Appends one report row for a phase.
fn push_row(report: &mut BenchReport, name: &str, qubits: usize, stats: &PhaseStats) {
    report.rows.push(ReportRow {
        name: name.to_string(),
        qubits,
        metrics: vec![
            ("requests".to_string(), stats.requests() as f64),
            ("throughput_rps".to_string(), stats.throughput_rps()),
            ("mean_ms".to_string(), stats.mean_ms()),
            ("p50_ms".to_string(), stats.quantile_ms(0.50)),
            ("p99_ms".to_string(), stats.quantile_ms(0.99)),
            ("error_responses".to_string(), stats.error_responses as f64),
            ("mismatches".to_string(), stats.mismatches as f64),
        ],
    });
    eprintln!(
        "{name}: {} requests in {:.2}s — {:.1} req/s, p50 {:.1} ms, p99 {:.1} ms, \
         {} errors, {} mismatches",
        stats.requests(),
        stats.wall_seconds,
        stats.throughput_rps(),
        stats.quantile_ms(0.50),
        stats.quantile_ms(0.99),
        stats.error_responses,
        stats.mismatches,
    );
}

fn main() -> ExitCode {
    let dir = cli_value("--qasm-dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("benchmarks/qasm"));
    let clients = cli_usize("--clients").unwrap_or(8).max(1);
    let rounds = cli_usize("--rounds").unwrap_or(2).max(1);
    let json = cli_value("--json").map(PathBuf::from);
    let device = Device::montreal();

    eprintln!("building reference answers with a direct Transpiler session...");
    let expected = match build_expected(&dir, &device) {
        Ok(expected) => Arc::new(expected),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("{} corpus circuits", expected.len());

    if let Some(raw) = cli_value("--chaos") {
        let rate = match raw.parse::<f64>() {
            Ok(rate) if (0.0..=1.0).contains(&rate) => rate,
            _ => {
                eprintln!("error: --chaos expects a probability in [0, 1], got {raw:?}");
                return ExitCode::FAILURE;
            }
        };
        if !cfg!(feature = "failpoints") {
            eprintln!(
                "error: --chaos requires the fault-injection hooks; rebuild with \
                 `--features failpoints`"
            );
            return ExitCode::FAILURE;
        }
        return chaos_main(
            rate,
            expected,
            clients,
            rounds,
            json,
            device.num_qubits(),
            format!("qasm:{}", dir.display()),
        );
    }

    let mut report = BenchReport::new(
        "serve_bench",
        "nassc-serve daemon load test over the QASM corpus",
        format!("qasm:{}", dir.display()),
        rounds,
    );
    let qubits = device.num_qubits();
    let mut phases: Vec<PhaseStats> = Vec::new();
    let mut traced_phases: Vec<PhaseStats> = Vec::new();
    let mut warm_p99: f64 = 0.0;
    let mut warm_throughput: f64 = 0.0;

    if let Some(addr) = cli_value("--addr") {
        // External mode: phases against an already-running daemon.
        eprintln!("external daemon at {addr}");
        let cold = run_phase(&addr, Arc::clone(&expected), 1, 1);
        push_row(&mut report, "external_cold", qubits, &cold);
        let warm = run_phase(&addr, Arc::clone(&expected), clients, rounds);
        push_row(&mut report, "external_warm", qubits, &warm);
        let traced = run_traced_pass(&addr, &expected, "bench-ext");
        push_row(&mut report, "external_traced", qubits, &traced);
        warm_p99 = warm.quantile_ms(0.99);
        warm_throughput = warm.throughput_rps();
        phases.push(cold);
        phases.push(warm);
        traced_phases.push(traced);
    } else {
        // In-process mode: boot a fresh daemon per worker count so every
        // cold phase really is cold.
        for workers in WORKER_COUNTS {
            let server = match Server::bind(ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                devices: vec![device.clone()],
                workers,
                queue_depth: 256,
                default_timeout_ms: 300_000,
                options: TranspileOptions::new(),
                max_gates: None,
                max_qubits: None,
            }) {
                Ok(server) => server,
                Err(e) => {
                    eprintln!("error: binding in-process server: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let addr = server.local_addr().to_string();
            let shutdown = server.shutdown_handle();
            let running = std::thread::spawn(move || server.run());
            eprintln!("in-process daemon at {addr} with {workers} workers");

            let cold = run_phase(&addr, Arc::clone(&expected), 1, 1);
            push_row(
                &mut report,
                &format!("workers{workers}_cold"),
                qubits,
                &cold,
            );
            let warm = run_phase(&addr, Arc::clone(&expected), clients, rounds);
            push_row(
                &mut report,
                &format!("workers{workers}_warm"),
                qubits,
                &warm,
            );
            warm_p99 = warm_p99.max(warm.quantile_ms(0.99));
            warm_throughput = warm_throughput.max(warm.throughput_rps());
            phases.push(cold);
            phases.push(warm);

            let traced = run_traced_pass(&addr, &expected, &format!("bench-w{workers}"));
            push_row(
                &mut report,
                &format!("workers{workers}_traced"),
                qubits,
                &traced,
            );
            traced_phases.push(traced);

            shutdown.shutdown();
            running.join().expect("server thread panicked");
        }
    }

    let total_requests: usize = phases.iter().map(PhaseStats::requests).sum();
    let error_responses: u64 = phases.iter().map(|p| p.error_responses).sum::<u64>()
        + traced_phases.iter().map(|p| p.error_responses).sum::<u64>();
    let mismatches: u64 = phases.iter().map(|p| p.mismatches).sum();
    let trace_requests: usize = traced_phases.iter().map(PhaseStats::requests).sum();
    let trace_mismatches: u64 = traced_phases.iter().map(|p| p.mismatches).sum();
    report.summary = vec![
        (
            "total_requests".to_string(),
            (total_requests + trace_requests) as f64,
        ),
        ("error_responses".to_string(), error_responses as f64),
        ("serve_mismatches".to_string(), mismatches as f64),
        ("trace_requests".to_string(), trace_requests as f64),
        (
            "serve_trace_mismatches".to_string(),
            trace_mismatches as f64,
        ),
        ("p99_ms".to_string(), warm_p99),
        ("best_warm_throughput_rps".to_string(), warm_throughput),
    ];
    eprintln!(
        "total: {} requests, {error_responses} error responses, \
         {mismatches} mismatches vs direct Transpiler calls, \
         {trace_mismatches} traced round-trip mismatches over {trace_requests} traced requests",
        total_requests + trace_requests,
    );
    if let Some(path) = &json {
        if let Err(e) = report.write_to_file(path) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
    }
    if error_responses > 0 || mismatches > 0 || trace_mismatches > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

//! The library workloads: seeded circuits, QASM in and QASM out, through
//! `Transpiler` sessions built during set-up. Every circuit is new to the
//! session it runs on, so each transpile runs the whole cold pipeline.

use std::time::Instant;

use nassc::{Device, ThreadPool, TranspileOptions, Transpiler};

use crate::affinity::Rotation;
use crate::gen::{self, Rng};
use crate::http::Client;
use crate::report::{median, ms, quantile, Outcome};
use crate::serve::{Daemon, Samples};
use crate::{alloc, check, staged, Args, POOL_THREADS};

/// Set-ups timed at the start of each pass; one more follows each circuit.
/// `setup_s` is the median of them all. Spreading them over the run keeps
/// the median from following the machine's speed at one moment.
const SETUP_BATCH: usize = 3;

/// Gates of the warm-up circuit each set-up transpiles. It builds the
/// distance matrix and touches every pipeline stage once, and is long
/// enough that a set-up is timed in milliseconds rather than microseconds.
const WARM_UP_GATES: usize = 200;

/// Untraced runs time every circuit once per pass, each pass on a session
/// of its own, and keep each circuit's fastest time. A circuit's passes are
/// spread over the whole run and over the CPUs (see [`crate::affinity`]),
/// so a slow spell of one CPU rarely covers all of them.
const PASSES: usize = 5;

pub struct Spec {
    pub name: &'static str,
    pub device: fn() -> Device,
    pub gates: usize,
    pub generate: fn(usize, usize, &mut Rng) -> String,
    /// Seconds one untraced transpile of a circuit, with its check and
    /// set-up, takes at the commit that introduced the benchmark (2-core
    /// x86-64, one pool thread). It sizes the run from `--seconds` so the
    /// circuit set depends on the seed alone, and totals such as `cx_count`
    /// repeat exactly.
    pub nominal_s: f64,
    /// The same for a traced circuit: cold, warm, staged and daemon calls.
    pub traced_nominal_s: f64,
}

// The circuits are small enough that a run holds ten or more of them, each
// timed once per pass, and large enough to keep each workload's character:
// on Eagle, layout and route are nearly 90% of a 1.5k-gate circuit; on
// Montreal, the passes are over half of a 2.5k-gate one.

pub const EAGLE_QV: Spec = Spec {
    name: "eagle-qv",
    device: Device::eagle,
    gates: 1_500,
    generate: gen::qv,
    nominal_s: 0.4,
    traced_nominal_s: 2.0,
};

pub const MONTREAL_QFT: Spec = Spec {
    name: "montreal-qft",
    device: Device::montreal,
    gates: 2_500,
    generate: gen::relabelled_qft,
    nominal_s: 0.55,
    traced_nominal_s: 2.5,
};

fn session(device: &Device) -> Transpiler {
    Transpiler::new(device.clone(), TranspileOptions::new())
        .with_pool(ThreadPool::new(POOL_THREADS))
}

/// The warm-up circuit of every set-up: a short circuit of the workload's
/// own kind, drawn from a stream no timed circuit uses.
fn warm_up(spec: &Spec, seed: u64) -> String {
    let qubits = (spec.device)().num_qubits();
    (spec.generate)(qubits, WARM_UP_GATES, &mut Rng::new(seed, u64::MAX))
}

/// Builds and warms up `repeats` sessions, adding each set-up time to
/// `times`; returns the last session.
fn set_up(
    device: &Device,
    warm_up: &str,
    repeats: usize,
    times: &mut Vec<f64>,
) -> Result<Transpiler, String> {
    let mut last = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let session = session(device);
        staged::transpile(&session, warm_up, session.options())?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(session);
    }
    Ok(last.expect("at least one set-up"))
}

fn circuits(spec: &Spec, seed: u64, count: usize) -> Vec<String> {
    let qubits = (spec.device)().num_qubits();
    (0..count)
        .map(|i| (spec.generate)(qubits, spec.gates, &mut Rng::new(seed, i as u64)))
        .collect()
}

fn circuit_count(seconds: u64, per_circuit_s: f64) -> usize {
    ((seconds as f64 / per_circuit_s).round() as usize).max(1)
}

/// What one pass keeps of a circuit's output: its time, its totals, and
/// its exported text as length and digest, so that holding it does not
/// grow the heap being measured.
#[derive(Clone, Copy, PartialEq)]
struct Output {
    cx: u64,
    depth: u64,
    len: usize,
    digest: u64,
}

pub fn run(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    let device = (spec.device)();
    let mut out = Outcome::default();
    let count = if args.trace {
        circuit_count(args.seconds, spec.traced_nominal_s)
    } else {
        circuit_count(args.seconds, spec.nominal_s * PASSES as f64)
    };
    out.notes.push(format!(
        "{}: {count} circuits of {} gates on {} ({} qubits), pool {POOL_THREADS} thread(s)",
        spec.name,
        spec.gates,
        device.name(),
        device.num_qubits()
    ));
    let sources = circuits(spec, args.seed, count);
    let warm_up = warm_up(spec, args.seed);
    let mut setup_times = Vec::new();
    if args.trace {
        let session = set_up(&device, &warm_up, SETUP_BATCH, &mut setup_times)?;
        return run_traced(&device, &session, &warm_up, &sources, out);
    }

    let cpus = Rotation::new();
    out.notes.push(format!(
        "{PASSES} passes, each circuit's passes rotated over {} CPU(s)",
        cpus.len()
    ));
    // fastest_ms[i] is circuit i's fastest time over the passes so far.
    let mut fastest_ms = vec![f64::INFINITY; count];
    let mut first: Vec<Option<Output>> = vec![None; count];
    let mut peak = 0u64;
    for pass in 0..PASSES {
        cpus.pin(pass)?;
        let session = set_up(&device, &warm_up, SETUP_BATCH, &mut setup_times)?;
        for (i, source) in sources.iter().enumerate() {
            out.attempted += 1;
            cpus.pin(pass + i)?;
            alloc::reset_peak();
            let start = Instant::now();
            let transpiled = staged::transpile(&session, source, session.options());
            let elapsed = ms(start.elapsed());
            peak = peak.max(alloc::peak());
            let checked = transpiled.and_then(|(result, qasm)| {
                check::output(&result.circuit, &qasm, device.coupling())?;
                Ok(Output {
                    cx: result.cx_count() as u64,
                    depth: result.depth() as u64,
                    len: qasm.len(),
                    digest: check::digest(qasm.as_bytes()),
                })
            });
            match (checked, first[i]) {
                (Ok(output), Some(earlier)) if output != earlier => out.fail(format!(
                    "{} circuit {i}: pass {pass} output differs from pass 0",
                    spec.name
                )),
                (Ok(output), _) => {
                    out.notes.push(format!(
                        "pass {pass} circuit {i}: {elapsed:.1} ms, cx {}, depth {}",
                        output.cx, output.depth
                    ));
                    first[i] = Some(output);
                    fastest_ms[i] = fastest_ms[i].min(elapsed);
                }
                (Err(e), _) => out.fail(format!("{} pass {pass} circuit {i}: {e}", spec.name)),
            }
            set_up(&device, &warm_up, 1, &mut setup_times)?;
        }
    }
    cpus.release()?;

    let latencies_ms: Vec<f64> = fastest_ms.into_iter().filter(|t| t.is_finite()).collect();
    let outputs: Vec<Output> = first.into_iter().flatten().collect();
    let transpile_s: f64 = latencies_ms.iter().sum::<f64>() / 1e3;
    out.metric("setup_s", median(&setup_times), "s");
    out.metric("transpile_s", transpile_s, "s");
    out.metric("request_p50_ms", quantile(&latencies_ms, 0.50), "ms");
    out.metric("request_p99_ms", quantile(&latencies_ms, 0.99), "ms");
    out.metric(
        "throughput_rps",
        latencies_ms.len() as f64 / transpile_s,
        "1/s",
    );
    out.metric("peak_heap_mb", peak as f64 / (1 << 20) as f64, "MB");
    out.metric(
        "cx_count",
        outputs.iter().map(|o| o.cx).sum::<u64>() as f64,
        "count",
    );
    out.metric(
        "depth",
        outputs.iter().map(|o| o.depth).sum::<u64>() as f64,
        "count",
    );
    Ok(out)
}

/// Traced: per circuit, the session's cold and warm transpiles, the staged
/// pipeline, and one POST to a daemon for the same device.
fn run_traced(
    device: &Device,
    session: &Transpiler,
    warm_up: &str,
    sources: &[String],
    mut out: Outcome,
) -> Result<Outcome, String> {
    let daemon = Daemon::start(device.clone(), 1).map_err(|e| e.to_string())?;
    let mut client = Client::new(daemon.addr);
    let mut samples = Samples::default();
    match client.post("/transpile", warm_up) {
        Ok(ex) if ex.status == 200 => {}
        Ok(ex) => out.fail(format!("daemon warm-up: status {}", ex.status)),
        Err(e) => out.fail(format!("daemon warm-up: {e}")),
    }
    // The process's first large transpile pays for fresh heap pages; pay it
    // on a throwaway session so the cold and staged runs compare equally.
    let scratch = self::session(device);
    staged::transpile(&scratch, &sources[0], scratch.options())?;
    let mut traced = staged::Traced::new(device.coupling());
    for (i, source) in sources.iter().enumerate() {
        out.attempted += 1;
        let qasm = match traced.circuit(session, source) {
            Ok(qasm) => qasm,
            Err(e) => {
                out.fail(format!("circuit {i}: {e}"));
                continue;
            }
        };
        match client.post("/transpile", source) {
            Ok(ex) if ex.status == 200 && ex.body == qasm => samples.record(&ex),
            Ok(ex) if ex.status == 200 => out.fail(format!(
                "circuit {i}: daemon body differs from the direct call"
            )),
            Ok(ex) => out.fail(format!("circuit {i}: daemon status {}", ex.status)),
            Err(e) => out.fail(format!("circuit {i}: daemon: {e}")),
        }
    }
    daemon.stop();
    traced.emit(&mut out);
    samples.emit_layers(&mut out);
    Ok(out)
}

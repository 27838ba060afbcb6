//! The serve workloads: the committed QASM corpus POSTed to an in-process
//! `nassc-serve` for Montreal by a closed loop of client connections.
//! `serve-corpus` has one client per daemon worker, `serve-serial` one.
//!
//! Seven of every eight requests repeat a corpus file at the daemon's
//! default seed, so they hit the layout cache; the eighth carries a fresh
//! `?seed=`, so it misses the layout cache and hits the prepared cache.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nassc::{Device, ThreadPool, TranspileOptions, Transpiler};
use nassc_serve::{ServeConfig, Server, ShutdownHandle};

use crate::gen::Rng;
use crate::http::{Client, Exchange};
use crate::report::{median, ms, quantile, ratio, Outcome};
use crate::{alloc, check, staged, Args, POOL_THREADS};

const CORPUS_DIR: &str = "benchmarks/qasm";

/// Daemon set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// Staged passes over the corpus in a traced run.
const TRACED_CORPUS_PASSES: usize = 5;

/// A serve workload.
pub struct Load {
    pub name: &'static str,
    /// Client connections of the closed loop; `None` is one per worker.
    pub clients: Option<usize>,
    /// Requests per second the loop sustained at the commit that introduced
    /// the benchmark (2-core x86-64). It sizes the loop from `--seconds`, so
    /// a run sends the same requests whatever the machine's speed, and the
    /// daemon's caches, hence `peak_heap_mb`, end the same.
    pub nominal_rps: f64,
}

pub const SERVE_CORPUS: Load = Load {
    name: "serve-corpus",
    clients: None,
    nominal_rps: 400.0,
};

pub const SERVE_SERIAL: Load = Load {
    name: "serve-serial",
    clients: Some(1),
    nominal_rps: 250.0,
};

/// An in-process daemon, stopped and joined by [`Daemon::stop`].
pub struct Daemon {
    pub addr: SocketAddr,
    shutdown: ShutdownHandle,
    thread: JoinHandle<()>,
}

impl Daemon {
    /// Binds a daemon for `device` with default options and starts it.
    pub fn start(device: Device, workers: usize) -> std::io::Result<Self> {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            devices: vec![device],
            workers,
            queue_depth: 64,
            default_timeout_ms: 120_000,
            options: TranspileOptions::new(),
            max_gates: None,
            max_qubits: None,
        })?;
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Self {
            addr,
            shutdown,
            thread,
        })
    }

    pub fn stop(self) {
        self.shutdown.shutdown();
        self.thread.join().expect("daemon thread panicked");
    }
}

/// Client-side timings and cache headers of 200 responses.
#[derive(Default)]
pub struct Samples {
    pub request_ms: Vec<f64>,
    pub connect_ms: Vec<f64>,
    pub queue_ms: Vec<f64>,
    pub server_ms: Vec<f64>,
    pub unattributed_ms: Vec<f64>,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl Samples {
    pub fn record(&mut self, exchange: &Exchange) {
        let request = ms(exchange.request);
        let queue = exchange.headers.queue_ms.unwrap_or(0.0);
        let server = exchange.headers.elapsed_ms.unwrap_or(0.0);
        self.request_ms.push(request);
        if let Some(connect) = exchange.connect {
            self.connect_ms.push(ms(connect));
        }
        self.queue_ms.push(queue);
        self.server_ms.push(server);
        self.unattributed_ms.push(request - queue - server);
        self.cache_hits += exchange.headers.cache_hits.unwrap_or(0);
        self.cache_misses += exchange.headers.cache_misses.unwrap_or(0);
    }

    fn merge(&mut self, other: Samples) {
        self.request_ms.extend(other.request_ms);
        self.connect_ms.extend(other.connect_ms);
        self.queue_ms.extend(other.queue_ms);
        self.server_ms.extend(other.server_ms);
        self.unattributed_ms.extend(other.unattributed_ms);
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }

    /// The `serve.*` layer metrics and `core.cache_hit_ratio`.
    pub fn emit_layers(&self, out: &mut Outcome) {
        out.metric("serve.connect_ms", median(&self.connect_ms), "ms");
        out.metric("serve.queue_ms", median(&self.queue_ms), "ms");
        out.metric("serve.server_ms", median(&self.server_ms), "ms");
        out.metric("serve.unattributed_ms", median(&self.unattributed_ms), "ms");
        let hits = self.cache_hits as f64;
        let total = (self.cache_hits + self.cache_misses) as f64;
        out.metric("core.cache_hit_ratio", ratio(hits, total), "ratio");
    }
}

struct CorpusFile {
    name: String,
    source: String,
}

fn load_corpus() -> std::io::Result<Vec<CorpusFile>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(CORPUS_DIR)? {
        let path = entry?.path();
        if path.extension().is_some_and(|ext| ext == "qasm") {
            let name = path
                .file_stem()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned();
            files.push(CorpusFile {
                name,
                source: std::fs::read_to_string(&path)?,
            });
        }
    }
    files.sort_by(|a, b| a.name.cmp(&b.name));
    if files.is_empty() {
        return Err(std::io::Error::other(format!(
            "no .qasm files in {CORPUS_DIR}"
        )));
    }
    Ok(files)
}

/// One response of the corpus pass made during set-up, per file: the body
/// every later default-seed response must equal, and its reported counts.
struct Reference {
    body: String,
    cx_count: u64,
    depth: u64,
}

fn corpus_pass(addr: SocketAddr, corpus: &[CorpusFile], out: &mut Outcome) -> Vec<Reference> {
    let mut client = Client::new(addr);
    corpus
        .iter()
        .map(|file| {
            out.attempted += 1;
            match client.post("/transpile", &file.source) {
                Ok(ex) if ex.status == 200 => Reference {
                    cx_count: ex.headers.cx_count.unwrap_or(0),
                    depth: ex.headers.depth.unwrap_or(0),
                    body: ex.body,
                },
                Ok(ex) => {
                    out.fail(format!(
                        "{}: status {} {}",
                        file.name,
                        ex.status,
                        ex.body.trim()
                    ));
                    Reference {
                        body: String::new(),
                        cx_count: 0,
                        depth: 0,
                    }
                }
                Err(e) => {
                    out.fail(format!("{}: {e}", file.name));
                    Reference {
                        body: String::new(),
                        cx_count: 0,
                        depth: 0,
                    }
                }
            }
        })
        .collect()
}

/// A fresh-seed response, kept as a digest so that holding it does not
/// grow the heap being measured.
struct Fresh {
    file: usize,
    seed: u64,
    len: usize,
    digest: u64,
}

struct ClientRun {
    samples: Samples,
    fresh: Vec<Fresh>,
    attempted: u64,
    failures: Vec<String>,
}

/// One closed-loop client: sends its next request when the last completes,
/// `requests` times.
fn client_loop(
    addr: SocketAddr,
    corpus: &[CorpusFile],
    references: &[Reference],
    rng: &mut Rng,
    requests: u64,
) -> ClientRun {
    let mut client = Client::new(addr);
    let mut run = ClientRun {
        samples: Samples::default(),
        fresh: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
    };
    for index in 0..requests {
        let file = rng.below(corpus.len());
        // The top bit keeps a fresh seed away from the default seed.
        let seed = (index % 8 == 7).then(|| rng.next_u64() | (1 << 63));
        let path = match seed {
            Some(seed) => format!("/transpile?seed={seed}"),
            None => "/transpile".to_string(),
        };
        run.attempted += 1;
        let name = &corpus[file].name;
        match client.post(&path, &corpus[file].source) {
            Ok(ex) if ex.status == 200 => {
                run.samples.record(&ex);
                match seed {
                    Some(seed) => run.fresh.push(Fresh {
                        file,
                        seed,
                        len: ex.body.len(),
                        digest: check::digest(ex.body.as_bytes()),
                    }),
                    None if ex.body != references[file].body => {
                        run.failures
                            .push(format!("{name}: body differs from the set-up response"));
                    }
                    None => {}
                }
            }
            Ok(ex) => run
                .failures
                .push(format!("{name}{path}: status {}", ex.status)),
            Err(e) => run.failures.push(format!("{name}{path}: {e}")),
        }
    }
    run
}

/// Drives `clients` closed-loop clients that send `requests` between them;
/// returns the merged samples, the fresh-seed digests and the measured
/// elapsed time.
fn closed_loop(
    addr: SocketAddr,
    corpus: &[CorpusFile],
    references: &[Reference],
    clients: usize,
    seed: u64,
    requests: u64,
    out: &mut Outcome,
) -> (Samples, Vec<Fresh>, Duration) {
    let per_client = requests.div_ceil(clients as u64);
    let start = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let mut rng = Rng::new(seed, 1000 + c as u64);
                scope.spawn(move || client_loop(addr, corpus, references, &mut rng, per_client))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut samples = Samples::default();
    let mut fresh = Vec::new();
    for run in runs {
        out.attempted += run.attempted;
        for failure in run.failures {
            out.fail(failure);
        }
        samples.merge(run.samples);
        fresh.extend(run.fresh);
    }
    (samples, fresh, elapsed)
}

fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

fn direct_session(device: &Device) -> Transpiler {
    Transpiler::new(device.clone(), TranspileOptions::new())
        .with_pool(ThreadPool::new(POOL_THREADS))
}

/// Checks every body against a direct in-process call with the same
/// options and seed, after the timed phase.
fn verify(
    device: &Device,
    corpus: &[CorpusFile],
    references: &[Reference],
    fresh: &[Fresh],
    out: &mut Outcome,
) {
    let coupling = device.coupling();
    let session = direct_session(device);
    let direct = |file: &CorpusFile, options: &TranspileOptions| {
        let (result, qasm) = staged::transpile(&session, &file.source, options)?;
        check::output(&result.circuit, &qasm, coupling)?;
        Ok::<_, String>(qasm)
    };
    for (file, reference) in corpus.iter().zip(references) {
        match direct(file, &TranspileOptions::new()) {
            Ok(qasm) if qasm == reference.body => {}
            Ok(_) => out.fail(format!(
                "{}: daemon body differs from the direct call",
                file.name
            )),
            Err(e) => out.fail(format!("{}: {e}", file.name)),
        }
    }
    for response in fresh {
        let file = &corpus[response.file];
        match direct(file, &TranspileOptions::new().seed(response.seed)) {
            Ok(qasm)
                if (qasm.len(), check::digest(qasm.as_bytes()))
                    == (response.len, response.digest) => {}
            Ok(_) => out.fail(format!(
                "{} seed {}: daemon body differs from the direct call",
                file.name, response.seed
            )),
            Err(e) => out.fail(format!("{} seed {}: {e}", file.name, response.seed)),
        }
    }
}

pub fn run(load: &Load, args: &Args) -> Result<Outcome, String> {
    let corpus = load_corpus().map_err(|e| format!("reading {CORPUS_DIR}: {e}"))?;
    let device = &Device::montreal();
    let workers = workers();
    let clients = load.clients.unwrap_or(workers);
    let mut out = Outcome::default();
    out.notes.push(format!(
        "{}: {} files on {}, {workers} daemon workers, {clients} clients, daemon pool {} threads",
        load.name,
        corpus.len(),
        device.name(),
        nassc::parallel::default_parallelism()
    ));

    if args.trace {
        return run_traced(load, device, args, &corpus, workers, clients, out);
    }

    // Set-up: bind the daemon and make one corpus pass, several times.
    let mut setup_s = Vec::new();
    let mut daemon = None;
    let mut references = Vec::new();
    for repeat in 0..SETUP_REPEATS {
        if let Some(previous) = daemon.take() {
            Daemon::stop(previous);
        }
        let start = Instant::now();
        let started = Daemon::start(device.clone(), workers).map_err(|e| e.to_string())?;
        let mut pass_out = Outcome::default();
        references = corpus_pass(started.addr, &corpus, &mut pass_out);
        setup_s.push(start.elapsed().as_secs_f64());
        if repeat == SETUP_REPEATS - 1 {
            out.attempted += pass_out.attempted;
            out.failed += pass_out.failed;
        } else if pass_out.failed > 0 {
            out.fail("set-up corpus pass failed");
        }
        daemon = Some(started);
    }
    let daemon = daemon.expect("at least one set-up");

    alloc::reset_peak();
    let requests = (args.seconds as f64 * load.nominal_rps) as u64;
    let (samples, fresh, elapsed) = closed_loop(
        daemon.addr,
        &corpus,
        &references,
        clients,
        args.seed,
        requests,
        &mut out,
    );
    let peak = alloc::peak();
    daemon.stop();

    verify(device, &corpus, &references, &fresh, &mut out);
    out.notes.push(format!(
        "{}: {} responses ({} fresh seeds) in {:.2} s",
        load.name,
        samples.request_ms.len(),
        fresh.len(),
        elapsed.as_secs_f64()
    ));

    out.metric("setup_s", median(&setup_s), "s");
    out.metric("request_p50_ms", quantile(&samples.request_ms, 0.50), "ms");
    out.metric("request_p99_ms", quantile(&samples.request_ms, 0.99), "ms");
    out.metric(
        "throughput_rps",
        samples.request_ms.len() as f64 / elapsed.as_secs_f64(),
        "1/s",
    );
    out.metric("peak_heap_mb", peak as f64 / (1 << 20) as f64, "MB");
    out.metric(
        "cx_count",
        references.iter().map(|r| r.cx_count).sum::<u64>() as f64,
        "count",
    );
    out.metric(
        "depth",
        references.iter().map(|r| r.depth).sum::<u64>() as f64,
        "count",
    );
    Ok(out)
}

/// Traced: the serve layers from a shorter closed loop, then every other
/// layer from staged passes over the same corpus.
fn run_traced(
    load: &Load,
    device: &Device,
    args: &Args,
    corpus: &[CorpusFile],
    workers: usize,
    clients: usize,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let daemon = Daemon::start(device.clone(), workers).map_err(|e| e.to_string())?;
    let references = corpus_pass(daemon.addr, corpus, &mut out);
    let requests = (args.seconds as f64 * 0.4 * load.nominal_rps) as u64;
    let (samples, _, _) = closed_loop(
        daemon.addr,
        corpus,
        &references,
        clients,
        args.seed,
        requests,
        &mut out,
    );
    daemon.stop();

    let mut traced = staged::Traced::new(device.coupling());
    for _ in 0..TRACED_CORPUS_PASSES {
        let session = direct_session(device);
        for file in corpus {
            out.attempted += 1;
            if let Err(e) = traced.circuit(&session, &file.source) {
                out.fail(format!("{}: {e}", file.name));
            }
        }
    }
    traced.emit(&mut out);
    samples.emit_layers(&mut out);
    Ok(out)
}

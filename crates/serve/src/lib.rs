//! `nassc-serve`: a transpilation daemon over the [`Transpiler`] session API.
//!
//! The daemon is dependency-free — a hand-rolled HTTP/1.1 subset over
//! [`std::net::TcpListener`] — and keeps one long-lived [`Transpiler`] per
//! configured [`Device`], so every request shares the session's worker pool
//! and its distance/baseline/layout caches. The serving pipeline is:
//!
//! ```text
//!   acceptor (blocking accept: each connection is queued on arrival)
//!      │  push, notify_one    ── full → 429 written by the acceptor; the
//!      │                         linger thread reads to the client's EOF
//!      ▼
//!   ConnQueue                 ── backpressure valve (queue_depth): a
//!      │  pop (condvar wait)     VecDeque<Conn> behind a mutex; each push
//!      ▼                         wakes one idle worker
//!   N handler workers         ── deadline check → 504 before transpiling
//!      │                         /transpile → the body, unparsed, with the
//!      │                         options and admission limits
//!      ▼
//!   session.transpile_to_qasm ── an indexed body → its prepared entry;
//!      │                         any other → qasm_parse, the limits, then
//!      │                         the structural lookup; then the slot
//!      ▼
//!   response (+ X-* metric headers), Connection: close
//! ```
//!
//! The handler hands the request body to the session unparsed: a body the
//! session has seen twice is found by its exact bytes, so a repeat is
//! neither parsed nor hashed (see [`Transpiler::transpile_to_qasm`]). A
//! repeat request is then a stored hit: the session hands back the
//! OpenQASM text it stored for it, shared, and the handler sends those
//! stored bytes as the body, copying them once, into the send buffer. Only
//! cold and replayed requests export.
//!
//! Endpoints:
//!
//! * `POST /transpile?device=<spec>&router=<sabre|nassc>&seed=<n>&layout-trials=<n>&timeout-ms=<n>`
//!   — body is OpenQASM 2.0 in, body is transpiled OpenQASM 2.0 out.
//!   `layout-trials` is bounded by [`MAX_LAYOUT_TRIALS`] (64); a larger
//!   count is refused with 400.
//!   Per-request metrics travel as `X-Elapsed-Ms`, `X-Queue-Ms`,
//!   `X-Cx-Count`, `X-Swap-Count`, `X-Depth`, `X-Chosen-Trial`,
//!   `X-Cache-Hits`/`X-Cache-Misses` response headers, so the body stays
//!   byte-comparable against a direct [`Transpiler`] call.
//!   Appending `?trace=1` runs the transpile under the process-wide trace
//!   recorder and returns a JSON envelope with the per-span table, which
//!   includes the session's `qasm_parse` for a body it has not indexed and
//!   its `qasm_export` for a cold or replayed request (a stored hit found
//!   by its text records neither). Traced requests serialize on a recorder
//!   lock; spans from concurrent untraced requests may appear in the table
//!   (best-effort attribution — outputs are never affected).
//! * `GET /metrics` — JSON: response counts by status, p50/p99 latency
//!   histograms, cumulative per-device [`CacheStats`](nassc::CacheStats),
//!   worker-pool status, uptime/start time, dropped trace events. With
//!   `Accept: text/plain` the same numbers render in Prometheus text
//!   exposition format instead.
//! * `GET /trace` — the span table of the most recent `?trace=1` request.
//! * `GET /version` — crate version and compiled-in features.
//! * `GET /health` — liveness probe.
//!
//! **Request correlation.** Every response carries `X-Request-Id` — the
//! inbound `x-request-id` header when the client sent a well-formed one,
//! else a server-assigned `serve-<n>` — and every request is logged as a
//! single-line JSON object on stderr keyed by that id. Each access-log line
//! is formatted first and leaves in one write, as each response does (see
//! [`Response::write_to`](http::Response::write_to)).
//!
//! Error taxonomy is derived from [`nassc::ErrorKind`], not string matching:
//! parse failures → 400, circuit wider than the device or over the
//! configured admission limits → 422, internal pass errors and contained
//! panics → 500; a full queue → 429; a request whose deadline expired —
//! waiting in the queue or mid-transpile — → 504. Every error response
//! carries an `X-Error-Kind` header.
//!
//! **Fault containment.** A request's `?timeout-ms=` covers *execution*,
//! not just queue wait: whatever remains of the deadline when transpilation
//! starts becomes the session's cooperative [`TranspileOptions::deadline`],
//! so a slow transpile aborts mid-routing with a 504 instead of pinning a
//! worker. Panics inside the session are contained there and surface as
//! 500 + `X-Error-Kind: internal`. A panic outside every containment
//! boundary unwinds only as far as its handler worker's loop: that one
//! connection drops, the `worker_restarts` metric counts it, and the worker
//! takes the next connection — the daemon never loses serving capacity.
//!
//! Shutdown is graceful: SIGINT/SIGTERM (or [`ShutdownHandle::shutdown`])
//! stops the acceptor, and the queue closes as it returns; the
//! workers drain the queued requests, and [`Server::run`] joins them before
//! it returns. The acceptor
//! blocks in `accept` with no timer, so a shutdown wakes it with a loopback
//! connection to the bound port; a signal watcher thread does the same on
//! SIGINT/SIGTERM (see [`signal`]).

// Production code must not `unwrap()` — a stray panic in a handler is a
// dropped connection, so every lock/parse site either recovers or maps to
// a taxonomy error. Tests are exempt: an unwrap there *is* the assertion.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod client;
pub mod http;
pub mod metrics;
pub mod signal;

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use nassc::trace::json_escape;
use nassc::{Device, ErrorKind, Limits, RouterKind, TranspileOptions, Transpiler};

use http::{read_request, HttpError, Request, Response};
use metrics::ServerMetrics;

/// Largest accepted request body (QASM source), in bytes.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Largest accepted `?layout-trials=`: a layout search holds every finished
/// trial's routed circuit until it picks the cheapest, so an unbounded count
/// would pin every pool worker and grow memory with it. 64 is eight times
/// the largest count the tests, examples and CI use.
pub const MAX_LAYOUT_TRIALS: usize = 64;

/// How long the acceptor pauses after a failed `accept` (EMFILE and the
/// like), so a persistent error cannot spin it. Its only sleep.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(2);

/// How often the signal watcher checks for SIGINT/SIGTERM — the bound on
/// signal-to-shutdown latency. Off the request path.
const SIGNAL_CHECK: Duration = Duration::from_millis(50);

/// Bound on the loopback connect that wakes the acceptor on shutdown.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// How long a dequeued connection may stay silent before its first bytes:
/// a client that connects and sends nothing is answered 408 this soon
/// instead of holding a worker for [`SOCKET_READ_TIMEOUT`].
const FIRST_BYTE_TIMEOUT: Duration = Duration::from_secs(1);

/// How long the rest of a request may take to arrive once its first bytes
/// have: a deadline for the whole request, not for each read, so a client
/// that trickles bytes cannot hold a worker either.
const SOCKET_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A shed or refused connection stays open after its response for at most
/// this long, reading the client's request until its EOF…
const LINGER_TIMEOUT: Duration = Duration::from_millis(500);

/// …and at most this many bytes of it.
const LINGER_MAX_BYTES: usize = 64 * 1024;

/// Shed connections the linger thread holds at once; beyond that, the
/// acceptor closes at once after draining what has already arrived.
const LINGER_BACKLOG: usize = 32;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 picks a free port).
    pub addr: String,
    /// Devices to serve; the first is the default for requests that do not
    /// pass `?device=`. Each gets its own long-lived [`Transpiler`].
    pub devices: Vec<Device>,
    /// Handler worker threads. `0` is allowed (nothing drains the queue) so
    /// tests can provoke deterministic 429s; the binary enforces `>= 1`.
    pub workers: usize,
    /// Bounded queue capacity (at least 1) — connections beyond it are
    /// answered 429.
    pub queue_depth: usize,
    /// Default per-request deadline (queue wait), overridable per request
    /// via `?timeout-ms=` or the `x-timeout-ms` header.
    pub default_timeout_ms: u64,
    /// Base transpile options for every session; requests may override
    /// `router`, `seed` and `layout-trials`.
    pub options: TranspileOptions,
    /// Admission limit: circuits with more gates are refused with 422
    /// before any transpilation work. `None` admits any size.
    pub max_gates: Option<usize>,
    /// Admission limit: circuits declaring more qubits are refused with 422
    /// before any transpilation work (device capacity still applies on top).
    /// `None` admits any width the device fits.
    pub max_qubits: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            devices: vec![Device::montreal()],
            workers: 4,
            queue_depth: 64,
            default_timeout_ms: 60_000,
            options: TranspileOptions::new(),
            max_gates: None,
            max_qubits: None,
        }
    }
}

/// A connection waiting in the queue. `accepted_at` anchors both the
/// queue-wait metric and the request deadline.
struct Conn {
    stream: TcpStream,
    accepted_at: Instant,
}

/// The bounded hand-off from the acceptor to the handler workers: the
/// queued connections in arrival order behind one mutex, and a condvar on
/// which idle workers wait. Each push wakes one worker; closing wakes all.
#[derive(Default)]
struct ConnQueue {
    pending: Mutex<Pending>,
    available: Condvar,
}

#[derive(Default)]
struct Pending {
    conns: VecDeque<Conn>,
    /// Set once the acceptor is done: the workers drain `conns`, then end.
    closed: bool,
}

impl ConnQueue {
    /// Queues `conn` and wakes one idle worker, or hands `conn` back when
    /// `capacity` connections are already waiting.
    fn push(&self, conn: Conn, capacity: usize) -> Result<(), Conn> {
        let mut pending = self.lock();
        if pending.conns.len() >= capacity {
            return Err(conn);
        }
        pending.conns.push_back(conn);
        drop(pending);
        self.available.notify_one();
        Ok(())
    }

    /// The oldest queued connection, waiting while the queue is open and
    /// empty; `None` once it is closed and drained.
    fn pop(&self) -> Option<Conn> {
        let mut pending = self.lock();
        loop {
            if let Some(conn) = pending.conns.pop_front() {
                return Some(conn);
            }
            if pending.closed {
                return None;
            }
            pending = self
                .available
                .wait(pending)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn lock(&self) -> MutexGuard<'_, Pending> {
        // A deque and a flag, neither left half-updated by a panic (nothing
        // under the lock panics), so recovering from poison is sound.
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Closes the queue when dropped, and wakes every waiting worker.
struct CloseOnDrop<'a>(&'a ConnQueue);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.lock().closed = true;
        self.0.available.notify_all();
    }
}

/// State shared between the acceptor and the handler workers.
struct Shared {
    /// One session per device, found by `session.device().name()`.
    sessions: Vec<Transpiler>,
    /// Connections in the queue: counted up before each push, down on a
    /// refusal or a pop.
    queue_depth: AtomicUsize,
    queue_capacity: usize,
    metrics: Mutex<ServerMetrics>,
    default_timeout_ms: u64,
    workers: usize,
    /// `ServeConfig::{max_qubits, max_gates}`, applied by the session.
    limits: Limits,
    /// Handler panics caught by a worker's loop, each of which dropped its
    /// one connection (see [`worker_loop`]).
    worker_restarts: AtomicU64,
    started: Instant,
    /// Unix timestamp of [`Server::bind`], reported by `/metrics`.
    started_at_epoch_seconds: u64,
    /// Source of server-assigned request ids (`serve-<n>`).
    next_request_id: AtomicU64,
    /// Serializes `?trace=1` requests: the trace recorder is process-wide,
    /// so at most one request records at a time.
    trace_serial: Mutex<()>,
    /// The span-table JSON of the most recent traced request (`/trace`).
    last_trace: Mutex<Option<String>>,
}

/// Requests the server stop accepting and drain; cloneable across threads.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    /// Where a connection wakes the acceptor out of its blocking `accept`.
    wake: SocketAddr,
}

impl ShutdownHandle {
    /// Triggers graceful shutdown: the acceptor stops, queued requests
    /// drain, then [`Server::run`] returns.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
        // The acceptor drops the wake-up connection unread. Once it has
        // gone, the connect is refused, which is just as good.
        let _ = TcpStream::connect_timeout(&self.wake, WAKE_TIMEOUT);
    }

    fn requested(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// The address a shutdown connects to: the bound one, with an unspecified
/// IP (`0.0.0.0`, `::`) replaced by the loopback address of its family.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// A shed connection waiting on the linger thread for its client's EOF.
struct Lingering {
    stream: TcpStream,
    deadline: Instant,
}

/// A bound (but not yet running) daemon.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Shared,
    shutdown: ShutdownHandle,
}

impl Server {
    /// Binds the listener and builds one [`Transpiler`] session per device.
    ///
    /// # Errors
    ///
    /// I/O errors from binding; an invalid config (no devices, duplicate
    /// device names) is reported as [`std::io::ErrorKind::InvalidInput`].
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        if config.devices.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "at least one device is required",
            ));
        }
        let mut sessions: Vec<Transpiler> = Vec::new();
        for device in &config.devices {
            if sessions.iter().any(|s| s.device().name() == device.name()) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("duplicate device {:?}", device.name()),
                ));
            }
            sessions.push(Transpiler::new(device.clone(), config.options.clone()));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            shared: Shared {
                sessions,
                queue_depth: AtomicUsize::new(0),
                queue_capacity: config.queue_depth.max(1),
                metrics: Mutex::new(ServerMetrics::default()),
                default_timeout_ms: config.default_timeout_ms,
                workers: config.workers,
                limits: Limits {
                    max_qubits: config.max_qubits,
                    max_gates: config.max_gates,
                },
                worker_restarts: AtomicU64::new(0),
                started: Instant::now(),
                started_at_epoch_seconds: std::time::SystemTime::now()
                    .duration_since(std::time::SystemTime::UNIX_EPOCH)
                    .map(|since| since.as_secs())
                    .unwrap_or(0),
                next_request_id: AtomicU64::new(1),
                trace_serial: Mutex::new(()),
                last_trace: Mutex::new(None),
            },
            shutdown: ShutdownHandle {
                flag: Arc::new(AtomicBool::new(false)),
                wake: wake_addr(addr),
            },
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that triggers graceful shutdown from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// Runs the daemon: spawns the handler workers, accepts until shutdown
    /// is requested (via [`ShutdownHandle`] or SIGINT/SIGTERM), then closes
    /// the queue, drains in-flight requests and joins the workers.
    pub fn run(self) {
        let queue = ConnQueue::default();
        // The scope joins every daemon thread: the handler workers end once
        // the queue is closed and drained, and the linger thread once the
        // acceptor's sender is gone and the connections it holds are done.
        // The guard closes the queue when the acceptor returns, or as a
        // failed spawn's panic unwinds the scope, before the scope joins.
        std::thread::scope(|scope| {
            let _close = CloseOnDrop(&queue);
            for index in 0..self.shared.workers {
                let spawned = std::thread::Builder::new()
                    .name(format!("nassc-serve-worker-{index}"))
                    .spawn_scoped(scope, || worker_loop(&self.shared, &queue));
                if let Err(error) = spawned {
                    panic!("spawning handler worker: {error}");
                }
            }
            let watcher = scope.spawn(|| watch_signals(&self.shutdown));
            let (linger, lingering) = sync_channel(LINGER_BACKLOG);
            scope.spawn(move || linger_loop(lingering));
            self.accept_until_shutdown(&queue, &linger);
            watcher.thread().unpark();
        });
    }

    /// Blocks in `accept` and queues each connection as it arrives, until
    /// shutdown is requested.
    fn accept_until_shutdown(&self, queue: &ConnQueue, linger: &SyncSender<Lingering>) {
        loop {
            let accepted = self.listener.accept();
            // A shutdown wakes the blocked `accept` with a connection of its
            // own. That one, and any client racing the shutdown, is dropped
            // like the rest of the backlog.
            if self.shutdown.requested() {
                return;
            }
            let Ok((stream, _)) = accepted else {
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                continue;
            };
            let conn = Conn {
                stream,
                accepted_at: Instant::now(),
            };
            self.shared.queue_depth.fetch_add(1, Ordering::Relaxed);
            if let Err(conn) = queue.push(conn, self.shared.queue_capacity) {
                self.shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
                lock_metrics(&self.shared).rejected_busy += 1;
                reject(&self.shared, linger, conn.stream, 429, "queue full");
            }
        }
    }
}

/// Turns SIGINT/SIGTERM into a shutdown. glibc's `signal` installs its
/// handler with `SA_RESTART`, so a signal does not interrupt the acceptor's
/// blocking `accept`; this thread checks [`signal::signalled`] instead and
/// wakes the acceptor as [`ShutdownHandle::shutdown`] does. The acceptor
/// unparks it on exit.
fn watch_signals(shutdown: &ShutdownHandle) {
    while !shutdown.requested() {
        if signal::signalled() {
            shutdown.shutdown();
            return;
        }
        std::thread::park_timeout(SIGNAL_CHECK);
    }
}

/// Keeps each shed connection open until its client's EOF, reading at most
/// [`LINGER_MAX_BYTES`] and stopping at its deadline, then closes it. One
/// thread serves every shed connection in arrival order; each deadline is
/// absolute, so the whole backlog is done [`LINGER_TIMEOUT`] after the last.
fn linger_loop(lingering: Receiver<Lingering>) {
    for Lingering { stream, deadline } in lingering {
        let reader = DeadlineReader {
            stream: &stream,
            deadline,
        };
        let _ = std::io::copy(
            &mut reader.take(LINGER_MAX_BYTES as u64),
            &mut std::io::sink(),
        );
    }
}

fn lock_metrics(shared: &Shared) -> std::sync::MutexGuard<'_, ServerMetrics> {
    // Metrics are monotone counters and histograms — no invariant spans two
    // fields — so a panic mid-update (the only poison source) leaves them
    // usable. Recover instead of cascading the panic into every request.
    shared
        .metrics
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Writes a bare error response from the acceptor (a shed connection never
/// reaches the queue).
fn reject(
    shared: &Shared,
    linger: &SyncSender<Lingering>,
    mut stream: TcpStream,
    status: u16,
    message: &str,
) {
    lock_metrics(shared).count_response(status);
    let _ = Response::text(status, format!("{message}\n")).write_to(&mut stream);
    // Closing a socket with unread input resets the connection, and the
    // reset can discard the response before the client reads it. The
    // request has usually not arrived yet, so half-close and hand the
    // socket to the linger thread to read it: the acceptor never waits on a
    // client.
    let _ = stream.shutdown(Shutdown::Write);
    let lingering = Lingering {
        stream,
        deadline: Instant::now() + LINGER_TIMEOUT,
    };
    if let Err(TrySendError::Full(Lingering { mut stream, .. })) = linger.try_send(lingering) {
        // Drain up to 64 KiB that has already arrived, without waiting.
        let _ = stream.set_nonblocking(true);
        let mut sink = [0u8; 4096];
        for _ in 0..LINGER_MAX_BYTES / sink.len() {
            if !matches!(stream.read(&mut sink), Ok(n) if n > 0) {
                break;
            }
        }
    }
}

/// One handler worker: drain the queue until it is closed and empty. A
/// panic that escapes every containment boundary drops its one connection
/// and is counted; the worker then takes the next one. Unwinding past the
/// shared state is sound: its locks recover from poison and its counters
/// are monotone.
fn worker_loop(shared: &Shared, queue: &ConnQueue) {
    while let Some(conn) = queue.pop() {
        shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
        let served = std::panic::catch_unwind(AssertUnwindSafe(|| handle_connection(shared, conn)));
        if served.is_err() {
            shared.worker_restarts.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Serves exactly one request on the connection (`Connection: close`).
fn handle_connection(shared: &Shared, conn: Conn) {
    // Deliberately *outside* every containment boundary but the worker
    // loop's: arming `handler:panic` drops the connection unanswered.
    nassc::circuit::failpoints::hit("handler");
    let Conn {
        mut stream,
        accepted_at,
    } = conn;
    let queue_ms = 1000.0 * accepted_at.elapsed().as_secs_f64();
    lock_metrics(shared).queue_wait.record(queue_ms);
    let _ = stream.set_nodelay(true);

    let mut reader = BufReader::new(DeadlineReader {
        stream: &stream,
        deadline: Instant::now() + FIRST_BYTE_TIMEOUT,
    });
    let started = reader.fill_buf().map(|_| ());
    reader.get_mut().deadline = Instant::now() + SOCKET_READ_TIMEOUT;
    let request = started
        .map_err(|e| HttpError::new(408, format!("reading request: {e}")))
        .and_then(|()| read_request(&mut reader, MAX_BODY_BYTES, &mut &stream));
    // Free the 8 KiB read buffer before the request is served.
    drop(reader);
    let request_id = request_id(shared, request.as_ref().ok());
    let (method, path) = match &request {
        Ok(request) => (request.method.clone(), request.path.clone()),
        Err(_) => ("-".to_string(), "-".to_string()),
    };
    let response = match request {
        Ok(request) => route(shared, &request, accepted_at, queue_ms, &request_id),
        Err(HttpError { status, message }) => Response::text(status, format!("{message}\n")),
    };
    let response = response.header("X-Request-Id", &request_id);
    // Count before writing: a client that has read this response may ask
    // another worker for `/metrics` at once, and must find it counted.
    lock_metrics(shared).count_response(response.status);
    let _ = response.write_to(&mut stream);
    // The access log: one JSON object per request on stderr, keyed by the
    // same id the client saw in `X-Request-Id`. Stderr is unbuffered and
    // `eprintln!` writes each formatted piece on its own, so the line is
    // built first and printed whole: one write per request.
    let line = format!(
        "{{\"request_id\":\"{}\",\"method\":\"{}\",\"path\":\"{}\",\"status\":{},\
         \"queue_ms\":{:.3},\"elapsed_ms\":{:.3}}}\n",
        json_escape(&request_id),
        json_escape(&method),
        json_escape(&path),
        response.status,
        queue_ms,
        1000.0 * accepted_at.elapsed().as_secs_f64(),
    );
    eprint!("{line}");
}

/// Reads a socket under one deadline for everything read through it: before
/// each read, the time left becomes the socket's read timeout, and once it
/// has run out every read fails with [`std::io::ErrorKind::TimedOut`].
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// The correlation id for a request: an inbound `x-request-id` header when
/// it is non-empty printable ASCII of sane length (it is echoed into a
/// response header and the access log), else a server-assigned `serve-<n>`.
fn request_id(shared: &Shared, request: Option<&Request>) -> String {
    if let Some(id) = request.and_then(|request| request.header("x-request-id")) {
        if !id.is_empty() && id.len() <= 128 && id.bytes().all(|b| b.is_ascii_graphic()) {
            return id.to_string();
        }
    }
    format!(
        "serve-{}",
        shared.next_request_id.fetch_add(1, Ordering::Relaxed)
    )
}

/// Dispatches a parsed request to an endpoint.
fn route(
    shared: &Shared,
    request: &Request,
    accepted_at: Instant,
    queue_ms: f64,
    request_id: &str,
) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => Response::text(200, "ok\n"),
        ("GET", "/version") => Response::json(200, version_json()),
        ("GET", "/trace") => trace_endpoint(shared),
        ("GET", "/metrics") => {
            // Content negotiation: Prometheus exposition text on
            // `Accept: text/plain`, the JSON document otherwise. Both read
            // the same counters and histogram buckets.
            if request
                .header("accept")
                .is_some_and(|accept| accept.contains("text/plain"))
            {
                Response::text(200, metrics_prometheus(shared))
            } else {
                Response::json(200, metrics_json(shared))
            }
        }
        ("POST", "/transpile") => {
            transpile_endpoint(shared, request, accepted_at, queue_ms, request_id)
        }
        ("GET" | "HEAD", "/transpile") => {
            Response::text(405, "use POST with an OpenQASM 2.0 body\n")
        }
        _ => Response::text(404, format!("no route for {}\n", request.path)),
    }
}

/// The `/version` document: crate version plus compiled-in feature flags.
fn version_json() -> String {
    format!(
        "{{\"name\":\"nassc-serve\",\"version\":\"{}\",\"features\":{{\"failpoints\":{}}}}}",
        env!("CARGO_PKG_VERSION"),
        cfg!(feature = "failpoints"),
    )
}

/// `GET /trace` — the span table of the most recent `?trace=1` request.
fn trace_endpoint(shared: &Shared) -> Response {
    let last = shared
        .last_trace
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    match last {
        Some(json) => Response::json(200, json),
        None => Response::text(
            404,
            "no traced request yet; POST /transpile?trace=1 first\n",
        ),
    }
}

/// The deadline for a request: `?timeout-ms=`, then the `x-timeout-ms`
/// header, then the server default.
fn deadline_ms(shared: &Shared, request: &Request) -> Result<u64, Response> {
    let raw = request
        .query_param("timeout-ms")
        .or_else(|| request.header("x-timeout-ms"));
    match raw {
        None => Ok(shared.default_timeout_ms),
        Some(raw) => raw.parse::<u64>().map_err(|_| {
            Response::text(
                400,
                format!("invalid timeout-ms {raw:?}: expected integer milliseconds\n"),
            )
        }),
    }
}

/// `POST /transpile` — QASM in, transpiled QASM plus metric headers out.
///
/// With `?trace=1` the transpile runs under the process-wide trace recorder
/// and the response becomes a JSON envelope `{"request_id", "status",
/// "trace", "qasm"|"error"}` carrying the per-span table alongside the
/// usual `X-*` headers. Traced requests serialize on one lock (the recorder
/// is process-wide), and spans of untraced requests running concurrently on
/// other workers may appear in the table — attribution is best-effort, the
/// transpiled output is not affected.
fn transpile_endpoint(
    shared: &Shared,
    request: &Request,
    accepted_at: Instant,
    queue_ms: f64,
    request_id: &str,
) -> Response {
    let traced = matches!(request.query_param("trace"), Some("1" | "true"));
    if !traced {
        return transpile_core(shared, request, accepted_at, queue_ms);
    }

    let serial = shared
        .trace_serial
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    nassc::trace::enable();
    let response = transpile_core(shared, request, accepted_at, queue_ms);
    let report = nassc::trace::take_report();
    nassc::trace::disable();
    drop(serial);

    let spans = report.span_table_json();
    let escaped_id = json_escape(request_id);
    *shared
        .last_trace
        .lock()
        .unwrap_or_else(PoisonError::into_inner) = Some(format!(
        "{{\"request_id\":\"{escaped_id}\",\"trace\":{spans}}}"
    ));
    let body_key = if response.status == 200 {
        "qasm"
    } else {
        "error"
    };
    let envelope = format!(
        "{{\"request_id\":\"{escaped_id}\",\"status\":{},\"trace\":{spans},\"{body_key}\":\"{}\"}}",
        response.status,
        json_escape(&response.body),
    );
    let mut wrapped = Response::json(response.status, envelope);
    wrapped.headers = response.headers;
    wrapped
}

/// The untraced `/transpile` pipeline: option parsing, the session call
/// (which parses the body, unless it knows it, and applies the admission
/// limits), and the metric headers.
fn transpile_core(
    shared: &Shared,
    request: &Request,
    accepted_at: Instant,
    queue_ms: f64,
) -> Response {
    let timeout_ms = match deadline_ms(shared, request) {
        Ok(ms) => ms,
        Err(response) => return response,
    };
    let total = Duration::from_millis(timeout_ms);
    if accepted_at.elapsed() >= total {
        lock_metrics(shared).deadline_expired += 1;
        return Response::text(
            504,
            format!("deadline of {timeout_ms} ms expired after {queue_ms:.1} ms in queue\n"),
        )
        .header("X-Error-Kind", "deadline");
    }

    let session = match request.query_param("device") {
        None => &shared.sessions[0],
        Some(wanted) => match shared.sessions.iter().find(|s| s.device().name() == wanted) {
            Some(session) => session,
            None => {
                let known: Vec<&str> = shared.sessions.iter().map(|s| s.device().name()).collect();
                return Response::text(
                    400,
                    format!(
                        "unknown device {wanted:?}: this server has {}\n",
                        known.join(", ")
                    ),
                );
            }
        },
    };

    let mut options = session.options().clone();
    match request.query_param("router") {
        None => {}
        Some("sabre") => options = options.router(RouterKind::Sabre),
        Some("nassc") => options = options.router(RouterKind::Nassc),
        Some(other) => {
            return Response::text(
                400,
                format!("unknown router {other:?}: expected sabre or nassc\n"),
            );
        }
    }
    if let Some(raw) = request.query_param("seed") {
        match raw.parse::<u64>() {
            Ok(seed) => options = options.seed(seed),
            Err(_) => return Response::text(400, format!("invalid seed {raw:?}\n")),
        }
    }
    if let Some(raw) = request.query_param("layout-trials") {
        match raw.parse::<usize>() {
            Ok(trials) if (1..=MAX_LAYOUT_TRIALS).contains(&trials) => {
                options = options.layout_trials(trials);
            }
            _ => {
                return Response::text(
                    400,
                    format!("invalid layout-trials {raw:?}: expected 1 to {MAX_LAYOUT_TRIALS}\n"),
                );
            }
        }
    }

    // Whatever remains of the request deadline becomes the session's
    // budget, the parse included: it aborts cooperatively mid-routing when
    // it expires.
    let options = options.deadline(total.saturating_sub(accepted_at.elapsed()));

    // The clock covers the whole session call: a new body's parse and
    // admission checks, the cache lookups and any transpilation work.
    let started = Instant::now();
    let result = match session.transpile_to_qasm(&request.body, &options, shared.limits) {
        Ok(result) => result,
        Err(e) => {
            let (status, kind) = match e.kind() {
                ErrorKind::Parse => (400, "parse"),
                ErrorKind::Limits => (422, "limits"),
                ErrorKind::TooWide => (422, "too-wide"),
                ErrorKind::Pass => (500, "pass"),
                ErrorKind::Internal => (500, "internal"),
                ErrorKind::Deadline => (504, "deadline"),
            };
            if e.kind() == ErrorKind::Deadline {
                lock_metrics(shared).deadline_expired += 1;
            }
            return Response::text(status, format!("{e}\n")).header("X-Error-Kind", kind);
        }
    };
    let elapsed_ms = 1000.0 * started.elapsed().as_secs_f64();
    lock_metrics(shared).transpile_latency.record(elapsed_ms);
    Response::qasm(result.qasm)
        .header("X-Device", session.device().name())
        .header("X-Elapsed-Ms", format!("{elapsed_ms:.3}"))
        .header("X-Queue-Ms", format!("{queue_ms:.3}"))
        .header("X-Cx-Count", result.cx_count.to_string())
        .header("X-Swap-Count", result.swap_count.to_string())
        .header("X-Depth", result.depth.to_string())
        .header("X-Chosen-Trial", result.chosen_layout_trial.to_string())
        .header("X-Cache-Hits", result.cache.hits().to_string())
        .header("X-Cache-Misses", result.cache.misses().to_string())
}

/// Formats a histogram as a JSON object fragment.
fn histogram_json(histogram: &metrics::LatencyHistogram) -> String {
    format!(
        "{{\"count\":{},\"mean_ms\":{:.3},\"p50_ms\":{:.3},\"p99_ms\":{:.3},\"max_ms\":{:.3}}}",
        histogram.count(),
        histogram.mean_ms(),
        histogram.quantile_ms(0.50),
        histogram.quantile_ms(0.99),
        histogram.max_ms(),
    )
}

/// The `/metrics` JSON document.
fn metrics_json(shared: &Shared) -> String {
    let metrics = lock_metrics(shared).clone();
    let statuses: Vec<String> = metrics
        .responses_by_status
        .iter()
        .map(|(status, count)| format!("\"{status}\":{count}"))
        .collect();
    let devices: Vec<String> = shared
        .sessions
        .iter()
        .map(|session| {
            let stats = session.cache_stats();
            let usage = session.cache_usage();
            format!(
                concat!(
                    "{{\"name\":\"{}\",\"qubits\":{},\"cache_hits\":{},",
                    "\"cache_misses\":{},\"cache_resets\":{},\"cache_bytes\":{},",
                    "\"cache_entries\":{},\"cache_evicted_entries\":{},",
                    "\"cache_evicted_slots\":{}}}"
                ),
                json_escape(session.device().name()),
                session.device().num_qubits(),
                stats.hits(),
                stats.misses(),
                session.cache_resets(),
                usage.bytes,
                usage.entries,
                usage.evicted_entries,
                usage.evicted_slots,
            )
        })
        .collect();
    let pool = nassc::worker_pool_status();
    format!(
        concat!(
            "{{\"uptime_seconds\":{:.3},",
            "\"started_at_epoch_seconds\":{},",
            "\"trace_events_dropped\":{},",
            "\"queue\":{{\"depth\":{},\"capacity\":{},\"workers\":{}}},",
            "\"responses_by_status\":{{{}}},",
            "\"total_responses\":{},",
            "\"error_responses\":{},",
            "\"rejected_busy\":{},",
            "\"deadline_expired\":{},",
            "\"worker_restarts\":{},",
            "\"transpile_latency_ms\":{},",
            "\"queue_wait_ms\":{},",
            "\"pool\":{{\"workers\":{},\"batches_completed\":{},",
            "\"items_completed\":{},\"jobs_panicked\":{}}},",
            "\"devices\":[{}]}}"
        ),
        shared.started.elapsed().as_secs_f64(),
        shared.started_at_epoch_seconds,
        nassc::trace::events_dropped_total(),
        shared.queue_depth.load(Ordering::Relaxed),
        shared.queue_capacity,
        shared.workers,
        statuses.join(","),
        metrics.total_responses(),
        metrics.error_responses(),
        metrics.rejected_busy,
        metrics.deadline_expired,
        shared.worker_restarts.load(Ordering::Relaxed),
        histogram_json(&metrics.transpile_latency),
        histogram_json(&metrics.queue_wait),
        pool.workers,
        pool.batches_completed,
        pool.items_completed,
        pool.jobs_panicked,
        devices.join(","),
    )
}

/// One Prometheus histogram: cumulative `_bucket{le=...}` lines over the
/// same raw buckets the JSON quantiles are computed from, plus sum/count.
fn prometheus_histogram(out: &mut String, name: &str, histogram: &metrics::LatencyHistogram) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    for (bound, count) in histogram.buckets() {
        cumulative += count;
        if bound.is_infinite() {
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
        } else {
            let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
        }
    }
    let _ = writeln!(out, "{name}_sum {}", histogram.sum_ms());
    let _ = writeln!(out, "{name}_count {}", histogram.count());
}

/// The `/metrics` document in Prometheus text exposition format — the same
/// counters and histogram buckets as [`metrics_json`], renamed to the
/// `nassc_serve_*` metric namespace.
fn metrics_prometheus(shared: &Shared) -> String {
    use std::fmt::Write as _;
    let metrics = lock_metrics(shared).clone();
    let pool = nassc::worker_pool_status();
    let mut out = String::new();
    let mut gauge = |name: &str, value: String| {
        let _ = writeln!(out, "# TYPE nassc_serve_{name} gauge");
        let _ = writeln!(out, "nassc_serve_{name} {value}");
    };
    gauge(
        "uptime_seconds",
        format!("{:.3}", shared.started.elapsed().as_secs_f64()),
    );
    gauge(
        "started_at_epoch_seconds",
        shared.started_at_epoch_seconds.to_string(),
    );
    gauge(
        "trace_events_dropped",
        nassc::trace::events_dropped_total().to_string(),
    );
    gauge(
        "queue_depth",
        shared.queue_depth.load(Ordering::Relaxed).to_string(),
    );
    gauge("queue_capacity", shared.queue_capacity.to_string());
    gauge("handler_workers", shared.workers.to_string());
    gauge("rejected_busy_total", metrics.rejected_busy.to_string());
    gauge(
        "deadline_expired_total",
        metrics.deadline_expired.to_string(),
    );
    gauge(
        "worker_restarts_total",
        shared.worker_restarts.load(Ordering::Relaxed).to_string(),
    );
    gauge("pool_workers", pool.workers.to_string());
    gauge("pool_batches_completed", pool.batches_completed.to_string());
    gauge("pool_items_completed", pool.items_completed.to_string());
    gauge("pool_jobs_panicked", pool.jobs_panicked.to_string());

    let _ = writeln!(out, "# TYPE nassc_serve_responses_total counter");
    for (status, count) in &metrics.responses_by_status {
        let _ = writeln!(
            out,
            "nassc_serve_responses_total{{status=\"{status}\"}} {count}"
        );
    }
    prometheus_histogram(
        &mut out,
        "nassc_serve_transpile_latency_ms",
        &metrics.transpile_latency,
    );
    prometheus_histogram(&mut out, "nassc_serve_queue_wait_ms", &metrics.queue_wait);
    let _ = writeln!(out, "# TYPE nassc_serve_device_cache_hits counter");
    let _ = writeln!(out, "# TYPE nassc_serve_device_cache_misses counter");
    let _ = writeln!(out, "# TYPE nassc_serve_device_cache_resets counter");
    let _ = writeln!(out, "# TYPE nassc_serve_device_cache_bytes gauge");
    let _ = writeln!(out, "# TYPE nassc_serve_device_cache_entries gauge");
    let _ = writeln!(
        out,
        "# TYPE nassc_serve_device_cache_evicted_entries counter"
    );
    let _ = writeln!(out, "# TYPE nassc_serve_device_cache_evicted_slots counter");
    for session in &shared.sessions {
        let stats = session.cache_stats();
        let usage = session.cache_usage();
        let label = json_escape(session.device().name());
        let values = [
            ("hits", stats.hits()),
            ("misses", stats.misses()),
            ("resets", session.cache_resets()),
            ("bytes", usage.bytes as u64),
            ("entries", usage.entries as u64),
            ("evicted_entries", usage.evicted_entries),
            ("evicted_slots", usage.evicted_slots),
        ];
        for (name, value) in values {
            let _ = writeln!(
                out,
                "nassc_serve_device_cache_{name}{{device=\"{label}\"}} {value}"
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    /// A client that sends a byte every 50 ms never trips a per-read
    /// timeout; the request's deadline (300 ms here) still cuts it off with
    /// a 408, although the request it trickles is well formed.
    #[test]
    fn trickled_request_times_out_at_its_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            for byte in b"GET /health HTTP/1.1\r\n\r\n" {
                std::thread::sleep(Duration::from_millis(50));
                if stream.write_all(&[*byte]).is_err() {
                    break;
                }
            }
        });
        let (stream, _) = listener.accept().unwrap();
        let started = Instant::now();
        let mut reader = BufReader::new(DeadlineReader {
            stream: &stream,
            deadline: started + Duration::from_millis(300),
        });
        let error = read_request(&mut reader, MAX_BODY_BYTES, &mut std::io::sink()).unwrap_err();
        assert_eq!(error.status, 408, "{error}");
        assert!(started.elapsed() >= Duration::from_millis(300));
        drop(reader);
        drop(stream);
        client.join().unwrap();
    }
}

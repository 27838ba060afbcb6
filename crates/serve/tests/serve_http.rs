//! End-to-end tests of the daemon over real TCP connections: the endpoint
//! surface, the HTTP error taxonomy derived from `ErrorKind`, backpressure
//! (429), deadlines (504) and graceful shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use nassc::{qasm, Device, TranspileOptions, Transpiler};
use nassc_serve::{client, ServeConfig, Server};

#[cfg(unix)]
mod common;

const BELL: &str = r#"OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[0];
cx q[0],q[1];
"#;

const GHZ5: &str = r#"OPENQASM 2.0;
include "qelib1.inc";
qreg q[5];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
cx q[2],q[3];
cx q[3],q[4];
"#;

/// Boots a daemon on an ephemeral port; returns its address and a closure
/// that shuts it down and joins the server thread.
fn boot(config: ServeConfig) -> (String, impl FnOnce()) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().to_string();
    let shutdown = server.shutdown_handle();
    let running = std::thread::spawn(move || server.run());
    (addr, move || {
        shutdown.shutdown();
        running.join().expect("server thread");
    })
}

fn default_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        devices: vec![Device::montreal(), Device::linear(4)],
        workers: 2,
        queue_depth: 16,
        default_timeout_ms: 60_000,
        options: TranspileOptions::new(),
        max_gates: None,
        max_qubits: None,
    }
}

#[test]
fn bind_rejects_empty_and_duplicate_device_lists() {
    for devices in [
        Vec::new(),
        vec![Device::montreal(), Device::linear(4), Device::montreal()],
    ] {
        let count = devices.len();
        let Err(error) = Server::bind(ServeConfig {
            devices,
            ..default_config()
        }) else {
            panic!("bind must refuse a list of {count} devices");
        };
        assert_eq!(error.kind(), std::io::ErrorKind::InvalidInput, "{error}");
    }
}

#[test]
fn health_and_unknown_routes() {
    let (addr, stop) = boot(default_config());
    let health = client::get(&addr, "/health").expect("health");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "ok\n");

    let missing = client::get(&addr, "/nope").expect("missing");
    assert_eq!(missing.status, 404);

    let wrong_method = client::get(&addr, "/transpile").expect("method");
    assert_eq!(wrong_method.status, 405);
    stop();
}

#[test]
fn transpile_matches_direct_session_call() {
    let (addr, stop) = boot(default_config());
    let response = client::post(&addr, "/transpile", GHZ5).expect("transpile");
    assert_eq!(response.status, 200, "body: {}", response.body);

    let direct = Transpiler::new(Device::montreal(), TranspileOptions::new());
    let result = direct.transpile_qasm(GHZ5).expect("direct");
    let expected = qasm::export(&result.circuit).expect("export");
    assert_eq!(
        response.body, expected,
        "daemon must be a transparent wrapper"
    );

    // The per-request metric headers agree with the direct result.
    assert_eq!(
        response.header("x-cx-count").unwrap(),
        result.cx_count().to_string()
    );
    assert_eq!(
        response.header("x-swap-count").unwrap(),
        result.swap_count.to_string()
    );
    assert_eq!(
        response.header("x-depth").unwrap(),
        result.depth().to_string()
    );
    assert_eq!(response.header("x-device").unwrap(), "montreal");
    assert!(response.header("x-elapsed-ms").is_some());
    assert!(response.header("x-queue-ms").is_some());
    stop();
}

#[test]
fn device_and_option_query_params() {
    let (addr, stop) = boot(default_config());

    // Named device + explicit options, checked against a direct call.
    let response = client::post(
        &addr,
        "/transpile?device=linear:4&router=sabre&seed=7&layout-trials=2",
        BELL,
    )
    .expect("transpile");
    assert_eq!(response.status, 200, "body: {}", response.body);
    let direct = Transpiler::new(Device::linear(4), TranspileOptions::new());
    let options = TranspileOptions::new()
        .router(nassc::RouterKind::Sabre)
        .seed(7)
        .layout_trials(2);
    let result = direct
        .transpile_qasm_with(BELL, &options)
        .expect("direct with options");
    assert_eq!(
        response.body,
        qasm::export(&result.circuit).expect("export")
    );
    assert_eq!(response.header("x-device").unwrap(), "linear:4");

    // Unknown device names the served ones.
    let unknown = client::post(&addr, "/transpile?device=grid:3x3", BELL).expect("unknown");
    assert_eq!(unknown.status, 400);
    assert!(unknown.body.contains("montreal"), "body: {}", unknown.body);

    // Bad option values are 400s, not silent defaults.
    for query in [
        "/transpile?router=qiskit",
        "/transpile?seed=banana",
        "/transpile?layout-trials=0",
        "/transpile?layout-trials=65",
        "/transpile?timeout-ms=soon",
    ] {
        let bad = client::post(&addr, query, BELL).expect("bad option");
        assert_eq!(bad.status, 400, "{query} should be rejected");
    }
    // The layout-trials bound is inclusive.
    let most = client::post(&addr, "/transpile?layout-trials=64", BELL).expect("64 trials");
    assert_eq!(most.status, 200, "body: {}", most.body);
    stop();
}

#[test]
fn error_taxonomy_maps_kinds_to_statuses() {
    let (addr, stop) = boot(default_config());

    // Parse failure -> 400, every time: a text that does not parse is
    // never indexed.
    for _ in 0..3 {
        let parse = client::post(&addr, "/transpile", "OPENQASM 2.0;\nbogus").expect("parse");
        assert_eq!(parse.status, 400);
        assert_eq!(parse.header("x-error-kind").unwrap(), "parse");
    }

    // Wider than the device -> 422 on the 4-qubit device.
    let wide = client::post(&addr, "/transpile?device=linear:4", GHZ5).expect("wide");
    assert_eq!(wide.status, 422);
    assert_eq!(wide.header("x-error-kind").unwrap(), "too-wide");
    assert!(wide.body.contains("5 qubits"), "body: {}", wide.body);
    stop();
}

/// A 61-byte source declaring four billion qubits is refused by the parser
/// before anything is allocated for them, so the daemon answers 400 and
/// keeps serving.
#[test]
fn oversized_register_is_a_parse_error_and_the_daemon_survives() {
    let (addr, stop) = boot(default_config());
    let source = r#"OPENQASM 2.0; include "qelib1.inc"; qreg q[4000000000]; h q;"#;
    let refused = client::post(&addr, "/transpile", source).expect("wide register");
    assert_eq!(refused.status, 400, "body: {}", refused.body);
    assert_eq!(refused.header("x-error-kind").unwrap(), "parse");
    let health = client::get(&addr, "/health").expect("health");
    assert_eq!(health.status, 200);
    stop();
}

/// A NaN or infinite gate parameter is refused by the parser as a 400, not
/// carried into synthesis, where a non-unitary matrix would panic (a 500).
#[test]
fn non_finite_parameter_is_a_parse_error_and_the_daemon_survives() {
    let (addr, stop) = boot(default_config());
    for angle in ["0/0", "1e400"] {
        let source = format!(r#"OPENQASM 2.0; include "qelib1.inc"; qreg q[1]; rz({angle}) q[0];"#);
        let refused = client::post(&addr, "/transpile", &source).expect("non-finite angle");
        assert_eq!(refused.status, 400, "body: {}", refused.body);
        assert_eq!(refused.header("x-error-kind").unwrap(), "parse");
        assert!(
            refused.body.contains("non-finite angle"),
            "body: {}",
            refused.body
        );
    }
    let health = client::get(&addr, "/health").expect("health");
    assert_eq!(health.status, 200);
    stop();
}

/// A parameter nested 10,000 parentheses deep is refused by the parser as
/// a 400 before its recursion can overflow the worker's stack, which would
/// abort the daemon. The real binary runs it, so an abort fails the test.
#[cfg(unix)]
#[test]
fn deeply_nested_expression_is_a_parse_error_and_the_daemon_survives() {
    let source = format!(
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\nrz({}pi{}) q[0];\n",
        "(".repeat(10_000),
        ")".repeat(10_000)
    );
    assert_eq!(source.len(), 20_060);
    let daemon = common::Daemon::spawn(&["--device", "montreal", "--workers", "1"], &[]);
    // Signal before asserting anything, so that no failure leaves the
    // daemon running.
    let refused = client::post(&daemon.addr, "/transpile", &source);
    let health = client::get(&daemon.addr, "/health");
    let (status, stderr) = daemon.terminate();
    let refused = refused.expect("nested expression");
    assert_eq!(refused.status, 400, "body: {}", refused.body);
    assert_eq!(refused.header("x-error-kind"), Some("parse"));
    let body = &refused.body;
    assert!(body.contains("nested more than 64 levels"), "body: {body}");
    assert_eq!(health.expect("health").status, 200);
    assert!(status.success(), "stderr: {stderr}");
}

#[test]
fn full_queue_sheds_load_with_429() {
    // No workers: nothing drains the queue, so with depth 1 the second
    // connection must be rejected by the acceptor. Depth 0 is clamped to 1,
    // so there too the first connection is queued, not refused.
    for queue_depth in [1, 0] {
        let (addr, stop) = boot(ServeConfig {
            workers: 0,
            queue_depth,
            ..default_config()
        });
        let parked = TcpStream::connect(&addr).expect("first connection");
        let rejected = client::post(&addr, "/transpile", BELL).expect("second connection");
        assert_eq!(rejected.status, 429, "queue_depth {queue_depth}");
        // The acceptor takes connections in arrival order, so a refusal of
        // the first would already be waiting on its socket.
        parked
            .set_read_timeout(Some(Duration::from_millis(100)))
            .expect("read timeout");
        let mut byte = [0u8; 1];
        let unanswered = parked.peek(&mut byte).is_err();
        assert!(
            unanswered,
            "queue_depth {queue_depth}: first connection answered"
        );
        stop();
    }
}

/// Queued connections reach the worker in arrival order, and a shutdown
/// still serves them. The only worker holds a request whose body has not
/// arrived (its `100 Continue` shows the worker took it), two requests fill
/// the queue behind it (a third is shed with 429) and the server is told to
/// stop. Once the body arrives, all three are served, and their
/// server-assigned request ids rise in the order they connected.
#[test]
fn queued_connections_drain_in_arrival_order_after_shutdown() {
    let server = Server::bind(ServeConfig {
        workers: 1,
        queue_depth: 2,
        ..default_config()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let shutdown = server.shutdown_handle();
    let running = std::thread::spawn(move || server.run());

    let mut busy = TcpStream::connect(&addr).expect("busy connection");
    busy.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let head = format!(
        "POST /transpile HTTP/1.1\r\nhost: {addr}\r\nexpect: 100-continue\r\n\
         content-length: {}\r\n\r\n",
        BELL.len()
    );
    busy.write_all(head.as_bytes()).expect("send the head");
    let mut interim = [0u8; 25];
    busy.read_exact(&mut interim).expect("100 Continue");
    assert_eq!(&interim, b"HTTP/1.1 100 Continue\r\n\r\n");

    let queued: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut stream = TcpStream::connect(&addr).expect("queued connection");
            let request = format!("GET /health HTTP/1.1\r\nhost: {addr}\r\n\r\n");
            stream.write_all(request.as_bytes()).expect("send request");
            stream
        })
        .collect();
    // The acceptor takes connections in arrival order, so a 429 for the
    // next one means the two before it fill the queue.
    let shed = client::get(&addr, "/health").expect("shed request");
    assert_eq!(shed.status, 429, "body: {}", shed.body);
    shutdown.shutdown();
    busy.write_all(BELL.as_bytes()).expect("send the body");

    let ids: Vec<u64> = std::iter::once(busy)
        .chain(queued)
        .map(|mut stream| {
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            let mut response = String::new();
            stream
                .read_to_string(&mut response)
                .expect("read the response");
            assert!(
                response.starts_with("HTTP/1.1 200"),
                "response: {response:?}"
            );
            let id = response
                .lines()
                .find_map(|line| line.strip_prefix("X-Request-Id: serve-"))
                .unwrap_or_else(|| panic!("no server-assigned id: {response:?}"));
            id.trim().parse().expect("numeric request id")
        })
        .collect();
    assert!(
        ids.windows(2).all(|pair| pair[0] < pair[1]),
        "ids in connect order: {ids:?}"
    );
    running.join().expect("server thread");
}

/// The shed client sends its request only after the 429 has arrived, in two
/// writes. Closing the socket right after the response would answer the
/// first write with a reset, failing the second write or the read.
#[test]
fn shed_connection_reads_429_after_sending_its_request_late() {
    let (addr, stop) = boot(ServeConfig {
        workers: 0,
        queue_depth: 1,
        ..default_config()
    });
    // The listener's backlog is FIFO: the first connection fills the queue.
    let _parked = TcpStream::connect(&addr).expect("first connection");
    let mut shed = TcpStream::connect(&addr).expect("second connection");
    shed.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut first_byte = [0u8; 1];
    assert_eq!(shed.peek(&mut first_byte).expect("429 arrives"), 1);
    // The pauses only let a server that closes right after its response do
    // so, and its reset reach the client, before each write.
    std::thread::sleep(Duration::from_millis(20));

    let head = format!(
        "POST /transpile HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\
         content-length: {}\r\n\r\n",
        BELL.len()
    );
    shed.write_all(head.as_bytes()).expect("first write");
    std::thread::sleep(Duration::from_millis(20));
    shed.write_all(BELL.as_bytes()).expect("second write");
    let mut response = String::new();
    shed.read_to_string(&mut response)
        .expect("read the response");
    assert!(
        response.starts_with("HTTP/1.1 429"),
        "response: {response:?}"
    );
    drop(shed);
    stop();
}

/// A client that connects and sends nothing holds a worker for at most the
/// 1 s first-byte wait, not the 10 s per-read timeout: with both workers
/// taken by silent sockets, `/health` still answers within seconds, and
/// each silent socket reads a 408.
#[test]
fn idle_connections_release_their_workers() {
    let (addr, stop) = boot(default_config());
    // The acceptor queues in arrival order, so the two workers dequeue the
    // silent sockets before `/health`.
    let idle: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(&addr).expect("idle connection"))
        .collect();
    let started = Instant::now();
    let health = client::get(&addr, "/health").expect("health");
    let waited = started.elapsed();
    assert_eq!(health.status, 200);
    assert!(
        waited < Duration::from_secs(5),
        "/health waited {:.3} s",
        waited.as_secs_f64()
    );
    for mut socket in idle {
        socket
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut response = String::new();
        socket.read_to_string(&mut response).expect("read the 408");
        assert!(
            response.starts_with("HTTP/1.1 408"),
            "response: {response:?}"
        );
    }
    stop();
}

#[test]
fn admission_limits_refuse_oversized_circuits_with_422() {
    let (addr, stop) = boot(ServeConfig {
        max_gates: Some(3),
        max_qubits: Some(3),
        ..default_config()
    });

    // GHZ5 exceeds both limits (5 qubits, 5 gates): refused before any
    // transpilation work, with the taxonomy header, on every arrival.
    for _ in 0..3 {
        let refused = client::post(&addr, "/transpile", GHZ5).expect("oversized");
        assert_eq!(refused.status, 422, "body: {}", refused.body);
        assert_eq!(refused.header("x-error-kind").unwrap(), "limits");
        assert!(refused.body.contains("at most 3"), "body: {}", refused.body);
    }

    // Bell (2 qubits, 2 gates) is within limits and still transpiles, also
    // when its third arrival is found by its text.
    let admitted: Vec<_> = (0..3)
        .map(|_| client::post(&addr, "/transpile", BELL).expect("within limits"))
        .collect();
    for response in &admitted {
        assert_eq!(response.status, 200, "body: {}", response.body);
        assert_eq!(response.body, admitted[0].body);
    }
    assert_eq!(admitted[2].header("x-cache-hits"), Some("3"));
    stop();
}

/// The execution-deadline path: a slow-site failpoint stretches routing past
/// the request's `?timeout-ms=`, so the transpile aborts mid-flight with a
/// 504 (the queue-wait check alone would have passed).
#[cfg(feature = "failpoints")]
#[test]
fn deadline_expiring_during_routing_is_504() {
    use nassc::circuit::failpoints::{arm, disarm_all, Action};

    let (addr, stop) = boot(default_config());
    arm(
        "layout_trial",
        Action::Delay(Duration::from_millis(400)),
        1.0,
    );
    let expired = client::post(&addr, "/transpile?timeout-ms=150", GHZ5).expect("expired");
    disarm_all();
    assert_eq!(expired.status, 504, "body: {}", expired.body);
    assert_eq!(expired.header("x-error-kind").unwrap(), "deadline");
    assert!(
        expired.body.contains("transpile exceeded"),
        "must expire mid-flight, not in the queue: {}",
        expired.body
    );
    stop();
}

#[test]
fn expired_deadline_is_504_without_transpiling() {
    let (addr, stop) = boot(default_config());
    // A zero deadline has always expired by the time a worker dequeues.
    let expired = client::post(&addr, "/transpile?timeout-ms=0", BELL).expect("expired");
    assert_eq!(expired.status, 504);
    assert_eq!(expired.header("x-error-kind").unwrap(), "deadline");
    stop();
}

#[test]
fn metrics_report_counts_and_histograms() {
    let (addr, stop) = boot(default_config());
    client::post(&addr, "/transpile", BELL).expect("ok request");
    client::post(&addr, "/transpile", "garbage").expect("bad request");

    let metrics = client::get(&addr, "/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    let body = &metrics.body;
    assert!(body.contains("\"200\":1"), "metrics: {body}");
    assert!(body.contains("\"400\":1"), "metrics: {body}");
    assert!(
        body.contains("\"transpile_latency_ms\":{\"count\":1"),
        "metrics: {body}"
    );
    assert!(body.contains("\"name\":\"montreal\""), "metrics: {body}");
    assert!(body.contains("\"cache_misses\""), "metrics: {body}");
    assert!(body.contains("\"queue\":{\"depth\":"), "metrics: {body}");
    stop();
}

/// The value of an unlabeled Prometheus metric line `name <value>`.
fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        rest.strip_prefix(' ')?.trim().parse().ok()
    })
}

/// The first JSON number following `"key":`.
fn json_number(body: &str, key: &str) -> Option<f64> {
    let marker = format!("\"{key}\":");
    let start = body.find(&marker)? + marker.len();
    let digits: String = body[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    digits.parse().ok()
}

#[test]
fn request_ids_are_assigned_and_inbound_ids_are_echoed() {
    let (addr, stop) = boot(default_config());

    let assigned = client::post(&addr, "/transpile", BELL).expect("assigned");
    let id = assigned.header("x-request-id").expect("id header");
    assert!(id.starts_with("serve-"), "assigned id: {id}");

    let echoed = client::request_with_headers(
        &addr,
        "POST",
        "/transpile",
        &[("x-request-id", "corr-abc.123")],
        BELL,
    )
    .expect("echoed");
    assert_eq!(echoed.header("x-request-id").unwrap(), "corr-abc.123");

    // An oversized inbound id is replaced by a server-assigned one.
    let oversized = "x".repeat(200);
    let replaced = client::request_with_headers(
        &addr,
        "POST",
        "/transpile",
        &[("x-request-id", &oversized)],
        BELL,
    )
    .expect("replaced");
    let id = replaced.header("x-request-id").expect("id header");
    assert!(id.starts_with("serve-"), "sanitized id: {id}");

    // Error responses carry ids too.
    let missing = client::get(&addr, "/nope").expect("missing");
    assert!(missing.header("x-request-id").is_some());
    stop();
}

#[test]
fn version_reports_crate_version_and_features() {
    let (addr, stop) = boot(default_config());
    let version = client::get(&addr, "/version").expect("version");
    assert_eq!(version.status, 200);
    assert!(version.body.contains("\"name\":\"nassc-serve\""));
    assert_eq!(
        client::json_str_field(&version.body, "version").as_deref(),
        Some(env!("CARGO_PKG_VERSION"))
    );
    let expected = if cfg!(feature = "failpoints") {
        "\"failpoints\":true"
    } else {
        "\"failpoints\":false"
    };
    assert!(version.body.contains(expected), "body: {}", version.body);
    stop();
}

#[test]
fn metrics_json_and_prometheus_render_the_same_numbers() {
    let (addr, stop) = boot(default_config());
    for _ in 0..3 {
        let ok = client::post(&addr, "/transpile", BELL).expect("transpile");
        assert_eq!(ok.status, 200);
    }

    let json = client::get(&addr, "/metrics").expect("json metrics");
    assert_eq!(json.status, 200);
    let prom =
        client::request_with_headers(&addr, "GET", "/metrics", &[("accept", "text/plain")], "")
            .expect("prometheus metrics");
    assert_eq!(prom.status, 200);
    assert!(
        prom.body.starts_with("# TYPE nassc_serve_"),
        "not text exposition: {}",
        prom.body
    );

    // Compare metrics that the interleaved /metrics requests themselves do
    // not move: the transpile latency histogram and static capacities.
    let json_latency = json
        .body
        .split("\"transpile_latency_ms\":")
        .nth(1)
        .expect("latency in json");
    assert_eq!(json_number(json_latency, "count"), Some(3.0));
    assert_eq!(
        prom_value(&prom.body, "nassc_serve_transpile_latency_ms_count"),
        Some(3.0)
    );
    assert!(prom
        .body
        .contains("nassc_serve_transpile_latency_ms_bucket{le=\"+Inf\"} 3"));
    assert_eq!(
        json_number(&json.body, "capacity"),
        prom_value(&prom.body, "nassc_serve_queue_capacity"),
    );
    assert_eq!(
        json_number(&json.body, "started_at_epoch_seconds"),
        prom_value(&prom.body, "nassc_serve_started_at_epoch_seconds"),
    );
    assert_eq!(
        json_number(&json.body, "trace_events_dropped"),
        prom_value(&prom.body, "nassc_serve_trace_events_dropped"),
    );
    assert_eq!(json_number(&json.body, "trace_events_dropped"), Some(0.0));
    assert_eq!(
        json_number(&json.body, "worker_restarts"),
        prom_value(&prom.body, "nassc_serve_worker_restarts_total"),
    );
    // Cumulative montreal cache hits, misses and resets, and what its
    // caches hold, agree across renderings.
    let montreal_json = json
        .body
        .split("\"name\":\"montreal\"")
        .nth(1)
        .expect("montreal in json");
    assert_eq!(
        json_number(montreal_json, "cache_hits"),
        prom_value(
            &prom.body,
            "nassc_serve_device_cache_hits{device=\"montreal\"}"
        ),
    );
    assert_eq!(
        json_number(montreal_json, "cache_misses"),
        prom_value(
            &prom.body,
            "nassc_serve_device_cache_misses{device=\"montreal\"}"
        ),
    );
    assert_eq!(
        json_number(montreal_json, "cache_resets"),
        prom_value(
            &prom.body,
            "nassc_serve_device_cache_resets{device=\"montreal\"}"
        ),
    );
    assert_eq!(json_number(montreal_json, "cache_resets"), Some(0.0));
    for name in ["bytes", "entries", "evicted_entries", "evicted_slots"] {
        let prom_name = format!("nassc_serve_device_cache_{name}{{device=\"montreal\"}}");
        let value = json_number(montreal_json, &format!("cache_{name}"));
        assert_eq!(value, prom_value(&prom.body, &prom_name), "{name}");
    }
    assert_eq!(json_number(montreal_json, "cache_entries"), Some(1.0));
    assert!(json_number(montreal_json, "cache_bytes") > Some(0.0));
    stop();
}

#[test]
fn fresh_seeds_leave_the_cache_bytes_flat() {
    let (addr, stop) = boot(default_config());
    let cache_bytes = || {
        let metrics = client::get(&addr, "/metrics").expect("metrics");
        let montreal = metrics.body.split("\"name\":\"montreal\"").nth(1);
        json_number(montreal.expect("montreal in json"), "cache_bytes").expect("cache_bytes")
    };
    let mut after_sixteen = 0.0;
    for seed in 1..=200 {
        let path = format!("/transpile?seed={seed}");
        let response = client::post(&addr, &path, BELL).expect("fresh seed");
        assert_eq!(response.status, 200, "seed {seed}: {}", response.body);
        if seed == 16 {
            after_sixteen = cache_bytes();
        }
    }
    let after = cache_bytes();
    assert!(
        after <= after_sixteen,
        "cache_bytes {after} after 200 fresh seeds, {after_sixteen} after 16"
    );
    assert_eq!(client::get(&addr, "/health").expect("health").status, 200);
    stop();
}

#[test]
fn traced_requests_return_span_tables_that_round_trip() {
    let (addr, stop) = boot(default_config());

    // Nothing traced yet.
    let empty = client::get(&addr, "/trace").expect("trace");
    assert_eq!(empty.status, 404);

    let untraced = client::post(&addr, "/transpile?seed=11", GHZ5).expect("untraced");
    assert_eq!(untraced.status, 200);

    let traced = client::request_with_headers(
        &addr,
        "POST",
        "/transpile?seed=11&trace=1",
        &[("x-request-id", "traced-1")],
        GHZ5,
    )
    .expect("traced");
    assert_eq!(traced.status, 200, "body: {}", traced.body);
    assert_eq!(traced.header("x-request-id").unwrap(), "traced-1");
    assert!(traced.body.contains("\"request_id\":\"traced-1\""));
    assert!(traced.body.contains("\"spans\":["), "body: {}", traced.body);
    for span in ["job", "qasm_parse", "qasm_export"] {
        assert!(
            traced.body.contains(&format!("\"name\":\"{span}\"")),
            "span table must include the {span} span: {}",
            traced.body
        );
    }
    // The traced transpile returns the exact bytes of the untraced one —
    // tracing is observational only.
    assert_eq!(
        client::json_str_field(&traced.body, "qasm").as_deref(),
        Some(untraced.body.as_str()),
        "traced vs untraced qasm mismatch"
    );
    // The metric headers survive the envelope.
    assert!(traced.header("x-cx-count").is_some());

    // /trace replays the last traced request's table.
    let replay = client::get(&addr, "/trace").expect("trace replay");
    assert_eq!(replay.status, 200);
    assert!(replay.body.contains("\"request_id\":\"traced-1\""));
    assert!(replay.body.contains("\"spans\":["));
    stop();
}

/// A repeat request is served from the session's stored result: the second
/// POST parses, indexes its body, replays and stores; the third and fourth
/// are found by their body and send the stored text. The daemon runs as its
/// own process, so the traced request's table holds its spans alone.
#[cfg(unix)]
#[test]
fn repeat_requests_return_the_stored_result_byte_for_byte() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../benchmarks/qasm/qft_n8.qasm"
    );
    let source = std::fs::read_to_string(path).expect("corpus file");
    let daemon = common::Daemon::spawn(&["--device", "montreal", "--workers", "1"], &[]);
    // Signal before asserting anything, so that no failure leaves the
    // daemon running.
    let responses: Vec<_> = [
        "/transpile",
        "/transpile",
        "/transpile?trace=1",
        "/transpile",
    ]
    .iter()
    .map(|path| client::post(&daemon.addr, path, &source))
    .collect();
    let (status, stderr) = daemon.terminate();
    assert!(status.success(), "stderr: {stderr}");
    let responses: Vec<_> = responses
        .into_iter()
        .map(|response| response.expect("request"))
        .collect();
    for response in &responses {
        assert_eq!(response.status, 200, "body: {}", response.body);
    }
    let cold = &responses[0];
    assert_eq!(cold.header("x-cache-hits"), Some("0"));
    for repeat in &responses[1..] {
        assert_eq!(repeat.header("x-cache-hits"), Some("3"));
        assert_eq!(repeat.header("x-cache-misses"), Some("0"));
        for name in ["x-cx-count", "x-depth", "x-swap-count", "x-chosen-trial"] {
            assert!(cold.header(name).is_some(), "the cold response has {name}");
            assert_eq!(repeat.header(name), cold.header(name), "{name}");
        }
    }
    assert_eq!(responses[1].body, cold.body);
    assert_eq!(responses[3].body, cold.body);

    let traced = &responses[2].body;
    assert_eq!(
        client::json_str_field(traced, "qasm").as_deref(),
        Some(cold.body.as_str())
    );
    assert!(traced.contains("\"name\":\"job\""), "trace: {traced}");
    // The second request indexed its body and exported the text the
    // session keeps, so the third is found by its body and sends that text:
    // it neither parses nor exports.
    for computed in [
        "qasm_parse",
        "route_from",
        "decompose",
        "post_optimize",
        "qasm_export",
    ] {
        assert!(
            !traced.contains(&format!("\"name\":\"{computed}\"")),
            "a stored hit runs no {computed}: {traced}"
        );
    }
}

/// A client that sends `Expect: 100-continue` holds its body back until it
/// reads `100 Continue` (curl does so for bodies over 1 MiB, and waits 1 s
/// for it): the interim arrives after the head alone, and the body then
/// gets its 200.
#[test]
fn expect_100_continue_is_answered_before_the_body_is_sent() {
    let (addr, stop) = boot(default_config());
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("read timeout");
    let head = format!(
        "POST /transpile HTTP/1.1\r\nhost: {addr}\r\nexpect: 100-continue\r\n\
         content-length: {}\r\n\r\n",
        BELL.len()
    );
    stream.write_all(head.as_bytes()).expect("send the head");
    let interim = b"HTTP/1.1 100 Continue\r\n\r\n";
    let mut read = vec![0; interim.len()];
    stream
        .read_exact(&mut read)
        .expect("100 Continue within 2 s of the head");
    assert_eq!(read, interim, "{:?}", String::from_utf8_lossy(&read));

    stream.write_all(BELL.as_bytes()).expect("send the body");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read the response");
    assert!(
        response.starts_with("HTTP/1.1 200 OK\r\n"),
        "response: {response:?}"
    );
    stop();
}

#[test]
fn graceful_shutdown_drains_and_stops_listening() {
    let (addr, stop) = boot(default_config());
    let ok = client::post(&addr, "/transpile", BELL).expect("before shutdown");
    assert_eq!(ok.status, 200);
    stop(); // returns only after the queue drained and workers joined
    assert!(
        TcpStream::connect(&addr).is_err(),
        "listener must be closed after shutdown"
    );
}

/// `run` returns after `shutdown` even when no client ever connects: the
/// wake-up connection reaches an acceptor bound to the unspecified address
/// through loopback.
#[test]
fn shutdown_wakes_an_idle_acceptor_bound_to_an_unspecified_address() {
    let server = Server::bind(ServeConfig {
        addr: "0.0.0.0:0".to_string(),
        ..default_config()
    })
    .expect("bind");
    let shutdown = server.shutdown_handle();
    let (returned, run_returned) = mpsc::channel();
    let running = std::thread::spawn(move || {
        server.run();
        let _ = returned.send(());
    });
    shutdown.shutdown();
    run_returned
        .recv_timeout(Duration::from_secs(10))
        .expect("run must return after shutdown");
    running.join().expect("server thread");
}

/// SIGTERM reaches the real binary's blocked acceptor: after one request the
/// daemon drains, reports it on stderr and exits 0.
#[cfg(unix)]
#[test]
fn sigterm_stops_the_daemon_binary() {
    let daemon = common::Daemon::spawn(&["--device", "linear:4", "--workers", "1"], &[]);
    // Signal before asserting anything, so that no failure leaves the
    // daemon running.
    let response = client::post(&daemon.addr, "/transpile", BELL);
    let (status, stderr) = daemon.terminate();
    let response = response.expect("request");
    assert_eq!(response.status, 200, "body: {}", response.body);
    assert!(status.success(), "stderr: {stderr}");
    assert!(stderr.contains("drained and stopped"), "stderr: {stderr}");
}

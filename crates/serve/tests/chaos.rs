//! The fault-injection suite: with `NASSC_FAIL`-style failpoints armed
//! inside the daemon (panicking routing steps, slow layout trials, poisoned
//! cache commits, panicking handlers), the process must never crash, every
//! fault must surface as a taxonomy status (500/504/422) or at worst a
//! dropped connection, and once the faults stop every response must be
//! byte-identical to an unfaulted reference.
//!
//! Run with `cargo test -p nassc-serve --features failpoints --test chaos`.
//! Failpoint configuration is process-global, so every test serializes on
//! one lock and disarms on exit (including panicking exits).
#![cfg(feature = "failpoints")]

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use nassc::circuit::failpoints::{arm, disarm_all, total_injections, Action};
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

/// Serializes tests (failpoints are process-global) and guarantees a
/// disarmed process on entry and exit, even when the test fails.
static FAILPOINTS: Mutex<()> = Mutex::new(());

struct FailpointSession(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for FailpointSession {
    fn drop(&mut self) {
        disarm_all();
    }
}

fn failpoint_session() -> FailpointSession {
    let guard = FAILPOINTS.lock().unwrap_or_else(PoisonError::into_inner);
    disarm_all();
    FailpointSession(guard)
}

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

fn config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        ..ServeConfig::default()
    }
}

#[test]
fn route_step_panic_is_a_500_and_recovery_is_bit_identical() {
    let _session = failpoint_session();
    let (addr, stop) = boot(config(2));

    let reference = client::post(&addr, "/transpile", GHZ5).expect("reference");
    assert_eq!(reference.status, 200, "body: {}", reference.body);

    arm("route_step", Action::Panic, 1.0);
    let faulted = client::post(&addr, "/transpile", GHZ5).expect("faulted request");
    assert_eq!(faulted.status, 500, "body: {}", faulted.body);
    assert_eq!(faulted.header("x-error-kind").unwrap(), "internal");
    assert!(
        faulted.body.contains("contained panic"),
        "body: {}",
        faulted.body
    );

    disarm_all();
    let recovered = client::post(&addr, "/transpile", GHZ5).expect("recovered request");
    assert_eq!(recovered.status, 200, "body: {}", recovered.body);
    assert_eq!(
        recovered.body, reference.body,
        "post-fault responses must be byte-identical to the unfaulted reference"
    );
    assert_eq!(client::get(&addr, "/health").expect("health").status, 200);
    stop();
}

/// A `parse` panic on a body the session has not indexed is contained by
/// the session as a 500 `internal`. The body is not indexed, so its next
/// POST parses again and gets the unfaulted bytes.
#[test]
fn parse_panic_on_a_new_body_is_a_500_and_leaves_it_unindexed() {
    let _session = failpoint_session();
    let (addr, stop) = boot(config(1));

    let reference = client::post(&addr, "/transpile", BELL).expect("reference");
    assert_eq!(reference.status, 200, "body: {}", reference.body);
    // The same circuit, in a body the session has not seen.
    let variant = format!("// a new body\n{BELL}");
    arm("parse", Action::Panic, 1.0);
    let faulted = client::post(&addr, "/transpile", &variant).expect("faulted request");
    disarm_all();
    assert_eq!(faulted.status, 500, "body: {}", faulted.body);
    assert_eq!(faulted.header("x-error-kind").unwrap(), "internal");
    assert!(
        faulted.body.contains("contained panic in parse"),
        "body: {}",
        faulted.body
    );

    // The next POST parses, finds the circuit's entry and indexes the body;
    // the one after is found by its body.
    for parses in [1, 0] {
        let traced = client::post(&addr, "/transpile?trace=1", &variant).expect("traced");
        assert_eq!(traced.status, 200, "body: {}", traced.body);
        assert_eq!(
            client::json_str_field(&traced.body, "qasm").as_deref(),
            Some(reference.body.as_str()),
            "post-fault responses must be byte-identical to the unfaulted reference"
        );
        assert_eq!(span_count(&traced.body, "qasm_parse"), parses);
    }
    assert_eq!(client::get(&addr, "/health").expect("health").status, 200);
    stop();
}

/// The `count` of span `name` in a `?trace=1` envelope's table (0 when the
/// table has no such row).
fn span_count(envelope: &str, name: &str) -> u64 {
    let row = format!("{{\"name\":\"{name}\",\"count\":");
    envelope.find(&row).map_or(0, |at| {
        let digits = &envelope[at + row.len()..];
        let end = digits
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(digits.len());
        digits[..end].parse().expect("a span count")
    })
}

#[test]
fn slow_routing_expires_the_deadline_mid_flight_as_504() {
    let _session = failpoint_session();
    let (addr, stop) = boot(config(2));

    // The delay fires inside the layout trial, after the queue-wait check
    // passed: the remaining-deadline budget expires at the next routing
    // checkpoint and the transpile aborts mid-flight.
    arm(
        "layout_trial",
        Action::Delay(Duration::from_millis(400)),
        1.0,
    );
    let expired = client::post(&addr, "/transpile?timeout-ms=150", GHZ5).expect("expired");
    assert_eq!(expired.status, 504, "body: {}", expired.body);
    assert_eq!(expired.header("x-error-kind").unwrap(), "deadline");

    disarm_all();
    let fine = client::post(&addr, "/transpile?timeout-ms=60000", GHZ5).expect("after disarm");
    assert_eq!(fine.status, 200, "body: {}", fine.body);

    let metrics = client::get(&addr, "/metrics").expect("metrics");
    assert!(
        metrics.body.contains("\"deadline_expired\":1"),
        "metrics: {}",
        metrics.body
    );
    stop();
}

#[test]
fn handler_panic_restarts_the_worker_and_service_continues() {
    let _session = failpoint_session();
    // One worker: the panicking request unwinds the only worker's handler,
    // so the next request can only succeed if that worker kept serving.
    let (addr, stop) = boot(config(1));

    let reference = client::post(&addr, "/transpile", BELL).expect("reference");
    assert_eq!(reference.status, 200, "body: {}", reference.body);

    arm("handler", Action::Panic, 1.0);
    // The handler panics before writing a response; the client sees the
    // connection drop. That request is lost — but only that one.
    let dropped = client::post(&addr, "/transpile", BELL);
    assert!(dropped.is_err(), "worker death must drop the connection");

    disarm_all();
    let recovered = client::post(&addr, "/transpile", BELL).expect("worker kept serving");
    assert_eq!(recovered.status, 200, "body: {}", recovered.body);
    assert_eq!(recovered.body, reference.body);

    let metrics = client::get(&addr, "/metrics").expect("metrics");
    assert!(
        metrics.body.contains("\"worker_restarts\":1"),
        "metrics: {}",
        metrics.body
    );
    stop();
}

/// The `handler` failpoint fires once per request, so a panic on a
/// kept-alive connection's second request drops that connection alone: a
/// second kept-alive connection, held by the other worker, keeps serving on
/// the same socket, and `/metrics` counts one worker restart.
#[test]
fn handler_panic_on_a_kept_alive_second_request_drops_only_that_connection() {
    let _session = failpoint_session();
    let (addr, stop) = boot(config(2));
    let keep_open = || {
        let stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        BufReader::new(stream)
    };
    let exchange = |conn: &mut BufReader<TcpStream>, path: &str, body: &str| {
        let request = format!(
            "POST {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        conn.get_mut().write_all(request.as_bytes())?;
        client::read_response(conn)
    };
    let (mut doomed, mut survivor) = (keep_open(), keep_open());
    for conn in [&mut doomed, &mut survivor] {
        let first = exchange(conn, "/transpile", BELL).expect("first request");
        assert_eq!(first.status, 200, "body: {}", first.body);
        assert_eq!(first.header("connection"), Some("keep-alive"));
    }

    arm("handler", Action::Panic, 1.0);
    let dropped = exchange(&mut doomed, "/transpile", BELL);
    disarm_all();
    assert!(dropped.is_err(), "the panicking request got {dropped:?}");
    let mut rest = Vec::new();
    let _ = doomed.read_to_end(&mut rest);
    assert!(rest.is_empty(), "bytes after the panic: {rest:?}");

    let again = exchange(&mut survivor, "/transpile", BELL).expect("the other connection");
    assert_eq!(again.status, 200, "body: {}", again.body);
    assert_eq!(again.header("connection"), Some("keep-alive"));
    let metrics = client::get(&addr, "/metrics").expect("metrics");
    assert!(
        metrics.body.contains("\"worker_restarts\":1,"),
        "metrics: {}",
        metrics.body
    );
    drop(survivor);
    stop();
}

/// Handler panics while the queue drains at shutdown: `run` still returns,
/// the in-flight request still completes, and each queued request drops.
#[test]
fn handler_panics_while_draining_at_shutdown_do_not_hang_run() {
    let _session = failpoint_session();
    let server = Server::bind(ServeConfig {
        queue_depth: 3,
        ..config(1)
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let shutdown = server.shutdown_handle();
    let (returned, run_returned) = mpsc::channel();
    let running = std::thread::spawn(move || {
        server.run();
        let _ = returned.send(());
    });

    // The only worker holds the first request in a 500 ms layout trial;
    // once the delay has fired, the worker is past the `handler` site.
    arm(
        "layout_trial",
        Action::Delay(Duration::from_millis(500)),
        1.0,
    );
    let delays_before = total_injections();
    let first = {
        let addr = addr.clone();
        std::thread::spawn(move || client::post(&addr, "/transpile", GHZ5))
    };
    let give_up = Instant::now() + Duration::from_secs(10);
    while total_injections() == delays_before {
        assert!(
            Instant::now() < give_up,
            "the layout-trial delay never fired"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    arm("handler", Action::Panic, 1.0);
    let request = format!(
        "POST /transpile HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\
         content-length: {}\r\n\r\n{BELL}",
        BELL.len()
    );
    let queued: Vec<TcpStream> = (0..3)
        .map(|_| {
            let mut stream = TcpStream::connect(&addr).expect("queued connection");
            stream.write_all(request.as_bytes()).expect("send request");
            stream
        })
        .collect();
    // The listener's backlog is FIFO, so a 429 for a fourth connection
    // means the three before it fill the queue.
    let shed = client::get(&addr, "/health").expect("shed request");
    assert_eq!(shed.status, 429, "body: {}", shed.body);
    shutdown.shutdown();

    let finished = run_returned.recv_timeout(Duration::from_secs(10));
    disarm_all();
    finished.expect("run must return while handlers panic at shutdown");
    running.join().expect("server thread");
    let first = first.join().expect("first client").expect("first request");
    assert_eq!(first.status, 200, "body: {}", first.body);
    for mut stream in queued {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        assert!(
            response.is_empty(),
            "a panicking handler must drop its request: {response:?}"
        );
    }
}

#[test]
fn cache_commit_panic_poisons_the_session_and_recovery_resets_caches() {
    let _session = failpoint_session();
    let (addr, stop) = boot(config(1));

    let reference = client::post(&addr, "/transpile", BELL).expect("reference");
    assert_eq!(reference.status, 200, "body: {}", reference.body);

    // The commit panic fires *after* the response is computed: the request
    // still succeeds, but the session lock is poisoned behind it.
    arm("cache_commit", Action::Panic, 1.0);
    let during = client::post(&addr, "/transpile", GHZ5).expect("during fault");
    assert_eq!(during.status, 200, "body: {}", during.body);

    disarm_all();
    // The next request recovers the lock, resets the caches (cold again)
    // and still answers byte-identically.
    let recovered = client::post(&addr, "/transpile", BELL).expect("post-poison");
    assert_eq!(recovered.status, 200, "body: {}", recovered.body);
    assert_eq!(recovered.body, reference.body);

    let metrics = client::get(&addr, "/metrics").expect("metrics");
    assert!(
        metrics.body.contains("\"cache_resets\":1"),
        "metrics: {}",
        metrics.body
    );
    let text =
        client::request_with_headers(&addr, "GET", "/metrics", &[("accept", "text/plain")], "")
            .expect("prometheus metrics");
    assert!(
        text.body
            .contains("\nnassc_serve_device_cache_resets{device=\"montreal\"} 1\n"),
        "metrics: {}",
        text.body
    );
    stop();
}

/// A stored hit has no slot to fill, so it commits nothing: a `cache_commit`
/// panic armed for it never fires, and the session keeps its caches.
#[test]
fn a_stored_hit_commits_nothing_and_keeps_the_caches() {
    let _session = failpoint_session();
    let (addr, stop) = boot(config(1));

    // Cold, then the replay that stores its text.
    for _ in 0..2 {
        let response = client::post(&addr, "/transpile", BELL).expect("warm-up");
        assert_eq!(response.status, 200, "body: {}", response.body);
    }
    arm("cache_commit", Action::Panic, 1.0);
    let injected_before = total_injections();
    let stored = client::post(&addr, "/transpile", BELL).expect("stored hit");
    let injected = total_injections() - injected_before;
    disarm_all();
    assert_eq!(stored.status, 200, "body: {}", stored.body);
    assert_eq!(injected, 0, "a stored hit reached the commit failpoint");

    // Still a stored hit: the distance, prepared and layout caches all hit.
    let again = client::post(&addr, "/transpile", BELL).expect("after the hit");
    assert_eq!(again.status, 200, "body: {}", again.body);
    assert_eq!(again.body, stored.body);
    assert_eq!(again.header("x-cache-hits"), Some("3"));
    assert_eq!(again.header("x-cache-misses"), Some("0"));
    let metrics = client::get(&addr, "/metrics").expect("metrics");
    assert!(
        metrics.body.contains("\"cache_resets\":0"),
        "metrics: {}",
        metrics.body
    );
    stop();
}

#[test]
fn five_percent_chaos_contains_every_fault_and_recovers_bit_identically() {
    let _session = failpoint_session();
    let (addr, stop) = boot(config(2));

    // Unfaulted references first.
    let circuits = [("bell", BELL), ("ghz5", GHZ5)];
    let references: Vec<String> = circuits
        .iter()
        .map(|(name, source)| {
            let response = client::post(&addr, "/transpile", source).expect(name);
            assert_eq!(response.status, 200, "{name}: {}", response.body);
            response.body
        })
        .collect();

    // Arm the pipeline sites at a 5% fault rate (plus slow trials and the
    // occasional worker death) and sweep. Each round asks for a new seed, so
    // it searches a layout, routes and commits its winner: a repeat would be
    // a stored hit, which reaches none of those sites.
    let injected_before = total_injections();
    arm("route_step", Action::Panic, 0.05);
    arm(
        "layout_trial",
        Action::Delay(Duration::from_millis(5)),
        0.10,
    );
    arm("cache_commit", Action::Panic, 0.05);
    arm("handler", Action::Panic, 0.02);
    let mut statuses = Vec::new();
    let mut dropped = 0u32;
    for round in 0..30 {
        let (_, source) = circuits[round % circuits.len()];
        let path = format!("/transpile?timeout-ms=30000&seed={}", 100 + round);
        match client::post(&addr, &path, source) {
            Ok(response) => statuses.push(response.status),
            // A worker died mid-request (handler site): contained — the
            // connection drops but the daemon keeps serving.
            Err(_) => dropped += 1,
        }
    }
    disarm_all();
    assert!(
        total_injections() > injected_before,
        "the sweep must actually inject faults"
    );
    for status in &statuses {
        assert!(
            matches!(status, 200 | 500 | 504 | 422),
            "unexpected status {status} under chaos (statuses: {statuses:?}, dropped: {dropped})"
        );
    }

    // Every post-chaos response is byte-identical to its reference.
    for ((name, source), reference) in circuits.iter().zip(&references) {
        let response = client::post(&addr, "/transpile", source).expect(name);
        assert_eq!(response.status, 200, "{name}: {}", response.body);
        assert_eq!(
            &response.body, reference,
            "{name}: post-chaos response must be byte-identical"
        );
    }
    assert_eq!(client::get(&addr, "/health").expect("health").status, 200);
    stop();
}

/// The daemon binary logs a panic as one JSON line, so its stderr stays one
/// JSON object per line, bar its two `nassc-serve …` banners, even when a
/// session panics with `RUST_BACKTRACE` set. The failpoint is armed through
/// the child's environment, so this test shares no state with the others.
#[cfg(unix)]
#[test]
fn panics_keep_the_access_log_one_json_object_per_line() {
    let daemon = common::Daemon::spawn(
        &["--workers", "1"],
        &[
            ("NASSC_FAIL", "route_step:panic:1.0"),
            ("RUST_BACKTRACE", "1"),
        ],
    );
    // Signal before asserting anything, so that no failure leaves the
    // daemon running.
    let response = client::post(&daemon.addr, "/transpile", BELL);
    let (status, log) = daemon.terminate();
    let response = response.expect("request");
    assert_eq!(response.status, 500, "body: {}", response.body);
    assert!(status.success(), "stderr: {log}");
    let lines: Vec<&str> = log
        .lines()
        .filter(|line| !line.starts_with("nassc-serve "))
        .collect();
    assert!(
        lines.iter().any(|line| {
            line.starts_with("{\"panic\":\"failpoint route_step\",\"thread\":")
                && line.contains("\"backtrace\":\"")
        }),
        "no panic line in stderr: {log}"
    );
    for line in lines {
        assert!(is_json_object(line), "not one JSON object: {line:?}");
    }
}

/// Whether `line` is exactly one JSON object.
fn is_json_object(line: &str) -> bool {
    line.trim_start().starts_with('{')
        && json_value(line).is_some_and(|rest| rest.trim().is_empty())
}

// A JSON validator, enough to tell an access-log line from a panic banner
// without a JSON dependency. Each function consumes one item from the front
// of `s`, leading whitespace included, and returns what follows it.

fn json_value(s: &str) -> Option<&str> {
    let s = s.trim_start();
    match s.chars().next()? {
        '{' => json_members(&s[1..], '}', json_member),
        '[' => json_members(&s[1..], ']', json_value),
        '"' => json_string(s),
        't' => s.strip_prefix("true"),
        'f' => s.strip_prefix("false"),
        'n' => s.strip_prefix("null"),
        _ => {
            let end = s
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(s.len());
            s[..end].parse::<f64>().ok().map(|_| &s[end..])
        }
    }
}

fn json_member(s: &str) -> Option<&str> {
    let s = json_string(s.trim_start())?;
    json_value(s.trim_start().strip_prefix(':')?)
}

/// `item (',' item)* close`, or `close` alone, after the opening bracket.
fn json_members(s: &str, close: char, item: fn(&str) -> Option<&str>) -> Option<&str> {
    if let Some(rest) = s.trim_start().strip_prefix(close) {
        return Some(rest);
    }
    let mut s = item(s)?;
    loop {
        let t = s.trim_start();
        if let Some(rest) = t.strip_prefix(close) {
            return Some(rest);
        }
        s = item(t.strip_prefix(',')?)?;
    }
}

fn json_string(s: &str) -> Option<&str> {
    let body = s.strip_prefix('"')?;
    let mut chars = body.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some(&body[i + 1..]),
            '\\' => match chars.next()?.1 {
                'u' => {
                    for _ in 0..4 {
                        chars.next().filter(|(_, c)| c.is_ascii_hexdigit())?;
                    }
                }
                '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' => {}
                _ => return None,
            },
            c if u32::from(c) < 0x20 => return None,
            _ => {}
        }
    }
    None
}

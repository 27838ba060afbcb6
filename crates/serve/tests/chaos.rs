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

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use nassc::circuit::failpoints::{arm, disarm_all, total_injections, Action};
use nassc_serve::{client, ServeConfig, Server};

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
    // occasional worker death) and sweep.
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
        match client::post(&addr, "/transpile?timeout-ms=30000", source) {
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

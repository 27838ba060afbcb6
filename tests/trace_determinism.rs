//! The tracing contract over the real pipeline: recording is observational
//! only. Traced and untraced transpiles are bit-identical at every worker
//! count, disabled-mode sites record nothing, and an enabled recording
//! window captures the documented span taxonomy (per-pass spans, layout
//! trials, routing counters, cache events). The `pool_batch` spans also
//! show what the worker pool runs: layout trials, never routing steps.
//!
//! The recorder is process-wide, so every test in this binary serializes
//! on one mutex.

use std::sync::{Mutex, MutexGuard, PoisonError};

use nassc::circuit::QuantumCircuit;
use nassc::trace::{ArgValue, TraceReport};
use nassc::{RouterKind, ThreadPool, TranspileOptions, TranspileResult, Transpiler};
use nassc_topology::CouplingMap;

fn recorder_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn sample_circuit() -> QuantumCircuit {
    let mut qc = QuantumCircuit::new(6);
    qc.h(0);
    for i in 0..5 {
        qc.cx(i, i + 1);
    }
    qc.cx(0, 5).cx(1, 4).cx(2, 5).cx(0, 3);
    qc
}

fn options_for(router: RouterKind, trials: usize) -> TranspileOptions {
    TranspileOptions::new()
        .router(router)
        .seed(7)
        .layout_trials(trials)
}

fn assert_same_result(left: &TranspileResult, right: &TranspileResult, context: &str) {
    assert_eq!(left.circuit, right.circuit, "{context}: circuit");
    assert_eq!(
        left.initial_layout, right.initial_layout,
        "{context}: initial layout"
    );
    assert_eq!(
        left.final_layout, right.final_layout,
        "{context}: final layout"
    );
    assert_eq!(left.swap_count, right.swap_count, "{context}: swap count");
    assert_eq!(
        left.chosen_layout_trial, right.chosen_layout_trial,
        "{context}: chosen trial"
    );
    assert_eq!(
        left.layout_trial_costs, right.layout_trial_costs,
        "{context}: trial costs"
    );
}

#[test]
fn traced_transpile_is_bit_identical_to_untraced() {
    let _guard = recorder_guard();
    let circuit = sample_circuit();
    let device = CouplingMap::grid(2, 3);
    for router in [RouterKind::Sabre, RouterKind::Nassc] {
        for trials in [1, 4] {
            for workers in [1, 8] {
                let options = options_for(router, trials);
                let context = format!("{router:?} trials={trials} workers={workers}");

                nassc::trace::disable();
                let untraced = Transpiler::new(device.clone(), options.clone())
                    .with_pool(ThreadPool::new(workers))
                    .transpile(&circuit)
                    .expect("untraced transpile");

                nassc::trace::enable();
                let traced = Transpiler::new(device.clone(), options.clone())
                    .with_pool(ThreadPool::new(workers))
                    .transpile(&circuit)
                    .expect("traced transpile");
                let report = nassc::trace::take_report();
                nassc::trace::disable();

                assert_same_result(&traced, &untraced, &context);
                assert!(
                    !report.events.is_empty(),
                    "{context}: tracing was enabled, events must exist"
                );
            }
        }
    }
}

#[test]
fn disabled_recorder_stays_empty_through_a_transpile() {
    let _guard = recorder_guard();
    nassc::trace::disable();
    let _ = nassc::trace::take_report();
    Transpiler::new(CouplingMap::grid(2, 3), options_for(RouterKind::Nassc, 3))
        .transpile(&sample_circuit())
        .expect("transpile");
    let report = nassc::trace::take_report();
    assert!(
        report.events.is_empty(),
        "disabled mode must record nothing, got {} events",
        report.events.len()
    );
    assert_eq!(report.events_dropped, 0);
}

#[test]
fn enabled_recorder_captures_the_span_taxonomy() {
    let _guard = recorder_guard();
    let circuit = sample_circuit();
    let session = Transpiler::new(CouplingMap::grid(2, 3), options_for(RouterKind::Nassc, 4));

    nassc::trace::enable();
    session.transpile(&circuit).expect("cold transpile");
    session.transpile(&circuit).expect("warm transpile");
    let report = nassc::trace::take_report();
    nassc::trace::disable();

    // Session phases: one resolve/commit pair per request, one job each.
    assert_eq!(report.span_count("resolve"), 2);
    assert_eq!(report.span_count("commit"), 2);
    assert_eq!(report.span_count("job"), 2);
    // Cold request: preparation and 4 layout trials; both requests expand
    // SWAPs and post-optimize.
    assert_eq!(report.span_count("prepare"), 1);
    assert_eq!(report.span_count("layout_trials"), 1);
    assert_eq!(report.span_count("layout_trial"), 4);
    assert_eq!(report.span_count("decompose"), 2, "cold + warm");
    assert_eq!(report.span_count("post_optimize"), 2, "cold + warm");
    // Warm request replays one routing pass from the cached layout.
    assert_eq!(report.span_count("route_from"), 1);
    // Routing stepped at least once and scored SWAP candidates.
    assert!(report.counter_total("route.steps") > 0);
    assert!(report.counter_total("route.swap_candidates") > 0);
    // Cache events: cold misses everything, warm hits everything.
    assert_eq!(report.counter_total("cache.distance_hit"), 1);
    assert_eq!(report.counter_total("cache.distance_miss"), 1);
    assert_eq!(report.counter_total("cache.prepared_hit"), 1);
    assert_eq!(report.counter_total("cache.prepared_miss"), 1);
    assert_eq!(report.counter_total("cache.layout_hit"), 1);
    assert_eq!(report.counter_total("cache.layout_miss"), 1);
    // Every pass executed under a span carrying its own name.
    assert!(
        report.spans().any(|span| span.name == "unroll-to-basis"),
        "per-pass spans must use the pass name"
    );
    // The trial annotations recorded the winner.
    let trials_span = report
        .spans()
        .find(|span| span.name == "layout_trials")
        .expect("layout_trials span");
    assert!(trials_span
        .args
        .iter()
        .any(|(key, _)| key == "chosen_trial"));
    assert!(trials_span.args.iter().any(|(key, _)| key == "chosen_cost"));
    // Chrome export round-trips the taxonomy.
    let chrome = report.to_chrome_json();
    for name in ["resolve", "layout_trial", "route_from", "post_optimize"] {
        assert!(chrome.contains(&format!("\"name\":\"{name}\"")), "{name}");
    }
}

#[test]
fn a_stored_hit_records_no_routing_or_pass_spans() {
    let _guard = recorder_guard();
    let circuit = sample_circuit();
    let session = Transpiler::new(CouplingMap::grid(2, 3), options_for(RouterKind::Nassc, 4));

    nassc::trace::enable();
    for _ in 0..3 {
        session.transpile(&circuit).expect("transpile");
    }
    let report = nassc::trace::take_report();
    nassc::trace::disable();

    // Cold, then the replay that stores its result, then a copy of it.
    let paths: Vec<&ArgValue> = report
        .spans()
        .filter(|span| span.name == "job")
        .map(|span| {
            let path = span.args.iter().find(|(key, _)| key == "path");
            &path.expect("every job span has a path").1
        })
        .collect();
    let expected = ["cold", "warm", "stored"].map(|path| ArgValue::Text(path.into()));
    assert_eq!(paths, expected.iter().collect::<Vec<_>>());
    assert_eq!(report.span_count("post_optimize"), 2, "cold + warm");
    assert_eq!(report.span_count("decompose"), 2, "cold + warm");
    assert_eq!(report.span_count("route_from"), 1, "warm");
    assert_eq!(report.counter_total("cache.layout_hit"), 2);

    // A stored hit resolves and runs its job, and has nothing to commit.
    nassc::trace::enable();
    session.transpile(&circuit).expect("stored hit");
    let report = nassc::trace::take_report();
    nassc::trace::disable();
    assert_eq!(report.span_count("resolve"), 1);
    assert_eq!(report.span_count("job"), 1);
    assert_eq!(report.span_count("commit"), 0);
}

/// The `items` annotation of every `pool_batch` span in `report`.
fn pool_batch_items(report: &TraceReport) -> Vec<u64> {
    report
        .spans()
        .filter(|span| span.name == "pool_batch")
        .map(|span| {
            let items = span.args.iter().find(|(key, _)| key == "items");
            match items {
                Some((_, ArgValue::U64(items))) => *items,
                other => panic!("pool_batch without an integer item count: {other:?}"),
            }
        })
        .collect()
}

#[test]
fn routing_dispatches_nothing_to_the_pool() {
    let _guard = recorder_guard();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/benchmarks/qasm/vqe_n8.qasm");
    let source = std::fs::read_to_string(path).expect("corpus file must be readable");
    let session_for = |trials| {
        Transpiler::new(
            CouplingMap::ibmq_montreal(),
            options_for(RouterKind::Nassc, trials),
        )
        .with_pool(ThreadPool::new(8))
    };

    // One trial: the layout search and every route run on the caller's
    // thread, cold and warm alike.
    let session = session_for(1);
    nassc::trace::enable();
    session.transpile_qasm(&source).expect("cold transpile");
    session.transpile_qasm(&source).expect("warm transpile");
    let report = nassc::trace::take_report();
    nassc::trace::disable();
    assert!(
        report.counter_total("route.steps") > 0,
        "routing never stepped"
    );
    assert_eq!(pool_batch_items(&report), Vec::<u64>::new());

    // Four trials: one batch of four trials, none from their routing passes.
    let session = session_for(4);
    nassc::trace::enable();
    session
        .transpile_qasm(&source)
        .expect("cold 4-trial transpile");
    let report = nassc::trace::take_report();
    nassc::trace::disable();
    assert!(
        report.counter_total("route.steps") > 0,
        "routing never stepped"
    );
    assert_eq!(pool_batch_items(&report), vec![4]);
}

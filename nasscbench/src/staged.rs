//! The session's single-trial cold pipeline, re-run stage by stage from the
//! program's public functions, timing and counting allocations around each
//! call. The trace recorder is switched on only around the pass pipelines
//! (for their per-pass spans) and the NASSC route (for its `route.*`
//! counters); it adds no span of its own.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use nassc::circuit::{DagCircuit, QuantumCircuit};
use nassc::passes::standard_optimization_pipeline;
use nassc::sabre::{route_prepared, sabre_layout_prepared, SabrePolicy};
use nassc::topology::{CouplingMap, DistanceMatrix, Layout};
use nassc::trace::TraceReport;
use nassc::{
    optimize_without_routing, NasscPolicy, RouterKind, ThreadPool, TranspileOptions,
    TranspileResult, Transpiler,
};

use crate::alloc;
use crate::report::{median, ms, ratio, Outcome};

/// Distance matrices built per traced run; their median is reported.
const DISTANCE_REPEATS: usize = 5;

/// Wall time and bytes allocated, summed over the calls of one stage.
#[derive(Default, Clone, Copy)]
pub struct Stage {
    pub ns: u64,
    pub bytes: u64,
}

fn timed<T>(stage: &mut Stage, f: impl FnOnce() -> T) -> T {
    let bytes = alloc::total();
    let start = Instant::now();
    let out = f();
    stage.ns += start.elapsed().as_nanos() as u64;
    stage.bytes += alloc::total() - bytes;
    out
}

/// Per-layer totals over every circuit run through [`run`].
#[derive(Default)]
pub struct Layers {
    pub circuits: u64,
    pub input_gates: u64,
    pub parse: Stage,
    pub prepare: Stage,
    pub dag_build: Stage,
    pub layout: Stage,
    pub route: Stage,
    pub decompose: Stage,
    pub post_optimize: Stage,
    pub export: Stage,
    /// Pass name to nanoseconds, over prepare and post-optimize.
    pub passes: BTreeMap<String, u64>,
    pub swaps: u64,
    pub cx_decomposed: u64,
    pub cx_out: u64,
    pub route_steps: u64,
    pub swap_candidates: u64,
    /// The same DAG and layout routed with `SabrePolicy` (not staged).
    pub sabre_route_ns: u64,
    /// Wall time of the staged calls, gaps between them included.
    pub wall_ns: u64,
}

impl Layers {
    /// The staged layer times, which should account for the whole wall.
    pub fn staged_ns(&self) -> u64 {
        [
            self.parse,
            self.prepare,
            self.dag_build,
            self.layout,
            self.route,
            self.decompose,
            self.post_optimize,
            self.export,
        ]
        .iter()
        .map(|stage| stage.ns)
        .sum()
    }

    fn add_pass_spans(&mut self, report: &TraceReport) {
        for span in report.spans() {
            *self.passes.entry(span.name.clone()).or_default() += span.dur_ns;
        }
    }
}

/// What the staged pipeline produced, to compare with the session's result.
pub struct Output {
    pub circuit: QuantumCircuit,
    pub qasm: String,
    pub initial_layout: Layout,
    pub final_layout: Layout,
    pub swap_count: usize,
}

fn recorded<T>(f: impl FnOnce() -> T) -> (T, TraceReport) {
    nassc::trace::enable();
    let out = f();
    let report = nassc::trace::take_report();
    nassc::trace::disable();
    (out, report)
}

/// Runs `source` through the staged NASSC pipeline on `coupling`.
pub fn run(
    source: &str,
    coupling: &CouplingMap,
    distances: &DistanceMatrix,
    options: &TranspileOptions,
    pool: &ThreadPool,
    layers: &mut Layers,
) -> Result<Output, String> {
    assert_eq!(
        options.router,
        RouterKind::Nassc,
        "the staged pipeline routes with NASSC"
    );
    let config = &options.config;
    let wall = Instant::now();
    let parsed =
        timed(&mut layers.parse, || nassc::qasm::parse(source)).map_err(|e| e.to_string())?;

    let (prepared, report) =
        recorded(|| timed(&mut layers.prepare, || optimize_without_routing(&parsed)));
    let prepared = prepared.map_err(|e| e.to_string())?;
    layers.add_pass_spans(&report);

    let (dag, reversed) = timed(&mut layers.dag_build, || {
        (
            DagCircuit::from_circuit(&prepared),
            DagCircuit::from_circuit(&prepared.reversed()),
        )
    });
    let layout = timed(&mut layers.layout, || {
        if prepared.two_qubit_gate_count() == 0 {
            Layout::trivial(coupling.num_qubits())
        } else {
            sabre_layout_prepared(&dag, &reversed, coupling, distances, config, pool)
        }
    });

    let ((routed, policy), report) = recorded(|| {
        timed(&mut layers.route, || {
            let mut policy = NasscPolicy::new(options.flags);
            let mut rng = StdRng::seed_from_u64(config.seed);
            let routed = route_prepared(
                &dag,
                coupling,
                distances,
                &layout,
                config,
                &mut policy,
                &mut rng,
                pool,
            );
            (routed, policy)
        })
    });
    layers.route_steps += report.counter_total("route.steps");
    layers.swap_candidates += report.counter_total("route.swap_candidates");

    let decomposed = timed(&mut layers.decompose, || {
        policy.decompose_swaps(&routed.circuit)
    });
    let (optimized, report) = recorded(|| {
        timed(&mut layers.post_optimize, || {
            standard_optimization_pipeline().run(&decomposed)
        })
    });
    let optimized = optimized.map_err(|e| e.to_string())?;
    layers.add_pass_spans(&report);
    let qasm =
        timed(&mut layers.export, || nassc::qasm::export(&optimized)).map_err(|e| e.to_string())?;
    layers.wall_ns += wall.elapsed().as_nanos() as u64;

    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(config.seed);
    std::hint::black_box(route_prepared(
        &dag,
        coupling,
        distances,
        &layout,
        config,
        &mut SabrePolicy,
        &mut rng,
        pool,
    ));
    layers.sabre_route_ns += start.elapsed().as_nanos() as u64;

    layers.circuits += 1;
    layers.input_gates += parsed.num_gates() as u64;
    layers.swaps += routed.swap_count as u64;
    layers.cx_decomposed += decomposed.cx_count() as u64;
    layers.cx_out += optimized.cx_count() as u64;
    Ok(Output {
        circuit: optimized,
        qasm,
        initial_layout: routed.initial_layout,
        final_layout: routed.final_layout,
        swap_count: routed.swap_count,
    })
}

/// QASM in, exported QASM out, through a session.
pub fn transpile(
    session: &Transpiler,
    source: &str,
    options: &TranspileOptions,
) -> Result<(TranspileResult, String), String> {
    let result = session
        .transpile_qasm_with(source, options)
        .map_err(|e| e.to_string())?;
    let qasm = nassc::qasm::export(&result.circuit).map_err(|e| e.to_string())?;
    Ok((result, qasm))
}

/// The traced run of one device: each circuit transpiled cold then warm on
/// a session, then staged, with the staged result required to equal the
/// session's.
pub struct Traced {
    coupling: CouplingMap,
    distances: DistanceMatrix,
    distance_ms: f64,
    layers: Layers,
    cold_ns: u64,
    warm_ns: u64,
}

impl Traced {
    pub fn new(coupling: &CouplingMap) -> Self {
        let mut times = Vec::new();
        let mut distances = None;
        for _ in 0..DISTANCE_REPEATS {
            let start = Instant::now();
            distances = Some(coupling.distance_matrix());
            times.push(ms(start.elapsed()));
        }
        Self {
            coupling: coupling.clone(),
            distances: distances.expect("at least one distance matrix"),
            distance_ms: median(&times),
            layers: Layers::default(),
            cold_ns: 0,
            warm_ns: 0,
        }
    }

    /// Runs `source`, which `session` has not seen, and returns the
    /// session's exported QASM once every check has passed.
    pub fn circuit(&mut self, session: &Transpiler, source: &str) -> Result<String, String> {
        let start = Instant::now();
        let (cold, qasm) = transpile(session, source, session.options())?;
        self.cold_ns += start.elapsed().as_nanos() as u64;
        let start = Instant::now();
        let (_, warm_qasm) = transpile(session, source, session.options())?;
        self.warm_ns += start.elapsed().as_nanos() as u64;
        if warm_qasm != qasm {
            return Err("warm transpile differs from cold".into());
        }
        crate::check::output(&cold.circuit, &qasm, &self.coupling)?;

        let pool = session.pool();
        let staged = run(
            source,
            &self.coupling,
            &self.distances,
            session.options(),
            &pool,
            &mut self.layers,
        )?;
        let same = staged.circuit == cold.circuit
            && staged.initial_layout == cold.initial_layout
            && staged.final_layout == cold.final_layout
            && staged.swap_count == cold.swap_count
            && staged.qasm == qasm;
        if !same {
            return Err("staged pipeline differs from Transpiler::transpile".into());
        }
        Ok(qasm)
    }

    /// Every per-layer metric except the `serve.*` ones and
    /// `core.cache_hit_ratio`, as means per circuit.
    pub fn emit(&self, out: &mut Outcome) {
        let l = &self.layers;
        let n = l.circuits as f64;
        let gates = l.input_gates as f64;
        let per_circuit_ms = |ns: u64| ns as f64 / n / 1e6;
        let per_gate = |value: u64| value as f64 / gates;
        let pass_ms = |name: &str| per_circuit_ms(l.passes.get(name).copied().unwrap_or(0));

        out.metric("qasm.parse_ns_per_gate", per_gate(l.parse.ns), "ns/gate");
        out.metric("qasm.export_ns_per_gate", per_gate(l.export.ns), "ns/gate");
        out.metric(
            "qasm.parse_bytes_per_gate",
            per_gate(l.parse.bytes),
            "B/gate",
        );
        out.metric("topology.distance_ms", self.distance_ms, "ms");
        out.metric("circuit.dag_build_ms", per_circuit_ms(l.dag_build.ns), "ms");
        out.metric("passes.prepare_ms", per_circuit_ms(l.prepare.ns), "ms");
        out.metric(
            "passes.prepare_bytes_per_gate",
            per_gate(l.prepare.bytes),
            "B/gate",
        );
        out.metric(
            "passes.post_optimize_ms",
            per_circuit_ms(l.post_optimize.ns),
            "ms",
        );
        out.metric(
            "passes.post_optimize_bytes_per_gate",
            per_gate(l.post_optimize.bytes),
            "B/gate",
        );
        out.metric(
            "passes.commutative_cancellation_ms",
            pass_ms("commutative-cancellation"),
            "ms",
        );
        out.metric(
            "passes.block_resynthesis_ms",
            pass_ms("two-qubit-block-resynthesis"),
            "ms",
        );
        out.metric("passes.unroll_ms", pass_ms("unroll-to-basis"), "ms");
        out.metric("passes.optimize_1q_ms", pass_ms("optimize-1q-gates"), "ms");
        out.metric(
            "passes.cx_removed_per_swap",
            ratio(l.cx_decomposed as f64 - l.cx_out as f64, l.swaps as f64),
            "ratio",
        );
        out.metric("sabre.layout_ms", per_circuit_ms(l.layout.ns), "ms");
        out.metric(
            "sabre.layout_bytes_per_gate",
            per_gate(l.layout.bytes),
            "B/gate",
        );
        out.metric("sabre.route_ms", per_circuit_ms(l.route.ns), "ms");
        out.metric(
            "sabre.route_bytes_per_gate",
            per_gate(l.route.bytes),
            "B/gate",
        );
        out.metric("sabre.swaps", l.swaps as f64 / n, "count");
        out.metric(
            "sabre.route_sabre_policy_ms",
            per_circuit_ms(l.sabre_route_ns),
            "ms",
        );
        out.metric("sabre.route_steps", l.route_steps as f64 / n, "count");
        out.metric(
            "sabre.candidates_per_step",
            ratio(l.swap_candidates as f64, l.route_steps as f64),
            "count",
        );
        out.metric(
            "core.nassc_route_overhead",
            ratio(l.route.ns as f64, l.sabre_route_ns as f64),
            "ratio",
        );
        out.metric("core.decompose_ms", per_circuit_ms(l.decompose.ns), "ms");
        out.metric("core.session_cold_ms", per_circuit_ms(self.cold_ns), "ms");
        out.metric("core.session_warm_ms", per_circuit_ms(self.warm_ns), "ms");
        out.metric(
            "trace.coverage",
            ratio(l.staged_ns() as f64, l.wall_ns as f64),
            "ratio",
        );
        out.metric(
            "trace.overhead_ratio",
            ratio(l.wall_ns as f64, self.cold_ns as f64),
            "ratio",
        );
    }
}

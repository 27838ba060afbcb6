//! Criterion benches: transpilation time of Qiskit+SABRE vs Qiskit+NASSC
//! (the `transpile time` columns of Tables I/III/IV) on representative
//! benchmarks and topologies, plus the warm-session replay the
//! [`Transpiler`] caches buy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nassc::{RouterKind, TranspileOptions, Transpiler};
use nassc_benchmarks::circuits;
use nassc_topology::CouplingMap;

/// One cold transpile: a fresh session per iteration, so every cache
/// misses — distances, preparation and the layout search run every time.
fn cold_transpile(
    circuit: &nassc::circuit::QuantumCircuit,
    device: &CouplingMap,
    router: RouterKind,
) -> nassc::TranspileResult {
    Transpiler::new(
        device.clone(),
        TranspileOptions::new().router(router).seed(1),
    )
    .transpile(circuit)
    .unwrap()
}

fn routing_benchmarks(c: &mut Criterion) {
    let montreal = CouplingMap::ibmq_montreal();
    let line = CouplingMap::linear(25);
    let cases = vec![
        ("grover_n4", circuits::grover(4)),
        ("vqe_n8", circuits::vqe(8, 3, 1)),
        ("qft_n15", circuits::qft(15)),
        ("adder_n10", circuits::adder(10)),
    ];

    let mut group = c.benchmark_group("transpile_montreal");
    group.sample_size(10);
    for (name, circuit) in &cases {
        group.bench_with_input(BenchmarkId::new("sabre", name), circuit, |b, qc| {
            b.iter(|| cold_transpile(qc, &montreal, RouterKind::Sabre))
        });
        group.bench_with_input(BenchmarkId::new("nassc", name), circuit, |b, qc| {
            b.iter(|| cold_transpile(qc, &montreal, RouterKind::Nassc))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("transpile_linear25");
    group.sample_size(10);
    for (name, circuit) in cases.iter().take(2) {
        group.bench_with_input(BenchmarkId::new("sabre", name), circuit, |b, qc| {
            b.iter(|| cold_transpile(qc, &line, RouterKind::Sabre))
        });
        group.bench_with_input(BenchmarkId::new("nassc", name), circuit, |b, qc| {
            b.iter(|| cold_transpile(qc, &line, RouterKind::Nassc))
        });
    }
    group.finish();

    // The session-reuse path: every iteration is served from warmed caches,
    // replaying a single routing pass instead of the full layout search.
    let mut group = c.benchmark_group("transpile_montreal_warm");
    group.sample_size(10);
    for (name, circuit) in cases.iter().take(2) {
        let session = Transpiler::new(montreal.clone(), TranspileOptions::new().seed(1));
        session.transpile(circuit).unwrap(); // warm the caches once
        group.bench_with_input(BenchmarkId::new("nassc", name), circuit, |b, qc| {
            b.iter(|| session.transpile(qc).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, routing_benchmarks);
criterion_main!(benches);

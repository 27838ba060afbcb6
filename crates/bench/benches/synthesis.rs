//! Criterion benches for the synthesis substrate: Weyl decomposition, the
//! count-only CNOT-cost kernel and two-qubit re-synthesis (the per-SWAP-
//! candidate cost that keeps NASSC's routing complexity at SABRE's level,
//! §IV-H), on one unitary of each decomposition branch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nassc_math::{Matrix2, Matrix4, C64};
use nassc_synthesis::{
    interaction_matrix, synthesize_two_qubit, two_qubit_cnot_cost, WeylDecomposition,
};

/// `u` between fixed non-Clifford local layers, so no branch sees a
/// conveniently aligned input.
fn dressed(u: Matrix4) -> Matrix4 {
    let h = Matrix2::hadamard();
    let (o, z) = (C64::one(), C64::zero());
    let phase = Matrix2::new([[o, z], [z, C64::exp_i(0.37)]]);
    let before = h.kron(&phase.mul(&h));
    let after = phase.mul(&h).kron(&h.mul(&phase));
    after.mul(&u).mul(&before)
}

fn synthesis_benchmarks(c: &mut Criterion) {
    // (name, unitary, CNOTs its re-synthesis needs)
    let cases = [
        ("cx_class", dressed(Matrix4::cnot()), 1),
        ("swap_cx", Matrix4::swap().mul(&Matrix4::cnot()), 2),
        ("generic", dressed(interaction_matrix(0.3, 0.2, -0.1)), 3),
    ];
    let mut group = c.benchmark_group("two_qubit");
    group.sample_size(20_000);
    for (name, u, cnots) in &cases {
        assert_eq!(two_qubit_cnot_cost(u).unwrap(), *cnots, "{name}");
        group.bench_with_input(BenchmarkId::new("weyl_decompose", name), u, |b, u| {
            b.iter(|| WeylDecomposition::new(u).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("cnot_cost", name), u, |b, u| {
            b.iter(|| two_qubit_cnot_cost(u).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("synthesize", name), u, |b, u| {
            b.iter(|| synthesize_two_qubit(u, 0, 1).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, synthesis_benchmarks);
criterion_main!(benches);

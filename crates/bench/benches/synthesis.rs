//! Criterion benches for the synthesis substrate: Weyl decomposition, the
//! count-only CNOT-cost kernel and two-qubit re-synthesis (the per-SWAP-
//! candidate cost that keeps NASSC's routing complexity at SABRE's level,
//! §IV-H), on one unitary of each decomposition branch.
//!
//! `two_qubit_cnot_cost` answers a repeated input from its per-thread table
//! of recent counts, so it is timed twice: `cnot_cost_hit` prices one input
//! over and over (every timed call is a table hit), and `cnot_cost_miss`
//! cycles through [`MISS_CYCLE`] distinct inputs of the same class, many
//! more than the table holds, so every timed call runs the angle stage.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nassc_math::{Matrix2, Matrix4, C64};
use nassc_synthesis::{
    count_table_stats, interaction_matrix, synthesize_two_qubit, two_qubit_cnot_cost,
    WeylDecomposition, COUNT_TABLE_SLOTS,
};

/// Distinct inputs the miss case cycles through: with 16 keys per table
/// slot on average, an input's slot has been taken over long before the
/// cycle comes back to it.
const MISS_CYCLE: usize = 16 * COUNT_TABLE_SLOTS;

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

/// Prices every input of `inputs` in order, returning how many calls the
/// table answered.
fn table_hits(inputs: &[Matrix4]) -> u64 {
    let before = count_table_stats().hits;
    for u in inputs {
        two_qubit_cnot_cost(u).unwrap();
    }
    count_table_stats().hits - before
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
        // Global phases leave the class, and so the count, as it is, and
        // change every bit pattern.
        let cycle: Vec<Matrix4> = (0..MISS_CYCLE)
            .map(|k| u.scale(C64::exp_i(1e-3 * (k + 1) as f64)))
            .collect();
        assert!(cycle
            .iter()
            .all(|v| two_qubit_cnot_cost(v).unwrap() == *cnots));
        assert_eq!(
            table_hits(&cycle),
            0,
            "{name}: the miss cycle hit the table"
        );
        assert_eq!(two_qubit_cnot_cost(u).unwrap(), *cnots, "{name}");
        assert_eq!(table_hits(&[*u]), 1, "{name}: a repeat missed the table");

        group.bench_with_input(BenchmarkId::new("weyl_decompose", name), u, |b, u| {
            b.iter(|| WeylDecomposition::new(u).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("cnot_cost_hit", name), u, |b, u| {
            b.iter(|| two_qubit_cnot_cost(u).unwrap())
        });
        group.bench_with_input(
            BenchmarkId::new("cnot_cost_miss", name),
            &cycle,
            |b, cycle| {
                let mut next = cycle.iter().cycle();
                b.iter(|| two_qubit_cnot_cost(next.next().unwrap()).unwrap())
            },
        );
        group.bench_with_input(BenchmarkId::new("synthesize", name), u, |b, u| {
            b.iter(|| synthesize_two_qubit(u, 0, 1).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, synthesis_benchmarks);
criterion_main!(benches);

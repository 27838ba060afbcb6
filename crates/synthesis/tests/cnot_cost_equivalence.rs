//! The count-only kernel agrees with the full decomposition.
//!
//! `two_qubit_cnot_cost` runs only the angle stage of the Weyl
//! decomposition; `WeylDecomposition::new` runs the angle and factor
//! stages. Over a seeded sweep of unitaries built around the interaction
//! angles where the CNOT count changes (0, ±π/4, ±π/2, nudged by offsets
//! straddling the 1e-9 and 1e-7 thresholds) the two must return the same
//! count and fail on the same inputs, and `synthesize_two_qubit` must emit
//! exactly that many CNOTs — the fact `TwoQubitBlockResynthesis` relies on
//! when it synthesises only the blocks it will replace. Each input is
//! priced twice on the sweep's thread: the repeat returns the same count,
//! and for a successful count it comes from the table of recent counts.

use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

use nassc_circuit::Gate;
use nassc_math::{Matrix2, Matrix4, C64};
use nassc_synthesis::{
    count_table_stats, interaction_matrix, synthesize_two_qubit, two_qubit_cnot_cost,
    WeylDecomposition,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Unitaries per sweep, half of them with a trailing SWAP factor. The two
/// sweeps (random and Clifford+T locals) together cover 100k unitaries.
const CASES: usize = 50_000;

const SPECIAL_ANGLES: [f64; 5] = [0.0, FRAC_PI_4, -FRAC_PI_4, FRAC_PI_2, -FRAC_PI_2];
const OFFSETS: [f64; 8] = [0.0, 1e-12, 1e-10, 1e-9, 5e-8, 1e-7, 2e-7, 1e-6];
const CLIFFORD_T: [Gate; 6] = [Gate::H, Gate::S, Gate::Sdg, Gate::T, Gate::Tdg, Gate::X];

fn random_local(rng: &mut StdRng) -> Matrix2 {
    Gate::U(
        rng.gen_range(0.0..PI),
        rng.gen_range(-PI..PI),
        rng.gen_range(-PI..PI),
    )
    .matrix2()
    .unwrap()
}

fn clifford_t_local(rng: &mut StdRng) -> Matrix2 {
    (0..rng.gen_range(0..5)).fold(Matrix2::identity(), |acc, _| {
        let gate = &CLIFFORD_T[rng.gen_range(0..CLIFFORD_T.len())];
        gate.matrix2().unwrap().mul(&acc)
    })
}

fn interaction_angle(rng: &mut StdRng) -> f64 {
    if rng.gen_bool(0.25) {
        return rng.gen_range(-PI..PI);
    }
    let base = SPECIAL_ANGLES[rng.gen_range(0..SPECIAL_ANGLES.len())];
    let offset = OFFSETS[rng.gen_range(0..OFFSETS.len())];
    if rng.gen_bool(0.5) {
        base + offset
    } else {
        base - offset
    }
}

/// `(K1l ⊗ K1r) · exp(i(αXX + βYY + γZZ)) · (K2l ⊗ K2r)` up to a phase.
fn sample_unitary(rng: &mut StdRng, local: fn(&mut StdRng) -> Matrix2) -> Matrix4 {
    let k1 = local(rng).kron(&local(rng));
    let k2 = local(rng).kron(&local(rng));
    let a = interaction_matrix(
        interaction_angle(rng),
        interaction_angle(rng),
        interaction_angle(rng),
    );
    k1.mul(&a)
        .mul(&k2)
        .scale(C64::exp_i(rng.gen_range(-PI..PI)))
}

/// Runs the sweep over [`CASES`] unitaries with `local` factors.
fn sweep(seed: u64, local: fn(&mut StdRng) -> Matrix2) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts = [0usize; 4];
    for case in 0..CASES / 2 {
        let base = sample_unitary(&mut rng, local);
        for (u, swapped) in [(base, false), (Matrix4::swap().mul(&base), true)] {
            let cost = two_qubit_cnot_cost(&u);
            let hits = count_table_stats().hits;
            let repeat = two_qubit_cnot_cost(&u);
            assert_eq!(repeat, cost, "case {case} (swap {swapped}): repeat");
            assert_eq!(
                count_table_stats().hits - hits,
                u64::from(cost.is_ok()),
                "case {case} (swap {swapped}): a count is stored, an error never"
            );
            let full = WeylDecomposition::new(&u).map(|d| d.cnot_cost());
            assert_eq!(
                cost.as_ref().ok(),
                full.as_ref().ok(),
                "case {case} (swap {swapped}): count-only {cost:?} vs full {full:?}"
            );
            let Ok(cost) = cost else {
                continue;
            };
            let emitted = synthesize_two_qubit(&u, 0, 1)
                .unwrap_or_else(|e| panic!("case {case} (swap {swapped}): {e}"))
                .iter()
                .filter(|inst| inst.gate == Gate::Cx)
                .count();
            assert_eq!(
                emitted, cost,
                "case {case} (swap {swapped}): synthesis emitted {emitted} CNOTs"
            );
            counts[cost] += 1;
        }
    }
    assert!(
        counts.iter().all(|&n| n > 0),
        "every count is reached: {counts:?}"
    );
}

#[test]
fn count_only_kernel_matches_full_decomposition_with_random_locals() {
    sweep(0x5eed_c057, random_local);
}

#[test]
fn count_only_kernel_matches_full_decomposition_with_clifford_t_locals() {
    sweep(0xc11f_f07d, clifford_t_local);
}

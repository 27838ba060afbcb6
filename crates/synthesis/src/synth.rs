//! Circuit emission: re-synthesis of two-qubit unitaries with minimal CNOTs
//! and the expansion of routed SWAPs into CNOTs.
//!
//! [`two_qubit_cnot_cost`] answers a repeated input from a table of recent
//! counts, one per thread: [`COUNT_TABLE_SLOTS`] direct-mapped entries,
//! each keyed by the exact bit pattern of all 32 floats of the 4×4 matrix
//! and compared in full, so a hash alone never decides a hit. It holds only
//! successful counts, lives in thread-local storage rather than on the
//! heap (about 17 KB per thread), and allocates nothing.

use std::cell::RefCell;

use nassc_circuit::{Gate, Instruction, QuantumCircuit};
use nassc_math::{Matrix2, Matrix4};
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};

use crate::weyl::{AngleStage, DecomposeUnitaryError, WeylDecomposition, ANGLE_TOL};

/// Expands a SWAP on `(a, b)` into three CNOTs, `a` controlling the first:
/// `CX(a,b)·CX(b,a)·CX(a,b)`.
///
/// Both qubit orders implement the same SWAP, but — as §IV-E of the paper
/// argues — only one of them lines its first (or last) CNOT up with a
/// cancellable CNOT already in the circuit. A SWAP's qubit order is
/// therefore its orientation: NASSC lists the control it chose first.
pub fn swap_decomposition(a: usize, b: usize) -> [Instruction; 3] {
    [
        Instruction::new(Gate::Cx, [a, b]),
        Instruction::new(Gate::Cx, [b, a]),
        Instruction::new(Gate::Cx, [a, b]),
    ]
}

/// The routed circuit with every `swap` expanded by
/// [`swap_decomposition`], in the qubit order the router listed it; every
/// other instruction is copied as is.
pub fn expand_swaps(routed: &QuantumCircuit) -> QuantumCircuit {
    let capacity = routed.num_gates() + 2 * routed.swap_count();
    let mut out = QuantumCircuit::with_capacity(routed.num_qubits(), capacity);
    for inst in routed {
        if inst.gate == Gate::Swap {
            for cx in swap_decomposition(inst.qubit(0), inst.qubit(1)) {
                out.push(cx);
            }
        } else {
            out.push(inst.clone());
        }
    }
    out
}

/// Synthesises a two-qubit unitary into CNOTs and single-qubit gates on the
/// qubit pair `(q0, q1)`, where `q0` is the least-significant qubit of the
/// matrix convention (the first qubit listed on the original instructions).
///
/// The emitted circuit reproduces `u` up to a global phase and uses the
/// minimum number of CNOTs this crate's decomposer can certify: 0 for local
/// operators, 1 for CNOT-class operators, 2 when one interaction axis
/// vanishes, and 3 otherwise.
///
/// # Errors
///
/// Propagates [`DecomposeUnitaryError`] when the Weyl decomposition fails.
pub fn synthesize_two_qubit(
    u: &Matrix4,
    q0: usize,
    q1: usize,
) -> Result<Vec<Instruction>, DecomposeUnitaryError> {
    let d = WeylDecomposition::new(u)?;
    let mut out = Vec::new();
    push_local(&mut out, &d.k2r, q0);
    push_local(&mut out, &d.k2l, q1);
    out.extend(interaction_circuit(d.alpha, d.beta, d.gamma, q0, q1));
    push_local(&mut out, &d.k1r, q0);
    push_local(&mut out, &d.k1l, q1);
    Ok(out)
}

/// The number of CNOTs [`synthesize_two_qubit`] will emit for `u`.
///
/// Runs only the angle stage of the Weyl decomposition, which allocates
/// nothing unless it fails; its angles, and so the count, are bit-identical
/// to those [`WeylDecomposition::new`] computes. An input whose exact bits
/// this thread has priced recently is answered from its table of counts
/// (see the [module docs](self)) without running the angle stage.
///
/// # Errors
///
/// Propagates [`DecomposeUnitaryError`] when the Weyl decomposition fails.
pub fn two_qubit_cnot_cost(u: &Matrix4) -> Result<usize, DecomposeUnitaryError> {
    let key = CountKey::of(u);
    if let Some(count) = COUNT_TABLE.with_borrow_mut(|table| table.lookup(&key)) {
        return Ok(count);
    }
    let count = AngleStage::new(u)?.cnot_cost();
    COUNT_TABLE.with_borrow_mut(|table| table.store(key, count));
    Ok(count)
}

/// Entries in each thread's table of recent CNOT counts.
pub const COUNT_TABLE_SLOTS: usize = 64;

/// How often this thread's [`two_qubit_cnot_cost`] table answered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountTableStats {
    /// Calls answered from the table.
    pub hits: u64,
    /// Calls that ran the angle stage, failed ones included.
    pub misses: u64,
}

/// The current thread's [`CountTableStats`] since it started.
pub fn count_table_stats() -> CountTableStats {
    COUNT_TABLE.with_borrow(|table| table.stats)
}

/// The exact bits of a 4×4 matrix: real and imaginary part of each entry,
/// row by row. `-0.0` and `0.0` are different keys, and so are NaNs with
/// different payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CountKey([u64; 32]);

impl CountKey {
    fn of(u: &Matrix4) -> Self {
        let mut bits = [0u64; 32];
        for (pair, z) in bits.chunks_exact_mut(2).zip(u.entries()) {
            pair[0] = z.re.to_bits();
            pair[1] = z.im.to_bits();
        }
        Self(bits)
    }

    /// The table slot this key maps to: the top bits of a multiplicative
    /// hash over every word.
    fn slot(&self) -> usize {
        const SLOT_BITS: u32 = COUNT_TABLE_SLOTS.trailing_zeros();
        const _: () = assert!(COUNT_TABLE_SLOTS.is_power_of_two());
        let hash = self.0.iter().fold(0u64, |hash, &word| {
            (hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
        });
        (hash >> (u64::BITS - SLOT_BITS)) as usize
    }
}

/// One table slot: a key and its count, or `None` while empty.
#[derive(Debug, Clone, Copy)]
struct CountEntry {
    key: CountKey,
    count: Option<u8>,
}

/// A direct-mapped table of recent CNOT counts: a new key evicts the one
/// in its slot.
#[derive(Debug)]
struct CountTable {
    entries: [CountEntry; COUNT_TABLE_SLOTS],
    stats: CountTableStats,
}

impl CountTable {
    const EMPTY: Self = Self {
        entries: [CountEntry {
            key: CountKey([0; 32]),
            count: None,
        }; COUNT_TABLE_SLOTS],
        stats: CountTableStats { hits: 0, misses: 0 },
    };

    /// The stored count of `key`, when its slot holds exactly `key`.
    fn lookup(&mut self, key: &CountKey) -> Option<usize> {
        let entry = &self.entries[key.slot()];
        match entry.count {
            Some(count) if entry.key == *key => {
                self.stats.hits += 1;
                Some(usize::from(count))
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn store(&mut self, key: CountKey, count: usize) {
        let count = u8::try_from(count).expect("a CNOT count is at most 3");
        self.entries[key.slot()] = CountEntry {
            key,
            count: Some(count),
        };
    }
}

thread_local! {
    /// This thread's counts: constant-initialised, so no thread allocates
    /// for it.
    static COUNT_TABLE: RefCell<CountTable> = const { RefCell::new(CountTable::EMPTY) };
}

/// Appends a single-qubit unitary as an instruction unless it is the
/// identity up to phase.
fn push_local(out: &mut Vec<Instruction>, m: &Matrix2, qubit: usize) {
    if m.approx_eq_up_to_phase(&Matrix2::identity(), 1e-9) {
        return;
    }
    out.push(Instruction::new(Gate::Unitary1(Box::new(*m)), vec![qubit]));
}

/// Emits a circuit implementing `exp(i(αXX + βYY + γZZ))` (up to global
/// phase) on `(q0, q1)` using as few CNOTs as the angle pattern allows.
pub fn interaction_circuit(
    alpha: f64,
    beta: f64,
    gamma: f64,
    q0: usize,
    q1: usize,
) -> Vec<Instruction> {
    let active = |x: f64| x.abs() > ANGLE_TOL;
    let axes = [active(alpha), active(beta), active(gamma)];
    let count = axes.iter().filter(|&&a| a).count();

    if count == 0 {
        return Vec::new();
    }

    // Single-axis ±π/4 interactions are exactly one CNOT plus locals.
    if count == 1 {
        let (axis, angle) = [(0usize, alpha), (1, beta), (2, gamma)]
            .into_iter()
            .find(|(_, a)| active(*a))
            .expect("one active axis");
        if (angle.abs() - FRAC_PI_4).abs() < ANGLE_TOL {
            return single_cnot_interaction(axis, angle > 0.0, q0, q1);
        }
    }

    // Move a vanishing axis into the YY slot (the slot the general template
    // handles for free) so two-axis interactions cost two CNOTs.
    if active(beta) && count < 3 {
        if !active(gamma) {
            // Conjugating by Rx(π/2)⊗Rx(π/2) exchanges the YY and ZZ axes.
            let mut out = vec![
                Instruction::new(Gate::Rx(-FRAC_PI_2), vec![q0]),
                Instruction::new(Gate::Rx(-FRAC_PI_2), vec![q1]),
            ];
            out.extend(core_interaction(alpha, 0.0, beta, q0, q1));
            out.push(Instruction::new(Gate::Rx(FRAC_PI_2), vec![q0]));
            out.push(Instruction::new(Gate::Rx(FRAC_PI_2), vec![q1]));
            return out;
        }
        if !active(alpha) {
            // Conjugating by S⊗S exchanges the XX and YY axes.
            let mut out = vec![
                Instruction::new(Gate::Sdg, vec![q0]),
                Instruction::new(Gate::Sdg, vec![q1]),
            ];
            out.extend(core_interaction(beta, 0.0, gamma, q0, q1));
            out.push(Instruction::new(Gate::S, vec![q0]));
            out.push(Instruction::new(Gate::S, vec![q1]));
            return out;
        }
    }

    core_interaction(alpha, beta, gamma, q0, q1)
}

/// The general interaction template.
///
/// In matrix order the identity used is
/// `exp(i(aXX+bYY+cZZ)) = e^{iπ/4}·Rz(π/2)₀·Rx(π/2)₁·H₀·CX·Rx(-π/2)₀·Rz(2b)₁·CX·H₀·Rx(-2a)₀·Rz(-2c)₁·CX`,
/// which collapses to the two-CNOT form `CX·Rx(-2a)₀·Rz(-2c)₁·CX` when `b = 0`.
fn core_interaction(a: f64, b: f64, c: f64, q0: usize, q1: usize) -> Vec<Instruction> {
    let mut out = Vec::new();
    // Circuit order is the reverse of matrix order.
    out.push(Instruction::new(Gate::Cx, vec![q0, q1]));
    if c.abs() > ANGLE_TOL {
        out.push(Instruction::new(Gate::Rz(-2.0 * c), vec![q1]));
    }
    if a.abs() > ANGLE_TOL {
        out.push(Instruction::new(Gate::Rx(-2.0 * a), vec![q0]));
    }
    if b.abs() > ANGLE_TOL {
        out.push(Instruction::new(Gate::H, vec![q0]));
        out.push(Instruction::new(Gate::Cx, vec![q0, q1]));
        out.push(Instruction::new(Gate::Rz(2.0 * b), vec![q1]));
        out.push(Instruction::new(Gate::Rx(-FRAC_PI_2), vec![q0]));
        out.push(Instruction::new(Gate::Cx, vec![q0, q1]));
        out.push(Instruction::new(Gate::H, vec![q0]));
        out.push(Instruction::new(Gate::Rx(FRAC_PI_2), vec![q1]));
        out.push(Instruction::new(Gate::Rz(FRAC_PI_2), vec![q0]));
    } else {
        out.push(Instruction::new(Gate::Cx, vec![q0, q1]));
    }
    out
}

/// Exact one-CNOT circuits for `exp(±iπ/4·P⊗P)` on each axis.
fn single_cnot_interaction(axis: usize, positive: bool, q0: usize, q1: usize) -> Vec<Instruction> {
    // Base circuit for exp(+iπ/4·XX), circuit order:
    //   H(q0) · CX · Rx(-π/2)(q1) · Rz(-π/2)(q0) · H(q0)
    // (matrix order: H₀ · Rz(-π/2)₀ · Rx(-π/2)₁ · CX · H₀, a rearrangement of
    // the exponential form of the CNOT).
    let xx_positive = vec![
        Instruction::new(Gate::H, vec![q0]),
        Instruction::new(Gate::Cx, vec![q0, q1]),
        Instruction::new(Gate::Rx(-FRAC_PI_2), vec![q1]),
        Instruction::new(Gate::Rz(-FRAC_PI_2), vec![q0]),
        Instruction::new(Gate::H, vec![q0]),
    ];
    let xx: Vec<Instruction> = if positive {
        xx_positive
    } else {
        // The adjoint circuit implements the negative angle.
        xx_positive.iter().rev().map(|i| i.inverse()).collect()
    };
    match axis {
        0 => xx,
        1 => {
            // exp(iθYY) = (S⊗S)·exp(iθXX)·(S†⊗S†).
            let mut out = vec![
                Instruction::new(Gate::Sdg, vec![q0]),
                Instruction::new(Gate::Sdg, vec![q1]),
            ];
            out.extend(xx);
            out.push(Instruction::new(Gate::S, vec![q0]));
            out.push(Instruction::new(Gate::S, vec![q1]));
            out
        }
        _ => {
            // exp(iθZZ) = (H⊗H)·exp(iθXX)·(H⊗H).
            let mut out = vec![
                Instruction::new(Gate::H, vec![q0]),
                Instruction::new(Gate::H, vec![q1]),
            ];
            out.extend(xx);
            out.push(Instruction::new(Gate::H, vec![q0]));
            out.push(Instruction::new(Gate::H, vec![q1]));
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::interaction_matrix;
    use nassc_circuit::{circuit_unitary, circuits_equivalent};
    use nassc_math::C64;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Builds the 4×4 unitary of an instruction list over qubits {0, 1}.
    fn circuit_matrix(instructions: &[Instruction]) -> Matrix4 {
        let mut qc = QuantumCircuit::new(2);
        for inst in instructions {
            qc.push(inst.clone());
        }
        let u = circuit_unitary(&qc);
        let mut out = Matrix4::identity();
        for r in 0..4 {
            for c in 0..4 {
                out.set(r, c, u.get(r, c));
            }
        }
        out
    }

    fn cx_count(instructions: &[Instruction]) -> usize {
        instructions.iter().filter(|i| i.gate == Gate::Cx).count()
    }

    #[test]
    fn interaction_circuit_matches_matrix_for_random_angles() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..60 {
            let a = rng.gen_range(-1.4..1.4);
            let b = rng.gen_range(-1.4..1.4);
            let c = rng.gen_range(-1.4..1.4);
            let circ = interaction_circuit(a, b, c, 0, 1);
            let expected = interaction_matrix(a, b, c);
            assert!(
                circuit_matrix(&circ).approx_eq_up_to_phase(&expected, 1e-8),
                "angles ({a},{b},{c})"
            );
            assert!(cx_count(&circ) <= 3);
        }
    }

    #[test]
    fn two_axis_interactions_use_two_cnots() {
        let cases = [
            (0.3, 0.0, 0.7),
            (0.3, 0.7, 0.0),
            (0.0, 0.3, 0.7),
            (0.0, 0.9, 0.0),
            (0.5, 0.0, 0.0),
        ];
        for (a, b, c) in cases {
            let circ = interaction_circuit(a, b, c, 0, 1);
            assert_eq!(cx_count(&circ), 2, "angles ({a},{b},{c})");
            let expected = interaction_matrix(a, b, c);
            assert!(circuit_matrix(&circ).approx_eq_up_to_phase(&expected, 1e-8));
        }
    }

    #[test]
    fn quarter_pi_single_axis_uses_one_cnot() {
        for axis in 0..3 {
            for sign in [1.0, -1.0] {
                let mut angles = [0.0; 3];
                angles[axis] = sign * FRAC_PI_4;
                let circ = interaction_circuit(angles[0], angles[1], angles[2], 0, 1);
                assert_eq!(cx_count(&circ), 1, "axis {axis} sign {sign}");
                let expected = interaction_matrix(angles[0], angles[1], angles[2]);
                assert!(
                    circuit_matrix(&circ).approx_eq_up_to_phase(&expected, 1e-8),
                    "axis {axis} sign {sign}"
                );
            }
        }
    }

    #[test]
    fn zero_interaction_is_empty() {
        assert!(interaction_circuit(0.0, 0.0, 0.0, 0, 1).is_empty());
    }

    #[test]
    fn synthesizes_named_gates_with_expected_costs() {
        let cases: Vec<(Matrix4, usize)> = vec![
            (Gate::Cx.matrix4().unwrap(), 1),
            (Gate::Cz.matrix4().unwrap(), 1),
            (Gate::Swap.matrix4().unwrap(), 3),
            (Gate::Crx(1.1).matrix4().unwrap(), 2),
            (Matrix4::swap().mul(&Matrix4::cnot()), 2),
            (
                Gate::H.matrix2().unwrap().kron(&Gate::T.matrix2().unwrap()),
                0,
            ),
        ];
        for (m, cost) in cases {
            let circ = synthesize_two_qubit(&m, 0, 1).expect("synthesis");
            assert_eq!(cx_count(&circ), cost);
            assert!(circuit_matrix(&circ).approx_eq_up_to_phase(&m, 1e-7));
            assert_eq!(two_qubit_cnot_cost(&m).unwrap(), cost);
        }
    }

    #[test]
    fn synthesizes_random_two_qubit_unitaries() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..60 {
            let k1 = Gate::U(
                rng.gen_range(0.0..3.0),
                rng.gen_range(-3.0..3.0),
                rng.gen_range(-3.0..3.0),
            )
            .matrix2()
            .unwrap()
            .kron(
                &Gate::U(rng.gen_range(0.0..3.0), rng.gen_range(-3.0..3.0), 0.2)
                    .matrix2()
                    .unwrap(),
            );
            let k2 = Gate::U(rng.gen_range(0.0..3.0), 0.3, -0.8)
                .matrix2()
                .unwrap()
                .kron(
                    &Gate::U(rng.gen_range(0.0..3.0), 1.0, 0.0)
                        .matrix2()
                        .unwrap(),
                );
            let a = interaction_matrix(
                rng.gen_range(-1.5..1.5),
                rng.gen_range(-1.5..1.5),
                rng.gen_range(-1.5..1.5),
            );
            let target = k1
                .mul(&a)
                .mul(&k2)
                .scale(C64::exp_i(rng.gen_range(-3.0..3.0)));
            let circ = synthesize_two_qubit(&target, 0, 1).expect("synthesis");
            assert!(circuit_matrix(&circ).approx_eq_up_to_phase(&target, 1e-6));
            assert!(cx_count(&circ) <= 3);
        }
    }

    #[test]
    fn swap_decompositions_are_correct_and_differ_in_first_control() {
        for (a, b) in [(0, 1), (1, 0)] {
            let circ = swap_decomposition(a, b);
            assert!(circuit_matrix(&circ).approx_eq_up_to_phase(&Matrix4::swap(), 1e-10));
        }
        assert_eq!(swap_decomposition(4, 7)[0].qubits().to_vec(), vec![4, 7]);
        assert_eq!(swap_decomposition(7, 4)[0].qubits().to_vec(), vec![7, 4]);
    }

    #[test]
    fn expand_swaps_follows_each_swaps_qubit_order() {
        let mut routed = QuantumCircuit::new(3);
        routed.h(0).swap(0, 1).cx(1, 2).swap(2, 1);
        let mut expected = QuantumCircuit::new(3);
        expected.h(0).cx(0, 1).cx(1, 0).cx(0, 1).cx(1, 2);
        expected.cx(2, 1).cx(1, 2).cx(2, 1);
        let expanded = expand_swaps(&routed);
        assert_eq!(expanded, expected);
        assert!(circuits_equivalent(&routed, &expanded, 1e-10));
    }

    /// Prices `u` and returns the count with the change in this thread's
    /// table statistics.
    fn priced(u: &Matrix4) -> (Result<usize, DecomposeUnitaryError>, CountTableStats) {
        let before = count_table_stats();
        let cost = two_qubit_cnot_cost(u);
        let after = count_table_stats();
        let delta = CountTableStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
        };
        (cost, delta)
    }

    const HIT: CountTableStats = CountTableStats { hits: 1, misses: 0 };
    const MISS: CountTableStats = CountTableStats { hits: 0, misses: 1 };

    #[test]
    fn count_table_is_a_fixed_array_of_about_17_kb() {
        // 64 entries of a 256-byte key and a count (16,920 bytes on x86-64).
        assert!(size_of::<RefCell<CountTable>>() <= 17_000);
    }

    #[test]
    fn inputs_sharing_a_slot_each_keep_their_own_count() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut random_angle = || rng.gen_range(0.1..0.7);
        // Two-CNOT inputs by slot, then a three-CNOT input landing on one.
        let mut two_cnot = vec![None; COUNT_TABLE_SLOTS];
        for _ in 0..16 * COUNT_TABLE_SLOTS {
            let u = interaction_matrix(random_angle(), 0.0, random_angle());
            two_cnot[CountKey::of(&u).slot()] = Some(u);
        }
        let (a, b) = std::iter::repeat_with(|| {
            interaction_matrix(random_angle(), random_angle(), random_angle())
        })
        .find_map(|b| two_cnot[CountKey::of(&b).slot()].map(|a| (a, b)))
        .expect("a three-CNOT input shares a slot with a two-CNOT one");
        assert_ne!(CountKey::of(&a), CountKey::of(&b));
        assert_eq!(priced(&a).0, Ok(2));
        for _ in 0..3 {
            // Each evicts the other, so neither is ever served the other's
            // count.
            assert_eq!(priced(&b), (Ok(3), MISS));
            assert_eq!(priced(&a), (Ok(2), MISS));
        }
        assert_eq!(priced(&a), (Ok(2), HIT));
    }

    #[test]
    fn a_signed_zero_is_a_different_key() {
        let positive = Matrix4::cnot();
        let mut negative = positive;
        assert_eq!(negative.get(0, 1), C64::zero());
        negative.set(0, 1, C64::new(-0.0, 0.0));
        assert_eq!(positive, negative, "-0.0 == 0.0 as floats");
        assert_ne!(CountKey::of(&positive), CountKey::of(&negative));
        assert_eq!(priced(&positive), (Ok(1), MISS));
        assert_eq!(priced(&positive), (Ok(1), HIT));
        assert_eq!(priced(&negative), (Ok(1), MISS));
        assert_eq!(priced(&negative), (Ok(1), HIT));
    }

    #[test]
    fn a_failing_input_fails_every_time_and_is_never_stored() {
        let not_unitary = Matrix4::identity().scale(C64::new(2.0, 0.0));
        let expected = AngleStage::new(&not_unitary).map(|stage| stage.cnot_cost());
        assert!(expected.is_err());
        for _ in 0..3 {
            assert_eq!(priced(&not_unitary), (expected.clone(), MISS));
        }
        let key = CountKey::of(&not_unitary);
        COUNT_TABLE.with_borrow(|table| {
            let entry = &table.entries[key.slot()];
            assert!(entry.count.is_none() || entry.key != key);
        });
    }

    #[test]
    fn locals_near_identity_are_skipped() {
        let circ = synthesize_two_qubit(&Matrix4::cnot(), 0, 1).expect("synthesis");
        // A plain CNOT needs no single-qubit dressing at all.
        assert!(circ
            .iter()
            .all(|i| i.gate == Gate::Cx || i.gate.num_qubits() == 1));
        assert_eq!(cx_count(&circ), 1);
    }
}

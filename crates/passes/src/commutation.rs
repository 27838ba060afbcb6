//! Gate commutation and commutative gate cancellation
//! (Qiskit's `CommutationAnalysis` + `CommutativeCancellation`).

use nassc_circuit::{circuit_unitary, Instruction, QuantumCircuit};

use crate::manager::{PassError, TranspilePass};

/// Decides whether two instructions commute as operators (up to global
/// phase, matching the unitary comparison below).
///
/// Non-unitary instructions (measurements, barriers) never commute with
/// anything. Instructions on disjoint qubits always commute. Overlapping
/// pairs first try an exact structural fast path (`commute_fast_path`) —
/// this function sits in both NASSC's in-routing commute searches and the
/// commute sets of [`CommutativeCancellation`], where multiplying out
/// unitaries for every `rz`-vs-`cx` pair dominated the whole transpile.
/// Pairs the fast path cannot decide fall back to the exact check: both
/// orderings are multiplied out on the (at most four) qubits involved and
/// compared.
pub fn instructions_commute(a: &Instruction, b: &Instruction) -> bool {
    if !a.gate.is_unitary() || !b.gate.is_unitary() {
        return false;
    }
    if !a.overlaps(b) {
        return true;
    }
    if let Some(answer) = commute_fast_path(a, b) {
        return answer;
    }
    commute_by_unitary(a, b)
}

/// The exact fallback: both orderings multiplied out on the union of the
/// qubits involved and compared up to global phase. This is the ground
/// truth every [`commute_fast_path`] verdict must agree with (the test
/// suite sweeps the covered pairs against it).
fn commute_by_unitary(a: &Instruction, b: &Instruction) -> bool {
    // Map the union of qubits onto a compact register.
    let mut qubits: Vec<usize> = a.qubits().iter().chain(b.qubits().iter()).collect();
    qubits.sort_unstable();
    qubits.dedup();
    let index_of = |q: usize| qubits.iter().position(|&x| x == q).expect("qubit in union");
    let mut ab = QuantumCircuit::new(qubits.len());
    ab.push(a.map_qubits(index_of));
    ab.push(b.map_qubits(index_of));
    let mut ba = QuantumCircuit::new(qubits.len());
    ba.push(b.map_qubits(index_of));
    ba.push(a.map_qubits(index_of));
    circuit_unitary(&ab).approx_eq_up_to_phase(&circuit_unitary(&ba), 1e-9)
}

/// Tolerance of the structural fast paths, matching the unitary comparison.
const COMMUTE_TOL: f64 = 1e-9;

/// Structural commutation rules for the gate pairs that dominate routed
/// circuits (`cx`/`swap`/`cz` and single-qubit gates around them). Returns
/// `None` when the pair is not covered — the caller then performs the full
/// unitary comparison. Every `Some` verdict agrees with that comparison:
/// the rules are block-structure identities, with 2×2 matrix conditions (at
/// the same tolerance) standing in for the 4×4/8×8 products.
fn commute_fast_path(a: &Instruction, b: &Instruction) -> Option<bool> {
    use nassc_circuit::Gate;

    // Any instruction commutes with an identical copy of itself.
    if a.gate == b.gate && a.qubits() == b.qubits() {
        return Some(true);
    }
    match (a.num_qubits(), b.num_qubits()) {
        // Overlapping one-qubit gates share their only qubit: compare the
        // 2×2 products directly.
        (1, 1) => {
            let (ma, mb) = (a.gate.matrix2()?, b.gate.matrix2()?);
            Some(mb.mul(&ma).approx_eq_up_to_phase(&ma.mul(&mb), COMMUTE_TOL))
        }
        (1, 2) => one_qubit_vs_two(a, b),
        (2, 1) => one_qubit_vs_two(b, a),
        (2, 2) => {
            let diagonal = |g: &Gate| matches!(g, Gate::Cz | Gate::Cp(_) | Gate::Crz(_));
            // Two diagonal gates always commute, however they overlap.
            if diagonal(&a.gate) && diagonal(&b.gate) {
                return Some(true);
            }
            match (&a.gate, &b.gate) {
                (Gate::Cx, Gate::Cx) => {
                    // CNOTs commute iff they share only controls or only
                    // targets; a control meeting a target does not commute.
                    let control_clash = a.qubit(0) == b.qubit(1) || a.qubit(1) == b.qubit(0);
                    Some(!control_clash)
                }
                // SWAP vs SWAP or vs the exchange-symmetric CZ: on the same
                // pair the SWAP leaves the other gate fixed (qubit order is
                // immaterial for both), so they commute; any partial overlap
                // relabels a wire the other gate uses and never commutes.
                (Gate::Swap, Gate::Swap | Gate::Cz) | (Gate::Cz, Gate::Swap) => {
                    Some(a.acts_on(b.qubit(0)) && a.acts_on(b.qubit(1)))
                }
                // CX is *not* exchange-symmetric: a SWAP on its own pair
                // flips control and target.
                (Gate::Swap, Gate::Cx) | (Gate::Cx, Gate::Swap) => Some(false),
                // A diagonal gate commutes with a CNOT iff it avoids the
                // target wire (`cz` is fixed and never trivial, so touching
                // the target is a definite no).
                (Gate::Cz, Gate::Cx) => Some(!a.acts_on(b.qubit(1))),
                (Gate::Cx, Gate::Cz) => Some(!b.acts_on(a.qubit(1))),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Fast path for a one-qubit gate against an overlapping two-qubit gate.
///
/// For `one` on the control of a CNOT the orderings agree iff `one` is
/// diagonal; on the target, iff `one` commutes with Pauli-X — both read off
/// the 2×2 matrix. A one-qubit gate commutes with a SWAP it touches iff it
/// is (up to phase) the identity, i.e. diagonal with equal entries.
fn one_qubit_vs_two(one: &Instruction, two: &Instruction) -> Option<bool> {
    use nassc_circuit::Gate;

    let m = one.gate.matrix2()?;
    let q = one.qubit(0);
    let diagonal = m.get(0, 1).abs() <= COMMUTE_TOL && m.get(1, 0).abs() <= COMMUTE_TOL;
    match two.gate {
        Gate::Cx => {
            if q == two.qubit(0) {
                Some(diagonal)
            } else {
                // Commutes with the target's Pauli-X iff symmetric with
                // equal diagonal entries.
                Some(
                    (m.get(0, 0) - m.get(1, 1)).abs() <= COMMUTE_TOL
                        && (m.get(0, 1) - m.get(1, 0)).abs() <= COMMUTE_TOL,
                )
            }
        }
        // `cz`/`cp`/`crz` are diagonal on both wires: a diagonal one-qubit
        // gate commutes; a non-diagonal one does not (its off-diagonal
        // component would have to vanish against a diagonal that, for these
        // gates, is never proportional to identity... which the full check
        // resolves — so only the `true` side is decided structurally).
        Gate::Cz | Gate::Cp(_) | Gate::Crz(_) => {
            if diagonal {
                Some(true)
            } else {
                None
            }
        }
        Gate::Swap => Some(diagonal && (m.get(0, 0) - m.get(1, 1)).abs() <= COMMUTE_TOL),
        _ => None,
    }
}

/// The paper's 20-gate cap on a commute set. [`CommutativeCancellation`]
/// groups with it, and NASSC's routing-time searches look back as far.
pub const COMMUTE_SET_LIMIT: usize = 20;

/// Cancels pairs of identical self-inverse gates that can be brought
/// together by commutation (Qiskit's `CommutationAnalysis` +
/// `CommutativeCancellation`).
///
/// On every wire, consecutive gates that pairwise commute form a *commute
/// set* of at most [`COMMUTE_SET_LIMIT`] gates, which may be freely
/// reordered along that wire. Two identical self-inverse gates cancel when
/// they share a commute set on every wire they touch. NASSC's
/// `C_commute1`/`C_commute2` cost terms anticipate this pass; during routing
/// they read the recent gates on a qubit pair from `RoutingState`'s touch
/// window instead of commute sets.
///
/// # Example
///
/// ```
/// use nassc_circuit::QuantumCircuit;
/// use nassc_passes::{CommutativeCancellation, PassManager};
///
/// // The middle CX(1,2) commutes with CX(0,2) (same target), so the two
/// // CX(0,2) gates cancel.
/// let mut qc = QuantumCircuit::new(3);
/// qc.cx(0, 2).cx(1, 2).cx(0, 2);
/// let mut pm = PassManager::new();
/// pm.push(CommutativeCancellation);
/// assert_eq!(pm.run(&qc).unwrap().cx_count(), 1);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CommutativeCancellation;

impl TranspilePass for CommutativeCancellation {
    fn name(&self) -> &'static str {
        "commutative-cancellation"
    }

    fn run(&self, circuit: &QuantumCircuit) -> Result<QuantumCircuit, PassError> {
        let mut removed = vec![false; circuit.num_gates()];
        // Iterate to a fixed point (each round may expose new cancellations),
        // with a small bound to keep the pass predictable.
        for _ in 0..4 {
            if !cancel_round(circuit, &mut removed) {
                break;
            }
        }
        let mut out = QuantumCircuit::with_capacity(circuit.num_qubits(), circuit.num_gates());
        for (inst, _) in circuit.iter().zip(&removed).filter(|(_, &gone)| !gone) {
            out.push(inst.clone());
        }
        Ok(out)
    }
}

/// One round of commutation-aware cancellation over the gates not yet
/// `removed`. Returns whether it removed anything.
fn cancel_round(circuit: &QuantumCircuit, removed: &mut [bool]) -> bool {
    let gates = circuit.instructions();
    // Commutation analysis: `wires[q]` lists the surviving gates on wire `q`
    // in circuit order, each with the id of its commute set on that wire. A
    // gate joins the wire's current set if the set has room and the gate
    // commutes with every member; otherwise it opens the next set.
    let mut wires: Vec<Vec<(usize, usize)>> = vec![Vec::new(); circuit.num_qubits()];
    let mut set_start = vec![0; circuit.num_qubits()];
    for (idx, inst) in gates.iter().enumerate().filter(|&(idx, _)| !removed[idx]) {
        for q in inst.qubits().iter() {
            let wire = &mut wires[q];
            let current = &wire[set_start[q]..];
            let joins = current.len() < COMMUTE_SET_LIMIT
                && current
                    .iter()
                    .all(|&(other, _)| instructions_commute(inst, &gates[other]));
            let mut set = wire.last().map_or(0, |&(_, set)| set);
            if !joins {
                set_start[q] = wire.len();
                set += 1;
            }
            wire.push((idx, set));
        }
    }
    let set_of = |q: usize, idx: usize| {
        let wire = &wires[q];
        wire[wire.partition_point(|&(other, _)| other < idx)].1
    };

    // Within each set, in wire order, pair every self-inverse gate with the
    // pending identical gate before it if the two share a set on every wire
    // they touch; otherwise the later gate becomes the pending one.
    let mut changed = false;
    let mut pending: Vec<usize> = Vec::with_capacity(COMMUTE_SET_LIMIT);
    for wire in &wires {
        for set in wire.chunk_by(|a, b| a.1 == b.1) {
            pending.clear();
            for &(idx, _) in set {
                let inst = &gates[idx];
                if removed[idx] || !inst.gate.is_self_inverse() {
                    continue;
                }
                let twin =
                    |&p: &usize| gates[p].gate == inst.gate && gates[p].qubits() == inst.qubits();
                let Some(slot) = pending.iter().position(twin) else {
                    pending.push(idx);
                    continue;
                };
                let first = pending[slot];
                if inst
                    .qubits()
                    .iter()
                    .all(|q| set_of(q, first) == set_of(q, idx))
                {
                    pending.swap_remove(slot);
                    removed[first] = true;
                    removed[idx] = true;
                    changed = true;
                } else {
                    pending[slot] = idx;
                }
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassc_circuit::{circuits_equivalent, Gate};

    /// Every `Some` verdict of the structural fast path must agree with the
    /// unitary ground truth — swept exhaustively over the covered gate set
    /// and every qubit assignment on a 3-qubit register (which realises
    /// every overlap shape: disjointness is handled before the fast path).
    #[test]
    fn fast_path_verdicts_match_the_unitary_ground_truth() {
        let one_qubit = [
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::T,
            Gate::Sx,
            Gate::Rz(0.37),
            Gate::Rz(0.0),
            Gate::Rx(1.2),
            Gate::Phase(0.9),
            Gate::U(0.3, 0.1, 2.0),
        ];
        let mut instructions: Vec<Instruction> = Vec::new();
        for gate in one_qubit {
            for q in 0..3 {
                instructions.push(Instruction::new(gate.clone(), vec![q]));
            }
        }
        for gate in [
            Gate::Cx,
            Gate::Cz,
            Gate::Swap,
            Gate::Cp(0.8),
            Gate::Crz(0.4),
        ] {
            for a in 0..3 {
                for b in 0..3 {
                    if a != b {
                        instructions.push(Instruction::new(gate.clone(), vec![a, b]));
                    }
                }
            }
        }
        let mut checked = 0usize;
        for a in &instructions {
            for b in &instructions {
                if !a.overlaps(b) {
                    continue;
                }
                if let Some(fast) = commute_fast_path(a, b) {
                    assert_eq!(
                        fast,
                        commute_by_unitary(a, b),
                        "fast path disagrees with the unitary check for {a} vs {b}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 500, "sweep only covered {checked} pairs");
    }

    #[test]
    fn commutation_of_standard_pairs() {
        let cx01 = Instruction::new(Gate::Cx, vec![0, 1]);
        let cx21 = Instruction::new(Gate::Cx, vec![2, 1]);
        let cx10 = Instruction::new(Gate::Cx, vec![1, 0]);
        let z0 = Instruction::new(Gate::Z, vec![0]);
        let x1 = Instruction::new(Gate::X, vec![1]);
        let x0 = Instruction::new(Gate::X, vec![0]);
        assert!(instructions_commute(&cx01, &cx21), "shared target commutes");
        assert!(
            !instructions_commute(&cx01, &cx10),
            "opposite direction does not"
        );
        assert!(instructions_commute(&cx01, &z0), "Z on control commutes");
        assert!(instructions_commute(&cx01, &x1), "X on target commutes");
        assert!(!instructions_commute(&cx01, &x0), "X on control does not");
        assert!(instructions_commute(&z0, &x1), "disjoint qubits commute");
    }

    #[test]
    fn measurements_never_commute() {
        let m = Instruction::new(Gate::Measure, vec![0]);
        let z = Instruction::new(Gate::Z, vec![0]);
        assert!(!instructions_commute(&m, &z));
    }

    #[test]
    fn commute_set_cap_keeps_a_distant_pair() {
        // Every T commutes with the CNOT's control, but the first CNOT's
        // set on wire 0 fills up at 20 gates, so the second CNOT lands in
        // the next set and the pair must not cancel.
        let mut qc = QuantumCircuit::new(2);
        qc.cx(0, 1);
        for _ in 0..COMMUTE_SET_LIMIT {
            qc.t(0);
        }
        qc.cx(0, 1);
        let out = CommutativeCancellation.run(&qc).unwrap();
        assert_eq!(out, qc);
    }

    #[test]
    fn cancels_cnots_through_commuting_gate() {
        let mut qc = QuantumCircuit::new(3);
        qc.cx(0, 2).cx(1, 2).cx(0, 2);
        let out = CommutativeCancellation.run(&qc).unwrap();
        assert_eq!(out.cx_count(), 1);
        assert!(circuits_equivalent(&qc, &out, 1e-9));
    }

    #[test]
    fn does_not_cancel_across_blocking_gates() {
        let mut qc = QuantumCircuit::new(2);
        qc.cx(0, 1).h(1).cx(0, 1);
        let out = CommutativeCancellation.run(&qc).unwrap();
        assert_eq!(out.cx_count(), 2);
    }

    #[test]
    fn cancels_single_qubit_self_inverses() {
        // Every gate here commutes into a cancelling pair: the whole circuit
        // collapses to the identity.
        let mut qc = QuantumCircuit::new(2);
        qc.z(0).cx(0, 1).z(0); // Z commutes with the control
        qc.x(1).cx(0, 1).x(1); // X commutes with the target
        let out = CommutativeCancellation.run(&qc).unwrap();
        assert_eq!(out.num_gates(), 0);
        assert!(circuits_equivalent(&qc, &out, 1e-9));
    }

    #[test]
    fn swap_cnot_cancellation_case_from_paper() {
        // Figure 4: a CNOT followed by a SWAP decomposed so its first CNOT
        // matches — one pair cancels, leaving 2 CNOTs.
        let mut qc = QuantumCircuit::new(2);
        qc.cx(0, 1);
        qc.cx(0, 1).cx(1, 0).cx(0, 1); // SWAP with matching orientation
        let out = CommutativeCancellation.run(&qc).unwrap();
        assert_eq!(out.cx_count(), 2);
        assert!(circuits_equivalent(&qc, &out, 1e-9));
    }

    #[test]
    fn rotation_gates_are_left_alone() {
        let mut qc = QuantumCircuit::new(1);
        qc.rz(0.4, 0).rz(-0.4, 0);
        let out = CommutativeCancellation.run(&qc).unwrap();
        // Not self-inverse gates: this pass leaves them for Optimize1qGates.
        assert_eq!(out.num_gates(), 2);
    }

    #[test]
    fn preserves_semantics_on_random_clifford_circuits() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..15 {
            let mut qc = QuantumCircuit::new(4);
            for _ in 0..30 {
                match rng.gen_range(0..6) {
                    0 => {
                        qc.x(rng.gen_range(0..4));
                    }
                    1 => {
                        qc.z(rng.gen_range(0..4));
                    }
                    2 => {
                        qc.h(rng.gen_range(0..4));
                    }
                    _ => {
                        let a = rng.gen_range(0..4);
                        let b = (a + rng.gen_range(1..4)) % 4;
                        qc.cx(a, b);
                    }
                }
            }
            let out = CommutativeCancellation.run(&qc).unwrap();
            assert!(circuits_equivalent(&qc, &out, 1e-8));
            assert!(out.num_gates() <= qc.num_gates());
        }
    }
}

//! The incremental-routing-state contract: the windowed per-qubit touch
//! index, NASSC's windowed Eq. 1–2 reduction terms and the delta-style
//! (cached-endpoint, zero-clone) scoring helpers agree *exactly* — same
//! booleans, same floats — with the full-recompute reference
//! implementations kept here, on random circuits, random push/pop
//! histories and every qubit pair. A SWAP's qubit order, which NASSC sets
//! to orient its expansion, changes none of them.

use proptest::prelude::*;

use nassc::circuit::{DagCircuit, Gate, Instruction, QuantumCircuit};
use nassc::core::cost::{SwapReduction, SEARCH_WINDOW};
use nassc::math::Matrix4;
use nassc::passes::{instructions_commute, pair_matrix};
use nassc::sabre::{RoutingContext, RoutingState, StepEndpoints};
use nassc::synthesis::two_qubit_cnot_cost;
use nassc::{evaluate_swap_reduction, OptimizationFlags};
use nassc_topology::{CouplingMap, Layout};
use rand::rngs::StdRng;
use rand::SeedableRng;

const WIDTH: usize = 5;

/// Decodes simple proptest primitives into a physical-circuit instruction
/// stream (the gate mix routing actually emits: 1q unitaries, CNOTs, SWAPs
/// and measurements) plus "pop" events exercising the un-index path.
fn build_state(ops: &[(u8, usize, usize, f64)]) -> RoutingState {
    let mut state = RoutingState::new(WIDTH);
    for &(kind, a, b, angle) in ops {
        let a = a % WIDTH;
        let b = b % WIDTH;
        match kind % 8 {
            0 => state.push(Instruction::new(Gate::Rz(angle), vec![a])),
            1 => state.push(Instruction::new(Gate::Sx, vec![a])),
            2 => state.push(Instruction::new(Gate::U(angle, 0.2, 0.7), vec![a])),
            3 => state.push(Instruction::new(Gate::Measure, vec![a])),
            4 | 5 => {
                if a != b {
                    state.push(Instruction::new(Gate::Cx, vec![a, b]));
                }
            }
            6 => {
                if a != b {
                    state.push(Instruction::new(Gate::Swap, vec![a, b]));
                }
            }
            _ => {
                state.pop();
            }
        }
    }
    state
}

/// The reference sum of the distances between the physical endpoints of
/// `nodes` under `layout`: re-resolves every gate through the layout.
fn reference_distance(ctx: &RoutingContext<'_>, nodes: &[usize], layout: &Layout) -> f64 {
    nodes
        .iter()
        .map(|&node| {
            let inst = &ctx.dag.node(node).instruction;
            let a = layout.physical_of(inst.qubit(0));
            let b = layout.physical_of(inst.qubit(1));
            ctx.distances.weight(a, b)
        })
        .sum()
}

/// The reference window: a full backwards scan of the output circuit.
fn reference_window(circuit: &QuantumCircuit, p1: usize, p2: usize, limit: usize) -> Vec<u32> {
    circuit
        .iter()
        .enumerate()
        .rev()
        .filter(|(_, inst)| inst.acts_on(p1) || inst.acts_on(p2))
        .take(limit)
        .map(|(idx, _)| idx as u32)
        .collect()
}

/// Evaluates the optimization-aware CNOT reductions for inserting a SWAP on
/// physical qubits `(p1, p2)` given the already-routed output circuit.
fn reference_swap_reduction(
    output: &QuantumCircuit,
    p1: usize,
    p2: usize,
    flags: &OptimizationFlags,
) -> SwapReduction {
    let mut reduction = SwapReduction::default();
    if flags.block_resynthesis {
        reduction.c_2q = block_resynthesis_reduction(output, p1, p2);
    }
    if flags.commute_cancellation {
        if let Some((gain, control)) = commute1_reduction(output, p1, p2) {
            reduction.c_commute1 = gain;
            reduction.first_control = Some(control);
        }
    }
    if flags.swap_sandwich_cancellation {
        if let Some((gain, control, partner)) = commute2_reduction(output, p1, p2) {
            reduction.c_commute2 = gain;
            if reduction.first_control.is_none() {
                reduction.first_control = Some(control);
            }
            reduction.partner_swap_index = Some(partner);
        }
    }
    reduction
}

/// `C_2q`: how many of the SWAP's three CNOTs disappear when the SWAP is
/// merged into the trailing two-qubit block on `(p1, p2)` and the block is
/// re-synthesised.
fn block_resynthesis_reduction(output: &QuantumCircuit, p1: usize, p2: usize) -> f64 {
    let Some(block) = trailing_block(output, p1, p2) else {
        return 0.0;
    };
    if !block.iter().any(|inst| inst.is_two_qubit()) {
        return 0.0;
    }
    let low = p1.min(p2);
    let block_unitary = block_matrix(&block, low);
    let with_swap = Matrix4::swap().mul(&block_unitary);
    let (Ok(old_cost), Ok(new_cost)) = (
        two_qubit_cnot_cost(&block_unitary),
        two_qubit_cnot_cost(&with_swap),
    ) else {
        return 0.0;
    };
    let extra = new_cost.saturating_sub(old_cost) as f64;
    (3.0 - extra).clamp(0.0, 3.0)
}

/// `C_commute1`: 2 when a CNOT on `(p1, p2)` earlier in the circuit can
/// commute up to the insertion point and cancel against the SWAP's first
/// CNOT. Returns the control that first CNOT needs.
fn commute1_reduction(output: &QuantumCircuit, p1: usize, p2: usize) -> Option<(f64, usize)> {
    let window = touching_window(output, p1, p2);
    // Gates between the candidate CNOT and the insertion point (multi-qubit
    // gates only; single-qubit gates are movable through the SWAP).
    let mut between: Vec<&Instruction> = Vec::new();
    for &idx in window.iter().rev() {
        let inst = &output.instructions()[idx];
        if inst.num_qubits() == 1 && inst.gate.is_unitary() {
            continue;
        }
        let on_pair = inst.num_qubits() == 2 && inst.acts_on(p1) && inst.acts_on(p2);
        if on_pair && inst.gate == Gate::Cx {
            if between.is_empty() {
                // Directly adjacent: the block-resynthesis term already
                // captures this case.
                return None;
            }
            let commutes_past_all = between
                .iter()
                .all(|other| instructions_commute(inst, other));
            if commutes_past_all {
                return Some((2.0, inst.qubit(0)));
            }
            return None;
        }
        if on_pair {
            // A non-CNOT gate on the pair (e.g. an earlier SWAP) stops the search.
            return None;
        }
        between.push(inst);
    }
    None
}

/// `C_commute2`: 2 when an earlier SWAP on the same pair sandwiches a
/// commute set, so one CNOT of each SWAP cancels. Returns the control both
/// SWAPs' first CNOTs need and the output index of the earlier SWAP.
fn commute2_reduction(
    output: &QuantumCircuit,
    p1: usize,
    p2: usize,
) -> Option<(f64, usize, usize)> {
    let window = touching_window(output, p1, p2);
    let mut between: Vec<&Instruction> = Vec::new();
    for &idx in window.iter().rev() {
        let inst = &output.instructions()[idx];
        if inst.num_qubits() == 1 && inst.gate.is_unitary() {
            continue;
        }
        let on_pair = inst.num_qubits() == 2 && inst.acts_on(p1) && inst.acts_on(p2);
        if on_pair && inst.gate == Gate::Swap {
            if between.is_empty() {
                // Back-to-back SWAPs cancel entirely; the block term covers it.
                return None;
            }
            // Try both CNOT orientations for the cancelling pair.
            for control in [p1, p2] {
                let target = if control == p1 { p2 } else { p1 };
                let probe = Instruction::new(Gate::Cx, [control, target]);
                if between
                    .iter()
                    .all(|other| instructions_commute(&probe, other))
                {
                    return Some((2.0, control, idx));
                }
            }
            return None;
        }
        if on_pair {
            return None;
        }
        between.push(inst);
    }
    None
}

/// The indices (in circuit order) of the last [`SEARCH_WINDOW`] instructions
/// touching `p1` or `p2`.
fn touching_window(output: &QuantumCircuit, p1: usize, p2: usize) -> Vec<usize> {
    let mut window: Vec<usize> = output
        .iter()
        .enumerate()
        .rev()
        .filter(|(_, inst)| inst.acts_on(p1) || inst.acts_on(p2))
        .take(SEARCH_WINDOW)
        .map(|(idx, _)| idx)
        .collect();
    window.reverse();
    window
}

/// The trailing run of gates confined to `{p1, p2}` (the block a SWAP on
/// that pair would join), in circuit order.
fn trailing_block(output: &QuantumCircuit, p1: usize, p2: usize) -> Option<Vec<Instruction>> {
    let mut block: Vec<Instruction> = Vec::new();
    for inst in output.iter().rev() {
        if !(inst.acts_on(p1) || inst.acts_on(p2)) {
            continue;
        }
        let confined = inst.gate.is_unitary() && inst.qubits().iter().all(|q| q == p1 || q == p2);
        if confined {
            block.push(inst.clone());
            if block.len() >= SEARCH_WINDOW {
                break;
            }
        } else {
            break;
        }
    }
    if block.is_empty() {
        return None;
    }
    block.reverse();
    Some(block)
}

/// Multiplies a block of gates on the pair into a 4×4 matrix (`low` is the
/// least-significant qubit).
fn block_matrix(block: &[Instruction], low: usize) -> Matrix4 {
    let mut acc = Matrix4::identity();
    for inst in block {
        acc = pair_matrix(inst, low).mul(&acc);
    }
    acc
}

/// Asserts that the production reduction terms equal the reference's —
/// gains, first-CNOT controls and sandwich partners — for every pair of
/// `state`'s qubits and every flag combination.
fn assert_reductions_match_reference(state: &RoutingState) {
    let width = state.num_qubits();
    for flags in OptimizationFlags::all_combinations() {
        for p1 in 0..width {
            for p2 in (0..width).filter(|&p2| p2 != p1) {
                assert_eq!(
                    evaluate_swap_reduction(state, p1, p2, &flags),
                    reference_swap_reduction(state.circuit(), p1, p2, &flags),
                    "pair ({p1}, {p2}) flags {}",
                    flags.label()
                );
            }
        }
    }
}

/// One fixed circuit: single-qubit gates between CNOTs, a SWAP with CNOTs
/// after it, and a trailing two-qubit block.
#[test]
fn fixed_circuit_reductions_match_the_reference() {
    let mut output = QuantumCircuit::new(4);
    output.cx(2, 1).u(0.1, 0.2, 0.3, 1).cx(0, 1).t(2);
    output.swap(0, 1).cx(2, 1).h(3).cx(3, 2);
    assert_reductions_match_reference(&RoutingState::from_circuit(output));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `RoutingState::rev_touching_window` equals the full backwards scan
    /// for every pair and several window limits, after arbitrary push/pop
    /// histories.
    #[test]
    fn touch_windows_match_full_scans(
        ops in proptest::collection::vec((any::<u8>(), 0usize..WIDTH, 0usize..WIDTH, -3.0f64..3.0), 0..60),
    ) {
        let state = build_state(&ops);
        let rebuilt = RoutingState::from_circuit(state.circuit().clone());
        prop_assert_eq!(&state, &rebuilt, "push/pop history desynced the index");
        let mut buf = [0u32; 32];
        for p1 in 0..WIDTH {
            for p2 in 0..WIDTH {
                if p1 == p2 {
                    continue;
                }
                for limit in [1usize, 3, 20, 32] {
                    let n = state.rev_touching_window(p1, p2, &mut buf[..limit]);
                    let expect = reference_window(state.circuit(), p1, p2, limit);
                    prop_assert_eq!(&buf[..n], &expect[..], "pair ({}, {}) limit {}", p1, p2, limit);
                }
            }
        }
    }

    /// The windowed Eq. 2 reduction terms equal the full-recompute reference
    /// — gains, first-CNOT controls and sandwich partners — for every pair
    /// and every flag combination.
    #[test]
    fn windowed_swap_reductions_match_reference(
        ops in proptest::collection::vec((any::<u8>(), 0usize..WIDTH, 0usize..WIDTH, -3.0f64..3.0), 0..50),
    ) {
        assert_reductions_match_reference(&build_state(&ops));
    }

    /// Relisting every SWAP with its second qubit first, as NASSC's emission
    /// may, changes no routing decision: the touch index and every windowed
    /// reduction, under every flag combination, stay exactly as they were.
    #[test]
    fn swap_orientation_changes_no_index_or_reduction(
        ops in proptest::collection::vec((any::<u8>(), 0usize..WIDTH, 0usize..WIDTH, -3.0f64..3.0), 0..50),
    ) {
        let state = build_state(&ops);
        let mut oriented = state.clone();
        for index in 0..state.num_gates() {
            let inst = state.instruction(index);
            if inst.gate == Gate::Swap {
                oriented.orient_swap(index, inst.qubit(1));
            }
        }
        let rebuilt = RoutingState::from_circuit(oriented.circuit().clone());
        prop_assert_eq!(&oriented, &rebuilt, "orienting desynced the index");
        let (mut before, mut after) = ([0u32; 64], [0u32; 64]);
        for p1 in 0..WIDTH {
            for p2 in 0..WIDTH {
                if p1 == p2 {
                    continue;
                }
                let n = state.rev_touching_window(p1, p2, &mut before);
                let m = oriented.rev_touching_window(p1, p2, &mut after);
                prop_assert_eq!(&before[..n], &after[..m], "pair ({}, {})", p1, p2);
                for flags in OptimizationFlags::all_combinations() {
                    prop_assert_eq!(
                        evaluate_swap_reduction(&state, p1, p2, &flags),
                        evaluate_swap_reduction(&oriented, p1, p2, &flags),
                        "pair ({}, {}) flags {}", p1, p2, flags.label()
                    );
                }
            }
        }
    }

    /// The zero-clone after-swap distances equal (bitwise) the reference
    /// clone-the-layout-and-resum path, for every candidate pair.
    #[test]
    fn after_swap_distances_match_layout_clones(
        ops in proptest::collection::vec((4u8..6, 0usize..WIDTH, 0usize..WIDTH, 0.0f64..1.0), 1..25),
        layout_seed in 0u64..1000,
    ) {
        // A logical circuit of CNOTs; its 2q nodes provide front/extended layers.
        let mut qc = QuantumCircuit::new(WIDTH);
        for &(_, a, b, _) in &ops {
            let (a, b) = (a % WIDTH, b % WIDTH);
            if a != b {
                qc.cx(a, b);
            }
        }
        if qc.is_empty() {
            qc.cx(0, 1); // every case needs at least one 2q node
        }
        let dag = DagCircuit::from_circuit(&qc);
        let nodes: Vec<usize> = (0..dag.num_nodes()).collect();
        let (front, extended) = nodes.split_at(nodes.len().div_ceil(2));

        let device = CouplingMap::linear(WIDTH);
        let distances = device.distance_matrix();
        let layout = Layout::random(WIDTH, &mut StdRng::seed_from_u64(layout_seed));
        let state = RoutingState::new(WIDTH);
        let mut endpoints = StepEndpoints::new();
        endpoints.prepare(&dag, front, extended, &layout);
        let ctx = RoutingContext::new(&distances, front, extended, &dag, &state, &endpoints);
        for p1 in 0..WIDTH {
            for p2 in 0..WIDTH {
                if p1 == p2 {
                    continue;
                }
                let mut trial = layout.clone();
                trial.swap_physical(p1, p2);
                // Bitwise equality: same gates, same summation order.
                prop_assert_eq!(
                    ctx.front_distance_after_swap(p1, p2).to_bits(),
                    reference_distance(&ctx, front, &trial).to_bits()
                );
                prop_assert_eq!(
                    ctx.extended_distance_after_swap(p1, p2).to_bits(),
                    reference_distance(&ctx, extended, &trial).to_bits()
                );
            }
        }
    }
}

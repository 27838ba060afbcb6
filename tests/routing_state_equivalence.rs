//! The incremental-routing-state contract: the windowed per-qubit touch
//! index and the delta-style (cached-endpoint, zero-clone) scoring helpers
//! agree *exactly* — same booleans, same floats — with the full-recompute
//! reference implementations, on random circuits, random push/pop
//! histories and every qubit pair. A SWAP's qubit order, which NASSC sets
//! to orient its expansion, changes none of them.

use proptest::prelude::*;

use nassc::circuit::{DagCircuit, Gate, Instruction, QuantumCircuit};
use nassc::sabre::{RoutingContext, RoutingState, StepEndpoints};
use nassc::{evaluate_swap_reduction, evaluate_swap_reduction_windowed, OptimizationFlags};
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
        let state = build_state(&ops);
        for flags in OptimizationFlags::all_combinations() {
            for p1 in 0..WIDTH {
                for p2 in 0..WIDTH {
                    if p1 == p2 {
                        continue;
                    }
                    let fast = evaluate_swap_reduction_windowed(&state, p1, p2, &flags);
                    let reference = evaluate_swap_reduction(state.circuit(), p1, p2, &flags);
                    prop_assert_eq!(
                        fast, reference,
                        "pair ({}, {}) flags {}", p1, p2, flags.label()
                    );
                }
            }
        }
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
                        evaluate_swap_reduction_windowed(&state, p1, p2, &flags),
                        evaluate_swap_reduction_windowed(&oriented, p1, p2, &flags),
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

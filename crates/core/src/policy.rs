//! The NASSC routing policy: SABRE's traversal with the optimization-aware
//! cost function of Eq. 2 and optimization-aware SWAP decomposition.

use nassc_circuit::{Gate, Instruction, QuantumCircuit};
use nassc_sabre::{RoutingContext, RoutingState, SwapPolicy};

use crate::cost::{evaluate_swap_reduction, OptimizationFlags};

/// NASSC's SWAP-scoring policy.
///
/// The score of a candidate SWAP is the paper's Eq. 2:
///
/// ```text
/// H = (3·Σ_F D − Σ_k b_k·C_k) / |F|  +  W·Σ_E D / |E|
/// ```
///
/// where the `C_k` reductions are evaluated against the already-routed
/// output circuit. Emitting the winner, the policy lists first the qubit
/// each cancellation needs as the control of the SWAP's first CNOT (a
/// SWAP's qubit order is its orientation), and commutes trailing
/// single-qubit gates through the SWAP (the single-qubit movement of
/// §IV-E).
#[derive(Debug, Clone, Default)]
pub struct NasscPolicy {
    flags: OptimizationFlags,
    detached_gates: Vec<Instruction>,
}

impl NasscPolicy {
    /// Creates a policy with the given optimization flags.
    pub fn new(flags: OptimizationFlags) -> Self {
        Self {
            flags,
            ..Self::default()
        }
    }

    /// Expands every `swap` of a routed circuit into three CNOTs: a
    /// forwarder to [`nassc_synthesis::expand_swaps`], which both routers'
    /// pipelines call directly.
    pub fn decompose_swaps(&self, routed: &QuantumCircuit) -> QuantumCircuit {
        nassc_synthesis::expand_swaps(routed)
    }
}

impl SwapPolicy for NasscPolicy {
    fn score(&self, ctx: &RoutingContext<'_>, p1: usize, p2: usize) -> f64 {
        let front_len = ctx.front.len().max(1) as f64;
        let reduction = evaluate_swap_reduction(ctx.state, p1, p2, &self.flags);
        let basic = (3.0 * ctx.front_distance_after_swap(p1, p2) - reduction.total()) / front_len;
        basic + ctx.extended_cost(p1, p2)
    }

    fn emit_swap(&mut self, output: &mut RoutingState, p1: usize, p2: usize) {
        // Re-evaluate the winning candidate for the control its first CNOT
        // needs (and its sandwich partner's).
        let reduction = evaluate_swap_reduction(output, p1, p2, &self.flags);

        // Single-qubit movement: trailing one-qubit gates on the swapped
        // wires can hop over the SWAP (retargeted to the partner wire), so
        // they no longer block commutation-based cancellation. Detaching
        // goes through `RoutingState::pop`, which keeps the touch index
        // exact without rebuilding the instruction vector.
        self.detached_gates.clear();
        while let Some(last) = output.circuit().instructions().last() {
            let movable = last.gate.is_unitary()
                && last.num_qubits() == 1
                && (last.qubit(0) == p1 || last.qubit(0) == p2);
            if !movable {
                break;
            }
            let gate = output.pop().expect("checked non-empty");
            let other = if gate.qubit(0) == p1 { p2 } else { p1 };
            self.detached_gates
                .push(Instruction::new(gate.gate, [other]));
        }

        let control = reduction.first_control.unwrap_or(p1);
        let other = if control == p1 { p2 } else { p1 };
        output.push(Instruction::new(Gate::Swap, [control, other]));
        if let Some(partner) = reduction.partner_swap_index {
            // The sandwich partner's last CNOT must match our first: for the
            // symmetric 3-CNOT template that means the same control first on
            // both SWAPs.
            output.orient_swap(partner, control);
        }
        for inst in self.detached_gates.drain(..).rev() {
            output.push(inst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassc_circuit::{circuits_equivalent, DagCircuit};
    use nassc_parallel::ThreadPool;
    use nassc_passes::standard_optimization_pipeline;
    use nassc_sabre::{route_prepared, RoutingResult, SabreConfig};
    use nassc_topology::{CouplingMap, Layout};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Routes `qc` from the trivial layout with `policy`, `seed` seeding
    /// the RNG.
    fn route(
        qc: &QuantumCircuit,
        coupling: &CouplingMap,
        policy: &mut NasscPolicy,
        seed: u64,
    ) -> RoutingResult {
        route_prepared(
            &DagCircuit::from_circuit(qc),
            coupling,
            &coupling.distance_matrix(),
            &Layout::trivial(coupling.num_qubits()),
            &SabreConfig::default(),
            policy,
            &mut StdRng::seed_from_u64(seed),
            &ThreadPool::new(1),
        )
    }

    #[test]
    fn routes_figure1_circuit_with_one_swap() {
        let line = CouplingMap::linear(3);
        let mut qc = QuantumCircuit::new(3);
        qc.cx(1, 2).cx(0, 1).cx(0, 2);
        let mut policy = NasscPolicy::new(OptimizationFlags::all());
        let result = route(&qc, &line, &mut policy, 1);
        assert_eq!(result.swap_count, 1);
    }

    #[test]
    fn decompose_swaps_preserves_semantics() {
        let grid = CouplingMap::grid(2, 2);
        let mut qc = QuantumCircuit::new(4);
        qc.cx(0, 3).h(1).cx(1, 2).cx(0, 3).cx(2, 3);
        let mut policy = NasscPolicy::new(OptimizationFlags::all());
        let result = route(&qc, &grid, &mut policy, 4);
        let decomposed = policy.decompose_swaps(&result.circuit);
        assert_eq!(decomposed.swap_count(), 0);
        assert!(circuits_equivalent(&result.circuit, &decomposed, 1e-8));
    }

    #[test]
    fn single_qubit_gates_move_through_the_swap() {
        // Manually exercise the emission hook: a trailing U3 on one of the
        // swapped wires must end up after the SWAP, on the other wire.
        let mut circuit = QuantumCircuit::new(2);
        circuit.cx(0, 1).u(0.1, 0.2, 0.3, 0);
        let before = circuit.clone();
        let mut output = RoutingState::from_circuit(circuit);
        let mut policy = NasscPolicy::new(OptimizationFlags::all());
        policy.emit_swap(&mut output, 0, 1);
        let output = output.into_circuit();
        // The U3 now sits after the SWAP on wire 1.
        let last = output.instructions().last().unwrap();
        assert_eq!(last.gate.name(), "u");
        assert_eq!(last.qubits().to_vec(), vec![1]);
        // Semantics: original + SWAP == transformed output.
        let mut reference = before;
        reference.swap(0, 1);
        assert!(circuits_equivalent(&reference, &output, 1e-9));
    }

    #[test]
    fn sandwiched_swaps_are_listed_control_first() {
        // The SWAP about to be emitted on (0, 1) sandwiches CX(1, 2) with the
        // earlier one. Only CX(1, 0) commutes past CX(1, 2), so both SWAPs
        // must list qubit 1 first for one CNOT of each to cancel.
        let mut routed = QuantumCircuit::new(3);
        routed.swap(0, 1).cx(1, 2);
        let mut output = RoutingState::from_circuit(routed);
        let mut policy = NasscPolicy::new(OptimizationFlags::all());
        policy.emit_swap(&mut output, 0, 1);
        let oriented = output.into_circuit();
        let swaps: Vec<Vec<usize>> = oriented
            .iter()
            .filter(|inst| inst.gate == Gate::Swap)
            .map(|inst| inst.qubits().to_vec())
            .collect();
        assert_eq!(swaps, vec![vec![1, 0], vec![1, 0]]);

        let mut fixed = QuantumCircuit::new(3);
        fixed.swap(0, 1).cx(1, 2).swap(0, 1);
        let optimize = |routed: &QuantumCircuit| {
            standard_optimization_pipeline()
                .run(&policy.decompose_swaps(routed))
                .unwrap()
        };
        let (optimized, baseline) = (optimize(&oriented), optimize(&fixed));
        assert!(circuits_equivalent(&oriented, &optimized, 1e-8));
        assert!(
            optimized.cx_count() < baseline.cx_count(),
            "oriented {} vs fixed {} CNOTs",
            optimized.cx_count(),
            baseline.cx_count()
        );
    }

    #[test]
    fn routed_circuits_respect_coupling_and_semantics() {
        use nassc_circuit::circuits_equivalent_up_to_permutation;
        use nassc_passes::is_mapped;
        use rand::Rng;
        let line = CouplingMap::linear(5);
        let mut rng = StdRng::seed_from_u64(33);
        for trial in 0..8 {
            let mut qc = QuantumCircuit::new(5);
            for _ in 0..12 {
                let a = rng.gen_range(0..5);
                let b = (a + rng.gen_range(1..5)) % 5;
                if rng.gen_bool(0.25) {
                    qc.t(a);
                } else {
                    qc.cx(a, b);
                }
            }
            let mut policy = NasscPolicy::new(OptimizationFlags::all());
            let result = route(&qc, &line, &mut policy, trial);
            assert!(is_mapped(&result.circuit, &line));
            let decomposed = policy.decompose_swaps(&result.circuit);
            assert!(is_mapped(&decomposed, &line));
            let perm = result.initial_layout.permutation_to(&result.final_layout);
            let embedded = qc.map_qubits(5, |q| result.initial_layout.physical_of(q));
            assert!(
                circuits_equivalent_up_to_permutation(&embedded, &decomposed, &perm, 1e-7),
                "trial {trial}: NASSC routing changed semantics"
            );
        }
    }
}

//! The NASSC routing policy: SABRE's traversal with the optimization-aware
//! cost function of Eq. 2 and optimization-aware SWAP decomposition.

use std::collections::HashMap;

use nassc_circuit::{Gate, Instruction, QuantumCircuit};
use nassc_sabre::{RoutingContext, RoutingState, SwapPolicy};
use nassc_synthesis::{swap_decomposition, SwapOrientation};
use nassc_topology::Layout;

use crate::cost::{evaluate_swap_reduction_windowed, OptimizationFlags};

/// NASSC's SWAP-scoring policy.
///
/// The score of a candidate SWAP is the paper's Eq. 2:
///
/// ```text
/// H = (3·Σ_F D − Σ_k b_k·C_k) / |F|  +  W·Σ_E D / |E|
/// ```
///
/// where the `C_k` reductions are evaluated against the already-routed
/// output circuit. Alongside scoring, the policy records the SWAP
/// decomposition orientation each cancellation requires and commutes
/// trailing single-qubit gates through the SWAP (the single-qubit movement
/// of §IV-E).
#[derive(Debug, Clone, Default)]
pub struct NasscPolicy {
    flags: OptimizationFlags,
    orientations: HashMap<usize, SwapOrientation>,
    pending_orientation: Option<SwapOrientation>,
    pending_partner: Option<usize>,
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

    /// The orientation recorded for the SWAP emitted at `output_index`
    /// (defaults to [`SwapOrientation::FirstQubitControl`] when no
    /// cancellation constrained it).
    pub fn orientation_of(&self, output_index: usize) -> SwapOrientation {
        self.orientations
            .get(&output_index)
            .copied()
            .unwrap_or_default()
    }

    /// All recorded orientations keyed by output instruction index.
    pub fn orientations(&self) -> &HashMap<usize, SwapOrientation> {
        &self.orientations
    }

    /// Expands every `swap` instruction of a routed circuit into three CNOTs
    /// using the orientations this policy recorded during routing.
    pub fn decompose_swaps(&self, routed: &QuantumCircuit) -> QuantumCircuit {
        let mut out = QuantumCircuit::new(routed.num_qubits());
        for (idx, inst) in routed.iter().enumerate() {
            if inst.gate == Gate::Swap {
                let orientation = self.orientation_of(idx);
                for cx in swap_decomposition(inst.qubit(0), inst.qubit(1), orientation) {
                    out.push(cx);
                }
            } else {
                out.push(inst.clone());
            }
        }
        out
    }
}

impl SwapPolicy for NasscPolicy {
    fn score(&self, ctx: &RoutingContext<'_>, p1: usize, p2: usize) -> f64 {
        let front_len = ctx.front.len().max(1) as f64;
        let reduction = evaluate_swap_reduction_windowed(ctx.state, p1, p2, &self.flags);
        let basic = (3.0 * ctx.front_distance_after_swap(p1, p2) - reduction.total()) / front_len;
        let extended = if ctx.extended.is_empty() {
            0.0
        } else {
            ctx.config.extended_set_weight * ctx.extended_distance_after_swap(p1, p2)
                / ctx.extended.len() as f64
        };
        basic + extended
    }

    fn before_swap_emit(
        &mut self,
        output: &mut RoutingState,
        _layout: &Layout,
        p1: usize,
        p2: usize,
    ) {
        // Re-evaluate the winning candidate to fix its decomposition
        // orientation (and its sandwich partner's).
        let reduction = evaluate_swap_reduction_windowed(output, p1, p2, &self.flags);
        self.pending_orientation = reduction.orientation;
        self.pending_partner = reduction.partner_swap_index;

        // Single-qubit movement: trailing one-qubit gates on the swapped
        // wires can hop over the SWAP (retargeted to the partner wire), so
        // they no longer block commutation-based cancellation. Detaching
        // goes through `RoutingState::pop`, which keeps the touch index
        // exact without rebuilding the instruction vector.
        self.detached_gates.clear();
        loop {
            let movable = match output.circuit().instructions().last() {
                Some(last) => {
                    last.gate.is_unitary()
                        && last.num_qubits() == 1
                        && (last.qubit(0) == p1 || last.qubit(0) == p2)
                }
                None => false,
            };
            if !movable {
                break;
            }
            let gate = output.pop().expect("checked non-empty");
            let other = if gate.qubit(0) == p1 { p2 } else { p1 };
            self.detached_gates
                .push(Instruction::new(gate.gate, vec![other]));
        }
        self.detached_gates.reverse();
    }

    fn after_swap_emit(
        &mut self,
        output: &mut RoutingState,
        swap_index: usize,
        _p1: usize,
        _p2: usize,
    ) {
        if let Some(orientation) = self.pending_orientation.take() {
            self.orientations.insert(swap_index, orientation);
            if let Some(partner) = self.pending_partner.take() {
                // The sandwich partner's *last* CNOT must match our first:
                // for the symmetric 3-CNOT template that means the same
                // orientation on both SWAPs.
                self.orientations.insert(partner, orientation);
            }
        }
        self.pending_partner = None;
        for inst in self.detached_gates.drain(..) {
            output.push(inst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassc_circuit::{circuits_equivalent, DagCircuit};
    use nassc_parallel::ThreadPool;
    use nassc_sabre::{route_prepared, RoutingResult, SabreConfig};
    use nassc_topology::CouplingMap;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Routes `qc` from the trivial layout with `policy`, `seed` seeding
    /// both the heuristic configuration and the RNG.
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
            &SabreConfig::with_seed(seed),
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
    fn orientation_defaults_when_unconstrained() {
        let policy = NasscPolicy::new(OptimizationFlags::all());
        assert_eq!(
            policy.orientation_of(42),
            SwapOrientation::FirstQubitControl
        );
    }

    #[test]
    fn single_qubit_gates_move_through_the_swap() {
        // Manually exercise the emission hooks: a trailing U3 on one of the
        // swapped wires must end up after the SWAP, on the other wire.
        let mut circuit = QuantumCircuit::new(2);
        circuit.cx(0, 1).u(0.1, 0.2, 0.3, 0);
        let before = circuit.clone();
        let mut output = RoutingState::from_circuit(circuit);
        let mut policy = NasscPolicy::new(OptimizationFlags::all());
        let layout = Layout::trivial(2);
        policy.before_swap_emit(&mut output, &layout, 0, 1);
        output.push(Instruction::new(Gate::Swap, vec![0, 1]));
        let swap_index = output.num_gates() - 1;
        policy.after_swap_emit(&mut output, swap_index, 0, 1);
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

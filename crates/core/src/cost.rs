//! The optimization-aware pieces of NASSC's cost function (Eq. 1–2):
//! the `C_2q`, `C_commute1` and `C_commute2` reduction terms and the
//! SWAP orientation they imply: which qubit controls the SWAP's first CNOT.
//!
//! [`evaluate_swap_reduction`] computes them from a [`RoutingState`]'s
//! per-qubit index: it reads the last [`SEARCH_WINDOW`] instructions
//! touching the SWAP's pair in O(window), with all buffers on the stack.
//! `tests/routing_state_equivalence.rs` keeps a full-scan reference, which
//! walks the whole output circuit backwards, and property-tests this path
//! against it (same instructions, same order, same floats) on random
//! push/pop histories, for every qubit pair and all eight flag sets.

use nassc_circuit::{Gate, Instruction};
use nassc_math::Matrix4;
use nassc_passes::{instructions_commute, pair_matrix, COMMUTE_SET_LIMIT};
use nassc_sabre::RoutingState;
use nassc_synthesis::two_qubit_cnot_cost;

/// Which of the three optimizations NASSC anticipates during routing
/// (the paper's `b_k` bits; Figure 9 sweeps all eight combinations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizationFlags {
    /// Account for two-qubit block re-synthesis (`C_2q`).
    pub block_resynthesis: bool,
    /// Account for CNOT–SWAP cancellation through a commute set (`C_commute1`).
    pub commute_cancellation: bool,
    /// Account for SWAP–SWAP cancellation around a commute set (`C_commute2`).
    pub swap_sandwich_cancellation: bool,
}

impl Default for OptimizationFlags {
    /// All optimizations enabled — the configuration the paper adopts.
    fn default() -> Self {
        Self::all()
    }
}

impl OptimizationFlags {
    /// Every optimization enabled.
    pub fn all() -> Self {
        Self {
            block_resynthesis: true,
            commute_cancellation: true,
            swap_sandwich_cancellation: true,
        }
    }

    /// Every optimization disabled. Eq. 2's front term is then SABRE's
    /// front-layer distance scaled by 3, but its extended term is not
    /// scaled, so the lookahead weighs a third of what it weighs in SABRE and
    /// routing differs from [`nassc_sabre::SabrePolicy`]'s. Whether the
    /// extended term should be scaled too is an open question.
    pub fn none() -> Self {
        Self {
            block_resynthesis: false,
            commute_cancellation: false,
            swap_sandwich_cancellation: false,
        }
    }

    /// The eight combinations of the three flags, for the Figure 9 sweep.
    pub fn all_combinations() -> Vec<OptimizationFlags> {
        let mut out = Vec::with_capacity(8);
        for bits in 0..8u8 {
            out.push(OptimizationFlags {
                block_resynthesis: bits & 1 != 0,
                commute_cancellation: bits & 2 != 0,
                swap_sandwich_cancellation: bits & 4 != 0,
            });
        }
        out
    }

    /// A short label such as `"2q+c1"` for reports.
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.block_resynthesis {
            parts.push("2q");
        }
        if self.commute_cancellation {
            parts.push("c1");
        }
        if self.swap_sandwich_cancellation {
            parts.push("c2");
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join("+")
        }
    }
}

/// The outcome of evaluating the optimization-aware reductions for one SWAP
/// candidate. The default is no reduction at all.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SwapReduction {
    /// Estimated CNOT reduction from two-qubit block re-synthesis (0–3).
    pub c_2q: f64,
    /// Estimated CNOT reduction from CNOT–SWAP commutation cancellation (0 or 2).
    pub c_commute1: f64,
    /// Estimated CNOT reduction from SWAP–SWAP sandwich cancellation (0 or 2).
    pub c_commute2: f64,
    /// The qubit that must control the SWAP's first CNOT for the
    /// cancellation to happen, if any.
    pub first_control: Option<usize>,
    /// Output index of an earlier SWAP whose first CNOT should have the same
    /// control (the `C_commute2` sandwich partner).
    pub partner_swap_index: Option<usize>,
}

impl SwapReduction {
    /// The total reduction `Σ b_k · C_k`.
    pub fn total(&self) -> f64 {
        self.c_2q + self.c_commute1 + self.c_commute2
    }
}

/// Size cap on backwards searches through the resolved circuit: the
/// commute-set limit the commutative-cancellation pass groups with.
pub const SEARCH_WINDOW: usize = COMMUTE_SET_LIMIT;

/// Evaluates the optimization-aware CNOT reductions for inserting a SWAP on
/// physical qubits `(p1, p2)` after the output routed so far, in
/// O([`SEARCH_WINDOW`]) and with zero heap allocation.
///
/// Why a window of [`SEARCH_WINDOW`] touching instructions is *exact*, not
/// an approximation: every backwards search the full-scan reference in
/// `tests/routing_state_equivalence.rs` performs either stops at a touching
/// instruction it disqualifies, caps itself at [`SEARCH_WINDOW`] gates, or
/// exhausts the circuit — so no search ever examines more than the last
/// [`SEARCH_WINDOW`] instructions touching `p1`/`p2`, which is precisely
/// what [`RoutingState::rev_touching_window`] yields.
pub fn evaluate_swap_reduction(
    state: &RoutingState,
    p1: usize,
    p2: usize,
    flags: &OptimizationFlags,
) -> SwapReduction {
    let mut buf = [0u32; SEARCH_WINDOW];
    let len = state.rev_touching_window(p1, p2, &mut buf);
    let window = &buf[..len];
    let mut reduction = SwapReduction::default();
    if flags.block_resynthesis {
        reduction.c_2q = block_resynthesis(state, window, p1, p2);
    }
    if flags.commute_cancellation || flags.swap_sandwich_cancellation {
        commute(state, window, p1, p2, flags, &mut reduction);
    }
    reduction
}

/// `C_2q`: how many of the SWAP's three CNOTs disappear when the SWAP is
/// merged into the trailing two-qubit block on `(p1, p2)` and the block is
/// re-synthesised. Gathers the trailing `{p1, p2}`-confined run from the
/// most-recent-first window, then multiplies it oldest-first.
fn block_resynthesis(state: &RoutingState, window: &[u32], p1: usize, p2: usize) -> f64 {
    let mut block = [0u32; SEARCH_WINDOW];
    let mut len = 0usize;
    let mut has_two_qubit = false;
    for &idx in window {
        let inst = state.instruction(idx as usize);
        let confined = inst.gate.is_unitary() && inst.qubits().iter().all(|q| q == p1 || q == p2);
        if !confined {
            break;
        }
        block[len] = idx;
        len += 1;
        has_two_qubit |= inst.is_two_qubit();
        if len >= SEARCH_WINDOW {
            break;
        }
    }
    if len == 0 || !has_two_qubit {
        return 0.0;
    }
    let low = p1.min(p2);
    let mut block_unitary = Matrix4::identity();
    for &idx in block[..len].iter().rev() {
        block_unitary = pair_matrix(state.instruction(idx as usize), low).mul(&block_unitary);
    }
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

/// `C_commute1` (2 when an earlier CNOT on the pair commutes up to the SWAP
/// and cancels its first CNOT) and `C_commute2` (2 when an earlier SWAP on
/// the pair sandwiches a commute set, so one CNOT of each cancels), in one
/// walk. Both skip one-qubit unitaries and stop at the first multi-qubit
/// gate on the pair: a CNOT there can only score `C_commute1`, a SWAP only
/// `C_commute2`.
fn commute(
    state: &RoutingState,
    window: &[u32],
    p1: usize,
    p2: usize,
    flags: &OptimizationFlags,
    reduction: &mut SwapReduction,
) {
    let mut between = [0u32; SEARCH_WINDOW];
    let mut between_len = 0usize;
    for &idx in window {
        let inst = state.instruction(idx as usize);
        if inst.num_qubits() == 1 && inst.gate.is_unitary() {
            continue;
        }
        let on_pair = inst.num_qubits() == 2 && inst.acts_on(p1) && inst.acts_on(p2);
        if !on_pair {
            between[between_len] = idx;
            between_len += 1;
            continue;
        }
        // Directly adjacent gates on the pair are the block-resynthesis
        // term's case.
        if between_len == 0 {
            return;
        }
        let commutes_past_all = |probe: &Instruction| {
            between[..between_len]
                .iter()
                .all(|&other| instructions_commute(probe, state.instruction(other as usize)))
        };
        match inst.gate {
            Gate::Cx if flags.commute_cancellation && commutes_past_all(inst) => {
                reduction.c_commute1 = 2.0;
                reduction.first_control = Some(inst.qubit(0));
            }
            Gate::Swap if flags.swap_sandwich_cancellation => {
                // Try both CNOT orientations for the cancelling pair.
                for (control, target) in [(p1, p2), (p2, p1)] {
                    if commutes_past_all(&Instruction::new(Gate::Cx, [control, target])) {
                        reduction.c_commute2 = 2.0;
                        reduction.first_control = Some(control);
                        reduction.partner_swap_index = Some(idx as usize);
                        break;
                    }
                }
            }
            _ => {}
        }
        return;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassc_circuit::QuantumCircuit;

    /// The reductions, every flag on, for a SWAP on `(p1, p2)` after `output`.
    fn reduction(output: QuantumCircuit, p1: usize, p2: usize) -> SwapReduction {
        let state = RoutingState::from_circuit(output);
        evaluate_swap_reduction(&state, p1, p2, &OptimizationFlags::all())
    }

    #[test]
    fn flags_combinations_cover_all_eight() {
        let combos = OptimizationFlags::all_combinations();
        assert_eq!(combos.len(), 8);
        assert!(combos.contains(&OptimizationFlags::all()));
        assert!(combos.contains(&OptimizationFlags::none()));
        assert_eq!(OptimizationFlags::all().label(), "2q+c1+c2");
        assert_eq!(OptimizationFlags::none().label(), "none");
    }

    #[test]
    fn swap_next_to_cnot_block_gets_c2q_two() {
        // Output so far ends with a CNOT on (0,1): merging a SWAP gives a
        // 2-CNOT operator, so only one extra CNOT is needed → reduction 2.
        let mut output = QuantumCircuit::new(3);
        output.h(0).cx(0, 1);
        let r = reduction(output, 0, 1);
        assert_eq!(r.c_2q, 2.0);
    }

    #[test]
    fn swap_next_to_three_cnot_block_is_free() {
        let mut output = QuantumCircuit::new(2);
        output
            .cx(0, 1)
            .rz(0.3, 1)
            .cx(1, 0)
            .ry(0.2, 0)
            .cx(0, 1)
            .rz(0.5, 0);
        let r = reduction(output, 0, 1);
        // The block already needs 3 CNOTs; adding the SWAP keeps it at ≤3.
        assert!(r.c_2q >= 2.0, "got {}", r.c_2q);
    }

    #[test]
    fn swap_with_no_neighbouring_block_gets_no_reduction() {
        let mut output = QuantumCircuit::new(4);
        output.cx(2, 3);
        let r = reduction(output, 0, 1);
        assert_eq!(r.total(), 0.0);
        assert!(r.first_control.is_none());
    }

    #[test]
    fn disabled_flags_suppress_reductions() {
        let mut output = QuantumCircuit::new(2);
        output.cx(0, 1);
        let state = RoutingState::from_circuit(output);
        let r = evaluate_swap_reduction(&state, 0, 1, &OptimizationFlags::none());
        assert_eq!(r.total(), 0.0);
    }

    #[test]
    fn commute1_found_through_commuting_cnot() {
        // Figure 6/7: a CNOT on (1,2) followed by a gate on (0,1) that
        // commutes with it (shared target 1? here CX(0,1) and CX(2,1) share
        // target 1). Inserting a SWAP on (2,1) can cancel with CX(2,1).
        let mut output = QuantumCircuit::new(3);
        output.cx(2, 1).cx(0, 1);
        let r = reduction(output, 1, 2);
        assert_eq!(r.c_commute1, 2.0);
        // The cancelling CNOT has control 2 → the SWAP's first CNOT must too.
        assert_eq!(r.first_control, Some(2));
    }

    #[test]
    fn commute1_blocked_by_non_commuting_gate() {
        let mut output = QuantumCircuit::new(3);
        output.cx(2, 1).cx(1, 0); // CX(1,0) does not commute with CX(2,1)
        let r = reduction(output, 1, 2);
        assert_eq!(r.c_commute1, 0.0);
    }

    #[test]
    fn commute2_found_for_sandwiched_swaps() {
        // An earlier SWAP on (0,1), then a commuting CNOT (shares target with
        // CX(0,1) probes), then a new SWAP on (0,1) would cancel one CNOT each.
        let mut output = QuantumCircuit::new(3);
        output.swap(0, 1).cx(2, 1);
        let r = reduction(output, 0, 1);
        assert_eq!(r.c_commute2, 2.0);
        assert_eq!(r.partner_swap_index, Some(0));
    }

    #[test]
    fn commute2_requires_an_intervening_commute_set() {
        let mut output = QuantumCircuit::new(2);
        output.swap(0, 1);
        let r = reduction(output, 0, 1);
        assert_eq!(r.c_commute2, 0.0);
    }

    #[test]
    fn single_qubit_gates_do_not_block_the_searches() {
        let mut output = QuantumCircuit::new(3);
        output.cx(2, 1).u(0.1, 0.2, 0.3, 1).cx(0, 1).t(2);
        let r = reduction(output, 1, 2);
        assert_eq!(r.c_commute1, 2.0, "the U3 on qubit 1 must be skipped");
    }

    #[test]
    fn reduction_total_sums_terms() {
        let r = SwapReduction {
            c_2q: 2.0,
            c_commute1: 2.0,
            c_commute2: 0.0,
            first_control: None,
            partner_swap_index: None,
        };
        assert_eq!(r.total(), 4.0);
    }
}

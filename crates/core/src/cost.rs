//! The optimization-aware pieces of NASSC's cost function (Eq. 1–2):
//! the `C_2q`, `C_commute1` and `C_commute2` reduction terms and the
//! SWAP orientation they imply: which qubit controls the SWAP's first CNOT.
//!
//! Two evaluation paths compute the same reductions:
//!
//! * [`evaluate_swap_reduction`] — the reference implementation, scanning the
//!   whole output circuit backwards. O(output) per call; kept as the
//!   executable specification the property tests compare against.
//! * [`evaluate_swap_reduction_windowed`] — the hot path, reading the last
//!   [`SEARCH_WINDOW`] touching instructions from a
//!   [`RoutingState`]'s per-qubit index in
//!   O(window), with all buffers on the stack. Exactly equal to the
//!   reference on every input (same instructions, same order, same floats).

use nassc_circuit::{Gate, Instruction, QuantumCircuit};
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
/// physical qubits `(p1, p2)` given the already-routed output circuit.
pub fn evaluate_swap_reduction(
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

/// [`evaluate_swap_reduction`] against a [`RoutingState`]'s windowed index:
/// O([`SEARCH_WINDOW`]) instead of O(output), zero heap allocation, and
/// exactly equal to the reference implementation on every input.
///
/// Why a window of [`SEARCH_WINDOW`] touching instructions is *exact*, not
/// an approximation: every backwards search the reference performs either
/// stops at a touching instruction it disqualifies, caps itself at
/// [`SEARCH_WINDOW`] gates, or exhausts the circuit — so no search ever
/// examines more than the last [`SEARCH_WINDOW`] instructions touching
/// `p1`/`p2`, which is precisely what
/// [`RoutingState::rev_touching_window`] yields.
pub fn evaluate_swap_reduction_windowed(
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
        reduction.c_2q = block_resynthesis_windowed(state, window, p1, p2);
    }
    if flags.commute_cancellation || flags.swap_sandwich_cancellation {
        commute_windowed(state, window, p1, p2, flags, &mut reduction);
    }
    reduction
}

/// `C_2q` over the windowed index: gathers the trailing `{p1, p2}`-confined
/// run from the most-recent-first window, then multiplies it oldest-first —
/// the same instructions in the same order as [`block_resynthesis_reduction`].
fn block_resynthesis_windowed(state: &RoutingState, window: &[u32], p1: usize, p2: usize) -> f64 {
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

/// `C_commute1` and `C_commute2` over the windowed index, in one walk (see
/// [`commute1_reduction`] and [`commute2_reduction`]).
///
/// Both searches skip one-qubit unitaries and stop at the first multi-qubit
/// gate on the pair, so they walk past the same gates: a CNOT there can
/// only score `C_commute1`, and a SWAP only `C_commute2`.
fn commute_windowed(
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let r = evaluate_swap_reduction(&output, 0, 1, &OptimizationFlags::all());
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
        let r = evaluate_swap_reduction(&output, 0, 1, &OptimizationFlags::all());
        // The block already needs 3 CNOTs; adding the SWAP keeps it at ≤3.
        assert!(r.c_2q >= 2.0, "got {}", r.c_2q);
    }

    #[test]
    fn swap_with_no_neighbouring_block_gets_no_reduction() {
        let mut output = QuantumCircuit::new(4);
        output.cx(2, 3);
        let r = evaluate_swap_reduction(&output, 0, 1, &OptimizationFlags::all());
        assert_eq!(r.total(), 0.0);
        assert!(r.first_control.is_none());
    }

    #[test]
    fn disabled_flags_suppress_reductions() {
        let mut output = QuantumCircuit::new(2);
        output.cx(0, 1);
        let r = evaluate_swap_reduction(&output, 0, 1, &OptimizationFlags::none());
        assert_eq!(r.total(), 0.0);
    }

    #[test]
    fn commute1_found_through_commuting_cnot() {
        // Figure 6/7: a CNOT on (1,2) followed by a gate on (0,1) that
        // commutes with it (shared target 1? here CX(0,1) and CX(2,1) share
        // target 1). Inserting a SWAP on (2,1) can cancel with CX(2,1).
        let mut output = QuantumCircuit::new(3);
        output.cx(2, 1).cx(0, 1);
        let r = evaluate_swap_reduction(&output, 1, 2, &OptimizationFlags::all());
        assert_eq!(r.c_commute1, 2.0);
        // The cancelling CNOT has control 2 → the SWAP's first CNOT must too.
        assert_eq!(r.first_control, Some(2));
    }

    #[test]
    fn commute1_blocked_by_non_commuting_gate() {
        let mut output = QuantumCircuit::new(3);
        output.cx(2, 1).cx(1, 0); // CX(1,0) does not commute with CX(2,1)
        let r = evaluate_swap_reduction(&output, 1, 2, &OptimizationFlags::all());
        assert_eq!(r.c_commute1, 0.0);
    }

    #[test]
    fn commute2_found_for_sandwiched_swaps() {
        // An earlier SWAP on (0,1), then a commuting CNOT (shares target with
        // CX(0,1) probes), then a new SWAP on (0,1) would cancel one CNOT each.
        let mut output = QuantumCircuit::new(3);
        output.swap(0, 1).cx(2, 1);
        let r = evaluate_swap_reduction(&output, 0, 1, &OptimizationFlags::all());
        assert_eq!(r.c_commute2, 2.0);
        assert_eq!(r.partner_swap_index, Some(0));
    }

    #[test]
    fn commute2_requires_an_intervening_commute_set() {
        let mut output = QuantumCircuit::new(2);
        output.swap(0, 1);
        let r = evaluate_swap_reduction(&output, 0, 1, &OptimizationFlags::all());
        assert_eq!(r.c_commute2, 0.0);
    }

    #[test]
    fn single_qubit_gates_do_not_block_the_searches() {
        let mut output = QuantumCircuit::new(3);
        output.cx(2, 1).u(0.1, 0.2, 0.3, 1).cx(0, 1).t(2);
        let r = evaluate_swap_reduction(&output, 1, 2, &OptimizationFlags::all());
        assert_eq!(r.c_commute1, 2.0, "the U3 on qubit 1 must be skipped");
    }

    #[test]
    fn windowed_reductions_match_the_reference_scan() {
        let mut output = QuantumCircuit::new(4);
        output
            .cx(2, 1)
            .u(0.1, 0.2, 0.3, 1)
            .cx(0, 1)
            .t(2)
            .swap(0, 1)
            .cx(2, 1)
            .h(3)
            .cx(3, 2);
        let state = RoutingState::from_circuit(output.clone());
        for flags in OptimizationFlags::all_combinations() {
            for p1 in 0..4 {
                for p2 in 0..4 {
                    if p1 == p2 {
                        continue;
                    }
                    assert_eq!(
                        evaluate_swap_reduction_windowed(&state, p1, p2, &flags),
                        evaluate_swap_reduction(&output, p1, p2, &flags),
                        "pair ({p1}, {p2}) flags {}",
                        flags.label()
                    );
                }
            }
        }
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

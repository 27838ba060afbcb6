//! The fixed parameters of the SABRE heuristic, and the seed that varies.
//!
//! The paper evaluates SABRE and NASSC with one heuristic (§V): an extended
//! (lookahead) layer of 20 two-qubit gates weighted by `W = 0.5`, decay
//! `δ = 0.001` reset every 5 SWAPs, and 3 forward/backward layout
//! refinement rounds. Qiskit, which the paper builds on, keeps the first
//! four as module constants of `sabre_swap.py`; so does this crate:
//!
//! * [`EXTENDED_SET_SIZE`] and [`EXTENDED_SET_WEIGHT`] — the lookahead layer,
//! * [`DECAY_DELTA`] and [`DECAY_RESET_INTERVAL`] — the decay effect,
//! * [`LAYOUT_ITERATIONS`] — the layout refinement rounds.
//!
//! Only the seed differs between runs, and it is the one field of
//! [`SabreConfig`].

/// Maximum number of two-qubit gates in the extended (lookahead) layer.
pub const EXTENDED_SET_SIZE: usize = 20;

/// Weight `W` of the extended layer in the heuristic cost.
pub const EXTENDED_SET_WEIGHT: f64 = 0.5;

/// Decay added to both qubits of every inserted SWAP, so the router
/// avoids ping-ponging over the same qubits (SABRE's "decay effect").
pub const DECAY_DELTA: f64 = 0.001;

/// Number of SWAP insertions after which decay values reset.
pub const DECAY_RESET_INTERVAL: usize = 5;

/// Number of forward/backward traversal rounds that refine an initial
/// layout.
pub const LAYOUT_ITERATIONS: usize = 3;

/// The per-run input of the SABRE layout and routing passes: the seed of
/// the random initial layout and of candidate tie-breaking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SabreConfig {
    /// Seed for the random initial layout and tie-breaking.
    pub seed: u64,
}

impl Default for SabreConfig {
    fn default() -> Self {
        Self { seed: 2022 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        assert_eq!(EXTENDED_SET_SIZE, 20);
        assert_eq!(EXTENDED_SET_WEIGHT, 0.5);
        assert_eq!(DECAY_DELTA, 0.001);
        assert_eq!(DECAY_RESET_INTERVAL, 5);
        assert_eq!(LAYOUT_ITERATIONS, 3);
    }
}

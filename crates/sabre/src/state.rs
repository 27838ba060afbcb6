//! Incremental routing state: the output circuit plus per-qubit touch
//! indices, kept in sync under push/pop.
//!
//! Both SABRE's traversal and NASSC's optimization-aware cost (Eq. 2) keep
//! asking the same question about the circuit emitted so far: *which recent
//! instructions touch this physical qubit pair?* Answering it by re-scanning
//! the whole output from the back, as the full-scan reference in
//! `tests/routing_state_equivalence.rs` does, makes every candidate-SWAP
//! score O(output), and the routing pass as a whole quadratic in circuit
//! size.
//!
//! [`RoutingState`] makes the question O(window): alongside the output
//! circuit it maintains, per physical qubit, the ascending list of output
//! indices whose instruction touches that qubit. A pair query then merges the
//! tails of two lists — at most `limit` steps — instead of scanning the
//! circuit. Updates are O(instruction arity): [`RoutingState::push`] appends
//! the new index to each touched qubit's list, [`RoutingState::pop`] removes
//! it again, so policies that detach trailing gates (NASSC's single-qubit
//! movement) keep the index exact without any rebuild.
//! [`RoutingState::orient_swap`] relists an earlier SWAP's qubits in place,
//! which leaves the index as it is.
//!
//! The lists hold *every* touching index, not just the last `W`: a capped
//! ring buffer could not survive [`RoutingState::pop`] (an entry evicted by a
//! push is unrecoverable once the push is popped back off), and the full
//! lists cost the same order of memory as the output circuit itself. Queries
//! stay O(window) either way because they walk the tails only.
//!
//! # Example
//!
//! ```
//! use nassc_circuit::{Gate, Instruction};
//! use nassc_sabre::RoutingState;
//!
//! let mut state = RoutingState::new(3);
//! state.push(Instruction::new(Gate::H, vec![0]));
//! state.push(Instruction::new(Gate::Cx, vec![0, 1]));
//! state.push(Instruction::new(Gate::Cx, vec![1, 2]));
//! let mut buf = [0u32; 4];
//! // Most-recent-first indices of instructions touching qubit 0 or 2.
//! let n = state.rev_touching_window(0, 2, &mut buf);
//! assert_eq!(&buf[..n], &[2, 1, 0]);
//! ```

use nassc_circuit::{Gate, Instruction, QuantumCircuit};

/// The router's output circuit plus the per-qubit index lists that make
/// windowed queries O(window) instead of O(circuit).
///
/// See the [module docs](self) for the design rationale. All mutation goes
/// through [`push`](Self::push), [`pop`](Self::pop) and
/// [`orient_swap`](Self::orient_swap), which keep the circuit and the lists
/// consistent by construction; read access to the instructions goes through
/// [`circuit`](Self::circuit).
#[derive(Debug, Clone)]
pub struct RoutingState {
    circuit: QuantumCircuit,
    /// For each physical qubit, the ascending output indices touching it.
    touched: Vec<Vec<u32>>,
}

impl RoutingState {
    /// An empty state over `num_qubits` physical qubits.
    pub fn new(num_qubits: usize) -> Self {
        Self {
            circuit: QuantumCircuit::new(num_qubits),
            touched: vec![Vec::new(); num_qubits],
        }
    }

    /// Rebuilds the state from an existing circuit (used by tests and by
    /// callers that already hold a routed prefix).
    pub fn from_circuit(circuit: QuantumCircuit) -> Self {
        let mut state = Self::new(circuit.num_qubits());
        for inst in circuit.iter() {
            state.push(inst.clone());
        }
        state
    }

    /// The output circuit emitted so far.
    pub fn circuit(&self) -> &QuantumCircuit {
        &self.circuit
    }

    /// Number of instructions emitted so far.
    pub fn num_gates(&self) -> usize {
        self.circuit.num_gates()
    }

    /// Number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.circuit.num_qubits()
    }

    /// Consumes the state, returning the output circuit.
    pub fn into_circuit(self) -> QuantumCircuit {
        self.circuit
    }

    /// Appends an instruction, indexing it on every qubit it touches. O(arity).
    pub fn push(&mut self, instruction: Instruction) {
        let index = self.circuit.num_gates() as u32;
        for q in instruction.qubits().iter() {
            self.touched[q].push(index);
        }
        self.circuit.push(instruction);
    }

    /// Removes and returns the last instruction, un-indexing it. O(arity).
    pub fn pop(&mut self) -> Option<Instruction> {
        let instruction = self.circuit.pop()?;
        let index = self.circuit.num_gates() as u32;
        for q in instruction.qubits().iter() {
            let popped = self.touched[q].pop();
            debug_assert_eq!(popped, Some(index), "touch list out of sync on pop");
        }
        Some(instruction)
    }

    /// Relists the SWAP at output index `index` so `control` comes first,
    /// making `control` the control of the first CNOT of its expansion.
    ///
    /// The SWAP keeps its qubit pair, so the touch index does not change.
    ///
    /// # Panics
    ///
    /// Panics when the instruction at `index` is not a SWAP or `control` is
    /// not one of its qubits.
    pub fn orient_swap(&mut self, index: usize, control: usize) {
        let swap = &self.circuit.instructions()[index];
        assert!(
            swap.gate == Gate::Swap && swap.acts_on(control),
            "instruction {index} ({swap}) is not a SWAP on qubit {control}"
        );
        let other = if swap.qubit(0) == control {
            swap.qubit(1)
        } else {
            swap.qubit(0)
        };
        self.circuit
            .replace(index, Instruction::new(Gate::Swap, [control, other]));
    }

    /// Fills `buf` with the output indices of the most recent instructions
    /// touching `p1` or `p2`, most-recent-first, stopping at `buf.len()`
    /// entries. Returns how many were written.
    ///
    /// This is the windowed replacement for scanning the whole output
    /// backwards: the per-qubit lists are ascending, so the query merges
    /// their tails in O(`buf.len()`), deduplicating instructions that touch
    /// both qubits. Equivalent to
    /// `circuit.iter().enumerate().rev().filter(touches p1 or p2).take(buf.len())`.
    pub fn rev_touching_window(&self, p1: usize, p2: usize, buf: &mut [u32]) -> usize {
        let a = &self.touched[p1];
        let b = &self.touched[p2];
        let (mut i, mut j) = (a.len(), b.len());
        let mut written = 0;
        while written < buf.len() {
            let next = match (i.checked_sub(1), j.checked_sub(1)) {
                (Some(ai), Some(bj)) => {
                    if a[ai] == b[bj] {
                        // One instruction touching both qubits: emit once.
                        i -= 1;
                        j -= 1;
                        a[ai]
                    } else if a[ai] > b[bj] {
                        i -= 1;
                        a[ai]
                    } else {
                        j -= 1;
                        b[bj]
                    }
                }
                (Some(ai), None) => {
                    i -= 1;
                    a[ai]
                }
                (None, Some(bj)) => {
                    j -= 1;
                    b[bj]
                }
                (None, None) => break,
            };
            buf[written] = next;
            written += 1;
        }
        written
    }

    /// The instruction at output index `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn instruction(&self, index: usize) -> &Instruction {
        &self.circuit.instructions()[index]
    }
}

impl PartialEq for RoutingState {
    fn eq(&self, other: &Self) -> bool {
        // The touch lists are derived data; the circuit is the identity.
        self.circuit == other.circuit && self.touched == other.touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation: full backwards scan of the circuit.
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

    fn sample_state() -> RoutingState {
        let mut state = RoutingState::new(4);
        state.push(Instruction::new(Gate::H, vec![0]));
        state.push(Instruction::new(Gate::Cx, vec![0, 1]));
        state.push(Instruction::new(Gate::Cx, vec![2, 3]));
        state.push(Instruction::new(Gate::Swap, vec![1, 2]));
        state.push(Instruction::new(Gate::T, vec![1]));
        state
    }

    #[test]
    fn windows_match_the_reference_scan() {
        let state = sample_state();
        let mut buf = [0u32; 8];
        for p1 in 0..4 {
            for p2 in 0..4 {
                if p1 == p2 {
                    continue;
                }
                for limit in 1..=5 {
                    let n = state.rev_touching_window(p1, p2, &mut buf[..limit]);
                    let expect = reference_window(state.circuit(), p1, p2, limit);
                    assert_eq!(&buf[..n], &expect[..], "({p1},{p2}) limit {limit}");
                }
            }
        }
    }

    #[test]
    fn push_pop_round_trips_and_keeps_the_index_exact() {
        let mut state = sample_state();
        let before = state.circuit().clone();
        let popped = state.pop().unwrap();
        assert_eq!(popped.gate, Gate::T);
        // The popped instruction no longer appears in any window.
        let mut buf = [0u32; 8];
        let n = state.rev_touching_window(1, 2, &mut buf);
        assert_eq!(&buf[..n], &[3, 2, 1]);
        // Re-pushing restores the exact previous state.
        state.push(popped);
        assert_eq!(state.circuit(), &before);
        assert_eq!(state, RoutingState::from_circuit(before));
    }

    #[test]
    fn from_circuit_matches_incremental_pushes() {
        let incremental = sample_state();
        let rebuilt = RoutingState::from_circuit(incremental.circuit().clone());
        assert_eq!(incremental, rebuilt);
    }

    #[test]
    fn window_deduplicates_pair_touching_instructions() {
        let mut state = RoutingState::new(2);
        state.push(Instruction::new(Gate::Cx, vec![0, 1]));
        state.push(Instruction::new(Gate::Cx, vec![1, 0]));
        let mut buf = [0u32; 4];
        let n = state.rev_touching_window(0, 1, &mut buf);
        assert_eq!(&buf[..n], &[1, 0]);
    }

    #[test]
    fn orient_swap_relists_the_swap_and_keeps_the_index() {
        let mut state = sample_state();
        let before = state.clone();
        state.orient_swap(3, 2);
        assert_eq!(state.instruction(3).qubits().to_vec(), vec![2, 1]);
        assert_eq!(state.touched, before.touched);
        // Orienting to the qubit already listed first changes nothing.
        state.orient_swap(3, 2);
        assert_eq!(state.instruction(3).qubits().to_vec(), vec![2, 1]);
        state.orient_swap(3, 1);
        assert_eq!(state, before);
    }

    #[test]
    #[should_panic(expected = "is not a SWAP")]
    fn orient_swap_rejects_a_non_swap() {
        let mut state = sample_state();
        state.orient_swap(1, 0);
    }

    #[test]
    #[should_panic(expected = "is not a SWAP on qubit 0")]
    fn orient_swap_rejects_a_qubit_off_the_swap() {
        let mut state = sample_state();
        state.orient_swap(3, 0);
    }

    #[test]
    fn empty_state_yields_empty_windows() {
        let state = RoutingState::new(3);
        let mut buf = [0u32; 4];
        assert_eq!(state.rev_touching_window(0, 2, &mut buf), 0);
    }
}

//! The flat quantum-circuit container.

use std::collections::BTreeMap;

use crate::gate::Gate;
use crate::instruction::Instruction;
use crate::qubits::QubitList;

/// A quantum circuit: an ordered list of [`Instruction`]s over a fixed number
/// of qubits.
///
/// The builder methods (`h`, `cx`, `rz`, …) make constructing circuits by
/// hand terse; they all append to the instruction list and return `&mut Self`
/// for chaining.
///
/// # Example
///
/// ```
/// use nassc_circuit::QuantumCircuit;
///
/// let mut bell = QuantumCircuit::new(2);
/// bell.h(0).cx(0, 1);
/// assert_eq!(bell.num_gates(), 2);
/// assert_eq!(bell.cx_count(), 1);
/// assert_eq!(bell.depth(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuantumCircuit {
    num_qubits: usize,
    instructions: Vec<Instruction>,
}

impl QuantumCircuit {
    /// Creates an empty circuit over `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Self {
            num_qubits,
            instructions: Vec::new(),
        }
    }

    /// Creates an empty circuit with pre-allocated room for `capacity`
    /// instructions — passes and generators use this so 100k-gate circuits
    /// do not re-grow the instruction buffer.
    pub fn with_capacity(num_qubits: usize, capacity: usize) -> Self {
        Self {
            num_qubits,
            instructions: Vec::with_capacity(capacity),
        }
    }

    /// A circuit over `num_qubits` qubits that takes `instructions` as its
    /// instruction buffer, without copying it (the parser builds its
    /// instruction list before it knows the final register width).
    ///
    /// # Panics
    ///
    /// Panics if an instruction qubit is out of range.
    pub fn from_instructions(num_qubits: usize, instructions: Vec<Instruction>) -> Self {
        for instruction in &instructions {
            for q in instruction.qubits().iter() {
                assert!(
                    q < num_qubits,
                    "qubit {q} out of range for a {num_qubits}-qubit circuit"
                );
            }
        }
        Self {
            num_qubits,
            instructions,
        }
    }

    /// The number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The number of instructions.
    pub fn num_gates(&self) -> usize {
        self.instructions.len()
    }

    /// Returns `true` when the circuit contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Read-only access to the instruction list.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Iterates over the instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.instructions.iter()
    }

    /// A 64-bit structural fingerprint of the circuit: FNV-1a over the qubit
    /// count and, per instruction, the gate name, the exact bit patterns of
    /// its parameters, and the qubit indices.
    ///
    /// Two structurally equal circuits (`a == b`) always hash equal, so the
    /// hash works as a cheap cache pre-filter; hash-equal circuits may still
    /// differ (explicit `Unitary1`/`Unitary2` matrix entries are not folded
    /// in), so exact callers must confirm with `==` — which is what the
    /// `Transpiler` session caches do. Parameters hash by `f64::to_bits`,
    /// matching the pipelines' exact-comparison semantics: `0.1 + 0.2` and
    /// `0.3` are *different* structures, as they are to the optimizer.
    pub fn structural_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        };
        eat(&(self.num_qubits as u64).to_le_bytes());
        for inst in &self.instructions {
            eat(inst.gate.name().as_bytes());
            for param in inst.gate.params() {
                eat(&param.to_bits().to_le_bytes());
            }
            for q in inst.qubits().iter() {
                eat(&(q as u64).to_le_bytes());
            }
        }
        hash
    }

    /// Appends an instruction.
    ///
    /// # Panics
    ///
    /// Panics if an instruction qubit is out of range.
    pub fn push(&mut self, instruction: Instruction) -> &mut Self {
        for q in instruction.qubits().iter() {
            assert!(
                q < self.num_qubits,
                "qubit {q} out of range for a {}-qubit circuit",
                self.num_qubits
            );
        }
        self.instructions.push(instruction);
        self
    }

    /// Appends a gate on the given qubits (array literals are
    /// allocation-free; `Vec<usize>` still works).
    pub fn append(&mut self, gate: Gate, qubits: impl Into<QubitList>) -> &mut Self {
        self.push(Instruction::new(gate, qubits))
    }

    /// Removes and returns the last instruction, if any.
    ///
    /// Routing policies use this to detach trailing gates they are about to
    /// commute through a SWAP, instead of rebuilding the instruction vector.
    pub fn pop(&mut self) -> Option<Instruction> {
        self.instructions.pop()
    }

    /// Replaces the instruction at `index`, returning the old one.
    ///
    /// Routing uses this to relist a SWAP's qubits once a later SWAP fixes
    /// which of them controls its first CNOT.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or an instruction qubit is.
    pub fn replace(&mut self, index: usize, instruction: Instruction) -> Instruction {
        for q in instruction.qubits().iter() {
            assert!(
                q < self.num_qubits,
                "qubit {q} out of range for a {}-qubit circuit",
                self.num_qubits
            );
        }
        std::mem::replace(&mut self.instructions[index], instruction)
    }

    /// Appends every instruction of `other` (qubit indices taken verbatim).
    ///
    /// # Panics
    ///
    /// Panics if `other` uses more qubits than `self`.
    pub fn extend(&mut self, other: &QuantumCircuit) -> &mut Self {
        assert!(
            other.num_qubits <= self.num_qubits,
            "composed circuit is too wide"
        );
        for inst in &other.instructions {
            self.push(inst.clone());
        }
        self
    }

    /// The circuit with all instructions inverted and reversed.
    ///
    /// # Panics
    ///
    /// Panics if the circuit contains measurements.
    pub fn inverse(&self) -> QuantumCircuit {
        let mut out = QuantumCircuit::new(self.num_qubits);
        for inst in self.instructions.iter().rev() {
            out.push(inst.inverse());
        }
        out
    }

    /// The same circuit with instruction order reversed (used by SABRE's
    /// reverse-traversal layout refinement; gates are *not* inverted).
    pub fn reversed(&self) -> QuantumCircuit {
        let mut out = QuantumCircuit::new(self.num_qubits);
        for inst in self.instructions.iter().rev() {
            out.push(inst.clone());
        }
        out
    }

    /// Returns a copy with every qubit index remapped through `f` onto a
    /// circuit of `new_width` qubits.
    pub fn map_qubits(&self, new_width: usize, f: impl Fn(usize) -> usize) -> QuantumCircuit {
        let mut out = QuantumCircuit::new(new_width);
        for inst in &self.instructions {
            out.push(inst.map_qubits(&f));
        }
        out
    }

    /// Per-gate-name operation counts.
    pub fn count_ops(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for inst in &self.instructions {
            *counts.entry(inst.gate.name()).or_insert(0) += 1;
        }
        counts
    }

    /// Number of CNOT gates.
    pub fn cx_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.gate == Gate::Cx)
            .count()
    }

    /// Number of two-qubit unitary gates of any kind.
    pub fn two_qubit_gate_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.is_two_qubit())
            .count()
    }

    /// Number of SWAP gates.
    pub fn swap_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.gate == Gate::Swap)
            .count()
    }

    /// Circuit depth: the length of the longest qubit-dependency chain.
    /// Barriers synchronise but do not add depth; measurements count.
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.num_qubits];
        for inst in &self.instructions {
            let max_in = inst.qubits().iter().map(|q| level[q]).max().unwrap_or(0);
            let new_level = if inst.gate.is_directive() {
                max_in
            } else {
                max_in + 1
            };
            for q in inst.qubits().iter() {
                level[q] = new_level;
            }
        }
        level.into_iter().max().unwrap_or(0)
    }

    /// The set of qubits actually touched by at least one instruction.
    pub fn active_qubits(&self) -> Vec<usize> {
        let mut used = vec![false; self.num_qubits];
        for inst in &self.instructions {
            for q in inst.qubits().iter() {
                used[q] = true;
            }
        }
        used.iter()
            .enumerate()
            .filter_map(|(q, &u)| if u { Some(q) } else { None })
            .collect()
    }

    // ----- builder helpers -------------------------------------------------

    /// Appends a Hadamard gate.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.append(Gate::H, [q])
    }
    /// Appends a Pauli-X gate.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.append(Gate::X, [q])
    }
    /// Appends a Pauli-Y gate.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.append(Gate::Y, [q])
    }
    /// Appends a Pauli-Z gate.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.append(Gate::Z, [q])
    }
    /// Appends an S gate.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.append(Gate::S, [q])
    }
    /// Appends an S† gate.
    pub fn sdg(&mut self, q: usize) -> &mut Self {
        self.append(Gate::Sdg, [q])
    }
    /// Appends a T gate.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.append(Gate::T, [q])
    }
    /// Appends a T† gate.
    pub fn tdg(&mut self, q: usize) -> &mut Self {
        self.append(Gate::Tdg, [q])
    }
    /// Appends a √X gate.
    pub fn sx(&mut self, q: usize) -> &mut Self {
        self.append(Gate::Sx, [q])
    }
    /// Appends an Rx rotation.
    pub fn rx(&mut self, theta: f64, q: usize) -> &mut Self {
        self.append(Gate::Rx(theta), [q])
    }
    /// Appends an Ry rotation.
    pub fn ry(&mut self, theta: f64, q: usize) -> &mut Self {
        self.append(Gate::Ry(theta), [q])
    }
    /// Appends an Rz rotation.
    pub fn rz(&mut self, theta: f64, q: usize) -> &mut Self {
        self.append(Gate::Rz(theta), [q])
    }
    /// Appends a phase gate.
    pub fn p(&mut self, lambda: f64, q: usize) -> &mut Self {
        self.append(Gate::Phase(lambda), [q])
    }
    /// Appends a generic `U(θ, φ, λ)` gate.
    pub fn u(&mut self, theta: f64, phi: f64, lambda: f64, q: usize) -> &mut Self {
        self.append(Gate::U(theta, phi, lambda), [q])
    }
    /// Appends a CNOT gate.
    pub fn cx(&mut self, control: usize, target: usize) -> &mut Self {
        self.append(Gate::Cx, [control, target])
    }
    /// Appends a CZ gate.
    pub fn cz(&mut self, control: usize, target: usize) -> &mut Self {
        self.append(Gate::Cz, [control, target])
    }
    /// Appends a controlled-phase gate.
    pub fn cp(&mut self, lambda: f64, control: usize, target: usize) -> &mut Self {
        self.append(Gate::Cp(lambda), [control, target])
    }
    /// Appends a controlled-Rx gate.
    pub fn crx(&mut self, theta: f64, control: usize, target: usize) -> &mut Self {
        self.append(Gate::Crx(theta), [control, target])
    }
    /// Appends a SWAP gate.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.append(Gate::Swap, [a, b])
    }
    /// Appends a Toffoli gate.
    pub fn ccx(&mut self, c1: usize, c2: usize, target: usize) -> &mut Self {
        self.append(Gate::Ccx, [c1, c2, target])
    }
    /// Appends a measurement marker on the given qubit.
    pub fn measure(&mut self, q: usize) -> &mut Self {
        self.append(Gate::Measure, [q])
    }
    /// Appends a barrier over all qubits.
    pub fn barrier_all(&mut self) -> &mut Self {
        let n = self.num_qubits;
        self.append(Gate::Barrier(n), (0..n).collect::<Vec<_>>())
    }
}

impl FromIterator<Instruction> for QuantumCircuit {
    /// Builds a circuit wide enough to hold every referenced qubit.
    fn from_iter<T: IntoIterator<Item = Instruction>>(iter: T) -> Self {
        let instructions: Vec<Instruction> = iter.into_iter().collect();
        let width = instructions
            .iter()
            .flat_map(|i| i.qubits().iter())
            .max()
            .map_or(0, |m| m + 1);
        QuantumCircuit::from_instructions(width, instructions)
    }
}

impl<'a> IntoIterator for &'a QuantumCircuit {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;
    fn into_iter(self) -> Self::IntoIter {
        self.instructions.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_counts() {
        let mut qc = QuantumCircuit::new(3);
        qc.h(0).cx(0, 1).cx(1, 2).rz(0.3, 2).swap(0, 2);
        assert_eq!(qc.num_gates(), 5);
        assert_eq!(qc.cx_count(), 2);
        assert_eq!(qc.swap_count(), 1);
        assert_eq!(qc.two_qubit_gate_count(), 3);
        assert_eq!(qc.count_ops()["cx"], 2);
    }

    #[test]
    fn structural_hash_tracks_structure() {
        let mut a = QuantumCircuit::new(3);
        a.h(0).cx(0, 1).rz(0.25, 2);
        let mut b = QuantumCircuit::new(3);
        b.h(0).cx(0, 1).rz(0.25, 2);
        assert_eq!(a.structural_hash(), b.structural_hash());

        // Any structural difference — qubits, params, gate order, width —
        // changes the hash.
        let mut qubits = QuantumCircuit::new(3);
        qubits.h(0).cx(1, 0).rz(0.25, 2);
        let mut params = QuantumCircuit::new(3);
        params.h(0).cx(0, 1).rz(0.75, 2);
        let mut wider = QuantumCircuit::new(4);
        wider.h(0).cx(0, 1).rz(0.25, 2);
        for other in [&qubits, &params, &wider] {
            assert_ne!(a.structural_hash(), other.structural_hash());
        }
        assert_ne!(
            QuantumCircuit::new(2).structural_hash(),
            QuantumCircuit::new(3).structural_hash()
        );
    }

    #[test]
    fn pop_and_truncate_shorten_from_the_tail() {
        let mut qc = QuantumCircuit::new(3);
        qc.h(0).cx(0, 1).cx(1, 2);
        let last = qc.pop().unwrap();
        assert_eq!(last.gate, Gate::Cx);
        assert_eq!(last.qubits().to_vec(), vec![1, 2]);
        assert_eq!(qc.num_gates(), 2);
        qc.pop();
        assert_eq!(qc.instructions(), &[Instruction::new(Gate::H, [0])]);
        qc.pop();
        assert!(qc.is_empty());
        assert_eq!(qc.pop(), None);
    }

    #[test]
    fn replace_swaps_one_instruction_in_place() {
        let mut qc = QuantumCircuit::new(3);
        qc.h(0).swap(0, 1).cx(1, 2);
        let old = qc.replace(1, Instruction::new(Gate::Swap, [1, 0]));
        assert_eq!(old, Instruction::new(Gate::Swap, [0, 1]));
        assert_eq!(qc.instructions()[1].qubits().to_vec(), vec![1, 0]);
        assert_eq!(qc.num_gates(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn replace_rejects_out_of_range_qubits() {
        let mut qc = QuantumCircuit::new(2);
        qc.h(0);
        qc.replace(0, Instruction::new(Gate::H, [2]));
    }

    #[test]
    fn depth_computation() {
        let mut qc = QuantumCircuit::new(3);
        qc.h(0).h(1).h(2); // depth 1: all parallel
        assert_eq!(qc.depth(), 1);
        qc.cx(0, 1); // depth 2
        qc.cx(1, 2); // depth 3
        assert_eq!(qc.depth(), 3);
        qc.x(0); // runs in parallel with cx(1,2): still depth 3
        assert_eq!(qc.depth(), 3);
    }

    #[test]
    fn barriers_do_not_add_depth_but_synchronize() {
        let mut qc = QuantumCircuit::new(2);
        qc.h(0);
        qc.barrier_all();
        qc.h(1);
        // h(1) must come after the barrier which waits for h(0): depth 2.
        assert_eq!(qc.depth(), 2);
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut qc = QuantumCircuit::new(2);
        qc.s(0).cx(0, 1).t(1);
        let inv = qc.inverse();
        assert_eq!(inv.instructions()[0].gate, Gate::Tdg);
        assert_eq!(inv.instructions()[1].gate, Gate::Cx);
        assert_eq!(inv.instructions()[2].gate, Gate::Sdg);
    }

    #[test]
    fn reversed_keeps_gates() {
        let mut qc = QuantumCircuit::new(2);
        qc.s(0).cx(0, 1);
        let rev = qc.reversed();
        assert_eq!(rev.instructions()[0].gate, Gate::Cx);
        assert_eq!(rev.instructions()[1].gate, Gate::S);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_qubit_panics() {
        let mut qc = QuantumCircuit::new(2);
        qc.cx(0, 2);
    }

    #[test]
    fn from_iterator_sizes_to_max_qubit() {
        let qc: QuantumCircuit = vec![
            Instruction::new(Gate::H, vec![0]),
            Instruction::new(Gate::Cx, vec![0, 4]),
        ]
        .into_iter()
        .collect();
        assert_eq!(qc.num_qubits(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_instructions_rejects_out_of_range_qubits() {
        let _ = QuantumCircuit::from_instructions(2, vec![Instruction::new(Gate::Cx, [0, 2])]);
    }

    #[test]
    fn active_qubits_reports_touched_wires() {
        let mut qc = QuantumCircuit::new(6);
        qc.cx(1, 4);
        assert_eq!(qc.active_qubits(), vec![1, 4]);
    }
}

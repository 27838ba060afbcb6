//! A gate applied to specific qubits.

use crate::gate::Gate;
use crate::qubits::QubitList;

/// One operation of a circuit: a [`Gate`] together with the qubit indices it
/// acts on.
///
/// Qubit order is significant: for controlled gates the control(s) come
/// first, and the first listed qubit is the least-significant bit of the
/// gate's matrix basis.
///
/// Qubits are stored in a compact [`QubitList`] — inline (no heap
/// allocation) for every fixed-arity gate, spilling only for variable-arity
/// operations like barriers — so a `Vec<Instruction>` is one contiguous
/// buffer even at 100k gates.
///
/// # Example
///
/// ```
/// use nassc_circuit::{Gate, Instruction};
///
/// let cx = Instruction::new(Gate::Cx, [0, 3]);
/// assert_eq!(cx.control(), Some(0));
/// assert_eq!(cx.target(), Some(3));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    /// The gate being applied.
    pub gate: Gate,
    qubits: QubitList,
}

impl Instruction {
    /// Creates a new instruction. Accepts anything convertible to a
    /// [`QubitList`]: an array literal (allocation-free), a `Vec<usize>`, a
    /// slice, or an existing list.
    ///
    /// # Panics
    ///
    /// Panics when the number of qubits does not match the gate's arity or
    /// when a qubit index is repeated.
    pub fn new(gate: Gate, qubits: impl Into<QubitList>) -> Self {
        let qubits = qubits.into();
        assert_eq!(
            gate.num_qubits(),
            qubits.len(),
            "gate {} expects {} qubits, got {:?}",
            gate.name(),
            gate.num_qubits(),
            qubits
        );
        if let Some(q) = qubits.duplicate() {
            panic!("duplicate qubit {q} in {} instruction", gate.name());
        }
        Self { gate, qubits }
    }

    /// The qubits the gate acts on, in gate-specific order.
    pub fn qubits(&self) -> &QubitList {
        &self.qubits
    }

    /// The qubit at position `i` of the gate's operand list.
    ///
    /// # Panics
    ///
    /// Panics when `i >= num_qubits()`.
    pub fn qubit(&self, i: usize) -> usize {
        self.qubits.get(i)
    }

    /// The number of qubits the instruction touches.
    pub fn num_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// Returns `true` for two-qubit unitary instructions (the ones routing
    /// cares about).
    pub fn is_two_qubit(&self) -> bool {
        self.gate.is_two_qubit()
    }

    /// Returns `true` when the instruction acts on the given qubit.
    pub fn acts_on(&self, qubit: usize) -> bool {
        self.qubits.contains(qubit)
    }

    /// Returns `true` when the two instructions share at least one qubit.
    pub fn overlaps(&self, other: &Instruction) -> bool {
        self.qubits.iter().any(|q| other.qubits.contains(q))
    }

    /// The control qubit for controlled two-qubit gates (`cx`, `cz`, …).
    pub fn control(&self) -> Option<usize> {
        match self.gate {
            Gate::Cx
            | Gate::Cy
            | Gate::Cz
            | Gate::Ch
            | Gate::Crx(_)
            | Gate::Cry(_)
            | Gate::Crz(_)
            | Gate::Cp(_) => Some(self.qubits.get(0)),
            _ => None,
        }
    }

    /// The target qubit for controlled two-qubit gates.
    pub fn target(&self) -> Option<usize> {
        match self.gate {
            Gate::Cx
            | Gate::Cy
            | Gate::Cz
            | Gate::Ch
            | Gate::Crx(_)
            | Gate::Cry(_)
            | Gate::Crz(_)
            | Gate::Cp(_) => Some(self.qubits.get(1)),
            _ => None,
        }
    }

    /// Produces the instruction with every qubit remapped through `f`
    /// (allocation-free for fixed-arity gates).
    pub fn map_qubits(&self, f: impl Fn(usize) -> usize) -> Instruction {
        Instruction {
            gate: self.gate.clone(),
            qubits: self.qubits.map(f),
        }
    }

    /// The inverse instruction (same qubits, inverse gate).
    ///
    /// # Panics
    ///
    /// Panics for `Measure`.
    pub fn inverse(&self) -> Instruction {
        Instruction {
            gate: self.gate.inverse(),
            qubits: self.qubits.clone(),
        }
    }
}

impl std::fmt::Display for Instruction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let params = self.gate.params();
        if params.is_empty() {
            write!(f, "{} {:?}", self.gate.name(), self.qubits)
        } else {
            let p: Vec<String> = params.iter().map(|x| format!("{x:.4}")).collect();
            write!(f, "{}({}) {:?}", self.gate.name(), p.join(","), self.qubits)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_target_extraction() {
        let cx = Instruction::new(Gate::Cx, vec![2, 5]);
        assert_eq!(cx.control(), Some(2));
        assert_eq!(cx.target(), Some(5));
        let sw = Instruction::new(Gate::Swap, [1, 3]);
        assert_eq!(sw.control(), None);
    }

    #[test]
    #[should_panic(expected = "expects 2 qubits")]
    fn arity_mismatch_panics() {
        let _ = Instruction::new(Gate::Cx, vec![0]);
    }

    #[test]
    #[should_panic(expected = "duplicate qubit")]
    fn duplicate_qubit_panics() {
        let _ = Instruction::new(Gate::Cx, vec![1, 1]);
    }

    #[test]
    fn overlap_detection() {
        let a = Instruction::new(Gate::Cx, [0, 1]);
        let b = Instruction::new(Gate::Cx, [1, 2]);
        let c = Instruction::new(Gate::H, [3]);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn qubit_remapping() {
        let cx = Instruction::new(Gate::Cx, [0, 1]);
        let mapped = cx.map_qubits(|q| q + 10);
        assert_eq!(mapped.qubits().to_vec(), vec![10, 11]);
        assert_eq!(mapped.gate, Gate::Cx);
    }

    #[test]
    fn inverse_preserves_qubits() {
        let inst = Instruction::new(Gate::S, [4]);
        let inv = inst.inverse();
        assert_eq!(inv.gate, Gate::Sdg);
        assert_eq!(inv.qubits().to_vec(), vec![4]);
    }

    #[test]
    fn display_includes_params() {
        let r = Instruction::new(Gate::Rz(0.5), [2]);
        assert!(format!("{r}").starts_with("rz(0.5000)"));
    }

    #[test]
    fn display_matches_the_old_vec_format() {
        let cx = Instruction::new(Gate::Cx, [0, 3]);
        assert_eq!(format!("{cx}"), "cx [0, 3]");
    }
}

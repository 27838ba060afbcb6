//! Dependency-DAG view of a circuit.
//!
//! Routing (SABRE and NASSC) walks a circuit gate by gate in dependency
//! order: it needs, for each gate, the gates that consume a qubit it was the
//! last to act on, and how many gates it still waits for. [`DagCircuit`]
//! precomputes exactly that: a node per instruction, an edge `i → j`
//! whenever `j` consumes a qubit last acted on by `i`, and each node's
//! in-degree.

use crate::circuit::QuantumCircuit;
use crate::instruction::Instruction;

/// A node of the dependency DAG: one instruction plus its wiring.
#[derive(Debug, Clone)]
pub struct DagNode {
    /// Node id; equals the instruction's index in the originating circuit.
    pub id: usize,
    /// The instruction itself.
    pub instruction: Instruction,
    in_degree: usize,
    succs: Vec<usize>,
}

impl DagNode {
    /// All successor node ids (deduplicated, in wire order).
    pub fn successors(&self) -> &[usize] {
        &self.succs
    }

    /// The number of distinct predecessor nodes.
    pub fn in_degree(&self) -> usize {
        self.in_degree
    }
}

/// A directed acyclic dependency graph over the instructions of a circuit.
///
/// # Example
///
/// ```
/// use nassc_circuit::{QuantumCircuit, DagCircuit};
///
/// let mut qc = QuantumCircuit::new(3);
/// qc.h(0).cx(0, 1).cx(1, 2);
/// let dag = DagCircuit::from_circuit(&qc);
/// assert_eq!(dag.front_layer(), vec![0]);          // only h(0) is ready
/// assert_eq!(dag.node(1).successors(), &[2]);      // cx(1,2) waits on cx(0,1)
/// assert_eq!(dag.in_degrees(), vec![0, 1, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct DagCircuit {
    num_qubits: usize,
    nodes: Vec<DagNode>,
}

impl DagCircuit {
    /// Builds the DAG from a circuit. Node ids follow instruction order, so
    /// iterating ids `0..len` is a valid topological order.
    pub fn from_circuit(circuit: &QuantumCircuit) -> Self {
        let mut nodes: Vec<DagNode> = Vec::with_capacity(circuit.num_gates());
        // Last node seen on each qubit wire.
        let mut last_on_wire: Vec<Option<usize>> = vec![None; circuit.num_qubits()];

        for (id, inst) in circuit.iter().enumerate() {
            let mut in_degree = 0;
            for q in inst.qubits().iter() {
                if let Some(p) = last_on_wire[q] {
                    // Successors are pushed in id order, so `id` is already
                    // an edge of `p` exactly when an earlier wire of this
                    // instruction also led back to `p`.
                    let succs = &mut nodes[p].succs;
                    if succs.last() != Some(&id) {
                        succs.push(id);
                        in_degree += 1;
                    }
                }
                last_on_wire[q] = Some(id);
            }
            nodes.push(DagNode {
                id,
                instruction: inst.clone(),
                in_degree,
                succs: Vec::new(),
            });
        }

        Self {
            num_qubits: circuit.num_qubits(),
            nodes,
        }
    }

    /// The number of qubits of the underlying circuit.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The number of nodes (instructions).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Accesses a node by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: usize) -> &DagNode {
        &self.nodes[id]
    }

    /// Node ids with no predecessors — the initial front layer.
    pub fn front_layer(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .filter(|n| n.in_degree == 0)
            .map(|n| n.id)
            .collect()
    }

    /// The in-degree (number of distinct predecessor nodes) of each node,
    /// indexed by node id. Routing algorithms use this as the initial state
    /// of their "unresolved dependency" counters.
    pub fn in_degrees(&self) -> Vec<usize> {
        self.nodes.iter().map(|n| n.in_degree).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_follow_wires() {
        let mut qc = QuantumCircuit::new(3);
        qc.h(0).cx(0, 1).rz(0.5, 1).cx(1, 2).h(2);
        let dag = DagCircuit::from_circuit(&qc);
        assert_eq!(dag.num_nodes(), 5);
        // h(0) -> cx(0,1) -> rz(1) -> cx(1,2) -> h(2)
        for id in 0..4 {
            assert_eq!(dag.node(id).successors(), &[id + 1]);
        }
        assert!(dag.node(4).successors().is_empty());
        assert_eq!(dag.in_degrees(), vec![0, 1, 1, 1, 1]);
    }

    #[test]
    fn front_layer_has_independent_gates() {
        let mut qc = QuantumCircuit::new(4);
        qc.cx(0, 1).cx(2, 3).cx(1, 2);
        let dag = DagCircuit::from_circuit(&qc);
        assert_eq!(dag.front_layer(), vec![0, 1]);
        assert_eq!(dag.in_degrees(), vec![0, 0, 2]);
    }

    #[test]
    fn multi_qubit_gate_has_single_pred_entry_per_node() {
        let mut qc = QuantumCircuit::new(2);
        qc.cx(0, 1).cx(0, 1);
        let dag = DagCircuit::from_circuit(&qc);
        // The second CX depends on the first via both wires, but the edge
        // and the in-degree count it once.
        assert_eq!(dag.node(0).successors(), &[1]);
        assert_eq!(dag.in_degrees(), vec![0, 1]);
    }
}

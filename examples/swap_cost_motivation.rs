//! The paper's motivating observation (Figures 1, 3 and 4): not all SWAPs
//! cost three CNOTs once the optimizer has run. Every count printed below is
//! computed, and the example panics if one stops holding.
//!
//! Run with: `cargo run --example swap_cost_motivation`

use nassc_circuit::QuantumCircuit;
use nassc_math::Matrix4;
use nassc_passes::standard_optimization_pipeline;
use nassc_synthesis::{expand_swaps, two_qubit_cnot_cost};

/// The CNOTs left once `circuit`'s SWAPs are expanded and the post-routing
/// optimizations have run.
fn optimized_cx(circuit: &QuantumCircuit) -> usize {
    standard_optimization_pipeline()
        .run(&expand_swaps(circuit))
        .expect("optimization")
        .cx_count()
}

/// The optimized CNOT count of `prefix` followed by `swap`, and how many of
/// those CNOTs the SWAP adds.
fn swap_cost(prefix: &QuantumCircuit, swap: (usize, usize)) -> (usize, usize) {
    let mut routed = prefix.clone();
    routed.swap(swap.0, swap.1);
    let total = optimized_cx(&routed);
    (total, total - optimized_cx(prefix))
}

fn main() {
    // A SWAP in isolation really does cost three CNOTs.
    let lone_swap = two_qubit_cnot_cost(&Matrix4::swap()).expect("decomposition");
    assert_eq!(lone_swap, 3);
    println!("SWAP alone                      : {lone_swap} CNOTs");

    // Merged with a neighbouring CNOT (Figure 1b / Figure 3), re-synthesis of
    // the two-qubit block needs only two CNOTs — the SWAP costs one extra.
    let merged = Matrix4::swap().mul(&Matrix4::cnot());
    let merged_cost = two_qubit_cnot_cost(&merged).expect("decomposition");
    let extra = merged_cost - two_qubit_cnot_cost(&Matrix4::cnot()).expect("decomposition");
    assert_eq!((merged_cost, extra), (2, 1));
    println!("SWAP merged with a CNOT block   : {merged_cost} CNOTs ({extra} extra)");

    // Next to a generic three-CNOT block the SWAP is free. (A block whose
    // interaction is close to a SWAP's can even lose a CNOT to it.)
    let mut block = QuantumCircuit::new(2);
    block
        .cx(0, 1)
        .u(0.3, 0.7, 0.9, 0)
        .u(1.2, 0.4, 0.6, 1)
        .cx(1, 0)
        .u(0.8, 1.1, 0.2, 0)
        .u(0.5, 0.9, 1.3, 1)
        .cx(0, 1);
    let (total, extra) = swap_cost(&block, (0, 1));
    assert_eq!((total, extra), (3, 0));
    println!("SWAP appended to a 3-CNOT block : {total} CNOTs after re-synthesis ({extra} extra)");

    // Figure 4: a SWAP's first qubit controls its first CNOT. Listed as
    // (1, 0), that CNOT is CX(1,0), which commutes back past CX(1,2) and
    // cancels the CX(1,0) already in the circuit; listed as (0, 1), nothing
    // cancels.
    let mut prefix = QuantumCircuit::new(3);
    prefix.cx(1, 0).cx(1, 2);
    let (fixed, fixed_extra) = swap_cost(&prefix, (0, 1));
    let (oriented, oriented_extra) = swap_cost(&prefix, (1, 0));
    assert_eq!((fixed_extra, oriented_extra), (3, 1));
    println!(
        "SWAP after a commuting CNOT     : {fixed} CNOTs with the fixed template \
         ({fixed_extra} extra), {oriented} with the optimization-aware orientation \
         ({oriented_extra} extra)"
    );
}

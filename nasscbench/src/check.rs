//! Output checks every transpiled circuit must pass. Semantic equivalence
//! is not checked here; the program has no layout-aware verifier yet.

use nassc::circuit::QuantumCircuit;
use nassc::passes::is_mapped;
use nassc::topology::CouplingMap;

/// The circuit respects the coupling map, uses only IBM basis gates, and
/// its exported QASM re-parses to the same circuit.
pub fn output(
    circuit: &QuantumCircuit,
    exported: &str,
    coupling: &CouplingMap,
) -> Result<(), String> {
    if !is_mapped(circuit, coupling) {
        return Err("output violates the coupling map".into());
    }
    if let Some(inst) = circuit.iter().find(|inst| !inst.gate.in_ibm_basis()) {
        return Err(format!(
            "output gate {:?} is outside the IBM basis",
            inst.gate
        ));
    }
    match nassc::qasm::parse(exported) {
        Ok(reparsed) if reparsed == *circuit => Ok(()),
        Ok(_) => Err("exported QASM re-parses to a different circuit".into()),
        Err(e) => Err(format!("exported QASM does not re-parse: {e}")),
    }
}

/// 64-bit FNV-1a, used to compare response bodies that are not kept.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

//! A 64-bit digest of everything a transpile decides, for pinning outputs
//! against committed tables.
//!
//! The digest covers the output's gate names and qubits, its parameters
//! rounded to 1e-9 rad (never raw float bits, so a last-ulp libm difference
//! between machines cannot change it), the SWAP count, the chosen layout
//! trial, and the initial and final layouts. It is FNV-1a, spelled out here
//! so the value never depends on a standard-library hasher that may change
//! between Rust releases.

use nassc::circuit::QuantumCircuit;
use nassc::TranspileResult;
use nassc_topology::Layout;

/// The FNV-1a hasher behind [`digest`], for tests that pin other values.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    /// Gate names, qubits and parameters rounded to 1e-9 rad.
    pub fn circuit(&mut self, circuit: &QuantumCircuit) {
        for inst in circuit.iter() {
            self.bytes(inst.gate.name().as_bytes());
            for q in inst.qubits().iter() {
                self.word(q as u64);
            }
            for p in inst.gate.params() {
                self.word((p * 1e9).round() as i64 as u64);
            }
        }
    }

    pub fn layout(&mut self, layout: &Layout) {
        for &physical in layout.logical_to_physical() {
            self.word(physical as u64);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The digest of `result`; see the module docs for what it covers.
pub fn digest(result: &TranspileResult) -> u64 {
    let mut h = Fnv::new();
    h.circuit(&result.circuit);
    h.word(result.swap_count as u64);
    h.word(result.chosen_layout_trial as u64);
    h.layout(&result.initial_layout);
    h.layout(&result.final_layout);
    h.finish()
}

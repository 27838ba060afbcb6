//! A 64-bit digest of everything a transpile decides, for pinning outputs
//! against committed tables.
//!
//! The digest covers the output's gate names and qubits, its parameters
//! rounded to 1e-9 rad (never raw float bits, so a last-ulp libm difference
//! between machines cannot change it), the SWAP count, the chosen layout
//! trial, and the initial and final layouts. It is FNV-1a, spelled out here
//! so the value never depends on a standard-library hasher that may change
//! between Rust releases.

use nassc::TranspileResult;

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }
}

/// The digest of `result`; see the module docs for what it covers.
pub fn digest(result: &TranspileResult) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for inst in result.circuit.iter() {
        h.bytes(inst.gate.name().as_bytes());
        for q in inst.qubits().iter() {
            h.word(q as u64);
        }
        for p in inst.gate.params() {
            h.word((p * 1e9).round() as i64 as u64);
        }
    }
    h.word(result.swap_count as u64);
    h.word(result.chosen_layout_trial as u64);
    for layout in [&result.initial_layout, &result.final_layout] {
        for &physical in layout.logical_to_physical() {
            h.word(physical as u64);
        }
    }
    h.0
}

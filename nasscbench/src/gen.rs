//! Seeded workload generators. They write OpenQASM 2.0 text directly, so
//! the program under test receives only that text, and they live here so
//! that no change to the program's own generators can shift a workload.

use std::f64::consts::PI;
use std::fmt::Write;

/// SplitMix64: a small, fast, well-mixed generator that is fully defined
/// here, so a seed means the same inputs on every build.
pub struct Rng(u64);

impl Rng {
    /// A stream derived from `seed` and a `stream` index, so every circuit
    /// and every client of a run draws from its own sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform angle in `[-pi, pi)`.
    fn angle(&mut self) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        2.0 * PI * unit - PI
    }

    fn shuffle(&mut self, items: &mut [usize]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn header(num_qubits: usize) -> String {
    format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{num_qubits}];\n")
}

/// Quantum-volume-style circuit of exactly `gates` gates: layers of a fresh
/// random pairing of all qubits, each pair getting `ry`/`rz` on both qubits,
/// `cx`, an `ry` pair and the reverse `cx`.
pub fn qv(num_qubits: usize, gates: usize, rng: &mut Rng) -> String {
    let mut out = header(num_qubits);
    let mut order: Vec<usize> = (0..num_qubits).collect();
    let mut emitted = 0;
    while emitted < gates {
        rng.shuffle(&mut order);
        for pair in order.chunks_exact(2) {
            let (a, b) = (pair[0], pair[1]);
            for step in 0..8 {
                if emitted == gates {
                    return out;
                }
                let _ = match step {
                    0 => writeln!(out, "ry({}) q[{a}];", rng.angle()),
                    1 => writeln!(out, "rz({}) q[{a}];", rng.angle()),
                    2 => writeln!(out, "ry({}) q[{b}];", rng.angle()),
                    3 => writeln!(out, "rz({}) q[{b}];", rng.angle()),
                    4 => writeln!(out, "cx q[{a}],q[{b}];"),
                    5 => writeln!(out, "ry({}) q[{a}];", rng.angle()),
                    6 => writeln!(out, "ry({}) q[{b}];", rng.angle()),
                    _ => writeln!(out, "cx q[{b}],q[{a}];"),
                };
                emitted += 1;
            }
        }
    }
    out
}

/// Back-to-back QFT rounds (Hadamard plus the controlled-phase cascade) of
/// exactly `gates` gates, on logical qubits relabelled by one seeded
/// permutation per circuit.
pub fn relabelled_qft(num_qubits: usize, gates: usize, rng: &mut Rng) -> String {
    let mut out = header(num_qubits);
    let mut label: Vec<usize> = (0..num_qubits).collect();
    rng.shuffle(&mut label);
    let mut emitted = 0;
    while emitted < gates {
        for target in 0..num_qubits {
            if emitted == gates {
                return out;
            }
            let _ = writeln!(out, "h q[{}];", label[target]);
            emitted += 1;
            for control in (target + 1)..num_qubits {
                if emitted == gates {
                    return out;
                }
                let angle = PI / 2f64.powi((control - target) as i32);
                let _ = writeln!(
                    out,
                    "cp({angle}) q[{}],q[{}];",
                    label[control], label[target]
                );
                emitted += 1;
            }
        }
    }
    out
}

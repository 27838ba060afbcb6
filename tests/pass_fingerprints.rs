//! Committed per-pass fingerprints: 200 seeded random circuits of at most 80
//! gates on 3–6 qubits, run through each `nassc-passes` pass on its own and
//! through `standard_optimization_pipeline` after `UnrollToBasis`, must
//! digest to the values recorded below (one row per pass and width).
//!
//! The corpus fingerprints in `output_fingerprints.rs` only ever hand the
//! passes routed circuits in the hardware basis. These circuits also hold
//! what a routed circuit never does: every self-inverse gate the commutative
//! cancellation pairs (`h`, `cy`, `ch`, `ccx`, `cswap`, ...), parameterized
//! two-qubit gates, `u`, measurements and barriers.
//!
//! A deliberate output change re-records the table: the failure message
//! prints the table as it should now read.

use std::f64::consts::FRAC_PI_4;

use nassc::circuit::{Gate, QuantumCircuit};
use nassc::passes::{
    standard_optimization_pipeline, CommutativeCancellation, Optimize1qGates, TranspilePass,
    TwoQubitBlockResynthesis, UnrollToBasis,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// `pass width digest`, each digest folding the outputs of the 50 circuits
/// of that width.
const FINGERPRINTS: &str = "\
unroll-to-basis              3 12bd62330a619a25
unroll-to-basis              4 4cddbb2243ebdd2c
unroll-to-basis              5 11dbbb2500ab1f66
unroll-to-basis              6 4674721bdd23a46a
optimize-1q-gates            3 988248d33b800003
optimize-1q-gates            4 f1dd6e2701c9bc69
optimize-1q-gates            5 60d2441e1b434763
optimize-1q-gates            6 d0c9d4ec08d18ed2
commutative-cancellation     3 ac73ffb0a93e52ce
commutative-cancellation     4 33c03745567cb131
commutative-cancellation     5 0b1e6ece76f39f80
commutative-cancellation     6 96cff4e3f3148122
two-qubit-block-resynthesis  3 3f4972f00cfae4f4
two-qubit-block-resynthesis  4 995fb460ebe78094
two-qubit-block-resynthesis  5 27f5e73f824aca5a
two-qubit-block-resynthesis  6 9809f61d863281f3
standard-pipeline            3 93d1f601eb069bb7
standard-pipeline            4 cdf3a15d82ba4e83
standard-pipeline            5 b1a545d111924af8
standard-pipeline            6 326576dd94ee3177
";

const CIRCUITS: u64 = 200;

/// An angle that is a quarter-turn multiple half the time, so some
/// rotations cancel or reduce to Cliffords.
fn angle(rng: &mut StdRng) -> f64 {
    if rng.gen_bool(0.5) {
        f64::from(rng.gen_range(-4i32..=4)) * FRAC_PI_4
    } else {
        rng.gen_range(-3.2..3.2)
    }
}

fn random_circuit(seed: u64) -> QuantumCircuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let width = 3 + (seed % 4) as usize;
    let mut qc = QuantumCircuit::new(width);
    let mut wires: Vec<usize> = (0..width).collect();
    for _ in 0..rng.gen_range(1..=80) {
        let gate = match rng.gen_range(0..20) {
            0..=4 => [Gate::I, Gate::X, Gate::Y, Gate::Z, Gate::H][rng.gen_range(0..5)].clone(),
            5 => Gate::Rz(angle(&mut rng)),
            6 => Gate::U(angle(&mut rng), angle(&mut rng), angle(&mut rng)),
            7..=9 => Gate::Cx,
            10 => Gate::Cz,
            11 => Gate::Swap,
            12 => Gate::Cy,
            13 => Gate::Ch,
            14 => Gate::Cp(angle(&mut rng)),
            15 => Gate::Rxx(angle(&mut rng)),
            16 => Gate::Rzz(angle(&mut rng)),
            17 => [Gate::Ccx, Gate::Cswap][rng.gen_range(0..2)].clone(),
            18 => Gate::Measure,
            _ => Gate::Barrier(rng.gen_range(1..=width)),
        };
        wires.shuffle(&mut rng);
        let arity = gate.num_qubits();
        qc.append(gate, &wires[..arity]);
    }
    qc
}

/// FNV-1a over the output's gate names, qubits and parameters (rounded to
/// 1e-9, as in `fingerprint/mod.rs`), plus the matrix entries of explicit
/// one-qubit unitaries.
fn digest(h: &mut u64, circuit: &QuantumCircuit) {
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            *h = (*h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let round = |x: f64| ((x * 1e9).round() as i64).to_le_bytes();
    eat(&(circuit.num_gates() as u64).to_le_bytes());
    for inst in circuit.iter() {
        eat(inst.gate.name().as_bytes());
        for q in inst.qubits().iter() {
            eat(&(q as u64).to_le_bytes());
        }
        for p in inst.gate.params() {
            eat(&round(p));
        }
        if let Gate::Unitary1(m) = &inst.gate {
            for (r, c) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                eat(&round(m.get(r, c).re));
                eat(&round(m.get(r, c).im));
            }
        }
    }
}

#[test]
fn pass_outputs_match_their_committed_fingerprints() {
    let passes: [&dyn TranspilePass; 4] = [
        &UnrollToBasis,
        &Optimize1qGates,
        &CommutativeCancellation,
        &TwoQubitBlockResynthesis,
    ];
    let pipeline = standard_optimization_pipeline();
    // digests[width - 3][pass], the last pass slot being the pipeline.
    let mut digests = [[0xcbf2_9ce4_8422_2325u64; 5]; 4];
    for seed in 0..CIRCUITS {
        let circuit = random_circuit(seed);
        let row = &mut digests[circuit.num_qubits() - 3];
        for (slot, pass) in passes.iter().enumerate() {
            let out = pass
                .run(&circuit)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            digest(&mut row[slot], &out);
        }
        let unrolled = UnrollToBasis.run(&circuit).expect("unroll");
        let optimized = pipeline.run(&unrolled).expect("pipeline");
        digest(&mut row[4], &optimized);
    }
    let mut actual = String::new();
    for (slot, name) in passes
        .iter()
        .map(|pass| pass.name())
        .chain(["standard-pipeline"])
        .enumerate()
    {
        for (offset, row) in digests.iter().enumerate() {
            actual.push_str(&format!("{name:<28} {} {:016x}\n", offset + 3, row[slot]));
        }
    }
    assert_eq!(
        actual, FINGERPRINTS,
        "pass fingerprints changed; the table now reads:\n{actual}"
    );
}

//! Committed output fingerprints: every `benchmarks/qasm` file × {SABRE,
//! NASSC} × layout trials {1, 2} on Montreal at seed 7, transpiled cold and
//! then warm through one `Transpiler` session, must digest to the value
//! recorded below (`fingerprint/mod.rs` says what a digest covers).
//!
//! A deliberate output change re-records the table: the failure message
//! prints the table as it should now read.

mod fingerprint;

use std::path::PathBuf;

use nassc::topology::CouplingMap;
use nassc::{RouterKind, TranspileOptions, Transpiler};

/// `file router trials digest`, one row per transpile configuration.
const FINGERPRINTS: &str = "\
adder_n10          sabre 1 1da0afc4f7b196c9
adder_n10          sabre 2 3b9dcd27aad0c0de
adder_n10          nassc 1 6531b489047566cd
adder_n10          nassc 2 4efa0574b933cea2
bell_n2            sabre 1 7a41afe4cfc294c9
bell_n2            sabre 2 754c90dfab0097bf
bell_n2            nassc 1 7a41afe4cfc294c9
bell_n2            nassc 2 754c90dfab0097bf
bv_n5              sabre 1 9d3cf026e31d1867
bv_n5              sabre 2 f94d05a50fee9750
bv_n5              nassc 1 9d3cf026e31d1867
bv_n5              nassc 2 f94d05a50fee9750
decod24_n4         sabre 1 1c2239c903db7f0c
decod24_n4         sabre 2 419cd32a6f7b109f
decod24_n4         nassc 1 8dd21e8867fb6262
decod24_n4         nassc 2 15729255fd676eda
ghz_n5             sabre 1 e3054c677391b24a
ghz_n5             sabre 2 f29ba12b969a8877
ghz_n5             nassc 1 e3054c677391b24a
ghz_n5             nassc 2 f29ba12b969a8877
grover_n4          sabre 1 6d6c33e95c2d55e7
grover_n4          sabre 2 896479db20f89749
grover_n4          nassc 1 aac4a48b3ee0fab2
grover_n4          nassc 2 d9ebbb863bf469dc
ising_n6           sabre 1 0ff9d73e26fb2041
ising_n6           sabre 2 fcf8c67221c7a578
ising_n6           nassc 1 0ff9d73e26fb2041
ising_n6           nassc 2 fcf8c67221c7a578
mod5d1_n5          sabre 1 c28c0c7efbbafc57
mod5d1_n5          sabre 2 16918ea554f4e8a6
mod5d1_n5          nassc 1 dce1c2f40f8a332f
mod5d1_n5          nassc 2 981fed44e35788cb
phase_kickback_n3  sabre 1 448d36dd0c349823
phase_kickback_n3  sabre 2 8d65d15a6be302d9
phase_kickback_n3  nassc 1 e3037a14edefac58
phase_kickback_n3  nassc 2 aef3c9d341b82605
qft_n8             sabre 1 8cba50a8b233e2e3
qft_n8             sabre 2 584ff8e19293ec3b
qft_n8             nassc 1 e561470f14f7cbb9
qft_n8             nassc 2 df2395eaecaae22b
qpe_n9             sabre 1 f3b60771c7f49dd3
qpe_n9             sabre 2 89c184c1060f941f
qpe_n9             nassc 1 f21603375e3f58bd
qpe_n9             nassc 2 c44d7c8a9283c692
toffoli_chain_n6   sabre 1 a9cac11896e9564a
toffoli_chain_n6   sabre 2 0db4b1154975e8d0
toffoli_chain_n6   nassc 1 a262571811b2c8a7
toffoli_chain_n6   nassc 2 76215e9039fe60fb
vqe_n8             sabre 1 c245bd0539badf2e
vqe_n8             sabre 2 ab2b0eb01c264d5d
vqe_n8             nassc 1 df47ee02eecac6da
vqe_n8             nassc 2 e5d1ae16cc3c5874
";

#[test]
fn corpus_outputs_match_their_committed_fingerprints() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("benchmarks/qasm");
    let corpus = nassc::qasm::load_corpus(&dir).expect("corpus directory must be readable");
    let device = CouplingMap::ibmq_montreal();
    let mut actual = String::new();
    for file in &corpus {
        let circuit = file
            .circuit
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: {e}", file.name));
        for (router, label) in [(RouterKind::Sabre, "sabre"), (RouterKind::Nassc, "nassc")] {
            for trials in [1, 2] {
                let row = format!("{:<18} {label} {trials}", file.name);
                let options = TranspileOptions::new()
                    .router(router)
                    .seed(7)
                    .layout_trials(trials);
                let session = Transpiler::new(device.clone(), options);
                let cold = session.transpile(circuit).expect("cold transpile");
                let warm = session.transpile(circuit).expect("warm transpile");
                assert_eq!(warm.cache.hits(), 3, "{row}: warm request missed a cache");
                let cold = fingerprint::digest(&cold);
                assert_eq!(
                    fingerprint::digest(&warm),
                    cold,
                    "{row}: warm differs from cold"
                );
                actual.push_str(&format!("{row} {cold:016x}\n"));
            }
        }
    }
    let changed: Vec<&str> = actual
        .lines()
        .filter(|row| !FINGERPRINTS.lines().any(|committed| committed == *row))
        .collect();
    assert!(
        changed.is_empty() && actual.lines().count() == FINGERPRINTS.lines().count(),
        "output fingerprints changed: {changed:#?}\nthe table now reads:\n{actual}"
    );
}

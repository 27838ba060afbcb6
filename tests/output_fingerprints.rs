//! Committed output fingerprints: every `benchmarks/qasm` file × {SABRE,
//! NASSC} × layout trials {1, 2} on Montreal at seed 7, plus one trial of
//! each router routed noise-aware on `Calibration::synthetic(montreal, 5)`
//! (the `+ha` rows), transpiled cold and then warm through one `Transpiler`
//! session, must digest to the value recorded below (`fingerprint/mod.rs`
//! says what a digest covers).
//!
//! A deliberate output change re-records the table: the failure message
//! prints the table as it should now read.

mod fingerprint;

use std::path::PathBuf;

use nassc::topology::{Calibration, CouplingMap};
use nassc::{RouterKind, TranspileOptions, Transpiler};

/// `file router trials digest`, one row per transpile configuration; a
/// `+ha` router routes on the calibrated noise-aware distance.
const FINGERPRINTS: &str = "\
adder_n10          sabre 1 1da0afc4f7b196c9
adder_n10          sabre 2 3b9dcd27aad0c0de
adder_n10          sabre+ha 1 87bcaac38f093112
adder_n10          nassc 1 6531b489047566cd
adder_n10          nassc 2 4efa0574b933cea2
adder_n10          nassc+ha 1 8978a96f6be713d8
bell_n2            sabre 1 7a41afe4cfc294c9
bell_n2            sabre 2 754c90dfab0097bf
bell_n2            sabre+ha 1 9535b82ed897726b
bell_n2            nassc 1 7a41afe4cfc294c9
bell_n2            nassc 2 754c90dfab0097bf
bell_n2            nassc+ha 1 9535b82ed897726b
bv_n5              sabre 1 9d3cf026e31d1867
bv_n5              sabre 2 f94d05a50fee9750
bv_n5              sabre+ha 1 a433c0494dc673ce
bv_n5              nassc 1 9d3cf026e31d1867
bv_n5              nassc 2 f94d05a50fee9750
bv_n5              nassc+ha 1 a433c0494dc673ce
decod24_n4         sabre 1 1c2239c903db7f0c
decod24_n4         sabre 2 419cd32a6f7b109f
decod24_n4         sabre+ha 1 44b63d25b949552e
decod24_n4         nassc 1 8dd21e8867fb6262
decod24_n4         nassc 2 15729255fd676eda
decod24_n4         nassc+ha 1 84852598ec04afe4
ghz_n5             sabre 1 e3054c677391b24a
ghz_n5             sabre 2 f29ba12b969a8877
ghz_n5             sabre+ha 1 d0280f82d3e4c2db
ghz_n5             nassc 1 e3054c677391b24a
ghz_n5             nassc 2 f29ba12b969a8877
ghz_n5             nassc+ha 1 d0280f82d3e4c2db
grover_n4          sabre 1 6d6c33e95c2d55e7
grover_n4          sabre 2 896479db20f89749
grover_n4          sabre+ha 1 5abfe89fb597ecd2
grover_n4          nassc 1 aac4a48b3ee0fab2
grover_n4          nassc 2 d9ebbb863bf469dc
grover_n4          nassc+ha 1 d21e99abcfef3992
ising_n6           sabre 1 0ff9d73e26fb2041
ising_n6           sabre 2 fcf8c67221c7a578
ising_n6           sabre+ha 1 2462a6095484b971
ising_n6           nassc 1 0ff9d73e26fb2041
ising_n6           nassc 2 fcf8c67221c7a578
ising_n6           nassc+ha 1 f093560be6d510fb
mod5d1_n5          sabre 1 c28c0c7efbbafc57
mod5d1_n5          sabre 2 16918ea554f4e8a6
mod5d1_n5          sabre+ha 1 28db462910b5b1d0
mod5d1_n5          nassc 1 dce1c2f40f8a332f
mod5d1_n5          nassc 2 981fed44e35788cb
mod5d1_n5          nassc+ha 1 2c2b7f5c28d29362
phase_kickback_n3  sabre 1 448d36dd0c349823
phase_kickback_n3  sabre 2 8d65d15a6be302d9
phase_kickback_n3  sabre+ha 1 448d36dd0c349823
phase_kickback_n3  nassc 1 e3037a14edefac58
phase_kickback_n3  nassc 2 aef3c9d341b82605
phase_kickback_n3  nassc+ha 1 e3037a14edefac58
qft_n8             sabre 1 8cba50a8b233e2e3
qft_n8             sabre 2 584ff8e19293ec3b
qft_n8             sabre+ha 1 cb811b6ec6498944
qft_n8             nassc 1 e561470f14f7cbb9
qft_n8             nassc 2 df2395eaecaae22b
qft_n8             nassc+ha 1 56e1a50f35a1b6a9
qpe_n9             sabre 1 f3b60771c7f49dd3
qpe_n9             sabre 2 89c184c1060f941f
qpe_n9             sabre+ha 1 c4717ad81570d611
qpe_n9             nassc 1 f21603375e3f58bd
qpe_n9             nassc 2 c44d7c8a9283c692
qpe_n9             nassc+ha 1 94b4483601891fdf
toffoli_chain_n6   sabre 1 a9cac11896e9564a
toffoli_chain_n6   sabre 2 0db4b1154975e8d0
toffoli_chain_n6   sabre+ha 1 95ed19eba982a012
toffoli_chain_n6   nassc 1 a262571811b2c8a7
toffoli_chain_n6   nassc 2 76215e9039fe60fb
toffoli_chain_n6   nassc+ha 1 9e19d5458495d443
vqe_n8             sabre 1 c245bd0539badf2e
vqe_n8             sabre 2 ab2b0eb01c264d5d
vqe_n8             sabre+ha 1 1dfd4ae9e4d6ee41
vqe_n8             nassc 1 df47ee02eecac6da
vqe_n8             nassc 2 e5d1ae16cc3c5874
vqe_n8             nassc+ha 1 45153aa1b4142a50
";

#[test]
fn corpus_outputs_match_their_committed_fingerprints() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("benchmarks/qasm");
    let corpus = nassc::qasm::load_corpus(&dir).expect("corpus directory must be readable");
    let device = CouplingMap::ibmq_montreal();
    let calibration = Calibration::synthetic(&device, 5);
    let mut actual = String::new();
    for file in &corpus {
        let circuit = file
            .circuit
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: {e}", file.name));
        for (router, label) in [(RouterKind::Sabre, "sabre"), (RouterKind::Nassc, "nassc")] {
            for (trials, calibration, ha) in
                [(1, None, ""), (2, None, ""), (1, Some(&calibration), "+ha")]
            {
                let row = format!("{:<18} {label}{ha} {trials}", file.name);
                let mut options = TranspileOptions::new()
                    .router(router)
                    .seed(7)
                    .layout_trials(trials);
                options.calibration = calibration.cloned();
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

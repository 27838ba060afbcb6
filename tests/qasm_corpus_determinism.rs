//! The external-workload corpus contract: every committed `benchmarks/qasm/`
//! file parses, transpiles bit-identically at 1 and 8 workers under both
//! routers, and re-exports as parseable OpenQASM 2.0.

use std::path::PathBuf;

use nassc::qasm;
use nassc::{RouterKind, ThreadPool, TranspileOptions, Transpiler};
use nassc_topology::CouplingMap;

/// The committed corpus directory, resolved relative to the workspace root.
fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("benchmarks/qasm")
}

#[test]
fn corpus_transpiles_bit_identically_and_reexports() {
    let corpus = qasm::load_corpus(&corpus_dir()).expect("corpus directory must be readable");
    assert!(
        corpus.len() >= 10,
        "committed corpus shrank to {} files",
        corpus.len()
    );
    let device = CouplingMap::ibmq_montreal();
    for file in &corpus {
        let circuit = file
            .circuit
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: {e}", file.path.display()));
        assert!(
            circuit.num_qubits() <= device.num_qubits(),
            "{}: too wide for ibmq_montreal",
            file.name
        );
        // The committed sources contain only named gates, so the corpus
        // itself must round-trip: export(parse(file)) parses back identical.
        let reexported =
            qasm::export(circuit).unwrap_or_else(|e| panic!("{}: export failed: {e}", file.name));
        assert_eq!(
            &qasm::parse(&reexported).unwrap(),
            circuit,
            "{}: corpus round trip",
            file.name
        );

        for router in [RouterKind::Sabre, RouterKind::Nassc] {
            for trials in [1usize, 2] {
                let options = match router {
                    RouterKind::Sabre => TranspileOptions::sabre(7),
                    RouterKind::Nassc => TranspileOptions::nassc(7),
                }
                .layout_trials(trials);
                let mut reference = None;
                for workers in [1, 8] {
                    let result = Transpiler::new(device.clone(), options.clone())
                        .with_pool(ThreadPool::new(workers))
                        .transpile(circuit)
                        .unwrap_or_else(|e| panic!("{} ({router:?}): {e}", file.name));
                    match &reference {
                        None => {
                            // Transpiled output must re-export as parseable
                            // QASM that round-trips structurally.
                            let out = qasm::export(&result.circuit).unwrap_or_else(|e| {
                                panic!("{} ({router:?}): export failed: {e}", file.name)
                            });
                            assert_eq!(
                                qasm::parse(&out).unwrap(),
                                result.circuit,
                                "{} ({router:?}): transpiled round trip",
                                file.name
                            );
                            reference = Some(result);
                        }
                        Some(reference) => {
                            assert_eq!(
                                reference.circuit, result.circuit,
                                "{} ({router:?}, {trials} trials): \
                                 output differs at {workers} workers",
                                file.name
                            );
                            assert_eq!(
                                reference.initial_layout, result.initial_layout,
                                "{} ({router:?}): initial layout",
                                file.name
                            );
                            assert_eq!(
                                reference.swap_count, result.swap_count,
                                "{} ({router:?}): swap count",
                                file.name
                            );
                        }
                    }
                }
            }
        }
    }
}

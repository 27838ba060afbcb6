//! The exporter's exact bytes. No other test compares OpenQASM text across
//! versions: the round-trip suites compare `export` with itself and the
//! fingerprints hash circuits. So one circuit holding every named gate kind,
//! both barrier shapes, measurements and awkward angles is pinned here to
//! the text it exports to, together with the empty and measureless shapes
//! and the errors of the gates that have no OpenQASM 2.0 spelling.

use std::f64::consts::PI;

use nassc_circuit::{Gate, QuantumCircuit};
use nassc_qasm::{export, parse};

/// The 29 named gate kinds of `roundtrip.rs`, a partial and a full barrier,
/// two measurements, and the angles `0.1 + 0.2`, `-0.0`, `1e308`,
/// `f64::MIN_POSITIVE` and `PI`.
fn golden_circuit() -> QuantumCircuit {
    let mut qc = QuantumCircuit::new(4);
    for gate in [
        Gate::I,
        Gate::X,
        Gate::Y,
        Gate::Z,
        Gate::H,
        Gate::S,
        Gate::Sdg,
        Gate::T,
        Gate::Tdg,
        Gate::Sx,
        Gate::Sxdg,
        Gate::Rx(0.1 + 0.2),
        Gate::Ry(-0.0),
        Gate::Rz(1e308),
        Gate::Phase(f64::MIN_POSITIVE),
        Gate::U(PI, -PI / 2.0, 0.25),
    ] {
        qc.append(gate, [1]);
    }
    for gate in [
        Gate::Cx,
        Gate::Cy,
        Gate::Cz,
        Gate::Ch,
        Gate::Swap,
        Gate::Crx(0.5),
        Gate::Cry(-1.5),
        Gate::Crz(2.0),
        Gate::Cp(PI),
        Gate::Rxx(0.1 + 0.2),
        Gate::Rzz(-0.0),
    ] {
        qc.append(gate, [3, 0]);
    }
    qc.append(Gate::Barrier(2), [2, 0]);
    qc.append(Gate::Ccx, [0, 1, 2]);
    qc.append(Gate::Cswap, [3, 2, 1]);
    qc.barrier_all();
    qc.measure(0).measure(3);
    qc
}

/// What [`golden_circuit`] exports to. Angles print in shortest round-trip
/// decimal, never in exponent form, so `1e308` is a 1 and 308 zeros and
/// `f64::MIN_POSITIVE` has 307 zeros after the point.
fn golden_text() -> String {
    [
        "OPENQASM 2.0;\n",
        "include \"qelib1.inc\";\n",
        "qreg q[4];\n",
        "creg c[4];\n",
        "id q[1];\n",
        "x q[1];\n",
        "y q[1];\n",
        "z q[1];\n",
        "h q[1];\n",
        "s q[1];\n",
        "sdg q[1];\n",
        "t q[1];\n",
        "tdg q[1];\n",
        "sx q[1];\n",
        "sxdg q[1];\n",
        "rx(0.30000000000000004) q[1];\n",
        "ry(-0) q[1];\n",
        &format!("rz(1{}) q[1];\n", "0".repeat(308)),
        &format!("p(0.{}22250738585072014) q[1];\n", "0".repeat(307)),
        "u(3.141592653589793,-1.5707963267948966,0.25) q[1];\n",
        "cx q[3],q[0];\n",
        "cy q[3],q[0];\n",
        "cz q[3],q[0];\n",
        "ch q[3],q[0];\n",
        "swap q[3],q[0];\n",
        "crx(0.5) q[3],q[0];\n",
        "cry(-1.5) q[3],q[0];\n",
        "crz(2) q[3],q[0];\n",
        "cp(3.141592653589793) q[3],q[0];\n",
        "rxx(0.30000000000000004) q[3],q[0];\n",
        "rzz(-0) q[3],q[0];\n",
        "barrier q[2],q[0];\n",
        "ccx q[0],q[1],q[2];\n",
        "cswap q[3],q[2],q[1];\n",
        "barrier q[0],q[1],q[2],q[3];\n",
        "measure q[0] -> c[0];\n",
        "measure q[3] -> c[3];\n",
    ]
    .concat()
}

#[test]
fn every_named_gate_exports_to_the_pinned_text() {
    assert_eq!(export(&golden_circuit()).unwrap(), golden_text());
}

#[test]
fn every_named_gate_parses_back_from_its_export() {
    let circuit = golden_circuit();
    let reparsed = parse(&export(&circuit).unwrap()).unwrap();
    assert_eq!(reparsed, circuit);
    // `==` on `f64` equates `-0.0` and `0.0`; the sign must survive too.
    let bits = |qc: &QuantumCircuit| -> Vec<u64> {
        qc.iter()
            .flat_map(|i| i.gate.params())
            .map(f64::to_bits)
            .collect()
    };
    assert_eq!(bits(&reparsed), bits(&circuit));
}

#[test]
fn empty_circuit_exports_the_header_only() {
    // No qubits: the header alone, no `qreg`.
    assert_eq!(
        export(&QuantumCircuit::new(0)).unwrap(),
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
    );
}

#[test]
fn measureless_circuit_exports_without_a_creg() {
    let mut bell = QuantumCircuit::new(2);
    bell.h(0).cx(0, 1);
    assert_eq!(
        export(&bell).unwrap(),
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n"
    );
}

/// Exports `h q[0]; <gate> <qubits>; cx q[0],q[1];` and checks the error
/// names instruction 1 as `what`, at line 0.
fn assert_export_fails(gate: Gate, qubits: &[usize], what: &str) {
    let mut qc = QuantumCircuit::new(2);
    qc.h(0).append(gate, qubits).cx(0, 1);
    let err = export(&qc).unwrap_err();
    assert_eq!(err.line, 0);
    assert_eq!(
        err.to_string(),
        format!("QASM error: instruction 1 ({what}) has no OpenQASM 2.0 representation")
    );
}

#[test]
fn unitary_gates_fail_export_without_a_line() {
    let unitary1 = Gate::Unitary1(Box::new(Gate::H.matrix2().unwrap()));
    let unitary2 = Gate::Unitary2(Box::new(Gate::Cx.matrix4().unwrap()));
    assert_export_fails(unitary1, &[0], "unitary1");
    assert_export_fails(unitary2, &[0, 1], "unitary2");
}

#[test]
fn non_finite_parameters_fail_export_without_a_line() {
    assert_export_fails(Gate::Rz(f64::NAN), &[1], "rz");
}

//! Parser error paths: every rejection carries a positioned, descriptive
//! [`QasmError`] instead of a panic or a silently wrong circuit.

use std::f64::consts::PI;

use nassc_circuit::QuantumCircuit;
use nassc_qasm::parse;

/// Asserts that `source` fails to parse and the error mentions `fragment`
/// (and, when nonzero, points at `line`).
fn assert_error(source: &str, fragment: &str, line: usize) {
    match parse(source) {
        Ok(circuit) => panic!(
            "expected an error mentioning {fragment:?}, parsed {} gates\nsource:\n{source}",
            circuit.num_gates()
        ),
        Err(e) => {
            assert!(
                e.to_string().contains(fragment),
                "error {e:?} does not mention {fragment:?}\nsource:\n{source}"
            );
            if line > 0 {
                assert_eq!(e.line, line, "wrong line for {fragment:?}: {e}");
            }
        }
    }
}

#[test]
fn unterminated_gate_body() {
    assert_error(
        "OPENQASM 2.0;\nqreg q[2];\ngate foo a,b { cx a,b;\n",
        "unterminated gate body",
        3,
    );
}

#[test]
fn unknown_gate() {
    assert_error(
        "OPENQASM 2.0;\nqreg q[1];\nfrobnicate q[0];\n",
        "unknown gate \"frobnicate\"",
        3,
    );
}

#[test]
fn register_overflow() {
    assert_error("OPENQASM 2.0;\nqreg q[2];\nx q[5];\n", "out of range", 3);
    assert_error(
        "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nmeasure q[0] -> c[7];\n",
        "out of range",
        4,
    );
}

#[test]
fn undeclared_registers() {
    assert_error("OPENQASM 2.0;\nx q[0];\n", "unknown quantum register", 2);
    assert_error(
        "OPENQASM 2.0;\nqreg q[1];\nmeasure q[0] -> c[0];\n",
        "unknown classical register",
        3,
    );
}

#[test]
fn missing_or_wrong_header() {
    assert_error("qreg q[2];\n", "OPENQASM 2.0", 1);
    assert_error(
        "OPENQASM 3.0;\nqreg q[2];\n",
        "unsupported OPENQASM version",
        1,
    );
    assert_error("", "empty OpenQASM source", 0);
}

#[test]
fn unsupported_constructs_are_named() {
    assert_error(
        "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nif (c == 1) x q[0];\n",
        "classical control",
        4,
    );
    assert_error("OPENQASM 2.0;\nqreg q[1];\nreset q[0];\n", "`reset`", 3);
    assert_error("OPENQASM 2.0;\nopaque magic a,b;\n", "`opaque`", 2);
    assert_error(
        "OPENQASM 2.0;\ninclude \"mylib.inc\";\n",
        "unsupported include",
        2,
    );
}

#[test]
fn arity_mismatches() {
    assert_error(
        "OPENQASM 2.0;\nqreg q[2];\nrx q[0];\n",
        "takes 1 parameter(s), got 0",
        3,
    );
    assert_error(
        "OPENQASM 2.0;\nqreg q[2];\nh q[0],q[1];\n",
        "acts on 1 qubit(s), got 2",
        3,
    );
    assert_error(
        "OPENQASM 2.0;\nqreg q[3];\ngate foo a,b { cx a,b; }\nfoo q[0];\n",
        "acts on 2 qubit(s), got 1",
        4,
    );
}

#[test]
fn duplicate_qubits_are_rejected_not_panicked() {
    assert_error(
        "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[0];\n",
        "duplicate qubit",
        3,
    );
    // ...including duplicates that only appear after gate-body inlining.
    assert_error(
        "OPENQASM 2.0;\nqreg q[2];\ngate foo a,b { cx a,b; }\nfoo q[1],q[1];\n",
        "duplicate qubit",
        0,
    );
}

#[test]
fn broadcast_size_mismatch() {
    assert_error(
        "OPENQASM 2.0;\nqreg a[2];\nqreg b[3];\ncx a,b;\n",
        "mismatched register sizes",
        4,
    );
    assert_error(
        "OPENQASM 2.0;\nqreg q[3];\ncreg c[2];\nmeasure q -> c;\n",
        "width mismatch",
        4,
    );
}

#[test]
fn self_referential_gate_definitions_cannot_recurse() {
    // Identifiers resolve at definition time, and a gate is not in scope
    // inside its own body — so a self-call is an unknown gate, not an
    // infinite expansion.
    assert_error(
        "OPENQASM 2.0;\nqreg q[1];\ngate loop a { loop a; }\nloop q[0];\n",
        "unknown gate \"loop\"",
        0,
    );
}

#[test]
fn malformed_declarations() {
    assert_error("OPENQASM 2.0;\nqreg q[0];\n", "size 0", 2);
    assert_error(
        "OPENQASM 2.0;\nqreg q[2];\nqreg q[3];\n",
        "already declared",
        3,
    );
    assert_error(
        "OPENQASM 2.0;\nqreg q[1];\nqreg q[1];\n",
        "already declared",
        3,
    );
    assert_error("OPENQASM 2.0;\nqreg q[1.5];\n", "non-negative integer", 2);
}

#[test]
fn expression_errors() {
    assert_error(
        "OPENQASM 2.0;\nqreg q[1];\nrz(theta) q[0];\n",
        "unknown parameter",
        3,
    );
    assert_error(
        "OPENQASM 2.0;\nqreg q[1];\nrz(frob(2)) q[0];\n",
        "unknown function",
        3,
    );
    // An explicit empty list is an arity error, not a syntax error.
    assert_error(
        "OPENQASM 2.0;\nqreg q[1];\nrz() q[0];\n",
        "takes 1 parameter(s), got 0",
        3,
    );
    assert_error(
        "OPENQASM 2.0;\nqreg q[1];\nrz(1+) q[0];\n",
        "expected an expression",
        3,
    );
}

#[test]
fn truncated_statements_point_at_the_end() {
    assert_error("OPENQASM 2.0;\nqreg q[2];\ncx q[0],", "end of input", 0);
    assert_error("OPENQASM 2.0;\nqreg q[2", "expected ']'", 0);
}

#[test]
fn declared_qubits_are_bounded() {
    // A 61-byte source whose broadcast would materialize four billion
    // qubit indices.
    assert_error(
        "OPENQASM 2.0; include \"qelib1.inc\"; qreg q[4000000000]; h q;",
        "more than 4096 qubits",
        1,
    );
    // A size that wraps the running qubit count.
    assert_error(
        "OPENQASM 2.0;\nqreg a[18446744073709551615];\nqreg b[1];\nh b[0];\n",
        "more than 4096 qubits",
        2,
    );
    assert_error(
        "OPENQASM 2.0;\nqreg a[4000];\nqreg b[97];\n",
        "more than 4096 qubits",
        3,
    );
    let widest = format!("OPENQASM 2.0;\nqreg q[{}];\nh q;\n", nassc_qasm::MAX_QUBITS);
    assert_eq!(
        parse(&widest).expect("MAX_QUBITS qubits").num_qubits(),
        nassc_qasm::MAX_QUBITS
    );
}

/// A gate whose body makes `calls` calls of `callee` on its two arguments.
fn fan_out(name: &str, callee: &str, calls: usize) -> String {
    format!(
        "gate {name} a,b {{ {}}}\n",
        format!("{callee} a,b; ").repeat(calls)
    )
}

#[test]
fn expanded_operands_are_bounded() {
    // Five levels of 16 calls over a `cx` emit 2^21 operands in 16^5 CNOTs;
    // one more gate goes over.
    let mut fan = String::from("OPENQASM 2.0;\nqreg q[2];\n");
    fan += &fan_out("f1", "cx", 16);
    for level in 2..=5 {
        fan += &fan_out(&format!("f{level}"), &format!("f{}", level - 1), 16);
    }
    fan += "f5 q[0],q[1];\ncx q[0],q[1];\n";
    assert_error(&fan, "more than 2097152 qubit operands", 0);

    // Register broadcast counts too: 512 full-width barriers fill the
    // budget, and one more qubit goes over.
    let barriers = format!(
        "OPENQASM 2.0;\nqreg q[{}];\n{}barrier q[0];\n",
        nassc_qasm::MAX_QUBITS,
        "barrier q;\n".repeat(nassc_qasm::MAX_OPERANDS / nassc_qasm::MAX_QUBITS)
    );
    assert_error(&barriers, "more than 2097152 qubit operands", 515);
}

#[test]
fn non_finite_parameters_are_rejected() {
    // NaN and infinities have no OpenQASM 2.0 spelling (`export` refuses
    // them too), and no unitary: they stop at the gate that takes them.
    for angle in ["0/0", "1e400", "-1/0", "ln(0)", "sqrt(-1)", "1e308*10"] {
        assert_error(
            &format!("OPENQASM 2.0;\nqreg q[1];\nh q[0];\nrz({angle}) q[0];\n"),
            "gate rz has a non-finite angle",
            4,
        );
    }
    assert_error(
        "OPENQASM 2.0;\nqreg q[1];\nu3(0, 0/0, 0) q[0];\n",
        "gate u3 has a non-finite angle (NaN)",
        3,
    );
    // u0's duration lowers to nothing, but it is a parameter all the same.
    assert_error(
        "OPENQASM 2.0;\nqreg q[1];\nu0(1e999) q[0];\n",
        "gate u0 has a non-finite angle (inf)",
        3,
    );
}

#[test]
fn non_finite_parameters_inside_a_definition_are_rejected_at_the_call() {
    // The body is fine until a call makes `1/t` infinite: the error points
    // at the body line that lowers it.
    let source =
        "OPENQASM 2.0;\nqreg q[1];\ngate g(t) a {\n  rz(1/t) a;\n}\ng(2) q[0];\ng(0) q[0];\n";
    assert_error(source, "gate rz has a non-finite angle (inf)", 4);
    // A definition that is never called with such a value still parses.
    let fine = "OPENQASM 2.0;\nqreg q[1];\ngate g(t) a { rz(1/t) a; }\ng(2) q[0];\n";
    assert_eq!(parse(fine).unwrap().num_gates(), 1);
}

#[test]
fn non_finite_cu3_angles_are_rejected() {
    assert_error(
        "OPENQASM 2.0;\nqreg q[2];\ncu3(0/0, 0, 0) q[0],q[1];\n",
        "gate cu3 has a non-finite angle (NaN)",
        3,
    );
    // Finite parameters whose decomposition overflows: (λ + φ) / 2.
    assert_error(
        "OPENQASM 2.0;\nqreg q[2];\ncu3(0, 1.5e308, 1.5e308) q[0],q[1];\n",
        "gate cu3 has a non-finite angle (inf)",
        3,
    );
}

#[test]
fn a_late_lexical_error_outranks_an_early_syntax_error() {
    // Tokens are pulled as the parse goes, but the outcome is that of
    // lexing the whole source first.
    assert_error(
        "OPENQASM 2.0;\nqreg q[1];\nh q[0] q[0];\nx q[0];\n#\n",
        "unexpected character '#'",
        5,
    );
    assert_error(
        "OPENQASM 2.0;\nqreg q[1];\nfrobnicate q[0];\ninclude \"qelib1.inc\n",
        "unterminated string",
        4,
    );
    // And one that stops the token stream early is still reported when
    // the tokens before it parse.
    assert_error(
        "OPENQASM 2.0;\nqreg q[1];\nx q[0];\n@",
        "unexpected character '@'",
        4,
    );
}

/// `rz(<open × levels>pi<close × levels>) q[0];` on line 3.
fn nested(open: &str, close: &str, levels: usize) -> String {
    let (open, close) = (open.repeat(levels), close.repeat(levels));
    format!("OPENQASM 2.0;\nqreg q[1];\nrz({open}pi{close}) q[0];\n")
}

#[test]
fn deeply_nested_expressions_are_rejected_not_overflowed() {
    // Each level is a recursive call in the parser: unbounded, these
    // sources overflow the stack, which aborts the process. 2 MiB is the
    // stack of a spawned thread and of the daemon's workers.
    let checks = || {
        let sin64 = (0..64).fold(PI, |x, _| x.sin());
        for (open, close, deep, angle) in [
            ("(", ")", 10_000, PI),
            ("sin(", ")", 10_000, sin64),
            ("-", "", 100_000, PI),
            ("1^", "", 10_000, 1.0),
        ] {
            for levels in [65, deep] {
                let source = nested(open, close, levels);
                assert_error(&source, "expression nested more than 64 levels deep", 3);
            }
            // 64 levels still parse, to the angle the expression has.
            let mut expected = QuantumCircuit::new(1);
            expected.rz(angle, 0);
            assert_eq!(parse(&nested(open, close, 64)).unwrap(), expected);
        }
    };
    let thread = std::thread::Builder::new().stack_size(2 << 20);
    thread.spawn(checks).unwrap().join().unwrap();
}

//! OpenQASM 2.0 frontend and exporter for the NASSC reproduction.
//!
//! This crate turns the transpiler from a closed benchmark harness into a
//! system that ingests arbitrary external workloads:
//!
//! * [`parse`] — a dependency-free lexer + recursive-descent parser covering
//!   the practical OpenQASM 2.0 subset (qelib1 standard gates resolved
//!   built-in, user `gate` definitions expanded by inlining, parameter
//!   expressions over `pi` evaluated to `f64`, register broadcast,
//!   `barrier`/`measure`/`include "qelib1.inc"` tolerated), lowering into
//!   [`nassc_circuit::QuantumCircuit`];
//! * [`export`] — serializes any circuit of named gates back to valid
//!   OpenQASM 2.0, formatting parameters with shortest-round-trip
//!   precision;
//! * the round-trip guarantee: for every circuit the transpiler can produce,
//!   `parse(&export(c)?)? == c` structurally, float parameters included;
//! * [`load_corpus`] — reads every `.qasm` file of a directory (sorted by
//!   filename for deterministic job order) for batch ingestion by the bench
//!   harness.
//!
//! This crate is the one place that knows the format. The parser resolves
//! built-in gates through one table of their spellings, counts and
//! lowerings (the legacy `u1`/`u2`/`u3`/`cu1` included), and the exporter
//! writes each gate under the canonical name
//! [`Gate::name`](nassc_circuit::Gate::name) gives it.
//!
//! Both directions run at memory speed. The lexer borrows its tokens from
//! the source (`&str` slices, no `String` per token) and hands them to the
//! parser one at a time, so a parse stores no tokens and allocates the
//! returned circuit's instruction list, the register and definition tables
//! and a few scratch buffers it reuses for every statement: on the
//! committed corpus, ≈ 111 bytes per parsed gate, the circuit included. An
//! export allocates one buffer sized for its text, writes integers without
//! `core::fmt`, and formats only the angles with `{}`.
//!
//! Known limitations: no classical control (`if`), no `reset`, no `opaque`
//! gates, and includes other than `qelib1.inc` are rejected. A source may
//! declare at most [`MAX_QUBITS`] qubits and expand to at most
//! [`MAX_OPERANDS`] qubit operands, its parameter expressions may nest at
//! most 64 levels deep, and every gate parameter must evaluate to a finite
//! number.
//!
//! # Example
//!
//! ```
//! use nassc_qasm::{export, parse};
//!
//! let mut qc = nassc_circuit::QuantumCircuit::new(2);
//! qc.h(0).cx(0, 1).rz(0.25, 1);
//! let qasm = export(&qc).unwrap();
//! assert_eq!(parse(&qasm).unwrap(), qc);
//! ```

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use nassc_circuit::{Gate, QuantumCircuit, QubitList};

mod error;
mod lexer;
mod parser;

pub use error::QasmError;
pub use parser::{parse, MAX_OPERANDS, MAX_QUBITS};

/// Serializes a circuit as a strictly valid OpenQASM 2.0 program.
///
/// The output carries the standard header, one `qreg q[n]` covering every
/// qubit, a matching `creg c[n]` when the circuit measures, and canonical
/// lower-case gate spellings (`u`, `p`, `sx`, …) resolvable against
/// `qelib1.inc`. Parameters print via Rust's shortest-round-trip `f64`
/// formatting, so [`parse`] reproduces every angle bit for bit.
///
/// # Errors
///
/// A [`QasmError`] without a source line when an instruction has no
/// OpenQASM 2.0 spelling: the synthesis intermediates `unitary1`/`unitary2`
/// (raw matrices) and gates carrying non-finite parameters.
///
/// # Example
///
/// ```
/// let mut bell = nassc_circuit::QuantumCircuit::new(2);
/// bell.h(0).cx(0, 1).measure(0).measure(1);
/// assert_eq!(
///     nassc_qasm::export(&bell).unwrap(),
///     "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n\
///      h q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
/// );
/// ```
pub fn export(circuit: &QuantumCircuit) -> Result<String, QasmError> {
    // One buffer, sized for the text up front: every line is written in
    // place, integers without `core::fmt`, so an export allocates once
    // unless an angle needs more than `ANGLE_BYTES`.
    let mut out = String::with_capacity(export_bytes(circuit));
    out.push_str("OPENQASM 2.0;\n");
    out.push_str("include \"qelib1.inc\";\n");
    if circuit.num_qubits() > 0 {
        out.push_str("qreg q[");
        push_decimal(&mut out, circuit.num_qubits());
        out.push_str("];\n");
    }
    if circuit.iter().any(|i| i.gate == Gate::Measure) {
        out.push_str("creg c[");
        push_decimal(&mut out, circuit.num_qubits());
        out.push_str("];\n");
    }
    for (index, inst) in circuit.iter().enumerate() {
        match &inst.gate {
            Gate::Measure => {
                let q = inst.qubit(0);
                out.push_str("measure q[");
                push_decimal(&mut out, q);
                out.push_str("] -> c[");
                push_decimal(&mut out, q);
                out.push_str("];\n");
            }
            Gate::Barrier(_) => {
                out.push_str("barrier ");
                write_qubits(&mut out, inst.qubits());
                out.push_str(";\n");
            }
            gate => {
                let params = gate.params();
                if matches!(gate, Gate::Unitary1(_) | Gate::Unitary2(_))
                    || params.iter().any(|p| !p.is_finite())
                {
                    return Err(QasmError::new(format!(
                        "instruction {index} ({}) has no OpenQASM 2.0 representation",
                        gate.name()
                    )));
                }
                out.push_str(gate.name());
                if !params.is_empty() {
                    out.push('(');
                    for (i, p) in params.into_iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{p}");
                    }
                    out.push(')');
                }
                out.push(' ');
                write_qubits(&mut out, inst.qubits());
                out.push_str(";\n");
            }
        }
    }
    Ok(out)
}

/// The bytes [`export`] reserves per angle: the shortest round-trip form
/// of an angle whose magnitude lies from 1e-5 up to 1e23 takes at most 24,
/// sign and point included.
const ANGLE_BYTES: usize = 24;

/// The length [`export`]'s text has at most for `circuit`, given angles of
/// at most [`ANGLE_BYTES`]: the header and registers, then per instruction
/// its name, parameter list and qubit list.
fn export_bytes(circuit: &QuantumCircuit) -> usize {
    const HEADER: usize = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n".len();
    const REGISTER: usize = "qreg q[];\n".len();
    const MEASURE: usize = "measure q[] -> c[];\n".len();
    let count = decimal_digits(circuit.num_qubits());
    let index = decimal_digits(circuit.num_qubits().saturating_sub(1));
    let lines: usize = circuit
        .iter()
        .map(|inst| match inst.gate {
            Gate::Measure => MEASURE + 2 * index,
            // `name(p,…) q[i],…;\n`: each angle ends in `,` or `)`, each
            // qubit in `,` or `;`.
            ref gate => {
                let params = gate.params().len();
                gate.name().len()
                    + usize::from(params > 0)
                    + params * (ANGLE_BYTES + 1)
                    + " ".len()
                    + inst.num_qubits() * ("q[],".len() + index)
                    + "\n".len()
            }
        })
        .sum();
    HEADER + 2 * (REGISTER + count) + lines
}

/// The number of decimal digits of `n`.
fn decimal_digits(n: usize) -> usize {
    n.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// Appends `n` in decimal, as `{}` would, without going through `core::fmt`.
fn push_decimal(out: &mut String, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// Writes a qubit index list as OpenQASM arguments: `q[0],q[3]`.
fn write_qubits(out: &mut String, qubits: &QubitList) {
    for (i, q) in qubits.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("q[");
        push_decimal(out, q);
        out.push(']');
    }
}

/// One `.qasm` file of a corpus directory: its stem, path and parse outcome.
#[derive(Debug, Clone)]
pub struct CorpusFile {
    /// The file stem (`adder_n10` for `adder_n10.qasm`), used as the
    /// benchmark name.
    pub name: String,
    /// The full path the file was read from.
    pub path: PathBuf,
    /// The parsed circuit, or the parse error for this file.
    pub circuit: Result<QuantumCircuit, QasmError>,
}

/// Reads and parses every `*.qasm` file directly inside `dir`, sorted by
/// filename so corpus job order (and therefore batch output order) is
/// deterministic across filesystems.
///
/// Per-file parse failures are *data*, not errors: they come back inside the
/// returned [`CorpusFile`]s so callers can count or report them (the CI
/// corpus gate keys off exactly that count).
///
/// # Errors
///
/// Only I/O problems abort: an unreadable directory or file.
pub fn load_corpus(dir: &Path) -> io::Result<Vec<CorpusFile>> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|entry| entry.path())
        .filter(|path| path.is_file() && path.extension().is_some_and(|ext| ext == "qasm"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let source = fs::read_to_string(&path)?;
            let name = path
                .file_stem()
                .map(|stem| stem.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string());
            Ok(CorpusFile {
                name,
                circuit: parse(&source),
                path,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassc_circuit::{circuits_equivalent, Gate, QuantumCircuit};
    use std::f64::consts::PI;

    fn parse_ok(source: &str) -> QuantumCircuit {
        parse(source).unwrap_or_else(|e| panic!("{e}\nsource:\n{source}"))
    }

    #[test]
    fn bell_program_lowers_to_the_expected_circuit() {
        let qc = parse_ok(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n\
             h q[0];\ncx q[0],q[1];\nmeasure q -> c;\n",
        );
        let mut want = QuantumCircuit::new(2);
        want.h(0).cx(0, 1).measure(0).measure(1);
        assert_eq!(qc, want);
    }

    #[test]
    fn every_builtin_gate_parses() {
        let source = r#"OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
U(0.1,0.2,0.3) q[0];
CX q[0],q[1];
id q[0]; x q[0]; y q[0]; z q[0]; h q[0]; s q[0]; sdg q[0]; t q[0]; tdg q[0];
sx q[0]; sxdg q[0];
rx(0.5) q[0]; ry(0.5) q[1]; rz(0.5) q[2];
p(0.25) q[0]; u1(0.25) q[0]; u2(0.1,0.2) q[0]; u(0.1,0.2,0.3) q[0]; u3(0.1,0.2,0.3) q[0];
u0(1) q[0];
cx q[0],q[1]; cy q[0],q[1]; cz q[0],q[1]; ch q[0],q[1]; swap q[0],q[1];
crx(0.3) q[0],q[1]; cry(0.3) q[0],q[1]; crz(0.3) q[0],q[1];
cp(0.3) q[0],q[1]; cu1(0.3) q[0],q[1]; cu3(0.1,0.2,0.3) q[0],q[1];
rxx(0.3) q[0],q[1]; rzz(0.3) q[0],q[1];
ccx q[0],q[1],q[2]; cswap q[0],q[1],q[2];
"#;
        let qc = parse_ok(source);
        assert!(qc.num_gates() > 30);
        assert_eq!(qc.instructions()[0].gate, Gate::U(0.1, 0.2, 0.3));
        assert_eq!(qc.instructions()[1].gate, Gate::Cx);
        // u0 lowers to the identity.
        assert!(qc.iter().any(|i| i.gate == Gate::I));
    }

    #[test]
    fn legacy_spellings_map_to_canonical_gates() {
        let qc = parse_ok(
            "OPENQASM 2.0;\nqreg q[2];\n\
             u1(0.4) q[0];\ncu1(0.4) q[0],q[1];\nu3(0.1,0.2,0.3) q[0];\nu2(0.2,0.3) q[0];\n",
        );
        let gates: Vec<Gate> = qc.iter().map(|i| i.gate.clone()).collect();
        assert_eq!(
            gates,
            vec![
                Gate::Phase(0.4),
                Gate::Cp(0.4),
                Gate::U(0.1, 0.2, 0.3),
                Gate::U(PI / 2.0, 0.2, 0.3),
            ]
        );
    }

    #[test]
    fn cu3_expansion_is_unitarily_correct() {
        // Compare the inlined cu3 against the controlled-U matrix built from
        // first principles: ctrl(U(θ,φ,λ)) with control = qubit 0.
        let (theta, lambda) = (0.7, 1.3);
        let parsed = parse_ok(&format!(
            "OPENQASM 2.0;\nqreg q[2];\ncu3({theta},-0.4,{lambda}) q[0],q[1];\n"
        ));
        let mut cry = QuantumCircuit::new(2);
        cry.append(Gate::Cry(theta), vec![0, 1]);
        let parsed_theta_only = parse_ok(&format!(
            "OPENQASM 2.0;\nqreg q[2];\ncu3({theta},0,0) q[0],q[1];\n"
        ));
        assert!(
            circuits_equivalent(&parsed_theta_only, &cry, 1e-10),
            "cu3(θ,0,0) must equal cry(θ)"
        );
        // And cu3(0,0,λ) must equal cu1(λ) = cp(λ).
        let parsed_lambda_only = parse_ok(&format!(
            "OPENQASM 2.0;\nqreg q[2];\ncu3(0,0,{lambda}) q[0],q[1];\n"
        ));
        let mut cp = QuantumCircuit::new(2);
        cp.append(Gate::Cp(lambda), vec![0, 1]);
        assert!(
            circuits_equivalent(&parsed_lambda_only, &cp, 1e-10),
            "cu3(0,0,λ) must equal cp(λ)"
        );
        assert_eq!(parsed.num_gates(), 6);
    }

    #[test]
    fn expressions_evaluate_with_pi_and_precedence() {
        let qc = parse_ok(
            "OPENQASM 2.0;\nqreg q[1];\n\
             rz(pi/2) q[0];\nrz(-pi/4) q[0];\nrz(2*pi) q[0];\n\
             rz(1+2*3) q[0];\nrz((1+2)*3) q[0];\nrz(2^3^2) q[0];\n\
             rz(sqrt(4)) q[0];\nrz(cos(0)) q[0];\n\
             rz(-2^2) q[0];\nrz(2^-2) q[0];\nrz(2*-3) q[0];\n",
        );
        let angles: Vec<f64> = qc.iter().map(|i| i.gate.params()[0]).collect();
        assert_eq!(angles[0], PI / 2.0);
        assert_eq!(angles[1], -PI / 4.0);
        assert_eq!(angles[2], 2.0 * PI);
        assert_eq!(angles[3], 7.0);
        assert_eq!(angles[4], 9.0);
        assert_eq!(angles[5], 512.0, "^ must be right-associative");
        assert_eq!(angles[6], 2.0);
        assert_eq!(angles[7], 1.0);
        // Qiskit's precedence: `^` binds tighter than unary minus.
        assert_eq!(angles[8], -4.0, "-2^2 must be -(2^2)");
        assert_eq!(angles[9], 0.25, "the exponent may carry its own sign");
        assert_eq!(angles[10], -6.0);
    }

    #[test]
    fn user_gate_definitions_inline_with_parameters() {
        let qc = parse_ok(
            "OPENQASM 2.0;\nqreg q[3];\n\
             gate majority a,b,c { cx c,b; cx c,a; ccx a,b,c; }\n\
             gate rot(t) a { rz(t/2) a; rx(-t) a; }\n\
             majority q[0],q[1],q[2];\n\
             rot(pi) q[1];\n",
        );
        let gates: Vec<&str> = qc.iter().map(|i| i.gate.name()).collect();
        assert_eq!(gates, vec!["cx", "cx", "ccx", "rz", "rx"]);
        assert_eq!(qc.instructions()[0].qubits().to_vec(), vec![2, 1]);
        assert_eq!(qc.instructions()[3].gate, Gate::Rz(PI / 2.0));
        assert_eq!(qc.instructions()[4].gate, Gate::Rx(-PI));
    }

    #[test]
    fn repeated_formal_names_bind_their_last_position() {
        let qc = parse_ok(
            "OPENQASM 2.0;\nqreg q[2];\n\
             gate g(t, t) a, a { rz(t) a; }\n\
             g(1, 2) q[0], q[1];\n",
        );
        assert_eq!(qc.instructions()[0].gate, Gate::Rz(2.0));
        assert_eq!(qc.instructions()[0].qubits().to_vec(), vec![1]);
    }

    #[test]
    fn nested_user_gates_and_barriers_inline() {
        let qc = parse_ok(
            "OPENQASM 2.0;\nqreg q[2];\n\
             gate inner a { h a; }\n\
             gate outer a,b { inner a; barrier a,b; inner b; }\n\
             outer q[0],q[1];\n",
        );
        let gates: Vec<&str> = qc.iter().map(|i| i.gate.name()).collect();
        assert_eq!(gates, vec!["h", "barrier", "h"]);
        assert_eq!(qc.instructions()[1].qubits().to_vec(), vec![0, 1]);
    }

    #[test]
    fn gate_bodies_bind_callees_at_definition_time() {
        // A later shadowing definition of `h` must not rewrite `bell`'s
        // already-parsed body (OpenQASM 2.0 resolves identifiers at
        // definition time), but statements after the shadow do see it —
        // and a gate is not in scope inside its own body, so `gate x` can
        // wrap the builtin `x` without recursing.
        let qc = parse_ok(
            "OPENQASM 2.0;\nqreg q[2];\n\
             gate bell a,b { h a; cx a,b; }\n\
             gate h a { x a; }\n\
             gate x a { z a; x a; z a; }\n\
             bell q[0],q[1];\n\
             h q[0];\n\
             x q[1];\n",
        );
        let gates: Vec<&str> = qc.iter().map(|i| i.gate.name()).collect();
        assert_eq!(
            gates,
            vec![
                "h", "cx", // bell: the real h, not the shadow
                "x",  // h after the shadow: the user h = builtin x
                "z", "x", "z", // x after the shadow: z·x·z with the builtin x inside
            ]
        );
    }

    #[test]
    fn register_broadcast_expands_single_and_two_qubit_gates() {
        let qc = parse_ok(
            "OPENQASM 2.0;\nqreg a[3];\nqreg b[3];\n\
             h a;\ncx a,b;\ncx a[0],b;\n",
        );
        let gates: Vec<(&str, Vec<usize>)> = qc
            .iter()
            .map(|i| (i.gate.name(), i.qubits().to_vec()))
            .collect();
        assert_eq!(
            gates,
            vec![
                ("h", vec![0]),
                ("h", vec![1]),
                ("h", vec![2]),
                ("cx", vec![0, 3]),
                ("cx", vec![1, 4]),
                ("cx", vec![2, 5]),
                ("cx", vec![0, 3]),
                ("cx", vec![0, 4]),
                ("cx", vec![0, 5]),
            ]
        );
    }

    #[test]
    fn multiple_qregs_flatten_in_declaration_order() {
        let qc = parse_ok("OPENQASM 2.0;\nqreg a[2];\nqreg b[3];\nx b[0];\nx a[1];\n");
        assert_eq!(qc.num_qubits(), 5);
        assert_eq!(qc.instructions()[0].qubits().to_vec(), vec![2]);
        assert_eq!(qc.instructions()[1].qubits().to_vec(), vec![1]);
    }

    #[test]
    fn export_then_parse_is_identity_on_a_mixed_circuit() {
        let mut qc = QuantumCircuit::new(4);
        qc.h(0)
            .cx(0, 1)
            .rz(0.123_456_789_012_345_68, 2)
            .u(0.1, -0.2, 0.3, 3)
            .p(PI / 8.0, 0)
            .ccx(0, 1, 2)
            .swap(1, 3)
            .barrier_all()
            .measure(0)
            .measure(3);
        let qasm = export(&qc).unwrap();
        assert_eq!(parse(&qasm).unwrap(), qc);
    }

    #[test]
    fn corpus_loader_reads_sorted_and_keeps_failures() {
        let dir = std::env::temp_dir().join("nassc_qasm_corpus_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("b_ok.qasm"),
            "OPENQASM 2.0;\nqreg q[1];\nx q[0];\n",
        )
        .unwrap();
        std::fs::write(dir.join("a_bad.qasm"), "OPENQASM 2.0;\nnope q[0];\n").unwrap();
        std::fs::write(dir.join("ignored.txt"), "not qasm").unwrap();
        let corpus = load_corpus(&dir).unwrap();
        assert_eq!(corpus.len(), 2);
        assert_eq!(corpus[0].name, "a_bad");
        assert!(corpus[0].circuit.is_err());
        assert_eq!(corpus[1].name, "b_ok");
        assert!(corpus[1].circuit.is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! Recursive-descent parser and lowering for OpenQASM 2.0.
//!
//! The parser covers the practical OpenQASM 2.0 subset quantum benchmark
//! suites use:
//!
//! * `OPENQASM 2.0;` header, `include "qelib1.inc";` (resolved built-in),
//! * `qreg`/`creg` declarations (multiple registers flatten onto one
//!   contiguous qubit index space in declaration order),
//! * the `qelib1.inc` standard gates plus the `U`/`CX` primitives,
//! * user `gate` definitions, expanded by inlining at every call site,
//! * parameter expressions over `pi`, literals, gate parameters, `+ - * / ^`
//!   and the builtin functions `sin cos tan exp ln sqrt`, evaluated to `f64`,
//! * register-broadcast applications (`h q;`, `cx q,r;`, `measure q -> c;`),
//! * `barrier` and `measure` (measurement lowers to the `Measure` marker;
//!   the classical target is validated then discarded).
//!
//! Unsupported constructs fail with a positioned [`QasmError`]: `if`
//! (classical control), `reset`, `opaque`, and includes other than
//! `qelib1.inc`. So do gate parameters that evaluate to NaN or ±inf, which
//! OpenQASM cannot carry and no unitary has, and sources past the bounds on
//! what a short source can make the parser do: [`MAX_QUBITS`] and
//! [`MAX_OPERANDS`] bound what it allocates, and gate inlining and
//! parameter expressions (parentheses, calls, signs and exponents) nest at
//! most 64 levels deep, which bounds the stack its recursion takes.
//!
//! Lowering a statement allocates nothing beyond the instructions it emits:
//! arguments, qubit spans, parameter expressions (in postfix form) and
//! their values live in scratch buffers the parser reuses, and a gate
//! definition's body names its formal parameters and qubit arguments by
//! position, so inlining a call binds them by indexing the caller's values
//! and qubits.

use std::collections::HashMap;
use std::f64::consts::{FRAC_PI_2, PI};
use std::fmt::Display;
use std::ops::Range;
use std::rc::Rc;

use nassc_circuit::{Gate, Instruction, QuantumCircuit, QubitList};

use crate::error::QasmError;
use crate::lexer::{Lexer, Token, TokenKind};

/// Hard cap on nested gate-definition inlining, against (ill-formed)
/// self-referential definitions.
const MAX_EXPANSION_DEPTH: usize = 64;

/// Hard cap on how deep a parameter expression nests: each parenthesis,
/// call, sign and exponent is one level of the parser's recursion.
const MAX_EXPRESSION_DEPTH: usize = 64;

/// The most qubits a source may declare over all its `qreg`s: about 10×
/// the 433-qubit Osprey, the largest device this workspace models.
pub const MAX_QUBITS: usize = 4_096;

/// The most qubit operands a source may expand to, summed over every
/// emitted instruction and every user-gate call after register broadcast
/// and gate-definition inlining. That admits at least 1M two-qubit gates,
/// 10× the largest `bench_scale` circuits, and bounds the memory and time a
/// few lines of nested definitions or broadcasts can demand.
pub const MAX_OPERANDS: usize = 1 << 21;

/// How a built-in gate lowers to the IR, given its evaluated parameters;
/// `None` for the composite `cu3`, which [`Parser::emit_builtin`] inlines.
type Lowering = Option<fn(&[f64]) -> Gate>;

/// The `(parameter count, qubit count, lowering)` of the built-in gate
/// `name`, which the parser resolves without a user definition: the
/// `U`/`CX` primitives and the `qelib1.inc` standard library, legacy
/// spellings (`u1`, `u2`, `u3`, `cu1`) included. The lowering runs only
/// after the counts are checked, so it may index its parameters. A `match`
/// compares `name` with each spelling as a constant.
fn builtin(name: &str) -> Option<(usize, usize, Lowering)> {
    let builtin: (usize, usize, Lowering) = match name {
        "U" => (3, 1, Some(|p| Gate::U(p[0], p[1], p[2]))),
        "CX" => (0, 2, Some(|_| Gate::Cx)),
        "id" => (0, 1, Some(|_| Gate::I)),
        // qelib1's idle/delay gate: the duration has no circuit-level meaning.
        "u0" => (1, 1, Some(|_| Gate::I)),
        "x" => (0, 1, Some(|_| Gate::X)),
        "y" => (0, 1, Some(|_| Gate::Y)),
        "z" => (0, 1, Some(|_| Gate::Z)),
        "h" => (0, 1, Some(|_| Gate::H)),
        "s" => (0, 1, Some(|_| Gate::S)),
        "sdg" => (0, 1, Some(|_| Gate::Sdg)),
        "t" => (0, 1, Some(|_| Gate::T)),
        "tdg" => (0, 1, Some(|_| Gate::Tdg)),
        "sx" => (0, 1, Some(|_| Gate::Sx)),
        "sxdg" => (0, 1, Some(|_| Gate::Sxdg)),
        "rx" => (1, 1, Some(|p| Gate::Rx(p[0]))),
        "ry" => (1, 1, Some(|p| Gate::Ry(p[0]))),
        "rz" => (1, 1, Some(|p| Gate::Rz(p[0]))),
        "p" => (1, 1, Some(|p| Gate::Phase(p[0]))),
        "u1" => (1, 1, Some(|p| Gate::Phase(p[0]))),
        "u2" => (2, 1, Some(|p| Gate::U(FRAC_PI_2, p[0], p[1]))),
        "u" => (3, 1, Some(|p| Gate::U(p[0], p[1], p[2]))),
        "u3" => (3, 1, Some(|p| Gate::U(p[0], p[1], p[2]))),
        "cx" => (0, 2, Some(|_| Gate::Cx)),
        "cy" => (0, 2, Some(|_| Gate::Cy)),
        "cz" => (0, 2, Some(|_| Gate::Cz)),
        "ch" => (0, 2, Some(|_| Gate::Ch)),
        "swap" => (0, 2, Some(|_| Gate::Swap)),
        "crx" => (1, 2, Some(|p| Gate::Crx(p[0]))),
        "cry" => (1, 2, Some(|p| Gate::Cry(p[0]))),
        "crz" => (1, 2, Some(|p| Gate::Crz(p[0]))),
        "cp" => (1, 2, Some(|p| Gate::Cp(p[0]))),
        "cu1" => (1, 2, Some(|p| Gate::Cp(p[0]))),
        "cu3" => (3, 2, None),
        "rxx" => (1, 2, Some(|p| Gate::Rxx(p[0]))),
        "rzz" => (1, 2, Some(|p| Gate::Rzz(p[0]))),
        "ccx" => (0, 3, Some(|_| Gate::Ccx)),
        "cswap" => (0, 3, Some(|_| Gate::Cswap)),
        _ => return None,
    };
    Some(builtin)
}

/// Parses OpenQASM 2.0 source into a flat [`QuantumCircuit`].
///
/// All quantum registers map onto one contiguous qubit index space in
/// declaration order; classical registers are validated but carry no state
/// (measurement lowers to the [`Gate::Measure`] marker on the measured
/// qubit).
///
/// The parser pulls borrowed tokens from the lexer as it goes, so no token
/// is stored. What a parse allocates is the returned circuit's instruction
/// list, sized from the source's count of `;`, plus per-source tables of
/// registers and gate definitions and scratch buffers that every statement
/// reuses.
///
/// # Errors
///
/// Returns a [`QasmError`] with the offending source line for syntax errors,
/// unknown gates, register overflows, arity mismatches, gate parameters
/// that are not finite (NaN or infinite), unsupported constructs (`if`,
/// `reset`, `opaque`, non-`qelib1.inc` includes), parameter expressions
/// nested more than 64 levels deep and sources over [`MAX_QUBITS`] or
/// [`MAX_OPERANDS`]. A lexical error (a character outside
/// the OpenQASM alphabet, an unterminated string) anywhere in the source
/// takes precedence over every other error.
///
/// # Example
///
/// ```
/// let qasm = r#"
/// OPENQASM 2.0;
/// include "qelib1.inc";
/// qreg q[2];
/// creg c[2];
/// h q[0];
/// cx q[0],q[1];
/// measure q -> c;
/// "#;
/// let circuit = nassc_qasm::parse(qasm).unwrap();
/// assert_eq!(circuit.num_qubits(), 2);
/// assert_eq!(circuit.cx_count(), 1);
/// assert_eq!(circuit.count_ops()["measure"], 2);
/// ```
pub fn parse(source: &str) -> Result<QuantumCircuit, QasmError> {
    nassc_circuit::failpoints::hit("parse");
    let mut parser = Parser::new(source);
    let parsed = parser.run();
    // The token stream ends at the first lexical error, and that error
    // outranks whatever the parser made of the tokens before it or hit
    // first: the outcome is the same as lexing the whole source up front.
    parser.lexer.finish()?;
    parsed
}

/// A quantum register: its offset into the flat qubit space and its size.
#[derive(Debug, Clone, Copy)]
struct QReg {
    offset: usize,
    size: usize,
}

/// A name inside a gate definition body, resolved when the body is parsed:
/// the position of the definition's formal parameter or qubit argument it
/// names, or the unknown name, which is an error only when the gate is
/// called (so a definition that is never called still parses).
#[derive(Debug, Clone, Copy)]
enum Formal<'a> {
    At(usize),
    Unknown(&'a str),
}

/// One operation inside a `gate` definition body.
#[derive(Debug)]
enum GateOp<'a> {
    /// A gate application over formal qubit arguments.
    Apply {
        name: &'a str,
        line: usize,
        /// Every parameter expression, in postfix order, one after another.
        params: Vec<Op<'a>>,
        qargs: Vec<Formal<'a>>,
        /// The user definition `name` referred to *when this body was
        /// parsed* (`None` = a built-in). OpenQASM 2.0 resolves identifiers
        /// at definition time, so a later shadowing definition must not
        /// change the meaning of bodies that were parsed before it.
        resolved: Option<Rc<GateDef<'a>>>,
    },
    /// A barrier over formal qubit arguments.
    Barrier(Vec<Formal<'a>>),
}

/// A user `gate` definition, inlined at every call site.
#[derive(Debug)]
struct GateDef<'a> {
    num_params: usize,
    num_qubits: usize,
    body: Vec<GateOp<'a>>,
}

/// One step of a parameter expression in postfix order. A list of
/// expressions is their steps one after another, and evaluating it leaves
/// one value per expression.
#[derive(Debug, Clone, Copy)]
enum Op<'a> {
    Num(f64),
    Pi,
    /// A parameter of the enclosing gate definition (top-level statements
    /// have none, so every name there is unknown).
    Name(Formal<'a>),
    Neg,
    Binary(char),
    Call(&'a str),
}

/// Evaluates the postfix `ops` onto the end of `values`, one value per
/// expression. A parameter of the enclosing definition at position `i` is
/// `values[frame + i]`, where the call being inlined keeps its values.
fn eval(ops: &[Op<'_>], values: &mut Vec<f64>, frame: usize, line: usize) -> Result<(), QasmError> {
    fn operand(values: &mut Vec<f64>) -> f64 {
        values.pop().expect("the parser emits well-formed postfix")
    }
    for op in ops {
        let value = match *op {
            Op::Num(v) => v,
            Op::Pi => PI,
            Op::Name(Formal::At(i)) => values[frame + i],
            Op::Name(Formal::Unknown(name)) => {
                return Err(QasmError::at(
                    line,
                    format!("unknown parameter \"{name}\" in expression"),
                ))
            }
            Op::Neg => -operand(values),
            Op::Binary(op) => {
                let b = operand(values);
                let a = operand(values);
                match op {
                    '+' => a + b,
                    '-' => a - b,
                    '*' => a * b,
                    '/' => a / b,
                    '^' => a.powf(b),
                    _ => unreachable!("the parser emits only the five operators"),
                }
            }
            Op::Call(function) => {
                let v = operand(values);
                match function {
                    "sin" => v.sin(),
                    "cos" => v.cos(),
                    "tan" => v.tan(),
                    "exp" => v.exp(),
                    "ln" => v.ln(),
                    "sqrt" => v.sqrt(),
                    other => {
                        return Err(QasmError::at(
                            line,
                            format!("unknown function \"{other}\" in expression"),
                        ))
                    }
                }
            }
        };
        values.push(value);
    }
    Ok(())
}

/// An argument of a top-level operation: a whole register or one element.
#[derive(Debug, Clone, Copy)]
struct Argument<'a> {
    reg: &'a str,
    index: Option<usize>,
    line: usize,
}

/// The instructions a parse emits, and the operands they charge against
/// [`MAX_OPERANDS`].
struct Output {
    instructions: Vec<Instruction>,
    operands: usize,
}

impl Output {
    /// Fails when `count` more operands would take the source over
    /// [`MAX_OPERANDS`].
    fn check(&self, count: usize, line: usize) -> Result<(), QasmError> {
        if count > MAX_OPERANDS - self.operands {
            return Err(QasmError::at(
                line,
                format!("source expands to more than {MAX_OPERANDS} qubit operands"),
            ));
        }
        Ok(())
    }

    /// Charges `count` operands against [`MAX_OPERANDS`].
    fn charge(&mut self, count: usize, line: usize) -> Result<(), QasmError> {
        self.check(count, line)?;
        self.operands += count;
        Ok(())
    }

    /// Charges the operands, validates qubit distinctness (so
    /// [`Instruction::new`] cannot panic) and appends the instruction.
    fn push(&mut self, gate: Gate, qubits: &[usize], line: usize) -> Result<(), QasmError> {
        self.charge(qubits.len(), line)?;
        // Every index is below `MAX_QUBITS`, so the conversion cannot panic.
        let qubits = QubitList::from_slice(qubits);
        if qubits.duplicate().is_some() {
            return Err(QasmError::at(
                line,
                format!("duplicate qubit in {} application", gate.name()),
            ));
        }
        self.instructions.push(Instruction::new(gate, qubits));
        Ok(())
    }
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The next token, read ahead; `None` at the end of the token stream.
    peeked: Option<Token<'a>>,
    /// The line of the most recently consumed token (1 before the first).
    last_line: usize,
    qregs: HashMap<&'a str, QReg>,
    creg_sizes: HashMap<&'a str, usize>,
    gates: HashMap<&'a str, Rc<GateDef<'a>>>,
    num_qubits: usize,
    /// The positions of the formal parameters and qubit arguments of the
    /// gate definition being parsed, by name; empty outside definitions.
    param_formals: HashMap<&'a str, usize>,
    qubit_formals: HashMap<&'a str, usize>,
    out: Output,
    // Scratch buffers, reused by every statement.
    /// The parameter expressions of the statement being parsed.
    ops: Vec<Op<'a>>,
    /// How deep the expression being parsed is nested.
    expr_depth: usize,
    arguments: Vec<Argument<'a>>,
    spans: Vec<Range<usize>>,
    /// The parameter values of the calls being lowered, outermost first:
    /// each call's values are one range of it, and the values of the calls
    /// its definition makes are pushed above them.
    values: Vec<f64>,
    /// The qubits of the calls being lowered, kept the same way.
    qubits: Vec<usize>,
}

impl<'a> Parser<'a> {
    fn new(source: &'a str) -> Self {
        let mut lexer = Lexer::new(source);
        let peeked = lexer.next_token();
        // Every statement ends in `;`, so their count sizes the instruction
        // list of a flat source at once; broadcasts and inlined definitions
        // grow it. An instruction has at least one operand, so no source
        // needs more than `MAX_OPERANDS` of them.
        let statements = source.bytes().filter(|&b| b == b';').count();
        Self {
            lexer,
            peeked,
            last_line: 1,
            qregs: HashMap::new(),
            creg_sizes: HashMap::new(),
            gates: HashMap::new(),
            num_qubits: 0,
            param_formals: HashMap::new(),
            qubit_formals: HashMap::new(),
            out: Output {
                instructions: Vec::with_capacity(statements.min(MAX_OPERANDS)),
                operands: 0,
            },
            ops: Vec::new(),
            expr_depth: 0,
            arguments: Vec::new(),
            spans: Vec::new(),
            values: Vec::new(),
            qubits: Vec::new(),
        }
    }

    // ----- token cursor ----------------------------------------------------

    fn peek(&self) -> Option<TokenKind<'a>> {
        self.peeked.map(|t| t.kind)
    }

    /// Consumes the next token.
    fn next(&mut self) -> Option<Token<'a>> {
        let token = self.peeked?;
        self.last_line = token.line;
        self.peeked = self.lexer.next_token();
        Some(token)
    }

    /// An error at the next token's line, or at the last one's at the end
    /// of input.
    fn err_here(&self, message: impl Into<String>) -> QasmError {
        QasmError::at(self.peeked.map_or(self.last_line, |t| t.line), message)
    }

    /// The error for `found` (a token, or `None` at end of input) where the
    /// grammar wants `what`. Callers build it on the error path only.
    fn expected(&self, what: impl Display, found: Option<Token<'_>>) -> QasmError {
        match found {
            Some(token) => QasmError::at(
                token.line,
                format!("expected {what}, found {}", token.kind.describe()),
            ),
            None => QasmError::at(
                self.last_line,
                format!("expected {what}, found end of input"),
            ),
        }
    }

    fn expect_symbol(&mut self, want: char) -> Result<usize, QasmError> {
        match self.next() {
            Some(Token {
                kind: TokenKind::Symbol(c),
                line,
            }) if c == want => Ok(line),
            found => Err(self.expected(format_args!("'{want}'"), found)),
        }
    }

    fn expect_id(&mut self, context: &str) -> Result<(&'a str, usize), QasmError> {
        match self.next() {
            Some(Token {
                kind: TokenKind::Id(name),
                line,
            }) => Ok((name, line)),
            found => Err(self.expected(context, found)),
        }
    }

    fn expect_nninteger(&mut self, context: &str) -> Result<(usize, usize), QasmError> {
        match self.next() {
            Some(Token {
                kind: TokenKind::Number(text),
                line,
            }) => text.parse::<usize>().map(|n| (n, line)).map_err(|_| {
                QasmError::at(
                    line,
                    format!("expected a non-negative integer {context}, found {text}"),
                )
            }),
            found => Err(self.expected(format_args!("a non-negative integer {context}"), found)),
        }
    }

    fn at_symbol(&self, c: char) -> bool {
        self.peek() == Some(TokenKind::Symbol(c))
    }

    // ----- program ---------------------------------------------------------

    fn run(&mut self) -> Result<QuantumCircuit, QasmError> {
        self.parse_header()?;
        while self.peek().is_some() {
            self.parse_statement()?;
        }
        let instructions = std::mem::take(&mut self.out.instructions);
        Ok(QuantumCircuit::from_instructions(
            self.num_qubits,
            instructions,
        ))
    }

    fn parse_header(&mut self) -> Result<(), QasmError> {
        match self.next() {
            Some(Token {
                kind: TokenKind::Id("OPENQASM"),
                line,
            }) => {
                let version = match self.next() {
                    Some(Token {
                        kind: TokenKind::Number(text),
                        ..
                    }) => text,
                    _ => return Err(QasmError::at(line, "expected a version after OPENQASM")),
                };
                if version != "2.0" && version != "2" {
                    return Err(QasmError::at(
                        line,
                        format!("unsupported OPENQASM version {version} (only 2.0)"),
                    ));
                }
                self.expect_symbol(';')?;
                Ok(())
            }
            Some(token) => Err(QasmError::at(
                token.line,
                "expected the OPENQASM 2.0; header as the first statement",
            )),
            None => Err(QasmError::at(1, "empty OpenQASM source")),
        }
    }

    fn parse_statement(&mut self) -> Result<(), QasmError> {
        let (word, line) = match self.peeked {
            Some(Token {
                kind: TokenKind::Id(word),
                line,
            }) => (word, line),
            Some(other) => {
                return Err(self.err_here(format!(
                    "expected a statement, found {}",
                    other.kind.describe()
                )))
            }
            None => return Ok(()),
        };
        match word {
            "include" => self.parse_include(),
            "qreg" => self.parse_qreg(),
            "creg" => self.parse_creg(),
            "gate" => self.parse_gate_def(),
            "barrier" => self.parse_barrier(),
            "measure" => self.parse_measure(),
            "if" => Err(QasmError::at(
                line,
                "classical control (`if`) is not supported",
            )),
            "reset" => Err(QasmError::at(line, "`reset` is not supported")),
            "opaque" => Err(QasmError::at(line, "`opaque` gates are not supported")),
            "OPENQASM" => Err(QasmError::at(line, "duplicate OPENQASM header")),
            _ => self.parse_application(),
        }
    }

    fn parse_include(&mut self) -> Result<(), QasmError> {
        let (_, line) = self.expect_id("include")?;
        let filename = match self.next() {
            Some(Token {
                kind: TokenKind::Str(name),
                ..
            }) => name,
            _ => {
                return Err(QasmError::at(
                    line,
                    "expected a filename string after include",
                ))
            }
        };
        self.expect_symbol(';')?;
        if filename == "qelib1.inc" {
            // The standard library is resolved built-in; nothing to read.
            Ok(())
        } else {
            Err(QasmError::at(
                line,
                format!("unsupported include \"{filename}\" (only qelib1.inc)"),
            ))
        }
    }

    /// The shared body of `qreg`/`creg` declarations: consumes the keyword
    /// through the `;`, validates the size and that the name is fresh (one
    /// namespace for both register kinds), and returns `(name, size)`.
    fn parse_register_decl(&mut self) -> Result<(&'a str, usize), QasmError> {
        let (_, _) = self.expect_id("a register keyword")?;
        let (name, line) = self.expect_id("a register name")?;
        self.expect_symbol('[')?;
        let (size, _) = self.expect_nninteger("register size")?;
        self.expect_symbol(']')?;
        self.expect_symbol(';')?;
        if size == 0 {
            return Err(QasmError::at(line, format!("register {name} has size 0")));
        }
        if self.qregs.contains_key(name) || self.creg_sizes.contains_key(name) {
            return Err(QasmError::at(
                line,
                format!("register {name} already declared"),
            ));
        }
        Ok((name, size))
    }

    fn parse_qreg(&mut self) -> Result<(), QasmError> {
        let (name, size) = self.parse_register_decl()?;
        let total = self
            .num_qubits
            .checked_add(size)
            .filter(|&total| total <= MAX_QUBITS)
            .ok_or_else(|| {
                QasmError::at(
                    self.last_line,
                    format!("qreg {name}[{size}] declares more than {MAX_QUBITS} qubits in all"),
                )
            })?;
        self.qregs.insert(
            name,
            QReg {
                offset: self.num_qubits,
                size,
            },
        );
        self.num_qubits = total;
        Ok(())
    }

    fn parse_creg(&mut self) -> Result<(), QasmError> {
        let (name, size) = self.parse_register_decl()?;
        self.creg_sizes.insert(name, size);
        Ok(())
    }

    // ----- gate definitions ------------------------------------------------

    fn parse_gate_def(&mut self) -> Result<(), QasmError> {
        let (_, _) = self.expect_id("gate")?;
        let (name, line) = self.expect_id("a gate name")?;
        // Formal names resolve to positions here, once per definition; a
        // repeated name refers to its last position.
        self.param_formals.clear();
        self.qubit_formals.clear();
        let mut num_params = 0;
        self.parse_parens(|p| {
            let (formal, _) = p.expect_id("a parameter name")?;
            p.param_formals.insert(formal, num_params);
            num_params += 1;
            Ok(())
        })?;
        let mut num_qubits = 0;
        self.parse_list(|p| {
            let (formal, _) = p.expect_id("a qubit argument name")?;
            p.qubit_formals.insert(formal, num_qubits);
            num_qubits += 1;
            Ok(())
        })?;
        self.expect_symbol('{')?;
        let mut body = Vec::new();
        loop {
            match self.peek() {
                None => {
                    return Err(QasmError::at(
                        line,
                        format!("unterminated gate body for \"{name}\""),
                    ))
                }
                Some(TokenKind::Symbol('}')) => {
                    self.expect_symbol('}')?;
                    break;
                }
                Some(TokenKind::Id("barrier")) => {
                    self.expect_id("barrier")?;
                    let list = self.parse_formal_qubits()?;
                    self.expect_symbol(';')?;
                    body.push(GateOp::Barrier(list));
                }
                Some(TokenKind::Id(_)) => {
                    let (op_name, op_line) = self.expect_id("a gate name")?;
                    self.parse_exprs()?;
                    let params = self.ops.clone();
                    let qargs = self.parse_formal_qubits()?;
                    self.expect_symbol(';')?;
                    // Definition-time resolution: bind the callee now (the
                    // gate being defined is not yet in the table, so bodies
                    // can never recurse into themselves).
                    let resolved = self.gates.get(op_name).cloned();
                    body.push(GateOp::Apply {
                        name: op_name,
                        line: op_line,
                        params,
                        qargs,
                        resolved,
                    });
                }
                Some(other) => {
                    return Err(
                        self.err_here(format!("unexpected {} in gate body", other.describe()))
                    )
                }
            }
        }
        // Top-level expressions name no parameters.
        self.param_formals.clear();
        // Later definitions shadow earlier ones (and built-ins) for the
        // *statements that follow them*, so corpora that textually re-define
        // standard gates still parse; bodies parsed before a shadowing
        // definition keep their original (definition-time) meaning.
        self.gates.insert(
            name,
            Rc::new(GateDef {
                num_params,
                num_qubits,
                body,
            }),
        );
        Ok(())
    }

    /// Parses a definition body's qubit argument list, each name resolved
    /// to the position of the formal it names.
    fn parse_formal_qubits(&mut self) -> Result<Vec<Formal<'a>>, QasmError> {
        let mut qargs = Vec::new();
        self.parse_list(|p| {
            let (name, _) = p.expect_id("a qubit argument name")?;
            qargs.push(
                p.qubit_formals
                    .get(name)
                    .map_or(Formal::Unknown(name), |&i| Formal::At(i)),
            );
            Ok(())
        })?;
        Ok(qargs)
    }

    /// Parses `item (',' item)*`.
    fn parse_list(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), QasmError>,
    ) -> Result<(), QasmError> {
        item(self)?;
        while self.at_symbol(',') {
            self.expect_symbol(',')?;
            item(self)?;
        }
        Ok(())
    }

    /// Parses an optional parenthesised list, `(item, …)` or `()`; without
    /// the parentheses the list is empty.
    fn parse_parens(
        &mut self,
        item: impl FnMut(&mut Self) -> Result<(), QasmError>,
    ) -> Result<(), QasmError> {
        if !self.at_symbol('(') {
            return Ok(());
        }
        self.expect_symbol('(')?;
        if !self.at_symbol(')') {
            self.parse_list(item)?;
        }
        self.expect_symbol(')')?;
        Ok(())
    }

    // ----- expressions -----------------------------------------------------

    /// Parses an optional parenthesised list of parameter expressions into
    /// `self.ops`.
    fn parse_exprs(&mut self) -> Result<(), QasmError> {
        self.ops.clear();
        self.parse_parens(Self::parse_expr)
    }

    /// Runs `parse` one level deeper (a sign's or `^`'s operand, or inside
    /// parentheses or a call), failing past [`MAX_EXPRESSION_DEPTH`] levels.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<(), QasmError>) -> Result<(), QasmError> {
        if self.expr_depth == MAX_EXPRESSION_DEPTH {
            return Err(self.err_here(format!(
                "expression nested more than {MAX_EXPRESSION_DEPTH} levels deep"
            )));
        }
        self.expr_depth += 1;
        let parsed = parse(self);
        self.expr_depth -= 1;
        parsed
    }

    fn parse_expr(&mut self) -> Result<(), QasmError> {
        self.parse_term()?;
        while let Some(TokenKind::Symbol(op @ ('+' | '-'))) = self.peek() {
            self.next();
            self.parse_term()?;
            self.ops.push(Op::Binary(op));
        }
        Ok(())
    }

    fn parse_term(&mut self) -> Result<(), QasmError> {
        self.parse_unary()?;
        while let Some(TokenKind::Symbol(op @ ('*' | '/'))) = self.peek() {
            self.next();
            self.parse_unary()?;
            self.ops.push(Op::Binary(op));
        }
        Ok(())
    }

    /// Unary sign binds *looser* than `^` (matching Qiskit's OpenQASM 2
    /// precedence table): `-pi^2` is `-(pi^2)`, not `(-pi)^2`.
    fn parse_unary(&mut self) -> Result<(), QasmError> {
        if self.at_symbol('-') {
            self.expect_symbol('-')?;
            self.nested(Self::parse_unary)?;
            self.ops.push(Op::Neg);
            return Ok(());
        }
        if self.at_symbol('+') {
            self.expect_symbol('+')?;
            return self.nested(Self::parse_unary);
        }
        self.parse_power()
    }

    fn parse_power(&mut self) -> Result<(), QasmError> {
        self.parse_primary()?;
        if self.at_symbol('^') {
            self.expect_symbol('^')?;
            // Right-associative, and the exponent may carry its own sign
            // (`2^-3`).
            self.nested(Self::parse_unary)?;
            self.ops.push(Op::Binary('^'));
        }
        Ok(())
    }

    fn parse_primary(&mut self) -> Result<(), QasmError> {
        let op = match self.next() {
            Some(Token {
                kind: TokenKind::Number(text),
                line,
            }) => text
                .parse::<f64>()
                .map(Op::Num)
                .map_err(|_| QasmError::at(line, format!("invalid number literal {text}")))?,
            Some(Token {
                kind: TokenKind::Id("pi"),
                ..
            }) => Op::Pi,
            Some(Token {
                kind: TokenKind::Id(name),
                ..
            }) => {
                if self.at_symbol('(') {
                    self.expect_symbol('(')?;
                    self.nested(Self::parse_expr)?;
                    self.expect_symbol(')')?;
                    Op::Call(name)
                } else {
                    Op::Name(
                        self.param_formals
                            .get(name)
                            .map_or(Formal::Unknown(name), |&i| Formal::At(i)),
                    )
                }
            }
            Some(Token {
                kind: TokenKind::Symbol('('),
                ..
            }) => {
                self.nested(Self::parse_expr)?;
                self.expect_symbol(')')?;
                return Ok(());
            }
            found => return Err(self.expected("an expression", found)),
        };
        self.ops.push(op);
        Ok(())
    }

    // ----- top-level operations --------------------------------------------

    fn parse_argument(&mut self) -> Result<Argument<'a>, QasmError> {
        let (reg, line) = self.expect_id("a register argument")?;
        let index = if self.at_symbol('[') {
            self.expect_symbol('[')?;
            let (index, _) = self.expect_nninteger("index")?;
            self.expect_symbol(']')?;
            Some(index)
        } else {
            None
        };
        Ok(Argument { reg, index, line })
    }

    /// Parses a list of arguments into `self.arguments`.
    fn parse_arguments(&mut self) -> Result<(), QasmError> {
        self.arguments.clear();
        self.parse_list(|p| {
            let argument = p.parse_argument()?;
            p.arguments.push(argument);
            Ok(())
        })
    }

    fn parse_barrier(&mut self) -> Result<(), QasmError> {
        let (_, line) = self.expect_id("barrier")?;
        self.parse_arguments()?;
        self.expect_symbol(';')?;
        self.qubits.clear();
        for argument in &self.arguments {
            let span = resolve_qubits(&self.qregs, argument)?;
            self.out.check(self.qubits.len() + span.len(), line)?;
            self.qubits.extend(span);
        }
        self.out
            .push(Gate::Barrier(self.qubits.len()), &self.qubits, line)
    }

    fn parse_measure(&mut self) -> Result<(), QasmError> {
        let (_, line) = self.expect_id("measure")?;
        let source = self.parse_argument()?;
        match self.next() {
            Some(Token {
                kind: TokenKind::Arrow,
                ..
            }) => {}
            _ => return Err(QasmError::at(line, "expected '->' in measure statement")),
        }
        let target = self.parse_argument()?;
        self.expect_symbol(';')?;
        let qubits = resolve_qubits(&self.qregs, &source)?;
        let creg_size = *self.creg_sizes.get(target.reg).ok_or_else(|| {
            QasmError::at(
                target.line,
                format!("unknown classical register \"{}\"", target.reg),
            )
        })?;
        match target.index {
            Some(index) => {
                if index >= creg_size {
                    return Err(QasmError::at(
                        target.line,
                        format!(
                            "bit index {index} out of range for register {} of size {creg_size}",
                            target.reg
                        ),
                    ));
                }
                if qubits.len() != 1 {
                    return Err(QasmError::at(
                        line,
                        "cannot measure a whole register into a single bit",
                    ));
                }
            }
            None => {
                if qubits.len() != creg_size {
                    return Err(QasmError::at(
                        line,
                        format!(
                            "measure width mismatch: {} qubits into {creg_size} bits",
                            qubits.len()
                        ),
                    ));
                }
            }
        }
        for qubit in qubits {
            self.out.push(Gate::Measure, &[qubit], line)?;
        }
        Ok(())
    }

    fn parse_application(&mut self) -> Result<(), QasmError> {
        let (name, line) = self.expect_id("a gate name")?;
        self.parse_exprs()?;
        self.values.clear();
        eval(&self.ops, &mut self.values, 0, line)?;
        let num_params = self.values.len();
        self.parse_arguments()?;
        self.expect_symbol(';')?;

        // Register broadcast: every whole-register argument must have the
        // same size `n`; the statement repeats `n` times with indexed
        // arguments fixed.
        let mut broadcast: Option<usize> = None;
        for argument in &self.arguments {
            if argument.index.is_none() {
                let size = resolve_qubits(&self.qregs, argument)?.len();
                match broadcast {
                    None => broadcast = Some(size),
                    Some(existing) if existing != size => {
                        return Err(QasmError::at(
                            line,
                            format!("mismatched register sizes in broadcast: {existing} vs {size}"),
                        ))
                    }
                    Some(_) => {}
                }
            }
        }
        let repetitions = broadcast.unwrap_or(1);
        // Resolve each argument once; whole registers yield their full span.
        self.spans.clear();
        for argument in &self.arguments {
            self.spans.push(resolve_qubits(&self.qregs, argument)?);
        }
        // Top-level statements execute in order, so they resolve against
        // the table as it stands here.
        let resolved = if self.gates.is_empty() {
            None
        } else {
            self.gates.get(name).cloned()
        };
        for repetition in 0..repetitions {
            self.qubits.clear();
            self.qubits.extend(self.spans.iter().map(|span| {
                if span.len() == 1 {
                    span.start
                } else {
                    span.start + repetition
                }
            }));
            let qubits = 0..self.qubits.len();
            self.emit_gate(name, resolved.as_deref(), 0..num_params, qubits, line, 0)?;
        }
        Ok(())
    }

    // ----- lowering --------------------------------------------------------

    /// Emits one gate application on the parameter values
    /// `self.values[params]` and the qubits `self.qubits[qubits]`: user
    /// definitions (`def`) inline recursively through their definition-time
    /// bindings, built-ins lower through [`builtin`].
    fn emit_gate(
        &mut self,
        name: &str,
        def: Option<&GateDef<'_>>,
        params: Range<usize>,
        qubits: Range<usize>,
        line: usize,
        depth: usize,
    ) -> Result<(), QasmError> {
        if depth > MAX_EXPANSION_DEPTH {
            // Unreachable through well-formed sources (definition-time
            // binding rules out recursion), kept as a hard backstop.
            return Err(QasmError::at(
                line,
                format!("gate expansion too deep at \"{name}\""),
            ));
        }
        let Some(def) = def else {
            return self.emit_builtin(name, params, qubits, line);
        };
        self.out.charge(qubits.len(), line)?;
        check_arity(
            name,
            (def.num_params, def.num_qubits),
            (params.len(), qubits.len()),
            line,
        )?;
        for op in &def.body {
            let (values_base, qubits_base) = (self.values.len(), self.qubits.len());
            match op {
                GateOp::Apply {
                    name: op_name,
                    line: op_line,
                    params: exprs,
                    qargs,
                    resolved,
                } => {
                    eval(exprs, &mut self.values, params.start, *op_line)?;
                    self.map_formals(qargs, qubits.start, name, *op_line)?;
                    self.emit_gate(
                        op_name,
                        resolved.as_deref(),
                        values_base..self.values.len(),
                        qubits_base..self.qubits.len(),
                        *op_line,
                        depth + 1,
                    )?;
                }
                GateOp::Barrier(qargs) => {
                    self.map_formals(qargs, qubits.start, name, line)?;
                    let mapped = &self.qubits[qubits_base..];
                    self.out.push(Gate::Barrier(mapped.len()), mapped, line)?;
                }
            }
            self.values.truncate(values_base);
            self.qubits.truncate(qubits_base);
        }
        Ok(())
    }

    /// Pushes the concrete qubits of formal qubit arguments onto
    /// `self.qubits`, where the call being inlined keeps its qubits from
    /// `frame` on.
    fn map_formals(
        &mut self,
        qargs: &[Formal<'_>],
        frame: usize,
        gate: &str,
        line: usize,
    ) -> Result<(), QasmError> {
        for formal in qargs {
            let qubit = match *formal {
                Formal::At(i) => self.qubits[frame + i],
                Formal::Unknown(name) => {
                    return Err(QasmError::at(
                        line,
                        format!("unknown qubit argument \"{name}\" in gate {gate}"),
                    ))
                }
            };
            self.qubits.push(qubit);
        }
        Ok(())
    }

    fn emit_builtin(
        &mut self,
        name: &str,
        params: Range<usize>,
        qubits: Range<usize>,
        line: usize,
    ) -> Result<(), QasmError> {
        let Some((want_params, want_qubits, lowering)) = builtin(name) else {
            return Err(QasmError::at(line, format!("unknown gate \"{name}\"")));
        };
        check_arity(
            name,
            (want_params, want_qubits),
            (params.len(), qubits.len()),
            line,
        )?;
        let (params, qubits) = (&self.values[params], &self.qubits[qubits]);
        // OpenQASM carries finite angles only (`export` refuses the rest),
        // and the synthesis behind the routers needs unitary matrices.
        check_finite(name, params, line)?;
        if let Some(lower) = lowering {
            return self.out.push(lower(params), qubits, line);
        }
        // Controlled-U3 has no single-gate equivalent in the IR; inline the
        // standard qelib1 decomposition, whose angle sums may overflow.
        let (theta, phi, lambda) = (params[0], params[1], params[2]);
        let (c, t) = (qubits[0], qubits[1]);
        check_finite(name, &[(lambda + phi) / 2.0, (lambda - phi) / 2.0], line)?;
        self.out
            .push(Gate::Phase((lambda + phi) / 2.0), &[c], line)?;
        self.out
            .push(Gate::Phase((lambda - phi) / 2.0), &[t], line)?;
        self.out.push(Gate::Cx, &[c, t], line)?;
        self.out.push(
            Gate::U(-theta / 2.0, 0.0, -(phi + lambda) / 2.0),
            &[t],
            line,
        )?;
        self.out.push(Gate::Cx, &[c, t], line)?;
        self.out.push(Gate::U(theta / 2.0, phi, 0.0), &[t], line)
    }
}

/// Resolves a quantum argument to its flat qubit indices (`None` index
/// means the whole register).
fn resolve_qubits(
    qregs: &HashMap<&str, QReg>,
    argument: &Argument<'_>,
) -> Result<Range<usize>, QasmError> {
    let reg = qregs.get(argument.reg).ok_or_else(|| {
        QasmError::at(
            argument.line,
            format!("unknown quantum register \"{}\"", argument.reg),
        )
    })?;
    match argument.index {
        Some(index) if index >= reg.size => Err(QasmError::at(
            argument.line,
            format!(
                "qubit index {index} out of range for register {} of size {}",
                argument.reg, reg.size
            ),
        )),
        Some(index) => Ok(reg.offset + index..reg.offset + index + 1),
        None => Ok(reg.offset..reg.offset + reg.size),
    }
}

/// Fails when one of gate `name`'s angles is NaN or infinite.
fn check_finite(name: &str, angles: &[f64], line: usize) -> Result<(), QasmError> {
    match angles.iter().find(|angle| !angle.is_finite()) {
        Some(angle) => Err(QasmError::at(
            line,
            format!("gate {name} has a non-finite angle ({angle})"),
        )),
        None => Ok(()),
    }
}

/// Fails unless an application of gate `name` passes the `(parameter,
/// qubit)` counts its definition takes.
fn check_arity(
    name: &str,
    (want_params, want_qubits): (usize, usize),
    (params, qubits): (usize, usize),
    line: usize,
) -> Result<(), QasmError> {
    if params != want_params {
        return Err(QasmError::at(
            line,
            format!("gate {name} takes {want_params} parameter(s), got {params}"),
        ));
    }
    if qubits != want_qubits {
        return Err(QasmError::at(
            line,
            format!("gate {name} acts on {want_qubits} qubit(s), got {qubits}"),
        ));
    }
    Ok(())
}

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
//! `qelib1.inc`. So do sources over [`MAX_QUBITS`] or [`MAX_OPERANDS`],
//! which bound what a short source can make the parser allocate.

use std::collections::HashMap;
use std::f64::consts::{FRAC_PI_2, PI};
use std::fmt::Display;
use std::ops::Range;
use std::rc::Rc;

use nassc_circuit::{Gate, Instruction, QuantumCircuit, QubitList};

use crate::error::QasmError;
use crate::lexer::{lex, Token, TokenKind};

/// Hard cap on nested gate-definition inlining, against (ill-formed)
/// self-referential definitions.
const MAX_EXPANSION_DEPTH: usize = 64;

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

/// `(name, parameter count, qubit count, lowering)` of every built-in gate
/// the parser resolves without a user definition: the `U`/`CX` primitives
/// and the `qelib1.inc` standard library, legacy spellings (`u1`, `u2`,
/// `u3`, `cu1`) included. The lowering runs only after the counts are
/// checked, so it may index its parameters.
const BUILTINS: &[(&str, usize, usize, Lowering)] = &[
    ("U", 3, 1, Some(|p| Gate::U(p[0], p[1], p[2]))),
    ("CX", 0, 2, Some(|_| Gate::Cx)),
    ("id", 0, 1, Some(|_| Gate::I)),
    // qelib1's idle/delay gate: the duration has no circuit-level meaning.
    ("u0", 1, 1, Some(|_| Gate::I)),
    ("x", 0, 1, Some(|_| Gate::X)),
    ("y", 0, 1, Some(|_| Gate::Y)),
    ("z", 0, 1, Some(|_| Gate::Z)),
    ("h", 0, 1, Some(|_| Gate::H)),
    ("s", 0, 1, Some(|_| Gate::S)),
    ("sdg", 0, 1, Some(|_| Gate::Sdg)),
    ("t", 0, 1, Some(|_| Gate::T)),
    ("tdg", 0, 1, Some(|_| Gate::Tdg)),
    ("sx", 0, 1, Some(|_| Gate::Sx)),
    ("sxdg", 0, 1, Some(|_| Gate::Sxdg)),
    ("rx", 1, 1, Some(|p| Gate::Rx(p[0]))),
    ("ry", 1, 1, Some(|p| Gate::Ry(p[0]))),
    ("rz", 1, 1, Some(|p| Gate::Rz(p[0]))),
    ("p", 1, 1, Some(|p| Gate::Phase(p[0]))),
    ("u1", 1, 1, Some(|p| Gate::Phase(p[0]))),
    ("u2", 2, 1, Some(|p| Gate::U(FRAC_PI_2, p[0], p[1]))),
    ("u", 3, 1, Some(|p| Gate::U(p[0], p[1], p[2]))),
    ("u3", 3, 1, Some(|p| Gate::U(p[0], p[1], p[2]))),
    ("cx", 0, 2, Some(|_| Gate::Cx)),
    ("cy", 0, 2, Some(|_| Gate::Cy)),
    ("cz", 0, 2, Some(|_| Gate::Cz)),
    ("ch", 0, 2, Some(|_| Gate::Ch)),
    ("swap", 0, 2, Some(|_| Gate::Swap)),
    ("crx", 1, 2, Some(|p| Gate::Crx(p[0]))),
    ("cry", 1, 2, Some(|p| Gate::Cry(p[0]))),
    ("crz", 1, 2, Some(|p| Gate::Crz(p[0]))),
    ("cp", 1, 2, Some(|p| Gate::Cp(p[0]))),
    ("cu1", 1, 2, Some(|p| Gate::Cp(p[0]))),
    ("cu3", 3, 2, None),
    ("rxx", 1, 2, Some(|p| Gate::Rxx(p[0]))),
    ("rzz", 1, 2, Some(|p| Gate::Rzz(p[0]))),
    ("ccx", 0, 3, Some(|_| Gate::Ccx)),
    ("cswap", 0, 3, Some(|_| Gate::Cswap)),
];

/// Parses OpenQASM 2.0 source into a flat [`QuantumCircuit`].
///
/// All quantum registers map onto one contiguous qubit index space in
/// declaration order; classical registers are validated but carry no state
/// (measurement lowers to the [`Gate::Measure`] marker on the measured
/// qubit).
///
/// # Errors
///
/// Returns a [`QasmError`] with the offending source line for syntax errors,
/// unknown gates, register overflows, arity mismatches, unsupported
/// constructs (`if`, `reset`, `opaque`, non-`qelib1.inc` includes) and
/// sources over [`MAX_QUBITS`] or [`MAX_OPERANDS`].
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
    Parser::new(lex(source)?).run()
}

/// A quantum register: its offset into the flat qubit space and its size.
#[derive(Debug, Clone)]
struct QReg {
    offset: usize,
    size: usize,
}

/// One operation inside a `gate` definition body.
#[derive(Debug, Clone)]
enum GateOp {
    /// A gate application over formal qubit arguments.
    Apply {
        name: String,
        line: usize,
        params: Vec<Expr>,
        qargs: Vec<String>,
        /// The user definition `name` referred to *when this body was
        /// parsed* (`None` = a built-in). OpenQASM 2.0 resolves identifiers
        /// at definition time, so a later shadowing definition must not
        /// change the meaning of bodies that were parsed before it.
        resolved: Option<Rc<GateDef>>,
    },
    /// A barrier over formal qubit arguments.
    Barrier(Vec<String>),
}

/// A user `gate` definition, inlined at every call site.
#[derive(Debug, Clone)]
struct GateDef {
    params: Vec<String>,
    qargs: Vec<String>,
    body: Vec<GateOp>,
}

/// A parameter expression, evaluated against the enclosing definition's
/// formal parameters (top level evaluates with an empty environment).
#[derive(Debug, Clone)]
enum Expr {
    Num(f64),
    Pi,
    Ident(String),
    Neg(Box<Expr>),
    Binary(char, Box<Expr>, Box<Expr>),
    Call(String, Box<Expr>),
}

impl Expr {
    fn eval(&self, env: &HashMap<String, f64>, line: usize) -> Result<f64, QasmError> {
        Ok(match self {
            Expr::Num(v) => *v,
            Expr::Pi => PI,
            Expr::Ident(name) => *env.get(name).ok_or_else(|| {
                QasmError::at(line, format!("unknown parameter \"{name}\" in expression"))
            })?,
            Expr::Neg(inner) => -inner.eval(env, line)?,
            Expr::Binary(op, lhs, rhs) => {
                let (a, b) = (lhs.eval(env, line)?, rhs.eval(env, line)?);
                match op {
                    '+' => a + b,
                    '-' => a - b,
                    '*' => a * b,
                    '/' => a / b,
                    '^' => a.powf(b),
                    _ => unreachable!("lexer only produces the five operators"),
                }
            }
            Expr::Call(function, arg) => {
                let v = arg.eval(env, line)?;
                match function.as_str() {
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
        })
    }
}

/// An argument of a top-level operation: a whole register or one element.
#[derive(Debug, Clone)]
struct Argument {
    reg: String,
    index: Option<usize>,
    line: usize,
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    qregs: HashMap<String, QReg>,
    creg_sizes: HashMap<String, usize>,
    gates: HashMap<String, Rc<GateDef>>,
    num_qubits: usize,
    /// Qubit operands charged so far against [`MAX_OPERANDS`].
    operands: usize,
    instructions: Vec<Instruction>,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Self {
            tokens,
            pos: 0,
            qregs: HashMap::new(),
            creg_sizes: HashMap::new(),
            gates: HashMap::new(),
            num_qubits: 0,
            operands: 0,
            instructions: Vec::new(),
        }
    }

    // ----- token cursor ----------------------------------------------------

    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn line(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map_or(0, |t| t.line)
    }

    /// Line of the most recently consumed token (for errors at end of input).
    fn last_line(&self) -> usize {
        self.tokens
            .get(self.pos.saturating_sub(1))
            .map_or(1, |t| t.line)
    }

    /// Consumes the next token. Its kind moves out, leaving a heap-free
    /// placeholder: nothing reads a consumed token again but its `line`.
    fn next(&mut self) -> Option<Token> {
        let token = self.tokens.get_mut(self.pos)?;
        self.pos += 1;
        Some(Token {
            kind: std::mem::replace(&mut token.kind, TokenKind::Arrow),
            line: token.line,
        })
    }

    fn err_here(&self, message: impl Into<String>) -> QasmError {
        QasmError::at(self.line().max(self.last_line()), message)
    }

    /// The error for `found` (a token, or `None` at end of input) where the
    /// grammar wants `what`. Callers build it on the error path only.
    fn expected(&self, what: impl Display, found: Option<Token>) -> QasmError {
        match found {
            Some(token) => QasmError::at(
                token.line,
                format!("expected {what}, found {}", token.kind.describe()),
            ),
            None => QasmError::at(
                self.last_line(),
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

    fn expect_id(&mut self, context: &str) -> Result<(String, usize), QasmError> {
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
        matches!(self.peek(), Some(TokenKind::Symbol(s)) if *s == c)
    }

    // ----- program ---------------------------------------------------------

    fn run(mut self) -> Result<QuantumCircuit, QasmError> {
        self.parse_header()?;
        while self.peek().is_some() {
            self.parse_statement()?;
        }
        // Pre-size the circuit: 100k-gate ingest must not re-grow the
        // instruction buffer while the range-checking push loop runs.
        let mut circuit = QuantumCircuit::with_capacity(self.num_qubits, self.instructions.len());
        for instruction in self.instructions.drain(..) {
            circuit.push(instruction);
        }
        Ok(circuit)
    }

    fn parse_header(&mut self) -> Result<(), QasmError> {
        match self.next() {
            Some(Token {
                kind: TokenKind::Id(word),
                line,
            }) if word == "OPENQASM" => {
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
        let (word, line) = match self.peek() {
            Some(TokenKind::Id(word)) => (word.clone(), self.line()),
            Some(other) => {
                return Err(
                    self.err_here(format!("expected a statement, found {}", other.describe()))
                )
            }
            None => return Ok(()),
        };
        match word.as_str() {
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
    fn parse_register_decl(&mut self) -> Result<(String, usize), QasmError> {
        let (_, _) = self.expect_id("a register keyword")?;
        let (name, line) = self.expect_id("a register name")?;
        self.expect_symbol('[')?;
        let (size, _) = self.expect_nninteger("register size")?;
        self.expect_symbol(']')?;
        self.expect_symbol(';')?;
        if size == 0 {
            return Err(QasmError::at(line, format!("register {name} has size 0")));
        }
        if self.qregs.contains_key(&name) || self.creg_sizes.contains_key(&name) {
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
                    self.last_line(),
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
        let params = self.parse_parens(|p| Ok(p.expect_id("a parameter name")?.0))?;
        let qargs = self.parse_id_list("a qubit argument name")?;
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
                Some(TokenKind::Id(word)) if word == "barrier" => {
                    self.expect_id("barrier")?;
                    let list = self.parse_id_list("a qubit argument name")?;
                    self.expect_symbol(';')?;
                    body.push(GateOp::Barrier(list));
                }
                Some(TokenKind::Id(_)) => {
                    let (op_name, op_line) = self.expect_id("a gate name")?;
                    let exprs = self.parse_parens(Self::parse_expr)?;
                    let op_qargs = self.parse_id_list("a qubit argument name")?;
                    self.expect_symbol(';')?;
                    // Definition-time resolution: bind the callee now (the
                    // gate being defined is not yet in the table, so bodies
                    // can never recurse into themselves).
                    let resolved = self.gates.get(&op_name).cloned();
                    body.push(GateOp::Apply {
                        name: op_name,
                        line: op_line,
                        params: exprs,
                        qargs: op_qargs,
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
        // Later definitions shadow earlier ones (and built-ins) for the
        // *statements that follow them*, so corpora that textually re-define
        // standard gates still parse; bodies parsed before a shadowing
        // definition keep their original (definition-time) meaning.
        self.gates.insert(
            name,
            Rc::new(GateDef {
                params,
                qargs,
                body,
            }),
        );
        Ok(())
    }

    /// Parses `item (',' item)*`.
    fn parse_list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, QasmError>,
    ) -> Result<Vec<T>, QasmError> {
        let mut list = vec![item(self)?];
        while self.at_symbol(',') {
            self.expect_symbol(',')?;
            list.push(item(self)?);
        }
        Ok(list)
    }

    /// Parses an optional parenthesised list, `(item, …)` or `()`; without
    /// the parentheses the list is empty.
    fn parse_parens<T>(
        &mut self,
        item: impl FnMut(&mut Self) -> Result<T, QasmError>,
    ) -> Result<Vec<T>, QasmError> {
        if !self.at_symbol('(') {
            return Ok(Vec::new());
        }
        self.expect_symbol('(')?;
        let list = if self.at_symbol(')') {
            Vec::new()
        } else {
            self.parse_list(item)?
        };
        self.expect_symbol(')')?;
        Ok(list)
    }

    fn parse_id_list(&mut self, context: &str) -> Result<Vec<String>, QasmError> {
        self.parse_list(|p| Ok(p.expect_id(context)?.0))
    }

    // ----- expressions -----------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, QasmError> {
        let mut lhs = self.parse_term()?;
        while matches!(self.peek(), Some(TokenKind::Symbol('+' | '-'))) {
            let Some(Token {
                kind: TokenKind::Symbol(op),
                ..
            }) = self.next()
            else {
                unreachable!("peeked symbol");
            };
            let rhs = self.parse_term()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_term(&mut self) -> Result<Expr, QasmError> {
        let mut lhs = self.parse_unary()?;
        while matches!(self.peek(), Some(TokenKind::Symbol('*' | '/'))) {
            let Some(Token {
                kind: TokenKind::Symbol(op),
                ..
            }) = self.next()
            else {
                unreachable!("peeked symbol");
            };
            let rhs = self.parse_unary()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    /// Unary sign binds *looser* than `^` (matching Qiskit's OpenQASM 2
    /// precedence table): `-pi^2` is `-(pi^2)`, not `(-pi)^2`.
    fn parse_unary(&mut self) -> Result<Expr, QasmError> {
        if self.at_symbol('-') {
            self.expect_symbol('-')?;
            return Ok(Expr::Neg(Box::new(self.parse_unary()?)));
        }
        if self.at_symbol('+') {
            self.expect_symbol('+')?;
            return self.parse_unary();
        }
        self.parse_power()
    }

    fn parse_power(&mut self) -> Result<Expr, QasmError> {
        let base = self.parse_primary()?;
        if self.at_symbol('^') {
            self.expect_symbol('^')?;
            // Right-associative, and the exponent may carry its own sign
            // (`2^-3`).
            let exponent = self.parse_unary()?;
            return Ok(Expr::Binary('^', Box::new(base), Box::new(exponent)));
        }
        Ok(base)
    }

    fn parse_primary(&mut self) -> Result<Expr, QasmError> {
        match self.next() {
            Some(Token {
                kind: TokenKind::Number(text),
                line,
            }) => text
                .parse::<f64>()
                .map(Expr::Num)
                .map_err(|_| QasmError::at(line, format!("invalid number literal {text}"))),
            Some(Token {
                kind: TokenKind::Id(name),
                ..
            }) => {
                if name == "pi" {
                    return Ok(Expr::Pi);
                }
                if self.at_symbol('(') {
                    self.expect_symbol('(')?;
                    let arg = self.parse_expr()?;
                    self.expect_symbol(')')?;
                    return Ok(Expr::Call(name, Box::new(arg)));
                }
                Ok(Expr::Ident(name))
            }
            Some(Token {
                kind: TokenKind::Symbol('('),
                ..
            }) => {
                let inner = self.parse_expr()?;
                self.expect_symbol(')')?;
                Ok(inner)
            }
            found => Err(self.expected("an expression", found)),
        }
    }

    // ----- top-level operations --------------------------------------------

    fn parse_argument(&mut self) -> Result<Argument, QasmError> {
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

    /// Resolves a quantum argument to its flat qubit indices (`None` index
    /// means the whole register).
    fn resolve_qubits(&self, argument: &Argument) -> Result<Range<usize>, QasmError> {
        let reg = self.qregs.get(&argument.reg).ok_or_else(|| {
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

    fn parse_barrier(&mut self) -> Result<(), QasmError> {
        let (_, line) = self.expect_id("barrier")?;
        let arguments = self.parse_list(Self::parse_argument)?;
        self.expect_symbol(';')?;
        let mut qubits = Vec::new();
        for argument in &arguments {
            let span = self.resolve_qubits(argument)?;
            self.check_operands(qubits.len() + span.len(), line)?;
            qubits.extend(span);
        }
        self.push_instruction(Gate::Barrier(qubits.len()), qubits, line)
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
        let qubits = self.resolve_qubits(&source)?;
        let creg_size = *self.creg_sizes.get(&target.reg).ok_or_else(|| {
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
            self.push_instruction(Gate::Measure, vec![qubit], line)?;
        }
        Ok(())
    }

    fn parse_application(&mut self) -> Result<(), QasmError> {
        let (name, line) = self.expect_id("a gate name")?;
        let env = HashMap::new();
        let params = self
            .parse_parens(Self::parse_expr)?
            .iter()
            .map(|e| e.eval(&env, line))
            .collect::<Result<Vec<f64>, QasmError>>()?;
        let arguments = self.parse_list(Self::parse_argument)?;
        self.expect_symbol(';')?;

        // Register broadcast: every whole-register argument must have the
        // same size `n`; the statement repeats `n` times with indexed
        // arguments fixed.
        let mut broadcast: Option<usize> = None;
        for argument in &arguments {
            if argument.index.is_none() {
                let size = self.resolve_qubits(argument)?.len();
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
        let resolved: Vec<Range<usize>> = arguments
            .iter()
            .map(|a| self.resolve_qubits(a))
            .collect::<Result<_, _>>()?;
        for repetition in 0..repetitions {
            let qubits: Vec<usize> = resolved
                .iter()
                .map(|span| {
                    if span.len() == 1 {
                        span.start
                    } else {
                        span.start + repetition
                    }
                })
                .collect();
            // Top-level statements execute in order, so they resolve
            // against the table as it stands here.
            let resolved = self.gates.get(&name).cloned();
            self.emit_gate(&name, resolved, &params, &qubits, line, 0)?;
        }
        Ok(())
    }

    // ----- lowering --------------------------------------------------------

    /// Emits one gate application: user definitions (`resolved`) inline
    /// recursively through their definition-time bindings, built-ins lower
    /// through [`BUILTINS`].
    fn emit_gate(
        &mut self,
        name: &str,
        resolved: Option<Rc<GateDef>>,
        params: &[f64],
        qubits: &[usize],
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
        if let Some(def) = resolved {
            self.charge_operands(qubits.len(), line)?;
            check_arity(
                name,
                (def.params.len(), def.qargs.len()),
                params,
                qubits,
                line,
            )?;
            let env: HashMap<String, f64> = def
                .params
                .iter()
                .cloned()
                .zip(params.iter().copied())
                .collect();
            let qubit_of: HashMap<&str, usize> = def
                .qargs
                .iter()
                .map(String::as_str)
                .zip(qubits.iter().copied())
                .collect();
            for op in &def.body {
                match op {
                    GateOp::Apply {
                        name: op_name,
                        line: op_line,
                        params: exprs,
                        qargs,
                        resolved: op_resolved,
                    } => {
                        let values = exprs
                            .iter()
                            .map(|e| e.eval(&env, *op_line))
                            .collect::<Result<Vec<f64>, QasmError>>()?;
                        let mapped = Self::map_formals(&qubit_of, qargs, name, *op_line)?;
                        self.emit_gate(
                            op_name,
                            op_resolved.clone(),
                            &values,
                            &mapped,
                            *op_line,
                            depth + 1,
                        )?;
                    }
                    GateOp::Barrier(qargs) => {
                        let mapped = Self::map_formals(&qubit_of, qargs, name, line)?;
                        self.push_instruction(Gate::Barrier(mapped.len()), mapped, line)?;
                    }
                }
            }
            return Ok(());
        }
        self.emit_builtin(name, params, qubits, line)
    }

    /// Maps formal qubit-argument names to concrete indices.
    fn map_formals(
        qubit_of: &HashMap<&str, usize>,
        qargs: &[String],
        gate: &str,
        line: usize,
    ) -> Result<Vec<usize>, QasmError> {
        qargs
            .iter()
            .map(|formal| {
                qubit_of.get(formal.as_str()).copied().ok_or_else(|| {
                    QasmError::at(
                        line,
                        format!("unknown qubit argument \"{formal}\" in gate {gate}"),
                    )
                })
            })
            .collect()
    }

    fn emit_builtin(
        &mut self,
        name: &str,
        params: &[f64],
        qubits: &[usize],
        line: usize,
    ) -> Result<(), QasmError> {
        let Some(&(_, want_params, want_qubits, lowering)) =
            BUILTINS.iter().find(|(known, ..)| *known == name)
        else {
            return Err(QasmError::at(line, format!("unknown gate \"{name}\"")));
        };
        check_arity(name, (want_params, want_qubits), params, qubits, line)?;
        if let Some(lower) = lowering {
            return self.push_instruction(lower(params), qubits.to_vec(), line);
        }
        // Controlled-U3 has no single-gate equivalent in the IR; inline the
        // standard qelib1 decomposition.
        let (theta, phi, lambda) = (params[0], params[1], params[2]);
        let (c, t) = (qubits[0], qubits[1]);
        self.push_instruction(Gate::Phase((lambda + phi) / 2.0), vec![c], line)?;
        self.push_instruction(Gate::Phase((lambda - phi) / 2.0), vec![t], line)?;
        self.push_instruction(Gate::Cx, vec![c, t], line)?;
        self.push_instruction(
            Gate::U(-theta / 2.0, 0.0, -(phi + lambda) / 2.0),
            vec![t],
            line,
        )?;
        self.push_instruction(Gate::Cx, vec![c, t], line)?;
        self.push_instruction(Gate::U(theta / 2.0, phi, 0.0), vec![t], line)
    }

    /// Fails when `count` more operands would take the source over
    /// [`MAX_OPERANDS`].
    fn check_operands(&self, count: usize, line: usize) -> Result<(), QasmError> {
        if count > MAX_OPERANDS - self.operands {
            return Err(QasmError::at(
                line,
                format!("source expands to more than {MAX_OPERANDS} qubit operands"),
            ));
        }
        Ok(())
    }

    /// Charges `count` operands against [`MAX_OPERANDS`].
    fn charge_operands(&mut self, count: usize, line: usize) -> Result<(), QasmError> {
        self.check_operands(count, line)?;
        self.operands += count;
        Ok(())
    }

    /// Charges the operands, validates qubit distinctness (so
    /// [`Instruction::new`] cannot panic) and appends the instruction.
    fn push_instruction(
        &mut self,
        gate: Gate,
        qubits: Vec<usize>,
        line: usize,
    ) -> Result<(), QasmError> {
        self.charge_operands(qubits.len(), line)?;
        // Every index is below `MAX_QUBITS`, so the conversion cannot panic.
        let qubits = QubitList::from(qubits);
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

/// Fails unless an application of gate `name` passes the `(parameter,
/// qubit)` counts its definition takes.
fn check_arity(
    name: &str,
    (want_params, want_qubits): (usize, usize),
    params: &[f64],
    qubits: &[usize],
    line: usize,
) -> Result<(), QasmError> {
    if params.len() != want_params {
        return Err(QasmError::at(
            line,
            format!(
                "gate {name} takes {want_params} parameter(s), got {}",
                params.len()
            ),
        ));
    }
    if qubits.len() != want_qubits {
        return Err(QasmError::at(
            line,
            format!(
                "gate {name} acts on {want_qubits} qubit(s), got {}",
                qubits.len()
            ),
        ));
    }
    Ok(())
}

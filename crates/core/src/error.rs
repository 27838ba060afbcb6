//! The consolidated error taxonomy of the session API.
//!
//! The transpilation stack has three failure domains: OpenQASM
//! parsing/export ([`QasmError`], from `nassc-qasm`), capacity — a circuit
//! wider than the session's device ([`Error::TooWide`]) — and optimization
//! passes ([`PassError`], from `nassc-passes`). A source that does not parse
//! is the caller's fault ([`Error::Qasm`]); a transpiled circuit that does
//! not export is the pipeline's ([`Error::Export`]). Callers driving circuits
//! through the [`Transpiler`] from QASM source used to match the first and
//! last; [`Error`] wraps all three behind one `std::error::Error` so
//! `Transpiler::transpile_qasm` — and the `nassc-serve` daemon on top of it
//! — returns a single type that `?` converts into.
//!
//! Service front ends should branch on [`Error::kind`], the stable
//! classification, rather than on display strings: the daemon derives its
//! HTTP statuses from it (parse → 400, too wide → 422, pass/internal → 500,
//! deadline → 504).
//!
//! Two kinds exist for fault containment rather than for ordinary failures:
//! [`Error::Internal`] is what the session's `catch_unwind` boundary turns a
//! panicking pass or routing step into (the panic never escapes the
//! [`Transpiler`]), and [`Error::Deadline`] is a transpile cooperatively
//! aborted mid-flight because its [`TranspileOptions::deadline`] expired.
//!
//! [`TranspileOptions::deadline`]: crate::pipeline::TranspileOptions::deadline
//!
//! [`Transpiler`]: crate::session::Transpiler

use std::fmt;

use nassc_passes::PassError;
use nassc_qasm::QasmError;

/// The stable classification of an [`Error`], decoupled from the carried
/// payload so wire protocols can map errors without string matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// The input did not parse as OpenQASM (caller's fault: malformed
    /// request → HTTP 400).
    Parse,
    /// The circuit parsed but needs more qubits than the device has
    /// (caller's fault, but well-formed: unprocessable → HTTP 422).
    TooWide,
    /// An optimization or layout pass failed (our fault: internal error →
    /// HTTP 500).
    Pass,
    /// A panic was caught at the session boundary (our fault, contained:
    /// internal error → HTTP 500).
    Internal,
    /// The transpile exceeded its deadline and was aborted mid-flight
    /// (HTTP 504).
    Deadline,
}

/// Any error the session API can produce: a QASM parse/export failure, a
/// circuit too wide for the device, or a failed optimization pass.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// An optimization or layout pass failed.
    Pass(PassError),
    /// OpenQASM parsing failed.
    Qasm(QasmError),
    /// The transpiled circuit has no OpenQASM 2.0 spelling, so
    /// [`Transpiler::transpile_to_qasm`] could not export it. The pipeline's
    /// fault, not the input's: it classifies as [`ErrorKind::Pass`].
    ///
    /// [`Transpiler::transpile_to_qasm`]: crate::session::Transpiler::transpile_to_qasm
    Export(QasmError),
    /// The circuit needs more qubits than the session's device has.
    TooWide {
        /// Qubits the circuit declares.
        circuit_qubits: usize,
        /// Qubits the device provides.
        device_qubits: usize,
    },
    /// A panic caught at the session boundary: the fault is contained — the
    /// session and its caches stay serviceable — and reported with the
    /// pipeline site it unwound from plus a best-effort payload message.
    Internal {
        /// Where the panic was caught (`prepare`, `transpile`, …).
        site: String,
        /// Best-effort rendering of the panic payload.
        message: String,
    },
    /// The transpile exceeded [`TranspileOptions::deadline`] and was
    /// cooperatively aborted at the next checkpoint (per layout trial, per
    /// routing step, per optimization pass).
    ///
    /// [`TranspileOptions::deadline`]: crate::pipeline::TranspileOptions::deadline
    Deadline {
        /// The configured deadline, in milliseconds.
        limit_ms: u64,
    },
}

impl Error {
    /// A [`TooWide`](Self::TooWide) error for a circuit of `circuit_qubits`
    /// against a device of `device_qubits`.
    pub fn too_wide(circuit_qubits: usize, device_qubits: usize) -> Self {
        Error::TooWide {
            circuit_qubits,
            device_qubits,
        }
    }

    /// An [`Internal`](Self::Internal) error for a panic caught at `site`.
    pub fn internal(site: impl Into<String>, message: impl Into<String>) -> Self {
        Error::Internal {
            site: site.into(),
            message: message.into(),
        }
    }

    /// A [`Deadline`](Self::Deadline) error for a transpile that exceeded
    /// its budget.
    pub fn deadline(limit: std::time::Duration) -> Self {
        Error::Deadline {
            limit_ms: limit.as_millis() as u64,
        }
    }

    /// The stable classification of this error — what service front ends
    /// should branch on (the daemon maps it to HTTP statuses).
    pub fn kind(&self) -> ErrorKind {
        match self {
            Error::Pass(_) | Error::Export(_) => ErrorKind::Pass,
            Error::Qasm(_) => ErrorKind::Parse,
            Error::TooWide { .. } => ErrorKind::TooWide,
            Error::Internal { .. } => ErrorKind::Internal,
            Error::Deadline { .. } => ErrorKind::Deadline,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Pass(e) => e.fmt(f),
            Error::Qasm(e) => e.fmt(f),
            Error::Export(e) => write!(f, "exporting result: {e}"),
            Error::TooWide {
                circuit_qubits,
                device_qubits,
            } => write!(
                f,
                "circuit needs {circuit_qubits} qubits but the device has {device_qubits}"
            ),
            Error::Internal { site, message } => {
                write!(f, "internal error (contained panic in {site}): {message}")
            }
            Error::Deadline { limit_ms } => {
                write!(f, "transpile exceeded its {limit_ms} ms deadline")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Pass(e) => Some(e),
            Error::Qasm(e) | Error::Export(e) => Some(e),
            Error::TooWide { .. } => None,
            Error::Internal { .. } => None,
            Error::Deadline { .. } => None,
        }
    }
}

impl From<PassError> for Error {
    fn from(e: PassError) -> Self {
        Error::Pass(e)
    }
}

impl From<QasmError> for Error {
    fn from(e: QasmError) -> Self {
        Error::Qasm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_both_domains_with_sources() {
        let pass: Error = PassError::new("unroll", "unknown gate").into();
        let qasm: Error = QasmError::at(3, "bad register").into();
        assert!(matches!(pass, Error::Pass(_)));
        assert!(matches!(qasm, Error::Qasm(_)));
        for e in [&pass, &qasm] {
            assert!(!e.to_string().is_empty());
            assert!(std::error::Error::source(e).is_some());
        }
        assert_eq!(
            qasm.to_string(),
            QasmError::at(3, "bad register").to_string()
        );
    }

    #[test]
    fn kind_classifies_every_variant() {
        let pass: Error = PassError::new("unroll", "unknown gate").into();
        let qasm: Error = QasmError::at(3, "bad register").into();
        let wide = Error::too_wide(30, 27);
        let export = Error::Export(QasmError::new("instruction 0 (unitary1)"));
        assert_eq!(pass.kind(), ErrorKind::Pass);
        assert_eq!(qasm.kind(), ErrorKind::Parse);
        assert_eq!(export.kind(), ErrorKind::Pass);
        assert_eq!(
            export.to_string(),
            "exporting result: QASM error: instruction 0 (unitary1)"
        );
        assert_eq!(wide.kind(), ErrorKind::TooWide);
        let internal = Error::internal("transpile", "index out of bounds");
        assert_eq!(internal.kind(), ErrorKind::Internal);
        let deadline = Error::deadline(std::time::Duration::from_millis(250));
        assert_eq!(deadline.kind(), ErrorKind::Deadline);
    }

    #[test]
    fn containment_errors_render_their_context() {
        let internal = Error::internal("prepare", "boom");
        assert_eq!(
            internal.to_string(),
            "internal error (contained panic in prepare): boom"
        );
        let deadline = Error::deadline(std::time::Duration::from_millis(250));
        assert_eq!(
            deadline.to_string(),
            "transpile exceeded its 250 ms deadline"
        );
        for e in [&internal, &deadline] {
            assert!(std::error::Error::source(e).is_none());
        }
    }

    #[test]
    fn too_wide_names_both_counts_and_has_no_source() {
        let wide = Error::too_wide(30, 27);
        assert_eq!(
            wide.to_string(),
            "circuit needs 30 qubits but the device has 27"
        );
        assert!(std::error::Error::source(&wide).is_none());
    }
}

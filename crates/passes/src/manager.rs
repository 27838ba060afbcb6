//! A minimal pass manager mirroring Qiskit's transpiler structure.

use std::fmt;

use nassc_circuit::QuantumCircuit;

/// Error produced when a transpiler pass fails.
#[derive(Debug, Clone, PartialEq)]
pub struct PassError {
    pass: String,
    message: String,
}

impl PassError {
    /// Creates a new error attributed to the named pass.
    pub fn new(pass: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            pass: pass.into(),
            message: message.into(),
        }
    }

    /// The name of the pass that failed.
    pub fn pass(&self) -> &str {
        &self.pass
    }
}

impl fmt::Display for PassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pass {} failed: {}", self.pass, self.message)
    }
}

impl std::error::Error for PassError {}

/// A circuit-to-circuit transformation pass.
///
/// Passes must preserve circuit semantics (up to the documented contract of
/// the pass, e.g. layout application changes qubit indices).
pub trait TranspilePass {
    /// A short identifying name for error messages, logging and the pass's
    /// trace span.
    fn name(&self) -> &'static str;

    /// Runs the pass.
    ///
    /// # Errors
    ///
    /// Returns a [`PassError`] when the transformation cannot be applied.
    fn run(&self, circuit: &QuantumCircuit) -> Result<QuantumCircuit, PassError>;
}

/// An ordered pipeline of passes.
///
/// # Example
///
/// ```
/// use nassc_circuit::QuantumCircuit;
/// use nassc_passes::{Optimize1qGates, PassManager};
///
/// let mut qc = QuantumCircuit::new(1);
/// qc.h(0).h(0); // cancels to the identity
///
/// let mut pm = PassManager::new();
/// pm.push(Optimize1qGates::default());
/// let optimized = pm.run(&qc).unwrap();
/// assert_eq!(optimized.num_gates(), 0);
/// ```
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn TranspilePass>>,
}

impl PassManager {
    /// Creates an empty pass manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a pass to the pipeline.
    pub fn push<P: TranspilePass + 'static>(&mut self, pass: P) -> &mut Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// The number of passes in the pipeline.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// Returns `true` when no passes are registered.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Runs every pass in order.
    ///
    /// # Errors
    ///
    /// Propagates the first [`PassError`] encountered.
    pub fn run(&self, circuit: &QuantumCircuit) -> Result<QuantumCircuit, PassError> {
        self.run_with_budget(circuit, &nassc_parallel::Budget::unlimited())
    }

    /// [`run`](Self::run) under a cooperative [`Budget`], checked before
    /// each pass: an exhausted budget aborts the pipeline by unwinding with
    /// a typed [`Cancelled`] payload, caught at the session boundary and
    /// mapped to a deadline error there. On an unexpired budget each
    /// checkpoint is one relaxed atomic load.
    ///
    /// [`Budget`]: nassc_parallel::Budget
    /// [`Cancelled`]: nassc_parallel::Cancelled
    pub fn run_with_budget(
        &self,
        circuit: &QuantumCircuit,
        budget: &nassc_parallel::Budget,
    ) -> Result<QuantumCircuit, PassError> {
        let mut current = circuit.clone();
        for pass in &self.passes {
            budget.checkpoint();
            nassc_circuit::failpoints::hit("pass");
            let _span = nassc_trace::span(pass.name());
            current = pass.run(&current)?;
        }
        Ok(current)
    }
}

impl fmt::Debug for PassManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.passes.iter().map(|p| p.name()).collect();
        f.debug_struct("PassManager")
            .field("passes", &names)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct AddHadamard;
    impl TranspilePass for AddHadamard {
        fn name(&self) -> &'static str {
            "add-hadamard"
        }
        fn run(&self, circuit: &QuantumCircuit) -> Result<QuantumCircuit, PassError> {
            let mut out = circuit.clone();
            out.h(0);
            Ok(out)
        }
    }

    struct AlwaysFails;
    impl TranspilePass for AlwaysFails {
        fn name(&self) -> &'static str {
            "always-fails"
        }
        fn run(&self, _circuit: &QuantumCircuit) -> Result<QuantumCircuit, PassError> {
            Err(PassError::new("always-fails", "intentional"))
        }
    }

    #[test]
    fn runs_passes_in_order() {
        let mut pm = PassManager::new();
        pm.push(AddHadamard).push(AddHadamard);
        let out = pm.run(&QuantumCircuit::new(1)).unwrap();
        assert_eq!(out.num_gates(), 2);
        assert_eq!(pm.len(), 2);
    }

    #[test]
    fn propagates_errors() {
        let mut pm = PassManager::new();
        pm.push(AddHadamard).push(AlwaysFails);
        let err = pm.run(&QuantumCircuit::new(1)).unwrap_err();
        assert_eq!(err.pass(), "always-fails");
        assert!(format!("{err}").contains("intentional"));
    }

    #[test]
    fn empty_manager_is_identity() {
        let pm = PassManager::new();
        assert!(pm.is_empty());
        let mut qc = QuantumCircuit::new(2);
        qc.cx(0, 1);
        assert_eq!(pm.run(&qc).unwrap(), qc);
    }

    #[test]
    fn debug_lists_pass_names() {
        let mut pm = PassManager::new();
        pm.push(AddHadamard);
        assert!(format!("{pm:?}").contains("add-hadamard"));
    }
}

//! Rustc-style diagnostics for the static plan verifier.
//!
//! Every finding carries a stable code (`SA001`..), a severity, a short
//! message, and optional rendered source relations (the constraint system
//! or statement the finding is about), so drivers can print something a
//! human can act on and tests can assert on specific codes.

use std::fmt;

/// How serious a finding is.
///
/// `Error` findings make a plan unverifiable: the engine refuses to cache
/// such plans under `verify_plans`, and `lint_descriptor` exits nonzero.
/// `Warning` marks accesses the prover could not discharge (incompleteness
/// is expected: the refutation engine is sound but not complete).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational context (never gates anything).
    Note,
    /// Unproven but not demonstrably wrong.
    Warning,
    /// Demonstrated violation of a declared property.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes emitted by the three verifier passes and the descriptor lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// Statement reads a name before any statement defines it.
    Sa001,
    /// Destination UF is never populated, or its initializing allocation
    /// does not cover the declared domain.
    Sa002,
    /// UF-call argument not provably inside the declared domain.
    Sa003,
    /// Written value not provably inside the declared range.
    Sa004,
    /// Data access not provably inside the allocated bounds.
    Sa005,
    /// Declared monotonic quantifier is not established by the plan (or a
    /// pointer-style UF lacks the monotonicity declaration it needs).
    Sa006,
    /// Destination order key is not established by the synthesized
    /// permutation chain.
    Sa007,
    /// UF used without a registered signature.
    Sa009,
}

impl Code {
    /// The canonical `SAnnn` string for this code.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Sa001 => "SA001",
            Code::Sa002 => "SA002",
            Code::Sa003 => "SA003",
            Code::Sa004 => "SA004",
            Code::Sa005 => "SA005",
            Code::Sa006 => "SA006",
            Code::Sa007 => "SA007",
            Code::Sa009 => "SA009",
        }
    }

    /// Default severity for findings with this code.
    pub fn default_severity(self) -> Severity {
        match self {
            Code::Sa001 | Code::Sa002 | Code::Sa006 | Code::Sa007 => Severity::Error,
            Code::Sa003 | Code::Sa004 | Code::Sa005 => Severity::Warning,
            Code::Sa009 => Severity::Note,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One verifier finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity (usually `code.default_severity()`).
    pub severity: Severity,
    /// Human-readable message.
    pub message: String,
    /// Label of the statement the finding is about, if any.
    pub stmt: Option<String>,
    /// Rendered source relations or constraints backing the finding.
    pub relations: Vec<String>,
}

impl Diagnostic {
    /// Creates a diagnostic with the code's default severity.
    pub fn new(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity(),
            message: message.into(),
            stmt: None,
            relations: Vec::new(),
        }
    }

    /// Attaches the statement label the finding refers to.
    pub fn with_stmt(mut self, label: impl Into<String>) -> Self {
        self.stmt = Some(label.into());
        self
    }

    /// Attaches a rendered source relation (constraint system, set, ...).
    pub fn with_relation(mut self, rel: impl Into<String>) -> Self {
        self.relations.push(rel.into());
        self
    }

    /// Renders the finding in rustc style:
    ///
    /// ```text
    /// error[SA006]: rowptr participates in loop bounds but ...
    ///   --> stmt `populate rowptr`
    ///    = relation: { [i,k,j] : ... }
    /// ```
    pub fn render(&self) -> String {
        let mut out = format!("{}[{}]: {}", self.severity, self.code, self.message);
        if let Some(stmt) = &self.stmt {
            out.push_str(&format!("\n  --> stmt `{stmt}`"));
        }
        for rel in &self.relations {
            out.push_str(&format!("\n   = relation: {rel}"));
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_strings() {
        assert_eq!(Code::Sa001.as_str(), "SA001");
        assert_eq!(Code::Sa009.to_string(), "SA009");
    }

    #[test]
    fn default_severities() {
        assert_eq!(Code::Sa001.default_severity(), Severity::Error);
        assert_eq!(Code::Sa003.default_severity(), Severity::Warning);
        assert_eq!(Code::Sa009.default_severity(), Severity::Note);
        assert!(Severity::Error > Severity::Warning);
    }

    #[test]
    fn render_is_rustc_style() {
        let d = Diagnostic::new(Code::Sa006, "rowptr monotonicity not established")
            .with_stmt("populate rowptr")
            .with_relation("{ [i] : 0 <= i < NR }");
        let r = d.render();
        assert!(r.starts_with("error[SA006]: rowptr"));
        assert!(r.contains("--> stmt `populate rowptr`"));
        assert!(r.contains("= relation: { [i]"));
    }
}

//! Typed diagnostics: the findings the analysis passes report.

use std::fmt;

/// How bad a finding is.
///
/// Only [`Severity::Error`] findings make `sdv-analyze check` fail; warnings
/// are printed but do not reject a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not certainly wrong (e.g. statically unreachable code).
    Warning,
    /// A definite defect: the program reads garbage, escapes its memory, or
    /// cannot terminate.
    Error,
}

impl Severity {
    /// Lowercase name used in text output.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The checks the analyzer performs.  Every diagnostic names exactly one rule
/// so tests (and future tooling) can match findings without parsing messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// A register is read on some path before any instruction writes it.
    UseBeforeDef,
    /// A basic block can never execute (not reachable from the entry).
    UnreachableBlock,
    /// A memory access whose address resolves statically falls entirely
    /// outside the program's declared footprint (data segments, stack, text).
    OutOfFootprint,
    /// A control transfer targets an address outside the text segment.
    BadControlTarget,
    /// No `halt` instruction is reachable from the entry: the program cannot
    /// terminate cleanly.
    NoReachableHalt,
    /// An instruction writes the hard-wired zero register (the write is
    /// silently dropped by the emulator and the pipeline).
    WriteToZero,
    /// Execution can fall off the end of the text segment.
    FallsOffEnd,
}

impl Rule {
    /// The kebab-case rule id used in text output.
    #[must_use]
    pub const fn id(self) -> &'static str {
        match self {
            Rule::UseBeforeDef => "use-before-def",
            Rule::UnreachableBlock => "unreachable-block",
            Rule::OutOfFootprint => "out-of-footprint",
            Rule::BadControlTarget => "bad-control-target",
            Rule::NoReachableHalt => "no-reachable-halt",
            Rule::WriteToZero => "write-to-zero",
            Rule::FallsOffEnd => "falls-off-end",
        }
    }

    /// The severity every finding of this rule carries.
    #[must_use]
    pub const fn severity(self) -> Severity {
        match self {
            Rule::UseBeforeDef
            | Rule::OutOfFootprint
            | Rule::BadControlTarget
            | Rule::NoReachableHalt
            | Rule::FallsOffEnd => Severity::Error,
            Rule::UnreachableBlock | Rule::WriteToZero => Severity::Warning,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One analyzer finding: a rule violation at a program location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diag {
    /// How bad the finding is (always [`Rule::severity`] of `rule`).
    pub severity: Severity,
    /// Which check fired.
    pub rule: Rule,
    /// PC of the offending instruction, when the finding has one.
    pub loc: Option<u64>,
    /// Human-readable explanation.
    pub msg: String,
}

impl Diag {
    /// Creates a finding for `rule` at `loc`.
    #[must_use]
    pub fn new(rule: Rule, loc: Option<u64>, msg: impl Into<String>) -> Self {
        Diag {
            severity: rule.severity(),
            rule,
            loc,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.loc {
            Some(pc) => write!(
                f,
                "{}: {} [{}] at {pc:#x}",
                self.severity, self.msg, self.rule
            ),
            None => write!(f, "{}: {} [{}]", self.severity, self.msg, self.rule),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_follows_rule() {
        assert_eq!(Rule::UseBeforeDef.severity(), Severity::Error);
        assert_eq!(Rule::UnreachableBlock.severity(), Severity::Warning);
        let d = Diag::new(Rule::UseBeforeDef, Some(0x1000), "x1 read before write");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.to_string().contains("use-before-def"));
        assert!(d.to_string().contains("0x1000"));
    }

    #[test]
    fn rule_ids_are_unique() {
        let rules = [
            Rule::UseBeforeDef,
            Rule::UnreachableBlock,
            Rule::OutOfFootprint,
            Rule::BadControlTarget,
            Rule::NoReachableHalt,
            Rule::WriteToZero,
            Rule::FallsOffEnd,
        ];
        let mut ids: Vec<&str> = rules.iter().map(|r| r.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), rules.len());
    }
}

//! Static analysis of SDV programs: CFG, dataflow, resource envelopes.
//!
//! Everything the rest of the workspace proves about a workload is *dynamic* —
//! golden stats, proptests and bit-identity pins all require running the
//! simulator.  This crate reasons about a [`Program`] *before* any cycle is
//! spent on it, in the spirit of the compile-time instruction-stream
//! classification the paper's §3 applies to vectorization candidates:
//!
//! * [`mod@cfg`] builds a basic-block control-flow graph (leaders from
//!   branch/jump targets, conservative indirect-jump handling, `halt`
//!   reachability);
//! * [`dataflow`] runs a forward may-initialized pass (definite
//!   use-before-def errors) and a backward liveness pass (register-pressure
//!   bound);
//! * [`interval`] abstractly interprets address formation to bound the
//!   memory footprint and catch accesses that escape the declared regions;
//! * [`envelope`] combines the passes into a per-workload [`Envelope`] of
//!   conservative resource bounds, cross-checked against simulated `RunStats`
//!   by `tests/analysis_properties.rs`;
//! * [`diag`] defines the typed [`Diag`] findings and their JSON form.
//!
//! # Example
//!
//! ```
//! use sdv_analyze::{analyze, Rule, Severity};
//! use sdv_isa::{ArchReg, Asm};
//!
//! let mut a = Asm::new();
//! let buf = a.alloc(64, 8);
//! let (p, v, n) = (ArchReg::int(1), ArchReg::int(2), ArchReg::int(3));
//! a.li(p, buf as i64);
//! a.li(n, 8);
//! a.label("loop");
//! a.ld(v, p, 0);
//! a.addi(p, p, 8);
//! a.addi(n, n, -1);
//! a.bne(n, ArchReg::ZERO, "loop");
//! a.halt();
//! let analysis = analyze(&a.finish());
//! assert!(!analysis.has_errors());
//! assert_eq!(analysis.envelope.back_edges, 1);
//! assert!(analysis.envelope.vectorizable_bound > 0.0);
//! ```

pub mod cfg;
pub mod dataflow;
pub mod diag;
pub mod envelope;
pub mod interval;

pub use cfg::{Block, Cfg};
pub use diag::{Diag, Rule, Severity};
pub use envelope::Envelope;
pub use interval::{AccessInterval, DeclaredRegions, FootprintAnalysis};

use sdv_isa::Program;

/// The complete result of statically analyzing one program.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The control-flow graph.
    pub cfg: Cfg,
    /// The address-formation pass result.
    pub footprint: FootprintAnalysis,
    /// The resource envelope.
    pub envelope: Envelope,
    /// Every finding, in (rule, location) order.
    pub diags: Vec<Diag>,
}

impl Analysis {
    /// Whether any finding is error-severity (the program is rejected by
    /// `sdv-analyze check`).
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Error)
    }

    /// Renders the full analysis as a JSON object with a stable schema
    /// (`diags` array plus the envelope fields under `envelope`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let diags: Vec<String> = self.diags.iter().map(Diag::to_json).collect();
        format!(
            "{{\"errors\":{},\"diags\":[{}],\"envelope\":{}}}",
            self.diags
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .count(),
            diags.join(","),
            self.envelope.to_json()
        )
    }
}

/// Runs every pass over `program`.
#[must_use]
pub fn analyze(program: &Program) -> Analysis {
    let cfg = Cfg::build(program);
    let footprint = interval::analyze_footprint(program, &cfg);
    let envelope = Envelope::compute(program, &cfg, &footprint);
    let mut diags = cfg.diags.clone();
    diags.extend(dataflow::check_use_before_def(program, &cfg));
    diags.extend(footprint.diags.iter().cloned());
    diags.sort_by_key(|d| (std::cmp::Reverse(d.severity), d.loc, d.rule));
    Analysis {
        cfg,
        footprint,
        envelope,
        diags,
    }
}

/// Convenience: every finding of [`analyze`], without the envelope work
/// product (the passes still run — the footprint pass produces diagnostics).
#[must_use]
pub fn check(program: &Program) -> Vec<Diag> {
    analyze(program).diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdv_isa::{ArchReg, Asm};

    #[test]
    fn a_clean_program_has_no_findings() {
        let mut a = Asm::new();
        let buf = a.alloc(32, 8);
        a.li(ArchReg::int(1), buf as i64);
        a.ld(ArchReg::int(2), ArchReg::int(1), 0);
        a.halt();
        let analysis = analyze(&a.finish());
        assert!(analysis.diags.is_empty(), "{:?}", analysis.diags);
        assert!(!analysis.has_errors());
        assert!(analysis.to_json().contains("\"errors\":0"));
    }

    #[test]
    fn errors_sort_before_warnings() {
        let mut a = Asm::new();
        a.add(ArchReg::int(1), ArchReg::int(2), ArchReg::int(3)); // use-before-def
        a.j("end");
        a.nop(); // unreachable
        a.label("end");
        a.halt();
        let analysis = analyze(&a.finish());
        assert!(analysis.has_errors());
        assert_eq!(analysis.diags[0].severity, Severity::Error);
        let last = analysis.diags.last().expect("has findings");
        assert_eq!(last.severity, Severity::Warning);
    }

    #[test]
    fn check_matches_analyze() {
        let mut a = Asm::new();
        a.ld(ArchReg::int(1), ArchReg::int(5), 0);
        a.halt();
        let p = a.finish();
        assert_eq!(check(&p), analyze(&p).diags);
        assert!(check(&p).iter().any(|d| d.rule == Rule::UseBeforeDef));
    }

    /// Every in-tree kernel must analyze clean — the static mirror of the
    /// gate `sdv-analyze check` enforces end to end in CI.
    #[test]
    fn all_sixteen_kernels_analyze_clean() {
        for w in sdv_workloads::Workload::extended() {
            let analysis = analyze(&w.build(1));
            assert!(
                !analysis.has_errors(),
                "{w}: {:#?}",
                analysis
                    .diags
                    .iter()
                    .filter(|d| d.severity == Severity::Error)
                    .collect::<Vec<_>>()
            );
        }
    }
}

//! Synthetic SPEC95-analogue workloads.
//!
//! The paper evaluates on SpecInt95 plus four SpecFP95 programs compiled for
//! Alpha.  Those binaries (and an Alpha front end) are not reproducible here,
//! so this crate provides one synthetic kernel per benchmark, written in the
//! SDV ISA, that mimics the *dynamic properties the mechanism cares about*:
//! the stride distribution of its loads (Figure 1), the fraction of
//! vectorizable work (Figure 3), pointer-chasing vs. array traversal, branch
//! predictability and integer/FP mix.
//!
//! Every kernel is exposed through [`Workload`]:
//!
//! ```
//! use sdv_workloads::Workload;
//!
//! let program = Workload::Swim.build(2);
//! assert!(program.len() > 20);
//! assert!(Workload::Swim.is_fp());
//! assert_eq!(Workload::spec_int().len(), 8);
//! assert_eq!(Workload::spec_fp().len(), 4);
//! ```
//!
//! The `scale` argument controls how many outer iterations a kernel runs; the
//! simulation harness additionally caps the number of simulated instructions,
//! so kernels are typically built with a scale large enough to keep the
//! pipeline busy for the whole measurement.

pub mod kernels;

use sdv_isa::Program;

/// The benchmarks evaluated in the paper (all of SpecInt95 and the four
/// SpecFP95 programs it uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Workload {
    /// `go`: game-tree evaluation over board arrays, hard-to-predict branches.
    Go,
    /// `m88ksim`: CPU simulator main loop, table look-ups, stride-0 locals.
    M88ksim,
    /// `gcc`: irregular traversal of variable-sized records, many branches.
    Gcc,
    /// `compress`: byte-stream compression, stride-1 bytes plus hash probing.
    Compress,
    /// `li`: lisp interpreter, cons-cell pointer chasing.
    Li,
    /// `ijpeg`: 8×8 block transforms, stride-1 rows and stride-8 columns.
    Ijpeg,
    /// `perl`: string scanning and hash-table manipulation.
    Perl,
    /// `vortex`: object database, record copies between stores.
    Vortex,
    /// `swim`: shallow-water 2-D stencil, stride-1 FP.
    Swim,
    /// `applu`: blocked SSOR solver, mixed strides FP.
    Applu,
    /// `turb3d`: 3-D FFT-style butterflies, power-of-two strides.
    Turb3d,
    /// `fpppp`: huge FP basic blocks with stride-0 spill traffic.
    Fpppp,
    /// `listchase`: two interleaved pointer-chasing linked lists (post-paper
    /// stress kernel; not part of the SPEC95-analogue suite of the figures).
    ListChase,
    /// `matblock`: blocked dense matrix multiply (post-paper FP kernel; not
    /// part of the SPEC95-analogue suite of the figures).
    MatBlock,
    /// `stridemix`: alternating unit-stride and large-stride streams
    /// (post-paper mixed-stride kernel; not part of the SPEC95-analogue
    /// suite of the figures).
    StrideMix,
    /// `histo`: data-dependent irregular histogram updates (post-paper
    /// irregular-update kernel; not part of the SPEC95-analogue suite of the
    /// figures).
    Histo,
}

impl Workload {
    /// Every workload, SpecInt first, in the order the paper's figures use.
    #[must_use]
    pub fn all() -> [Workload; 12] {
        [
            Workload::Go,
            Workload::M88ksim,
            Workload::Gcc,
            Workload::Compress,
            Workload::Li,
            Workload::Ijpeg,
            Workload::Perl,
            Workload::Vortex,
            Workload::Swim,
            Workload::Applu,
            Workload::Turb3d,
            Workload::Fpppp,
        ]
    }

    /// The paper suite plus the post-paper kernels (`listchase`,
    /// `stridemix`, `histo`, `matblock`).  [`Workload::all`] stays the exact
    /// figure suite so the paper's numbers are untouched; sweeps and
    /// `repro --extended` use this superset.
    #[must_use]
    pub fn extended() -> [Workload; 16] {
        [
            Workload::Go,
            Workload::M88ksim,
            Workload::Gcc,
            Workload::Compress,
            Workload::Li,
            Workload::Ijpeg,
            Workload::Perl,
            Workload::Vortex,
            Workload::ListChase,
            Workload::StrideMix,
            Workload::Histo,
            Workload::Swim,
            Workload::Applu,
            Workload::Turb3d,
            Workload::Fpppp,
            Workload::MatBlock,
        ]
    }

    /// The eight SpecInt95 analogues.
    #[must_use]
    pub fn spec_int() -> [Workload; 8] {
        [
            Workload::Go,
            Workload::M88ksim,
            Workload::Gcc,
            Workload::Compress,
            Workload::Li,
            Workload::Ijpeg,
            Workload::Perl,
            Workload::Vortex,
        ]
    }

    /// The four SpecFP95 analogues used by the paper.
    #[must_use]
    pub fn spec_fp() -> [Workload; 4] {
        [
            Workload::Swim,
            Workload::Applu,
            Workload::Turb3d,
            Workload::Fpppp,
        ]
    }

    /// The benchmark's name as it appears on the paper's x-axes.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Go => "go",
            Workload::M88ksim => "m88ksim",
            Workload::Gcc => "gcc",
            Workload::Compress => "compress",
            Workload::Li => "li",
            Workload::Ijpeg => "ijpeg",
            Workload::Perl => "perl",
            Workload::Vortex => "vortex",
            Workload::Swim => "swim",
            Workload::Applu => "applu",
            Workload::Turb3d => "turb3d",
            Workload::Fpppp => "fpppp",
            Workload::ListChase => "listchase",
            Workload::MatBlock => "matblock",
            Workload::StrideMix => "stridemix",
            Workload::Histo => "histo",
        }
    }

    /// Whether this is one of the floating-point benchmarks.
    #[must_use]
    pub fn is_fp(&self) -> bool {
        matches!(
            self,
            Workload::Swim
                | Workload::Applu
                | Workload::Turb3d
                | Workload::Fpppp
                | Workload::MatBlock
        )
    }

    /// Builds the kernel with `scale` outer iterations.
    #[must_use]
    pub fn build(&self, scale: u64) -> Program {
        match self {
            Workload::Go => kernels::go::build(scale),
            Workload::M88ksim => kernels::m88ksim::build(scale),
            Workload::Gcc => kernels::gcc::build(scale),
            Workload::Compress => kernels::compress::build(scale),
            Workload::Li => kernels::li::build(scale),
            Workload::Ijpeg => kernels::ijpeg::build(scale),
            Workload::Perl => kernels::perl::build(scale),
            Workload::Vortex => kernels::vortex::build(scale),
            Workload::Swim => kernels::swim::build(scale),
            Workload::Applu => kernels::applu::build(scale),
            Workload::Turb3d => kernels::turb3d::build(scale),
            Workload::Fpppp => kernels::fpppp::build(scale),
            Workload::ListChase => kernels::listchase::build(scale),
            Workload::MatBlock => kernels::matblock::build(scale),
            Workload::StrideMix => kernels::stridemix::build(scale),
            Workload::Histo => kernels::histo::build(scale),
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdv_emu::Emulator;

    #[test]
    fn every_workload_builds_and_terminates() {
        for w in Workload::all() {
            let program = w.build(1);
            assert!(!program.is_empty(), "{w} is empty");
            let mut emu = Emulator::new(&program);
            emu.run(5_000_000);
            assert!(emu.halted(), "{w} did not halt at scale 1");
            assert!(
                emu.retired_count() > 100,
                "{w} retired too few instructions"
            );
        }
    }

    #[test]
    fn scale_controls_dynamic_length() {
        for w in [Workload::Compress, Workload::Swim, Workload::Go] {
            let mut short = Emulator::new(&w.build(1));
            let mut long = Emulator::new(&w.build(3));
            short.run(10_000_000);
            long.run(10_000_000);
            assert!(
                long.retired_count() > short.retired_count(),
                "{w}: scale should increase dynamic instruction count"
            );
        }
    }

    #[test]
    fn classes_and_names_are_consistent() {
        assert_eq!(Workload::all().len(), 12);
        let ints = Workload::spec_int();
        let fps = Workload::spec_fp();
        assert!(ints.iter().all(|w| !w.is_fp()));
        assert!(fps.iter().all(|w| w.is_fp()));
        let mut names: Vec<&str> = Workload::all().iter().map(Workload::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12, "names are unique");
        assert_eq!(Workload::Go.to_string(), "go");
    }

    #[test]
    fn extended_suite_adds_the_post_paper_kernels() {
        let extended = Workload::extended();
        assert_eq!(extended.len(), 16);
        for w in Workload::all() {
            assert!(extended.contains(&w), "{w} is part of the extended suite");
        }
        let post_paper = [
            Workload::ListChase,
            Workload::MatBlock,
            Workload::StrideMix,
            Workload::Histo,
        ];
        for w in post_paper {
            assert!(extended.contains(&w), "{w} is in the extended suite");
            assert!(
                !Workload::all().contains(&w),
                "the paper suite is untouched by {w}"
            );
        }
        assert!(!Workload::ListChase.is_fp());
        assert!(Workload::MatBlock.is_fp());
        assert!(!Workload::StrideMix.is_fp());
        assert!(!Workload::Histo.is_fp());
        let mut names: Vec<&str> = extended.iter().map(Workload::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16, "extended names are unique");
        // The new kernels build and terminate like every other workload.
        for w in post_paper {
            let mut emu = sdv_emu::Emulator::new(&w.build(1));
            emu.run(10_000_000);
            assert!(emu.halted(), "{w} halts");
            assert!(emu.retired_count() > 1_000, "{w} does real work");
        }
    }

    #[test]
    fn fp_workloads_execute_fp_instructions() {
        use sdv_isa::OpClass;
        for w in Workload::spec_fp() {
            let program = w.build(1);
            let mut emu = Emulator::new(&program);
            let mut fp_ops = 0u64;
            emu.run_with(2_000_000, |r| {
                if matches!(
                    r.inst.op.class(),
                    OpClass::FpAdd | OpClass::FpMul | OpClass::FpDiv
                ) {
                    fp_ops += 1;
                }
            });
            assert!(
                fp_ops > 50,
                "{w} should execute floating point work, got {fp_ops}"
            );
        }
    }

    #[test]
    fn int_workloads_have_strided_and_irregular_mix() {
        use sdv_emu::StrideProfiler;
        // The motivation of §2: strided loads are common even in integer code,
        // with stride 0 the most frequent bucket overall.
        let mut profiler = StrideProfiler::new();
        for w in Workload::spec_int() {
            let mut emu = Emulator::new(&w.build(1));
            emu.run_with(500_000, |r| profiler.observe_retired(r));
        }
        let stats = profiler.stats().clone();
        assert!(stats.total > 1_000);
        assert!(
            stats.fraction_below(4) > 0.45,
            "most loads should have small strides"
        );
        assert!(stats.fraction(0) > 0.15, "stride 0 should be prominent");
    }
}

//! Generators for every figure in the paper's evaluation (§2 and §4) plus the
//! headline numbers of §1/§6.
//!
//! Each generator is a thin projection over [`RunEngine`] output: it declares
//! the cells it needs (configuration × workload), lets the engine deduplicate
//! and execute them, and folds the resulting statistics into the rows/series
//! the paper plots.  Because every generator shares one engine, overlapping
//! cells across figures — the `1pV` suite appears in the headline, Figure 11
//! and Figure 12, for example — are simulated exactly once per session.
//!
//! Every generator names its machine the way the paper does, through
//! [`Variant::config`]: Figures 10 and 13 and the headline all ask for
//! `Variant::Vectorized.config(MachineWidth::FourWay, 1)` (4-way `1pV`), and
//! Figures 9, 14 and 15 for its 8-way twin.  Only Figure 3 (unbounded DV
//! resources) and Figure 7's "ideal" bars (no decode blocking) build a
//! machine outside the paper's §4.3 set.
//!
//! Each result implements [`std::fmt::Display`] so the `repro` binary in
//! `sdv-bench` can print the same rows/series the paper reports;
//! `EXPERIMENTS.md` records the measured values next to the paper's.

use crate::engine::RunEngine;
use crate::grid::SweepGrid;
use crate::runner::SuiteResult;
use crate::{width_label, MachineWidth, UarchConfig, Variant, Workload};
use sdv_core::DvConfig;
use sdv_emu::StrideStats;
use std::fmt;

// ---------------------------------------------------------------- helpers

/// A per-workload series of a single metric, with SpecInt/SpecFP/overall means
/// (the shape of Figures 3, 9, 10 and 14).
#[derive(Debug, Clone)]
pub struct WorkloadSeries {
    /// What the metric is (used as the Display title).
    pub title: String,
    /// Per-workload values.
    pub rows: Vec<(Workload, f64)>,
}

impl WorkloadSeries {
    /// Mean over the SpecInt-analogue workloads.
    #[must_use]
    pub fn int_mean(&self) -> f64 {
        Self::mean(self.rows.iter().filter(|(w, _)| !w.is_fp()))
    }

    /// Mean over the SpecFP-analogue workloads.
    #[must_use]
    pub fn fp_mean(&self) -> f64 {
        Self::mean(self.rows.iter().filter(|(w, _)| w.is_fp()))
    }

    /// Mean over every workload.
    #[must_use]
    pub fn total_mean(&self) -> f64 {
        Self::mean(self.rows.iter())
    }

    /// The value for one workload.
    #[must_use]
    pub fn get(&self, workload: Workload) -> Option<f64> {
        self.rows
            .iter()
            .find(|(w, _)| *w == workload)
            .map(|(_, v)| *v)
    }

    fn mean<'a, I: Iterator<Item = &'a (Workload, f64)>>(iter: I) -> f64 {
        let values: Vec<f64> = iter.map(|(_, v)| *v).collect();
        if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        }
    }
}

impl fmt::Display for WorkloadSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        for (w, v) in &self.rows {
            writeln!(f, "  {:<10} {:6.2}%", w.name(), v * 100.0)?;
        }
        writeln!(f, "  {:<10} {:6.2}%", "INT", self.int_mean() * 100.0)?;
        writeln!(f, "  {:<10} {:6.2}%", "FP", self.fp_mean() * 100.0)?;
        writeln!(f, "  {:<10} {:6.2}%", "TOTAL", self.total_mean() * 100.0)
    }
}

fn series<F: Fn(&sdv_uarch::RunStats) -> f64>(
    title: &str,
    engine: &RunEngine,
    workloads: &[Workload],
    cfg: &UarchConfig,
    metric: F,
) -> WorkloadSeries {
    let suite = engine.suite(workloads, cfg);
    WorkloadSeries {
        title: title.to_string(),
        rows: suite.runs.iter().map(|(w, s)| (*w, metric(s))).collect(),
    }
}

// ---------------------------------------------------------------- figure 1

/// Figure 1: stride distribution for the SpecInt and SpecFP suites.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// Aggregate stride statistics over the integer workloads.
    pub int: StrideStats,
    /// Aggregate stride statistics over the FP workloads.
    pub fp: StrideStats,
}

/// Generates Figure 1 from the functional stride profile of every workload
/// in `workloads`.
///
/// The one generator that needs no timing cells: it folds
/// [`RunEngine::stride_profile`] (memoized per session and served from the
/// engine's result store) into the SpecInt and SpecFP aggregates.
#[must_use]
pub fn fig1(engine: &RunEngine, workloads: &[Workload]) -> Fig1 {
    let mut int = StrideStats::default();
    let mut fp = StrideStats::default();
    for &w in workloads {
        let suite = if w.is_fp() { &mut fp } else { &mut int };
        suite.merge(&engine.stride_profile(w));
    }
    Fig1 { int, fp }
}

impl fmt::Display for Fig1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 1 — stride distribution (percentage of dynamic loads)"
        )?;
        writeln!(f, "  stride      SpecInt   SpecFP")?;
        for s in 0..10 {
            writeln!(
                f,
                "  {:<10} {:7.2}%  {:7.2}%",
                s,
                self.int.fraction(s) * 100.0,
                self.fp.fraction(s) * 100.0
            )?;
        }
        writeln!(
            f,
            "  {:<10} {:7.2}%  {:7.2}%",
            "other",
            (1.0 - (0..10).map(|s| self.int.fraction(s)).sum::<f64>()) * 100.0,
            (1.0 - (0..10).map(|s| self.fp.fraction(s)).sum::<f64>()) * 100.0
        )?;
        writeln!(
            f,
            "  strides < 4 elements: SpecInt {:5.1}%, SpecFP {:5.1}%",
            self.int.fraction_below(4) * 100.0,
            self.fp.fraction_below(4) * 100.0
        )
    }
}

// ---------------------------------------------------------------- figure 3

/// Figure 3: percentage of vectorizable (vector-mode) instructions with
/// unbounded vectorization resources.
#[must_use]
pub fn fig3(engine: &RunEngine, workloads: &[Workload]) -> WorkloadSeries {
    let cfg = UarchConfig::builder()
        .issue_width(8)
        .dv_config(DvConfig::unbounded())
        .build();
    series(
        "Figure 3 — percentage of vectorizable instructions (unbounded resources)",
        engine,
        workloads,
        &cfg,
        |s| s.vector_mode_fraction(),
    )
}

// ---------------------------------------------------------------- figure 7

/// Figure 7: IPC with decode blocking on not-ready scalar operands ("real")
/// versus without the blocking ("ideal").
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// Per-workload `(real IPC, ideal IPC)`.
    pub rows: Vec<(Workload, f64, f64)>,
}

/// Generates Figure 7 on the 4-way, 1 wide-port, vectorizing configuration.
#[must_use]
pub fn fig7(engine: &RunEngine, workloads: &[Workload]) -> Fig7 {
    let real_cfg = Variant::Vectorized.config(MachineWidth::FourWay, 1);
    let ideal_cfg = UarchConfig {
        block_on_scalar_operand: false,
        ..real_cfg.clone()
    };
    let mut suites = engine.suites(workloads, &[real_cfg, ideal_cfg]).into_iter();
    let (real, ideal) = (
        suites.next().expect("real suite"),
        suites.next().expect("ideal suite"),
    );
    let rows = real
        .runs
        .iter()
        .zip(ideal.runs.iter())
        .map(|((w, r), (_, i))| (*w, r.ipc(), i.ipc()))
        .collect();
    Fig7 { rows }
}

impl fmt::Display for Fig7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 7 — IPC blocking (real) vs not blocking (ideal) on scalar operands"
        )?;
        writeln!(f, "  {:<10} {:>8} {:>8}", "workload", "real", "ideal")?;
        for (w, real, ideal) in &self.rows {
            writeln!(f, "  {:<10} {:>8.3} {:>8.3}", w.name(), real, ideal)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- figure 9

/// Figure 9: percentage of vector instances whose source offsets are not zero.
#[must_use]
pub fn fig9(engine: &RunEngine, workloads: &[Workload]) -> WorkloadSeries {
    let cfg = Variant::Vectorized.config(MachineWidth::EightWay, 1);
    series(
        "Figure 9 — vector instructions with a non-zero source offset",
        engine,
        workloads,
        &cfg,
        |s| s.dv.map_or(0.0, |dv| dv.nonzero_offset_rate()),
    )
}

// --------------------------------------------------------------- figure 10

/// Figure 10: control-flow independence — the fraction of the 100 instructions
/// following a mispredicted branch that reuse already-computed vector results.
#[must_use]
pub fn fig10(engine: &RunEngine, workloads: &[Workload]) -> WorkloadSeries {
    let cfg = Variant::Vectorized.config(MachineWidth::FourWay, 1);
    series(
        "Figure 10 — instructions reused after a branch misprediction",
        engine,
        workloads,
        &cfg,
        |s| s.cfi_reuse_fraction(),
    )
}

// --------------------------------------------------- figures 11 and 12

/// One cell of a sweep: the grid point's configuration plus its
/// per-workload results.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// The configuration this grid point expanded to.
    pub config: UarchConfig,
    /// Per-workload results.
    pub suite: SuiteResult,
}

impl SweepCell {
    /// The paper's label for this cell (`1pnoIM`, `2pV`, `1pVb8`, …),
    /// derived from the configuration.
    #[must_use]
    pub fn label(&self) -> String {
        self.config.label()
    }
}

/// The full sweep behind Figures 11 and 12 (and the extended §4.3 surface).
#[derive(Debug, Clone)]
pub struct PortSweep {
    /// Every grid point that was simulated, in grid order.
    pub cells: Vec<SweepCell>,
}

impl PortSweep {
    /// The first cell with exactly this configuration.
    #[must_use]
    pub fn get(&self, config: &UarchConfig) -> Option<&SweepCell> {
        self.cells.iter().find(|c| c.config == *config)
    }

    /// The distinct issue widths present, in cell order.
    #[must_use]
    pub fn widths(&self) -> Vec<usize> {
        let mut widths = Vec::new();
        for cell in &self.cells {
            if !widths.contains(&cell.config.issue_width) {
                widths.push(cell.config.issue_width);
            }
        }
        widths
    }

    /// Cells with configuration-identical duplicates removed, in cell order
    /// (first occurrence wins) — e.g. the scalar baseline repeated along the
    /// bus axis.  Both the `Fig11`/`Fig12` text output and the CSV export
    /// print exactly these cells.
    #[must_use]
    pub fn unique_cells(&self) -> Vec<&SweepCell> {
        let mut seen = std::collections::HashSet::new();
        self.cells
            .iter()
            .filter(|c| seen.insert(&c.config))
            .collect()
    }
}

/// Expands `grid` and simulates every cell as one deduplicated batch.
#[must_use]
pub fn port_sweep(engine: &RunEngine, workloads: &[Workload], grid: &SweepGrid) -> PortSweep {
    let configs = grid.cells();
    let suites = engine.suites(workloads, &configs);
    PortSweep {
        cells: configs
            .into_iter()
            .zip(suites)
            .map(|(config, suite)| SweepCell { config, suite })
            .collect(),
    }
}

/// Figure 11: IPC for every configuration of the sweep.
#[derive(Debug, Clone)]
pub struct Fig11<'a>(pub &'a PortSweep);

/// Figure 12: memory-port occupancy for every configuration of the sweep.
#[derive(Debug, Clone)]
pub struct Fig12<'a>(pub &'a PortSweep);

/// How one sweep metric is aggregated across a suite.
enum SweepAggregate {
    /// Harmonic mean — the suite-level aggregate for rates such as IPC.
    Harmonic,
    /// Arithmetic mean — for fractions such as port occupancy.
    Arithmetic,
}

fn fmt_sweep<F: Fn(&sdv_uarch::RunStats) -> f64>(
    f: &mut fmt::Formatter<'_>,
    sweep: &PortSweep,
    title: &str,
    metric: F,
    aggregate: &SweepAggregate,
    percent: bool,
) -> fmt::Result {
    writeln!(f, "{title}")?;
    let unique = sweep.unique_cells();
    for width in sweep.widths() {
        writeln!(f, "  {}:", width_label(width))?;
        write!(f, "    {:<10}", "config")?;
        writeln!(f, " {:>8} {:>8} {:>8}", "INT", "FP", "ALL")?;
        for cell in unique.iter().filter(|c| c.config.issue_width == width) {
            let (int, fp, all) = match aggregate {
                SweepAggregate::Harmonic => (
                    cell.suite.hmean_int(&metric),
                    cell.suite.hmean_fp(&metric),
                    cell.suite.hmean(&metric),
                ),
                SweepAggregate::Arithmetic => (
                    cell.suite.mean_int(&metric),
                    cell.suite.mean_fp(&metric),
                    cell.suite.mean(&metric),
                ),
            };
            let scale = if percent { 100.0 } else { 1.0 };
            writeln!(
                f,
                "    {:<10} {:>8.3} {:>8.3} {:>8.3}",
                cell.label(),
                int * scale,
                fp * scale,
                all * scale
            )?;
        }
    }
    Ok(())
}

impl fmt::Display for Fig11<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_sweep(
            f,
            self.0,
            "Figure 11 — IPC (harmonic mean) by number of ports and variant",
            |s| s.ipc(),
            &SweepAggregate::Harmonic,
            false,
        )
    }
}

impl fmt::Display for Fig12<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_sweep(
            f,
            self.0,
            "Figure 12 — memory-port occupancy (%) by number of ports and variant",
            |s| s.port_occupancy(),
            &SweepAggregate::Arithmetic,
            true,
        )
    }
}

// --------------------------------------------------------------- figure 13

/// Figure 13: how many useful words each wide-bus line read contributed.
#[derive(Debug, Clone)]
pub struct Fig13 {
    /// Per workload: fraction of accesses contributing 1, 2, 3, 4 useful words
    /// and the fraction of unused (speculative) accesses.
    pub rows: Vec<(Workload, [f64; 4], f64)>,
}

/// Generates Figure 13 on the 4-way, 1 wide-port, vectorizing configuration.
#[must_use]
pub fn fig13(engine: &RunEngine, workloads: &[Workload]) -> Fig13 {
    let cfg = Variant::Vectorized.config(MachineWidth::FourWay, 1);
    let suite = engine.suite(workloads, &cfg);
    let rows = suite
        .runs
        .iter()
        .map(|(w, s)| {
            let mut used = [0.0; 4];
            let mut unused = 0.0;
            if let Some(wide) = &s.wide_bus {
                for (i, slot) in used.iter_mut().enumerate() {
                    *slot = wide.fraction_used(i + 1);
                }
                unused = wide.fraction_unused();
            }
            (*w, used, unused)
        })
        .collect();
    Fig13 { rows }
}

impl fmt::Display for Fig13 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 13 — useful words per wide-bus line read")?;
        writeln!(
            f,
            "  {:<10} {:>7} {:>7} {:>7} {:>7} {:>8}",
            "workload", "1pos", "2pos", "3pos", "4pos", "unused"
        )?;
        for (w, used, unused) in &self.rows {
            writeln!(
                f,
                "  {:<10} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>7.1}%",
                w.name(),
                used[0] * 100.0,
                used[1] * 100.0,
                used[2] * 100.0,
                used[3] * 100.0,
                unused * 100.0
            )?;
        }
        Ok(())
    }
}

// --------------------------------------------------------------- figure 14

/// Figure 14: percentage of instructions that became validations.
#[must_use]
pub fn fig14(engine: &RunEngine, workloads: &[Workload]) -> WorkloadSeries {
    let cfg = Variant::Vectorized.config(MachineWidth::EightWay, 1);
    series(
        "Figure 14 — percentage of validation instructions",
        engine,
        workloads,
        &cfg,
        |s| s.validation_fraction(),
    )
}

// --------------------------------------------------------------- figure 15

/// Figure 15: average vector-register element usage.
#[derive(Debug, Clone)]
pub struct Fig15 {
    /// Per workload: (computed & used, computed but not used, not computed),
    /// averaged over released vector registers.
    pub rows: Vec<(Workload, f64, f64, f64)>,
}

/// Generates Figure 15 on the 8-way, 1 wide-port, vectorizing configuration.
#[must_use]
pub fn fig15(engine: &RunEngine, workloads: &[Workload]) -> Fig15 {
    let cfg = Variant::Vectorized.config(MachineWidth::EightWay, 1);
    let suite = engine.suite(workloads, &cfg);
    let rows = suite
        .runs
        .iter()
        .map(|(w, s)| {
            let u = s.element_usage.unwrap_or_default();
            (
                *w,
                u.avg_computed_used(),
                u.avg_computed_not_used(),
                u.avg_not_computed(),
            )
        })
        .collect();
    Fig15 { rows }
}

impl fmt::Display for Fig15 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 15 — average vector register elements per released register"
        )?;
        writeln!(
            f,
            "  {:<10} {:>10} {:>14} {:>10}",
            "workload", "comp.used", "comp.not-used", "not comp."
        )?;
        for (w, used, not_used, not_comp) in &self.rows {
            writeln!(
                f,
                "  {:<10} {:>10.2} {:>14.2} {:>10.2}",
                w.name(),
                used,
                not_used,
                not_comp
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- headline

/// The headline comparisons of §1 and §6.
///
/// Suite-level IPC aggregates are harmonic means (the correct aggregate for a
/// rate); the reductions and per-workload speed-up ratios use arithmetic
/// means, matching the paper's reporting.
#[derive(Debug, Clone)]
pub struct Headline {
    /// IPC (harmonic mean) of the 4-way processor with one wide port and
    /// dynamic vectorization.
    pub ipc_1p_vect: f64,
    /// IPC (harmonic mean) of the 4-way processor with one wide port (no
    /// vectorization).
    pub ipc_1p_wide: f64,
    /// IPC (harmonic mean) of the 4-way processor with four scalar ports (no
    /// vectorization).
    pub ipc_4p_scalar: f64,
    /// Memory-request reduction of vectorization vs. the wide-bus baseline,
    /// SpecInt mean (positive = fewer requests).
    pub mem_reduction_int: f64,
    /// Memory-request reduction, SpecFP mean.
    pub mem_reduction_fp: f64,
    /// Scalar-arithmetic reduction (instructions moved to the vector units), SpecInt mean.
    pub arith_reduction_int: f64,
    /// Scalar-arithmetic reduction, SpecFP mean.
    pub arith_reduction_fp: f64,
    /// Fraction of committed instructions that became validations, SpecInt mean.
    pub validation_int: f64,
    /// Fraction of committed instructions that became validations, SpecFP mean.
    pub validation_fp: f64,
    /// Per-workload IPC on the 4-way 1-wide-port machine: `(workload,
    /// scalar IPC, vectorized IPC)`, in suite order.
    pub per_workload_ipc: Vec<(Workload, f64, f64)>,
}

impl Headline {
    /// Speed-up of `4-way, 1 wide port, DV` over `4-way, 4 scalar ports`
    /// (the paper reports ≈1.19).
    #[must_use]
    pub fn speedup_vs_four_scalar_ports(&self) -> f64 {
        if self.ipc_4p_scalar == 0.0 {
            0.0
        } else {
            self.ipc_1p_vect / self.ipc_4p_scalar
        }
    }

    /// IPC gain of adding DV to the 1-wide-port 4-way processor.
    #[must_use]
    pub fn dv_ipc_gain(&self) -> f64 {
        if self.ipc_1p_wide == 0.0 {
            0.0
        } else {
            self.ipc_1p_vect / self.ipc_1p_wide - 1.0
        }
    }
}

/// Computes the headline numbers over `workloads`.
#[must_use]
pub fn headline(engine: &RunEngine, workloads: &[Workload]) -> Headline {
    let cfg_vect = Variant::Vectorized.config(MachineWidth::FourWay, 1);
    let cfg_wide = Variant::WideBus.config(MachineWidth::FourWay, 1);
    let cfg_scalar4 = Variant::ScalarBus.config(MachineWidth::FourWay, 4);
    let mut suites = engine
        .suites(workloads, &[cfg_vect, cfg_wide, cfg_scalar4])
        .into_iter();
    let (vect, wide, scalar4) = (
        suites.next().expect("vectorized suite"),
        suites.next().expect("wide suite"),
        suites.next().expect("scalar suite"),
    );

    let reduction = |suite_base: &SuiteResult,
                     suite_new: &SuiteResult,
                     fp: bool,
                     f: &dyn Fn(&sdv_uarch::RunStats) -> f64| {
        let pick = |s: &SuiteResult| {
            if fp {
                s.mean_fp(f)
            } else {
                s.mean_int(f)
            }
        };
        let base = pick(suite_base);
        let new = pick(suite_new);
        if base == 0.0 {
            0.0
        } else {
            1.0 - new / base
        }
    };
    let mem = |s: &sdv_uarch::RunStats| s.memory_accesses as f64 / s.committed.max(1) as f64;
    let arith =
        |s: &sdv_uarch::RunStats| s.scalar_arith_executed as f64 / s.committed.max(1) as f64;

    Headline {
        ipc_1p_vect: vect.hmean(|s| s.ipc()),
        ipc_1p_wide: wide.hmean(|s| s.ipc()),
        ipc_4p_scalar: scalar4.hmean(|s| s.ipc()),
        mem_reduction_int: reduction(&wide, &vect, false, &mem),
        mem_reduction_fp: reduction(&wide, &vect, true, &mem),
        arith_reduction_int: reduction(&wide, &vect, false, &arith),
        arith_reduction_fp: reduction(&wide, &vect, true, &arith),
        validation_int: vect.mean_int(|s| s.validation_fraction()),
        validation_fp: vect.mean_fp(|s| s.validation_fraction()),
        per_workload_ipc: wide
            .runs
            .iter()
            .zip(vect.runs.iter())
            .map(|((w, base), (_, dv))| (*w, base.ipc(), dv.ipc()))
            .collect(),
    }
}

impl fmt::Display for Headline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Headline comparisons (§1/§6, harmonic-mean IPC)")?;
        writeln!(f, "  IPC 4-way 1 wide port + DV : {:6.3}", self.ipc_1p_vect)?;
        writeln!(f, "  IPC 4-way 1 wide port      : {:6.3}", self.ipc_1p_wide)?;
        writeln!(
            f,
            "  IPC 4-way 4 scalar ports   : {:6.3}",
            self.ipc_4p_scalar
        )?;
        writeln!(
            f,
            "  speed-up of 1pV over 4pnoIM : {:5.1}%  (paper: ~19%)",
            (self.speedup_vs_four_scalar_ports() - 1.0) * 100.0
        )?;
        writeln!(
            f,
            "  DV IPC gain over 1pIM       : {:5.1}%",
            self.dv_ipc_gain() * 100.0
        )?;
        writeln!(
            f,
            "  memory requests (per inst)  : SpecInt {:+5.1}%, SpecFP {:+5.1}%  (paper: -15%, -20%)",
            -self.mem_reduction_int * 100.0,
            -self.mem_reduction_fp * 100.0
        )?;
        writeln!(
            f,
            "  scalar arithmetic executed  : SpecInt {:+5.1}%, SpecFP {:+5.1}%  (paper: -28%, -23%)",
            -self.arith_reduction_int * 100.0,
            -self.arith_reduction_fp * 100.0
        )?;
        writeln!(
            f,
            "  validation instructions     : SpecInt {:4.1}%, SpecFP {:4.1}%  (paper: 28%, 23%)",
            self.validation_int * 100.0,
            self.validation_fp * 100.0
        )?;
        writeln!(f, "  per-workload IPC (4-way, 1 wide port):")?;
        writeln!(f, "    workload     no-DV       DV    gain")?;
        for (workload, base, dv) in &self.per_workload_ipc {
            let gain = if *base > 0.0 { dv / base - 1.0 } else { 0.0 };
            writeln!(
                f,
                "    {:<10} {base:7.3}  {dv:7.3}  {:+5.1}%",
                workload.to_string(),
                gain * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunConfig;

    const QUICK_INT: [Workload; 2] = [Workload::Compress, Workload::Vortex];
    const QUICK_MIX: [Workload; 3] = [Workload::Compress, Workload::Swim, Workload::Li];

    fn engine() -> RunEngine {
        RunEngine::new(RunConfig {
            scale: 1,
            max_insts: 12_000,
        })
    }

    #[test]
    fn fig1_fractions_are_normalised() {
        let fig = fig1(&engine(), &QUICK_MIX);
        let int_sum: f64 = (0..10).map(|s| fig.int.fraction(s)).sum();
        assert!(int_sum <= 1.0 + 1e-9);
        assert!(fig.int.total > 0 && fig.fp.total > 0);
        let text = fig.to_string();
        assert!(text.contains("Figure 1"));
        assert!(text.contains("strides < 4"));
    }

    #[test]
    fn fig3_reports_substantial_vectorization() {
        let fig = fig3(&engine(), &QUICK_MIX);
        assert_eq!(fig.rows.len(), 3);
        assert!(fig.total_mean() > 0.10, "mean {}", fig.total_mean());
        assert!(fig.to_string().contains("Figure 3"));
    }

    #[test]
    fn fig7_ideal_is_at_least_real() {
        let fig = fig7(&engine(), &QUICK_INT);
        for (w, real, ideal) in &fig.rows {
            assert!(real > &0.0 && ideal > &0.0, "{w}: zero IPC");
            assert!(
                ideal >= &(real * 0.8),
                "{w}: ideal should not be far below real"
            );
        }
        assert!(fig.to_string().contains("ideal"));
    }

    #[test]
    fn fig9_and_fig14_are_bounded_fractions() {
        let engine = engine();
        for series in [
            fig9(&engine, &QUICK_MIX),
            fig14(&engine, &QUICK_MIX),
            fig10(&engine, &QUICK_MIX),
        ] {
            for (w, v) in &series.rows {
                assert!((0.0..=1.0).contains(v), "{w}: {v} out of range");
            }
        }
    }

    #[test]
    fn sweep_supports_fig11_and_fig12() {
        let grid = SweepGrid::new()
            .widths(vec![MachineWidth::FourWay])
            .ports(vec![1, 2]);
        let sweep = port_sweep(&engine(), &QUICK_INT, &grid);
        assert_eq!(sweep.cells.len(), 6);
        let one_p_v = sweep
            .get(&Variant::Vectorized.config(MachineWidth::FourWay, 1))
            .unwrap();
        assert_eq!(one_p_v.label(), "1pV");
        assert!(one_p_v.suite.mean(|s| s.ipc()) > 0.0);
        assert!(sweep
            .get(&Variant::WideBus.config(MachineWidth::EightWay, 1))
            .is_none());
        let f11 = Fig11(&sweep).to_string();
        let f12 = Fig12(&sweep).to_string();
        assert!(f11.contains("1pnoIM") && f11.contains("2pV"));
        assert!(f12.contains("occupancy"));
    }

    #[test]
    fn sweep_covers_the_bus_axis() {
        let grid = SweepGrid::new()
            .widths(vec![MachineWidth::FourWay])
            .ports(vec![1])
            .bus_words(vec![2, 8])
            .variants(vec![Variant::Vectorized]);
        let engine = engine();
        let sweep = port_sweep(&engine, &[Workload::Compress], &grid);
        assert_eq!(sweep.cells.len(), 2);
        let narrow = sweep.get(&grid.cells()[0]).unwrap();
        assert_eq!(narrow.label(), "1pVb2");
        assert_eq!(narrow.config.line_words(), 2);
        assert!(Fig11(&sweep).to_string().contains("1pVb8"));
    }

    #[test]
    fn fig13_fractions_sum_to_at_most_one() {
        let fig = fig13(&engine(), &QUICK_INT);
        for (w, used, unused) in &fig.rows {
            let sum: f64 = used.iter().sum::<f64>() + unused;
            assert!(sum <= 1.0 + 1e-9, "{w}: {sum}");
        }
        assert!(fig.to_string().contains("unused"));
    }

    #[test]
    fn fig15_elements_sum_to_vector_length() {
        let fig = fig15(&engine(), &QUICK_MIX);
        for (w, used, not_used, not_comp) in &fig.rows {
            let total = used + not_used + not_comp;
            if total > 0.0 {
                assert!(
                    (total - 4.0).abs() < 1e-6,
                    "{w}: {total} elements per register"
                );
            }
        }
    }

    #[test]
    fn headline_produces_consistent_numbers() {
        let h = headline(&engine(), &QUICK_MIX);
        assert!(h.ipc_1p_vect > 0.0 && h.ipc_1p_wide > 0.0 && h.ipc_4p_scalar > 0.0);
        assert!(h.validation_int > 0.0);
        assert!(h.speedup_vs_four_scalar_ports() > 0.5);
        let text = h.to_string();
        assert!(text.contains("speed-up"));
        assert!(text.contains("validation"));
    }

    #[test]
    fn headline_and_sweep_share_cells() {
        let engine = engine();
        let _ = port_sweep(
            &engine,
            &QUICK_INT,
            &SweepGrid::new().widths(vec![MachineWidth::FourWay]),
        );
        let simulated_after_sweep = engine.report().simulated;
        let _ = headline(&engine, &QUICK_INT);
        assert_eq!(
            engine.report().simulated,
            simulated_after_sweep,
            "every headline cell already exists in the paper sweep"
        );
    }
}

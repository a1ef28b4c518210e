//! Experiment layer: the paper's machines, the deduplicating parallel run
//! engine, and generators for every table and figure in the paper's
//! evaluation.
//!
//! A machine is one [`UarchConfig`] (re-exported from `sdv-uarch`) and has
//! no other name here.  [`Variant::config`] builds the machines the paper
//! names — a Table 1 width plus a §4.3 label such as `1pnoIM`, `1pIM` or
//! `1pV` — and [`UarchConfig::label`] names any config back.  Sweep cells,
//! engine keys, store entries and Table 1 columns all hold that config
//! as-is.
//!
//! The crate ties the stack together:
//!
//! * [`engine`] — the [`RunEngine`]: content-hashed memoization of
//!   `(config, workload, budget)` cells and a scoped thread pool,
//! * [`grid`] — the declarative [`SweepGrid`] that expands
//!   `{width} × {ports} × {bus width} × {DV sizing} × {variant}` cartesian
//!   products into configs,
//! * [`experiment`] — the [`Experiment`] facade every figure generator,
//!   bench and the `repro` binary go through,
//! * [`table1`] renders a config as a column of Table 1,
//! * [`runner`] holds the per-run plumbing and suite-level aggregates,
//! * [`figures`] regenerates every figure (1, 3, 7, 9–15) and the headline
//!   speed-up numbers of §1/§6 as thin projections over [`RunEngine`] output.
//!
//! # Experiment API
//!
//! ```
//! use sdv_sim::{Experiment, RunConfig, Workload};
//!
//! let exp = Experiment::new(RunConfig::quick())
//!     .threads(2)
//!     .workloads(vec![Workload::Compress, Workload::Swim]);
//! let headline = exp.headline();
//! assert!(headline.ipc_1p_vect > 0.0);
//! // Figure 13 projects the same 1pV suite the headline already simulated,
//! // so it costs zero new cells:
//! let fig13 = exp.fig13();
//! assert_eq!(fig13.rows.len(), 2);
//! let report = exp.report();
//! assert!(report.simulated < report.requested);
//! ```
//!
//! Custom grids map the §4.3 trade-off surface beyond the paper's
//! `[1, 2, 4]`-port cut:
//!
//! ```
//! use sdv_sim::{Experiment, MachineWidth, RunConfig, SweepGrid, Workload};
//!
//! let grid = SweepGrid::new()
//!     .widths(vec![MachineWidth::FourWay])
//!     .ports(vec![1, 8])
//!     .bus_words(vec![2, 8]);
//! let exp = Experiment::new(RunConfig::quick()).workloads(vec![Workload::Swim]);
//! let sweep = exp.sweep(&grid);
//! assert_eq!(grid.cells().len(), sweep.cells.len());
//! ```

pub mod cachefile;
pub mod engine;
pub mod experiment;
pub mod figures;
pub mod grid;
pub mod report;
pub mod runner;
// The library itself uses only the hasher; `build.rs` and the tests walk
// the tree.
#[cfg_attr(not(test), allow(dead_code))]
mod source_hash;
pub mod table1;

pub use engine::{
    preflight_program, CellError, CellKey, CellTiming, EngineReport, EngineTiming, RunEngine,
};
pub use experiment::Experiment;
pub use figures::*;
pub use grid::SweepGrid;
pub use report::*;
pub use runner::{RunConfig, SuiteResult};
pub use table1::Table1;

// Re-exported so downstream users (examples, tests, binaries) need only this crate.
pub use sdv_core::MAX_VECTOR_LENGTH;
pub use sdv_mem::PortKind;
pub use sdv_obs::{Obs, ObsLevel};
pub use sdv_uarch::{Model, Processor, RunStats, UarchConfig};
pub use sdv_workloads::Workload;

/// The three memory front-end variants compared throughout §4.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// `xpnoIM`: scalar buses, no vectorization.
    ScalarBus,
    /// `xpIM`: wide buses, no vectorization.
    WideBus,
    /// `xpV`: wide buses plus speculative dynamic vectorization.
    Vectorized,
}

impl Variant {
    /// All three variants in the paper's plotting order.
    #[must_use]
    pub fn all() -> [Variant; 3] {
        [Variant::ScalarBus, Variant::WideBus, Variant::Vectorized]
    }

    /// The port kind this variant uses.
    #[must_use]
    pub fn port_kind(&self) -> PortKind {
        match self {
            Variant::ScalarBus => PortKind::Scalar,
            Variant::WideBus | Variant::Vectorized => PortKind::Wide,
        }
    }

    /// Whether this variant enables dynamic vectorization.
    #[must_use]
    pub fn vectorized(&self) -> bool {
        matches!(self, Variant::Vectorized)
    }

    /// Builds this variant's paper machine: `width`, `ports` data-cache
    /// ports, the paper's bus width and, for [`Variant::Vectorized`], the
    /// paper's DV sizing.
    #[must_use]
    pub fn config(&self, width: MachineWidth, ports: usize) -> UarchConfig {
        let builder = UarchConfig::builder()
            .issue_width(width.issue_width())
            .ports(ports)
            .port_kind(self.port_kind());
        let builder = if self.vectorized() {
            builder.dv_config(sdv_core::DvConfig::default())
        } else {
            builder
        };
        builder.build()
    }
}

/// The machine issue width: the paper's two columns of Table 1, plus custom
/// widths for sweeps beyond them.  Only a constructor argument: a built
/// [`UarchConfig`] carries the width as `issue_width`.
#[derive(Debug, Clone, Copy)]
pub enum MachineWidth {
    /// The 4-way configuration of Table 1.
    FourWay,
    /// The 8-way configuration of Table 1.
    EightWay,
    /// An arbitrary issue width (window, LSQ and functional units scale).
    Custom(usize),
}

impl MachineWidth {
    /// The two widths evaluated in the paper.
    #[must_use]
    pub fn all() -> [MachineWidth; 2] {
        [MachineWidth::FourWay, MachineWidth::EightWay]
    }

    /// The fetch/issue/commit width.
    #[must_use]
    pub fn issue_width(&self) -> usize {
        match self {
            MachineWidth::FourWay => 4,
            MachineWidth::EightWay => 8,
            MachineWidth::Custom(w) => *w,
        }
    }

    /// A short label ("4-way" / "8-way" / "6-way").
    #[must_use]
    pub fn label(&self) -> String {
        width_label(self.issue_width())
    }
}

/// The paper's name for a machine of `issue_width`: "4-way", "8-way", …
pub(crate) fn width_label(issue_width: usize) -> String {
    format!("{issue_width}-way")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_configs_match_their_labels() {
        let cfg = Variant::ScalarBus.config(MachineWidth::FourWay, 2);
        assert_eq!(cfg.label(), "2pnoIM");
        assert!(!cfg.vectorization_enabled());
        let cfg = Variant::WideBus.config(MachineWidth::EightWay, 1);
        assert_eq!(cfg.label(), "1pIM");
        assert_eq!(cfg.fetch_width, 8);
        let cfg = Variant::Vectorized.config(MachineWidth::FourWay, 4);
        assert_eq!(cfg.label(), "4pV");
        assert!(cfg.vectorization_enabled());
    }

    #[test]
    fn variant_labels_delegate_to_the_config() {
        for (variant, suffix) in Variant::all().into_iter().zip(["noIM", "IM", "V"]) {
            for width in MachineWidth::all() {
                for ports in [1, 2, 4, 8] {
                    assert_eq!(
                        variant.config(width, ports).label(),
                        format!("{ports}p{suffix}"),
                        "{variant:?} on the {} machine",
                        width.label()
                    );
                }
            }
        }
        assert_eq!(MachineWidth::all().len(), 2);
        assert_eq!(MachineWidth::FourWay.label(), "4-way");
    }

    #[test]
    fn bus_width_reaches_the_config() {
        let cells = SweepGrid::new()
            .widths(vec![MachineWidth::FourWay])
            .ports(vec![1])
            .bus_words(vec![8])
            .cells();
        let [scalar, wide, vect] = &cells[..] else {
            panic!("one cell per variant: {cells:?}")
        };
        assert_eq!(vect.line_words(), 8);
        assert_eq!(vect.label(), "1pVb8");
        assert_eq!(wide.label(), "1pIMb8");
        assert_eq!(
            *scalar,
            Variant::ScalarBus.config(MachineWidth::FourWay, 1),
            "scalar variants ignore the bus axis"
        );
    }

    #[test]
    fn custom_widths_scale() {
        assert_eq!(MachineWidth::Custom(6).issue_width(), 6);
        assert_eq!(MachineWidth::Custom(6).label(), "6-way");
        let cfg = Variant::WideBus.config(MachineWidth::Custom(2), 1);
        assert_eq!(cfg.issue_width, 2);
        assert_eq!(cfg.rob_size, 64);
    }

    #[test]
    fn custom_and_named_widths_are_the_same_coordinate() {
        for variant in Variant::all() {
            assert_eq!(
                variant.config(MachineWidth::Custom(4), 1),
                variant.config(MachineWidth::FourWay, 1)
            );
            assert_eq!(
                variant.config(MachineWidth::Custom(8), 2),
                variant.config(MachineWidth::EightWay, 2)
            );
            assert_ne!(
                variant.config(MachineWidth::Custom(2), 1),
                variant.config(MachineWidth::FourWay, 1)
            );
        }
    }
}

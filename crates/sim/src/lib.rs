//! Experiment layer: processor configurations, the deduplicating parallel run
//! engine, and generators for every table and figure in the paper's
//! evaluation.
//!
//! The crate ties the stack together:
//!
//! * [`engine`] — the [`RunEngine`]: content-hashed memoization of
//!   `(config, workload, budget)` cells and a scoped thread pool,
//! * [`grid`] — the declarative [`SweepGrid`] that expands
//!   `{width} × {ports} × {bus width} × {variant}` cartesian products,
//! * [`experiment`] — the [`Experiment`] facade every figure generator,
//!   bench and the `repro` binary go through,
//! * [`table1`] builds the two processor configurations of Table 1,
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
pub mod table1;

pub use engine::{
    preflight_program, CellError, CellFailure, CellKey, CellTiming, EngineReport, EngineTiming,
    RunEngine, DEFAULT_MAX_RETRIES, DEFAULT_PERSIST_EVERY,
};
pub use experiment::Experiment;
pub use figures::*;
pub use grid::{CellSpec, SweepGrid};
pub use report::*;
pub use runner::{RunConfig, SuiteResult};
pub use table1::Table1;

// Re-exported so downstream users (examples, tests, binaries) need only this crate.
pub use sdv_mem::PortKind;
pub use sdv_obs::{Obs, ObsLevel};
pub use sdv_uarch::UarchConfig as ProcessorConfig;
pub use sdv_uarch::{Model, Processor, RunStats};
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

    /// The label used in the paper's legends (for `ports` ports).
    ///
    /// Derived from the configuration itself (see
    /// [`sdv_uarch::UarchConfig::label`]), so the label can never disagree
    /// with the config that produced it.
    #[must_use]
    pub fn label(&self, ports: usize) -> String {
        self.config(MachineWidth::FourWay, ports).label()
    }

    /// Builds the processor configuration for this variant with the paper's
    /// default bus width.
    #[must_use]
    pub fn config(&self, width: MachineWidth, ports: usize) -> ProcessorConfig {
        self.config_with_bus(width, ports, sdv_uarch::DEFAULT_BUS_WORDS)
    }

    /// Builds the processor configuration for this variant with an explicit
    /// wide-bus width (in 64-bit elements; ignored by [`Variant::ScalarBus`]).
    #[must_use]
    pub fn config_with_bus(
        &self,
        width: MachineWidth,
        ports: usize,
        bus_words: usize,
    ) -> ProcessorConfig {
        let paper = sdv_core::DvConfig::default();
        self.config_with_dv(
            width,
            ports,
            bus_words,
            paper.vector_length,
            paper.vector_registers,
        )
    }

    /// Builds the processor configuration for this variant with explicit
    /// wide-bus width and DV sizing (vector length in elements, number of
    /// vector registers).  The DV axes are ignored by the non-vectorizing
    /// variants, which therefore collapse across them in a sweep.
    #[must_use]
    pub fn config_with_dv(
        &self,
        width: MachineWidth,
        ports: usize,
        bus_words: usize,
        vector_length: usize,
        vector_registers: usize,
    ) -> ProcessorConfig {
        let builder = ProcessorConfig::builder()
            .issue_width(width.issue_width())
            .ports(ports)
            .port_kind(self.port_kind())
            .bus_words(bus_words);
        let builder = if self.vectorized() {
            builder.dv_config(sdv_core::DvConfig {
                vector_length,
                vector_registers,
                ..sdv_core::DvConfig::default()
            })
        } else {
            builder
        };
        builder.build()
    }
}

/// The machine issue width: the paper's two columns of Table 1, plus custom
/// widths for sweeps beyond them.
///
/// Equality and hashing go by the issue width itself, so
/// `MachineWidth::Custom(4) == MachineWidth::FourWay` — the two spellings
/// build identical configurations and must name the same sweep coordinate.
#[derive(Debug, Clone, Copy)]
pub enum MachineWidth {
    /// The 4-way configuration of Table 1.
    FourWay,
    /// The 8-way configuration of Table 1.
    EightWay,
    /// An arbitrary issue width (window, LSQ and functional units scale).
    Custom(usize),
}

impl PartialEq for MachineWidth {
    fn eq(&self, other: &Self) -> bool {
        self.issue_width() == other.issue_width()
    }
}

impl Eq for MachineWidth {}

impl std::hash::Hash for MachineWidth {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.issue_width().hash(state);
    }
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
        format!("{}-way", self.issue_width())
    }
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
        assert_eq!(Variant::ScalarBus.label(1), "1pnoIM");
        assert_eq!(Variant::WideBus.label(2), "2pIM");
        assert_eq!(Variant::Vectorized.label(4), "4pV");
        for variant in Variant::all() {
            for ports in [1, 2, 4, 8] {
                assert_eq!(
                    variant.label(ports),
                    variant.config(MachineWidth::EightWay, ports).label(),
                    "label and config must agree for {variant:?} at {ports} ports"
                );
            }
        }
        assert_eq!(Variant::all().len(), 3);
        assert_eq!(MachineWidth::all().len(), 2);
        assert_eq!(MachineWidth::FourWay.label(), "4-way");
    }

    #[test]
    fn bus_width_reaches_the_config() {
        let cfg = Variant::Vectorized.config_with_bus(MachineWidth::FourWay, 1, 8);
        assert_eq!(cfg.line_words(), 8);
        assert_eq!(cfg.label(), "1pVb8");
        let scalar = Variant::ScalarBus.config_with_bus(MachineWidth::FourWay, 1, 8);
        assert_eq!(
            scalar,
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
        assert_eq!(MachineWidth::Custom(4), MachineWidth::FourWay);
        assert_eq!(MachineWidth::Custom(8), MachineWidth::EightWay);
        assert_ne!(MachineWidth::Custom(2), MachineWidth::FourWay);
        use std::collections::HashSet;
        let set: HashSet<MachineWidth> = [MachineWidth::FourWay, MachineWidth::Custom(4)]
            .into_iter()
            .collect();
        assert_eq!(set.len(), 1, "equal widths must hash identically");
    }
}

//! Declarative sweep grids.
//!
//! A [`SweepGrid`] describes a cartesian product of machine widths, L1
//! data-cache port counts, wide-bus widths, DV sizings and memory front-end
//! variants; it expands into one [`UarchConfig`] per grid point without
//! running anything.  The config is the whole cell: its label, width, bus
//! and DV sizing are read from it.  Execution and deduplication belong to
//! the [`crate::RunEngine`]; Figures 11/12 and the `port_sweep` example are
//! projections over the expanded grid.
//!
//! ```
//! use sdv_sim::{MachineWidth, SweepGrid, Variant};
//!
//! // The paper's Figure 11/12 grid: 2 widths × 3 port counts × 3 variants.
//! assert_eq!(SweepGrid::paper().cells().len(), 18);
//!
//! // The extended §4.3 surface: add the bus-width axis and more ports.
//! let grid = SweepGrid::new()
//!     .ports(vec![1, 2, 4, 8])
//!     .bus_words(vec![2, 4, 8]);
//! assert_eq!(grid.cells().len(), 2 * 4 * 3 * 3);
//! assert_eq!(grid.cells()[2].label(), "1pVb2");
//! ```

use crate::{MachineWidth, UarchConfig, Variant};
use sdv_core::DvConfig;
use sdv_uarch::DEFAULT_BUS_WORDS;

/// A declarative cartesian sweep over
/// `{width} × {ports} × {bus width} × {vector length} × {registers} ×
/// {variant}`.
///
/// Defaults to the paper's grid: both Table 1 widths, `[1, 2, 4]` ports, the
/// 4-element bus, all three variants.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    widths: Vec<MachineWidth>,
    ports: Vec<usize>,
    bus_words: Vec<usize>,
    vector_lengths: Vec<usize>,
    vector_registers: Vec<usize>,
    variants: Vec<Variant>,
}

impl Default for SweepGrid {
    fn default() -> Self {
        SweepGrid::new()
    }
}

impl SweepGrid {
    /// The paper's default grid (identical to [`SweepGrid::paper`]).
    #[must_use]
    pub fn new() -> Self {
        let paper_dv = DvConfig::default();
        SweepGrid {
            widths: MachineWidth::all().to_vec(),
            ports: vec![1, 2, 4],
            bus_words: vec![DEFAULT_BUS_WORDS],
            vector_lengths: vec![paper_dv.vector_length],
            vector_registers: vec![paper_dv.vector_registers],
            variants: Variant::all().to_vec(),
        }
    }

    /// The `{4-way, 8-way} × {1, 2, 4} ports × {noIM, IM, V}` grid behind
    /// Figures 11 and 12.
    #[must_use]
    pub fn paper() -> Self {
        SweepGrid::new()
    }

    /// Replaces the machine-width axis.
    #[must_use]
    pub fn widths(mut self, widths: Vec<MachineWidth>) -> Self {
        assert!(!widths.is_empty(), "a grid needs at least one width");
        self.widths = widths;
        self
    }

    /// Replaces the port-count axis.
    #[must_use]
    pub fn ports(mut self, ports: Vec<usize>) -> Self {
        assert!(!ports.is_empty(), "a grid needs at least one port count");
        self.ports = ports;
        self
    }

    /// Replaces the wide-bus-width axis (in 64-bit elements per access).
    #[must_use]
    pub fn bus_words(mut self, bus_words: Vec<usize>) -> Self {
        assert!(!bus_words.is_empty(), "a grid needs at least one bus width");
        self.bus_words = bus_words;
        self
    }

    /// Replaces the DV vector-length axis (elements per vector register).
    /// Only the vectorizing variant distinguishes these cells; the baselines
    /// collapse across the axis and deduplicate in the engine.
    #[must_use]
    pub fn vector_lengths(mut self, vector_lengths: Vec<usize>) -> Self {
        assert!(
            !vector_lengths.is_empty(),
            "a grid needs at least one vector length"
        );
        self.vector_lengths = vector_lengths;
        self
    }

    /// Replaces the DV vector-register-count axis.
    #[must_use]
    pub fn vector_registers(mut self, vector_registers: Vec<usize>) -> Self {
        assert!(
            !vector_registers.is_empty(),
            "a grid needs at least one register count"
        );
        self.vector_registers = vector_registers;
        self
    }

    /// Replaces the variant axis.
    #[must_use]
    pub fn variants(mut self, variants: Vec<Variant>) -> Self {
        assert!(!variants.is_empty(), "a grid needs at least one variant");
        self.variants = variants;
        self
    }

    /// Expands the cartesian product into one configuration per grid point,
    /// in width-major / ports / bus / vector-length / registers /
    /// variant-minor order.
    ///
    /// Note that cells which ignore an axis (the scalar baseline along the
    /// bus axis, every non-vectorizing variant along the DV axes) are
    /// configuration-identical; the [`crate::RunEngine`] deduplicates them,
    /// so requesting a wide grid never simulates a baseline more than once.
    #[must_use]
    pub fn cells(&self) -> Vec<UarchConfig> {
        let mut cells = Vec::with_capacity(self.len());
        for &width in &self.widths {
            for &ports in &self.ports {
                for &bus_words in &self.bus_words {
                    for &vector_length in &self.vector_lengths {
                        for &vector_registers in &self.vector_registers {
                            for &variant in &self.variants {
                                let builder = UarchConfig::builder()
                                    .issue_width(width.issue_width())
                                    .ports(ports)
                                    .port_kind(variant.port_kind())
                                    .bus_words(bus_words);
                                let builder = if variant.vectorized() {
                                    builder.dv_config(DvConfig {
                                        vector_length,
                                        vector_registers,
                                        ..DvConfig::default()
                                    })
                                } else {
                                    builder
                                };
                                cells.push(builder.build());
                            }
                        }
                    }
                }
            }
        }
        cells
    }

    /// Number of cells the grid expands to.
    #[must_use]
    pub fn len(&self) -> usize {
        self.widths.len()
            * self.ports.len()
            * self.bus_words.len()
            * self.vector_lengths.len()
            * self.vector_registers.len()
            * self.variants.len()
    }

    /// Whether the grid is empty (it never is: every axis asserts non-empty).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn paper_grid_matches_figures_11_and_12() {
        let cells = SweepGrid::paper().cells();
        assert_eq!(cells.len(), 18);
        let labels: Vec<String> = cells.iter().map(UarchConfig::label).collect();
        for expected in ["1pnoIM", "1pIM", "1pV", "2pV", "4pnoIM", "4pV"] {
            assert!(labels.contains(&expected.to_string()), "missing {expected}");
        }
    }

    #[test]
    fn expansion_is_a_full_cartesian_product() {
        let grid = SweepGrid::new()
            .widths(vec![MachineWidth::FourWay, MachineWidth::Custom(2)])
            .ports(vec![1, 8])
            .bus_words(vec![2, 8])
            .variants(vec![Variant::WideBus, Variant::Vectorized]);
        let cells = grid.cells();
        assert_eq!(cells.len(), grid.len());
        assert_eq!(cells.len(), 2 * 2 * 2 * 2);
        assert!(!grid.is_empty());
        // Every coordinate combination appears exactly once.
        let coords: HashSet<(usize, usize, usize, bool)> = cells
            .iter()
            .map(|c| {
                (
                    c.issue_width,
                    c.dcache_ports,
                    c.line_words(),
                    c.vectorization_enabled(),
                )
            })
            .collect();
        assert_eq!(coords.len(), cells.len());
    }

    #[test]
    fn scalar_cells_collapse_across_the_bus_axis() {
        let grid = SweepGrid::new()
            .widths(vec![MachineWidth::FourWay])
            .ports(vec![1])
            .bus_words(vec![2, 4, 8])
            .variants(vec![Variant::ScalarBus]);
        let cells = grid.cells();
        assert_eq!(cells.len(), 3);
        let unique: HashSet<&UarchConfig> = cells.iter().collect();
        assert_eq!(unique.len(), 1, "one unique config to simulate");
    }

    #[test]
    #[should_panic(expected = "at least one port count")]
    fn empty_axes_are_rejected() {
        let _ = SweepGrid::new().ports(Vec::new());
    }

    #[test]
    fn dv_sizing_axes_expand_and_only_affect_the_vectorized_variant() {
        let grid = SweepGrid::new()
            .widths(vec![MachineWidth::FourWay])
            .ports(vec![1])
            .vector_lengths(vec![4, 8])
            .vector_registers(vec![64, 128]);
        let cells = grid.cells();
        assert_eq!(cells.len(), grid.len());
        assert_eq!(cells.len(), 2 * 2 * 3);
        // Cells come variant-minor: noIM, IM, V for each sizing.
        let of = |variant: usize| cells.iter().skip(variant).step_by(3);
        // The vectorized variant distinguishes all four sizings...
        let v_labels: HashSet<String> = of(2).map(UarchConfig::label).collect();
        assert_eq!(v_labels.len(), 4);
        assert!(
            v_labels.contains("1pV"),
            "paper sizing keeps the paper label"
        );
        assert!(v_labels.contains("1pVl8r64"));
        // ...while each baseline collapses to one unique configuration.
        for (variant, name) in [(0, "1pnoIM"), (1, "1pIM")] {
            let unique: HashSet<&UarchConfig> = of(variant).collect();
            assert_eq!(unique.len(), 1, "{name} ignores the DV axes");
            assert_eq!(
                unique.into_iter().next().map(UarchConfig::label),
                Some(name.into())
            );
        }
        // The DV sizing really reaches the configuration: vl=8 is the
        // third sizing (4/64, 4/128, 8/64, 8/128).
        let big = of(2).nth(2).expect("vl=8 cell");
        assert_eq!(big.vectorization.expect("dv on").vector_length, 8);
    }
}

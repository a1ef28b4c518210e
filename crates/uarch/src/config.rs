//! Processor configuration (Table 1 of the paper) and the [`ConfigBuilder`]
//! behind the experiment API.
//!
//! [`UarchConfig::four_way`] / [`UarchConfig::eight_way`] are thin presets
//! over [`UarchConfig::builder`], which also supports arbitrary issue widths
//! and the wide-bus width axis of the §4.3 trade-off surface.

use sdv_core::DvConfig;
use sdv_isa::OpClass;
use sdv_mem::{MemHierarchyConfig, PortKind};
use sdv_predictor::PredictorConfig;

/// The paper's wide bus moves one 32-byte L1 line = four 64-bit elements.
pub const DEFAULT_BUS_WORDS: usize = 4;

/// Issue/execution resources for one functional-unit class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FuClassConfig {
    /// Number of units of this class.
    pub count: usize,
    /// Latency in cycles (units are fully pipelined).
    pub latency: u64,
}

/// Functional-unit complement for either the scalar or the vector data path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FuConfig {
    /// Simple integer ALUs.
    pub int_alu: FuClassConfig,
    /// Integer multiplier/dividers (multiply latency).
    pub int_mul: FuClassConfig,
    /// Integer divide latency (shares the multiplier units).
    pub int_div_latency: u64,
    /// Simple FP units.
    pub fp_add: FuClassConfig,
    /// FP multiplier/dividers (multiply latency).
    pub fp_mul: FuClassConfig,
    /// FP divide latency (shares the FP multiplier units).
    pub fp_div_latency: u64,
}

impl FuConfig {
    /// The 4-way configuration of Table 1.
    #[must_use]
    pub fn four_way() -> Self {
        FuConfig {
            int_alu: FuClassConfig {
                count: 3,
                latency: 1,
            },
            int_mul: FuClassConfig {
                count: 2,
                latency: 2,
            },
            int_div_latency: 12,
            fp_add: FuClassConfig {
                count: 2,
                latency: 2,
            },
            fp_mul: FuClassConfig {
                count: 1,
                latency: 4,
            },
            fp_div_latency: 14,
        }
    }

    /// The 8-way configuration of Table 1.
    #[must_use]
    pub fn eight_way() -> Self {
        FuConfig {
            int_alu: FuClassConfig {
                count: 6,
                latency: 1,
            },
            int_mul: FuClassConfig {
                count: 3,
                latency: 2,
            },
            int_div_latency: 12,
            fp_add: FuClassConfig {
                count: 4,
                latency: 2,
            },
            fp_mul: FuClassConfig {
                count: 2,
                latency: 4,
            },
            fp_div_latency: 14,
        }
    }

    /// A functional-unit complement sized for an arbitrary issue width.
    ///
    /// Widths 4 and 8 return the exact Table 1 complements; other widths scale
    /// the 4-way complement linearly (never below one unit per class).
    #[must_use]
    pub fn for_width(width: usize) -> Self {
        match width {
            4 => FuConfig::four_way(),
            8 => FuConfig::eight_way(),
            w => {
                let scale = |count: usize| (count * w / 4).max(1);
                let four = FuConfig::four_way();
                FuConfig {
                    int_alu: FuClassConfig {
                        count: scale(four.int_alu.count),
                        ..four.int_alu
                    },
                    int_mul: FuClassConfig {
                        count: scale(four.int_mul.count),
                        ..four.int_mul
                    },
                    fp_add: FuClassConfig {
                        count: scale(four.fp_add.count),
                        ..four.fp_add
                    },
                    fp_mul: FuClassConfig {
                        count: scale(four.fp_mul.count),
                        ..four.fp_mul
                    },
                    ..four
                }
            }
        }
    }

    /// The number of units able to execute `class`.
    #[must_use]
    pub fn units_for(&self, class: OpClass) -> usize {
        match class {
            OpClass::IntAlu => self.int_alu.count,
            OpClass::IntMul | OpClass::IntDiv => self.int_mul.count,
            OpClass::FpAdd => self.fp_add.count,
            OpClass::FpMul | OpClass::FpDiv => self.fp_mul.count,
            // Branches and jumps execute on the integer ALUs.
            OpClass::Branch | OpClass::Jump => self.int_alu.count,
            _ => usize::MAX,
        }
    }

    /// The execution latency of `class` (memory classes are handled by the
    /// memory hierarchy, not here).
    #[must_use]
    pub fn latency_for(&self, class: OpClass) -> u64 {
        match class {
            OpClass::IntAlu | OpClass::Branch | OpClass::Jump => self.int_alu.latency,
            OpClass::IntMul => self.int_mul.latency,
            OpClass::IntDiv => self.int_div_latency,
            OpClass::FpAdd => self.fp_add.latency,
            OpClass::FpMul => self.fp_mul.latency,
            OpClass::FpDiv => self.fp_div_latency,
            _ => 1,
        }
    }
}

/// Full processor configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UarchConfig {
    /// Instructions fetched per cycle (up to one taken branch).
    pub fetch_width: usize,
    /// Instructions renamed/dispatched and issued per cycle.
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Instruction-window (ROB) size.
    pub rob_size: usize,
    /// Load/store queue size.
    pub lsq_size: usize,
    /// Scalar functional units.
    pub scalar_fus: FuConfig,
    /// Vector functional units (used only when vectorization is enabled).
    pub vector_fus: FuConfig,
    /// Number of L1 data-cache ports.
    pub dcache_ports: usize,
    /// Whether the ports are scalar (one word) or wide (one line).
    pub port_kind: PortKind,
    /// Memory hierarchy parameters.
    pub memory: MemHierarchyConfig,
    /// Branch predictor parameters.
    pub predictor: PredictorConfig,
    /// Dynamic vectorization parameters; `None` disables the mechanism.
    pub vectorization: Option<DvConfig>,
    /// §3.2: block decode when an instruction is vectorized with a scalar
    /// operand whose value is not yet available (`false` models the "ideal"
    /// bars of Figure 7).
    pub block_on_scalar_operand: bool,
    /// §3.6: maximum stores committed per cycle when vectorization is enabled.
    pub store_commit_limit: usize,
    /// Extra cycles between a branch resolving as mispredicted and the first
    /// correct-path fetch.
    pub redirect_penalty: u64,
    /// Maximum number of loads that a single wide-bus access may serve (§3.7).
    pub wide_loads_per_access: usize,
}

impl UarchConfig {
    /// A builder starting from the 4-way Table 1 machine with one wide port.
    #[must_use]
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder::default()
    }

    /// The 4-way configuration of Table 1 with `ports` L1 data-cache ports of
    /// the given kind and no dynamic vectorization.
    #[must_use]
    pub fn four_way(ports: usize, kind: PortKind) -> Self {
        UarchConfig::builder()
            .issue_width(4)
            .ports(ports)
            .port_kind(kind)
            .build()
    }

    /// The 8-way configuration of Table 1.
    #[must_use]
    pub fn eight_way(ports: usize, kind: PortKind) -> Self {
        UarchConfig::builder()
            .issue_width(8)
            .ports(ports)
            .port_kind(kind)
            .build()
    }

    /// Enables (or disables) speculative dynamic vectorization with the
    /// default hardware sizing.
    #[must_use]
    pub fn with_vectorization(mut self, enabled: bool) -> Self {
        self.vectorization = enabled.then(DvConfig::default);
        self
    }

    /// Whether dynamic vectorization is enabled.
    #[must_use]
    pub fn vectorization_enabled(&self) -> bool {
        self.vectorization.is_some()
    }

    /// Words per L1 data-cache line, at the element size used by vector registers (8 bytes).
    #[must_use]
    pub fn line_words(&self) -> usize {
        self.memory.l1d.line_bytes / 8
    }

    /// Elements a single wide-bus access can move (equals [`Self::line_words`];
    /// 1 for scalar ports).
    #[must_use]
    pub fn bus_words(&self) -> usize {
        match self.port_kind {
            PortKind::Scalar => 1,
            PortKind::Wide => self.line_words(),
        }
    }

    /// A short name in the paper's style: `1pnoIM`, `2pIM`, `4pV`, …
    ///
    /// This is the *single* place a configuration label is derived; everything
    /// else (variants, sweep cells, CSV export) goes through it, so a label
    /// can never disagree with the configuration that produced it.  The label
    /// is injective over `(ports, port kind, vectorization, bus width, DV
    /// sizing)`: non-paper bus widths get an explicit suffix (`1pVb8` is a
    /// 1-port vectorizing machine with an 8-element wide bus), non-paper DV
    /// sizings get `l{vector length}` / `r{register count}` suffixes
    /// (`1pVl8r64`), and the non-paper "DV over scalar ports" combination is
    /// distinguished as `xpVs`.
    #[must_use]
    pub fn label(&self) -> String {
        let suffix = match (self.vectorization_enabled(), self.port_kind) {
            (true, PortKind::Wide) => "V",
            (true, PortKind::Scalar) => "Vs",
            (false, PortKind::Wide) => "IM",
            (false, PortKind::Scalar) => "noIM",
        };
        let mut label = format!("{}p{}", self.dcache_ports, suffix);
        if self.port_kind == PortKind::Wide && self.line_words() != DEFAULT_BUS_WORDS {
            label.push_str(&format!("b{}", self.line_words()));
        }
        if let Some(dv) = &self.vectorization {
            let paper = DvConfig::default();
            if dv.vector_length != paper.vector_length {
                label.push_str(&format!("l{}", dv.vector_length));
            }
            if dv.vector_registers != paper.vector_registers {
                label.push_str(&format!("r{}", dv.vector_registers));
            }
        }
        label
    }
}

/// Builder for [`UarchConfig`]: arbitrary issue width, port count and kind,
/// wide-bus width (in 64-bit elements) and dynamic-vectorization parameters.
///
/// ```
/// use sdv_core::DvConfig;
/// use sdv_uarch::UarchConfig;
/// use sdv_mem::PortKind;
///
/// let cfg = UarchConfig::builder()
///     .issue_width(8)
///     .ports(2)
///     .bus_words(8)
///     .dv_config(DvConfig::default())
///     .build();
/// assert_eq!(cfg.fetch_width, 8);
/// assert_eq!(cfg.rob_size, 256);
/// assert_eq!(cfg.line_words(), 8);
/// assert_eq!(cfg.label(), "2pVb8");
/// assert_eq!(
///     UarchConfig::builder().build(),
///     UarchConfig::four_way(1, PortKind::Wide)
/// );
/// ```
#[derive(Debug, Clone)]
pub struct ConfigBuilder {
    issue_width: usize,
    ports: usize,
    kind: PortKind,
    bus_words: usize,
    vectorization: Option<DvConfig>,
    block_on_scalar_operand: bool,
}

impl Default for ConfigBuilder {
    fn default() -> Self {
        ConfigBuilder {
            issue_width: 4,
            ports: 1,
            kind: PortKind::Wide,
            bus_words: DEFAULT_BUS_WORDS,
            vectorization: None,
            block_on_scalar_operand: true,
        }
    }
}

impl ConfigBuilder {
    /// Sets fetch/issue/commit width; the instruction window, LSQ and
    /// functional units scale with it (widths 4 and 8 reproduce Table 1
    /// exactly).
    #[must_use]
    pub fn issue_width(mut self, width: usize) -> Self {
        assert!(width >= 1, "a processor issues at least one instruction");
        self.issue_width = width;
        self
    }

    /// Sets the number of L1 data-cache ports.
    #[must_use]
    pub fn ports(mut self, ports: usize) -> Self {
        assert!(ports >= 1, "a processor needs at least one data-cache port");
        self.ports = ports;
        self
    }

    /// Sets the port kind (scalar word bus vs. wide line bus).
    #[must_use]
    pub fn port_kind(mut self, kind: PortKind) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the wide-bus width in 64-bit elements (the §4.3 bus-width axis).
    ///
    /// A bus of `words` elements moves an L1 data line of `8 * words` bytes
    /// per access and can serve up to `words` pending loads with it.  Ignored
    /// by scalar ports, so a scalar-bus configuration is identical across the
    /// bus-width axis (and deduplicates to a single simulation).
    #[must_use]
    pub fn bus_words(mut self, words: usize) -> Self {
        assert!(words >= 1, "a bus moves at least one element");
        self.bus_words = words;
        self
    }

    /// Enables dynamic vectorization with a specific sizing.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.vector_length` is outside `1..=64` (element flags are
    /// lanes of a `u64`).
    #[must_use]
    pub fn dv_config(mut self, cfg: DvConfig) -> Self {
        sdv_core::assert_vector_length(cfg.vector_length);
        self.vectorization = Some(cfg);
        self
    }

    /// §3.2 decode blocking on not-ready scalar operands (`false` models the
    /// "ideal" bars of Figure 7).
    #[must_use]
    pub fn block_on_scalar_operand(mut self, block: bool) -> Self {
        self.block_on_scalar_operand = block;
        self
    }

    /// Builds the configuration.
    #[must_use]
    pub fn build(self) -> UarchConfig {
        let w = self.issue_width;
        let fus = FuConfig::for_width(w);
        let mut memory = MemHierarchyConfig::table1();
        let mut wide_loads_per_access = DEFAULT_BUS_WORDS;
        if self.kind == PortKind::Wide {
            memory.l1d.line_bytes = 8 * self.bus_words;
            wide_loads_per_access = self.bus_words;
        }
        UarchConfig {
            fetch_width: w,
            issue_width: w,
            commit_width: w,
            rob_size: 32 * w,
            lsq_size: 8 * w,
            scalar_fus: fus,
            vector_fus: fus,
            dcache_ports: self.ports,
            port_kind: self.kind,
            memory,
            predictor: PredictorConfig::default(),
            vectorization: self.vectorization,
            block_on_scalar_operand: self.block_on_scalar_operand,
            store_commit_limit: 2,
            redirect_penalty: 2,
            wide_loads_per_access,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_presets() {
        let four = UarchConfig::four_way(1, PortKind::Wide);
        assert_eq!(four.fetch_width, 4);
        assert_eq!(four.rob_size, 128);
        assert_eq!(four.lsq_size, 32);
        assert_eq!(four.scalar_fus.int_alu.count, 3);
        let eight = UarchConfig::eight_way(4, PortKind::Scalar);
        assert_eq!(eight.fetch_width, 8);
        assert_eq!(eight.rob_size, 256);
        assert_eq!(eight.lsq_size, 64);
        assert_eq!(eight.scalar_fus.int_alu.count, 6);
        assert_eq!(eight.dcache_ports, 4);
        assert_eq!(eight.memory, MemHierarchyConfig::table1());
    }

    #[test]
    fn builder_reproduces_presets() {
        assert_eq!(
            UarchConfig::builder().issue_width(4).ports(2).build(),
            UarchConfig::four_way(2, PortKind::Wide)
        );
        assert_eq!(
            UarchConfig::builder()
                .issue_width(8)
                .ports(1)
                .port_kind(PortKind::Scalar)
                .build(),
            UarchConfig::eight_way(1, PortKind::Scalar)
        );
    }

    #[test]
    fn builder_scales_intermediate_widths() {
        let two = UarchConfig::builder().issue_width(2).build();
        assert_eq!(two.fetch_width, 2);
        assert_eq!(two.rob_size, 64);
        assert_eq!(two.lsq_size, 16);
        assert_eq!(two.scalar_fus.int_alu.count, 1);
        assert_eq!(two.scalar_fus.fp_mul.count, 1, "never below one unit");
        let sixteen = UarchConfig::builder().issue_width(16).build();
        assert_eq!(sixteen.scalar_fus.int_alu.count, 12);
        assert_eq!(sixteen.scalar_fus.fp_mul.count, 4);
    }

    #[test]
    fn bus_width_axis_changes_line_geometry_for_wide_ports_only() {
        let wide8 = UarchConfig::builder().bus_words(8).build();
        assert_eq!(wide8.memory.l1d.line_bytes, 64);
        assert_eq!(wide8.line_words(), 8);
        assert_eq!(wide8.wide_loads_per_access, 8);
        assert_eq!(wide8.bus_words(), 8);
        let scalar8 = UarchConfig::builder()
            .port_kind(PortKind::Scalar)
            .bus_words(8)
            .build();
        assert_eq!(
            scalar8,
            UarchConfig::four_way(1, PortKind::Scalar),
            "scalar ports ignore the bus-width axis"
        );
        assert_eq!(scalar8.bus_words(), 1);
    }

    #[test]
    fn vectorization_toggle() {
        let cfg = UarchConfig::four_way(1, PortKind::Wide).with_vectorization(true);
        assert!(cfg.vectorization_enabled());
        assert_eq!(cfg.vectorization.unwrap().vector_registers, 128);
        let cfg = cfg.with_vectorization(false);
        assert!(!cfg.vectorization_enabled());
    }

    #[test]
    fn builder_accepts_the_full_lane_range() {
        for vector_length in [1, 4, 64] {
            let cfg = UarchConfig::builder()
                .dv_config(DvConfig {
                    vector_length,
                    ..DvConfig::default()
                })
                .build();
            assert_eq!(cfg.vectorization.unwrap().vector_length, vector_length);
        }
    }

    #[test]
    #[should_panic(expected = "vector length must be between 1 and 64")]
    fn builder_rejects_vector_length_above_64() {
        let _ = UarchConfig::builder().dv_config(DvConfig {
            vector_length: 65,
            ..DvConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "vector length must be between 1 and 64")]
    fn builder_rejects_zero_vector_length() {
        let _ = UarchConfig::builder().dv_config(DvConfig {
            vector_length: 0,
            ..DvConfig::default()
        });
    }

    #[test]
    fn labels_follow_the_paper() {
        assert_eq!(UarchConfig::four_way(1, PortKind::Scalar).label(), "1pnoIM");
        assert_eq!(UarchConfig::four_way(2, PortKind::Wide).label(), "2pIM");
        assert_eq!(
            UarchConfig::four_way(4, PortKind::Wide)
                .with_vectorization(true)
                .label(),
            "4pV"
        );
        assert_eq!(
            UarchConfig::builder()
                .ports(2)
                .bus_words(8)
                .dv_config(DvConfig::default())
                .build()
                .label(),
            "2pVb8"
        );
        assert_eq!(
            UarchConfig::builder()
                .port_kind(PortKind::Scalar)
                .bus_words(2)
                .build()
                .label(),
            "1pnoIM",
            "scalar buses never carry a bus suffix"
        );
        assert_eq!(
            UarchConfig::four_way(1, PortKind::Scalar)
                .with_vectorization(true)
                .label(),
            "1pVs",
            "DV over scalar ports must not collide with the paper's 1pV"
        );
    }

    #[test]
    fn configs_are_hashable_cell_keys() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(UarchConfig::four_way(1, PortKind::Wide));
        set.insert(UarchConfig::four_way(1, PortKind::Wide));
        set.insert(UarchConfig::four_way(2, PortKind::Wide));
        assert_eq!(set.len(), 2, "identical configs hash to the same cell");
    }

    #[test]
    fn fu_lookup_latencies() {
        let fu = FuConfig::four_way();
        assert_eq!(fu.latency_for(OpClass::IntAlu), 1);
        assert_eq!(fu.latency_for(OpClass::IntDiv), 12);
        assert_eq!(fu.latency_for(OpClass::FpMul), 4);
        assert_eq!(fu.latency_for(OpClass::FpDiv), 14);
        assert_eq!(fu.units_for(OpClass::Branch), 3);
        assert_eq!(fu.units_for(OpClass::FpDiv), 1);
    }

    #[test]
    fn line_words_from_geometry() {
        let cfg = UarchConfig::four_way(1, PortKind::Wide);
        assert_eq!(cfg.line_words(), 4, "32-byte lines hold four 64-bit words");
    }
}

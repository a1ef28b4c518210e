//! Table 1: the processor microarchitectural parameters.
//!
//! A column of Table 1 is a rendering of one [`UarchConfig`]: the header
//! comes from its `issue_width` and the pipeline, cache and port rows from
//! its fields, so the table describes the machine actually simulated.  The
//! DV hardware rows (vector registers, TL, VRMT) show the paper's sizing.
//! The paper's two columns are
//! `Table1(Variant::WideBus.config(MachineWidth::FourWay, 1))` and its 8-way
//! twin.

use crate::{width_label, UarchConfig};
use std::fmt;

/// A renderable column of Table 1: the configuration the simulator
/// actually uses.
#[derive(Debug, Clone)]
pub struct Table1(pub UarchConfig);

impl Table1 {
    /// The parameter rows as `(parameter, value)` pairs, in the paper's order.
    #[must_use]
    pub fn rows(&self) -> Vec<(&'static str, String)> {
        let c = &self.0;
        let dv = sdv_core::DvConfig::default();
        vec![
            ("Fetch width", format!("{} instructions (up to 1 taken branch)", c.fetch_width)),
            (
                "I-cache",
                format!(
                    "{}KB, {}-way, {}-byte lines",
                    c.memory.l1i.size_bytes / 1024,
                    c.memory.l1i.ways,
                    c.memory.l1i.line_bytes
                ),
            ),
            ("Branch predictor", format!("Gshare with {}K entries", c.predictor.gshare_entries / 1024)),
            ("Inst. window size", format!("{} entries", c.rob_size)),
            (
                "Scalar functional units",
                format!(
                    "{} int ALU(1); {} int mul/div(2/12); {} FP add(2); {} FP mul/div(4/14); 1 to {} loads/stores",
                    c.scalar_fus.int_alu.count,
                    c.scalar_fus.int_mul.count,
                    c.scalar_fus.fp_add.count,
                    c.scalar_fus.fp_mul.count,
                    c.dcache_ports,
                ),
            ),
            ("Load/store queue", format!("{} entries with store-load forwarding", c.lsq_size)),
            ("Issue mechanism", format!("{}-way out-of-order issue", c.issue_width)),
            (
                "D-cache",
                format!(
                    "{}KB, {}-way, {}-byte lines, 1 cycle hit, up to {} outstanding misses",
                    c.memory.l1d.size_bytes / 1024,
                    c.memory.l1d.ways,
                    c.memory.l1d.line_bytes,
                    c.memory.max_outstanding_misses
                ),
            ),
            (
                "L2 cache",
                format!(
                    "{}KB, {}-way, {}-byte lines, {} cycles hit",
                    c.memory.l2.size_bytes / 1024,
                    c.memory.l2.ways,
                    c.memory.l2.line_bytes,
                    c.memory.l2_hit_cycles
                ),
            ),
            ("Commit width", format!("{} instructions", c.commit_width)),
            (
                "Vector registers",
                format!("{} registers of {} 64-bit elements each", dv.vector_registers, dv.vector_length),
            ),
            (
                "Vector functional units",
                format!(
                    "pipelined; {} int ALU; {} int mul/div; {} FP add; {} FP mul/div; 1 to {} loads",
                    c.vector_fus.int_alu.count,
                    c.vector_fus.int_mul.count,
                    c.vector_fus.fp_add.count,
                    c.vector_fus.fp_mul.count,
                    c.dcache_ports
                ),
            ),
            ("TL", format!("{}-way set assoc. with {} sets", dv.tl_ways, dv.tl_sets)),
            ("VRMT", format!("{}-way set assoc. with {} sets", dv.vrmt_ways, dv.vrmt_sets)),
        ]
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 1 — {} configuration",
            width_label(self.0.issue_width)
        )?;
        for (param, value) in self.rows() {
            writeln!(f, "  {param:<26} {value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MachineWidth, Variant};

    #[test]
    fn columns_reflect_table1() {
        let four = Table1(Variant::WideBus.config(MachineWidth::FourWay, 1));
        let eight = Table1(Variant::ScalarBus.config(MachineWidth::EightWay, 4));
        assert_eq!(four.0.rob_size, 128);
        assert_eq!(eight.0.rob_size, 256);
        let rows = four.rows();
        assert_eq!(rows.len(), 14);
        let text = four.to_string();
        assert!(text.contains("Gshare with 64K entries"));
        assert!(text.contains("128 registers of 4 64-bit elements"));
        assert!(text.contains("4-way set assoc. with 512 sets"));
        assert!(text.starts_with("Table 1 — 4-way configuration"));
        let text8 = eight.to_string();
        assert!(text8.starts_with("Table 1 — 8-way configuration"));
        assert!(text8.contains("8-way out-of-order issue"));
        assert!(text8.contains("256 entries"));
    }
}

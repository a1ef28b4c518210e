//! Dynamic-instruction records and ISA-level profiling.

use sdv_isa::Inst;
use std::collections::HashMap;

/// A memory access performed by a retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Effective (virtual = physical) address.
    pub addr: u64,
    /// Access width in bytes.
    pub width: u64,
    /// Whether the access is a store.
    pub is_store: bool,
    /// The value loaded or stored (zero-extended bit pattern).
    pub value: u64,
}

/// One retired (architecturally executed) dynamic instruction.
///
/// This is the record the execution-driven timing model consumes: it contains
/// the resolved effective address, the branch outcome and the architectural
/// next PC, i.e. everything that in real hardware would only be known after
/// execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Retired {
    /// Position in the dynamic instruction stream (0-based).
    pub seq: u64,
    /// PC of this instruction.
    pub pc: u64,
    /// The static instruction.
    pub inst: Inst,
    /// PC of the next instruction on the correct path.
    pub next_pc: u64,
    /// For control instructions: whether the transfer was taken.
    pub taken: bool,
    /// Memory access, for loads and stores.
    pub mem: Option<MemAccess>,
    /// Bit pattern of the first source operand value (0 when absent).
    pub src1_value: u64,
    /// Bit pattern of the second source operand value (0 when absent).
    pub src2_value: u64,
    /// Bit pattern of the value written to the destination (0 when absent).
    pub dst_value: u64,
}

/// Aggregate stride statistics, the data behind Figure 1.
///
/// Strides are expressed in *elements* (the address delta divided by the
/// access size), exactly as in the paper.  Dynamic load instances whose delta
/// is not a multiple of the access size, is negative, or exceeds 9 elements
/// are grouped in [`StrideStats::other`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StrideStats {
    /// `counts[s]` = number of dynamic loads whose stride was exactly `s` elements.
    pub counts: [u64; 10],
    /// Dynamic loads with a stride outside `0..=9` elements (incl. negative or unaligned).
    pub other: u64,
    /// Dynamic loads for which a stride was defined (2nd and later instances).
    pub total: u64,
}

impl StrideStats {
    /// Fraction of strided loads with stride `s` (in elements).
    #[must_use]
    pub fn fraction(&self, s: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[s] as f64 / self.total as f64
        }
    }

    /// Fraction of loads whose stride is strictly below `elems` elements —
    /// the "can be served by a single wide-bus access" statistic quoted in §2
    /// (97.9 % for SpecInt95 and 81.3 % for SpecFP95 with 4-element lines).
    #[must_use]
    pub fn fraction_below(&self, elems: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let n: u64 = self.counts.iter().take(elems).sum();
        n as f64 / self.total as f64
    }

    /// Merges another set of counts into this one.
    pub fn merge(&mut self, other: &StrideStats) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.other += other.other;
        self.total += other.total;
    }
}

/// Per-static-load stride profiler (the measurement behind Figure 1).
///
/// ```
/// use sdv_emu::StrideProfiler;
///
/// let mut p = StrideProfiler::new();
/// for i in 0..10u64 {
///     p.observe(0x1000, 0x8000 + i * 8, 8); // stride 1 element
/// }
/// let stats = p.stats();
/// assert_eq!(stats.counts[1], 9);
/// assert_eq!(stats.total, 9);
/// ```
#[derive(Debug, Default, Clone)]
pub struct StrideProfiler {
    last: HashMap<u64, u64>,
    stats: StrideStats,
}

impl StrideProfiler {
    /// Creates an empty profiler.
    #[must_use]
    pub fn new() -> Self {
        StrideProfiler::default()
    }

    /// Records one dynamic load: static load at `pc` touched `addr` with an
    /// access of `width` bytes.
    pub fn observe(&mut self, pc: u64, addr: u64, width: u64) {
        if let Some(prev) = self.last.insert(pc, addr) {
            self.stats.total += 1;
            let delta = addr.wrapping_sub(prev) as i64;
            if delta >= 0 && width > 0 && delta % width as i64 == 0 {
                let elems = delta / width as i64;
                if (0..10).contains(&elems) {
                    self.stats.counts[elems as usize] += 1;
                } else {
                    self.stats.other += 1;
                }
            } else {
                self.stats.other += 1;
            }
        }
    }

    /// Records the memory access of a retired instruction if it is a load.
    pub fn observe_retired(&mut self, r: &Retired) {
        if r.inst.is_load() {
            if let Some(mem) = r.mem {
                self.observe(r.pc, mem.addr, mem.width);
            }
        }
    }

    /// The accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &StrideStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_zero_and_positive() {
        let mut p = StrideProfiler::new();
        // Three accesses to the same address -> stride 0 twice.
        for _ in 0..3 {
            p.observe(0x2000, 0x9000, 8);
        }
        // Stride 2 elements of a 4-byte access.
        for i in 0..4u64 {
            p.observe(0x2004, 0xa000 + i * 8, 4);
        }
        let s = p.stats();
        assert_eq!(s.counts[0], 2);
        assert_eq!(s.counts[2], 3);
        assert_eq!(s.total, 5);
        assert_eq!(s.other, 0);
    }

    #[test]
    fn irregular_strides_fall_into_other() {
        let mut p = StrideProfiler::new();
        p.observe(0x1, 1000, 8);
        p.observe(0x1, 900, 8); // negative
        p.observe(0x1, 903, 8); // unaligned delta
        p.observe(0x1, 903 + 8 * 200, 8); // too large
        let s = p.stats();
        assert_eq!(s.other, 3);
        assert_eq!(s.total, 3);
    }

    #[test]
    fn fractions_and_merge() {
        let mut a = StrideProfiler::new();
        for i in 0..11u64 {
            a.observe(0x10, 0x100 + i * 8, 8);
        }
        let mut b = StrideProfiler::new();
        for _ in 0..11u64 {
            b.observe(0x20, 0x100, 8);
        }
        let mut merged = a.stats().clone();
        merged.merge(b.stats());
        assert_eq!(merged.total, 20);
        assert!((merged.fraction(1) - 0.5).abs() < 1e-12);
        assert!((merged.fraction(0) - 0.5).abs() < 1e-12);
        assert!((merged.fraction_below(4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_zero_fractions() {
        let s = StrideStats::default();
        assert_eq!(s.fraction(0), 0.0);
        assert_eq!(s.fraction_below(4), 0.0);
    }
}

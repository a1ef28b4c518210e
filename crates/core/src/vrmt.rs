//! The Vector Register Map Table (Figure 5).

use crate::vreg::VregId;
use sdv_isa::ArchReg;

/// A source operand as recorded when an instruction was vectorized.
///
/// Later dynamic instances compare their current operands against this record:
/// a mismatch means the vectorized instance no longer corresponds to the
/// instruction's dataflow and a new vector instance must be generated (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// The operand slot is unused.
    None,
    /// A scalar register operand; the paper stores its *value* in the VRMT and
    /// re-compares it when the instruction is seen again.
    Scalar {
        /// The architectural register.
        reg: ArchReg,
        /// The value (bit pattern) the register held when the instruction was vectorized.
        value: u64,
    },
    /// A vector register operand.
    Vector {
        /// The architectural register that was mapped to a vector register.
        reg: ArchReg,
        /// The vector register it was mapped to.
        vreg: VregId,
        /// The element offset the mapping pointed at when the instruction was vectorized.
        offset: usize,
    },
}

impl Operand {
    /// Whether this operand is a vector register.
    #[must_use]
    pub fn is_vector(&self) -> bool {
        matches!(self, Operand::Vector { .. })
    }

    /// The element offset of a vector operand (0 otherwise).
    #[must_use]
    pub fn offset(&self) -> usize {
        match self {
            Operand::Vector { offset, .. } => *offset,
            _ => 0,
        }
    }

    /// The vector register of a vector operand, if any.
    #[must_use]
    pub fn vreg(&self) -> Option<VregId> {
        match self {
            Operand::Vector { vreg, .. } => Some(*vreg),
            _ => None,
        }
    }
}

/// Address-generation information kept for vectorized loads: the predicted
/// address of element 0 of the current vector instance and the stride.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadPattern {
    /// Predicted address of element 0 of the current vector instance.
    pub base_addr: u64,
    /// Stride in bytes between consecutive elements.
    pub stride: i64,
    /// Access width in bytes.
    pub width: u64,
}

impl LoadPattern {
    /// Predicted address of element `offset`.
    #[must_use]
    pub fn addr_of(&self, offset: usize) -> u64 {
        (self.base_addr as i64 + self.stride * offset as i64) as u64
    }
}

/// One VRMT entry (Figure 5): the owning PC, the associated vector register,
/// the next element to validate and the operands recorded at vectorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VrmtEntry {
    /// PC of the vectorized instruction.
    pub pc: u64,
    /// The vector register holding the speculative results.
    pub vreg: VregId,
    /// The element the *next* scalar instance will validate.
    pub offset: usize,
    /// First source operand as recorded at vectorization time.
    pub src1: Operand,
    /// Second source operand as recorded at vectorization time.
    pub src2: Operand,
    /// Load address pattern (present only for vectorized loads).
    pub load: Option<LoadPattern>,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    entry: VrmtEntry,
    last_used: u64,
}

/// The Vector Register Map Table: a set-associative table indexed by PC.
///
/// ```
/// use sdv_core::vrmt::{Operand, Vrmt, VrmtEntry};
/// use sdv_core::VectorRegisterFile;
///
/// let mut vrf = VectorRegisterFile::new(8, 4, false);
/// let vreg = vrf.allocate(0x1000, 0).unwrap();
/// let mut vrmt = Vrmt::new(64, 4, false);
/// vrmt.insert(VrmtEntry { pc: 0x1000, vreg, offset: 0, src1: Operand::None, src2: Operand::None, load: None });
/// assert!(vrmt.lookup(0x1000).is_some());
/// vrmt.invalidate_pc(0x1000);
/// assert!(vrmt.lookup(0x1000).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct Vrmt {
    sets: Vec<Vec<Slot>>,
    ways: usize,
    unbounded: bool,
    stamp: u64,
    /// Per-vector-register entry counts (indexed by [`VregId::index`]), so
    /// [`Vrmt::references`] is O(1) instead of a whole-table walk.
    refs: Vec<u32>,
}

impl Vrmt {
    /// Creates a VRMT with `sets` sets of `ways` entries; with `unbounded` the
    /// associativity limit is ignored.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero or not a power of two, or `ways` is zero.
    #[must_use]
    pub fn new(sets: usize, ways: usize, unbounded: bool) -> Self {
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "VRMT sets must be a non-zero power of two"
        );
        assert!(ways > 0, "VRMT must have at least one way");
        Vrmt {
            sets: vec![Vec::new(); sets],
            ways,
            unbounded,
            stamp: 0,
            refs: Vec::new(),
        }
    }

    fn inc_ref(&mut self, vreg: VregId) {
        let idx = vreg.index();
        if idx >= self.refs.len() {
            self.refs.resize(idx + 1, 0);
        }
        self.refs[idx] += 1;
    }

    fn dec_ref(&mut self, vreg: VregId) {
        let idx = vreg.index();
        debug_assert!(self.refs.get(idx).is_some_and(|&c| c > 0));
        if let Some(c) = self.refs.get_mut(idx) {
            *c = c.saturating_sub(1);
        }
    }

    fn set_of(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.sets.len() - 1)
    }

    /// Looks up the entry for `pc`, refreshing its LRU position.  The
    /// entry is returned mutably so a validation can advance its offset in
    /// place.
    pub fn lookup(&mut self, pc: u64) -> Option<&mut VrmtEntry> {
        self.stamp += 1;
        let stamp = self.stamp;
        let idx = self.set_of(pc);
        self.sets[idx]
            .iter_mut()
            .find(|s| s.entry.pc == pc)
            .map(|s| {
                s.last_used = stamp;
                &mut s.entry
            })
    }

    /// Inserts (or replaces) the entry for `entry.pc`; returns an evicted
    /// entry if the set was full.  The evicted instruction only loses its
    /// mapping: its register is reclaimed by the freeing rules or the
    /// reference scan.
    pub fn insert(&mut self, entry: VrmtEntry) -> Option<VrmtEntry> {
        self.stamp += 1;
        let stamp = self.stamp;
        let ways = if self.unbounded {
            usize::MAX
        } else {
            self.ways
        };
        let idx = self.set_of(entry.pc);
        let set = &mut self.sets[idx];
        if let Some(pos) = set.iter().position(|s| s.entry.pc == entry.pc) {
            let old_vreg = set[pos].entry.vreg;
            set[pos].entry = entry;
            set[pos].last_used = stamp;
            self.dec_ref(old_vreg);
            self.inc_ref(entry.vreg);
            return None;
        }
        let slot = Slot {
            entry,
            last_used: stamp,
        };
        if set.len() < ways {
            set.push(slot);
            self.inc_ref(entry.vreg);
            None
        } else {
            let victim = set
                .iter_mut()
                .min_by_key(|s| s.last_used)
                .expect("ways > 0");
            let old = victim.entry;
            *victim = slot;
            self.dec_ref(old.vreg);
            self.inc_ref(entry.vreg);
            Some(old)
        }
    }

    /// Removes the entry for `pc`, if present.
    pub fn invalidate_pc(&mut self, pc: u64) -> Option<VrmtEntry> {
        let idx = self.set_of(pc);
        let set = &mut self.sets[idx];
        let pos = set.iter().position(|s| s.entry.pc == pc)?;
        let removed = set.swap_remove(pos).entry;
        self.dec_ref(removed.vreg);
        Some(removed)
    }

    /// Removes every entry whose vector register is `vreg` (store-coherence
    /// invalidation, §3.6); returns how many entries were removed.  The walk
    /// stops as soon as the register's reference count is exhausted.
    pub fn invalidate_vreg(&mut self, vreg: VregId) -> usize {
        let Some(refs) = self.refs.get_mut(vreg.index()) else {
            return 0;
        };
        let expected = std::mem::take(refs) as usize;
        let mut removed = 0;
        for set in &mut self.sets {
            if removed == expected {
                break;
            }
            let mut i = 0;
            while i < set.len() {
                if set[i].entry.vreg == vreg {
                    set.swap_remove(i);
                    removed += 1;
                } else {
                    i += 1;
                }
            }
        }
        debug_assert_eq!(removed, expected, "reference count matches the table");
        removed
    }

    /// Number of entries stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all stored entries.
    pub fn iter(&self) -> impl Iterator<Item = &VrmtEntry> {
        self.sets
            .iter()
            .flat_map(|s| s.iter().map(|slot| &slot.entry))
    }

    /// Whether any entry references `vreg` (O(1) via the reference counts).
    #[must_use]
    pub fn references(&self, vreg: VregId) -> bool {
        self.refs.get(vreg.index()).copied().unwrap_or(0) > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vreg::VectorRegisterFile;

    fn ids(n: usize) -> Vec<VregId> {
        let mut vrf = VectorRegisterFile::new(n, 4, false);
        (0..n).map(|i| vrf.allocate(i as u64, 0).unwrap()).collect()
    }

    fn entry(pc: u64, vreg: VregId) -> VrmtEntry {
        VrmtEntry {
            pc,
            vreg,
            offset: 0,
            src1: Operand::None,
            src2: Operand::None,
            load: None,
        }
    }

    #[test]
    fn insert_lookup_and_offset_advance() {
        let v = ids(2);
        let mut t = Vrmt::new(64, 4, false);
        assert!(t.insert(entry(0x1000, v[0])).is_none());
        assert_eq!(t.lookup(0x1000).unwrap().vreg, v[0]);
        t.lookup(0x1000).unwrap().offset = 3;
        assert_eq!(t.lookup(0x1000).unwrap().offset, 3);
        assert!(t.lookup(0x2000).is_none());
    }

    #[test]
    fn reinsert_same_pc_replaces_in_place() {
        let v = ids(2);
        let mut t = Vrmt::new(64, 4, false);
        t.insert(entry(0x1000, v[0]));
        assert!(t.insert(entry(0x1000, v[1])).is_none());
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(0x1000).unwrap().vreg, v[1]);
    }

    #[test]
    fn lru_eviction_reports_victim() {
        let v = ids(3);
        let mut t = Vrmt::new(1, 2, false);
        t.insert(entry(0x1000, v[0]));
        t.insert(entry(0x2000, v[1]));
        assert!(t.lookup(0x1000).is_some()); // make 0x2000 the LRU
        let evicted = t.insert(entry(0x3000, v[2])).expect("eviction");
        assert_eq!(evicted.pc, 0x2000);
        assert!(t.lookup(0x2000).is_none());
    }

    #[test]
    fn unbounded_mode_never_evicts() {
        let v = ids(1);
        let mut t = Vrmt::new(1, 1, true);
        for pc in 0..50u64 {
            assert!(t.insert(entry(pc * 4, v[0])).is_none());
        }
        assert_eq!(t.len(), 50);
    }

    #[test]
    fn invalidate_by_pc_and_by_vreg() {
        let v = ids(2);
        let mut t = Vrmt::new(64, 4, false);
        t.insert(entry(0x1000, v[0]));
        t.insert(entry(0x1004, v[0]));
        t.insert(entry(0x1008, v[1]));
        assert!(t.references(v[0]));
        assert_eq!(t.invalidate_vreg(v[0]), 2);
        assert!(!t.references(v[0]));
        assert_eq!(t.len(), 1);
        assert!(t.invalidate_pc(0x1008).is_some());
        assert!(t.invalidate_pc(0x1008).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn load_pattern_addresses() {
        let p = LoadPattern {
            base_addr: 0x1000,
            stride: -8,
            width: 8,
        };
        assert_eq!(p.addr_of(0), 0x1000);
        assert_eq!(p.addr_of(2), 0x1000 - 16);
        let q = LoadPattern {
            base_addr: 0x1000,
            stride: 4,
            width: 4,
        };
        assert_eq!(q.addr_of(3), 0x100c);
    }

    #[test]
    fn operand_helpers() {
        let v = ids(1);
        let op = Operand::Vector {
            reg: sdv_isa::ArchReg::int(3),
            vreg: v[0],
            offset: 2,
        };
        assert!(op.is_vector());
        assert_eq!(op.offset(), 2);
        assert_eq!(op.vreg(), Some(v[0]));
        let s = Operand::Scalar {
            reg: sdv_isa::ArchReg::int(4),
            value: 7,
        };
        assert!(!s.is_vector());
        assert_eq!(s.offset(), 0);
        assert_eq!(s.vreg(), None);
        assert_eq!(Operand::None.vreg(), None);
    }
}

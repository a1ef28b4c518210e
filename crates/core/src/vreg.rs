//! The vector register file with per-element V/R/U/F flags (Figure 8) and the
//! allocation / freeing rules of §3.3.

use crate::slotset::{SlotIter, SlotSet};

/// Identifier of a vector register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VregId(u32);

impl VregId {
    /// The register's index within the file.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for VregId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Per-element state: the four flags of Figure 8 plus a poison bit used to
/// propagate load mis-speculations to dependent elements.  The register file
/// stores these flags as lane masks; this is the per-element view of them
/// ([`VectorRegister::element`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElementState {
    /// V: the element holds committed (validated) data.
    pub valid: bool,
    /// R: the element has been computed by a vector functional unit or loaded
    /// from memory.
    pub ready: bool,
    /// U: a validation of this element has been dispatched but not committed.
    pub used: bool,
    /// F: the element is no longer needed.
    pub free: bool,
    /// The element is known to be wrong (its producing speculation failed) and
    /// must never be validated.
    pub poisoned: bool,
}

/// The largest supported vector length: element flags are lanes of a `u64`.
pub const MAX_VECTOR_LENGTH: usize = 64;

/// Panics unless `vector_length` fits the lane masks (`1..=64`).
///
/// # Panics
///
/// Panics with a message naming the bound when `vector_length` is 0 or
/// exceeds [`MAX_VECTOR_LENGTH`].
pub fn assert_vector_length(vector_length: usize) {
    assert!(
        (1..=MAX_VECTOR_LENGTH).contains(&vector_length),
        "vector length must be between 1 and {MAX_VECTOR_LENGTH} elements (got {vector_length})"
    );
}

/// The lane mask `{0, …, n - 1}` (`n <= 64`).
fn lanes_below(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// One vector register: owner PC, MRBB tag, per-element flags and, for loads,
/// the range of memory addresses the elements were fetched from (§3.6).
///
/// Each flag of Figure 8 (plus poison) is a lane mask: bit `i` is element
/// `i`'s flag, and `full` holds one bit per element of the vector length, so
/// the §3.3 freeing rules and the Figure 15 accounting are mask tests and
/// popcounts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorRegister {
    allocated: bool,
    pc: u64,
    mrbb: u64,
    generation: u64,
    full: u64,
    valid: u64,
    ready: u64,
    used: u64,
    free: u64,
    poisoned: u64,
    addr_range: Option<(u64, u64)>,
}

impl VectorRegister {
    fn new(vector_length: usize) -> Self {
        VectorRegister {
            allocated: false,
            pc: 0,
            mrbb: 0,
            generation: 0,
            full: lanes_below(vector_length),
            valid: 0,
            ready: 0,
            used: 0,
            free: 0,
            poisoned: 0,
            addr_range: None,
        }
    }

    /// Allocation generation: incremented every time the register is
    /// (re-)allocated, so external bookkeeping can detect reallocation.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether the register is currently allocated.
    #[must_use]
    pub fn is_allocated(&self) -> bool {
        self.allocated
    }

    /// PC of the instruction the register was allocated to.
    #[must_use]
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// The MRBB tag recorded at allocation time.
    #[must_use]
    pub fn mrbb(&self) -> u64 {
        self.mrbb
    }

    /// The flags of element `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is not below the vector length.
    #[must_use]
    pub fn element(&self, offset: usize) -> ElementState {
        let bit = self.lane(offset);
        ElementState {
            valid: self.valid & bit != 0,
            ready: self.ready & bit != 0,
            used: self.used & bit != 0,
            free: self.free & bit != 0,
            poisoned: self.poisoned & bit != 0,
        }
    }

    /// The memory address range covered by a vectorized load, if set.
    #[must_use]
    pub fn addr_range(&self) -> Option<(u64, u64)> {
        self.addr_range
    }

    /// The lane bit of element `offset`.
    fn lane(&self, offset: usize) -> u64 {
        let bit = 1u64.checked_shl(offset as u32).unwrap_or(0) & self.full;
        assert!(bit != 0, "element {offset} is outside the vector length");
        bit
    }

    /// Rule 1 of §3.3: every element has been computed and freed.
    fn all_ready_and_free(&self) -> bool {
        self.ready & self.free == self.full
    }

    /// Rule 2 of §3.3: every validated element is freed, all elements are
    /// computed, none is in use, and the owning loop has terminated
    /// (MRBB differs from the global MRBB).
    fn releasable_after_loop(&self, gmrbb: u64) -> bool {
        self.valid & !self.free == 0
            && self.ready == self.full
            && self.used == 0
            && self.mrbb != gmrbb
    }

    /// The reclaim filter: every element is computed or poisoned and none
    /// has an uncommitted validation.
    fn settled(&self) -> bool {
        (self.ready | self.poisoned) == self.full && self.used == 0
    }
}

/// Element-usage accounting for released registers (Figure 15).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElementUsage {
    /// Elements that were computed and validated ("comp. used").
    pub computed_used: u64,
    /// Elements that were computed but never validated ("comp. not used").
    pub computed_not_used: u64,
    /// Elements that were never computed ("not comp.").
    pub not_computed: u64,
    /// Number of registers released (the denominator of the averages).
    pub registers_released: u64,
}

impl ElementUsage {
    /// Average validated elements per released register.
    #[must_use]
    pub fn avg_computed_used(&self) -> f64 {
        self.avg(self.computed_used)
    }

    /// Average computed-but-unused elements per released register.
    #[must_use]
    pub fn avg_computed_not_used(&self) -> f64 {
        self.avg(self.computed_not_used)
    }

    /// Average never-computed elements per released register.
    #[must_use]
    pub fn avg_not_computed(&self) -> f64 {
        self.avg(self.not_computed)
    }

    fn avg(&self, n: u64) -> f64 {
        if self.registers_released == 0 {
            0.0
        } else {
            n as f64 / self.registers_released as f64
        }
    }

    /// Merges counts from another collector.
    pub fn merge(&mut self, other: &ElementUsage) {
        self.computed_used += other.computed_used;
        self.computed_not_used += other.computed_not_used;
        self.not_computed += other.not_computed;
        self.registers_released += other.registers_released;
    }
}

/// The vector register file.
///
/// ```
/// use sdv_core::VectorRegisterFile;
///
/// let mut vrf = VectorRegisterFile::new(4, 4, false);
/// let id = vrf.allocate(0x1000, 0).expect("register available");
/// vrf.set_ready(id, 0);
/// vrf.mark_used(id, 0);
/// vrf.validate(id, 0);
/// assert!(vrf.get(id).element(0).valid);
/// ```
#[derive(Debug, Clone)]
pub struct VectorRegisterFile {
    regs: Vec<VectorRegister>,
    vector_length: usize,
    unbounded: bool,
    usage: ElementUsage,
    allocation_failures: u64,
    /// Free list: indices of unallocated registers.  Kept ordered so that
    /// allocation always picks the lowest-numbered free register — the same
    /// choice the original linear scan made.
    free_set: SlotSet,
    /// Indices of allocated registers, ordered; every whole-file walk
    /// (release scans, store-coherence checks) iterates this instead of the
    /// backing array.
    allocated_set: SlotSet,
    /// Conservative union of every allocated register's address range: the
    /// §3.6 store check rejects stores outside it without walking the
    /// allocated set (the overwhelmingly common case).  Widened exactly on
    /// [`VectorRegisterFile::set_addr_range`]; releasing a ranged register
    /// only marks it stale (`addr_union_dirty`), and the next check whose
    /// store falls inside the stale union rebuilds it.
    addr_union: Option<(u64, u64)>,
    addr_union_dirty: bool,
    /// Reusable bitmap snapshot of the allocated set, for scans that
    /// release while iterating.
    scan_scratch: Vec<u64>,
    /// Journal of registers whose readiness inputs changed — a ready or
    /// poison flag newly set, or a new generation — since the last
    /// [`VectorRegisterFile::pop_touched`].  Consumers that park work on a
    /// register (the pipeline's vector wakeups) drain it instead of polling.
    touched: SlotSet,
}

impl VectorRegisterFile {
    /// Creates a file of `count` registers of `vector_length` elements each.
    /// With `unbounded`, allocation never fails (the file grows on demand).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or `vector_length` is outside `1..=64`
    /// (element flags are lanes of a `u64`).
    #[must_use]
    pub fn new(count: usize, vector_length: usize, unbounded: bool) -> Self {
        assert!(
            count > 0,
            "vector register file must have at least one register"
        );
        assert_vector_length(vector_length);
        VectorRegisterFile {
            regs: (0..count)
                .map(|_| VectorRegister::new(vector_length))
                .collect(),
            vector_length,
            unbounded,
            usage: ElementUsage::default(),
            allocation_failures: 0,
            free_set: SlotSet::full(count),
            allocated_set: SlotSet::new(),
            addr_union: None,
            addr_union_dirty: false,
            scan_scratch: Vec::new(),
            touched: SlotSet::new(),
        }
    }

    /// The configured vector length.
    #[must_use]
    pub fn vector_length(&self) -> usize {
        self.vector_length
    }

    /// Number of registers currently allocated.
    #[must_use]
    pub fn allocated_count(&self) -> usize {
        self.allocated_set.len()
    }

    /// Number of registers currently free.
    #[must_use]
    pub fn free_count(&self) -> usize {
        self.regs.len() - self.allocated_count()
    }

    /// Number of allocation requests that failed for lack of a free register.
    #[must_use]
    pub fn allocation_failures(&self) -> u64 {
        self.allocation_failures
    }

    /// Element-usage statistics accumulated over released registers.
    #[must_use]
    pub fn usage(&self) -> &ElementUsage {
        &self.usage
    }

    /// Allocates a register for the instruction at `pc`, tagging it with the
    /// current MRBB.  Returns `None` when no register is free (§3.3: the
    /// instruction then continues in scalar mode).
    pub fn allocate(&mut self, pc: u64, mrbb: u64) -> Option<VregId> {
        let idx = match self.free_set.pop_first() {
            Some(i) => i as usize,
            None if self.unbounded => {
                self.regs.push(VectorRegister::new(self.vector_length));
                self.regs.len() - 1
            }
            None => {
                self.allocation_failures += 1;
                return None;
            }
        };
        self.allocated_set.insert(idx as u32);
        self.touched.insert(idx as u32);
        let reg = &mut self.regs[idx];
        // Reset in place: the register keeps its storage across generations.
        reg.allocated = true;
        reg.pc = pc;
        reg.mrbb = mrbb;
        reg.generation += 1;
        reg.valid = 0;
        reg.ready = 0;
        reg.used = 0;
        reg.free = 0;
        reg.poisoned = 0;
        reg.addr_range = None;
        Some(VregId(idx as u32))
    }

    /// The current allocation generation of `id` (see [`VectorRegister::generation`]).
    #[must_use]
    pub fn generation(&self, id: VregId) -> u64 {
        self.get(id).generation()
    }

    /// Borrows a register.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn get(&self, id: VregId) -> &VectorRegister {
        &self.regs[id.index()]
    }

    fn get_mut(&mut self, id: VregId) -> &mut VectorRegister {
        &mut self.regs[id.index()]
    }

    /// Records the address range covered by a vectorized load.
    pub fn set_addr_range(&mut self, id: VregId, first: u64, last: u64) {
        let range = (first.min(last), first.max(last));
        self.get_mut(id).addr_range = Some(range);
        // Widening the union is exact; narrowing happens lazily on release.
        self.addr_union = match self.addr_union {
            Some((lo, hi)) => Some((lo.min(range.0), hi.max(range.1))),
            None => Some(range),
        };
    }

    /// Marks element `offset` as computed (R flag).
    pub fn set_ready(&mut self, id: VregId, offset: usize) {
        let reg = &mut self.regs[id.index()];
        let bit = reg.lane(offset);
        if reg.ready & bit == 0 {
            reg.ready |= bit;
            self.touched.insert(id.0);
        }
    }

    /// Whether element `offset` has been computed.
    #[must_use]
    pub fn is_ready(&self, id: VregId, offset: usize) -> bool {
        let reg = self.get(id);
        reg.ready & reg.lane(offset) != 0
    }

    /// Marks element `offset` as having a dispatched, uncommitted validation (U flag).
    pub fn mark_used(&mut self, id: VregId, offset: usize) {
        let reg = self.get_mut(id);
        reg.used |= reg.lane(offset);
    }

    /// Commits a validation of element `offset`: sets V and clears U.
    pub fn validate(&mut self, id: VregId, offset: usize) {
        let reg = self.get_mut(id);
        let bit = reg.lane(offset);
        reg.valid |= bit;
        reg.used &= !bit;
    }

    /// Marks element `offset` as no longer needed (F flag).
    pub fn set_free_flag(&mut self, id: VregId, offset: usize) {
        let reg = self.get_mut(id);
        reg.free |= reg.lane(offset);
    }

    /// Poisons elements `from..` of a register after a failed validation, so
    /// they are never validated or reused.
    pub fn poison_from(&mut self, id: VregId, from: usize) {
        let reg = &mut self.regs[id.index()];
        let lanes = reg.full & !lanes_below(from);
        let changed = reg.poisoned & lanes != lanes;
        reg.poisoned |= lanes;
        reg.used &= !lanes;
        if changed {
            self.touched.insert(id.0);
        }
    }

    /// Whether element `offset` has been poisoned by a mis-speculation.
    #[must_use]
    pub fn is_poisoned(&self, id: VregId, offset: usize) -> bool {
        let reg = self.get(id);
        reg.poisoned & reg.lane(offset) != 0
    }

    /// Whether element `offset` is resolved for a consumer that read it at
    /// allocation `generation`: the register has since been re-allocated,
    /// or the element is computed or poisoned.  Each of those conditions is
    /// monotonic over a consumer's lifetime.
    #[must_use]
    pub fn element_resolved(&self, id: VregId, generation: u64, offset: usize) -> bool {
        let reg = self.get(id);
        reg.generation != generation || (reg.ready | reg.poisoned) & reg.lane(offset) != 0
    }

    /// Poisons every element from the first one not yet validated (§3.6: a
    /// conflicting store may have made them stale).  Validated elements
    /// keep their data.
    pub fn poison_unvalidated(&mut self, id: VregId) {
        let reg = self.get(id);
        let unvalidated = reg.full & !reg.valid;
        if unvalidated != 0 {
            self.poison_from(id, unvalidated.trailing_zeros() as usize);
        }
    }

    /// Removes and returns the lowest-numbered register whose ready or
    /// poison flags or generation changed since it was last returned.
    pub fn pop_touched(&mut self) -> Option<VregId> {
        self.touched.pop_first().map(VregId)
    }

    /// Releases `id` unconditionally, recording its element usage (used when a
    /// register is invalidated by a store conflict or at the end of a run).
    pub fn force_release(&mut self, id: VregId) {
        if self.regs[id.index()].allocated {
            self.record_usage(id);
            self.release_slot(id);
        }
    }

    /// Marks `id` unallocated and returns it to the free list.
    fn release_slot(&mut self, id: VregId) {
        if self.regs[id.index()].addr_range.is_some() {
            // The union may have narrowed; rebuild on the next store check.
            self.addr_union_dirty = true;
        }
        self.regs[id.index()].allocated = false;
        self.allocated_set.remove(id.0);
        self.free_set.insert(id.0);
    }

    /// Applies the two freeing rules of §3.3 to `id`; releases it and returns
    /// `true` if either rule holds.
    pub fn try_release(&mut self, id: VregId, gmrbb: u64) -> bool {
        let reg = &self.regs[id.index()];
        if !reg.allocated {
            return false;
        }
        if reg.all_ready_and_free() || reg.releasable_after_loop(gmrbb) {
            self.record_usage(id);
            self.release_slot(id);
            true
        } else {
            false
        }
    }

    /// Applies the freeing rules to every allocated register: clears `out`
    /// and fills it with the registers released, reusing an internal
    /// snapshot buffer for the walk.
    pub fn release_eligible_into(&mut self, gmrbb: u64, out: &mut Vec<VregId>) {
        out.clear();
        let mut snapshot = std::mem::take(&mut self.scan_scratch);
        self.allocated_set.snapshot_into(&mut snapshot);
        for i in SlotIter::over(&snapshot) {
            let id = VregId(i);
            if self.try_release(id, gmrbb) {
                out.push(id);
            }
        }
        self.scan_scratch = snapshot;
    }

    /// Clears `out` and fills it with the registers (allocated, with an
    /// address range) whose range overlaps the store `[addr, addr + width)`
    /// — the §3.6 coherence check — in index order.  A lazily maintained
    /// union of all allocated ranges rejects non-overlapping stores (the
    /// overwhelmingly common case) in O(1); only stores inside the union
    /// walk the allocated set.  A stale union (registers released since it
    /// was built) still covers every live range, so it is rebuilt only when
    /// a store falls inside it.
    pub fn conflicting_registers(&mut self, addr: u64, width: u64, out: &mut Vec<VregId>) {
        out.clear();
        let end = addr + width.max(1) - 1;
        let overlaps =
            |union: Option<(u64, u64)>| matches!(union, Some((lo, hi)) if addr <= hi && end >= lo);
        if !overlaps(self.addr_union) {
            return;
        }
        if self.addr_union_dirty {
            self.addr_union = self
                .allocated_set
                .iter()
                .filter_map(|i| self.regs[i as usize].addr_range)
                .reduce(|(lo0, hi0), (lo1, hi1)| (lo0.min(lo1), hi0.max(hi1)));
            self.addr_union_dirty = false;
            if !overlaps(self.addr_union) {
                return;
            }
        }
        out.extend(self.allocated_set.iter().filter_map(|i| {
            self.regs[i as usize]
                .addr_range
                .and_then(|(first, last)| (addr <= last && end >= first).then_some(VregId(i)))
        }));
    }

    /// All currently allocated registers, in index order.
    pub fn allocated_ids(&self) -> impl Iterator<Item = VregId> + '_ {
        self.allocated_set.iter().map(VregId)
    }

    /// Releases every allocated register, recording usage (end of simulation).
    pub fn release_all(&mut self) {
        let mut snapshot = std::mem::take(&mut self.scan_scratch);
        self.allocated_set.snapshot_into(&mut snapshot);
        for i in SlotIter::over(&snapshot) {
            self.force_release(VregId(i));
        }
        self.scan_scratch = snapshot;
    }

    /// The reclaim filter of the engine's reference scan: every element of
    /// `id` is computed or poisoned and none has an uncommitted validation.
    #[must_use]
    pub fn is_settled(&self, id: VregId) -> bool {
        self.get(id).settled()
    }

    fn record_usage(&mut self, id: VregId) {
        let reg = &self.regs[id.index()];
        let (ready, valid, full) = (reg.ready, reg.valid, reg.full);
        self.usage.computed_used += u64::from((ready & valid).count_ones());
        self.usage.computed_not_used += u64::from((ready & !valid).count_ones());
        self.usage.not_computed += u64::from((full & !ready).count_ones());
        self.usage.registers_released += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file() -> VectorRegisterFile {
        VectorRegisterFile::new(4, 4, false)
    }

    #[test]
    fn allocation_and_exhaustion() {
        let mut vrf = file();
        let ids: Vec<_> = (0..4)
            .map(|i| vrf.allocate(0x1000 + i, 0).unwrap())
            .collect();
        assert_eq!(vrf.allocated_count(), 4);
        assert_eq!(vrf.free_count(), 0);
        assert!(vrf.allocate(0x2000, 0).is_none());
        assert_eq!(vrf.allocation_failures(), 1);
        vrf.force_release(ids[2]);
        assert_eq!(vrf.free_count(), 1);
        assert!(vrf.allocate(0x2000, 0).is_some());
    }

    #[test]
    fn unbounded_file_grows() {
        let mut vrf = VectorRegisterFile::new(1, 4, true);
        for pc in 0..10u64 {
            assert!(vrf.allocate(pc, 0).is_some());
        }
        assert_eq!(vrf.allocated_count(), 10);
        assert_eq!(vrf.allocation_failures(), 0);
    }

    #[test]
    fn freeing_rule_one_all_ready_and_free() {
        let mut vrf = file();
        let id = vrf.allocate(0x1000, 0xaaaa).unwrap();
        for i in 0..4 {
            vrf.set_ready(id, i);
            vrf.set_free_flag(id, i);
        }
        assert!(vrf.try_release(id, 0xaaaa), "rule 1 ignores the MRBB");
        assert_eq!(vrf.usage().registers_released, 1);
    }

    #[test]
    fn freeing_rule_one_requires_all_elements() {
        let mut vrf = file();
        let id = vrf.allocate(0x1000, 0).unwrap();
        for i in 0..3 {
            vrf.set_ready(id, i);
            vrf.set_free_flag(id, i);
        }
        vrf.set_ready(id, 3); // last element computed but not freed
        assert!(!vrf.try_release(id, 0));
    }

    #[test]
    fn freeing_rule_two_needs_loop_exit() {
        let mut vrf = file();
        let id = vrf.allocate(0x1000, 0x4000).unwrap();
        // Validate and free the first two elements, compute the rest.
        for i in 0..4 {
            vrf.set_ready(id, i);
        }
        for i in 0..2 {
            vrf.mark_used(id, i);
            vrf.validate(id, i);
            vrf.set_free_flag(id, i);
        }
        // GMRBB still equals the register's MRBB: the loop may still be running.
        assert!(!vrf.try_release(id, 0x4000));
        // Once another backward branch commits the loop is assumed finished.
        assert!(vrf.try_release(id, 0x5000));
    }

    #[test]
    fn freeing_rule_two_blocked_by_in_flight_validation() {
        let mut vrf = file();
        let id = vrf.allocate(0x1000, 0x4000).unwrap();
        for i in 0..4 {
            vrf.set_ready(id, i);
        }
        vrf.mark_used(id, 0); // validation dispatched but not committed
        assert!(!vrf.try_release(id, 0x9999));
        vrf.validate(id, 0);
        vrf.set_free_flag(id, 0);
        assert!(vrf.try_release(id, 0x9999));
    }

    #[test]
    fn usage_statistics_classify_elements() {
        let mut vrf = file();
        let id = vrf.allocate(0x1000, 0).unwrap();
        vrf.set_ready(id, 0);
        vrf.validate(id, 0); // computed + used
        vrf.set_ready(id, 1); // computed, not used
        vrf.set_ready(id, 2); // computed, not used

        // element 3 never computed
        vrf.force_release(id);
        let u = vrf.usage();
        assert_eq!(u.computed_used, 1);
        assert_eq!(u.computed_not_used, 2);
        assert_eq!(u.not_computed, 1);
        assert!((u.avg_computed_used() - 1.0).abs() < 1e-12);
        assert!((u.avg_not_computed() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn store_conflict_detection() {
        let mut vrf = file();
        let a = vrf.allocate(0x1000, 0).unwrap();
        let b = vrf.allocate(0x1004, 0).unwrap();
        vrf.set_addr_range(a, 0x8000, 0x8018);
        vrf.set_addr_range(b, 0x9000, 0x9018);
        let mut out = Vec::new();
        vrf.conflicting_registers(0x8010, 8, &mut out);
        assert_eq!(out, vec![a]);
        vrf.conflicting_registers(0x8fff, 8, &mut out);
        assert_eq!(out, vec![b], "touches first byte of b");
        vrf.conflicting_registers(0x7000, 8, &mut out);
        assert!(out.is_empty());
        vrf.conflicting_registers(0x8018, 0x1000, &mut out);
        assert_eq!(out, vec![a, b]);
    }

    #[test]
    fn poisoning_marks_trailing_elements() {
        let mut vrf = file();
        let id = vrf.allocate(0x1000, 0).unwrap();
        vrf.mark_used(id, 3);
        vrf.poison_from(id, 2);
        assert!(!vrf.is_poisoned(id, 1));
        assert!(vrf.is_poisoned(id, 2));
        assert!(vrf.is_poisoned(id, 3));
        assert!(!vrf.get(id).element(3).used, "poisoning clears U");
    }

    #[test]
    fn release_all_and_eligible() {
        let mut vrf = file();
        let a = vrf.allocate(0x1, 0).unwrap();
        let _b = vrf.allocate(0x2, 0).unwrap();
        for i in 0..4 {
            vrf.set_ready(a, i);
            vrf.set_free_flag(a, i);
        }
        let mut released = Vec::new();
        vrf.release_eligible_into(0, &mut released);
        assert_eq!(released, vec![a]);
        vrf.release_all();
        assert_eq!(vrf.allocated_count(), 0);
        assert_eq!(vrf.usage().registers_released, 2);
    }

    #[test]
    fn free_list_allocates_lowest_index_first() {
        // The free list must reproduce the original linear scan's choice:
        // always the lowest-numbered free register.
        let mut vrf = file();
        let ids: Vec<_> = (0..4)
            .map(|i| vrf.allocate(0x1000 + i, 0).unwrap())
            .collect();
        vrf.force_release(ids[2]);
        vrf.force_release(ids[0]);
        let a = vrf.allocate(0x2000, 0).unwrap();
        assert_eq!(a, ids[0], "lowest free index is re-used first");
        let b = vrf.allocate(0x2004, 0).unwrap();
        assert_eq!(b, ids[2]);
        assert_eq!(vrf.allocated_count(), 4);
        assert_eq!(vrf.allocated_ids().count(), 4);
    }

    #[test]
    fn double_force_release_counts_once() {
        let mut vrf = file();
        let id = vrf.allocate(0x1, 0).unwrap();
        vrf.force_release(id);
        vrf.force_release(id);
        assert_eq!(vrf.usage().registers_released, 1);
    }

    #[test]
    fn touched_journal_reports_readiness_changes_once() {
        let mut vrf = file();
        let a = vrf.allocate(0x1, 0).unwrap();
        let b = vrf.allocate(0x2, 0).unwrap();
        // Allocation is a new generation: both registers are touched.
        assert_eq!(vrf.pop_touched(), Some(a));
        assert_eq!(vrf.pop_touched(), Some(b));
        assert_eq!(vrf.pop_touched(), None);
        // U/V/F changes do not affect readiness.
        vrf.mark_used(b, 0);
        vrf.validate(b, 0);
        vrf.set_free_flag(b, 0);
        assert_eq!(vrf.pop_touched(), None);
        vrf.set_ready(b, 1);
        vrf.set_ready(b, 1);
        vrf.poison_from(a, 2);
        assert_eq!(vrf.pop_touched(), Some(a));
        assert_eq!(vrf.pop_touched(), Some(b));
        // Re-setting flags that are already set is not a change.
        vrf.set_ready(b, 1);
        vrf.poison_from(a, 3);
        assert_eq!(vrf.pop_touched(), None);
        assert!(vrf.element_resolved(b, vrf.generation(b), 1));
        assert!(!vrf.element_resolved(b, vrf.generation(b), 2));
        assert!(
            vrf.element_resolved(b, vrf.generation(b) - 1, 2),
            "stale generation"
        );
    }

    #[test]
    fn poison_unvalidated_starts_at_the_first_unvalidated_element() {
        let mut vrf = file();
        let id = vrf.allocate(0x1, 0).unwrap();
        vrf.validate(id, 0);
        vrf.validate(id, 2);
        vrf.poison_unvalidated(id);
        let poisoned: Vec<bool> = (0..4).map(|i| vrf.get(id).element(i).poisoned).collect();
        assert_eq!(poisoned, vec![false, true, true, true]);
    }

    #[test]
    fn sixty_four_lanes_fit_the_masks() {
        let mut vrf = VectorRegisterFile::new(1, 64, false);
        let id = vrf.allocate(0x1, 0).unwrap();
        for i in 0..64 {
            vrf.set_ready(id, i);
            vrf.set_free_flag(id, i);
        }
        assert!(vrf.get(id).element(63).ready);
        assert!(vrf.try_release(id, 0));
        assert_eq!(vrf.usage().computed_not_used, 64);
    }

    #[test]
    #[should_panic(expected = "vector length must be between 1 and 64")]
    fn vector_length_above_64_is_rejected() {
        let _ = VectorRegisterFile::new(4, 65, false);
    }

    #[test]
    #[should_panic(expected = "vector length must be between 1 and 64")]
    fn zero_vector_length_is_rejected() {
        let _ = VectorRegisterFile::new(4, 0, false);
    }

    #[test]
    #[should_panic(expected = "outside the vector length")]
    fn element_beyond_the_vector_length_panics() {
        let mut vrf = file();
        let id = vrf.allocate(0x1, 0).unwrap();
        vrf.set_ready(id, 4);
    }
}

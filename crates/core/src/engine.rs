//! The vectorization decision engine.
//!
//! [`VectorizationEngine`] owns the Table of Loads, the VRMT, the vector
//! register file and the speculative/committed logical-register maps, and
//! implements the decode- and commit-time rules of §3.2–§3.6.  It is entirely
//! timing-agnostic: the pipeline model (`sdv-uarch`) feeds it events and uses
//! the returned [`DecodeOutcome`] to decide what to do with each instruction.

use crate::config::DvConfig;
use crate::stats::DvStats;
use crate::tl::TableOfLoads;
use crate::vreg::{VectorRegisterFile, VregId};
use crate::vrmt::{LoadPattern, Operand, Vrmt, VrmtEntry};
use sdv_isa::{ArchReg, OpClass, NUM_ARCH_REGS};

/// What a vector instance computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VectorOpKind {
    /// A vectorized load: elements are fetched from memory following `pattern`.
    Load {
        /// The predicted address pattern.
        pattern: LoadPattern,
    },
    /// A vectorized arithmetic operation of the given class.
    Arith {
        /// Functional-unit class of the operation.
        class: OpClass,
    },
}

/// A newly created vector instance that must be dispatched to the vector data path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NewVectorInstance {
    /// Destination vector register.
    pub vreg: VregId,
    /// PC of the owning static instruction.
    pub pc: u64,
    /// What to compute.
    pub kind: VectorOpKind,
    /// First element index to compute (elements below it are never produced;
    /// Figure 9 reports how often this is non-zero).
    pub start_offset: usize,
    /// First source operand (element-aligned with the destination).
    pub src1: Operand,
    /// Second source operand.
    pub src2: Operand,
}

/// The decision taken for one decoded scalar instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeOutcome {
    /// Execute in scalar mode (not vectorized, vectorization impossible, or a
    /// validation just failed).
    Scalar,
    /// The instruction was turned into a validation of `offset` in `vreg`
    /// (§3.2).  It must not execute; it completes once the element is ready
    /// and, at commit, sets the element's V flag.
    Validation {
        /// The vector register being validated.
        vreg: VregId,
        /// The element being validated.
        offset: usize,
        /// §3.2: "if the validated element is the last one of the vector, a
        /// new instance of the vectorized instruction is dispatched to the
        /// vector data-path".  For vectorized loads this follow-on instance
        /// continues the address pattern one vector length further, so the
        /// data is prefetched before the scalar stream reaches it.
        follow_on: Option<NewVectorInstance>,
    },
    /// The instruction triggered the creation of a new vector instance.  The
    /// scalar instruction itself behaves as a validation of element
    /// `instance.start_offset`, and `instance` must be dispatched to the
    /// vector data path.
    NewVector {
        /// The instance to launch.
        instance: NewVectorInstance,
    },
}

impl DecodeOutcome {
    /// Whether the instruction was executed in vector mode (validation or new instance).
    #[must_use]
    pub fn is_vectorized(&self) -> bool {
        !matches!(self, DecodeOutcome::Scalar)
    }

    /// The element this instruction validates, if it was vectorized.
    #[must_use]
    pub fn validated_element(&self) -> Option<(VregId, usize)> {
        match self {
            DecodeOutcome::Scalar => None,
            DecodeOutcome::Validation { vreg, offset, .. } => Some((*vreg, *offset)),
            DecodeOutcome::NewVector { instance } => Some((instance.vreg, instance.start_offset)),
        }
    }

    /// The vector instance that must be launched on the vector data path as a
    /// consequence of this decode, if any.
    #[must_use]
    pub fn instance_to_launch(&self) -> Option<&NewVectorInstance> {
        match self {
            DecodeOutcome::Scalar => None,
            DecodeOutcome::Validation { follow_on, .. } => follow_on.as_ref(),
            DecodeOutcome::NewVector { instance } => Some(instance),
        }
    }
}

/// The result of checking a committing store against the vector registers (§3.6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCheck {
    /// Number of vector registers whose address range contains the stored
    /// address.
    pub conflicting: usize,
    /// Whether the pipeline must squash the instructions following the store.
    pub squash: bool,
}

/// Everything the engine needs to know about a decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeContext {
    /// PC of the instruction.
    pub pc: u64,
    /// Operation class.
    pub class: OpClass,
    /// Destination architectural register, if any.
    pub dst: Option<ArchReg>,
    /// Source registers and their current architectural values (bit patterns).
    pub srcs: [Option<(ArchReg, u64)>; 2],
    /// Effective address (loads and stores).
    pub ea: Option<u64>,
    /// Memory access width in bytes (loads and stores).
    pub mem_width: Option<u64>,
}

impl DecodeContext {
    /// A load: `dst = mem[ea]` with an access of `width` bytes.
    #[must_use]
    pub fn load(pc: u64, dst: ArchReg, ea: u64, width: u64) -> Self {
        DecodeContext {
            pc,
            class: OpClass::Load,
            dst: Some(dst),
            srcs: [None, None],
            ea: Some(ea),
            mem_width: Some(width),
        }
    }

    /// An arithmetic instruction with up to two register sources
    /// (`(register, current value)` pairs).
    #[must_use]
    pub fn arith(pc: u64, class: OpClass, dst: ArchReg, srcs: [Option<(ArchReg, u64)>; 2]) -> Self {
        DecodeContext {
            pc,
            class,
            dst: Some(dst),
            srcs,
            ea: None,
            mem_width: None,
        }
    }

    /// Any other instruction (store, branch, jump, …); only its destination
    /// register (if any) matters to the engine.
    #[must_use]
    pub fn other(pc: u64, class: OpClass, dst: Option<ArchReg>) -> Self {
        DecodeContext {
            pc,
            class,
            dst,
            srcs: [None, None],
            ea: None,
            mem_width: None,
        }
    }
}

/// The speculative dynamic vectorization engine.
#[derive(Debug, Clone)]
pub struct VectorizationEngine {
    cfg: DvConfig,
    tl: TableOfLoads,
    vrmt: Vrmt,
    vrf: VectorRegisterFile,
    /// Speculative decode-time mapping: logical register → latest vector element.
    reg_map: Vec<Option<(VregId, usize)>>,
    /// Commit-time mapping: logical register → last committed vector element
    /// (used to set F flags when the next producer of the register commits).
    committed_map: Vec<Option<(VregId, usize)>>,
    /// Per-vector-register count of references from `reg_map` and
    /// `committed_map` combined, so the release scan's liveness check is O(1)
    /// per register instead of a walk over both maps.
    map_refs: Vec<u32>,
    /// Global Most Recent Backward Branch (PC of the last committed backward branch).
    gmrbb: u64,
    /// Backward-branch commits since the last full release scan (the scan is
    /// throttled because it walks every allocated register).
    release_pending: u32,
    /// Reusable buffers for the release scan (it runs on the decode/commit
    /// fast path, so it must not allocate per invocation).
    release_scratch: Vec<VregId>,
    reclaim_scratch: Vec<VregId>,
    /// Reusable buffer for the §3.6 conflicting-register set.
    conflict_scratch: Vec<VregId>,
    stats: DvStats,
}

impl VectorizationEngine {
    /// Creates an engine with the given hardware sizing.
    #[must_use]
    pub fn new(cfg: &DvConfig) -> Self {
        VectorizationEngine {
            cfg: *cfg,
            tl: TableOfLoads::new(
                cfg.tl_sets,
                cfg.tl_ways,
                cfg.confidence_threshold,
                cfg.unbounded,
            ),
            vrmt: Vrmt::new(cfg.vrmt_sets, cfg.vrmt_ways, cfg.unbounded),
            vrf: VectorRegisterFile::new(cfg.vector_registers, cfg.vector_length, cfg.unbounded),
            reg_map: vec![None; NUM_ARCH_REGS],
            committed_map: vec![None; NUM_ARCH_REGS],
            map_refs: vec![0; cfg.vector_registers],
            gmrbb: 0,
            release_pending: 0,
            release_scratch: Vec::new(),
            reclaim_scratch: Vec::new(),
            conflict_scratch: Vec::new(),
            stats: DvStats::default(),
        }
    }

    fn map_ref_inc(map_refs: &mut Vec<u32>, id: VregId) {
        let idx = id.index();
        if idx >= map_refs.len() {
            map_refs.resize(idx + 1, 0);
        }
        map_refs[idx] += 1;
    }

    fn map_ref_dec(map_refs: &mut [u32], id: VregId) {
        debug_assert!(map_refs.get(id.index()).is_some_and(|&c| c > 0));
        if let Some(c) = map_refs.get_mut(id.index()) {
            *c = c.saturating_sub(1);
        }
    }

    /// Writes a speculative-map slot, maintaining the reference counts.
    fn set_reg_map(&mut self, slot: usize, value: Option<(VregId, usize)>) {
        if let Some((old, _)) = self.reg_map[slot] {
            Self::map_ref_dec(&mut self.map_refs, old);
        }
        if let Some((new, _)) = value {
            Self::map_ref_inc(&mut self.map_refs, new);
        }
        self.reg_map[slot] = value;
    }

    /// Writes a committed-map slot, maintaining the reference counts.
    fn set_committed_map(&mut self, slot: usize, value: Option<(VregId, usize)>) {
        if let Some((old, _)) = self.committed_map[slot] {
            Self::map_ref_dec(&mut self.map_refs, old);
        }
        if let Some((new, _)) = value {
            Self::map_ref_inc(&mut self.map_refs, new);
        }
        self.committed_map[slot] = value;
    }

    /// The hardware configuration.
    #[must_use]
    pub fn config(&self) -> &DvConfig {
        &self.cfg
    }

    /// Event counters.
    #[must_use]
    pub fn stats(&self) -> &DvStats {
        &self.stats
    }

    /// The vector register file (element flags, usage statistics).
    #[must_use]
    pub fn vrf(&self) -> &VectorRegisterFile {
        &self.vrf
    }

    /// The Table of Loads.
    #[must_use]
    pub fn tl(&self) -> &TableOfLoads {
        &self.tl
    }

    /// The VRMT.
    #[must_use]
    pub fn vrmt(&self) -> &Vrmt {
        &self.vrmt
    }

    /// The PC held by the GMRBB register.
    #[must_use]
    pub fn gmrbb(&self) -> u64 {
        self.gmrbb
    }

    /// The vector element a logical register is currently (speculatively) mapped to.
    #[must_use]
    pub fn current_mapping(&self, reg: ArchReg) -> Option<(VregId, usize)> {
        self.reg_map[reg.flat_index()]
    }

    /// Batched form of [`Self::current_mapping`]: resolves both source
    /// operands of one instruction in a single call.  The pipeline's group
    /// dispatch uses this to take one mapping pass per instruction instead
    /// of re-querying each register for every predicate it evaluates.
    #[must_use]
    pub fn current_mappings(&self, srcs: [Option<ArchReg>; 2]) -> [Option<(VregId, usize)>; 2] {
        srcs.map(|reg| reg.and_then(|r| self.reg_map[r.flat_index()]))
    }

    /// Whether element `offset` of `vreg` has been computed (its R flag is set).
    #[must_use]
    pub fn element_ready(&self, vreg: VregId, offset: usize) -> bool {
        self.vrf.is_ready(vreg, offset)
    }

    /// The allocation generation of `vreg`, used by the pipeline to detect
    /// that a register it was tracking has been released and re-allocated.
    #[must_use]
    pub fn vreg_generation(&self, vreg: VregId) -> u64 {
        self.vrf.generation(vreg)
    }

    /// Whether element `offset` of `vreg` is resolved for a consumer that
    /// read it at allocation `generation`: re-allocated since, computed, or
    /// poisoned (see [`VectorRegisterFile::element_resolved`]).
    #[must_use]
    pub fn element_resolved(&self, vreg: VregId, generation: u64, offset: usize) -> bool {
        self.vrf.element_resolved(vreg, generation, offset)
    }

    /// Marks element `offset` of `vreg` as computed (called by the vector data path).
    pub fn set_element_ready(&mut self, vreg: VregId, offset: usize) {
        self.vrf.set_ready(vreg, offset);
    }

    /// Removes and returns one vector register whose readiness inputs
    /// (ready or poison flags, generation) changed since it was last
    /// returned — the journal behind the pipeline's event-driven vector
    /// wakeups (see [`VectorRegisterFile::pop_touched`]).
    pub fn pop_touched(&mut self) -> Option<VregId> {
        self.vrf.pop_touched()
    }

    // ------------------------------------------------------------- decode

    /// Processes one decoded instruction and decides whether it executes in
    /// scalar mode, validates a vector element, or spawns a new vector instance.
    pub fn decode(&mut self, ctx: &DecodeContext) -> DecodeOutcome {
        match ctx.class {
            OpClass::Load => self.decode_load(ctx),
            c if c.is_vectorizable() => self.decode_arith(ctx),
            _ => {
                // Stores, branches, jumps, nops: never vectorized.  A scalar
                // write to a register ends its association with a vector element.
                if let Some(dst) = ctx.dst {
                    self.set_reg_map(dst.flat_index(), None);
                }
                DecodeOutcome::Scalar
            }
        }
    }

    fn decode_load(&mut self, ctx: &DecodeContext) -> DecodeOutcome {
        let ea = ctx.ea.expect("load context carries an effective address");
        let width = ctx.mem_width.expect("load context carries a width");
        let dst = ctx.dst.expect("loads have a destination");
        self.stats.loads_observed += 1;
        let obs = self.tl.observe(ctx.pc, ea);

        if let Some(entry) = self.vrmt.lookup(ctx.pc).copied() {
            let vl = self.cfg.vector_length;
            if entry.offset < vl {
                let pattern = entry.load.expect("load VRMT entries carry a pattern");
                let expected = pattern.addr_of(entry.offset);
                let healthy = self.vrf.get(entry.vreg).is_allocated()
                    && !self.vrf.is_poisoned(entry.vreg, entry.offset);
                if healthy && expected == ea {
                    self.stats.load_validations += 1;
                    return self.validate_element(ctx.pc, entry, dst);
                }
                // Mis-speculation: the predicted address was wrong or the
                // register was invalidated.  Fall back to scalar and let a new
                // pattern be re-detected.
                self.stats.validation_failures += 1;
                if self.vrf.get(entry.vreg).is_allocated() {
                    self.vrf.poison_from(entry.vreg, entry.offset);
                }
                self.vrmt.invalidate_pc(ctx.pc);
                self.unmap_if_points_to(dst, entry.vreg);
            } else {
                // Every element has been validated: this instance starts the
                // next vector instance (or goes scalar if that fails).
                self.vrmt.invalidate_pc(ctx.pc);
            }
        }

        if obs.vectorize {
            if let Some(outcome) = self.new_load_instance(ctx.pc, dst, ea, obs.stride, width) {
                return outcome;
            }
        }
        self.set_reg_map(dst.flat_index(), None);
        DecodeOutcome::Scalar
    }

    fn decode_arith(&mut self, ctx: &DecodeContext) -> DecodeOutcome {
        let dst = ctx.dst.expect("vectorizable arithmetic has a destination");
        let current_ops = [
            self.describe_operand(ctx.srcs[0]),
            self.describe_operand(ctx.srcs[1]),
        ];
        let any_vector = current_ops.iter().any(Operand::is_vector);

        if let Some(entry) = self.vrmt.lookup(ctx.pc).copied() {
            let vl = self.cfg.vector_length;
            if entry.offset < vl {
                let healthy = self.vrf.get(entry.vreg).is_allocated()
                    && !self.vrf.is_poisoned(entry.vreg, entry.offset)
                    && self.sources_healthy(&entry, entry.offset);
                let matches = operands_match(&entry.src1, &current_ops[0])
                    && operands_match(&entry.src2, &current_ops[1]);
                if healthy && matches {
                    self.stats.arith_validations += 1;
                    return self.validate_element(ctx.pc, entry, dst);
                }
                self.stats.validation_failures += 1;
                if self.vrf.get(entry.vreg).is_allocated() {
                    self.vrf.poison_from(entry.vreg, entry.offset);
                }
                self.vrmt.invalidate_pc(ctx.pc);
                self.unmap_if_points_to(dst, entry.vreg);
            } else {
                self.vrmt.invalidate_pc(ctx.pc);
            }
        }

        if any_vector {
            if let Some(outcome) = self.new_arith_instance(ctx.pc, ctx.class, dst, current_ops) {
                return outcome;
            }
        }
        self.set_reg_map(dst.flat_index(), None);
        DecodeOutcome::Scalar
    }

    /// Turns the current scalar instance into a validation of
    /// `entry.offset` and advances the VRMT offset.  When the last element of
    /// a vectorized load is validated, a follow-on instance continuing the
    /// address pattern is created immediately (§3.2).
    fn validate_element(&mut self, pc: u64, entry: VrmtEntry, dst: ArchReg) -> DecodeOutcome {
        let offset = entry.offset;
        self.vrf.mark_used(entry.vreg, offset);
        self.set_reg_map(dst.flat_index(), Some((entry.vreg, offset)));
        if let Some(e) = self.vrmt.lookup_mut(pc) {
            e.offset = offset + 1;
        }
        let mut follow_on = None;
        if offset + 1 == self.cfg.vector_length {
            if let Some(pattern) = entry.load {
                follow_on = self.follow_on_load_instance(pc, pattern);
            }
        }
        DecodeOutcome::Validation {
            vreg: entry.vreg,
            offset,
            follow_on,
        }
    }

    /// Creates the next vector instance of a vectorized load, one vector
    /// length further along its address pattern.
    fn follow_on_load_instance(
        &mut self,
        pc: u64,
        pattern: LoadPattern,
    ) -> Option<NewVectorInstance> {
        let vl = self.cfg.vector_length;
        let next = LoadPattern {
            base_addr: pattern.addr_of(vl),
            ..pattern
        };
        let Some(vreg) = self.allocate_vreg(pc) else {
            self.stats.no_free_vreg += 1;
            return None;
        };
        let first = next.addr_of(0);
        let last = next.addr_of(vl - 1);
        let (lo, hi) = if first <= last {
            (first, last)
        } else {
            (last, first)
        };
        self.vrf.set_addr_range(vreg, lo, hi + next.width - 1);
        self.vrmt.insert(VrmtEntry {
            pc,
            vreg,
            offset: 0,
            src1: Operand::None,
            src2: Operand::None,
            load: Some(next),
        });
        self.stats.load_instances += 1;
        self.stats.elements_launched += vl as u64;
        Some(NewVectorInstance {
            vreg,
            pc,
            kind: VectorOpKind::Load { pattern: next },
            start_offset: 0,
            src1: Operand::None,
            src2: Operand::None,
        })
    }

    /// Allocates a vector register, reclaiming eligible registers first if the
    /// file is exhausted.
    fn allocate_vreg(&mut self, pc: u64) -> Option<VregId> {
        if let Some(vreg) = self.vrf.allocate(pc, self.gmrbb) {
            return Some(vreg);
        }
        self.release_registers();
        self.vrf.allocate(pc, self.gmrbb)
    }

    fn new_load_instance(
        &mut self,
        pc: u64,
        dst: ArchReg,
        ea: u64,
        stride: i64,
        width: u64,
    ) -> Option<DecodeOutcome> {
        let Some(vreg) = self.allocate_vreg(pc) else {
            self.stats.no_free_vreg += 1;
            return None;
        };
        let vl = self.cfg.vector_length;
        let pattern = LoadPattern {
            base_addr: ea,
            stride,
            width,
        };
        // Address range covered by the whole instance, for store coherence.
        let first = pattern.addr_of(0);
        let last = pattern.addr_of(vl - 1);
        let (lo, hi) = if first <= last {
            (first, last)
        } else {
            (last, first)
        };
        self.vrf.set_addr_range(vreg, lo, hi + width - 1);

        let entry = VrmtEntry {
            pc,
            vreg,
            offset: 1, // the triggering instance validates element 0
            src1: Operand::None,
            src2: Operand::None,
            load: Some(pattern),
        };
        self.vrmt.insert(entry);
        self.vrf.mark_used(vreg, 0);
        self.set_reg_map(dst.flat_index(), Some((vreg, 0)));
        self.stats.load_instances += 1;
        self.stats.elements_launched += vl as u64;
        Some(DecodeOutcome::NewVector {
            instance: NewVectorInstance {
                vreg,
                pc,
                kind: VectorOpKind::Load { pattern },
                start_offset: 0,
                src1: Operand::None,
                src2: Operand::None,
            },
        })
    }

    fn new_arith_instance(
        &mut self,
        pc: u64,
        class: OpClass,
        dst: ArchReg,
        ops: [Operand; 2],
    ) -> Option<DecodeOutcome> {
        let Some(vreg) = self.allocate_vreg(pc) else {
            self.stats.no_free_vreg += 1;
            return None;
        };
        let vl = self.cfg.vector_length;
        let start_offset = ops
            .iter()
            .map(Operand::offset)
            .max()
            .unwrap_or(0)
            .min(vl - 1);
        if start_offset != 0 {
            self.stats.instances_with_nonzero_offset += 1;
        }
        // Elements below the starting offset are never produced; mark them
        // done so the freeing rules of §3.3 still apply.
        for i in 0..start_offset {
            self.vrf.set_ready(vreg, i);
            self.vrf.set_free_flag(vreg, i);
        }
        let entry = VrmtEntry {
            pc,
            vreg,
            offset: start_offset + 1,
            src1: ops[0],
            src2: ops[1],
            load: None,
        };
        self.vrmt.insert(entry);
        self.vrf.mark_used(vreg, start_offset);
        self.set_reg_map(dst.flat_index(), Some((vreg, start_offset)));
        self.stats.arith_instances += 1;
        self.stats.elements_launched += (vl - start_offset) as u64;
        Some(DecodeOutcome::NewVector {
            instance: NewVectorInstance {
                vreg,
                pc,
                kind: VectorOpKind::Arith { class },
                start_offset,
                src1: ops[0],
                src2: ops[1],
            },
        })
    }

    fn describe_operand(&self, src: Option<(ArchReg, u64)>) -> Operand {
        match src {
            None => Operand::None,
            Some((reg, value)) => match self.reg_map[reg.flat_index()] {
                Some((vreg, offset)) if self.vrf.get(vreg).is_allocated() => {
                    Operand::Vector { reg, vreg, offset }
                }
                _ => Operand::Scalar { reg, value },
            },
        }
    }

    /// Whether the source elements this validation would rely on are allocated
    /// and not poisoned.
    fn sources_healthy(&self, entry: &VrmtEntry, offset: usize) -> bool {
        [&entry.src1, &entry.src2].into_iter().all(|op| match op {
            Operand::Vector { vreg, .. } => {
                self.vrf.get(*vreg).is_allocated() && !self.vrf.is_poisoned(*vreg, offset)
            }
            _ => true,
        })
    }

    fn unmap_if_points_to(&mut self, reg: ArchReg, vreg: VregId) {
        if let Some((mapped, _)) = self.reg_map[reg.flat_index()] {
            if mapped == vreg {
                self.set_reg_map(reg.flat_index(), None);
            }
        }
    }

    // ------------------------------------------------------------- commit

    /// Commits a validation of `offset` in `vreg`: sets its V flag, clears U,
    /// and frees the element previously architecturally mapped to `dst`.
    pub fn commit_validation(&mut self, vreg: VregId, offset: usize, dst: Option<ArchReg>) {
        if self.vrf.get(vreg).is_allocated() {
            self.vrf.validate(vreg, offset);
        }
        if let Some(dst) = dst {
            self.free_previous_committed(dst);
            self.set_committed_map(dst.flat_index(), Some((vreg, offset)));
        }
    }

    /// Commits a scalar instruction that writes `dst`: the previously committed
    /// vector element for `dst` (if any) receives its F flag (§3.3).
    pub fn commit_scalar_write(&mut self, dst: ArchReg) {
        self.free_previous_committed(dst);
        self.set_committed_map(dst.flat_index(), None);
    }

    fn free_previous_committed(&mut self, dst: ArchReg) {
        if let Some((vreg, offset)) = self.committed_map[dst.flat_index()] {
            if self.vrf.get(vreg).is_allocated() {
                self.vrf.set_free_flag(vreg, offset);
            }
        }
    }

    /// Checks a committing store against every vector register's address range
    /// (§3.6).  Conflicting registers have their VRMT entries invalidated and
    /// their unvalidated elements poisoned; the caller must squash the
    /// instructions following the store when `squash` is set.
    pub fn commit_store(&mut self, addr: u64, width: u64) -> StoreCheck {
        self.stats.stores_checked += 1;
        let mut conflicting = std::mem::take(&mut self.conflict_scratch);
        self.vrf
            .conflicting_registers(addr, width, &mut conflicting);
        if conflicting.is_empty() {
            self.conflict_scratch = conflicting;
            return StoreCheck::default();
        }
        self.stats.store_conflicts += 1;
        for &vreg in &conflicting {
            let _ = self.vrmt.invalidate_vreg(vreg);
            // Elements that have not been validated yet may hold stale data.
            self.vrf.poison_unvalidated(vreg);
            if self.map_references(vreg) {
                for slot in 0..self.reg_map.len() {
                    if matches!(self.reg_map[slot], Some((v, _)) if v == vreg) {
                        self.set_reg_map(slot, None);
                    }
                }
            }
        }
        let check = StoreCheck {
            conflicting: conflicting.len(),
            squash: true,
        };
        self.conflict_scratch = conflicting;
        check
    }

    /// Commits a control instruction; taken backward branches update the GMRBB
    /// register (§3.3) and make loop-scoped vector registers eligible for release.
    ///
    /// The full release scan walks every allocated register, so it is throttled
    /// to run when the backward-branch PC changes (a different loop closed) or
    /// after a handful of commits of the same loop branch — registers are also
    /// reclaimed on demand when an allocation fails, so throttling never causes
    /// vectorization to starve.
    pub fn commit_control(&mut self, pc: u64, taken: bool, target: u64) {
        if taken && target <= pc {
            let changed = self.gmrbb != pc;
            self.gmrbb = pc;
            self.release_pending += 1;
            if changed || self.release_pending >= 8 {
                self.release_pending = 0;
                self.release_registers();
            }
        }
    }

    /// Applies the register freeing rules and reclaims registers that are no
    /// longer referenced by any table.  Returns the number of registers released.
    pub fn release_registers(&mut self) -> usize {
        let mut released = std::mem::take(&mut self.release_scratch);
        self.vrf.release_eligible_into(self.gmrbb, &mut released);
        for &id in &released {
            self.forget_register(id);
        }
        let reclaimed = released.len();
        self.release_scratch = released;

        // Reference scan: registers whose VRMT entry has been replaced and that
        // no logical register maps to any more can never be validated again;
        // reclaim them once the vector data path has finished with them.
        let mut candidates = std::mem::take(&mut self.reclaim_scratch);
        candidates.clear();
        candidates.extend(
            self.vrf
                .allocated_ids()
                .filter(|&id| !self.vrmt.references(id) && !self.map_references(id))
                .filter(|&id| self.vrf.is_settled(id)),
        );
        for &id in &candidates {
            self.vrf.force_release(id);
            self.forget_register(id);
        }
        let reclaimed = reclaimed + candidates.len();
        self.reclaim_scratch = candidates;
        reclaimed
    }

    fn map_references(&self, id: VregId) -> bool {
        self.map_refs.get(id.index()).copied().unwrap_or(0) > 0
    }

    fn forget_register(&mut self, id: VregId) {
        let _ = self.vrmt.invalidate_vreg(id);
        if !self.map_references(id) {
            return;
        }
        for slot in 0..self.reg_map.len() {
            if matches!(self.reg_map[slot], Some((v, _)) if v == id) {
                self.set_reg_map(slot, None);
            }
        }
        for slot in 0..self.committed_map.len() {
            if matches!(self.committed_map[slot], Some((v, _)) if v == id) {
                self.set_committed_map(slot, None);
            }
        }
    }

    /// Finishes a run: releases every vector register so the element-usage
    /// statistics (Figure 15) account for work still in flight.
    pub fn finish(&mut self) {
        self.vrf.release_all();
    }
}

fn operands_match(recorded: &Operand, current: &Operand) -> bool {
    match (recorded, current) {
        (Operand::None, Operand::None) => true,
        (Operand::Scalar { reg: r1, value: v1 }, Operand::Scalar { reg: r2, value: v2 }) => {
            r1 == r2 && v1 == v2
        }
        (Operand::Vector { vreg: a, .. }, Operand::Vector { vreg: b, .. }) => a == b,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> VectorizationEngine {
        VectorizationEngine::new(&DvConfig::default())
    }

    fn xr(n: u8) -> ArchReg {
        ArchReg::int(n)
    }

    /// Drives a strided load at `pc` until it vectorizes; returns the instance.
    ///
    /// With the paper's TL update rule (reset-on-change, threshold 2) a load
    /// with a non-zero stride vectorizes on its *fourth* dynamic instance: the
    /// second computes the initial stride and the third and fourth confirm it.
    fn vectorize_load(
        e: &mut VectorizationEngine,
        pc: u64,
        base: u64,
        stride: u64,
    ) -> NewVectorInstance {
        let dst = xr(1);
        for i in 0..3u64 {
            let out = e.decode(&DecodeContext::load(pc, dst, base + i * stride, 8));
            assert_eq!(out, DecodeOutcome::Scalar);
        }
        match e.decode(&DecodeContext::load(pc, dst, base + 3 * stride, 8)) {
            DecodeOutcome::NewVector { instance } => instance,
            other => panic!("expected NewVector, got {other:?}"),
        }
    }

    #[test]
    fn strided_load_vectorizes_once_confidence_reaches_two() {
        let mut e = engine();
        let inst = vectorize_load(&mut e, 0x1000, 0x8000, 8);
        assert_eq!(inst.start_offset, 0);
        match inst.kind {
            VectorOpKind::Load { pattern } => {
                assert_eq!(pattern.base_addr, 0x8000 + 24);
                assert_eq!(pattern.stride, 8);
            }
            VectorOpKind::Arith { .. } => panic!("expected a load instance"),
        }
        assert_eq!(e.stats().load_instances, 1);
        // The destination register is now mapped to element 0.
        assert_eq!(e.current_mapping(xr(1)), Some((inst.vreg, 0)));
        // The whole 4-element range is registered for store coherence.
        let (lo, hi) = e.vrf().get(inst.vreg).addr_range().unwrap();
        assert_eq!(lo, 0x8018);
        assert_eq!(hi, 0x8018 + 3 * 8 + 7);
    }

    #[test]
    fn stride_zero_load_vectorizes_on_third_instance() {
        // Stride-0 loads (the most common case in Figure 1) reach confidence 2
        // one instance earlier because the TL entry is installed with stride 0.
        let mut e = engine();
        let dst = xr(1);
        assert_eq!(
            e.decode(&DecodeContext::load(0x1000, dst, 0x9000, 8)),
            DecodeOutcome::Scalar
        );
        assert_eq!(
            e.decode(&DecodeContext::load(0x1000, dst, 0x9000, 8)),
            DecodeOutcome::Scalar
        );
        assert!(matches!(
            e.decode(&DecodeContext::load(0x1000, dst, 0x9000, 8)),
            DecodeOutcome::NewVector { .. }
        ));
    }

    #[test]
    fn subsequent_instances_become_validations_then_roll_over() {
        let mut e = engine();
        let inst = vectorize_load(&mut e, 0x1000, 0x8000, 8);
        let dst = xr(1);
        // Elements 1..3 validate against the same vector register.  The
        // validation of the last element carries a follow-on instance that
        // continues the pattern (§3.2).
        for k in 1..4usize {
            let ea = 0x8018 + (k as u64) * 8;
            match e.decode(&DecodeContext::load(0x1000, dst, ea, 8)) {
                DecodeOutcome::Validation {
                    vreg,
                    offset,
                    follow_on,
                } => {
                    assert_eq!(vreg, inst.vreg);
                    assert_eq!(offset, k);
                    assert_eq!(
                        follow_on.is_some(),
                        k == 3,
                        "follow-on only on the last element"
                    );
                    if let Some(next) = follow_on {
                        assert_ne!(next.vreg, inst.vreg);
                        assert_eq!(next.start_offset, 0);
                    }
                }
                other => panic!("expected validation of element {k}, got {other:?}"),
            }
        }
        // The next instance validates element 0 of the follow-on register.
        let out = e.decode(&DecodeContext::load(0x1000, dst, 0x8018 + 4 * 8, 8));
        assert!(matches!(out, DecodeOutcome::Validation { offset: 0, .. }));
        assert_eq!(e.stats().load_validations, 4);
        assert_eq!(e.stats().load_instances, 2);
    }

    #[test]
    fn wrong_address_fails_validation_and_goes_scalar() {
        let mut e = engine();
        let inst = vectorize_load(&mut e, 0x1000, 0x8000, 8);
        let dst = xr(1);
        // Break the stride: the predicted address for element 1 is 0x8020.
        let out = e.decode(&DecodeContext::load(0x1000, dst, 0xf000, 8));
        assert_eq!(out, DecodeOutcome::Scalar);
        assert_eq!(e.stats().validation_failures, 1);
        assert!(e.vrf().is_poisoned(inst.vreg, 1));
        assert_eq!(e.current_mapping(dst), None);
        // The VRMT entry is gone, so the next instance is also scalar while the
        // TL re-learns the new pattern.
        let out = e.decode(&DecodeContext::load(0x1000, dst, 0xf008, 8));
        assert_eq!(out, DecodeOutcome::Scalar);
    }

    #[test]
    fn dependent_arith_is_vectorized_transitively() {
        let mut e = engine();
        let load = vectorize_load(&mut e, 0x1000, 0x8000, 8);
        // add x2, x1, x3 where x1 is vector-mapped and x3 is a plain scalar.
        let ctx = DecodeContext::arith(
            0x1004,
            OpClass::IntAlu,
            xr(2),
            [Some((xr(1), 0)), Some((xr(3), 42))],
        );
        let out = e.decode(&ctx);
        let instance = match out {
            DecodeOutcome::NewVector { instance } => instance,
            other => panic!("expected NewVector, got {other:?}"),
        };
        assert_eq!(instance.start_offset, 0);
        assert_eq!(
            instance.kind,
            VectorOpKind::Arith {
                class: OpClass::IntAlu
            }
        );
        assert_eq!(instance.src1.vreg(), Some(load.vreg));
        assert!(matches!(instance.src2, Operand::Scalar { value: 42, .. }));
        assert_eq!(e.stats().arith_instances, 1);
        // A second instance with the same operands validates element 1.
        let out = e.decode(&ctx);
        assert!(matches!(out, DecodeOutcome::Validation { offset: 1, .. }));
        assert_eq!(e.stats().arith_validations, 1);
    }

    #[test]
    fn changed_scalar_operand_value_fails_validation() {
        let mut e = engine();
        let _ = vectorize_load(&mut e, 0x1000, 0x8000, 8);
        let mk = |v: u64| {
            DecodeContext::arith(
                0x1004,
                OpClass::IntAlu,
                xr(2),
                [Some((xr(1), 0)), Some((xr(3), v))],
            )
        };
        assert!(matches!(e.decode(&mk(42)), DecodeOutcome::NewVector { .. }));
        // Same operands: validation.
        assert!(matches!(
            e.decode(&mk(42)),
            DecodeOutcome::Validation { .. }
        ));
        // The scalar register changed value: the recorded instance is stale.
        let out = e.decode(&mk(43));
        // A new instance is created immediately because x1 is still vector-mapped.
        assert!(matches!(out, DecodeOutcome::NewVector { .. }));
        assert_eq!(e.stats().validation_failures, 1);
        assert_eq!(e.stats().arith_instances, 2);
    }

    #[test]
    fn arith_with_no_vector_sources_stays_scalar() {
        let mut e = engine();
        let ctx = DecodeContext::arith(
            0x2000,
            OpClass::IntAlu,
            xr(5),
            [Some((xr(6), 1)), Some((xr(7), 2))],
        );
        assert_eq!(e.decode(&ctx), DecodeOutcome::Scalar);
        assert_eq!(e.stats().arith_instances, 0);
    }

    #[test]
    fn scalar_redefinition_breaks_the_mapping() {
        let mut e = engine();
        let _ = vectorize_load(&mut e, 0x1000, 0x8000, 8);
        assert!(e.current_mapping(xr(1)).is_some());
        // A jump-and-link (non-vectorizable) writing x1 clears the mapping.
        let out = e.decode(&DecodeContext::other(0x1008, OpClass::Jump, Some(xr(1))));
        assert_eq!(out, DecodeOutcome::Scalar);
        assert_eq!(e.current_mapping(xr(1)), None);
        // A dependent add no longer vectorizes.
        let ctx = DecodeContext::arith(0x100c, OpClass::IntAlu, xr(2), [Some((xr(1), 0)), None]);
        assert_eq!(e.decode(&ctx), DecodeOutcome::Scalar);
    }

    #[test]
    fn validation_and_scalar_commit_set_flags() {
        let mut e = engine();
        let inst = vectorize_load(&mut e, 0x1000, 0x8000, 8);
        // Element 0 is validated at commit.
        e.commit_validation(inst.vreg, 0, Some(xr(1)));
        assert!(e.vrf().get(inst.vreg).element(0).valid);
        assert!(!e.vrf().get(inst.vreg).element(0).used);
        // Element 1 commits next; committing it frees element 0 (next producer
        // of x1 committed).
        e.commit_validation(inst.vreg, 1, Some(xr(1)));
        assert!(e.vrf().get(inst.vreg).element(0).free);
        // A later scalar write to x1 frees element 1.
        e.commit_scalar_write(xr(1));
        assert!(e.vrf().get(inst.vreg).element(1).free);
    }

    #[test]
    fn store_conflict_invalidates_and_requests_squash() {
        let mut e = engine();
        let inst = vectorize_load(&mut e, 0x1000, 0x8000, 8);
        // Commit element 0 so it stays valid.
        e.commit_validation(inst.vreg, 0, Some(xr(1)));
        let check = e.commit_store(0x8018, 8); // inside the register's range
        assert!(check.squash);
        assert_eq!(check.conflicting, 1);
        assert_eq!(e.stats().store_conflicts, 1);
        assert!(e.vrmt().is_empty(), "VRMT entry invalidated");
        assert!(
            e.vrf().is_poisoned(inst.vreg, 1),
            "unvalidated elements poisoned"
        );
        assert!(
            !e.vrf().get(inst.vreg).element(0).poisoned,
            "validated element untouched"
        );
        // A store far away does not conflict.
        let check = e.commit_store(0x20_0000, 8);
        assert!(!check.squash);
        assert_eq!(e.stats().stores_checked, 2);
    }

    #[test]
    fn backward_branch_updates_gmrbb_and_releases_registers() {
        let mut e = engine();
        let inst = vectorize_load(&mut e, 0x1000, 0x8000, 8);
        // Finish the register: all elements computed, validated and freed.
        for i in 0..4 {
            e.set_element_ready(inst.vreg, i);
        }
        for i in 0..4 {
            e.commit_validation(inst.vreg, i, Some(xr(1)));
        }
        e.commit_scalar_write(xr(1)); // frees the last element

        // Clear the speculative map so nothing references the register.
        e.decode(&DecodeContext::other(0x1010, OpClass::Jump, Some(xr(1))));
        assert_eq!(e.vrf().allocated_count(), 1);
        e.commit_control(0x1020, true, 0x1000);
        assert_eq!(e.gmrbb(), 0x1020);
        assert_eq!(
            e.vrf().allocated_count(),
            0,
            "register released after the loop"
        );
        assert_eq!(e.vrf().usage().registers_released, 1);
    }

    #[test]
    fn forward_branches_do_not_touch_gmrbb() {
        let mut e = engine();
        e.commit_control(0x1000, true, 0x2000);
        assert_eq!(e.gmrbb(), 0);
        e.commit_control(0x1000, false, 0x900);
        assert_eq!(e.gmrbb(), 0);
    }

    #[test]
    fn no_free_register_falls_back_to_scalar() {
        let cfg = DvConfig {
            vector_registers: 1,
            ..DvConfig::default()
        };
        let mut e = VectorizationEngine::new(&cfg);
        let _ = vectorize_load(&mut e, 0x1000, 0x8000, 8);
        // A second strided load cannot allocate a register.
        for i in 0..3u64 {
            e.decode(&DecodeContext::load(0x2000, xr(4), 0x9000 + i * 8, 8));
        }
        let out = e.decode(&DecodeContext::load(0x2000, xr(4), 0x9018, 8));
        assert_eq!(out, DecodeOutcome::Scalar);
        assert_eq!(e.stats().no_free_vreg, 1);
    }

    #[test]
    fn nonzero_start_offset_is_recorded() {
        let mut e = engine();
        let load = vectorize_load(&mut e, 0x1000, 0x8000, 8);
        // Validate element 1 of the load so its mapping advances.
        let _ = e.decode(&DecodeContext::load(0x1000, xr(1), 0x8020, 8));
        assert_eq!(e.current_mapping(xr(1)), Some((load.vreg, 1)));
        // A consumer vectorized now starts at offset 1.
        let ctx = DecodeContext::arith(0x1100, OpClass::FpAdd, xr(2), [Some((xr(1), 0)), None]);
        let out = e.decode(&ctx);
        match out {
            DecodeOutcome::NewVector { instance } => assert_eq!(instance.start_offset, 1),
            other => panic!("expected NewVector, got {other:?}"),
        }
        assert_eq!(e.stats().instances_with_nonzero_offset, 1);
        assert!((e.stats().nonzero_offset_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unbounded_config_never_runs_out() {
        let mut e = VectorizationEngine::new(&DvConfig::unbounded());
        for j in 0..300u64 {
            let pc = 0x1000 + j * 4;
            for i in 0..4u64 {
                e.decode(&DecodeContext::load(
                    pc,
                    xr(1),
                    0x10_0000 + j * 0x100 + i * 8,
                    8,
                ));
            }
        }
        assert_eq!(e.stats().load_instances, 300);
        assert_eq!(e.stats().no_free_vreg, 0);
    }

    #[test]
    fn finish_accounts_for_in_flight_registers() {
        let mut e = engine();
        let inst = vectorize_load(&mut e, 0x1000, 0x8000, 8);
        e.set_element_ready(inst.vreg, 0);
        e.finish();
        let usage = e.vrf().usage();
        assert_eq!(usage.registers_released, 1);
        assert_eq!(usage.computed_not_used + usage.computed_used, 1);
        assert_eq!(usage.not_computed, 3);
    }

    #[test]
    fn decode_outcome_helpers() {
        let mut e = engine();
        let scalar = e.decode(&DecodeContext::load(0x1000, xr(1), 0x8000, 8));
        assert!(!scalar.is_vectorized());
        assert_eq!(scalar.validated_element(), None);
        let _ = e.decode(&DecodeContext::load(0x1000, xr(1), 0x8008, 8));
        let _ = e.decode(&DecodeContext::load(0x1000, xr(1), 0x8010, 8));
        let nv = e.decode(&DecodeContext::load(0x1000, xr(1), 0x8018, 8));
        assert!(nv.is_vectorized());
        let (vreg, off) = nv.validated_element().unwrap();
        assert_eq!(off, 0);
        let val = e.decode(&DecodeContext::load(0x1000, xr(1), 0x8020, 8));
        assert_eq!(val.validated_element(), Some((vreg, 1)));
    }
}

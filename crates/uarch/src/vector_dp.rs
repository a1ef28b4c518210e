//! The vector data path (§3.4): vector instruction queue, vector functional
//! units and vector load address generation.
//!
//! [`VectorDatapath`] owns the [`sdv_core::VectorizationEngine`], and the
//! pipeline reaches the engine only through it: [`VectorDatapath::decode`]
//! runs the engine's decode and dispatches the vector instance it creates.
//! Each cycle the data path
//!
//! * delivers results whose latency has elapsed (setting the element R flags),
//! * lets every load instance perform at most one L1 access (a *wide* port
//!   brings a whole cache line, so all elements falling in that line complete
//!   with a single access, §3.7),
//! * lets every arithmetic instance start at most one element on a free vector
//!   functional unit (units are fully pipelined).
//!
//! The steady state allocates nothing: element sets (a load's pending
//! elements, the elements one line access serves, the Figure 13 words) are
//! lane masks — the vector length is at most 64 — and the per-register
//! accounting lists and the event heap keep their storage.

use crate::config::FuConfig;
use crate::fu::FuPool;
use crate::pipeline::ExecMode;
use sdv_core::{
    DecodeContext, DecodeOutcome, DvConfig, NewVectorInstance, Operand, VectorOpKind,
    VectorizationEngine, VregId,
};
use sdv_isa::ArchReg;
use sdv_mem::{DataMemory, PortKind, PortSet, WideBusStats};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One element-completion event scheduled for a future cycle, ordered by
/// cycle first (the min-heap key).  Events due in the same cycle are
/// delivered in any order: delivery only sets flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ReadyEvent {
    cycle: u64,
    vreg: VregId,
    generation: u64,
    offset: usize,
}

/// Accounting record for one wide-bus line access made on behalf of a
/// vectorized load (used for Figure 13: words later validated count as useful).
#[derive(Debug, Clone, Copy)]
struct AccessRecord {
    generation: u64,
    /// Lane mask of the elements the access fetched.
    offsets: u64,
    /// Lane mask of those elements a committed validation consumed.
    used: u64,
}

/// Iterates the set lanes of `mask` in ascending order.
fn lanes(mask: u64) -> impl Iterator<Item = usize> {
    std::iter::successors((mask != 0).then_some(mask), |&rest| {
        let next = rest & (rest - 1);
        (next != 0).then_some(next)
    })
    .map(|rest| rest.trailing_zeros() as usize)
}

/// The lane mask `{from, …, n - 1}` (`from <= n <= 64`).
fn lane_range(from: usize, n: usize) -> u64 {
    let below = |k: usize| if k >= 64 { u64::MAX } else { (1u64 << k) - 1 };
    below(n) & !below(from)
}

/// Figure 13 words used by a resolved access (histogram index).
fn useful_words(used: u64) -> usize {
    used.count_ones() as usize
}

/// An in-flight vector instance.
#[derive(Debug, Clone, Copy)]
struct Instance {
    vreg: VregId,
    generation: u64,
    kind: VectorOpKind,
    /// The vector source registers with their allocation generations at
    /// dispatch time (`None` for scalar or absent operands).  A source whose
    /// register has since been re-allocated is treated as ready: the
    /// freeing rules only release fully computed registers.
    srcs: [Option<(VregId, u64)>; 2],
    /// Next element index to start.
    next: usize,
    /// For loads: lane mask of the elements whose access has not started yet.
    pending_loads: u64,
}

/// The vector data path, with the engine whose instances it computes.
#[derive(Debug, Clone)]
pub struct VectorDatapath {
    engine: VectorizationEngine,
    fus: FuPool,
    vl: usize,
    instances: Vec<Instance>,
    /// Pending element-ready events, earliest first.
    events: BinaryHeap<Reverse<ReadyEvent>>,
    /// Open Figure-13 accounting records, one list per destination register
    /// (indexed by register) so validations only touch the handful of
    /// accesses of their own register.
    records: Vec<Vec<AccessRecord>>,
    /// Histogram of already-resolved accesses by number of useful words.
    resolved: Vec<u64>,
    /// Line accesses performed on behalf of vector loads.
    line_accesses: u64,
}

impl VectorDatapath {
    /// Creates an engine sized by `dv` and an empty data path with the
    /// given vector functional units.
    #[must_use]
    pub fn new(dv: &DvConfig, fus: FuConfig) -> Self {
        VectorDatapath {
            engine: VectorizationEngine::new(dv),
            fus: FuPool::new(fus),
            vl: dv.vector_length,
            instances: Vec::new(),
            events: BinaryHeap::new(),
            records: Vec::new(),
            resolved: vec![0; dv.vector_length + 1],
            line_accesses: 0,
        }
    }

    /// The engine: its maps, register file and counters.
    #[must_use]
    pub fn engine(&self) -> &VectorizationEngine {
        &self.engine
    }

    /// The engine, for the commit hooks that touch it alone.  Decode goes
    /// through [`Self::decode`], so every instance it creates is dispatched.
    pub(crate) fn engine_mut(&mut self) -> &mut VectorizationEngine {
        &mut self.engine
    }

    /// Runs the engine's decode (§3.2) on one instruction and dispatches the
    /// vector instance it creates, if any: the instruction's first instance,
    /// or a load's follow-on once its last element validates.  Returns how
    /// the instruction itself executes.
    pub fn decode(&mut self, ctx: &DecodeContext) -> ExecMode {
        let outcome = self.engine.decode(ctx);
        let Some((vreg, offset)) = outcome.validated_element() else {
            return ExecMode::Scalar;
        };
        let generation = self.engine.vreg_generation(vreg);
        if let DecodeOutcome::NewVector { instance }
        | DecodeOutcome::Validation {
            follow_on: Some(instance),
            ..
        } = outcome
        {
            self.dispatch(&instance);
        }
        ExecMode::Validation {
            vreg,
            generation,
            offset,
        }
    }

    /// Number of instances still making progress.
    #[must_use]
    pub fn active_instances(&self) -> usize {
        self.instances.len()
    }

    /// Cycle of the earliest pending element-ready event, if any.
    ///
    /// Only a valid "next thing happens here" bound while
    /// [`VectorDatapath::active_instances`] is zero: an active instance
    /// touches the data cache and functional units *every* cycle, so a frozen
    /// pipeline may not skip over it.  The macro-stepping main loop checks
    /// that before consulting this.
    #[must_use]
    pub fn next_event_cycle(&self) -> Option<u64> {
        self.events.peek().map(|Reverse(e)| e.cycle)
    }

    /// Line accesses performed on behalf of vector loads.
    #[must_use]
    pub fn line_accesses(&self) -> u64 {
        self.line_accesses
    }

    /// Accepts a freshly created vector instance from decode.
    fn dispatch(&mut self, inst: &NewVectorInstance) {
        // The register is being re-used: accounting records from its previous
        // generation can no longer receive validations, so resolve them now.
        let generation = self.engine.vreg_generation(inst.vreg);
        if let Some(list) = self.records.get_mut(inst.vreg.index()) {
            let mut i = 0;
            while i < list.len() {
                if list[i].generation == generation {
                    i += 1;
                } else {
                    let rec = list.swap_remove(i);
                    self.resolved[useful_words(rec.used).min(self.vl)] += 1;
                }
            }
        }
        let pending_loads = match inst.kind {
            VectorOpKind::Load { .. } => lane_range(inst.start_offset, self.vl),
            VectorOpKind::Arith { .. } => 0,
        };
        let src = |op: &Operand| match op {
            Operand::Vector { vreg, .. } => Some((*vreg, self.engine.vreg_generation(*vreg))),
            _ => None,
        };
        self.instances.push(Instance {
            vreg: inst.vreg,
            generation,
            kind: inst.kind,
            srcs: [src(&inst.src1), src(&inst.src2)],
            next: inst.start_offset,
            pending_loads,
        });
    }

    /// Commits a validation: the engine's commit (V flag, §3.3 freeing of
    /// the element `dst` mapped before), then the Figure 13 note that the
    /// validated element's word was useful.
    pub fn commit_validation(
        &mut self,
        vreg: VregId,
        generation: u64,
        offset: usize,
        dst: Option<ArchReg>,
    ) {
        self.engine.commit_validation(vreg, offset, dst);
        let Some(list) = self.records.get_mut(vreg.index()) else {
            return;
        };
        let bit = 1u64 << offset;
        let mut i = 0;
        while i < list.len() {
            let rec = &mut list[i];
            if rec.generation == generation {
                rec.used |= rec.offsets & bit;
                if rec.used == rec.offsets {
                    let useful = useful_words(rec.used);
                    self.resolved[useful.min(self.vl)] += 1;
                    list.swap_remove(i);
                    continue;
                }
            }
            i += 1;
        }
    }

    /// Opens a Figure 13 record for a wide line access of `vreg`.
    fn record_access(&mut self, vreg: VregId, rec: AccessRecord) {
        let idx = vreg.index();
        if idx >= self.records.len() {
            self.records.resize_with(idx + 1, Vec::new);
        }
        self.records[idx].push(rec);
    }

    /// Advances the data path by one cycle.
    pub fn step(&mut self, now: u64, dmem: &mut DataMemory, ports: &mut PortSet) {
        // Idle fast path: nothing in flight and nothing to deliver.  (The FU
        // cycle reset can be skipped too — nothing has issued since the last
        // reset, and an instance dispatched later this cycle is only stepped
        // on the following cycle, which runs the full path again.)
        if self.events.is_empty() && self.instances.is_empty() {
            return;
        }
        // 1. Deliver results whose latency has elapsed.
        while let Some(&Reverse(ev)) = self.events.peek() {
            if ev.cycle > now {
                break;
            }
            self.events.pop();
            if self.engine.vreg_generation(ev.vreg) == ev.generation {
                self.engine.set_element_ready(ev.vreg, ev.offset);
            }
        }

        self.fus.begin_cycle();

        // 2. Make progress on every instance, in `instances` order: the order
        // (including the `swap_remove` of finished instances) decides port
        // and functional-unit arbitration.
        let mut idx = 0;
        while idx < self.instances.len() {
            let inst = &self.instances[idx];
            // A released-and-reallocated register means the results are no
            // longer wanted; drop the instance.
            let done = self.engine.vreg_generation(inst.vreg) != inst.generation
                || match inst.kind {
                    VectorOpKind::Load { .. } => self.step_load(idx, now, dmem, ports),
                    VectorOpKind::Arith { .. } => self.step_arith(idx, now),
                };
            if done {
                self.instances.swap_remove(idx);
            } else {
                idx += 1;
            }
        }
    }

    /// One cycle of the load instance at `idx`: at most one line access,
    /// serving every pending element in that line (one element on a scalar
    /// port).  Returns whether the instance is done.
    fn step_load(
        &mut self,
        idx: usize,
        now: u64,
        dmem: &mut DataMemory,
        ports: &mut PortSet,
    ) -> bool {
        let inst = self.instances[idx];
        let VectorOpKind::Load { pattern } = inst.kind else {
            unreachable!("step_load runs load instances only");
        };
        let pending = inst.pending_loads;
        if pending == 0 {
            return true;
        }
        let first_addr = pattern.addr_of(pending.trailing_zeros() as usize);
        let Some(ready_at) = dmem.access_through(ports, first_addr, false, now) else {
            return false;
        };
        // Group the pending elements that fall into the same cache line as
        // the first one.
        let line = dmem.line_addr(first_addr);
        let batch = match ports.kind() {
            PortKind::Wide => lanes(pending)
                .filter(|&off| dmem.line_addr(pattern.addr_of(off)) == line)
                .fold(0u64, |m, off| m | 1 << off),
            PortKind::Scalar => pending & pending.wrapping_neg(),
        };
        self.line_accesses += 1;
        let pending = pending & !batch;
        self.instances[idx].pending_loads = pending;
        for offset in lanes(batch) {
            self.events.push(Reverse(ReadyEvent {
                cycle: ready_at,
                vreg: inst.vreg,
                generation: inst.generation,
                offset,
            }));
        }
        if ports.kind() == PortKind::Wide {
            self.record_access(
                inst.vreg,
                AccessRecord {
                    generation: inst.generation,
                    offsets: batch,
                    used: 0,
                },
            );
        }
        pending == 0
    }

    /// One cycle of the arithmetic instance at `idx`: starts its next
    /// element on a free unit once the element's sources are resolved.
    /// Returns whether the instance is done.
    fn step_arith(&mut self, idx: usize, now: u64) -> bool {
        let inst = self.instances[idx];
        let VectorOpKind::Arith { class } = inst.kind else {
            unreachable!("step_arith runs arithmetic instances only");
        };
        if inst.next >= self.vl {
            return true;
        }
        let offset = inst.next;
        let ready = inst
            .srcs
            .iter()
            .flatten()
            .all(|&(vreg, generation)| self.engine.element_resolved(vreg, generation, offset));
        if ready {
            if let Some(latency) = self.fus.try_issue(class) {
                self.events.push(Reverse(ReadyEvent {
                    cycle: now + latency,
                    vreg: inst.vreg,
                    generation: inst.generation,
                    offset,
                }));
                self.instances[idx].next += 1;
            }
        }
        self.instances[idx].next >= self.vl
    }

    /// Finishes a run: releases every vector register (so the Figure 15
    /// usage counts work still in flight) and flushes the Figure 13
    /// accounting for every recorded vector-load access into `wide`,
    /// classifying words by whether a validation consumed them.
    pub fn finalize(&mut self, wide: &mut WideBusStats) {
        self.engine.finish();
        for list in &mut self.records {
            for rec in list.drain(..) {
                self.resolved[useful_words(rec.used).min(self.vl)] += 1;
            }
        }
        for (useful, &count) in self.resolved.iter().enumerate() {
            for _ in 0..count {
                wide.record(useful.min(wide.words_per_line()));
            }
        }
        self.resolved.iter_mut().for_each(|c| *c = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdv_isa::OpClass;
    use sdv_mem::MemHierarchyConfig;

    fn setup() -> (DataMemory, PortSet, VectorDatapath) {
        let dmem = DataMemory::new(&MemHierarchyConfig::table1());
        let ports = PortSet::new(PortKind::Wide, 1);
        let vdp = VectorDatapath::new(&DvConfig::default(), FuConfig::four_way());
        (dmem, ports, vdp)
    }

    /// Decodes a strided load at `pc` until it vectorizes; the decode that
    /// creates the instance also dispatches it.  Returns its register.
    fn vectorize_load(vdp: &mut VectorDatapath, pc: u64, base: u64, stride: u64) -> VregId {
        let dst = ArchReg::int(1);
        for i in 0..3u64 {
            let mode = vdp.decode(&DecodeContext::load(pc, dst, base + i * stride, 8));
            assert_eq!(mode, ExecMode::Scalar);
        }
        match vdp.decode(&DecodeContext::load(pc, dst, base + 3 * stride, 8)) {
            ExecMode::Validation {
                vreg, offset: 0, ..
            } => vreg,
            other => panic!("expected a validation of element 0, got {other:?}"),
        }
    }

    /// Steps the data path until nothing is in flight.
    fn drain(vdp: &mut VectorDatapath, dmem: &mut DataMemory, ports: &mut PortSet, from: u64) {
        let mut cycle = from;
        while vdp.active_instances() > 0 || !vdp.events.is_empty() {
            ports.begin_cycle();
            vdp.step(cycle, dmem, ports);
            cycle += 1;
            assert!(cycle < 1000, "the vector data path should drain quickly");
        }
    }

    #[test]
    fn load_instance_fetches_all_elements_with_one_wide_access() {
        let (mut dmem, mut ports, mut vdp) = setup();
        // Stride 8 with a 32-byte line; the base is chosen so the vector
        // instance (which starts at base + 3*stride = 0x8000) is line aligned
        // and all four elements share one line.
        let vreg = vectorize_load(&mut vdp, 0x1000, 0x7fe8, 8);
        assert_eq!(vdp.active_instances(), 1);
        drain(&mut vdp, &mut dmem, &mut ports, 0);
        assert_eq!(
            vdp.line_accesses(),
            1,
            "one wide access covers the whole register"
        );
        for off in 0..4 {
            assert!(vdp.engine().element_ready(vreg, off), "element {off} ready");
        }
    }

    #[test]
    fn scalar_ports_need_one_access_per_element() {
        let (mut dmem, _, mut vdp) = setup();
        let mut ports = PortSet::new(PortKind::Scalar, 1);
        let _ = vectorize_load(&mut vdp, 0x1000, 0x8000, 8);
        drain(&mut vdp, &mut dmem, &mut ports, 0);
        assert_eq!(vdp.line_accesses(), 4);
    }

    #[test]
    fn strides_spanning_lines_need_multiple_accesses() {
        let (mut dmem, mut ports, mut vdp) = setup();
        // Stride 64 bytes: every element lives in its own 32-byte line.
        let vreg = vectorize_load(&mut vdp, 0x1000, 0x8000, 64);
        drain(&mut vdp, &mut dmem, &mut ports, 0);
        assert_eq!(vdp.line_accesses(), 4);
        for off in 0..4 {
            assert!(vdp.engine().element_ready(vreg, off), "element {off} ready");
        }
    }

    #[test]
    fn arith_instance_waits_for_source_elements() {
        let (mut dmem, mut ports, mut vdp) = setup();
        // Decode through the engine alone so the two instances can be
        // dispatched in the opposite order.
        let dst = ArchReg::int(1);
        let mut load = DecodeOutcome::Scalar;
        for i in 0..4u64 {
            let ctx = DecodeContext::load(0x1000, dst, 0x8000 + i * 8, 8);
            load = vdp.engine_mut().decode(&ctx);
        }
        let DecodeOutcome::NewVector { instance: load } = load else {
            panic!("expected NewVector, got {load:?}");
        };
        let add = DecodeContext::arith(
            0x1004,
            OpClass::IntAlu,
            ArchReg::int(2),
            [Some((dst, 0)), None],
        );
        let add_inst = match vdp.engine_mut().decode(&add) {
            DecodeOutcome::NewVector { instance } => instance,
            other => panic!("expected NewVector, got {other:?}"),
        };
        // Dispatch only the arithmetic instance: its sources are not ready, so
        // it must not make progress.
        vdp.dispatch(&add_inst);
        for cycle in 0..5 {
            ports.begin_cycle();
            vdp.step(cycle, &mut dmem, &mut ports);
        }
        for off in 0..4 {
            assert!(!vdp.engine().element_ready(add_inst.vreg, off));
        }
        assert_eq!(vdp.next_event_cycle(), None, "no element was started");
        // Now dispatch the load; once its elements arrive the add proceeds.
        vdp.dispatch(&load);
        drain(&mut vdp, &mut dmem, &mut ports, 5);
        for off in 0..4 {
            assert!(vdp.engine().element_ready(load.vreg, off));
            assert!(vdp.engine().element_ready(add_inst.vreg, off));
        }
    }

    #[test]
    fn validation_marks_words_useful_for_figure_13() {
        let (mut dmem, mut ports, mut vdp) = setup();
        let vreg = vectorize_load(&mut vdp, 0x1000, 0x7fe8, 8);
        let generation = vdp.engine().vreg_generation(vreg);
        drain(&mut vdp, &mut dmem, &mut ports, 0);
        // Two of the four fetched words end up validated.
        vdp.commit_validation(vreg, generation, 0, Some(ArchReg::int(1)));
        vdp.commit_validation(vreg, generation, 1, Some(ArchReg::int(1)));
        let mut wide = WideBusStats::new(4);
        vdp.finalize(&mut wide);
        assert_eq!(wide.total(), 1);
        assert_eq!(wide.count_used(2), 1);
        assert_eq!(wide.count_unused(), 0);
    }

    #[test]
    fn unused_speculative_access_is_counted() {
        let (mut dmem, mut ports, mut vdp) = setup();
        let _ = vectorize_load(&mut vdp, 0x1000, 0x7fe8, 8);
        drain(&mut vdp, &mut dmem, &mut ports, 0);
        let mut wide = WideBusStats::new(4);
        vdp.finalize(&mut wide);
        assert_eq!(wide.count_unused(), 1, "no element was ever validated");
    }
}

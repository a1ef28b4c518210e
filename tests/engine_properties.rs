//! Property-based tests for the vectorization engine and its substrate
//! structures, independent of the pipeline.

use proptest::prelude::*;
use sdv::core::{
    DecodeContext, DecodeOutcome, DvConfig, ElementState, ElementUsage, TableOfLoads,
    VectorRegisterFile, VectorizationEngine, VregId,
};
use sdv::emu::SparseMemory;
use sdv::isa::ArchReg;
use std::collections::BTreeSet;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The Table of Loads only fires on genuinely repeating strides and always
    /// reports the stride it has just observed.
    #[test]
    fn tl_only_vectorizes_repeating_strides(
        base in 0x1000u64..0x10_0000,
        stride in -64i64..64,
        repeats in 3u64..12,
    ) {
        let mut tl = TableOfLoads::new(64, 4, 2, false);
        let mut addr = base;
        let mut last = tl.observe(0x4000, addr);
        for i in 1..repeats {
            addr = addr.wrapping_add(stride as u64);
            last = tl.observe(0x4000, addr);
            if i >= 3 {
                prop_assert!(last.vectorize, "after {} equal strides the load must vectorize", i);
            }
        }
        prop_assert_eq!(last.stride, stride);
        // Breaking the pattern resets the confidence.
        let broken = tl.observe(0x4000, addr.wrapping_add((stride + 7) as u64 | 1));
        prop_assert!(!broken.vectorize);
    }

    /// However the engine is driven with loads, it never allocates more vector
    /// registers than the file holds and never deadlocks a logical register on
    /// a freed physical register.
    #[test]
    fn engine_never_over_allocates(
        pcs in proptest::collection::vec(0x1000u64..0x1100, 4..32),
        strides in proptest::collection::vec(0i64..32, 4..32),
    ) {
        let cfg = DvConfig { vector_registers: 8, ..DvConfig::default() };
        let mut engine = VectorizationEngine::new(&cfg);
        let mut addr = 0x10_000u64;
        for (i, (&pc, &stride)) in pcs.iter().zip(strides.iter().cycle()).enumerate() {
            let pc = (pc / 4) * 4;
            addr = addr.wrapping_add((stride * 8) as u64);
            let outcome = engine.decode(&DecodeContext::load(pc, ArchReg::int(1), addr, 8));
            if let Some((vreg, offset)) = outcome.validated_element() {
                prop_assert!(offset < cfg.vector_length);
                prop_assert!(vreg.index() < 64, "unbounded growth is not allowed here");
            }
            prop_assert!(engine.vrf().allocated_count() <= 8 + i); // trivially true, documents intent
            prop_assert!(engine.vrf().allocated_count() <= cfg.vector_registers);
            // Periodically close a "loop" so registers can be reclaimed.
            if i % 8 == 7 {
                engine.commit_control(pc + 0x100, true, pc);
            }
        }
        engine.finish();
        let usage = engine.vrf().usage();
        prop_assert_eq!(engine.vrf().allocated_count(), 0, "finish releases everything");
        // Every register that was ever allocated must have been released and
        // accounted for (registers are only allocated when an instance is created).
        prop_assert!(usage.registers_released >= engine.stats().vector_instances().min(1));
    }

    /// Stores never corrupt the coherence bookkeeping: after a conflicting
    /// store commits, the affected instruction re-vectorizes from scratch and
    /// no stale VRMT entry survives.
    #[test]
    fn store_conflicts_invalidate_cleanly(stride in 1i64..8, hit_offset in 0u64..4) {
        let mut engine = VectorizationEngine::new(&DvConfig::default());
        let dst = ArchReg::int(2);
        let mut addr = 0x8000u64;
        let mut last_outcome = DecodeOutcome::Scalar;
        for _ in 0..4 {
            last_outcome = engine.decode(&DecodeContext::load(0x2000, dst, addr, 8));
            addr = addr.wrapping_add((stride * 8) as u64);
        }
        prop_assert!(last_outcome.is_vectorized());
        let (vreg, _) = last_outcome.validated_element().unwrap();
        let (lo, _hi) = engine.vrf().get(vreg).addr_range().unwrap();
        let check = engine.commit_store(lo + hit_offset * 8, 8);
        prop_assert!(check.squash);
        prop_assert!(!engine.vrmt().references(vreg), "VRMT entry must be invalidated");
    }

    /// Sparse memory behaves like a flat 2^64 byte array for aligned and
    /// unaligned accesses alike.
    #[test]
    fn sparse_memory_round_trips(
        writes in proptest::collection::vec((0u64..0x4_0000, any::<u64>(), prop_oneof![Just(1u64), Just(2), Just(4), Just(8)]), 1..64)
    ) {
        let mut mem = SparseMemory::new();
        let mut model: std::collections::HashMap<u64, u8> = std::collections::HashMap::new();
        for (addr, value, width) in &writes {
            mem.write_uint(*addr, *width, *value);
            for (i, byte) in value.to_le_bytes().iter().enumerate().take(*width as usize) {
                model.insert(addr + i as u64, *byte);
            }
        }
        for (addr, byte) in &model {
            prop_assert_eq!(mem.read_u8(*addr), *byte);
        }
    }
}

/// One operation of the lane-mask register-file model test.
#[derive(Debug, Clone)]
enum VrfOp {
    Allocate { mrbb: u8 },
    SetReady { reg: u8, offset: u8 },
    MarkUsed { reg: u8, offset: u8 },
    Validate { reg: u8, offset: u8 },
    SetFree { reg: u8, offset: u8 },
    PoisonFrom { reg: u8, from: u8 },
    TryRelease { reg: u8, gmrbb: u8 },
    ForceRelease { reg: u8 },
    PopTouched,
}

fn vrf_op_strategy() -> impl Strategy<Value = VrfOp> {
    prop_oneof![
        (0u8..4).prop_map(|mrbb| VrfOp::Allocate { mrbb }),
        (any::<u8>(), any::<u8>()).prop_map(|(reg, offset)| VrfOp::SetReady { reg, offset }),
        (any::<u8>(), any::<u8>()).prop_map(|(reg, offset)| VrfOp::MarkUsed { reg, offset }),
        (any::<u8>(), any::<u8>()).prop_map(|(reg, offset)| VrfOp::Validate { reg, offset }),
        (any::<u8>(), any::<u8>()).prop_map(|(reg, offset)| VrfOp::SetFree { reg, offset }),
        (any::<u8>(), any::<u8>()).prop_map(|(reg, from)| VrfOp::PoisonFrom { reg, from }),
        (any::<u8>(), 0u8..4).prop_map(|(reg, gmrbb)| VrfOp::TryRelease { reg, gmrbb }),
        any::<u8>().prop_map(|reg| VrfOp::ForceRelease { reg }),
        Just(VrfOp::PopTouched),
    ]
}

/// A per-element reference model of one vector register: the §3.3 rules
/// and Figure 15 accounting written element by element, as the paper states
/// them.
#[derive(Debug, Clone, Default)]
struct ModelReg {
    allocated: bool,
    mrbb: u64,
    generation: u64,
    elements: Vec<ElementState>,
}

impl ModelReg {
    fn releasable(&self, gmrbb: u64) -> bool {
        let rule1 = self.elements.iter().all(|e| e.ready && e.free);
        let rule2 = self
            .elements
            .iter()
            .all(|e| (!e.valid || e.free) && e.ready && !e.used)
            && self.mrbb != gmrbb;
        rule1 || rule2
    }

    fn record_usage(&self, usage: &mut ElementUsage) {
        for e in &self.elements {
            if e.ready && e.valid {
                usage.computed_used += 1;
            } else if e.ready {
                usage.computed_not_used += 1;
            } else {
                usage.not_computed += 1;
            }
        }
        usage.registers_released += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The lane-mask register file against a per-element model: after every
    /// operation each element's flags, the release decisions and the
    /// Figure 15 usage counters match, and `pop_touched` reports exactly the
    /// registers whose ready or poison flags or generation changed.
    #[test]
    fn lane_mask_vrf_matches_a_per_element_model(
        vl_choice in 0usize..6,
        ops in proptest::collection::vec(vrf_op_strategy(), 1..120),
    ) {
        let vl = [1usize, 2, 4, 7, 8, 64][vl_choice];
        let count = 4;
        let mut vrf = VectorRegisterFile::new(count, vl, false);
        let mut model = vec![ModelReg::default(); count];
        let mut usage = ElementUsage::default();
        let mut touched = BTreeSet::new();
        // Register handles are only obtainable from `allocate`.
        let mut ids: Vec<VregId> = Vec::new();
        for op in &ops {
            let pick = |reg: u8| (!ids.is_empty()).then(|| ids[reg as usize % ids.len()]);
            match *op {
                VrfOp::Allocate { mrbb } => {
                    let got = vrf.allocate(0x1000, u64::from(mrbb));
                    let want = model.iter().position(|r| !r.allocated);
                    prop_assert_eq!(got.map(VregId::index), want, "lowest free register");
                    if let Some(id) = got {
                        let r = &mut model[id.index()];
                        *r = ModelReg {
                            allocated: true,
                            mrbb: u64::from(mrbb),
                            generation: r.generation + 1,
                            elements: vec![ElementState::default(); vl],
                        };
                        touched.insert(id.index());
                        if !ids.contains(&id) {
                            ids.push(id);
                        }
                    }
                }
                VrfOp::SetReady { reg, offset } => {
                    if let Some(id) = pick(reg) {
                        let offset = offset as usize % vl;
                        vrf.set_ready(id, offset);
                        let e = &mut model[id.index()].elements[offset];
                        if !e.ready {
                            touched.insert(id.index());
                        }
                        e.ready = true;
                    }
                }
                VrfOp::MarkUsed { reg, offset } => {
                    if let Some(id) = pick(reg) {
                        let offset = offset as usize % vl;
                        vrf.mark_used(id, offset);
                        model[id.index()].elements[offset].used = true;
                    }
                }
                VrfOp::Validate { reg, offset } => {
                    if let Some(id) = pick(reg) {
                        let offset = offset as usize % vl;
                        vrf.validate(id, offset);
                        let e = &mut model[id.index()].elements[offset];
                        e.valid = true;
                        e.used = false;
                    }
                }
                VrfOp::SetFree { reg, offset } => {
                    if let Some(id) = pick(reg) {
                        let offset = offset as usize % vl;
                        vrf.set_free_flag(id, offset);
                        model[id.index()].elements[offset].free = true;
                    }
                }
                VrfOp::PoisonFrom { reg, from } => {
                    if let Some(id) = pick(reg) {
                        let from = from as usize % (vl + 1);
                        vrf.poison_from(id, from);
                        for e in &mut model[id.index()].elements[from..] {
                            if !e.poisoned {
                                touched.insert(id.index());
                            }
                            e.poisoned = true;
                            e.used = false;
                        }
                    }
                }
                VrfOp::TryRelease { reg, gmrbb } => {
                    if let Some(id) = pick(reg) {
                        let r = &mut model[id.index()];
                        let want = r.allocated && r.releasable(u64::from(gmrbb));
                        prop_assert_eq!(vrf.try_release(id, u64::from(gmrbb)), want, "release decision");
                        if want {
                            r.record_usage(&mut usage);
                            r.allocated = false;
                        }
                    }
                }
                VrfOp::ForceRelease { reg } => {
                    if let Some(id) = pick(reg) {
                        vrf.force_release(id);
                        let r = &mut model[id.index()];
                        if r.allocated {
                            r.record_usage(&mut usage);
                            r.allocated = false;
                        }
                    }
                }
                VrfOp::PopTouched => {
                    let popped: BTreeSet<usize> =
                        std::iter::from_fn(|| vrf.pop_touched()).map(VregId::index).collect();
                    prop_assert_eq!(&popped, &touched, "touched journal");
                    touched.clear();
                }
            }
            for &id in &ids {
                let r = &model[id.index()];
                let reg = vrf.get(id);
                prop_assert_eq!(reg.is_allocated(), r.allocated);
                prop_assert_eq!(reg.generation(), r.generation);
                for (offset, e) in r.elements.iter().enumerate() {
                    prop_assert_eq!(reg.element(offset), *e, "{} element {}", id, offset);
                }
            }
            prop_assert_eq!(*vrf.usage(), usage, "element usage");
            prop_assert_eq!(vrf.allocated_count(), model.iter().filter(|r| r.allocated).count());
        }
    }
}

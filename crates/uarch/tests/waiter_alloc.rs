//! Pins that the fast pipeline's steady state allocates nothing.
//!
//! Every structure a run keeps per in-flight instruction — the ROB lanes,
//! the wakeup lists threaded through them, the fetch queue — is sized when
//! the processor is built, so once a run is warm, simulating more
//! instructions must not touch the heap.  The test counts heap allocations
//! through a counting global allocator and compares a 200k-instruction run
//! with a 50k one: only a handful of one-off growths may differ.  `swim`
//! (strided FP, a full ROB) and `li` (pointer chasing, many parks on new
//! vector registers) cover both wakeup kinds, with the DV unit off and on.
//!
//! The file holds exactly one `#[test]`, so no other test shares the
//! counter.

use sdv_mem::PortKind;
use sdv_uarch::{Model, Processor, UarchConfig};
use sdv_workloads::Workload;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter has no
// effect on the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations made by building a processor and running it for
/// `insts` committed instructions under [`Model::Fast`].
fn allocations(cfg: &UarchConfig, workload: Workload, insts: u64) -> u64 {
    let program = workload.build(8);
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut proc = Processor::new(cfg, &program);
    proc.set_model(Model::Fast);
    let stats = proc.run(insts);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(
        stats.committed >= insts,
        "{workload:?} runs {insts} instructions"
    );
    allocs
}

#[test]
fn longer_runs_allocate_no_more_than_shorter_ones() {
    for workload in [Workload::Swim, Workload::Li] {
        for vect in [false, true] {
            let cfg = UarchConfig::four_way(1, PortKind::Wide).with_vectorization(vect);
            let short = allocations(&cfg, workload, 50_000);
            let long = allocations(&cfg, workload, 200_000);
            assert!(
                long <= short + 2,
                "{workload:?} (vect={vect}): {long} allocations in 200k instructions \
                 against {short} in 50k"
            );
        }
    }
}

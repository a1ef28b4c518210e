//! Pins the waiter arena's zero-allocation guarantee on a real workload.
//!
//! The wakeup scoreboard's waiter lists live in one pooled arena sized for
//! the hard bound (at most two scalar-source edges per in-flight
//! instruction, and every edge's dependent occupies a ROB slot), so a
//! steady-state run — warmup included — must never touch the heap for
//! waiter bookkeeping.  `swim` is the repro suite's strided floating-point
//! workhorse: it keeps the ROB full and the scoreboard busy for the whole
//! run, which is exactly the regime where the old per-entry `Vec<u64>`
//! waiter lists churned allocations.

use sdv_mem::PortKind;
use sdv_uarch::{Processor, UarchConfig};
use sdv_workloads::Workload;

#[test]
fn swim_steady_state_performs_no_waiter_allocations() {
    let program = Workload::Swim.build(4);
    for vect in [false, true] {
        let cfg = UarchConfig::four_way(1, PortKind::Wide).with_vectorization(vect);
        let mut proc = Processor::new(&cfg, &program);
        let stats = proc.run(1_000_000);
        assert!(stats.committed > 0, "swim ran (vect={vect})");
        let waiters = proc.waiter_stats();
        assert!(
            waiters.pushes > 0,
            "swim exercises the wakeup scoreboard (vect={vect})"
        );
        assert_eq!(
            waiters.heap_growths, 0,
            "waiter arena grew past its {}-node pool (vect={vect})",
            waiters.capacity
        );
        assert_eq!(waiters.live, 0, "all waiter lists drained (vect={vect})");
    }
}

//! Integration tests for the unified experiment API: the parallel run engine
//! must be bit-deterministic against the serial path, and overlapping cells
//! across generators must be simulated exactly once per session.

use sdv::sim::{
    headline, port_sweep, Experiment, MachineWidth, RunConfig, RunEngine, SweepGrid, Variant,
    Workload,
};

fn rc() -> RunConfig {
    RunConfig {
        scale: 1,
        max_insts: 10_000,
    }
}

/// A mixed grid: custom and Table 1 widths, both port extremes, two bus
/// widths, all three variants (the scalar cells collapse across the bus axis).
fn mixed_grid() -> SweepGrid {
    SweepGrid::new()
        .widths(vec![MachineWidth::FourWay, MachineWidth::Custom(2)])
        .ports(vec![1, 4])
        .bus_words(vec![2, 8])
}

const WORKLOADS: [Workload; 3] = [Workload::Compress, Workload::Swim, Workload::Li];

/// Determinism property: for a mixed grid, the parallel engine (N threads)
/// produces bit-identical `RunStats` to the serial path, cell by cell.
#[test]
fn parallel_engine_is_bit_identical_to_serial() {
    let grid = mixed_grid();
    let serial = port_sweep(&RunEngine::new(rc()), &WORKLOADS, &grid);
    for threads in [2, 4, 7] {
        let parallel = port_sweep(
            &RunEngine::new(rc()).with_threads(threads),
            &WORKLOADS,
            &grid,
        );
        assert_eq!(serial.cells.len(), parallel.cells.len());
        for (s, p) in serial.cells.iter().zip(parallel.cells.iter()) {
            assert_eq!(s.label(), p.label());
            assert_eq!(
                s.suite.runs,
                p.suite.runs,
                "cell {} must not depend on the thread count ({threads} threads)",
                s.label()
            );
        }
    }
}

/// Dedup property: the headline configurations are a subset of the paper's
/// Figure 11 grid, so generating the headline after the sweep simulates zero
/// new cells (and both see the same results).
#[test]
fn headline_and_fig11_share_cells_across_generators() {
    let engine = RunEngine::new(rc()).with_threads(2);
    let sweep = port_sweep(&engine, &WORKLOADS, &SweepGrid::paper());
    let after_sweep = engine.report();
    assert_eq!(
        after_sweep.requested, after_sweep.simulated,
        "a fresh engine simulates every cell of the first sweep"
    );

    let h = headline(&engine, &WORKLOADS);
    let after_headline = engine.report();
    assert_eq!(
        after_headline.simulated, after_sweep.simulated,
        "every headline cell must be served from the sweep's cache"
    );
    assert!(after_headline.deduplicated() >= 3 * WORKLOADS.len() as u64);

    // The shared cells are literally the same numbers.
    let vect_cell = sweep
        .get(&Variant::Vectorized.config(MachineWidth::FourWay, 1))
        .expect("1pV cell in the paper grid");
    assert_eq!(h.ipc_1p_vect, vect_cell.suite.hmean(|s| s.ipc()));
}

/// The scalar-bus baseline is bus-width-invariant, so a grid with a bus axis
/// never re-simulates it.
#[test]
fn scalar_cells_dedup_across_the_bus_axis() {
    let grid = SweepGrid::new()
        .widths(vec![MachineWidth::FourWay])
        .ports(vec![1])
        .bus_words(vec![2, 4, 8]);
    let engine = RunEngine::new(rc());
    let sweep = port_sweep(&engine, &[Workload::Compress], &grid);
    assert_eq!(sweep.cells.len(), 9, "3 bus widths × 3 variants");
    let report = engine.report();
    assert_eq!(report.requested, 9);
    assert_eq!(
        report.simulated, 7,
        "the three scalar cells share one simulation"
    );
}

/// The experiment facade wires workloads, threads and the session cache
/// together end to end.
#[test]
fn experiment_session_reports_dedup() {
    let exp = Experiment::new(rc())
        .threads(2)
        .workloads(WORKLOADS.to_vec());
    let h = exp.headline();
    assert!(h.ipc_1p_vect > 0.0);
    let first = exp.report();
    let fig13 = exp.fig13(); // same 1pV suite as the headline
    assert_eq!(fig13.rows.len(), WORKLOADS.len());
    let second = exp.report();
    assert_eq!(second.simulated, first.simulated);
    assert!(second.requested > first.requested);
}

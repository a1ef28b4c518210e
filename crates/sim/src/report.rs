//! Machine-readable exports behind `repro`'s file flags.
//!
//! The `repro` binary prints human-readable tables; for plotting and diffing
//! it also writes two documents: [`sweep_csv`], the Figure 11/12 port sweep
//! as CSV (`--csv`), and [`metrics_json`], a whole session's metrics
//! (`--metrics-json`).  Both are pure (string in-memory), so callers decide
//! where to write.

use crate::figures::PortSweep;
use crate::width_label;

/// Escapes nothing (all our fields are simple), just joins cells with commas.
fn row<I: IntoIterator<Item = String>>(cells: I) -> String {
    cells.into_iter().collect::<Vec<_>>().join(",")
}

/// CSV for the Figure 11/12 sweep (and extended §4.3 grids):
/// `width,config,bus_words,vl,vregs,workload,ipc,port_occupancy`.
///
/// Configuration-identical cells (the scalar baseline repeated along the bus
/// axis, the non-vectorizing variants along the DV-sizing axes) are emitted
/// once — [`PortSweep::unique_cells`], the same filter the `Fig11`/`Fig12`
/// text output uses.
#[must_use]
pub fn sweep_csv(sweep: &PortSweep) -> String {
    let mut out = String::from("width,config,bus_words,vl,vregs,workload,ipc,port_occupancy\n");
    for cell in sweep.unique_cells() {
        let dv = cell.config.vectorization;
        for (w, stats) in &cell.suite.runs {
            out.push_str(&row([
                width_label(cell.config.issue_width),
                cell.label(),
                cell.config.bus_words().to_string(),
                dv.map_or_else(|| "-".to_string(), |d| d.vector_length.to_string()),
                dv.map_or_else(|| "-".to_string(), |d| d.vector_registers.to_string()),
                w.name().to_string(),
                stats.ipc().to_string(),
                stats.port_occupancy().to_string(),
            ]));
            out.push('\n');
        }
    }
    out
}

/// Machine-readable metrics for a whole engine session — the payload behind
/// `repro --metrics-json` (schema `sdv-obs-metrics/1`, see
/// `docs/OBSERVABILITY.md`).  Folds the engine's live observability registry
/// (pipeline cycle attribution, cache/store instrumentation) together with
/// the [`crate::EngineReport`] counters and [`crate::EngineTiming`]
/// wall-clock accounting, so one document carries everything
/// `sdv-obs summarize` / `sdv-obs diff` need; the wall-clock accounting
/// appears under `engine.timing.*` and `engine.cell.*` names.
#[must_use]
pub fn metrics_json(engine: &crate::RunEngine) -> String {
    let mut registry = engine.obs().snapshot();
    let report = engine.report();
    registry.add_counter("engine.cells.requested", report.requested);
    registry.add_counter("engine.cells.simulated", report.simulated);
    registry.add_counter("engine.cells.failed", report.failed_cells);
    registry.add_counter("engine.store.hits", report.store_hits);
    registry.add_counter("engine.store.misses", report.store_misses);
    registry.add_counter("engine.store.inserts", report.store_inserts);
    registry.add_counter("engine.store.persist_retries", engine.persist_retries());
    if let Some(rate) = report.store_hit_rate() {
        registry.set_gauge("engine.store.hit_rate", rate);
    }
    registry.set_gauge(
        "engine.store.degraded",
        if engine.store_degraded() { 1.0 } else { 0.0 },
    );
    let timing = engine.timing();
    registry.add_counter("engine.timing.simulated_cycles", timing.simulated_cycles);
    registry.set_gauge("engine.timing.wall_seconds", timing.wall.as_secs_f64());
    registry.set_gauge(
        "engine.timing.session_seconds",
        timing.session.as_secs_f64(),
    );
    registry.set_gauge("engine.timing.insts_per_second", timing.insts_per_second());
    for cell in &timing.cells {
        let stem = format!("engine.cell.{}.{}", cell.label, cell.workload.name());
        registry.add_counter(&format!("{stem}.committed"), cell.committed);
        registry.set_gauge(&format!("{stem}.wall_seconds"), cell.wall.as_secs_f64());
        registry.set_gauge(&format!("{stem}.insts_per_second"), cell.insts_per_second());
    }
    registry.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{fig3, port_sweep};
    use crate::runner::RunConfig;
    use crate::{MachineWidth, RunEngine, SweepGrid, Workload};

    fn engine() -> RunEngine {
        RunEngine::new(RunConfig {
            scale: 1,
            max_insts: 6_000,
        })
    }

    const WS: [Workload; 2] = [Workload::Compress, Workload::Swim];

    #[test]
    fn sweep_csv_covers_every_cell_and_workload() {
        let grid = SweepGrid::new()
            .widths(vec![MachineWidth::FourWay])
            .ports(vec![1]);
        let sweep = port_sweep(&engine(), &WS, &grid);
        let csv = sweep_csv(&sweep);
        // 3 variants × 2 workloads + header.
        assert_eq!(csv.lines().count(), 1 + 3 * WS.len());
        assert!(csv.contains("4-way,1pV,4,4,128,swim,"));
        assert!(csv.contains("4-way,1pnoIM,1,-,-,"));
    }

    #[test]
    fn sweep_csv_collapses_identical_scalar_cells_across_the_bus_axis() {
        let grid = SweepGrid::new()
            .widths(vec![MachineWidth::FourWay])
            .ports(vec![1])
            .bus_words(vec![2, 4, 8]);
        let sweep = port_sweep(&engine(), &[Workload::Compress], &grid);
        let csv = sweep_csv(&sweep);
        // 1 scalar cell + 3 IM + 3 V cells, one workload each, plus header.
        assert_eq!(csv.lines().count(), 1 + 7);
        assert_eq!(csv.matches("1pnoIM").count(), 1);
        assert!(csv.contains("4-way,1pVb8,8,4,128,compress,"));
    }

    #[test]
    fn sweep_csv_covers_the_dv_sizing_axes() {
        let grid = SweepGrid::new()
            .widths(vec![MachineWidth::FourWay])
            .ports(vec![1])
            .vector_lengths(vec![4, 8])
            .vector_registers(vec![64, 128])
            .variants(vec![crate::Variant::Vectorized]);
        let sweep = port_sweep(&engine(), &[Workload::Compress], &grid);
        let csv = sweep_csv(&sweep);
        assert_eq!(csv.lines().count(), 1 + 4, "2 lengths × 2 register counts");
        assert!(csv.contains("4-way,1pV,4,4,128,"));
        assert!(csv.contains("4-way,1pVl8r64,4,8,64,"));
        assert!(csv.contains("4-way,1pVr64,4,4,64,"));
    }

    #[test]
    fn metrics_json_folds_registry_report_and_timing() {
        let engine = engine().with_obs(sdv_obs::ObsLevel::Metrics);
        let _ = fig3(&engine, &[Workload::Compress]);
        let json = metrics_json(&engine);
        let reg = sdv_obs::MetricsRegistry::from_json(&json).expect("parses back");
        assert_eq!(reg.counter("engine.cells.simulated"), Some(1));
        assert!(reg.counter("pipeline.cycles.committing").unwrap_or(0) > 0);
        assert!(reg.gauge("engine.timing.insts_per_second").is_some());
        assert!(
            reg.counter("engine.cell.1pV.compress.committed").is_some()
                || reg
                    .counter("engine.cell.1pnoIM.compress.committed")
                    .is_some(),
            "per-cell timing is folded in: {json}"
        );
        assert_eq!(reg.gauge("engine.store.degraded"), Some(0.0));
    }
}

//! CSV export for the figure generators.
//!
//! The `repro` binary prints human-readable tables; for plotting the
//! reproduction against the paper it is more convenient to have the same data
//! as CSV.  Every function here is pure (string in-memory), so callers decide
//! where to write.

use crate::figures::{Fig1, Fig13, Fig15, Fig7, PortSweep, WorkloadSeries};

/// Escapes nothing (all our fields are simple), just joins cells with commas.
fn row<I: IntoIterator<Item = String>>(cells: I) -> String {
    cells.into_iter().collect::<Vec<_>>().join(",")
}

/// CSV for Figure 1: `stride,specint_fraction,specfp_fraction`.
#[must_use]
pub fn fig1_csv(fig: &Fig1) -> String {
    let mut out = String::from("stride,specint,specfp\n");
    for s in 0..10 {
        out.push_str(&row([
            s.to_string(),
            fig.int.fraction(s).to_string(),
            fig.fp.fraction(s).to_string(),
        ]));
        out.push('\n');
    }
    out
}

/// CSV for any per-workload series (Figures 3, 9, 10, 14): `workload,value`.
#[must_use]
pub fn series_csv(series: &WorkloadSeries) -> String {
    let mut out = String::from("workload,value\n");
    for (w, v) in &series.rows {
        out.push_str(&row([w.name().to_string(), v.to_string()]));
        out.push('\n');
    }
    out.push_str(&row(["INT".to_string(), series.int_mean().to_string()]));
    out.push('\n');
    out.push_str(&row(["FP".to_string(), series.fp_mean().to_string()]));
    out.push('\n');
    out
}

/// CSV for Figure 7: `workload,real_ipc,ideal_ipc`.
#[must_use]
pub fn fig7_csv(fig: &Fig7) -> String {
    let mut out = String::from("workload,real_ipc,ideal_ipc\n");
    for (w, real, ideal) in &fig.rows {
        out.push_str(&row([
            w.name().to_string(),
            real.to_string(),
            ideal.to_string(),
        ]));
        out.push('\n');
    }
    out
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
        let dv = cell.spec.config.vectorization;
        for (w, stats) in &cell.suite.runs {
            out.push_str(&row([
                cell.spec.width.label(),
                cell.label(),
                cell.spec.config.bus_words().to_string(),
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
    registry.set_gauge(
        "engine.timing.cycles_per_second",
        timing.cycles_per_second(),
    );
    for cell in &timing.cells {
        let stem = format!("engine.cell.{}.{}", cell.label, cell.workload.name());
        registry.add_counter(&format!("{stem}.cycles"), cell.cycles);
        registry.set_gauge(&format!("{stem}.wall_seconds"), cell.wall.as_secs_f64());
        registry.set_gauge(
            &format!("{stem}.cycles_per_second"),
            cell.cycles_per_second(),
        );
    }
    registry.to_json()
}

/// CSV for Figure 13: `workload,used1,used2,used3,used4,unused`.
#[must_use]
pub fn fig13_csv(fig: &Fig13) -> String {
    let mut out = String::from("workload,used1,used2,used3,used4,unused\n");
    for (w, used, unused) in &fig.rows {
        out.push_str(&row([
            w.name().to_string(),
            used[0].to_string(),
            used[1].to_string(),
            used[2].to_string(),
            used[3].to_string(),
            unused.to_string(),
        ]));
        out.push('\n');
    }
    out
}

/// CSV for Figure 15: `workload,computed_used,computed_not_used,not_computed`.
#[must_use]
pub fn fig15_csv(fig: &Fig15) -> String {
    let mut out = String::from("workload,computed_used,computed_not_used,not_computed\n");
    for (w, used, not_used, not_comp) in &fig.rows {
        out.push_str(&row([
            w.name().to_string(),
            used.to_string(),
            not_used.to_string(),
            not_comp.to_string(),
        ]));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{fig1, fig13, fig15, fig3, fig7, port_sweep};
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
    fn fig1_csv_has_ten_stride_rows() {
        let csv = fig1_csv(&fig1(&engine(), &WS));
        assert_eq!(csv.lines().count(), 11);
        assert!(csv.starts_with("stride,specint,specfp"));
    }

    #[test]
    fn series_csv_includes_means() {
        let csv = series_csv(&fig3(&engine(), &WS));
        assert!(csv.contains("compress,"));
        assert!(csv.contains("swim,"));
        assert!(csv.contains("INT,"));
        assert!(csv.contains("FP,"));
    }

    #[test]
    fn fig7_and_fig13_and_fig15_csvs_have_one_row_per_workload() {
        let engine = engine();
        assert_eq!(fig7_csv(&fig7(&engine, &WS)).lines().count(), 1 + WS.len());
        assert_eq!(
            fig13_csv(&fig13(&engine, &WS)).lines().count(),
            1 + WS.len()
        );
        assert_eq!(
            fig15_csv(&fig15(&engine, &WS)).lines().count(),
            1 + WS.len()
        );
    }

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
        assert!(reg.gauge("engine.timing.cycles_per_second").is_some());
        assert!(
            reg.counter("engine.cell.1pV.compress.cycles").is_some()
                || reg.counter("engine.cell.1pnoIM.compress.cycles").is_some(),
            "per-cell timing is folded in: {json}"
        );
        assert_eq!(reg.gauge("engine.store.degraded"), Some(0.0));
    }
}

//! The unified experiment facade.
//!
//! An [`Experiment`] bundles a [`RunEngine`] (budget, thread pool, session
//! memo cache) with a workload list, and exposes every generator of the
//! paper's evaluation as a method.  All generators share the engine's cache,
//! so regenerating the full evaluation simulates each unique
//! `(config, workload)` cell exactly once — the `repro` binary reports the
//! resulting dedup via [`Experiment::report`].
//!
//! ```
//! use sdv_sim::{Experiment, RunConfig, Workload};
//!
//! let exp = Experiment::new(RunConfig::quick())
//!     .threads(2)
//!     .workloads(vec![Workload::Compress, Workload::Swim]);
//! let h = exp.headline();
//! assert!(h.ipc_1p_vect > 0.0);
//! // fig13 uses the same 1pV suite the headline already ran: zero new cells.
//! let before = exp.report().simulated;
//! let _ = exp.fig13();
//! assert_eq!(exp.report().simulated, before);
//! ```

use crate::engine::{CellError, EngineReport, EngineTiming, RunEngine};
use crate::figures::{
    fig1, fig10, fig13, fig14, fig15, fig3, fig7, fig9, headline, port_sweep, Fig1, Fig13, Fig15,
    Fig7, Headline, PortSweep, WorkloadSeries,
};
use crate::grid::SweepGrid;
use crate::runner::RunConfig;
use crate::Workload;

/// A session of the experiment API: one engine, one workload list, every
/// figure generator.
#[derive(Debug)]
pub struct Experiment {
    engine: RunEngine,
    workloads: Vec<Workload>,
}

impl Experiment {
    /// Creates a serial experiment over the full workload suite.
    #[must_use]
    pub fn new(rc: RunConfig) -> Self {
        Experiment {
            engine: RunEngine::new(rc),
            workloads: Workload::all().to_vec(),
        }
    }

    /// Sets the worker-thread count (results are identical for any value).
    /// The session memo cache and counters are preserved.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.engine.set_threads(threads);
        self
    }

    /// Sets the observability level (see [`RunEngine::with_obs`]): `Off`
    /// (default) costs one enum compare per probe, `Metrics` collects the
    /// registry behind `repro --metrics-json`, `Trace` additionally records
    /// Chrome-trace events.  Observation only — results are bit-identical at
    /// every level.  Call before [`Experiment::disk_cache`] or after; the
    /// handle is propagated to the store either way.
    #[must_use]
    pub fn obs(mut self, level: sdv_obs::ObsLevel) -> Self {
        self.engine = self.engine.with_obs(level);
        self
    }

    /// Attaches a persistent on-disk result cache in `dir` (see
    /// [`RunEngine::with_disk_cache`]).  Results are identical with or
    /// without the cache; only wall-clock changes.
    #[must_use]
    pub fn disk_cache(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.engine = self.engine.with_disk_cache(dir);
        self
    }

    /// Persists the session's results to the attached disk cache, if any.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the cache file.
    pub fn persist(&self) -> std::io::Result<()> {
        self.engine.persist()
    }

    /// Wall-clock accounting for the cells this session actually simulated.
    #[must_use]
    pub fn timing(&self) -> EngineTiming {
        self.engine.timing()
    }

    /// Replaces the workload list.
    #[must_use]
    pub fn workloads(mut self, workloads: Vec<Workload>) -> Self {
        assert!(
            !workloads.is_empty(),
            "an experiment needs at least one workload"
        );
        self.workloads = workloads;
        self
    }

    /// Per-cell failure details for this session, sorted for stable output
    /// (see [`RunEngine::failures`]).
    #[must_use]
    pub fn failures(&self) -> Vec<CellError> {
        self.engine.failures()
    }

    /// The underlying engine (for custom cells next to the stock figures).
    #[must_use]
    pub fn engine(&self) -> &RunEngine {
        &self.engine
    }

    /// The workload list every generator uses.
    #[must_use]
    pub fn workload_list(&self) -> &[Workload] {
        &self.workloads
    }

    /// Session counters: cells requested vs. actually simulated.
    #[must_use]
    pub fn report(&self) -> EngineReport {
        self.engine.report()
    }

    /// Figure 1 — stride distribution, from each workload's stride profile
    /// (memoized and store-backed like a cell; see
    /// [`RunEngine::stride_profile`]).
    #[must_use]
    pub fn fig1(&self) -> Fig1 {
        fig1(&self.engine, &self.workloads)
    }

    /// Figure 3 — vectorizable instructions with unbounded resources.
    #[must_use]
    pub fn fig3(&self) -> WorkloadSeries {
        fig3(&self.engine, &self.workloads)
    }

    /// Figure 7 — decode blocking (real) vs not blocking (ideal).
    #[must_use]
    pub fn fig7(&self) -> Fig7 {
        fig7(&self.engine, &self.workloads)
    }

    /// Figure 9 — vector instances with non-zero source offsets.
    #[must_use]
    pub fn fig9(&self) -> WorkloadSeries {
        fig9(&self.engine, &self.workloads)
    }

    /// Figure 10 — control-flow-independent reuse after mispredictions.
    #[must_use]
    pub fn fig10(&self) -> WorkloadSeries {
        fig10(&self.engine, &self.workloads)
    }

    /// Figure 13 — useful words per wide-bus line read.
    #[must_use]
    pub fn fig13(&self) -> Fig13 {
        fig13(&self.engine, &self.workloads)
    }

    /// Figure 14 — validation-instruction percentage.
    #[must_use]
    pub fn fig14(&self) -> WorkloadSeries {
        fig14(&self.engine, &self.workloads)
    }

    /// Figure 15 — vector-register element usage.
    #[must_use]
    pub fn fig15(&self) -> Fig15 {
        fig15(&self.engine, &self.workloads)
    }

    /// The sweep behind Figures 11/12 (and any extended §4.3 grid).
    #[must_use]
    pub fn sweep(&self, grid: &SweepGrid) -> PortSweep {
        port_sweep(&self.engine, &self.workloads, grid)
    }

    /// The headline comparisons of §1/§6.
    #[must_use]
    pub fn headline(&self) -> Headline {
        headline(&self.engine, &self.workloads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RunConfig {
        RunConfig {
            scale: 1,
            max_insts: 8_000,
        }
    }

    #[test]
    fn defaults_cover_the_full_suite() {
        let exp = Experiment::new(quick());
        assert_eq!(exp.workload_list(), Workload::all());
        assert_eq!(exp.engine().threads(), 1);
        let exp = exp.threads(3).workloads(vec![Workload::Swim]);
        assert_eq!(exp.engine().threads(), 3);
        assert_eq!(exp.workload_list(), [Workload::Swim]);
    }

    #[test]
    fn generators_share_one_session_cache() {
        let exp = Experiment::new(quick()).workloads(vec![Workload::Compress, Workload::Swim]);
        let _ = exp.fig10(); // 4-way 1pV suite
        let after_fig10 = exp.report().simulated;
        let _ = exp.fig13(); // same configuration again
        assert_eq!(exp.report().simulated, after_fig10);
        let _ = exp.fig14(); // 8-way 1pV: new cells
        assert!(exp.report().simulated > after_fig10);
        assert!(exp.report().deduplicated() > 0);
    }

    #[test]
    fn changing_threads_keeps_the_session_cache() {
        let exp = Experiment::new(quick()).workloads(vec![Workload::Compress]);
        let _ = exp.fig10();
        let before = exp.report();
        let exp = exp.threads(4);
        let _ = exp.fig13(); // same 1pV cells as fig10
        let after = exp.report();
        assert_eq!(after.simulated, before.simulated);
        assert!(after.requested > before.requested);
    }

    #[test]
    #[should_panic(expected = "at least one workload")]
    fn empty_workloads_are_rejected() {
        let _ = Experiment::new(quick()).workloads(Vec::new());
    }
}

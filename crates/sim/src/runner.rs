//! Run budgets and suite-level aggregates.  Cells are simulated by the
//! [`RunEngine`](crate::RunEngine), whose `suite`/`suites` return a
//! [`SuiteResult`].

use sdv_uarch::RunStats;
use sdv_workloads::Workload;

/// How much work each measurement simulates.
///
/// The paper simulates 100 M instructions per benchmark; that is far more than
/// needed for the synthetic kernels to reach steady state, so the default
/// budgets are smaller (and `repro` uses larger ones than the test suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunConfig {
    /// Outer-iteration scale passed to [`Workload::build`].
    pub scale: u64,
    /// Maximum simulated (committed) instructions per run.
    pub max_insts: u64,
}

impl RunConfig {
    /// A tiny budget for unit/integration tests (tens of thousands of instructions).
    #[must_use]
    pub fn quick() -> Self {
        RunConfig {
            scale: 1,
            max_insts: 20_000,
        }
    }

    /// The default budget, used by `repro` unless overridden.
    #[must_use]
    pub fn standard() -> Self {
        RunConfig {
            scale: 8,
            max_insts: 300_000,
        }
    }

    /// A larger budget for reproducing the figures with lower noise.
    #[must_use]
    pub fn thorough() -> Self {
        RunConfig {
            scale: 64,
            max_insts: 2_000_000,
        }
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig::standard()
    }
}

/// The result of running a set of workloads on one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteResult {
    /// Per-workload statistics, in the order they were run.
    pub runs: Vec<(Workload, RunStats)>,
}

impl SuiteResult {
    /// Statistics for one workload, if it was part of the suite.
    #[must_use]
    pub fn get(&self, workload: Workload) -> Option<&RunStats> {
        self.runs
            .iter()
            .find(|(w, _)| *w == workload)
            .map(|(_, s)| s)
    }

    /// Arithmetic mean of a per-run metric over the whole suite.
    #[must_use]
    pub fn mean<F: Fn(&RunStats) -> f64>(&self, f: F) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs.iter().map(|(_, s)| f(s)).sum::<f64>() / self.runs.len() as f64
    }

    /// Arithmetic mean over the SpecInt-analogue subset.
    #[must_use]
    pub fn mean_int<F: Fn(&RunStats) -> f64>(&self, f: F) -> f64 {
        self.mean_filtered(|w| !w.is_fp(), f)
    }

    /// Arithmetic mean over the SpecFP-analogue subset.
    #[must_use]
    pub fn mean_fp<F: Fn(&RunStats) -> f64>(&self, f: F) -> f64 {
        self.mean_filtered(Workload::is_fp, f)
    }

    fn mean_filtered<P: Fn(&Workload) -> bool, F: Fn(&RunStats) -> f64>(&self, p: P, f: F) -> f64 {
        let selected: Vec<f64> = self
            .runs
            .iter()
            .filter(|(w, _)| p(w))
            .map(|(_, s)| f(s))
            .collect();
        if selected.is_empty() {
            0.0
        } else {
            selected.iter().sum::<f64>() / selected.len() as f64
        }
    }

    /// Harmonic mean of a per-run metric over the whole suite.
    ///
    /// The harmonic mean is the correct suite-level aggregate for *rates* such
    /// as IPC (it weighs every workload by the time it takes, not by its
    /// rate); arithmetic means remain in use for speed-up ratios and
    /// fractions.  Returns 0 if the suite is empty or any value is ≤ 0.
    #[must_use]
    pub fn hmean<F: Fn(&RunStats) -> f64>(&self, f: F) -> f64 {
        Self::harmonic(self.runs.iter().map(|(_, s)| f(s)))
    }

    /// Harmonic mean over the SpecInt-analogue subset.
    #[must_use]
    pub fn hmean_int<F: Fn(&RunStats) -> f64>(&self, f: F) -> f64 {
        Self::harmonic(
            self.runs
                .iter()
                .filter(|(w, _)| !w.is_fp())
                .map(|(_, s)| f(s)),
        )
    }

    /// Harmonic mean over the SpecFP-analogue subset.
    #[must_use]
    pub fn hmean_fp<F: Fn(&RunStats) -> f64>(&self, f: F) -> f64 {
        Self::harmonic(
            self.runs
                .iter()
                .filter(|(w, _)| w.is_fp())
                .map(|(_, s)| f(s)),
        )
    }

    fn harmonic<I: Iterator<Item = f64>>(values: I) -> f64 {
        let mut n = 0usize;
        let mut recip = 0.0f64;
        for v in values {
            if v <= 0.0 {
                return 0.0;
            }
            n += 1;
            recip += 1.0 / v;
        }
        if n == 0 {
            0.0
        } else {
            n as f64 / recip
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PortKind, ProcessorConfig, RunEngine};

    #[test]
    fn run_configs_scale_budgets() {
        assert!(RunConfig::quick().max_insts < RunConfig::standard().max_insts);
        assert!(RunConfig::standard().max_insts < RunConfig::thorough().max_insts);
        assert_eq!(RunConfig::default(), RunConfig::standard());
    }

    #[test]
    fn suite_runs_and_aggregates() {
        let cfg = ProcessorConfig::four_way(1, PortKind::Wide);
        let rc = RunConfig::quick();
        let suite = RunEngine::new(rc).suite(&[Workload::Compress, Workload::Swim], &cfg);
        assert_eq!(suite.runs.len(), 2);
        assert!(suite.get(Workload::Compress).is_some());
        assert!(suite.get(Workload::Go).is_none());
        assert!(suite.mean(|s| s.ipc()) > 0.0);
        assert!(suite.mean_int(|s| s.ipc()) > 0.0);
        assert!(suite.mean_fp(|s| s.ipc()) > 0.0);
    }

    #[test]
    fn empty_suite_is_safe() {
        let suite = SuiteResult { runs: Vec::new() };
        assert_eq!(suite.mean(|s| s.ipc()), 0.0);
        assert_eq!(suite.mean_fp(|s| s.ipc()), 0.0);
        assert_eq!(suite.hmean(|s| s.ipc()), 0.0);
    }

    /// Pins the two suite-level aggregates against hand-computed values: the
    /// arithmetic mean of IPCs {1, 3} is 2, their harmonic mean is 1.5.
    #[test]
    fn arithmetic_and_harmonic_means_are_pinned() {
        let mut fast = RunStats::new(1);
        fast.cycles = 100;
        fast.committed = 300; // IPC 3.0
        let mut slow = RunStats::new(1);
        slow.cycles = 100;
        slow.committed = 100; // IPC 1.0
        let suite = SuiteResult {
            runs: vec![(Workload::Compress, slow), (Workload::Swim, fast)],
        };
        assert!((suite.mean(|s| s.ipc()) - 2.0).abs() < 1e-12);
        assert!((suite.hmean(|s| s.ipc()) - 1.5).abs() < 1e-12);
        // Per-suite splits use the same definitions.
        assert!((suite.hmean_int(|s| s.ipc()) - 1.0).abs() < 1e-12);
        assert!((suite.hmean_fp(|s| s.ipc()) - 3.0).abs() < 1e-12);
        // A zero rate collapses the harmonic mean (and only that one).
        let zero = RunStats::new(1);
        let with_zero = SuiteResult {
            runs: vec![(Workload::Compress, zero)],
        };
        assert_eq!(with_zero.hmean(|s| s.ipc()), 0.0);
    }
}

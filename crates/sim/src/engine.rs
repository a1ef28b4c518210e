//! The deduplicating, parallel experiment engine.
//!
//! Every measurement in this crate boils down to simulating a *cell*: one
//! `(processor configuration, workload, run budget)` triple.  Different
//! figures ask for heavily overlapping cell sets — the headline comparison,
//! Figure 11 and Figure 12 all contain the `1pV` suite, for example — so the
//! [`RunEngine`] content-hashes each cell, memoizes results for the whole
//! session, and executes the unique cells of a batch across a configurable
//! thread pool with deterministic (input-order) results.
//!
//! ```
//! use sdv_sim::{MachineWidth, RunConfig, RunEngine, Variant, Workload};
//!
//! let engine = RunEngine::new(RunConfig::quick()).with_threads(2);
//! let cfg = Variant::Vectorized.config(MachineWidth::FourWay, 1);
//! let suite = engine.suite(&[Workload::Compress, Workload::Swim], &cfg);
//! assert!(suite.mean(|s| s.ipc()) > 0.0);
//! // Re-running the same cells is free:
//! let again = engine.suite(&[Workload::Compress, Workload::Swim], &cfg);
//! assert_eq!(engine.report().simulated, 2);
//! assert_eq!(engine.report().requested, 4);
//! assert_eq!(suite.runs, again.runs);
//! ```

use crate::cachefile;
use crate::runner::{RunConfig, SuiteResult};
use crate::{UarchConfig, Workload};
use sdv_emu::StrideStats;
use sdv_isa::Program;
use sdv_obs::{Obs, ObsLevel};
use sdv_uarch::RunStats;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Recovers the guarded data from a possibly-poisoned lock.
///
/// Worker-cell panics are caught by the supervisor before they can unwind
/// through a held engine lock, but a panic elsewhere (a caller thread dying
/// mid-batch) must not deadlock or poison every later session sharing the
/// engine — the guarded structures here (memo maps, counters, timing) are
/// valid at every lock release point, so recovering the data is sound.
fn recover<T>(result: Result<T, PoisonError<T>>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Extracts the human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The content identity of one simulation: configuration, workload and budget.
///
/// Two cells with equal keys produce bit-identical [`RunStats`] (the simulator
/// is deterministic), which is what makes memoization sound.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// The processor configuration.
    pub config: UarchConfig,
    /// The workload.
    pub workload: Workload,
    /// Outer-iteration scale passed to [`Workload::build`].
    pub scale: u64,
    /// Maximum simulated (committed) instructions.
    pub max_insts: u64,
}

/// Per-cell diagnostics for a supervised simulation that panicked (a
/// modelling bug, a poisoned input, or the pipeline's no-progress assertion).
///
/// The supervisor ([`RunEngine::run_cells`]) catches the failure, records it,
/// and keeps the rest of the sweep going; callers read the tally from
/// [`EngineReport::failed_cells`] and the details from
/// [`RunEngine::failures`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellError {
    /// The configuration label (`1pV`, `4pnoIM`, …).
    pub label: String,
    /// The workload that failed.
    pub workload: Workload,
    /// The panic message.
    pub message: String,
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell {}/{} FAILED (panic): {}",
            self.label, self.workload, self.message
        )
    }
}

/// Session counters: how much work the engine was asked for vs. actually did,
/// and how effective the attached persistent store was.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineReport {
    /// Cells requested by generators (including repeats).
    pub requested: u64,
    /// Unique cells actually simulated.
    pub simulated: u64,
    /// Unique cells whose supervised simulation failed (they panicked);
    /// details via [`RunEngine::failures`].
    pub failed_cells: u64,
    /// Unique cells and stride profiles served from the persistent result
    /// store.
    pub store_hits: u64,
    /// Unique cells and stride profiles the store was probed for but did not
    /// hold (each one then had to be simulated or profiled).
    pub store_misses: u64,
    /// Entries [`RunEngine::persist`] newly added to the store this session.
    pub store_inserts: u64,
}

impl EngineReport {
    /// Requests served from the memo cache instead of being re-simulated.
    #[must_use]
    pub fn deduplicated(&self) -> u64 {
        self.requested.saturating_sub(self.simulated)
    }

    /// Fraction of store probes (cells and stride profiles) that hit, if any
    /// probes happened — the "100% store hits" signal of a fully warmed
    /// re-run.
    #[must_use]
    pub fn store_hit_rate(&self) -> Option<f64> {
        let probes = self.store_hits + self.store_misses;
        (probes > 0).then(|| self.store_hits as f64 / probes as f64)
    }
}

impl std::fmt::Display for EngineReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "run engine: {} unique cells simulated, {} of {} requests served from cache",
            self.simulated,
            self.deduplicated(),
            self.requested
        )?;
        if let Some(rate) = self.store_hit_rate() {
            write!(
                f,
                " (store: {} hits, {} misses, {} inserts — {:.0}% hit rate)",
                self.store_hits,
                self.store_misses,
                self.store_inserts,
                rate * 100.0
            )?;
        } else if self.store_inserts > 0 {
            write!(f, " (store: {} inserts)", self.store_inserts)?;
        }
        if self.failed_cells > 0 {
            write!(
                f,
                "; {} cell{} FAILED",
                self.failed_cells,
                if self.failed_cells == 1 { "" } else { "s" }
            )?;
        }
        Ok(())
    }
}

/// Wall-clock accounting for one simulated cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTiming {
    /// The configuration label (`1pV`, `4pnoIM`, …).
    pub label: String,
    /// The workload simulated.
    pub workload: Workload,
    /// Instructions the run committed.
    pub committed: u64,
    /// Wall-clock time the simulation took.
    pub wall: Duration,
}

impl CellTiming {
    /// Committed instructions per wall-clock second for this cell.
    #[must_use]
    pub fn insts_per_second(&self) -> f64 {
        per_second(self.committed, self.wall)
    }
}

/// `count` per second of `wall`; zero for an empty interval.
fn per_second(count: u64, wall: Duration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs == 0.0 {
        0.0
    } else {
        count as f64 / secs
    }
}

/// Aggregate wall-clock statistics for every cell an engine simulated.
///
/// `wall` sums per-cell simulation time across worker threads (CPU time of
/// the simulations, not batch latency); `session` is the elapsed time since
/// the engine was created.  The headline throughput metric is
/// [`EngineTiming::insts_per_second`].
#[derive(Debug, Clone, Default)]
pub struct EngineTiming {
    /// Sum of per-cell wall-clock times.
    pub wall: Duration,
    /// Wall-clock time since the engine was created.
    pub session: Duration,
    /// Total simulated cycles across all simulated cells.
    pub simulated_cycles: u64,
    /// Per-cell timings, in simulation-completion order.
    pub cells: Vec<CellTiming>,
}

impl EngineTiming {
    /// Committed instructions across all simulated cells.
    fn committed(&self) -> u64 {
        self.cells.iter().map(|c| c.committed).sum()
    }

    /// Committed instructions per second of simulation wall-clock:
    /// Σ committed / Σ wall over the simulated cells.
    #[must_use]
    pub fn insts_per_second(&self) -> f64 {
        per_second(self.committed(), self.wall)
    }

    /// The slowest cell, if any was simulated.
    #[must_use]
    pub fn slowest(&self) -> Option<&CellTiming> {
        self.cells.iter().max_by_key(|c| c.wall)
    }
}

impl std::fmt::Display for EngineTiming {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "engine timing: {} cells, {} committed instructions in {:.3}s of simulation \
             ({:.0} insts/s; session wall-clock {:.3}s)",
            self.cells.len(),
            self.committed(),
            self.wall.as_secs_f64(),
            self.insts_per_second(),
            self.session.as_secs_f64()
        )?;
        if let Some(slow) = self.slowest() {
            write!(
                f,
                "; slowest cell {}/{} at {:.3}s",
                slow.label,
                slow.workload,
                slow.wall.as_secs_f64()
            )?;
        }
        Ok(())
    }
}

/// How many newly simulated results accumulate before [`RunEngine`] persists
/// them to an attached store on its own, so a crashed or killed sweep loses
/// at most one window of simulation work.
const PERSIST_EVERY: u64 = 64;

/// Retries (with exponential backoff from 10 ms) for transient store I/O
/// failures during [`RunEngine::persist`].
const PERSIST_RETRIES: u32 = 2;

/// Deduplicating, memoizing, parallel executor for simulation cells.
///
/// The engine owns the run budget ([`RunConfig`]) so that every generator
/// built on top of it shares one memo space.  Results are deterministic and
/// independent of the thread count: unique cells are simulated in first-seen
/// order slots and each individual simulation is single-threaded.
///
/// ```
/// use sdv_sim::{PortKind, RunConfig, RunEngine, UarchConfig, Workload};
///
/// let engine = RunEngine::new(RunConfig::quick()).with_threads(2);
/// let cfg = UarchConfig::four_way(1, PortKind::Wide);
/// let first = engine.run_cell(&cfg, Workload::Compress);
/// let again = engine.run_cell(&cfg, Workload::Compress); // memo hit
/// assert_eq!(first, again);
/// assert_eq!(engine.report().simulated, 1);
/// ```
///
/// Attach a store directory with [`Self::with_disk_cache`] to reuse results
/// across processes; long sweeps then persist automatically every 64 new
/// results.  A periodic persist that still fails after its retries degrades
/// the engine to in-memory caching ([`Self::store_degraded`]) and keeps
/// simulating.
pub struct RunEngine {
    rc: RunConfig,
    threads: usize,
    cache: Mutex<HashMap<CellKey, RunStats>>,
    /// Stride profiles memoized per workload (the engine's budget is fixed).
    profiles: Mutex<HashMap<Workload, StrideStats>>,
    requested: AtomicU64,
    simulated: AtomicU64,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
    store_inserts: AtomicU64,
    timing: Mutex<EngineTiming>,
    created: Instant,
    /// The persistent result store sessions are served from and persisted to.
    store: Option<sdv_store::Store>,
    /// Newly simulated results not yet flushed by a periodic persist.
    unpersisted: AtomicU64,
    /// Failed cells, memoized so a panicking cell is attempted exactly once
    /// per session.
    failed: Mutex<HashMap<CellKey, CellError>>,
    /// Set when the store proved unusable (unwritable, corrupt, full): the
    /// engine then runs on in-memory caching only — a loud warning is printed
    /// exactly once when this trips.
    store_disabled: AtomicBool,
    /// The session's observability handle (metrics registry + event tracer);
    /// defaults to [`ObsLevel::Off`], where every recording call is one
    /// branch.  Shared with the attached store (see [`Self::with_obs`]).
    obs: Arc<Obs>,
    /// Total persist-retry attempts this session (all threads).  The first
    /// one prints the stderr warning, so it is emitted exactly once per
    /// session even under `--threads N` (later retries are counted, traced,
    /// and summarised at exit instead).
    persist_retries: AtomicU64,
    /// Test seam: runs inside the supervised worker before each simulation
    /// (fault injection for the supervision machinery itself).
    cell_hook: Option<CellHook>,
}

/// A callback run inside the supervised worker before each cell simulation —
/// the fault-injection seam for the supervision machinery itself (see
/// [`RunEngine::with_cell_hook`]).
pub type CellHook = Arc<dyn Fn(&CellKey) + Send + Sync>;

impl RunEngine {
    /// Creates a serial engine with the given run budget.
    #[must_use]
    pub fn new(rc: RunConfig) -> Self {
        RunEngine {
            rc,
            threads: 1,
            cache: Mutex::new(HashMap::new()),
            profiles: Mutex::new(HashMap::new()),
            requested: AtomicU64::new(0),
            simulated: AtomicU64::new(0),
            store_hits: AtomicU64::new(0),
            store_misses: AtomicU64::new(0),
            store_inserts: AtomicU64::new(0),
            timing: Mutex::new(EngineTiming::default()),
            created: Instant::now(),
            store: None,
            unpersisted: AtomicU64::new(0),
            failed: Mutex::new(HashMap::new()),
            store_disabled: AtomicBool::new(false),
            obs: Arc::new(Obs::default()),
            persist_retries: AtomicU64::new(0),
            cell_hook: None,
        }
    }

    /// Sets the observability level for this session.  [`ObsLevel::Metrics`]
    /// records the metrics registry (including the pipeline cycle ledger of
    /// every simulated cell); [`ObsLevel::Trace`] additionally records
    /// ring-buffered trace events (per-cell spans, store I/O, supervision
    /// transitions).  The default, [`ObsLevel::Off`], reduces every
    /// recording site to one branch.
    ///
    /// An attached store is wrapped with the same handle (per-`IoOp`
    /// counters and lock-wait timing); attach order does not
    /// matter — [`Self::with_disk_cache`]/[`Self::with_store`] wire a store
    /// attached later into the already-configured handle.
    #[must_use]
    pub fn with_obs(mut self, level: ObsLevel) -> Self {
        self.obs = Arc::new(Obs::new(level));
        if let Some(store) = self.store.as_mut() {
            store.set_obs(Arc::clone(&self.obs));
        }
        self
    }

    /// The session's observability handle.
    #[must_use]
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Total store persist-retry attempts this session (the counter behind
    /// the exactly-once stderr warning; see [`Self::persist`]).
    #[must_use]
    pub fn persist_retries(&self) -> u64 {
        self.persist_retries.load(Ordering::Relaxed)
    }

    /// Attaches the persistent result store in `dir` (one data file,
    /// `store.bin`, behind one writer lock): previously
    /// persisted cells and stride profiles are served without re-simulation,
    /// and [`Self::persist`] merges the session's results back in.  Entries are
    /// invalidated by content-hash mismatch (any configuration/workload/budget
    /// change misses) and the whole file by a fingerprint mismatch: the
    /// fingerprint is a build-time hash of the model's source and toolchain
    /// ([`cachefile::simulator_fingerprint`]), so results written from other
    /// source are invisible.  Opening simulates nothing.
    ///
    /// Failure to open the store degrades to running without one (a warning
    /// is printed); results are identical either way.
    #[must_use]
    pub fn with_disk_cache(mut self, dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        match sdv_store::Store::open(&dir, cachefile::simulator_fingerprint()) {
            Ok(mut store) => {
                if self.obs.level() != ObsLevel::Off {
                    store.set_obs(Arc::clone(&self.obs));
                }
                self.store = Some(store);
            }
            Err(e) => eprintln!(
                "warning: cannot use result store {}: {e}\n\
                 warning: falling back to in-memory caching only — results are \
                 correct but will not persist across runs (check that the path \
                 is a writable directory)",
                dir.display()
            ),
        }
        self
    }

    /// Attaches an already-open [`sdv_store::Store`] (the seam supervision
    /// and degradation tests use to inject fault-plan-backed stores).
    #[must_use]
    pub fn with_store(mut self, store: sdv_store::Store) -> Self {
        let mut store = store;
        if self.obs.level() != ObsLevel::Off {
            store.set_obs(Arc::clone(&self.obs));
        }
        self.store = Some(store);
        self
    }

    /// Test seam: `hook` runs inside the supervised worker immediately before
    /// each simulation, so tests can inject panics or delays into specific
    /// cells and prove the supervision machinery contains them.
    #[must_use]
    pub fn with_cell_hook(mut self, hook: CellHook) -> Self {
        self.cell_hook = Some(hook);
        self
    }

    /// The attached result store's directory, if one is attached (and not
    /// degraded away).
    #[must_use]
    pub fn store_dir(&self) -> Option<&Path> {
        self.store().map(sdv_store::Store::dir)
    }

    /// The attached result store itself (e.g. to `verify` or `stats` it);
    /// `None` when no store is attached or the engine degraded to in-memory
    /// caching.
    #[must_use]
    pub fn store(&self) -> Option<&sdv_store::Store> {
        if self.store_disabled.load(Ordering::Relaxed) {
            return None;
        }
        self.store.as_ref()
    }

    /// Whether the engine gave up on its store and now caches in memory only
    /// (the store directory proved unwritable, corrupt, or full).
    #[must_use]
    pub fn store_degraded(&self) -> bool {
        self.store_disabled.load(Ordering::Relaxed)
    }

    /// Degrades to in-memory-only caching, warning loudly exactly once.
    fn degrade_store(&self, why: &std::io::Error) {
        if !self.store_disabled.swap(true, Ordering::SeqCst) {
            let dir = self
                .store
                .as_ref()
                .map(|s| s.dir().display().to_string())
                .unwrap_or_default();
            self.obs.instant(
                "store degraded",
                "store",
                &[("dir", dir.clone()), ("error", why.to_string())],
            );
            eprintln!(
                "warning: result store {dir} is unusable ({why}); \
                 DEGRADING to in-memory caching only — the sweep continues, \
                 but results from this session will not persist"
            );
        }
    }

    /// Merges every memoized result of this session — cells and stride
    /// profiles, in one batch — into the attached store.
    /// Entries other sessions persisted concurrently survive (the write is a
    /// read–merge–write under the store's writer lock), so a narrow run
    /// never shrinks a broad store.
    ///
    /// Transient I/O failures are retried twice with exponential backoff
    /// (10 ms, then 20 ms) before the error surfaces.
    ///
    /// # Errors
    ///
    /// Propagates the last I/O error once retries are exhausted.  Does
    /// nothing when no store is attached (or the engine degraded to
    /// in-memory caching).
    pub fn persist(&self) -> std::io::Result<()> {
        let Some(store) = self.store() else {
            return Ok(());
        };
        let mut batch: Vec<(u128, Vec<u8>)> = {
            let cache = recover(self.cache.lock());
            cache
                .iter()
                .map(|(key, stats)| (cachefile::key_hash(key), cachefile::stats_to_bytes(stats)))
                .collect()
        };
        batch.extend(recover(self.profiles.lock()).iter().map(|(&w, profile)| {
            (
                cachefile::profile_key_hash(w, self.rc.scale, self.rc.max_insts),
                cachefile::profile_to_bytes(profile),
            )
        }));
        let mut delay = Duration::from_millis(10);
        let mut attempt = 0u32;
        loop {
            match store.put_batch(&batch) {
                Ok(put) => {
                    self.store_inserts
                        .fetch_add(put.inserted, Ordering::Relaxed);
                    return Ok(());
                }
                Err(e) if attempt < PERSIST_RETRIES => {
                    attempt += 1;
                    self.note_persist_retry(&e, attempt, delay);
                    std::thread::sleep(delay);
                    delay = delay.saturating_mul(2);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Records one persist-retry attempt: counted and traced always, but the
    /// stderr warning is printed exactly once per session.  The print guard
    /// is the retry counter's own atomic increment (only the first retry sees
    /// zero), so concurrent periodic persists from `--threads N` workers
    /// cannot race two warnings out.
    fn note_persist_retry(&self, e: &std::io::Error, attempt: u32, delay: Duration) {
        let first = self.persist_retries.fetch_add(1, Ordering::Relaxed) == 0;
        self.obs.instant(
            "store persist retry",
            "store",
            &[
                ("attempt", format!("{attempt}/{PERSIST_RETRIES}")),
                ("backoff", format!("{delay:?}")),
                ("error", e.to_string()),
            ],
        );
        if first {
            eprintln!(
                "warning: store persist failed ({e}); retry {attempt}/{PERSIST_RETRIES} in {delay:?} \
                 (further retries are counted silently — see the end-of-run summary)"
            );
        }
    }

    /// Wall-clock accounting for the cells this engine actually simulated.
    #[must_use]
    pub fn timing(&self) -> EngineTiming {
        let mut timing = recover(self.timing.lock()).clone();
        timing.session = self.created.elapsed();
        timing
    }

    /// Sets the number of worker threads used for a batch of unique cells
    /// (0 is treated as 1).  Results do not depend on this number.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.set_threads(threads);
        self
    }

    /// In-place version of [`Self::with_threads`]; the memo cache and session
    /// counters are untouched.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The run budget every cell is simulated with.
    #[must_use]
    pub fn run_config(&self) -> &RunConfig {
        &self.rc
    }

    /// The configured worker-thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Session counters (cells requested vs. actually simulated).
    #[must_use]
    pub fn report(&self) -> EngineReport {
        EngineReport {
            requested: self.requested.load(Ordering::Relaxed),
            simulated: self.simulated.load(Ordering::Relaxed),
            failed_cells: recover(self.failed.lock()).len() as u64,
            store_hits: self.store_hits.load(Ordering::Relaxed),
            store_misses: self.store_misses.load(Ordering::Relaxed),
            store_inserts: self.store_inserts.load(Ordering::Relaxed),
        }
    }

    /// Every cell whose supervised simulation failed this session, sorted by
    /// configuration label and workload (deterministic order for reports).
    #[must_use]
    pub fn failures(&self) -> Vec<CellError> {
        let mut failures: Vec<CellError> = recover(self.failed.lock()).values().cloned().collect();
        failures.sort_by(|a, b| {
            (&a.label, a.workload.to_string()).cmp(&(&b.label, b.workload.to_string()))
        });
        failures
    }

    fn key(&self, cfg: &UarchConfig, workload: Workload) -> CellKey {
        CellKey {
            config: cfg.clone(),
            workload,
            scale: self.rc.scale,
            max_insts: self.rc.max_insts,
        }
    }

    /// The stride profile of `workload` at this engine's budget (the data
    /// behind Figure 1), memoized for the session and served from and
    /// persisted to the attached store like a cell.  Probes count in
    /// [`EngineReport::store_hits`]/[`EngineReport::store_misses`]; profiles
    /// are not cells, so they leave `requested` and `simulated` alone.
    #[must_use]
    pub fn stride_profile(&self, workload: Workload) -> StrideStats {
        if let Some(profile) = recover(self.profiles.lock()).get(&workload) {
            return profile.clone();
        }
        let (scale, max_insts) = (self.rc.scale, self.rc.max_insts);
        let stored = self.store().map(|store| {
            store
                .get(cachefile::profile_key_hash(workload, scale, max_insts))
                .and_then(|payload| cachefile::profile_from_bytes(&payload))
        });
        let profile = match stored {
            Some(Some(profile)) => {
                self.store_hits.fetch_add(1, Ordering::Relaxed);
                profile
            }
            Some(None) => {
                self.store_misses.fetch_add(1, Ordering::Relaxed);
                cachefile::stride_profile(workload, scale, max_insts)
            }
            None => cachefile::stride_profile(workload, scale, max_insts),
        };
        recover(self.profiles.lock())
            .entry(workload)
            .or_insert(profile)
            .clone()
    }

    /// Simulates one cell (through the cache).
    #[must_use]
    pub fn run_cell(&self, cfg: &UarchConfig, workload: Workload) -> RunStats {
        self.run_cells(&[(cfg.clone(), workload)])
            .pop()
            .expect("one cell in, one result out")
    }

    /// Runs every workload in `workloads` on `cfg`, as one parallel batch.
    #[must_use]
    pub fn suite(&self, workloads: &[Workload], cfg: &UarchConfig) -> SuiteResult {
        self.suites(workloads, std::slice::from_ref(cfg))
            .pop()
            .expect("one config in, one suite out")
    }

    /// Runs every workload on every configuration as a *single* batch (so the
    /// whole cross product shares one thread-pool dispatch), returning one
    /// [`SuiteResult`] per configuration in input order.
    #[must_use]
    pub fn suites(&self, workloads: &[Workload], cfgs: &[UarchConfig]) -> Vec<SuiteResult> {
        let cells: Vec<(UarchConfig, Workload)> = cfgs
            .iter()
            .flat_map(|cfg| workloads.iter().map(move |&w| (cfg.clone(), w)))
            .collect();
        let mut stats = self.run_cells(&cells).into_iter();
        cfgs.iter()
            .map(|_| SuiteResult {
                runs: workloads
                    .iter()
                    .map(|&w| (w, stats.next().expect("one result per cell")))
                    .collect(),
            })
            .collect()
    }

    /// Simulates a batch of cells, returning results in input order.
    ///
    /// Cells already in the session cache are not re-simulated; cells repeated
    /// within the batch are simulated once.  The unique misses execute on up
    /// to [`Self::threads`] worker threads, each simulation *supervised*: a
    /// panicking cell is caught, recorded as a
    /// [`CellError`] (tallied in [`EngineReport::failed_cells`], detailed by
    /// [`Self::failures`]), and returns all-zero [`RunStats`] in its input
    /// slot — the rest of the batch completes normally, and the failed cell
    /// is not retried within the session.
    ///
    /// The engine may itself be shared across caller threads.  Two concurrent
    /// batches that overlap can redundantly simulate an in-flight cell (the
    /// cache is only consulted at batch start), but results stay correct and
    /// [`Self::report`] still counts each unique cell once: `simulated`
    /// tracks cells entering the cache, not simulations performed.
    #[must_use]
    pub fn run_cells(&self, cells: &[(UarchConfig, Workload)]) -> Vec<RunStats> {
        self.requested
            .fetch_add(cells.len() as u64, Ordering::Relaxed);
        let keys: Vec<CellKey> = cells.iter().map(|(c, w)| self.key(c, *w)).collect();

        // Collect the unique cells this batch actually needs to simulate;
        // cells present in the persistent store are promoted to the session
        // cache without simulation, and cells that already failed this
        // session are not attempted again.
        let misses: Vec<CellKey> = {
            let failed = recover(self.failed.lock());
            let mut cache = recover(self.cache.lock());
            let mut seen = HashSet::new();
            let mut misses = Vec::new();
            for key in &keys {
                if cache.contains_key(key) || failed.contains_key(key) || !seen.insert(key.clone())
                {
                    continue;
                }
                if let Some(store) = self.store() {
                    if let Some(stats) = store
                        .get(cachefile::key_hash(key))
                        .and_then(|payload| cachefile::stats_from_bytes(&payload))
                    {
                        cache.insert(key.clone(), stats);
                        self.store_hits.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    self.store_misses.fetch_add(1, Ordering::Relaxed);
                }
                misses.push(key.clone());
            }
            misses
        };

        // Queue depth of this batch: how many unique cells actually need
        // simulating after dedup, memo and store probes.
        self.obs.observe(
            "engine.batch.queue_depth",
            &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
            misses.len() as f64,
        );

        // Simulate the misses into index-addressed slots: result order (and
        // content) is identical whatever the thread count.
        type CellOutcome = Result<(RunStats, Duration), CellError>;
        let slots: Vec<OnceLock<CellOutcome>> = misses.iter().map(|_| OnceLock::new()).collect();
        let workers = self.threads.min(misses.len());
        if workers <= 1 {
            for (key, slot) in misses.iter().zip(&slots) {
                slot.set(self.supervised_simulate(key))
                    .expect("slot written once");
            }
        } else {
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(key) = misses.get(i) else { break };
                        slots[i]
                            .set(self.supervised_simulate(key))
                            .expect("each slot is claimed by exactly one worker");
                    });
                }
            });
        }

        let mut cache = recover(self.cache.lock());
        let mut newly_cached = 0u64;
        for (key, slot) in misses.into_iter().zip(slots) {
            let (stats, wall) = match slot.into_inner().expect("all slots filled") {
                Ok(outcome) => outcome,
                Err(error) => {
                    eprintln!("warning: {error}");
                    self.obs.counter("engine.cells.errors", 1);
                    self.obs.instant(
                        "cell failed",
                        "engine",
                        &[
                            ("label", error.label.clone()),
                            ("workload", error.workload.to_string()),
                        ],
                    );
                    let mut failed = recover(self.failed.lock());
                    failed.entry(key).or_insert(error);
                    continue;
                }
            };
            {
                let mut timing = recover(self.timing.lock());
                timing.wall += wall;
                timing.simulated_cycles += stats.cycles;
                timing.cells.push(CellTiming {
                    label: key.config.label(),
                    workload: key.workload,
                    committed: stats.committed,
                    wall,
                });
            }
            if let std::collections::hash_map::Entry::Vacant(e) = cache.entry(key) {
                e.insert(stats);
                newly_cached += 1;
            }
        }
        self.simulated.fetch_add(newly_cached, Ordering::Relaxed);
        let results = keys
            .iter()
            .map(|k| {
                cache
                    .get(k)
                    .cloned()
                    // A failed cell yields an all-zero record in its slot so
                    // the batch shape (and every other cell) survives.
                    .unwrap_or_else(|| RunStats::new(0))
            })
            .collect();
        drop(cache); // `persist` re-locks the session cache
        self.maybe_persist(newly_cached);
        results
    }

    /// Runs one cell under supervision: a panic is caught and recorded
    /// instead of unwinding into the batch machinery.
    fn supervised_simulate(&self, key: &CellKey) -> Result<(RunStats, Duration), CellError> {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(hook) = &self.cell_hook {
                hook(key);
            }
            simulate_cell(key, &self.obs)
        }));
        outcome.map_err(|payload| CellError {
            label: key.config.label(),
            workload: key.workload,
            message: panic_message(&*payload),
        })
    }

    /// Periodic-persist bookkeeping: flushes the session cache to the store
    /// once [`PERSIST_EVERY`] new results have accumulated.
    fn maybe_persist(&self, newly_cached: u64) {
        if self.store().is_none() || newly_cached == 0 {
            return;
        }
        let pending = newly_cached + self.unpersisted.fetch_add(newly_cached, Ordering::Relaxed);
        if pending < PERSIST_EVERY {
            return;
        }
        self.unpersisted.store(0, Ordering::Relaxed);
        if let Err(e) = self.persist() {
            self.degrade_store(&e);
        }
    }
}

impl std::fmt::Debug for RunEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunEngine")
            .field("run_config", &self.rc)
            .field("threads", &self.threads)
            .field("report", &self.report())
            .finish_non_exhaustive()
    }
}

/// Runs `sdv-analyze` over `program` and summarizes any error-severity
/// findings.
///
/// The run engine does not call this: every in-tree kernel is proven clean
/// at each [`RunConfig`] preset's scale by `tests/analysis_properties.rs`
/// and CI's `sdv-analyze check` step.  It stays public for the benchmark
/// (`perfbench/`), which times it as its `analyze.preflight` layer.
///
/// # Errors
///
/// Returns a `; `-joined summary of every error-severity diagnostic.
pub fn preflight_program(program: &Program) -> Result<(), String> {
    let errors: Vec<String> = sdv_analyze::check(program)
        .iter()
        .filter(|d| d.severity == sdv_analyze::Severity::Error)
        .map(std::string::ToString::to_string)
        .collect();
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("; "))
    }
}

/// The one place a cell becomes a simulation.
///
/// With metrics enabled the run records a cycle-attribution ledger and
/// exports it (plus the memory-hierarchy instrumentation) into the shared
/// registry; with tracing enabled the whole cell becomes one span.  Both
/// observe-only paths produce bit-identical [`RunStats`].
fn simulate_cell(key: &CellKey, obs: &Obs) -> (RunStats, Duration) {
    let start = Instant::now();
    let t0 = obs.now_micros();
    let program = key.workload.build(key.scale);
    let mut proc = sdv_uarch::Processor::new(&key.config, &program);
    proc.record_cycle_ledger(obs.metrics_enabled());
    let stats = proc.run(key.max_insts);
    if obs.metrics_enabled() {
        obs.with_registry(|registry| proc.obs_metrics(registry));
    }
    obs.span(
        "cell",
        "engine",
        t0,
        &[
            ("label", key.config.label()),
            ("workload", key.workload.to_string()),
            ("cycles", stats.cycles.to_string()),
        ],
    );
    (stats, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PortKind;

    fn rc() -> RunConfig {
        RunConfig {
            scale: 1,
            max_insts: 8_000,
        }
    }

    /// One periodic-persist window of distinct cells: the 16 extended
    /// kernels on 4 configurations (64 = [`PERSIST_EVERY`]), with a short
    /// budget so crossing the real window stays cheap.
    fn persist_window() -> (RunConfig, Vec<(UarchConfig, Workload)>) {
        let cfgs = [
            UarchConfig::four_way(1, PortKind::Wide),
            UarchConfig::four_way(1, PortKind::Wide).with_vectorization(true),
            UarchConfig::four_way(2, PortKind::Scalar),
            UarchConfig::eight_way(1, PortKind::Wide),
        ];
        let cells: Vec<_> = cfgs
            .iter()
            .flat_map(|cfg| Workload::extended().map(|w| (cfg.clone(), w)))
            .collect();
        assert_eq!(cells.len() as u64, PERSIST_EVERY);
        let rc = RunConfig {
            scale: 1,
            max_insts: 1_000,
        };
        (rc, cells)
    }

    #[test]
    fn cache_hits_do_not_resimulate() {
        let engine = RunEngine::new(rc());
        let cfg = UarchConfig::four_way(1, PortKind::Wide);
        let first = engine.run_cell(&cfg, Workload::Compress);
        let second = engine.run_cell(&cfg, Workload::Compress);
        assert_eq!(first, second);
        let report = engine.report();
        assert_eq!(report.requested, 2);
        assert_eq!(report.simulated, 1);
        assert_eq!(report.deduplicated(), 1);
        assert!(report.to_string().contains("1 unique cells"));
    }

    #[test]
    fn in_batch_duplicates_simulate_once() {
        let engine = RunEngine::new(rc());
        let cfg = UarchConfig::four_way(1, PortKind::Wide);
        let cells = vec![
            (cfg.clone(), Workload::Compress),
            (cfg.clone(), Workload::Swim),
            (cfg, Workload::Compress),
        ];
        let stats = engine.run_cells(&cells);
        assert_eq!(stats.len(), 3);
        assert_eq!(stats[0], stats[2]);
        assert_eq!(engine.report().simulated, 2);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let cfgs = [
            UarchConfig::four_way(1, PortKind::Wide),
            UarchConfig::four_way(2, PortKind::Scalar).with_vectorization(true),
        ];
        let ws = [Workload::Compress, Workload::Swim, Workload::Li];
        let serial = RunEngine::new(rc());
        let parallel = RunEngine::new(rc()).with_threads(4);
        assert_eq!(
            serial.suites(&ws, &cfgs),
            parallel.suites(&ws, &cfgs),
            "parallel execution must be bit-identical to serial"
        );
        assert_eq!(serial.report(), parallel.report());
    }

    #[test]
    fn timing_accounts_only_for_simulated_cells() {
        let engine = RunEngine::new(rc());
        let cfg = UarchConfig::four_way(1, PortKind::Wide);
        let first = engine.run_cell(&cfg, Workload::Compress);
        let _ = engine.run_cell(&cfg, Workload::Compress); // cache hit
        let timing = engine.timing();
        assert_eq!(timing.cells.len(), 1, "cache hits are not timed");
        assert_eq!(timing.simulated_cycles, first.cycles);
        assert_eq!(timing.cells[0].label, cfg.label());
        assert_eq!(timing.cells[0].workload, Workload::Compress);
        assert_eq!(timing.cells[0].committed, first.committed);
        assert!(timing.wall > Duration::ZERO);
        let ips = first.committed as f64 / timing.wall.as_secs_f64();
        assert!((timing.insts_per_second() - ips).abs() <= 1e-9 * ips);
        assert!(timing.slowest().is_some());
        let text = timing.to_string();
        assert!(text.contains("insts/s"), "{text}");
    }

    #[test]
    fn periodic_persist_flushes_without_an_explicit_call() {
        let dir = std::env::temp_dir().join(format!("sdv-engine-periodic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (rc, cells) = persist_window();
        let (head, last) = cells.split_at(cells.len() - 1);

        // One cell short of the window nothing is flushed; the last cell
        // crosses it and persists every accumulated result on its own.
        let engine = RunEngine::new(rc).with_disk_cache(&dir);
        let _ = engine.run_cells(head);
        assert_eq!(engine.report().store_inserts, 0, "below the window");
        let _ = engine.run_cells(last);
        assert_eq!(
            engine.report().store_inserts,
            PERSIST_EVERY,
            "crossing the window flushes every accumulated result"
        );

        // A crashed sweep (no explicit persist) left the whole window durable.
        let reader = RunEngine::new(rc).with_disk_cache(&dir);
        let _ = reader.run_cells(&cells);
        assert_eq!(reader.report().store_hits, PERSIST_EVERY);
        assert_eq!(reader.report().simulated, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_round_trips_between_engines() {
        let dir = std::env::temp_dir().join(format!("sdv-engine-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = UarchConfig::four_way(1, PortKind::Wide).with_vectorization(true);

        let writer = RunEngine::new(rc()).with_disk_cache(&dir);
        let fresh = writer.run_cell(&cfg, Workload::Swim);
        assert_eq!(writer.report().simulated, 1);
        assert_eq!(writer.report().store_hits, 0);
        assert_eq!(writer.report().store_misses, 1);
        assert_eq!(writer.report().store_hit_rate(), Some(0.0));
        writer.persist().expect("store persisted");
        assert_eq!(writer.report().store_inserts, 1);
        assert_eq!(writer.store_dir(), Some(dir.as_path()));
        let store = writer.store().expect("store attached");
        assert!(store.verify().expect("verify runs").is_ok());
        assert_eq!(store.stats().expect("stats run").entries, 1);

        let reader = RunEngine::new(rc()).with_disk_cache(&dir);
        let cached = reader.run_cell(&cfg, Workload::Swim);
        assert_eq!(cached, fresh, "store hits are bit-identical");
        let report = reader.report();
        assert_eq!(report.simulated, 0, "nothing was re-simulated");
        assert_eq!(report.store_hits, 1);
        assert_eq!(report.store_misses, 0);
        assert_eq!(report.store_hit_rate(), Some(1.0));
        assert!(report.to_string().contains("100% hit rate"), "{report}");
        assert_eq!(reader.timing().cells.len(), 0, "store hits are not timed");
        reader.persist().expect("store persisted");
        assert_eq!(
            reader.report().store_inserts,
            0,
            "a fully warmed session adds nothing"
        );

        // A different budget is a different content hash: full miss — and
        // persisting this narrow session must not evict the earlier entry.
        let other = RunEngine::new(RunConfig {
            scale: 1,
            max_insts: 9_000,
        })
        .with_disk_cache(&dir);
        let _ = other.run_cell(&cfg, Workload::Swim);
        assert_eq!(other.report().simulated, 1);
        assert_eq!(other.report().store_hits, 0);
        other.persist().expect("store persisted");

        let merged = RunEngine::new(rc()).with_disk_cache(&dir);
        let _ = merged.run_cell(&cfg, Workload::Swim);
        assert_eq!(
            merged.report().store_hits,
            1,
            "the original entry survived the narrow session's persist"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn observed_runs_are_bit_identical_and_recorded() {
        let cfg = UarchConfig::four_way(1, PortKind::Wide).with_vectorization(true);
        let baseline = RunEngine::new(rc()).run_cell(&cfg, Workload::Compress);

        let observed = RunEngine::new(rc()).with_obs(ObsLevel::Trace);
        let stats = observed.run_cell(&cfg, Workload::Compress);
        assert_eq!(baseline, stats, "observation must not perturb results");

        let snap = observed.obs().snapshot();
        assert!(
            snap.counter("pipeline.cycles.committing").unwrap_or(0) > 0,
            "the cycle ledger was exported: {snap:?}"
        );
        let attributed: u64 = sdv_obs::CycleBucket::ALL
            .iter()
            .filter_map(|b| snap.counter(&format!("pipeline.cycles.{}", b.name())))
            .sum();
        assert_eq!(attributed, stats.cycles, "bucket-sum equals total cycles");
        assert!(
            snap.histogram("engine.batch.queue_depth").is_some(),
            "queue depth observed"
        );
        assert_eq!(observed.obs().dropped_events(), 0);
        assert!(
            observed.obs().trace_json().contains("\"name\": \"cell\""),
            "the cell span is in the trace"
        );
    }

    #[test]
    fn preflight_rejects_a_broken_program() {
        use sdv_isa::{ArchReg, Asm};
        let mut a = Asm::new();
        a.add(ArchReg::int(1), ArchReg::int(2), ArchReg::int(3)); // x2, x3 never written
        a.halt();
        let err = super::preflight_program(&a.finish()).expect_err("use-before-def is an error");
        assert!(err.contains("use-before-def"), "{err}");
    }

    #[test]
    fn suites_split_one_batch_per_config() {
        let engine = RunEngine::new(rc()).with_threads(2);
        let cfgs = [
            UarchConfig::four_way(1, PortKind::Wide),
            UarchConfig::four_way(1, PortKind::Wide).with_vectorization(true),
        ];
        let suites = engine.suites(&[Workload::Compress, Workload::Swim], &cfgs);
        assert_eq!(suites.len(), 2);
        for suite in &suites {
            assert_eq!(suite.runs.len(), 2);
            assert!(suite.mean(|s| s.ipc()) > 0.0);
        }
        assert_eq!(engine.report().simulated, 4);
    }

    #[test]
    fn panicking_cell_fails_typed_and_the_batch_completes() {
        let engine = RunEngine::new(rc())
            .with_threads(2)
            .with_cell_hook(Arc::new(|key: &CellKey| {
                if key.workload == Workload::Swim {
                    panic!("injected cell failure");
                }
            }));
        let cfg = UarchConfig::four_way(1, PortKind::Wide);
        let cells = vec![
            (cfg.clone(), Workload::Compress),
            (cfg.clone(), Workload::Swim),
            (cfg, Workload::Li),
        ];
        let stats = engine.run_cells(&cells);
        assert_eq!(stats.len(), 3, "the batch keeps its shape");
        assert!(stats[0].cycles > 0);
        assert_eq!(
            stats[1],
            RunStats::new(0),
            "failed cell yields a zero record"
        );
        assert!(stats[2].cycles > 0);
        let report = engine.report();
        assert_eq!(report.failed_cells, 1);
        assert!(report.to_string().contains("FAILED"), "{report}");
        let failures = engine.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].workload, Workload::Swim);
        assert!(failures[0].message.contains("injected cell failure"));
        assert!(failures[0].to_string().contains("FAILED"));
    }

    #[test]
    fn failed_cells_are_memoized_and_not_retried() {
        let attempts = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&attempts);
        let engine = RunEngine::new(rc()).with_cell_hook(Arc::new(move |_key: &CellKey| {
            counter.fetch_add(1, Ordering::SeqCst);
            panic!("always fails");
        }));
        let cfg = UarchConfig::four_way(1, PortKind::Wide);
        let _ = engine.run_cell(&cfg, Workload::Compress);
        let _ = engine.run_cell(&cfg, Workload::Compress);
        assert_eq!(
            attempts.load(Ordering::SeqCst),
            1,
            "a failed cell is never retried within the session"
        );
        assert_eq!(engine.report().failed_cells, 1);
    }

    #[test]
    fn persist_failure_degrades_to_in_memory_caching() {
        let dir = std::env::temp_dir().join(format!("sdv-engine-degrade-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // ENOSPC on the first try and on both retries.
        let io = Arc::new(
            (0..=u64::from(PERSIST_RETRIES)).fold(sdv_store::FaultPlan::new(), |plan, nth| {
                plan.with_fault(sdv_store::IoOp::Write, nth, sdv_store::Fault::Enospc)
            }),
        );
        let store = sdv_store::Store::open_with_io(&dir, 1, io).expect("store opens");
        let (rc, cells) = persist_window();
        let engine = RunEngine::new(rc).with_store(store);
        let stats = engine.run_cells(&cells);
        assert!(
            stats.iter().all(|s| s.cycles > 0),
            "the simulations themselves succeed"
        );
        assert_eq!(engine.persist_retries(), u64::from(PERSIST_RETRIES));
        assert!(
            engine.store_degraded(),
            "ENOSPC past every retry degrades to in-memory caching"
        );
        assert!(engine.store().is_none());
        assert!(engine.persist().is_ok(), "persist is a no-op once degraded");
        // Later cells keep working from the in-memory cache.
        let again = engine.run_cells(&cells);
        assert_eq!(stats, again);
        assert_eq!(engine.report().simulated, PERSIST_EVERY);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_store_errors_are_retried_then_persist() {
        let dir = std::env::temp_dir().join(format!("sdv-engine-retry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let io = Arc::new(sdv_store::FaultPlan::new().with_fault(
            sdv_store::IoOp::Write,
            0,
            sdv_store::Fault::Eio,
        ));
        let store = sdv_store::Store::open_with_io(&dir, 1, io).expect("store opens");
        let (rc, cells) = persist_window();
        let engine = RunEngine::new(rc).with_store(store);
        let _ = engine.run_cells(&cells);
        assert!(
            !engine.store_degraded(),
            "a transient EIO is absorbed by the retry loop"
        );
        assert_eq!(engine.persist_retries(), 1);
        let reopened = sdv_store::Store::open(&dir, 1).expect("store reopens");
        for (cfg, workload) in cells {
            let key = CellKey {
                config: cfg,
                workload,
                scale: rc.scale,
                max_insts: rc.max_insts,
            };
            assert!(
                reopened.get(cachefile::key_hash(&key)).is_some(),
                "the retried persist landed on disk"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

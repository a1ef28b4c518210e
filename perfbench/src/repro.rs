//! `repro-quick`: what `repro --quick` does through one engine session —
//! Figures 1, 3, 7, 9–15 and the headline — as a cold pass into an empty
//! on-disk store, followed by warm replays served from that store.

use crate::digest::{fnv_hex, of_debug};
use crate::metrics::{counter_metrics, ledger_metrics, warm_metrics, Metrics};
use crate::stats::{best, median};
use crate::timing_io::{OpTotals, TimingIo};
use crate::trace::Spans;
use crate::{alloc, Bench};
use sdv_obs::MetricsRegistry;
use sdv_sim::engine::CellHook;
use sdv_sim::{
    fig1, fig10, fig13, fig14, fig15, fig3, fig7, fig9, headline, port_sweep, CellKey,
    EngineReport, Experiment, Fig11, Fig12, ObsLevel, RunConfig, RunEngine, RunStats, SweepGrid,
    Workload,
};
use sdv_store::{RealIo, Store, StoreIo};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every generator `repro --quick` prints (Figures 11 and 12 share a sweep).
const GENERATORS: [&str; 10] = [
    "fig1", "fig3", "fig7", "fig9", "fig10", "fig11+12", "fig13", "fig14", "fig15", "headline",
];

/// Warm replays after each cold pass.
const WARM_REPLAYS: usize = 16;

/// Regenerates one figure's printed text.
fn generate(engine: &RunEngine, name: &str) -> String {
    let w = &Workload::all();
    match name {
        "fig1" => fig1(engine, w).to_string(),
        "fig3" => fig3(engine, w).to_string(),
        "fig7" => fig7(engine, w).to_string(),
        "fig9" => fig9(engine, w).to_string(),
        "fig10" => fig10(engine, w).to_string(),
        "fig11+12" => {
            let sweep = port_sweep(engine, w, &SweepGrid::paper());
            format!("{}\n{}", Fig11(&sweep), Fig12(&sweep))
        }
        "fig13" => fig13(engine, w).to_string(),
        "fig14" => fig14(engine, w).to_string(),
        "fig15" => fig15(engine, w).to_string(),
        "headline" => headline(engine, w).to_string(),
        other => unreachable!("unknown generator {other}"),
    }
}

/// How one pass opens its engine.
#[derive(Clone)]
struct Setup<'a> {
    dir: &'a Path,
    fingerprint: u64,
    threads: usize,
    obs: ObsLevel,
    /// Open the store through this timing decorator (else `with_disk_cache`).
    io: Option<Arc<TimingIo>>,
    /// Collects the key of every cell the engine simulates.
    keys: Option<Arc<Mutex<Vec<CellKey>>>>,
}

fn open(setup: &Setup) -> RunEngine {
    let mut engine = RunEngine::new(RunConfig::quick())
        .with_threads(setup.threads)
        .with_obs(setup.obs);
    engine = match &setup.io {
        None => engine.with_disk_cache(setup.dir),
        Some(io) => {
            let io: Arc<dyn StoreIo> = io.clone();
            let store = Store::open_with_io(setup.dir, setup.fingerprint, io)
                .expect("the benchmark's scratch directory is writable");
            engine.with_store(store)
        }
    };
    if let Some(keys) = &setup.keys {
        let keys = Arc::clone(keys);
        let hook: CellHook = Arc::new(move |key: &CellKey| {
            keys.lock().expect("key list lock").push(key.clone());
        });
        engine = engine.with_cell_hook(hook);
    }
    engine
}

/// One pass over every generator.
struct Pass {
    secs: f64,
    engine: RunEngine,
    texts: Vec<(usize, String)>,
    report: EngineReport,
    fig1_s: f64,
    persist_s: f64,
}

/// Opens an engine and runs the generators in `order`; a cold pass
/// (`persist`) ends by persisting the session to the store, as `repro` does.
fn pass(setup: &Setup, order: &[usize], persist: bool, spans: &mut Spans, trace: u64) -> Pass {
    let start = Instant::now();
    let root = spans.open(
        if persist {
            "sim.cold_pass"
        } else {
            "sim.warm_replay"
        },
        trace,
        None,
    );
    let engine = open(setup);
    let mut texts = Vec::new();
    let mut fig1_s = 0.0;
    for &g in order {
        let span = spans.open("sim.generator", trace, Some(&root));
        texts.push((g, generate(&engine, GENERATORS[g])));
        let secs = spans.close(span);
        if GENERATORS[g] == "fig1" {
            fig1_s = secs;
        }
    }
    let mut persist_s = 0.0;
    if persist {
        let span = spans.open("store.persist", trace, Some(&root));
        if let Err(e) = engine.persist() {
            eprintln!("perfbench: persist failed: {e}");
        }
        persist_s = spans.close(span);
    }
    if let Some(io) = &setup.io {
        for (name, start, end) in io.take_log() {
            spans.record(name, trace, root.id(), start, end);
        }
    }
    spans.close(root);
    let secs = start.elapsed().as_secs_f64();
    let report = engine.report();
    Pass {
        secs,
        engine,
        texts,
        report,
        fig1_s,
        persist_s,
    }
}

/// Checks every figure's printed text against its pin.
fn check_texts(p: &Pass, b: &mut Bench) {
    for (g, text) in &p.texts {
        b.check(
            &format!("text quick {}", GENERATORS[*g]),
            &fnv_hex(text.as_bytes()),
        );
    }
}

/// Digests every cell a cold pass simulated (one operation each) and
/// returns their ids and statistics, in simulation order.
fn check_cells(p: &Pass, keys: &Mutex<Vec<CellKey>>, b: &mut Bench) -> Vec<(String, RunStats)> {
    for failure in p.engine.failures() {
        eprintln!("perfbench: {failure}");
    }
    let keys = std::mem::take(&mut *keys.lock().expect("key list lock"));
    keys.iter()
        .map(|key| {
            // A memo hit: the engine returns the cell it just simulated (an
            // all-zero record for a failed cell, which cannot match its pin).
            let stats = p.engine.run_cell(&key.config, key.workload);
            let id = format!(
                "cell quick {}/{} {}",
                key.config.label(),
                key.workload.name(),
                &fnv_hex(format!("{key:?}").as_bytes())[..12]
            );
            b.check(&id, &of_debug(&stats));
            (id, stats)
        })
        .collect()
}

/// Checks a warm replay: every unique cell served from the store (one
/// operation each; a miss is a failed operation) and the same text.
fn check_warm(p: &Pass, b: &mut Bench) {
    for _ in 0..p.report.store_hits {
        b.tally.record(true);
    }
    for _ in 0..p.report.store_misses.max(p.report.simulated) {
        b.tally.record(false);
    }
    if p.report.simulated > 0 {
        eprintln!(
            "perfbench: a warm replay simulated {} cells",
            p.report.simulated
        );
    }
    check_texts(p, b);
}

fn remove(dir: &Path) {
    if let Err(e) = std::fs::remove_dir_all(dir) {
        eprintln!("perfbench: cannot remove {}: {e}", dir.display());
    }
}

fn shuffled(b: &mut Bench) -> Vec<usize> {
    let mut order: Vec<usize> = (0..GENERATORS.len()).collect();
    b.rng.shuffle(&mut order);
    order
}

/// Timed parts of repeated passes over the same work (the parts of one pass
/// add up to its time).  The estimate is the sum of each part's best round,
/// the same per-cell estimator as the paper workloads.
#[derive(Default)]
struct Parts(BTreeMap<String, Vec<f64>>);

impl Parts {
    fn add(&mut self, part: &str, secs: f64) {
        self.0.entry(part.to_string()).or_default().push(secs);
    }

    fn estimate(&self) -> f64 {
        self.0.values().map(|v| best(v)).sum()
    }

    /// The best round of each named part (diagnostics).
    fn describe(&self) -> String {
        let cells: f64 = self
            .0
            .iter()
            .filter(|(k, _)| k.starts_with("cell"))
            .map(|(_, v)| best(v))
            .sum();
        let named = self
            .0
            .iter()
            .filter(|(k, _)| !k.starts_with("cell"))
            .map(|(k, v)| format!("{k} {:.6} s", best(v)));
        std::iter::once(format!("cells {cells:.6} s"))
            .chain(named)
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Splits a cold pass into its simulated cells (the engine's per-cell
    /// wall time, in simulation order), Figure 1's profiling, and the rest.
    fn add_cold(&mut self, p: &Pass, cells: &[(String, RunStats)]) {
        let timing = p.engine.timing();
        if timing.cells.len() != cells.len() {
            // Failed cells (already counted) leave no timing: time the pass whole.
            self.add("pass", p.secs);
            return;
        }
        let mut simulated = 0.0;
        for ((id, _), cell) in cells.iter().zip(&timing.cells) {
            self.add(id, cell.wall.as_secs_f64());
            simulated += cell.wall.as_secs_f64();
        }
        self.add("fig1", p.fig1_s);
        self.add("rest", p.secs - simulated - p.fig1_s);
    }
}

/// What every `repro` invocation pays first — the simulator fingerprint and
/// the store open — timed in this process, with the fingerprint it computed.
pub fn setup_once(dir: &Path) -> (f64, u64) {
    let t0 = Instant::now();
    let exp = Experiment::new(RunConfig::quick()).disk_cache(dir);
    let secs = t0.elapsed().as_secs_f64();
    let fingerprint = exp
        .engine()
        .store()
        .map(Store::fingerprint)
        .expect("the scratch store opens");
    drop(exp);
    remove(dir);
    (secs, fingerprint)
}

/// What the traced rounds measured, one entry per traced round.
#[derive(Default)]
struct Layers {
    cold: Vec<f64>,
    session: Vec<f64>,
    cell_wall: Vec<f64>,
    fig1: Vec<f64>,
    persist: Vec<f64>,
    parallel: Vec<f64>,
    allocs: Vec<f64>,
    /// Cold-pass write, rename and lock totals.
    cold_io: Vec<[OpTotals; 3]>,
    /// Per warm replay: read totals and store hit rate.
    warm_read: Vec<OpTotals>,
    warm_hit_rate: Vec<f64>,
    /// The first traced cold pass's report, registry and simulated cycles.
    first: Option<(EngineReport, MetricsRegistry, u64)>,
}

pub fn run(b: &mut Bench) -> Metrics {
    let (_, fingerprint) = setup_once(&b.scratch.join("setup"));
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let (mut cold, mut warm, mut setups) = (Parts::default(), Parts::default(), Vec::new());
    let (mut cold_passes, mut warm_replays) = (Vec::new(), Vec::new());
    let mut cells: Vec<(String, RunStats)> = Vec::new();
    let mut layers = Layers::default();
    let mut round_secs: Vec<f64> = Vec::new();
    let mut trace = 0;
    let min_rounds = if b.run.traced { 4 } else { 3 };
    for round in 0.. {
        if !b.another_round(round, min_rounds, &round_secs) {
            break;
        }
        let round_start = Instant::now();
        // In the traced run, odd rounds are traced and even rounds plain.
        let traced = b.run.traced && round % 2 == 1;
        let dir = b.scratch.join(format!("round-{round}"));
        let keys = Arc::new(Mutex::new(Vec::new()));
        let timed_io = || traced.then(|| Arc::new(TimingIo::new(Arc::new(RealIo))));
        let setup = Setup {
            dir: &dir,
            fingerprint,
            threads: 1,
            obs: if traced {
                ObsLevel::Metrics
            } else {
                ObsLevel::Off
            },
            io: timed_io(),
            keys: Some(Arc::clone(&keys)),
        };
        let order = shuffled(b);
        trace += 1;
        let a0 = alloc::count();
        let p = pass(&setup, &order, true, &mut b.spans, trace);
        let allocs = alloc::count() - a0;
        check_texts(&p, b);
        let stats = check_cells(&p, &keys, b);
        if let Some(io) = &setup.io {
            let timing = p.engine.timing();
            layers.cold.push(p.secs);
            layers.session.push(timing.session.as_secs_f64());
            layers.cell_wall.push(timing.wall.as_secs_f64());
            layers.fig1.push(p.fig1_s);
            layers.persist.push(p.persist_s);
            layers.allocs.push(allocs as f64);
            layers
                .cold_io
                .push([&io.write, &io.rename, &io.lock].map(|t| t.totals()));
            layers.first.get_or_insert_with(|| {
                (p.report, p.engine.obs().snapshot(), timing.simulated_cycles)
            });
        } else {
            cold.add_cold(&p, &stats);
            cold_passes.push(p.secs);
        }
        if cells.is_empty() {
            cells = stats;
        }
        drop(p);

        for _ in 0..WARM_REPLAYS {
            let setup = Setup {
                io: timed_io(),
                keys: None,
                obs: ObsLevel::Off,
                ..setup.clone()
            };
            let order = shuffled(b);
            trace += 1;
            let p = pass(&setup, &order, false, &mut b.spans, trace);
            check_warm(&p, b);
            match &setup.io {
                Some(io) => {
                    layers.warm_read.push(io.read.totals());
                    layers
                        .warm_hit_rate
                        .push(p.report.store_hit_rate().unwrap_or(0.0));
                }
                None => {
                    warm.add("fig1", p.fig1_s);
                    warm.add("rest", p.secs - p.fig1_s);
                    warm_replays.push(p.secs);
                }
            }
        }
        remove(&dir);
        if !traced {
            setups.extend(b.probe_setups());
        }

        if traced {
            // Parallel scaling: the same cold pass on every host thread.
            let dir = b.scratch.join(format!("round-{round}-parallel"));
            let setup = Setup {
                dir: &dir,
                fingerprint,
                threads,
                obs: ObsLevel::Off,
                io: None,
                keys: None,
            };
            trace += 1;
            let p = pass(&setup, &order, true, &mut b.spans, trace);
            check_texts(&p, b);
            layers.parallel.push(p.secs);
            drop(p);
            remove(&dir);
        }
        round_secs.push(round_start.elapsed().as_secs_f64());
    }

    let committed: f64 = cells.iter().map(|(_, s)| s.committed as f64).sum();
    println!(
        "perfbench: insts_per_s over the median cold pass = {}",
        committed / median(&cold_passes)
    );
    println!("perfbench: cold pass parts: {}", cold.describe());
    println!("perfbench: warm replay parts: {}", warm.describe());
    let mut m = Metrics::default();
    m.set("insts_per_s", committed / cold.estimate());
    m.set("setup_s", median(&setups));
    m.extend(warm_metrics(warm.estimate(), &warm_replays));
    println!(
        "perfbench: {} rounds, {} untraced cold passes of {} cells, {} set-up probes",
        round_secs.len(),
        cold_passes.len(),
        cells.len(),
        setups.len()
    );
    if !b.run.traced {
        return m;
    }

    let (report, registry, cycles) = layers.first.take().expect("at least one traced round");
    let session = best(&layers.session);
    let cell_wall = best(&layers.cell_wall);
    m.set("sim.session_s", session);
    m.set("sim.cell_wall_s", cell_wall);
    m.set("sim.engine_overhead_s", session - cell_wall);
    m.set("sim.cells_requested", report.requested as f64);
    m.set("sim.cells_simulated", report.simulated as f64);
    m.set(
        "sim.dedup_share",
        report.deduplicated() as f64 / report.requested as f64,
    );
    m.set("sim.fig1_s", best(&layers.fig1));
    let cold_s = best(&cold_passes);
    m.set("sim.parallel_speedup", cold_s / best(&layers.parallel));
    m.set("sim.threads", threads as f64);
    // The best traced round.  Write counts vary a little with the generator
    // order (periodic persists split the batch differently); reads repeat.
    let cold_io = |i: usize, f: fn(&OpTotals) -> f64| {
        best(&layers.cold_io.iter().map(|t| f(&t[i])).collect::<Vec<_>>())
    };
    let warm_read =
        |f: fn(&OpTotals) -> f64| best(&layers.warm_read.iter().map(f).collect::<Vec<_>>());
    m.set("store.read_s", warm_read(|t| t.secs));
    m.set("store.reads", warm_read(|t| t.calls as f64));
    m.set("store.read_bytes", warm_read(|t| t.bytes as f64));
    m.set("store.write_s", cold_io(0, |t| t.secs));
    m.set("store.writes", cold_io(0, |t| t.calls as f64));
    m.set("store.write_bytes", cold_io(0, |t| t.bytes as f64));
    m.set("store.rename_s", cold_io(1, |t| t.secs));
    m.set("store.lock_s", cold_io(2, |t| t.secs));
    m.set("store.hit_rate", median(&layers.warm_hit_rate));
    m.set("store.persist_s", best(&layers.persist));

    // The engine times each cell's build and simulation as one call.
    let stats: Vec<&RunStats> = cells.iter().map(|(_, s)| s).collect();
    m.set("uarch.run_s", cell_wall);
    m.set("uarch.ns_per_inst", cell_wall * 1e9 / committed);
    m.set("uarch.ns_per_cycle", cell_wall * 1e9 / cycles as f64);
    m.set(
        "uarch.allocs_per_kinst",
        best(&layers.allocs) * 1e3 / committed,
    );
    m.set("uarch.cycles", cycles as f64);
    m.set("uarch.committed", committed);
    m.extend(ledger_metrics(&registry));
    m.extend(counter_metrics(&stats));
    let traced_cold = best(&layers.cold);
    m.set("trace.untraced_insts_per_s", committed / cold_s);
    m.set("trace.traced_insts_per_s", committed / traced_cold);
    m.set("trace.overhead_share", 1.0 - cold_s / traced_cold);
    m
}

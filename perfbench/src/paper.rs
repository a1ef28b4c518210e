//! `paper-dv` and `paper-scalar`: the paper's 12 kernels at the standard
//! budget, timed cell by cell through the layers' public entry points.

use crate::digest::of_debug;
use crate::metrics::{counter_metrics, ledger_metrics, warm_metrics, Metrics};
use crate::stats::{best, median, Rng};
use crate::trace::{Open, Spans};
use crate::{alloc, Bench};
use sdv_emu::Emulator;
use sdv_isa::Program;
use sdv_mem::DataMemory;
use sdv_obs::MetricsRegistry;
use sdv_sim::{
    preflight_program, MachineWidth, Processor, RunConfig, RunEngine, RunStats, Variant, Workload,
};
use sdv_uarch::UarchConfig;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// A workload's configurations: `(width, variant, ports)`.
pub type Configs = [(MachineWidth, Variant, usize)];

/// `paper-dv`: 4-way and 8-way 1pV.
pub const DV: [(MachineWidth, Variant, usize); 2] = [
    (MachineWidth::FourWay, Variant::Vectorized, 1),
    (MachineWidth::EightWay, Variant::Vectorized, 1),
];

/// `paper-scalar`: the headline baselines, 4-way 1pIM and 4-way 4pnoIM.
pub const SCALAR: [(MachineWidth, Variant, usize); 2] = [
    (MachineWidth::FourWay, Variant::WideBus, 1),
    (MachineWidth::FourWay, Variant::ScalarBus, 4),
];

/// Warm-store replays of the cell set per timed warm-replay sample.
const WARM_BATCH: usize = 32;

/// Rounds of set-up one `--setup-probe` process times.
const PROBE_ROUNDS: usize = 5;

/// One `(configuration, kernel)` cell.
#[derive(Debug, Clone)]
struct Cell {
    id: String,
    cfg: UarchConfig,
    workload: Workload,
}

/// Every paper kernel on each configuration.
fn cells(configs: &Configs) -> Vec<Cell> {
    configs
        .iter()
        .flat_map(|&(width, variant, ports)| {
            let cfg = variant.config(width, ports);
            Workload::all().map(|workload| Cell {
                id: format!("cell {} {}/{}", width.label(), cfg.label(), workload.name()),
                cfg: cfg.clone(),
                workload,
            })
        })
        .collect()
}

/// Host time of each layer call for one cell, plus its allocation counts.
#[derive(Debug, Clone, Copy, Default)]
struct Sample {
    build: f64,
    preflight: f64,
    new: f64,
    run: f64,
    emu: f64,
    mem: f64,
    new_allocs: u64,
    run_allocs: u64,
    mem_accesses: u64,
}

/// Everything one cell measured over the run.
#[derive(Debug, Default)]
struct Record {
    plain: Vec<Sample>,
    traced: Vec<Sample>,
    stats: Option<RunStats>,
}

/// Builds, pre-flights and constructs one cell's processor, timing each
/// call into `s`.  `Err` carries a pre-flight rejection.
fn set_up(
    cell: &Cell,
    spans: &mut Spans,
    trace: u64,
    root: Option<&Open>,
    s: &mut Sample,
) -> Result<(Program, Processor), String> {
    let span = spans.open("workloads.build", trace, root);
    let program = black_box(cell.workload.build(RunConfig::standard().scale));
    s.build = spans.close(span);

    let span = spans.open("analyze.preflight", trace, root);
    preflight_program(&program)?;
    s.preflight = spans.close(span);

    let a0 = alloc::count();
    let span = spans.open("uarch.new", trace, root);
    let proc = Processor::new(&cell.cfg, &program);
    s.new = spans.close(span);
    s.new_allocs = alloc::count() - a0;
    Ok((program, proc))
}

/// What one fresh process pays to set up every cell of `configs`: the
/// median over [`PROBE_ROUNDS`] rounds, each in a seeded order, of the
/// round's summed `build` + `preflight_program` + `Processor::new`.
pub fn setup_probe(configs: &Configs, seed: u64) -> Result<f64, String> {
    let cells = cells(configs);
    let mut rng = Rng::new(seed);
    let mut spans = Spans::new(false);
    let mut rounds = Vec::new();
    for _ in 0..PROBE_ROUNDS {
        let mut order: Vec<usize> = (0..cells.len()).collect();
        rng.shuffle(&mut order);
        let mut secs = 0.0;
        for i in order {
            let mut s = Sample::default();
            set_up(&cells[i], &mut spans, 0, None, &mut s)?;
            secs += s.build + s.preflight + s.new;
        }
        rounds.push(secs);
    }
    Ok(median(&rounds))
}

/// Runs one cell; `traced` adds the cycle ledger, the emulator-only replay
/// and the standalone memory replay, and exports the processor's counters
/// into `registry`.  `Err` carries a pre-flight rejection.
fn measure(
    cell: &Cell,
    spans: &mut Spans,
    trace: u64,
    traced: bool,
    registry: Option<&mut MetricsRegistry>,
) -> Result<(Sample, RunStats), String> {
    let rc = RunConfig::standard();
    let mut s = Sample::default();
    let root = spans.open("cell", trace, None);
    let (program, mut proc) = set_up(cell, spans, trace, Some(&root), &mut s)?;
    let a1 = alloc::count();
    proc.record_cycle_ledger(traced);
    let span = spans.open("uarch.run", trace, Some(&root));
    let stats = proc.run(rc.max_insts);
    s.run = spans.close(span);
    s.run_allocs = alloc::count() - a1;
    if let Some(registry) = registry {
        proc.obs_metrics(registry);
    }
    drop(proc);

    if traced {
        let span = spans.open("emu.replay", trace, Some(&root));
        let mut emu = Emulator::new(&program);
        let mut accesses = Vec::new();
        emu.run_with(stats.committed, |r| {
            if let Some(m) = r.mem {
                accesses.push((m.addr, m.is_store));
            }
        });
        s.emu = spans.close(span);

        // The retired address stream, replayed serially (each access starts
        // when the previous one completes) through a fresh hierarchy.
        let span = spans.open("mem.replay", trace, Some(&root));
        let mut dmem = DataMemory::new(&cell.cfg.memory);
        let mut now = 0;
        for &(addr, is_store) in &accesses {
            now = dmem.access(addr, is_store, now).unwrap_or(now + 1);
        }
        black_box(now);
        s.mem = spans.close(span);
        s.mem_accesses = accesses.len() as u64;
    }
    spans.close(root);
    Ok((s, stats))
}

/// Simulates the cell set once through a [`RunEngine`] into an on-disk
/// store in `dir`, for the warm replays.
fn fill_store(cells: &[Cell], dir: &Path, b: &mut Bench) {
    let batch: Vec<_> = cells.iter().map(|c| (c.cfg.clone(), c.workload)).collect();
    let engine = RunEngine::new(RunConfig::standard()).with_disk_cache(dir);
    for (cell, stats) in cells.iter().zip(engine.run_cells(&batch)) {
        b.check(&cell.id, &of_debug(&stats));
    }
    if let Err(e) = engine.persist() {
        eprintln!("perfbench: persist failed: {e}");
    }
}

/// One warm-replay sample: [`WARM_BATCH`] fresh engines in a row, each
/// re-running the whole cell set (in a shuffled order) from the warm store;
/// returns the mean time of one replay.
fn warm_sample(cells: &[Cell], dir: &Path, b: &mut Bench) -> f64 {
    let mut order: Vec<usize> = (0..cells.len()).collect();
    let mut secs = 0.0;
    for _ in 0..WARM_BATCH {
        b.rng.shuffle(&mut order);
        let batch: Vec<_> = order
            .iter()
            .map(|&i| (cells[i].cfg.clone(), cells[i].workload))
            .collect();
        let start = Instant::now();
        let engine = RunEngine::new(RunConfig::standard()).with_disk_cache(dir);
        let stats = engine.run_cells(&batch);
        secs += start.elapsed().as_secs_f64();
        for (&i, stats) in order.iter().zip(&stats) {
            b.check(&cells[i].id, &of_debug(stats));
        }
        // Every cell must come from the store: a miss is a failed operation.
        let report = engine.report();
        for _ in 0..report.store_misses.max(report.simulated) {
            b.tally.record(false);
        }
    }
    secs / WARM_BATCH as f64
}

/// A cell's estimate of one timed field: the best of its rounds.
fn best_of(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    best(&samples.iter().map(f).collect::<Vec<_>>())
}

/// Runs a paper workload.  The traced run of `paper-dv` adds the 4-way
/// 1pIM twin of every kernel, for the DV machinery's cost.
pub fn run(configs: &Configs, b: &mut Bench) -> Metrics {
    let mut all = cells(configs);
    let measured = all.len();
    let warm_dir = b.scratch.join("warm");
    fill_store(&all, &warm_dir, b);
    let (mut warm, mut setups) = (Vec::new(), Vec::new());
    let dv = configs.iter().any(|c| c.1 == Variant::Vectorized);
    if b.run.traced && dv {
        all.extend(cells(&[(MachineWidth::FourWay, Variant::WideBus, 1)]));
    }
    let mut records: Vec<Record> = all.iter().map(|_| Record::default()).collect();
    let mut registry = MetricsRegistry::new();
    let mut round_secs: Vec<f64> = Vec::new();
    let mut trace = 0;

    let min_rounds = if b.run.traced { 4 } else { 3 };
    for round in 0.. {
        if !b.another_round(round, min_rounds, &round_secs) {
            break;
        }
        let round_start = Instant::now();
        // In the traced run, odd rounds are traced and even rounds plain,
        // so the tracing overhead is measured under the same conditions.
        let traced = b.run.traced && round % 2 == 1;
        let count = if traced { all.len() } else { measured };
        let mut order: Vec<usize> = (0..count).collect();
        b.rng.shuffle(&mut order);
        let (mut setup, mut simulate) = (0.0, 0.0);
        for i in order {
            trace += 1;
            let cell = &all[i];
            let registry = (traced && round == 1 && i < measured).then_some(&mut registry);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                measure(cell, &mut b.spans, trace, traced, registry)
            }));
            let (sample, stats) = match outcome {
                Ok(Ok(done)) => done,
                Ok(Err(msg)) => {
                    eprintln!("perfbench: {} rejected by pre-flight: {msg}", cell.id);
                    b.tally.record(false);
                    continue;
                }
                Err(_) => {
                    eprintln!("perfbench: {} panicked", cell.id);
                    b.tally.record(false);
                    continue;
                }
            };
            b.check(&cell.id, &of_debug(&stats));
            setup += sample.build + sample.preflight + sample.new;
            simulate += sample.run;
            let record = &mut records[i];
            if traced {
                record.traced.push(sample);
            } else {
                record.plain.push(sample);
            }
            record.stats.get_or_insert(stats);
        }
        if !traced {
            warm.push(warm_sample(&all[..measured], &warm_dir, b));
            setups.extend(b.probe_setups());
        }
        round_secs.push(round_start.elapsed().as_secs_f64());
        println!("perfbench: round {round}: simulation {simulate:.4} s, setup {setup:.5} s");
    }

    let _ = std::fs::remove_dir_all(&warm_dir);
    let main = &records[..measured];
    let stats: Vec<&RunStats> = main.iter().filter_map(|r| r.stats.as_ref()).collect();
    let insts: f64 = stats.iter().map(|s| s.committed as f64).sum();
    let run_secs: f64 = main.iter().map(|r| best_of(&r.plain, |s| s.run)).sum();
    let median_secs: f64 = main
        .iter()
        .map(|r| median(&r.plain.iter().map(|s| s.run).collect::<Vec<_>>()))
        .sum();
    println!(
        "perfbench: insts_per_s over per-cell medians = {}",
        insts / median_secs
    );
    let mut m = Metrics::default();
    m.set("insts_per_s", insts / run_secs);
    m.set("setup_s", median(&setups));
    m.extend(warm_metrics(best(&warm), &warm));
    println!(
        "perfbench: {} rounds of {measured} cells, {} set-up probes",
        round_secs.len(),
        setups.len()
    );
    if !b.run.traced {
        return m;
    }

    // Per-layer figures: sums over cells of each cell's best traced round;
    // counts (deterministic) from the first traced round.
    let sum_best =
        |f: &dyn Fn(&Sample) -> f64| -> f64 { main.iter().map(|r| best_of(&r.traced, f)).sum() };
    let first = |f: &dyn Fn(&Sample) -> u64| -> f64 {
        main.iter()
            .filter_map(|r| r.traced.first())
            .map(|s| f(s) as f64)
            .sum()
    };
    let cycles: f64 = stats.iter().map(|s| s.cycles as f64).sum();
    let traced_run = sum_best(&|s| s.run);
    let emu = sum_best(&|s| s.emu);
    m.set("workloads.build_s", sum_best(&|s| s.build));
    m.set("analyze.preflight_s", sum_best(&|s| s.preflight));
    m.set("uarch.new_s", sum_best(&|s| s.new));
    m.set("uarch.new_allocs", first(&|s| s.new_allocs));
    m.set("emu.replay_s", emu);
    m.set("emu.insts_per_s", insts / emu);
    m.set("emu.share_of_run", emu / traced_run);
    m.set("uarch.run_s", traced_run);
    m.set("uarch.ns_per_inst", traced_run * 1e9 / insts);
    m.set("uarch.ns_per_cycle", traced_run * 1e9 / cycles);
    m.set(
        "uarch.allocs_per_kinst",
        first(&|s| s.run_allocs) * 1e3 / insts,
    );
    m.set("uarch.cycles", cycles);
    m.set("uarch.committed", insts);
    m.extend(ledger_metrics(&registry));
    m.extend(counter_metrics(&stats));
    let accesses = first(&|s| s.mem_accesses);
    m.set(
        "mem.replay_ns_per_access",
        sum_best(&|s| s.mem) * 1e9 / accesses,
    );

    // The DV machinery: each 4-way 1pV cell minus its 1pIM twin.
    let (mut dv_secs, mut dv_allocs, mut dv_insts) = (0.0, 0.0, 0.0);
    for (v, cell) in main.iter().zip(&all) {
        let twin = all[measured..]
            .iter()
            .position(|t| t.workload == cell.workload);
        let (Some(t), Some(stats)) = (twin, v.stats.as_ref()) else {
            continue;
        };
        if cell.cfg.issue_width != 4 {
            continue;
        }
        let s = &records[measured + t];
        dv_secs += best_of(&v.traced, |x| x.run) - best_of(&s.traced, |x| x.run);
        dv_allocs += best_of(&v.traced, |x| x.run_allocs as f64)
            - best_of(&s.traced, |x| x.run_allocs as f64);
        dv_insts += stats.committed as f64;
    }
    let per_inst = |x: f64, scale: f64| {
        if dv_insts > 0.0 {
            x * scale / dv_insts
        } else {
            0.0
        }
    };
    m.set("core.dv_host_ns_per_inst", per_inst(dv_secs, 1e9));
    m.set("core.dv_allocs_per_kinst", per_inst(dv_allocs, 1e3));
    m.set("trace.untraced_insts_per_s", insts / run_secs);
    m.set("trace.traced_insts_per_s", insts / traced_run);
    m.set("trace.overhead_share", 1.0 - run_secs / traced_run);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::Pins;

    #[test]
    fn a_setup_probe_times_every_cell() {
        let secs = setup_probe(&SCALAR, 1).expect("every cell passes pre-flight");
        assert!(secs > 0.0 && secs < 1.0, "{secs} s");
    }

    #[test]
    fn a_different_seed_changes_the_order_but_no_digest() {
        let picked: Vec<Cell> = cells(&SCALAR).into_iter().step_by(8).collect();
        let order = |seed| {
            let mut order: Vec<usize> = (0..picked.len()).collect();
            Rng::new(seed).shuffle(&mut order);
            order
        };
        assert_ne!(order(1), order(3), "the seeds order the cells differently");
        let mut pins = Pins::load(false).expect("the pin file");
        for seed in [1, 3] {
            let mut spans = Spans::new(false);
            for i in order(seed) {
                let (_, stats) =
                    measure(&picked[i], &mut spans, 0, false, None).expect("pre-flight");
                assert!(
                    pins.check(&picked[i].id, &of_debug(&stats)),
                    "{} under seed {seed}",
                    picked[i].id
                );
            }
        }
    }
}

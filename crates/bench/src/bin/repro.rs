//! Regenerates the paper's tables and figures and prints them as text.
//!
//! ```text
//! repro [--quick|--standard|--thorough] [--threads N]
//!       [--table1] [--fig N]... [--headline] [--all] [--extended]
//!       [--vl L1,L2,...] [--vregs R1,R2,...]
//!       [--csv PATH] [--metrics-json PATH] [--trace PATH]
//!       [--store-dir DIR | --no-cache]
//! ```
//!
//! With no selection arguments everything is regenerated.  All generators
//! share one [`sdv_sim::Experiment`] session, so overlapping cells (the
//! headline configurations reappear in Figures 11/12, Figure 13 reuses the
//! Figure 10 suite, …) are simulated exactly once; the final lines report how
//! many unique cells ran versus how many were served from the session cache,
//! plus the wall-clock and committed-instructions-per-second accounting of
//! the run.
//! `--threads N` spreads the unique cells of each batch across N worker
//! threads without changing any result.
//!
//! Results additionally persist across invocations: the session's
//! `CellKey → RunStats` results and Figure 1's stride profiles are merged
//! into a one-file result store under `target/sdv-store/` (override with
//! `--store-dir`; disable with `--no-cache`), so re-running `repro` with an
//! unchanged configuration serves every cell and profile from disk (the
//! `run engine:` line then reports 0 cells simulated and 0 misses), and
//! parallel jobs can safely share one store directory (see the `sdv-store`
//! tool for `stats` and `verify`).  `--vl`/`--vregs` add
//! DV-sizing axes (vector length in elements, at most
//! [`sdv_sim::MAX_VECTOR_LENGTH`]; vector-register count) to the Figure
//! 11/12 sweep grid, `--csv PATH` dumps the resulting sweep surface
//! for plotting, and `--extended` adds the post-paper workloads (linked-list
//! chase, blocked matmul, mixed-stride streams, irregular histogram updates)
//! to every generator.
//!
//! The run is *supervised*: a cell that panics (including the pipeline's
//! no-progress assertion) is recorded as failed while every other cell still
//! completes, the failures are summarised at the end, and the exit code is 1
//! exactly when cells failed.  Store writes are retried twice with
//! backoff; an unusable `--store-dir` degrades to in-memory caching with a
//! warning rather than aborting the sweep.
//!
//! Observability (`docs/OBSERVABILITY.md`): `--metrics-json PATH` collects
//! the unified metrics registry — cycle-attribution buckets, cache and store
//! instrumentation, engine counters and wall-clock accounting — as one
//! `sdv-obs-metrics/1` document (inspect with `sdv-obs summarize`, compare
//! runs with `sdv-obs diff`).  `--trace PATH` additionally records
//! Chrome-trace events (per-cell spans, store I/O waits, retry/degradation
//! markers) loadable in Perfetto or `chrome://tracing`.  Either flag ends the
//! run with a one-line observability summary on stderr.
//!
//! Exit codes: 0 success, 1 some cells failed, 2 command-line error (a
//! usage banner is printed), 3 an output file could not be written.
//!
//! The output rows mirror the series plotted in the paper; `EXPERIMENTS.md`
//! records a paper-vs-measured comparison produced with `--standard`.

use sdv_sim::{
    report, Experiment, Fig11, Fig12, MachineWidth, ObsLevel, RunConfig, SweepGrid, Table1,
    Variant, Workload, MAX_VECTOR_LENGTH,
};

#[derive(Debug)]
struct Options {
    run: RunConfig,
    threads: usize,
    table1: bool,
    figures: Vec<u32>,
    headline: bool,
    extended: bool,
    vector_lengths: Option<Vec<usize>>,
    vector_registers: Option<Vec<usize>>,
    csv: Option<std::path::PathBuf>,
    metrics_json: Option<std::path::PathBuf>,
    trace: Option<std::path::PathBuf>,
    store_dir: Option<std::path::PathBuf>,
    no_cache: bool,
}

const USAGE: &str = "usage: repro [--quick|--standard|--thorough] [--threads N]
             [--table1] [--fig N]... [--headline] [--all] [--extended]
             [--vl L1,L2,...] [--vregs R1,R2,...]
             [--csv PATH] [--metrics-json PATH] [--trace PATH]
             [--store-dir DIR | --no-cache]";

/// The figures `repro` regenerates (2, 4, 5, 6 and 8 are block diagrams),
/// in the order a full run prints them.
const MEASURED_FIGURES: [u32; 10] = [1, 3, 7, 9, 10, 11, 12, 13, 14, 15];

fn usage_error(message: &str) -> ! {
    eprintln!("repro: {message}\n{USAGE}");
    std::process::exit(2)
}

/// A requested output file could not be written: the command line was fine,
/// so no usage banner, and an exit code distinct from failed cells (1).
fn write_output(path: &std::path::Path, what: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("repro: cannot write {what} to {}: {e}", path.display());
        std::process::exit(3);
    }
}

/// The path operand of `flag`.
fn parse_path(flag: &str, value: Option<String>) -> std::path::PathBuf {
    value
        .unwrap_or_else(|| usage_error(&format!("{flag} requires a path")))
        .into()
}

/// Parses a `--vl`/`--vregs` style comma-separated list of positive sizes.
fn parse_sizes(flag: &str, value: Option<String>) -> Vec<usize> {
    let value =
        value.unwrap_or_else(|| usage_error(&format!("{flag} requires a comma-separated list")));
    value
        .split(',')
        .map(|v| {
            v.trim()
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .unwrap_or_else(|| usage_error(&format!("{flag}: `{v}` is not a positive integer")))
        })
        .collect()
}

fn parse_args() -> Options {
    let mut opts = Options {
        run: RunConfig::standard(),
        threads: 1,
        table1: false,
        figures: Vec::new(),
        headline: false,
        extended: false,
        vector_lengths: None,
        vector_registers: None,
        csv: None,
        metrics_json: None,
        trace: None,
        store_dir: None,
        no_cache: false,
    };
    let mut args = std::env::args().skip(1).peekable();
    let mut any_selection = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.run = RunConfig::quick(),
            "--standard" => opts.run = RunConfig::standard(),
            "--thorough" => opts.run = RunConfig::thorough(),
            "--threads" => {
                opts.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage_error("--threads requires a positive integer"));
            }
            "--table1" => {
                opts.table1 = true;
                any_selection = true;
            }
            "--headline" => {
                opts.headline = true;
                any_selection = true;
            }
            "--fig" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage_error("--fig requires a figure number"));
                if !MEASURED_FIGURES.contains(&n) {
                    usage_error(&format!(
                        "--fig: figure {n} is not a measured figure (measured: {})",
                        MEASURED_FIGURES.map(|f| f.to_string()).join(", ")
                    ));
                }
                opts.figures.push(n);
                any_selection = true;
            }
            "--all" => any_selection = false,
            "--extended" => opts.extended = true,
            "--vl" => {
                let lengths = parse_sizes("--vl", args.next());
                if let Some(vl) = lengths.iter().find(|&&vl| vl > MAX_VECTOR_LENGTH) {
                    usage_error(&format!(
                        "--vl: {vl} exceeds the maximum vector length of {MAX_VECTOR_LENGTH} elements"
                    ));
                }
                opts.vector_lengths = Some(lengths);
            }
            "--vregs" => opts.vector_registers = Some(parse_sizes("--vregs", args.next())),
            "--csv" => opts.csv = Some(parse_path("--csv", args.next())),
            "--metrics-json" => opts.metrics_json = Some(parse_path("--metrics-json", args.next())),
            "--trace" => opts.trace = Some(parse_path("--trace", args.next())),
            "--store-dir" => opts.store_dir = Some(parse_path("--store-dir", args.next())),
            "--no-cache" => opts.no_cache = true,
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    if opts.no_cache && opts.store_dir.is_some() {
        usage_error("--store-dir and --no-cache are exclusive");
    }
    if !any_selection {
        opts.table1 = true;
        opts.headline = true;
        opts.figures = MEASURED_FIGURES.to_vec();
    }
    opts
}

/// Prints the per-cell failure details, if any; returns whether there were
/// failures.
fn report_failures(exp: &Experiment) -> bool {
    let failures = exp.failures();
    if failures.is_empty() {
        return false;
    }
    eprintln!("repro: {} cell(s) FAILED this run:", failures.len());
    for failure in &failures {
        eprintln!("repro:   {failure}");
    }
    true
}

/// The observability level implied by the requested outputs: tracing when a
/// trace is wanted, metrics when only the registry is, otherwise `Off`
/// (branch-cheap — the perf-gated default).
fn obs_level(opts: &Options) -> ObsLevel {
    if opts.trace.is_some() {
        ObsLevel::Trace
    } else if opts.metrics_json.is_some() {
        ObsLevel::Metrics
    } else {
        ObsLevel::Off
    }
}

fn main() {
    let opts = parse_args();
    let rc = opts.run;
    let mut exp = Experiment::new(rc).threads(opts.threads);
    // Before disk_cache, so the store is born observed.
    exp = exp.obs(obs_level(&opts));
    if opts.extended {
        exp = exp.workloads(Workload::extended().to_vec());
    }
    if !opts.no_cache {
        let dir = opts
            .store_dir
            .clone()
            .unwrap_or_else(|| std::path::PathBuf::from("target/sdv-store"));
        exp = exp.disk_cache(dir);
    }
    println!(
        "# Speculative Dynamic Vectorization — reproduction run \
         (scale {}, {} insts/workload, {} threads)\n",
        rc.scale, rc.max_insts, opts.threads
    );

    if opts.table1 {
        for width in MachineWidth::all() {
            println!("{}", Table1(Variant::WideBus.config(width, 1)));
        }
    }

    // The grid behind Figures 11/12 and --csv: the paper's cut, extended by
    // any requested DV-sizing axes.
    let mut grid = SweepGrid::paper();
    if let Some(vl) = opts.vector_lengths.clone() {
        grid = grid.vector_lengths(vl);
    }
    if let Some(vregs) = opts.vector_registers.clone() {
        grid = grid.vector_registers(vregs);
    }

    let mut sweep = None;
    for fig in &opts.figures {
        match fig {
            1 => println!("{}", exp.fig1()),
            3 => println!("{}", exp.fig3()),
            7 => println!("{}", exp.fig7()),
            9 => println!("{}", exp.fig9()),
            10 => println!("{}", exp.fig10()),
            11 | 12 => {
                let sweep = sweep.get_or_insert_with(|| exp.sweep(&grid));
                if *fig == 11 {
                    println!("{}", Fig11(sweep));
                } else {
                    println!("{}", Fig12(sweep));
                }
            }
            13 => println!("{}", exp.fig13()),
            14 => println!("{}", exp.fig14()),
            15 => println!("{}", exp.fig15()),
            other => unreachable!("--fig {other} was rejected while parsing"),
        }
    }

    if opts.headline {
        println!("{}", exp.headline());
    }

    if let Some(path) = &opts.csv {
        let sweep = sweep.get_or_insert_with(|| exp.sweep(&grid));
        write_output(path, "the sweep CSV", &report::sweep_csv(sweep));
        println!("sweep surface written to {}", path.display());
    }

    // Persist before printing the report so the store-insert counter is part
    // of the dedup printout.
    if !opts.no_cache {
        match exp.persist() {
            Ok(()) => {
                if let Some(dir) = exp.engine().store_dir() {
                    println!("result store persisted to {}", dir.display());
                }
            }
            Err(e) => eprintln!("warning: could not persist the result store: {e}"),
        }
    }
    if exp.engine().store_degraded() {
        println!("note: the result store was degraded mid-run; this session's results were not persisted");
    }
    println!("{}", exp.report());
    let timing = exp.timing();
    println!("{timing}");
    if let Some(path) = &opts.metrics_json {
        write_output(path, "metrics", &report::metrics_json(exp.engine()));
        println!("metrics written to {}", path.display());
    }
    if let Some(path) = &opts.trace {
        write_output(path, "the trace", &exp.engine().obs().trace_json());
        println!(
            "trace written to {} (load in Perfetto or chrome://tracing)",
            path.display()
        );
    }
    // One-line observability summary: printed whenever observation was on,
    // and always when something noteworthy happened (retries, degradation,
    // failures) so quiet runs stay quiet but trouble is never silent.
    let engine = exp.engine();
    let failed = engine.report().failed_cells;
    if obs_level(&opts) != ObsLevel::Off
        || engine.persist_retries() > 0
        || engine.store_degraded()
        || failed > 0
    {
        eprintln!(
            "repro: obs summary: {} cell(s) failed, {} persist retr{}, store {}, \
             {} trace event(s) dropped",
            failed,
            engine.persist_retries(),
            if engine.persist_retries() == 1 {
                "y"
            } else {
                "ies"
            },
            if engine.store_degraded() {
                "DEGRADED"
            } else {
                "healthy"
            },
            engine.obs().dropped_events(),
        );
    }
    // The sweep completed (every healthy cell ran); the exit code still
    // reports that some cells failed.
    if report_failures(&exp) {
        std::process::exit(1);
    }
}

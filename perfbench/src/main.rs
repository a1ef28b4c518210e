//! The SDV simulator's benchmark: one process that runs a named workload for
//! a fixed time, checks every simulated result against pinned digests, and
//! prints each metric by name and unit, ending with one JSON result line.
//!
//! ```text
//! perfbench --workload paper-dv|paper-scalar|repro-quick
//!           [--seed N] [--seconds S] [--trace 0|1] [--pin]
//! ```
//!
//! `--trace 0` (the default) prints the end-to-end metrics, measured with
//! tracing off; `--trace 1` prints the per-layer metrics and writes the
//! spans as Chrome trace JSON under `.perfbench-out/`.  `--pin` rewrites
//! `digests/pins.txt` from the current code.  See `README.md`.

mod alloc;
mod digest;
mod host;
mod metrics;
mod paper;
mod repro;
mod stats;
mod timing_io;
mod trace;

use std::path::PathBuf;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub pin: bool,
    /// Internal: time the workload's set-up in this fresh process, print
    /// the seconds and exit (see [`Bench::probe_setups`]).
    pub setup_probe: bool,
}

const WORKLOADS: [&str; 3] = ["paper-dv", "paper-scalar", "repro-quick"];

/// Set-up probe processes after each untraced round.
const SETUP_PROBES: usize = 6;

fn parse_args(args: impl Iterator<Item = String>) -> Result<Run, String> {
    let mut run = Run {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        pin: false,
        setup_probe: false,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => run.workload = value()?,
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                run.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--pin" => run.pin = true,
            "--setup-probe" => run.setup_probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(run)
}

fn main() {
    let run = match parse_args(std::env::args().skip(1)) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cwd = std::env::current_dir().expect("a working directory");
    let scratch = cwd
        .join(".perfbench-tmp")
        .join(std::process::id().to_string());
    if run.setup_probe {
        let secs = match run.workload.as_str() {
            "paper-dv" => paper::setup_probe(&paper::DV, run.seed),
            "paper-scalar" => paper::setup_probe(&paper::SCALAR, run.seed),
            // Creates and removes `scratch`; its parent goes below unless
            // another run is using it.
            _ => Ok(repro::setup_once(&scratch).0),
        };
        let _ = std::fs::remove_dir(cwd.join(".perfbench-tmp"));
        match secs {
            Ok(secs) => println!("{secs:?}"),
            Err(e) => {
                eprintln!("perfbench: set-up probe rejected by pre-flight: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if run.traced {
        alloc::enable();
    }
    let pins = match digest::Pins::load(run.pin) {
        Ok(pins) => pins,
        Err(e) => {
            eprintln!(
                "perfbench: cannot read {}: {e}",
                digest::pin_path().display()
            );
            std::process::exit(2);
        }
    };
    let mut bench = Bench {
        run: run.clone(),
        pins,
        tally: digest::Tally::default(),
        spans: trace::Spans::new(run.traced),
        rng: stats::Rng::new(run.seed),
        scratch: scratch.clone(),
        start: std::time::Instant::now(),
    };
    let wait0 = host::runqueue_wait_s();
    let mut metrics = match run.workload.as_str() {
        "paper-dv" => paper::run(&paper::DV, &mut bench),
        "paper-scalar" => paper::run(&paper::SCALAR, &mut bench),
        _ => repro::run(&mut bench),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(cwd.join(".perfbench-tmp"));
    metrics.set("peak_rss_mb", host::peak_rss_mb());
    metrics.set("host.runqueue_wait_s", host::runqueue_wait_s() - wait0);

    if let Some(json) = bench.spans.chrome_json() {
        let out = cwd.join(".perfbench-out");
        let path: PathBuf = out.join(format!("trace-{}-seed{}.json", run.workload, run.seed));
        match std::fs::create_dir_all(&out).and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => println!(
                "perfbench: trace written to {} ({} spans dropped; load in Perfetto)",
                path.display(),
                bench.spans.dropped()
            ),
            Err(e) => eprintln!("perfbench: cannot write the trace: {e}"),
        }
    }
    if run.pin {
        if let Err(e) = bench.pins.write() {
            eprintln!("perfbench: cannot write the pins: {e}");
            std::process::exit(1);
        }
        println!(
            "perfbench: pins written to {}",
            digest::pin_path().display()
        );
    }
    // Every metric as a readable line; the result line carries the
    // end-to-end metrics untraced and the per-layer metrics traced.
    print!("{}", metrics.lines());
    let declared: &[(&str, &str)] = if run.traced {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    let tally = bench.tally;
    let correct = tally.failed == 0 && tally.attempted > 0;
    println!(
        "{}",
        metrics.result_json(declared, correct, tally.attempted, tally.failed)
    );
}

/// State shared by every workload of one run.
pub struct Bench {
    pub run: Run,
    pub pins: digest::Pins,
    pub tally: digest::Tally,
    pub spans: trace::Spans,
    /// Orders cells and generators within each round.
    pub rng: stats::Rng,
    /// A private scratch directory inside the working directory.
    pub scratch: PathBuf,
    pub start: std::time::Instant,
}

impl Bench {
    /// Whether round `round` should still start, given the lengths of the
    /// rounds so far: at least `min` rounds, then only while another round
    /// of the median length fits in `--seconds`.
    pub fn another_round(&self, round: usize, min: usize, round_secs: &[f64]) -> bool {
        round < min
            || self.start.elapsed().as_secs_f64() + stats::median(round_secs) <= self.run.seconds
    }

    /// Times the workload's set-up in [`SETUP_PROBES`] fresh child processes
    /// (`--setup-probe`, each with its own cell order drawn from the run's
    /// seed) and returns their times, counting one operation per probe; a
    /// probe that fails is a failed operation.
    ///
    /// Set-up is sampled across processes because its cost depends on how
    /// the process's heap has settled around `Processor::new`, which the
    /// order of the first cells fixes: setting up the same 24 cells took
    /// 2–13 ms depending on the order, and every repeat within one process
    /// kept it.
    pub fn probe_setups(&mut self) -> Vec<f64> {
        (0..SETUP_PROBES)
            .filter_map(|_| self.probe_setup())
            .collect()
    }

    fn probe_setup(&mut self) -> Option<f64> {
        let seed = self.rng.next_u64().to_string();
        let out = std::env::current_exe().and_then(|exe| {
            std::process::Command::new(exe)
                .args(["--workload", &self.run.workload, "--seed", &seed])
                .arg("--setup-probe")
                .output()
        });
        let secs = match &out {
            Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
                .lines()
                .last()
                .and_then(|l| l.trim().parse().ok()),
            _ => None,
        };
        if secs.is_none() {
            let why = match &out {
                Ok(out) => String::from_utf8_lossy(&out.stderr).into_owned(),
                Err(e) => e.to_string(),
            };
            eprintln!("perfbench: the set-up probe failed: {why}");
        }
        self.tally.record(secs.is_some());
        secs
    }

    /// Checks a digest against its pin, counting one operation.
    pub fn check(&mut self, id: &str, digest: &str) {
        let ok = self.pins.check(id, digest);
        if !ok {
            eprintln!("perfbench: {id}: digest differs from its pin");
        }
        self.tally.record(ok);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(String::from)
    }

    #[test]
    fn the_command_line_parses() {
        let run = parse_args(args("--workload paper-dv --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(run.workload, "paper-dv");
        assert_eq!((run.seed, run.seconds, run.traced), (7, 12.0, true));
        assert!(parse_args(args("--workload nope")).is_err());
        assert!(parse_args(args("--workload paper-dv --trace 2")).is_err());
        assert!(parse_args(args("--workload paper-dv --seed")).is_err());
    }
}

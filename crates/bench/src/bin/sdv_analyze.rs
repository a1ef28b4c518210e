//! Static-analysis front end for the in-tree workloads.
//!
//! ```text
//! sdv-analyze check [--json] [--scale N] [WORKLOAD... | all | extended]
//! sdv-analyze envelope [--json] [--scale N] [WORKLOAD... | all | extended]
//! ```
//!
//! * `check` runs every `sdv-analyze` pass (CFG, use-before-def, footprint)
//!   over each named workload and prints the findings.  Error-severity
//!   findings make the command exit 1 — this is the CI gate that keeps every
//!   kernel statically clean.
//! * `envelope` prints each workload's conservative resource envelope
//!   (footprint interval, live-register bound, §3 vectorizable bound, CFG
//!   shape).  `--json` emits one stable-schema JSON document for artifact
//!   upload; `tests/analysis_properties.rs` proves simulated runs stay inside
//!   these bounds.
//!
//! `WORKLOAD` names are the paper's x-axis names (`go`, `swim`, …);
//! `all` is the 12-kernel figure suite, `extended` (the default) adds the
//! four post-paper kernels.  `--scale N` builds each kernel with `N` outer
//! iterations (default 1; the envelope is scale-dependent only through the
//! data-segment sizes).
//!
//! Exit codes: 0 clean, 1 at least one error-severity finding (`check`
//! only), 2 command-line error (a usage banner is printed).

use sdv_analyze::{analyze, Severity};
use sdv_workloads::Workload;

const USAGE: &str = "usage: sdv-analyze check [--json] [--scale N] [WORKLOAD... | all | extended]
       sdv-analyze envelope [--json] [--scale N] [WORKLOAD... | all | extended]";

fn usage_error(message: &str) -> ! {
    eprintln!("sdv-analyze: {message}\n{USAGE}");
    std::process::exit(2)
}

/// Everything after the subcommand: flags plus the workload selection.
struct Request {
    json: bool,
    scale: u64,
    workloads: Vec<Workload>,
}

fn parse_workload(name: &str) -> Workload {
    Workload::extended()
        .into_iter()
        .find(|w| w.name() == name)
        .unwrap_or_else(|| usage_error(&format!("unknown workload `{name}`")))
}

fn parse_request(args: &[String]) -> Request {
    let mut json = false;
    let mut scale = 1u64;
    let mut workloads: Vec<Workload> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--scale" => {
                let value = it
                    .next()
                    .unwrap_or_else(|| usage_error("--scale needs a value"));
                scale = value
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("`{value}` is not a scale")));
                if scale == 0 {
                    usage_error("--scale must be at least 1");
                }
            }
            "all" => workloads.extend(Workload::all()),
            "extended" => workloads.extend(Workload::extended()),
            flag if flag.starts_with('-') => {
                usage_error(&format!("unknown flag `{flag}`"));
            }
            name => workloads.push(parse_workload(name)),
        }
    }
    if workloads.is_empty() {
        workloads.extend(Workload::extended());
    }
    workloads.dedup();
    Request {
        json,
        scale,
        workloads,
    }
}

/// `check`: print findings per workload, exit 1 on any error-severity one.
fn check(req: &Request) {
    let mut failed = false;
    let mut json_rows: Vec<String> = Vec::new();
    for &w in &req.workloads {
        let analysis = analyze(&w.build(req.scale));
        failed |= analysis.has_errors();
        if req.json {
            json_rows.push(format!(
                "{{\"workload\":\"{}\",{}",
                w.name(),
                analysis.to_json().trim_start_matches('{')
            ));
        } else if analysis.diags.is_empty() {
            println!("{w}: ok");
        } else {
            let errors = analysis
                .diags
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .count();
            println!(
                "{w}: {} finding(s), {errors} error(s)",
                analysis.diags.len()
            );
            for d in &analysis.diags {
                println!("  {d}");
            }
        }
    }
    if req.json {
        println!("{{\"results\":[{}]}}", json_rows.join(","));
    }
    if failed {
        std::process::exit(1);
    }
}

/// `envelope`: print each workload's resource envelope; always exits 0.
fn envelope(req: &Request) {
    let mut json_rows: Vec<String> = Vec::new();
    for &w in &req.workloads {
        let analysis = analyze(&w.build(req.scale));
        let e = &analysis.envelope;
        if req.json {
            json_rows.push(format!(
                "{{\"workload\":\"{}\",\"envelope\":{}}}",
                w.name(),
                e.to_json()
            ));
        } else {
            let footprint = match (e.footprint_unbounded, e.footprint) {
                (true, _) => "unbounded".to_string(),
                (false, Some((lo, hi))) => format!("[{lo:#x}, {hi:#x}]"),
                (false, None) => "none".to_string(),
            };
            println!(
                "{w}: {} insts, {} blocks ({} reachable), {} back-edge(s), \
                 footprint {footprint}, <= {} live regs, \
                 vectorizable <= {:.1}%",
                e.static_insts,
                e.blocks,
                e.reachable_blocks,
                e.back_edges,
                e.max_live_regs,
                e.vectorizable_bound * 100.0
            );
        }
    }
    if req.json {
        println!(
            "{{\"scale\":{},\"results\":[{}]}}",
            req.scale,
            json_rows.join(",")
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first().map(|(cmd, rest)| (cmd.as_str(), rest)) {
        Some(("check", rest)) => check(&parse_request(rest)),
        Some(("envelope", rest)) => envelope(&parse_request(rest)),
        Some((other, _)) => usage_error(&format!("unknown subcommand `{other}`")),
        None => usage_error("a subcommand is required"),
    }
}

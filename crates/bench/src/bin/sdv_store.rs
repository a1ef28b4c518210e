//! Operator tool for the persistent result store.
//!
//! ```text
//! sdv-store fingerprint
//! sdv-store stats DIR
//! sdv-store verify DIR
//! ```
//!
//! * `fingerprint` prints the current build's model-source fingerprint (hex)
//!   — the value CI uses as its store cache key, and the producer id under
//!   which this binary reads store entries.
//! * `stats` prints size statistics for a store directory.
//! * `verify` structurally checks the store's data file, `DIR/store.bin`
//!   (magic, version, framing, per-entry checksums), and exits non-zero on
//!   corruption — run it after restoring a store from a CI cache.
//!
//! `stats` and `verify` hold `DIR` to the store-directory rule: an absent or
//! non-directory `DIR` is a command-line error, and neither creates it.  The
//! store is a recomputable cache, so there is no repair: a damaged entry is a
//! miss, and the next `repro` run that writes the store rewrites the file
//! from its intact entries.
//!
//! All subcommands operate under the current build's fingerprint, so numbers
//! produced by older simulators can never leak into new sessions.
//!
//! Exit codes: 0 success, 1 `verify` found corruption, 2 command-line error,
//! including an unknown subcommand (a usage banner is printed), 3 runtime I/O
//! failure (message only — the command line was fine).

use sdv_sim::cachefile;
use sdv_store::Store;
use std::path::Path;

const USAGE: &str = "usage: sdv-store fingerprint
       sdv-store stats DIR
       sdv-store verify DIR";

fn usage_error(message: &str) -> ! {
    eprintln!("sdv-store: {message}\n{USAGE}");
    std::process::exit(2)
}

/// A runtime failure on a well-formed command line: no usage banner, and a
/// distinct exit code so callers can tell it from operator error (2) and
/// from `verify`-found corruption (1).
fn io_error(message: &str) -> ! {
    eprintln!("sdv-store: {message}");
    std::process::exit(3)
}

fn open(dir: &Path) -> Store {
    Store::open(dir, cachefile::simulator_fingerprint())
        .unwrap_or_else(|e| io_error(&format!("cannot open store {}: {e}", dir.display())))
}

/// Rejects (exit 2) a path that must already be a store directory: an absent
/// or non-directory path would otherwise read as an empty, healthy store —
/// and [`open`] would create it — so a typo must fail loudly instead.
fn require_store_dir(dir: &Path) {
    if !dir.exists() {
        usage_error(&format!("store {} does not exist", dir.display()));
    }
    if !dir.is_dir() {
        usage_error(&format!("store {} is not a store directory", dir.display()));
    }
}

fn stats(dir: &Path) {
    require_store_dir(dir);
    let store = open(dir);
    let stats = store
        .stats()
        .unwrap_or_else(|e| io_error(&format!("cannot read store {}: {e}", dir.display())));
    println!(
        "store {} (fingerprint {:016x}):\n  {stats}",
        dir.display(),
        store.fingerprint()
    );
}

fn verify(dir: &Path) {
    require_store_dir(dir);
    let store = open(dir);
    let report = store
        .verify()
        .unwrap_or_else(|e| io_error(&format!("cannot read store {}: {e}", dir.display())));
    println!("verify {}: {report}", dir.display());
    if !report.is_ok() {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first().map(|(cmd, rest)| (cmd.as_str(), rest)) {
        Some(("fingerprint", [])) => {
            println!("{:016x}", cachefile::simulator_fingerprint());
        }
        Some(("stats", [dir])) => stats(Path::new(dir)),
        Some(("verify", [dir])) => verify(Path::new(dir)),
        Some((other, _)) => usage_error(&format!("unknown or malformed subcommand `{other}`")),
        None => usage_error("a subcommand is required"),
    }
}

//! Operator tool for the persistent result store.
//!
//! ```text
//! sdv-store fingerprint
//! sdv-store stats DIR
//! sdv-store verify DIR
//! sdv-store repair DIR
//! sdv-store merge DEST SRC...
//! sdv-store gc DIR [--keep-fingerprint HEX]
//! ```
//!
//! * `fingerprint` prints the current build's simulator-behaviour fingerprint
//!   (hex) — the value CI uses as its store cache key, and the producer id
//!   under which this binary reads and writes store entries.
//! * `stats` prints size statistics for a store directory.
//! * `verify` structurally checks the store's data file, `DIR/store.bin`
//!   (magic, version, framing, per-entry checksums), and exits non-zero on
//!   corruption — run it after restoring a store from a CI cache.
//! * `repair` salvages every intact entry of a damaged store: corrupt bytes
//!   are quarantined under `DIR/quarantine/`, the data file is rewritten
//!   atomically from its surviving entries, and a data file with an
//!   unreadable header (bad magic, or a format version other than the
//!   current one) is quarantined whole.  Only provably-corrupt entries are
//!   lost — a follow-up `verify` is clean.
//! * `merge` merges result sets into `DEST`: each `SRC` must be another store
//!   directory (e.g. a parallel job's); an absent or non-directory `SRC` is a
//!   command-line error, checked before anything is merged.  Entries written
//!   by other builds are skipped, never replayed.
//! * `gc` deletes the data file when its fingerprint differs from the kept
//!   one (default: the current build's), plus abandoned temp files.
//!
//! `stats`, `verify`, `repair` and `gc` hold `DIR` to the store-directory
//! rule: an absent or non-directory `DIR` is a command-line error, and none
//! of them creates it.
//!
//! All subcommands operate under the current build's fingerprint, so numbers
//! produced by older simulators can never leak into new sessions.
//!
//! Exit codes: 0 success, 1 `verify` found corruption, 2 command-line error
//! (a usage banner is printed), 3 runtime I/O failure (message only — the
//! command line was fine).

use sdv_sim::cachefile;
use sdv_store::Store;
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: sdv-store fingerprint\n\
       sdv-store stats DIR\n\
       sdv-store verify DIR\n\
       sdv-store repair DIR\n\
       sdv-store merge DEST SRC...\n\
       sdv-store gc DIR [--keep-fingerprint HEX]";

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
fn require_store_dir(dir: &Path, role: &str) {
    if !dir.exists() {
        usage_error(&format!("{role} {} does not exist", dir.display()));
    }
    if !dir.is_dir() {
        usage_error(&format!(
            "{role} {} is not a store directory",
            dir.display()
        ));
    }
}

fn stats(dir: &Path) {
    require_store_dir(dir, "store");
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
    require_store_dir(dir, "store");
    let store = open(dir);
    let report = store
        .verify()
        .unwrap_or_else(|e| io_error(&format!("cannot read store {}: {e}", dir.display())));
    println!("verify {}: {report}", dir.display());
    if !report.is_ok() {
        std::process::exit(1);
    }
}

fn repair(dir: &Path) {
    require_store_dir(dir, "store");
    let store = open(dir);
    let report = store
        .repair()
        .unwrap_or_else(|e| io_error(&format!("cannot repair store {}: {e}", dir.display())));
    println!("repair {}: {report}", dir.display());
}

fn merge(dest: &Path, sources: &[PathBuf]) {
    if sources.is_empty() {
        usage_error("merge needs at least one SRC");
    }
    // Every source is checked before any is merged.
    for src in sources {
        require_store_dir(src, "merge source");
    }
    let store = open(dest);
    for src in sources {
        match store.merge_from(src) {
            Ok(report) => println!("merged store {}: {report}", src.display()),
            Err(e) => io_error(&format!("cannot merge {}: {e}", src.display())),
        }
    }
}

fn gc(dir: &Path, keep: Option<&str>) {
    let keep = match keep {
        None => cachefile::simulator_fingerprint(),
        Some(hex) => u64::from_str_radix(hex.trim_start_matches("0x"), 16)
            .unwrap_or_else(|_| usage_error(&format!("`{hex}` is not a hex fingerprint"))),
    };
    require_store_dir(dir, "store");
    let store = open(dir);
    let report = store
        .gc(keep)
        .unwrap_or_else(|e| io_error(&format!("cannot gc {}: {e}", dir.display())));
    println!(
        "gc {} (kept fingerprint {keep:016x}): {report}",
        dir.display()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first().map(|(cmd, rest)| (cmd.as_str(), rest)) {
        Some(("fingerprint", [])) => {
            println!("{:016x}", cachefile::simulator_fingerprint());
        }
        Some(("stats", [dir])) => stats(Path::new(dir)),
        Some(("verify", [dir])) => verify(Path::new(dir)),
        Some(("repair", [dir])) => repair(Path::new(dir)),
        Some(("merge", [dest, sources @ ..])) => {
            let sources: Vec<PathBuf> = sources.iter().map(PathBuf::from).collect();
            merge(Path::new(dest), &sources);
        }
        Some(("gc", [dir])) => gc(Path::new(dir), None),
        Some(("gc", [dir, flag, hex])) if flag == "--keep-fingerprint" => {
            gc(Path::new(dir), Some(hex));
        }
        Some((other, _)) => usage_error(&format!("unknown or malformed subcommand `{other}`")),
        None => usage_error("a subcommand is required"),
    }
}

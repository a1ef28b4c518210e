//! End-to-end tests for the `repro` CLI's exit-code contract: a malformed
//! command line exits 2 with a one-line message naming the flag plus the
//! usage banner (never a panic), and an output file that cannot be written
//! exits 3.  Exit 1 stays reserved for failed cells.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf-8 stderr")
}

/// Each malformed command line exits 2, names the offending flag, and
/// prints the usage banner.
#[test]
fn usage_errors_exit_2_and_name_the_flag() {
    for (args, flag) in [
        (&["--bogus"][..], "--bogus"),
        (&["--csv"][..], "--csv"),
        (&["--threads", "0"][..], "--threads"),
        (&["--timing-json", "t.json"][..], "--timing-json"),
        (&["--cache-dir", "store"][..], "--cache-dir"),
        (&["--max-retries", "3"][..], "--max-retries"),
        (&["--fail-fast"][..], "--fail-fast"),
        (&["--vl", "65"][..], "--vl"),
        (&["--fig", "16"][..], "--fig"),
        (&["--fig", "2"][..], "--fig"),
        (&["--no-cache", "--store-dir", "d"][..], "--store-dir"),
    ] {
        let out = run(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(flag), "{args:?} names {flag}: {err}");
        assert!(err.contains("usage: repro"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

/// An unwritable output path is a runtime failure (3), not a panic and not
/// a usage error.
#[test]
fn unwritable_output_exits_3() {
    let out = run(&[
        "--table1",
        "--no-cache",
        "--metrics-json",
        "/proc/does-not-exist/metrics.json",
    ]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(3), "{err}");
    assert!(err.contains("cannot write metrics"), "{err}");
    assert!(!err.contains("usage:"), "{err}");
}

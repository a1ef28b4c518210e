//! End-to-end tests for the `sdv-analyze` CLI: exit-code contract, JSON
//! schema stability of `envelope --json`, and golden output fixtures.
//!
//! The binary under test is the same one CI's "Static analysis" step runs
//! over every kernel; these tests pin its observable behaviour (exit codes
//! 0 clean / 1 findings / 2 usage, the `envelope --json` schema, and the exact
//! output for the extended suite) so the CI gate cannot drift silently.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sdv-analyze"))
        .args(args)
        .output()
        .expect("sdv-analyze runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf-8 stderr")
}

/// Structural well-formedness without a JSON parser dependency: balanced
/// braces/brackets outside string literals, and no trailing garbage.
fn assert_balanced_json(text: &str) {
    let mut depth = 0i64;
    let mut in_string = false;
    let mut escaped = false;
    for c in text.trim().chars() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '{' | '[' if !in_string => depth += 1,
            '}' | ']' if !in_string => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0, "unbalanced close in {text}");
    }
    assert!(!in_string, "unterminated string in {text}");
    assert_eq!(depth, 0, "unbalanced JSON: {text}");
}

#[test]
fn clean_workloads_exit_zero() {
    let out = run(&["check"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = run(&["check", "compress", "swim"]);
    assert!(out.status.success());
    assert_eq!(stdout(&out), "compress: ok\nswim: ok\n");
}

#[test]
fn usage_errors_exit_two() {
    for args in [
        &[] as &[&str],
        &["frobnicate"],
        &["check", "nosuchkernel"],
        &["check", "--scale"],
        &["check", "--scale", "zero"],
        &["check", "--scale", "0"],
        &["check", "--json"],
        &["envelope", "--frob"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let err = stderr(&out);
        assert!(err.contains("usage:"), "args {args:?}");
        // The second banner line lines up under the first's command name.
        assert!(
            err.contains("\n       sdv-analyze envelope "),
            "args {args:?}: {err}"
        );
    }
}

#[test]
fn envelope_json_schema_is_stable() {
    let out = run(&["envelope", "--json", "--scale", "2", "swim", "histo"]);
    assert!(out.status.success());
    let json = stdout(&out);
    assert_balanced_json(&json);
    assert!(json.contains("\"scale\":2"));
    for key in [
        "\"results\"",
        "\"workload\"",
        "\"envelope\"",
        "\"static_insts\"",
        "\"static_mem_ops\"",
        "\"back_edges\"",
        "\"footprint\"",
        "\"footprint_unbounded\"",
        "\"max_live_regs\"",
        "\"vectorizable_bound\"",
        "\"has_indirect\"",
    ] {
        assert!(json.contains(key), "{json} missing {key}");
    }
    assert!(json.contains("\"workload\":\"swim\""));
    assert!(json.contains("\"workload\":\"histo\""));
}

#[test]
fn selection_aliases_cover_the_suites() {
    let out = run(&["check", "all"]);
    assert!(out.status.success());
    assert_eq!(stdout(&out).lines().count(), 12, "paper suite");
    let out = run(&["check", "extended"]);
    assert!(out.status.success());
    assert_eq!(stdout(&out).lines().count(), 16, "extended suite");
    // Duplicates collapse: `compress compress` analyzes once.
    let out = run(&["check", "compress", "compress"]);
    assert_eq!(stdout(&out), "compress: ok\n");
}

/// Golden fixture: the default `check` output over the extended suite.  A
/// kernel acquiring any finding (or a workload being renamed) must show up
/// as a reviewed fixture update, not silent drift.
#[test]
fn check_output_matches_golden_fixture() {
    let out = run(&["check"]);
    assert!(out.status.success());
    assert_eq!(
        stdout(&out),
        include_str!("fixtures/analyze/check_extended.txt"),
        "run `sdv-analyze check > crates/bench/tests/fixtures/analyze/check_extended.txt` \
         after a reviewed kernel change"
    );
}

/// Golden fixture: the machine-readable envelope of one kernel.  Pins the
/// whole JSON schema byte-for-byte, not just key presence.
#[test]
fn envelope_json_matches_golden_fixture() {
    let out = run(&["envelope", "--json", "compress"]);
    assert!(out.status.success());
    assert_eq!(
        stdout(&out),
        include_str!("fixtures/analyze/envelope_compress.json"),
        "run `sdv-analyze envelope --json compress > \
         crates/bench/tests/fixtures/analyze/envelope_compress.json` \
         after a reviewed kernel or schema change"
    );
}

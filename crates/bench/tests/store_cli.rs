//! End-to-end tests for the `sdv-store` CLI: `verify` flags the golden
//! damaged-store fixtures (exit 1) and leaves them byte-identical, pinning
//! the exit-code contract *and* the on-disk format (the `current.bin` bytes
//! are regenerated in-test and must match the committed file byte for byte).
//! `version-1.bin` is a frozen version-1 file from before the per-entry CRC:
//! the store no longer reads that format, so `verify` reports it as an
//! unreadable file.  Each fixture runs as the `store.bin` of its own scratch
//! store.  `stats` and `verify` reject an absent or non-directory DIR, an
//! unknown subcommand is a usage error, and an unreadable store is a runtime
//! failure.
//!
//! Regenerate `current.bin` after a deliberate format change with
//! `SDV_REGEN_FIXTURES=1 cargo test -p sdv-bench --test store_cli`.

use sdv_store::serialize_entries;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The fixture's producer fingerprint: fixed, so the committed bytes never
/// depend on the current build (the CLI still verifies foreign stores —
/// their entries are merely "stale", not corrupt).
const FIXTURE_FP: u64 = 0xfeed;

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sdv-store"))
        .args(args)
        .output()
        .expect("sdv-store runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf-8 stderr")
}

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/store")
}

/// The current version: five entries, with a bit flipped inside the third
/// entry's payload (a media-corruption casualty the CRC catches).
fn fixture_bytes_current() -> Vec<u8> {
    let entries: HashMap<u128, Vec<u8>> = (0..5u32)
        .map(|i| {
            let key = (0xab_u128 << 120) | u128::from(i);
            let payload = vec![u8::try_from(i * 3 + 1).unwrap(); 5 + i as usize];
            (key, payload)
        })
        .collect();
    let mut bytes = serialize_entries(FIXTURE_FP, &entries);
    // Header 24, entries key-sorted with sizes 29 and 30 before the victim;
    // its payload starts 24 framing bytes further in.
    bytes[24 + 29 + 30 + 24] ^= 1;
    bytes
}

/// The committed fixture must equal the bytes the current code generates —
/// this is the format pin: any serialization change shows up as a byte diff
/// here before it can silently invalidate real stores.
#[test]
fn golden_fixture_matches_the_current_store_format() {
    let dir = fixture_dir();
    if std::env::var_os("SDV_REGEN_FIXTURES").is_some() {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("current.bin"), fixture_bytes_current()).unwrap();
    }
    let committed = std::fs::read(dir.join("current.bin")).expect("committed fixture");
    assert_eq!(committed, fixture_bytes_current(), "store format drifted");
}

/// A fresh, empty scratch directory path (not created).
fn scratch_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sdv-store-cli-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A scratch store directory whose data file is the committed `fixture`.
fn scratch_store(tag: &str, fixture: &str) -> PathBuf {
    let dir = scratch_path(tag);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(fixture_dir().join(fixture), dir.join("store.bin")).unwrap();
    dir
}

/// `verify` flags each golden fixture's damage (exit 1) and only reads:
/// `current.bin` has 1 corrupt entry among 4 intact (stale, foreign
/// fingerprint) ones, `version-1.bin` is an unreadable version-1 file, and
/// both stay byte-identical.
#[test]
fn verify_flags_the_golden_fixtures_without_touching_them() {
    for (fixture, expect) in [
        (
            "current.bin",
            &[
                "0 entries, 4 stale entries",
                "1 corrupt entry",
                "entry 2: crc mismatch",
            ][..],
        ),
        ("version-1.bin", &["store.bin: version 1"][..]),
    ] {
        let dir = scratch_store("verify", fixture);
        let out = run(&["verify", dir.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{fixture}: damage means exit 1");
        let text = stdout(&out);
        for needle in expect {
            assert!(text.contains(needle), "{fixture}: {text}");
        }
        assert_eq!(
            std::fs::read(dir.join("store.bin")).unwrap(),
            std::fs::read(fixture_dir().join(fixture)).unwrap(),
            "{fixture}: verify only reads"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// An unknown subcommand, including the retired `repair`, `merge` and `gc`,
/// is a command-line error (exit 2, with the usage banner), and touches
/// nothing.
#[test]
fn unknown_subcommands_are_usage_errors() {
    let dir = scratch_store("unknown", "current.bin");
    let dir_s = dir.to_str().unwrap();
    for args in [
        &["repair", dir_s][..],
        &["merge", dir_s, dir_s],
        &["gc", dir_s],
        &[],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains("usage:"), "{}", stderr(&out));
    }
    assert_eq!(
        std::fs::read(dir.join("store.bin")).unwrap(),
        std::fs::read(fixture_dir().join("current.bin")).unwrap()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A store whose data file cannot be read is a runtime I/O failure (exit 3,
/// no usage banner): the command line was fine.
#[test]
fn unreadable_stores_are_runtime_failures() {
    let dir = scratch_path("unreadable");
    std::fs::create_dir_all(dir.join("store.bin")).unwrap();
    for cmd in ["stats", "verify"] {
        let out = run(&[cmd, dir.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(3), "{cmd}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("cannot read store"),
            "{}",
            stderr(&out)
        );
        assert!(!stderr(&out).contains("usage:"), "{}", stderr(&out));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `stats` and `verify` only read: an absent or file DIR is a command-line
/// error (exit 2), and the absent path is not created.
#[test]
fn read_only_subcommands_reject_absent_and_file_dirs() {
    let root = scratch_path("read-only");
    std::fs::create_dir_all(&root).unwrap();
    let absent = root.join("absent");
    let file = root.join("notes.txt");
    std::fs::write(&file, b"not a store").unwrap();
    for cmd in ["stats", "verify"] {
        let out = run(&[cmd, absent.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {}", stderr(&out));
        assert!(stderr(&out).contains("does not exist"), "{}", stderr(&out));
        assert!(stderr(&out).contains("usage:"), "{}", stderr(&out));
        assert!(!absent.exists(), "{cmd} must not create its DIR");

        let out = run(&[cmd, file.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("is not a store directory"),
            "{}",
            stderr(&out)
        );
    }
    std::fs::remove_dir_all(&root).unwrap();
}

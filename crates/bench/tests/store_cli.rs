//! End-to-end tests for the `sdv-store` CLI's corruption workflow: a golden
//! damaged-store fixture is verified (exit 1), repaired (exit 0, salvaging
//! every intact entry and quarantining the damaged bytes), and verified again
//! (exit 0) — pinning the exit-code contract, the repair semantics, *and* the
//! on-disk format (the `current.bin` bytes are regenerated in-test and must
//! match the committed file byte for byte).  `version-1.bin` is a frozen
//! version-1 file from before the per-entry CRC: the store no longer reads
//! that format, so it must come out of the flow as an unreadable file,
//! quarantined whole.  Each fixture runs as the `store.bin` of its own
//! scratch store.  The `merge` tests pin its source contract: store
//! directories merge, anything else is exit 2; `stats`, `verify` and `gc`
//! hold their DIR to the same rule.
//!
//! Regenerate `current.bin` after a deliberate format change with
//! `SDV_REGEN_FIXTURES=1 cargo test -p sdv-bench --test store_cli`.

use sdv_store::{serialize_entries, Store};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The fixture's producer fingerprint: fixed, so the committed bytes never
/// depend on the current build (the CLI still verifies and repairs foreign
/// stores — they are merely "stale", not corrupt).
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

/// The headline acceptance flow: verify flags the damage (exit 1), repair
/// salvages every intact entry and quarantines the corrupt bytes, or the
/// unreadable version-1 file whole (exit 0), and a second verify is clean
/// (exit 0).
#[test]
fn verify_repair_verify_on_the_golden_fixture() {
    let dir = scratch_store("repair", "current.bin");
    let dir_s = dir.to_str().unwrap();

    let out = run(&["verify", dir_s]);
    assert_eq!(out.status.code(), Some(1), "damage means exit 1");
    let text = stdout(&out);
    assert!(text.contains("1 corrupt entry"), "{text}");
    assert!(text.contains("entry 2: crc mismatch"), "{text}");

    let out = run(&["repair", dir_s]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("repaired"), "{text}");
    assert!(text.contains("4 entries recovered"), "{text}");
    assert!(text.contains("1 quarantined"), "{text}");
    assert!(text.contains("0 unreadable file(s) quarantined"), "{text}");

    // The damaged bytes survive: exactly the victim entry's 31 bytes.
    let quarantined = std::fs::read(dir.join("quarantine/store.bad")).unwrap();
    assert_eq!(quarantined.len(), 31);

    let out = run(&["verify", dir_s]);
    assert!(
        out.status.success(),
        "verify is clean after repair: {}",
        stdout(&out)
    );
    assert!(stdout(&out).contains("OK"), "{}", stdout(&out));

    // Repairing a healthy store is a no-op.
    let out = run(&["repair", dir_s]);
    assert!(out.status.success());
    assert!(
        stdout(&out).contains("clean: 0 entries recovered"),
        "{}",
        stdout(&out)
    );
    std::fs::remove_dir_all(&dir).unwrap();

    // The frozen version-1 file is unreadable as a whole: quarantined byte
    // for byte, leaving an empty, healthy store.
    let dir = scratch_store("repair-v1", "version-1.bin");
    let dir_s = dir.to_str().unwrap();
    let out = run(&["verify", dir_s]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(
        stdout(&out).contains("store.bin: version 1"),
        "{}",
        stdout(&out)
    );

    let out = run(&["repair", dir_s]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("repaired"), "{text}");
    assert!(text.contains("1 unreadable file(s) quarantined"), "{text}");
    assert_eq!(
        std::fs::read(dir.join("quarantine/store.bad")).unwrap(),
        std::fs::read(fixture_dir().join("version-1.bin")).unwrap()
    );
    assert!(!dir.join("store.bin").exists());

    let out = run(&["verify", dir_s]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("OK"), "{}", stdout(&out));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Exit-code and usage contract for the new subcommand.
#[test]
fn repair_usage_and_io_errors_keep_the_exit_contract() {
    let out = run(&["repair"]);
    assert_eq!(out.status.code(), Some(2), "missing DIR is a usage error");
    assert!(stderr(&out).contains("usage:"), "{}", stderr(&out));

    let out = run(&["repair", "x", "y"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "extra operands are a usage error"
    );

    // An absent DIR is a usage error (2) and is not created.
    let absent = Path::new("/proc/does-not-exist/store");
    let out = run(&["repair", absent.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("does not exist"), "{}", stderr(&out));
    assert!(!absent.exists(), "repair must not create its DIR");

    // A store whose data file cannot be read is a runtime I/O failure (3).
    let dir = scratch_path("repair-io");
    std::fs::create_dir_all(dir.join("store.bin")).unwrap();
    let out = run(&["repair", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("cannot repair store"),
        "{}",
        stderr(&out)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The current build's fingerprint, as the CLI reports it.
fn current_fingerprint() -> u64 {
    let out = run(&["fingerprint"]);
    assert!(out.status.success(), "{}", stderr(&out));
    u64::from_str_radix(stdout(&out).trim(), 16).expect("hex fingerprint")
}

/// A store-directory source written by this build merges into DEST (exit 0)
/// and its entries are readable there afterwards.
#[test]
fn merge_unions_a_store_directory_into_dest() {
    let root = scratch_path("merge");
    let (src, dest) = (root.join("src"), root.join("dest"));
    let fp = current_fingerprint();
    let entries: Vec<(u128, Vec<u8>)> = (0..3u8)
        .map(|i| ((u128::from(i) << 120) | 7, vec![i; 4]))
        .collect();
    Store::open(&src, fp)
        .unwrap()
        .put_batch(&entries)
        .expect("source written");

    let out = run(&["merge", dest.to_str().unwrap(), src.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("merged store"), "{text}");
    assert!(text.contains("3 entries inserted"), "{text}");
    let merged = Store::open(&dest, fp).unwrap();
    for (key, payload) in &entries {
        assert_eq!(merged.get(*key).as_ref(), Some(payload));
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// An absent SRC and a file SRC are command-line errors (exit 2), rejected
/// before DEST is created or anything merged.
#[test]
fn merge_rejects_absent_and_file_sources() {
    let root = scratch_path("merge-bad");
    std::fs::create_dir_all(&root).unwrap();
    let dest = root.join("dest");
    let file = root.join("notes.txt");
    std::fs::write(&file, b"not a store").unwrap();

    let out = run(&[
        "merge",
        dest.to_str().unwrap(),
        root.join("absent").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("does not exist"), "{}", stderr(&out));

    let out = run(&["merge", dest.to_str().unwrap(), file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("is not a store directory"),
        "{}",
        stderr(&out)
    );
    assert!(!dest.exists(), "a rejected merge leaves DEST untouched");
    std::fs::remove_dir_all(&root).unwrap();
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

/// `gc` on a mistyped DIR must not report a clean collection of nothing: an
/// absent or file DIR is a command-line error (exit 2), and the absent path
/// is not created.
#[test]
fn gc_rejects_absent_and_file_dirs() {
    let root = scratch_path("gc-bad");
    std::fs::create_dir_all(&root).unwrap();
    let absent = root.join("absent");
    let file = root.join("notes.txt");
    std::fs::write(&file, b"not a store").unwrap();

    let out = run(&["gc", absent.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{}", stdout(&out));
    assert!(stderr(&out).contains("does not exist"), "{}", stderr(&out));
    assert!(!absent.exists(), "gc must not create its DIR");

    let out = run(&["gc", file.to_str().unwrap(), "--keep-fingerprint", "feed"]);
    assert_eq!(out.status.code(), Some(2), "{}", stdout(&out));
    assert!(
        stderr(&out).contains("is not a store directory"),
        "{}",
        stderr(&out)
    );

    // A real store directory still collects: a stale data file goes.
    let store = root.join("store");
    Store::open(&store, FIXTURE_FP)
        .unwrap()
        .put_batch(&[(1, vec![1])])
        .unwrap();
    let out = run(&["gc", store.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("1 stale data file (1 entries)"),
        "{}",
        stdout(&out)
    );
    assert!(!store.join("store.bin").exists());
    assert!(
        store.join("store.lock").exists(),
        "gc never deletes the lock"
    );
    std::fs::remove_dir_all(&root).unwrap();
}

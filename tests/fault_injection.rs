//! Fault-injection and crash-recovery properties of the result store.
//!
//! Every test here drives the store through [`sdv::store::FaultPlan`] — the
//! deterministic [`sdv::store::StoreIo`] implementation that injects crashes,
//! torn writes, bit flips and transient errors at named I/O points — or
//! mutates the data file directly, then proves the recovery invariants:
//!
//! * **Crash consistency** — after a simulated crash at *any* named injection
//!   point (after the temp write, before the rename, mid-lock), a fresh
//!   `Store::open` on the real filesystem succeeds and `verify` reports zero
//!   corrupt entries among those acknowledged by completed `put_batch` calls.
//! * **Panic freedom** — truncating the data file at every byte offset never
//!   panics `open`/`get`/`verify`, and a fresh handle serves exactly the
//!   entries whose bytes survived intact.
//! * **Corruption is a miss, and the next write heals it** — whatever a
//!   fault left behind, a fresh handle serves the intact entries, and one
//!   `put_batch` rewrites the file so `verify` is clean.

use proptest::prelude::*;
use sdv::store::{Fault, FaultPlan, IoOp, Store};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const FP: u64 = 0x5d5d;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sdv-fault-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic payload whose length varies with the seed.
fn payload(seed: u64) -> Vec<u8> {
    (0..(seed % 47)).map(|i| (seed ^ i) as u8).collect()
}

/// Spreads seeds over the key space (the top bytes come from the seed).
fn key(seed: u64) -> u128 {
    (u128::from(seed) << 64) | u128::from(seed.wrapping_mul(0x9e37_79b9))
}

/// A key no test batch uses: `key(u64::MAX)` has a low half of
/// `-0x9e37_79b9`, and every other key a high half below `u64::MAX`.
const HEAL_KEY: u128 = u128::MAX;

/// The "next write heals it" contract on a possibly damaged store in `dir`:
/// a fresh handle serves the intact entries; one `put_batch` of a new key
/// then leaves `verify` clean, holding exactly those entries plus the new
/// one.  Returns the intact entries the fresh handle served.
fn next_write_heals(dir: &Path) -> HashMap<u128, Vec<u8>> {
    let store = Store::open(dir, FP).unwrap();
    let intact = store.entries().unwrap();
    for (k, v) in &intact {
        assert_eq!(store.get(*k).as_ref(), Some(v), "served intact");
    }
    store.put_batch(&[(HEAL_KEY, vec![0xee])]).unwrap();
    let healed = Store::open(dir, FP).unwrap();
    let report = healed.verify().unwrap();
    assert!(report.is_ok(), "after the next write: {report}");
    assert_eq!(report.corrupt_entries, 0);
    let mut expected = intact.clone();
    expected.insert(HEAL_KEY, vec![0xee]);
    assert_eq!(healed.entries().unwrap(), expected);
    intact
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The tentpole crash-consistency property: whatever batches were in
    /// flight, a crash at any named injection point loses at most the batch
    /// that never completed.  Everything `put_batch` acknowledged is intact
    /// after recovery on the real filesystem, and `verify` finds no
    /// corruption at all (unacknowledged work either never replaced the file
    /// or replaced it atomically).
    #[test]
    fn crash_at_every_named_injection_point_preserves_acknowledged_batches(
        batches in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 1..8),
            1..5,
        ),
        point in 0usize..4,
        nth in 0u64..4,
        keep in 0usize..64,
    ) {
        let dir = tmp_dir("crash");
        let plan = Arc::new(match point {
            0 => FaultPlan::crash_after_temp_write(nth),
            1 => FaultPlan::crash_before_rename(nth),
            2 => FaultPlan::crash_mid_lock(nth),
            _ => FaultPlan::torn_write(nth, keep),
        });
        let store = Store::open_with_io(&dir, FP, Arc::clone(&plan) as _).unwrap();

        let mut acked: HashMap<u128, Vec<u8>> = HashMap::new();
        for seeds in &batches {
            let batch: Vec<(u128, Vec<u8>)> =
                seeds.iter().map(|&s| (key(s), payload(s))).collect();
            match store.put_batch(&batch) {
                Ok(_) => acked.extend(batch),
                // The simulated process is dead; nothing later lands.
                Err(_) => break,
            }
        }
        drop(store);

        // Recovery: a fresh handle on the *real* filesystem.
        let recovered = Store::open(&dir, FP).unwrap();
        let report = recovered.verify().unwrap();
        prop_assert_eq!(report.corrupt_entries, 0, "{}", report);
        prop_assert!(report.is_ok(), "{}", report);
        for (k, v) in &acked {
            let got = recovered.get(*k);
            prop_assert_eq!(got.as_ref(), Some(v));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Seeded fault schedules (the fuzz entry point: crashes, torn writes,
    /// bit flips, EIO, ENOSPC at derived points) never make the store
    /// unopenable or panic any read path: a fresh handle serves whatever
    /// survived intact, and the next write restores a clean `verify`.
    #[test]
    fn seeded_fault_schedules_always_leave_a_repairable_store(
        seed in any::<u64>(),
        batches in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 1..8),
            1..5,
        ),
    ) {
        let dir = tmp_dir("seeded");
        let plan = Arc::new(FaultPlan::seeded(seed, 16));
        let store = Store::open_with_io(&dir, FP, Arc::clone(&plan) as _).unwrap();
        for seeds in &batches {
            let batch: Vec<(u128, Vec<u8>)> =
                seeds.iter().map(|&s| (key(s), payload(s))).collect();
            if store.put_batch(&batch).is_err() && plan.is_dead() {
                break;
            }
        }
        drop(store);

        let recovered = Store::open(&dir, FP).unwrap();
        let _ = recovered.verify().unwrap(); // must not panic; may report damage
        next_write_heals(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Truncating the data file at *every* byte offset never panics
/// `open`/`get`/`verify`; a fresh handle serves exactly the entries whose
/// bytes survived intact (computed from the file layout, not from the
/// store's own claims), and the repair — the next write — keeps them.
#[test]
fn truncation_at_every_offset_never_panics_and_repair_keeps_intact_entries() {
    let entries: HashMap<u128, Vec<u8>> = (0..6u64)
        .map(|i| ((0xab_u128 << 120) | u128::from(i), payload(i + 3)))
        .collect();
    let batch: Vec<(u128, Vec<u8>)> = entries.iter().map(|(k, v)| (*k, v.clone())).collect();

    let master = tmp_dir("trunc-master");
    Store::open(&master, FP).unwrap().put_batch(&batch).unwrap();
    let bytes = std::fs::read(master.join("store.bin")).unwrap();

    // Per-entry byte ranges, in file order (entries are key-sorted).
    let mut sorted: Vec<(&u128, &Vec<u8>)> = entries.iter().collect();
    sorted.sort_by_key(|(k, _)| **k);
    let mut ranges = Vec::new();
    let mut offset = 24; // magic + version + fingerprint + count
    for (k, v) in sorted {
        let end = offset + 24 + v.len(); // key_lo + key_hi + len + crc + payload
        ranges.push((*k, offset, end));
        offset = end;
    }
    assert_eq!(offset, bytes.len(), "layout bookkeeping matches the file");

    for cut in 0..=bytes.len() {
        let dir = tmp_dir("trunc-case");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("store.bin"), &bytes[..cut]).unwrap();

        let store = Store::open(&dir, FP).unwrap();
        for (k, _, _) in &ranges {
            let _ = store.get(*k); // must not panic
        }
        let _ = store.verify().unwrap(); // must not panic

        let expected: HashMap<u128, Vec<u8>> = ranges
            .iter()
            .filter(|(_, _, end)| cut >= 24 && *end <= cut)
            .map(|(k, _, _)| (*k, entries[k].clone()))
            .collect();
        assert_eq!(
            next_write_heals(&dir),
            expected,
            "cut {cut}: exactly the fully-written entries are served"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&master).unwrap();
}

/// Transient I/O errors (EIO, ENOSPC) fail the one operation they were
/// scheduled for and nothing else: the same `put_batch` retried immediately
/// succeeds, and the store is clean afterwards.
#[test]
fn transient_errors_fail_once_then_the_retry_lands() {
    for fault in [Fault::Eio, Fault::Enospc] {
        let dir = tmp_dir("transient");
        let plan = Arc::new(FaultPlan::new().with_fault(IoOp::Write, 0, fault));
        let store = Store::open_with_io(&dir, FP, Arc::clone(&plan) as _).unwrap();
        let batch: Vec<(u128, Vec<u8>)> = (0..5u64).map(|s| (key(s), payload(s))).collect();

        assert!(
            store.put_batch(&batch).is_err(),
            "{fault:?} fails the first attempt"
        );
        assert!(!plan.is_dead(), "{fault:?} is transient, not a crash");
        store
            .put_batch(&batch)
            .expect("the retry is not faulted and succeeds");

        let recovered = Store::open(&dir, FP).unwrap();
        assert!(recovered.verify().unwrap().is_ok());
        for (k, v) in &batch {
            assert_eq!(recovered.get(*k).as_ref(), Some(v));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A bit flip inside an entry's payload is detected by `verify` at per-entry
/// granularity, only that entry is lost, and the next write heals the file.
#[test]
fn bit_flip_is_detected_contained_and_healed_by_the_next_write() {
    let dir = tmp_dir("bitflip");
    let keys: Vec<u128> = (0..4u64)
        .map(|i| (0x0c_u128 << 120) | u128::from(i))
        .collect();
    let batch: Vec<(u128, Vec<u8>)> = keys.iter().map(|&k| (k, vec![k as u8; 9])).collect();
    // Flip a bit in the *second* entry's payload: header 24, then each entry
    // is 24 framing + 9 payload.
    let victim_bit = u64::try_from((24 + (24 + 9) + 24 + 4) * 8).unwrap();
    let plan =
        Arc::new(FaultPlan::new().with_fault(IoOp::Write, 0, Fault::BitFlip { bit: victim_bit }));
    Store::open_with_io(&dir, FP, plan as _)
        .unwrap()
        .put_batch(&batch)
        .unwrap();

    let store = Store::open(&dir, FP).unwrap();
    let report = store.verify().unwrap();
    assert!(!report.is_ok(), "the flipped entry is detected");
    assert_eq!(report.corrupt_entries, 1, "{report}");
    assert_eq!(store.get(keys[1]), None, "the victim is a miss");

    let intact = next_write_heals(&dir);
    let expected: HashMap<u128, Vec<u8>> =
        batch.into_iter().filter(|(k, _)| *k != keys[1]).collect();
    assert_eq!(intact, expected, "only the victim is lost");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An unwritable store directory fails loudly on writes but keeps serving
/// reads — the substrate of the engine's graceful degradation.
#[test]
fn unwritable_directories_fail_writes_but_serve_reads() {
    let dir = tmp_dir("unwritable");
    let batch: Vec<(u128, Vec<u8>)> = (0..3u64).map(|s| (key(s), payload(s + 1))).collect();
    Store::open(&dir, FP).unwrap().put_batch(&batch).unwrap();

    let plan = Arc::new(FaultPlan::unwritable());
    let store = Store::open_with_io(&dir, FP, plan as _).unwrap();
    let err = store.put_batch(&batch).expect_err("writes are refused");
    assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);
    for (k, v) in &batch {
        assert_eq!(store.get(*k).as_ref(), Some(v), "reads pass through");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

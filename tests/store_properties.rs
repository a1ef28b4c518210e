//! Integration tests for the persistent result store: property-based
//! round-trips, the one-file layout and its read traffic, concurrent engine sessions sharing one store directory, and
//! Figure 1's stride profiles replayed from a store.

use proptest::prelude::*;
use sdv::emu::{Emulator, StrideProfiler, StrideStats};
use sdv::sim::{cachefile, fig1, PortKind, RunConfig, RunEngine, UarchConfig, Workload};
use sdv::store::{Obs, ObsLevel, Store};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sdv-store-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Builds a deterministic payload from a seed (length varies with the seed so
/// framing across entries of different sizes is exercised).
fn payload(seed: u64) -> Vec<u8> {
    (0..(seed % 47)).map(|i| (seed ^ i) as u8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Whatever mix of keys is written in one session, every entry is read
    /// back bit-identically by a fresh handle.
    #[test]
    fn put_get_round_trips(
        seeds in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..40)
    ) {
        let dir = tmp_dir("proptest");
        let entries: HashMap<u128, Vec<u8>> = seeds
            .iter()
            .map(|&(hi, lo)| (((u128::from(hi)) << 64) | u128::from(lo), payload(hi ^ lo)))
            .collect();
        let batch: Vec<(u128, Vec<u8>)> = entries.iter().map(|(k, v)| (*k, v.clone())).collect();
        let writer = Store::open(&dir, 0x5d).unwrap();
        let put = writer.put_batch(&batch).unwrap();
        prop_assert_eq!(put.inserted as usize, entries.len());
        let reader = Store::open(&dir, 0x5d).unwrap();
        for (key, value) in &entries {
            let got = reader.get(*key);
            prop_assert_eq!(got.as_ref(), Some(value));
        }
        prop_assert!(reader.verify().unwrap().is_ok());
        prop_assert_eq!(reader.entries().unwrap(), entries);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A store is one data file and one lock, whatever keys it holds, and a
/// fresh handle serves every entry from a single read of that file.
#[test]
fn a_store_is_one_file_read_once() {
    let dir = tmp_dir("one-file");
    // SplitMix64: uniformly random 128-bit keys, the same on every run.
    let mut state = 0x5d5d_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    // As many entries as a fresh `repro --quick` writes, and then some.
    let entries: HashMap<u128, Vec<u8>> = (0..256)
        .map(|_| {
            let key = (u128::from(next()) << 64) | u128::from(next());
            (key, payload(next()))
        })
        .collect();
    assert_eq!(entries.len(), 256, "no key collisions");
    let batch: Vec<(u128, Vec<u8>)> = entries.iter().map(|(k, v)| (*k, v.clone())).collect();
    Store::open(&dir, 0x5d).unwrap().put_batch(&batch).unwrap();

    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert_eq!(files, ["store.bin", "store.lock"]);

    let obs = Arc::new(Obs::new(ObsLevel::Metrics));
    let mut reader = Store::open(&dir, 0x5d).unwrap();
    reader.set_obs(Arc::clone(&obs));
    for (key, value) in &entries {
        assert_eq!(reader.get(*key).as_ref(), Some(value));
    }
    assert_eq!(obs.snapshot().counter("store.io.read.calls"), Some(1));
    std::fs::remove_dir_all(&dir).unwrap();
}

fn quick() -> RunConfig {
    RunConfig {
        scale: 1,
        max_insts: 8_000,
    }
}

/// Two engine sessions populating one store directory concurrently corrupt
/// nothing: `verify` passes afterwards and a third session replays the union
/// of their work entirely from the store.
#[test]
fn concurrent_engine_sessions_share_one_store() {
    let dir = tmp_dir("concurrent-engines");
    let vector = UarchConfig::four_way(1, PortKind::Wide).with_vectorization(true);
    let scalar = UarchConfig::four_way(2, PortKind::Scalar);
    // Overlapping workload sets: `Compress` is raced by both sessions, and
    // determinism guarantees both compute identical bytes for it.
    let suite_a = [Workload::Compress, Workload::Swim, Workload::Li];
    let suite_b = [Workload::Compress, Workload::Go, Workload::Gcc];

    std::thread::scope(|scope| {
        for (suite, cfg) in [(suite_a, &vector), (suite_b, &vector), (suite_a, &scalar)] {
            let dir = dir.clone();
            scope.spawn(move || {
                let engine = RunEngine::new(quick())
                    .with_threads(2)
                    .with_disk_cache(&dir);
                let _ = engine.suite(&suite, cfg);
                engine.persist().expect("concurrent persist succeeds");
            });
        }
    });

    let store = Store::open(&dir, cachefile::simulator_fingerprint()).unwrap();
    assert!(store.verify().unwrap().is_ok(), "no corruption");
    assert_eq!(
        store.entries().unwrap().len(),
        5 + 3,
        "the union of both vector suites plus the scalar suite"
    );

    // A fresh session replays everything from the store: 100% hits.
    let replay = RunEngine::new(quick()).with_disk_cache(&dir);
    let _ = replay.suites(&suite_a, &[vector.clone(), scalar]);
    let _ = replay.suite(&suite_b, &vector);
    let report = replay.report();
    assert_eq!(report.simulated, 0, "everything came from the store");
    assert_eq!(report.store_hits, 8);
    assert_eq!(report.store_hit_rate(), Some(1.0));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Figure 1's aggregates by direct emulation, independent of the engine.
fn fig1_by_emulation(rc: RunConfig, workloads: &[Workload]) -> (StrideStats, StrideStats) {
    let (mut int, mut fp) = (StrideStats::default(), StrideStats::default());
    for &w in workloads {
        let mut profiler = StrideProfiler::new();
        Emulator::new(&w.build(rc.scale)).run_with(rc.max_insts, |r| profiler.observe_retired(r));
        if w.is_fp() { &mut fp } else { &mut int }.merge(profiler.stats());
    }
    (int, fp)
}

/// A store-backed session persists Figure 1's stride profiles; a fresh
/// session replays them without profiling anything, and a store-less one
/// computes the same aggregates.  Direct emulation is the reference.
#[test]
fn stride_profiles_replay_from_the_store() {
    let dir = tmp_dir("stride-profiles");
    let rc = RunConfig {
        scale: 1,
        max_insts: 2_000,
    };
    let workloads = Workload::extended();
    let (int, fp) = fig1_by_emulation(rc, &workloads);

    let writer = RunEngine::new(rc).with_disk_cache(&dir);
    let cold = fig1(&writer, &workloads);
    assert_eq!((&cold.int, &cold.fp), (&int, &fp));
    assert_eq!(writer.report().store_misses, 16);
    writer.persist().expect("profiles persist");
    assert_eq!(writer.report().store_inserts, 16);

    let reader = RunEngine::new(rc).with_disk_cache(&dir);
    let warm = fig1(&reader, &workloads);
    assert_eq!((&warm.int, &warm.fp), (&int, &fp));
    let report = reader.report();
    assert_eq!(report.store_hits, 16);
    assert_eq!(report.store_misses, 0);
    assert_eq!(report.simulated, 0);

    // The session memo answers a second call: no probe at all.
    let again = fig1(&reader, &workloads);
    assert_eq!((&again.int, &again.fp), (&int, &fp));
    assert_eq!(reader.report(), report);

    let plain = RunEngine::new(rc);
    let computed = fig1(&plain, &workloads);
    assert_eq!((&computed.int, &computed.fp), (&int, &fp));
    assert_eq!(plain.report().store_hit_rate(), None, "no store, no probes");
    std::fs::remove_dir_all(&dir).unwrap();
}

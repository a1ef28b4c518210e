//! Serialization glue between [`crate::RunEngine`] and the persistent result
//! store.
//!
//! The store holds two kinds of entry, each under its own key domain, so
//! repeated `repro` invocations — and CI jobs seeding developer machines —
//! reuse earlier sessions instead of re-simulating:
//!
//! * **Cells** — `CellKey → RunStats`.  [`key_hash`] turns a full `CellKey`
//!   (configuration, workload, budget) into a 128-bit content hash computed
//!   with two differently-seeded FNV-1a hashers (a stable algorithm, unlike
//!   `DefaultHasher`, so hashes survive toolchain updates), and
//!   [`stats_to_bytes`]/[`stats_from_bytes`] round-trip `RunStats` payloads.
//!   Every numeric field of `RunStats` is an integer counter, so the round
//!   trip is exact — a store hit returns bit-identical statistics.
//! * **Stride profiles** — `(workload, scale, budget) → StrideStats`, the
//!   functional measurement behind Figure 1.  [`profile_key_hash`] hashes a
//!   tagged tuple with a different seed pair, and
//!   [`profile_to_bytes`]/[`profile_from_bytes`] round-trip a fixed
//!   12 × `u64` record.  [`stride_profile`] is the one place a profile is
//!   measured.
//!
//! **Source fingerprinting** — [`simulator_fingerprint`] folds a build-time
//! content hash of the model's source: `build.rs` hashes the `Cargo.toml` and
//! every file under `src/` of `sdv-sim` and each `sdv-*` crate it depends on
//! (read from the manifests), plus the compiler version and target.  Editing
//! any byte there — timing model, profiler, kernels, even a comment or a unit
//! test — invalidates results written by earlier builds instead of silently
//! replaying their numbers; computing it costs nothing at run time.  The
//! store records it in its data file's header (folded with the payload
//! version, so a layout bump also invalidates).
//!
//! A configuration change therefore simply misses the store; a payload-layout
//! change bumps `CACHE_VERSION`; and results from a different model source
//! or toolchain are invisible.

use crate::engine::CellKey;
use crate::source_hash::Fnv1a;
use crate::Workload;
use sdv_core::{DvStats, ElementUsage};
use sdv_emu::{Emulator, StrideProfiler, StrideStats};
use sdv_mem::{CacheStats, PortStats, WideBusStats};
use sdv_uarch::RunStats;
use std::hash::{Hash, Hasher};

/// Bump whenever the serialized layout (or the hashed key content) changes.
const CACHE_VERSION: u32 = 2;

/// A 128-bit hash of `key`: two FNV-1a halves with the seeds `lo` and `hi`.
fn fnv128(key: &impl Hash, lo: u64, hi: u64) -> u128 {
    let mut lo = Fnv1a::seeded(lo);
    key.hash(&mut lo);
    let mut hi = Fnv1a::seeded(hi);
    key.hash(&mut hi);
    (u128::from(hi.finish()) << 64) | u128::from(lo.finish())
}

/// Deterministic 128-bit content hash of a cell key.
#[must_use]
pub fn key_hash(key: &CellKey) -> u128 {
    fnv128(key, 0x5d, 0xa7)
}

/// Deterministic 128-bit content hash of one stride profile's inputs.  The
/// tuple is tagged and the seeds differ from [`key_hash`]'s, so a profile
/// never shares a key with a cell.
#[must_use]
pub fn profile_key_hash(workload: Workload, scale: u64, max_insts: u64) -> u128 {
    fnv128(&("stride-profile", workload, scale, max_insts), 0x3c, 0xe1)
}

/// Functionally profiles every load `workload` (built at `scale`) retires in
/// its first `max_insts` instructions: the measurement behind Figure 1.
#[must_use]
pub fn stride_profile(workload: Workload, scale: u64, max_insts: u64) -> StrideStats {
    let mut profiler = StrideProfiler::new();
    let mut emu = Emulator::new(&workload.build(scale));
    emu.run_with(max_insts, |r| profiler.observe_retired(r));
    profiler.stats().clone()
}

/// The build-time content hash of the model's source and toolchain (see
/// `build.rs` and [`crate::source_hash`]), as 16 hex digits.
const MODEL_SOURCE_HASH: &str = env!("SDV_MODEL_SOURCE_HASH");

/// The store's producer fingerprint for this binary: the build-time
/// model-source hash (see the module docs) folded with a seed that carries
/// the payload version, so a source edit and a serialization-layout bump
/// both make a store written by another build invisible rather than
/// misdecoded.  A constant fold: it simulates, emulates and profiles nothing.
#[must_use]
pub fn simulator_fingerprint() -> u64 {
    let mut h = Fnv1a::seeded(0xf1 ^ u64::from(CACHE_VERSION));
    h.write(MODEL_SOURCE_HASH.as_bytes());
    h.finish()
}

/// Length of a stride-profile payload: ten stride counts, `other`, `total`.
const PROFILE_BYTES: usize = 12 * 8;

/// Serializes one [`StrideStats`] into the fixed 12 × `u64` little-endian
/// record persisted per profile.
#[must_use]
pub fn profile_to_bytes(profile: &StrideStats) -> Vec<u8> {
    let mut s = Ser {
        buf: Vec::with_capacity(PROFILE_BYTES),
    };
    for &count in &profile.counts {
        s.u64(count);
    }
    s.u64(profile.other);
    s.u64(profile.total);
    s.buf
}

/// Decodes a payload written by [`profile_to_bytes`].  Any other length is
/// `None`, so a damaged entry can only miss.
#[must_use]
pub fn profile_from_bytes(bytes: &[u8]) -> Option<StrideStats> {
    if bytes.len() != PROFILE_BYTES {
        return None;
    }
    let mut d = De { buf: bytes };
    let mut profile = StrideStats::default();
    for count in &mut profile.counts {
        *count = d.u64()?;
    }
    profile.other = d.u64()?;
    profile.total = d.u64()?;
    Some(profile)
}

/// Serializes one [`RunStats`] into the byte payload persisted per cell.
#[must_use]
pub fn stats_to_bytes(stats: &RunStats) -> Vec<u8> {
    let mut s = Ser { buf: Vec::new() };
    write_stats(&mut s, stats);
    s.buf
}

/// Decodes a payload written by [`stats_to_bytes`].  Returns `None` on
/// truncation or trailing bytes, so damaged store entries can only ever cause
/// a miss, never wrong statistics.
#[must_use]
pub fn stats_from_bytes(bytes: &[u8]) -> Option<RunStats> {
    let mut d = De { buf: bytes };
    let stats = read_stats(&mut d)?;
    if d.buf.is_empty() {
        Some(stats)
    } else {
        None
    }
}

// ---------------------------------------------------------------- writing

struct Ser {
    buf: Vec<u8>,
}

impl Ser {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn option<T, F: FnOnce(&mut Self, &T)>(&mut self, v: &Option<T>, f: F) {
        match v {
            None => self.u8(0),
            Some(inner) => {
                self.u8(1);
                f(self, inner);
            }
        }
    }
}

fn write_l1_stats(s: &mut Ser, c: &CacheStats) {
    s.u64(c.accesses);
    s.u64(c.hits);
    s.u64(c.misses);
    s.u64(c.writebacks);
}

fn write_stats(s: &mut Ser, r: &RunStats) {
    s.u64(r.cycles);
    s.u64(r.committed);
    s.u64(r.committed_loads);
    s.u64(r.committed_stores);
    s.u64(r.committed_control);
    s.u64(r.committed_validations);
    s.u64(r.committed_vector_mode);
    s.u64(r.branch_lookups);
    s.u64(r.mispredictions);
    s.u64(r.memory_accesses);
    s.u64(r.vector_line_accesses);
    s.u64(r.load_accesses);
    s.u64(r.loads_served_by_peer);
    s.u64(r.store_forwards);
    s.u64(r.scalar_arith_executed);
    s.u64(r.decode_blocked_cycles);
    s.u64(r.post_mispredict_window);
    s.u64(r.post_mispredict_reused);
    s.usize(r.port_count);
    s.u64(r.ports.grants);
    s.u64(r.ports.cycles);
    s.u64(r.ports.conflicts);
    s.option(&r.wide_bus, |s, w| {
        s.usize(w.words_per_line());
        s.u32(w.used_counts().len() as u32);
        for &count in w.used_counts() {
            s.u64(count);
        }
        s.u64(w.count_unused());
    });
    write_l1_stats(s, &r.l1d);
    write_l1_stats(s, &r.l1i);
    s.option(&r.dv, |s, d| {
        s.u64(d.loads_observed);
        s.u64(d.load_instances);
        s.u64(d.arith_instances);
        s.u64(d.load_validations);
        s.u64(d.arith_validations);
        s.u64(d.validation_failures);
        s.u64(d.no_free_vreg);
        s.u64(d.instances_with_nonzero_offset);
        s.u64(d.stores_checked);
        s.u64(d.store_conflicts);
        s.u64(d.elements_launched);
    });
    s.option(&r.element_usage, |s, u| {
        s.u64(u.computed_used);
        s.u64(u.computed_not_used);
        s.u64(u.not_computed);
        s.u64(u.registers_released);
    });
}

// ---------------------------------------------------------------- reading

struct De<'a> {
    buf: &'a [u8],
}

impl De<'_> {
    fn u8(&mut self) -> Option<u8> {
        let (&v, rest) = self.buf.split_first()?;
        self.buf = rest;
        Some(v)
    }

    fn u32(&mut self) -> Option<u32> {
        let (head, rest) = self.buf.split_at_checked(4)?;
        self.buf = rest;
        Some(u32::from_le_bytes(head.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        let (head, rest) = self.buf.split_at_checked(8)?;
        self.buf = rest;
        Some(u64::from_le_bytes(head.try_into().ok()?))
    }

    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }
}

fn read_l1_stats(d: &mut De) -> Option<CacheStats> {
    Some(CacheStats {
        accesses: d.u64()?,
        hits: d.u64()?,
        misses: d.u64()?,
        writebacks: d.u64()?,
    })
}

fn read_stats(d: &mut De) -> Option<RunStats> {
    let mut r = RunStats::new(1);
    r.cycles = d.u64()?;
    r.committed = d.u64()?;
    r.committed_loads = d.u64()?;
    r.committed_stores = d.u64()?;
    r.committed_control = d.u64()?;
    r.committed_validations = d.u64()?;
    r.committed_vector_mode = d.u64()?;
    r.branch_lookups = d.u64()?;
    r.mispredictions = d.u64()?;
    r.memory_accesses = d.u64()?;
    r.vector_line_accesses = d.u64()?;
    r.load_accesses = d.u64()?;
    r.loads_served_by_peer = d.u64()?;
    r.store_forwards = d.u64()?;
    r.scalar_arith_executed = d.u64()?;
    r.decode_blocked_cycles = d.u64()?;
    r.post_mispredict_window = d.u64()?;
    r.post_mispredict_reused = d.u64()?;
    r.port_count = d.usize()?;
    r.ports = PortStats {
        grants: d.u64()?,
        cycles: d.u64()?,
        conflicts: d.u64()?,
    };
    r.wide_bus = if d.u8()? == 1 {
        let words_per_line = d.usize()?;
        let n = d.u32()? as usize;
        if n != words_per_line + 1 {
            return None;
        }
        let mut used = Vec::with_capacity(n);
        for _ in 0..n {
            used.push(d.u64()?);
        }
        let unused = d.u64()?;
        Some(WideBusStats::from_counts(words_per_line, used, unused))
    } else {
        None
    };
    r.l1d = read_l1_stats(d)?;
    r.l1i = read_l1_stats(d)?;
    r.dv = if d.u8()? == 1 {
        Some(DvStats {
            loads_observed: d.u64()?,
            load_instances: d.u64()?,
            arith_instances: d.u64()?,
            load_validations: d.u64()?,
            arith_validations: d.u64()?,
            validation_failures: d.u64()?,
            no_free_vreg: d.u64()?,
            instances_with_nonzero_offset: d.u64()?,
            stores_checked: d.u64()?,
            store_conflicts: d.u64()?,
            elements_launched: d.u64()?,
        })
    } else {
        None
    };
    r.element_usage = if d.u8()? == 1 {
        Some(ElementUsage {
            computed_used: d.u64()?,
            computed_not_used: d.u64()?,
            not_computed: d.u64()?,
            registers_released: d.u64()?,
        })
    } else {
        None
    };
    Some(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunConfig;
    use crate::{UarchConfig, Workload};

    fn sample() -> (CellKey, RunStats) {
        let rc = RunConfig {
            scale: 1,
            max_insts: 5_000,
        };
        let cfg = UarchConfig::four_way(1, crate::PortKind::Wide).with_vectorization(true);
        let key = CellKey {
            config: cfg.clone(),
            workload: Workload::Compress,
            scale: rc.scale,
            max_insts: rc.max_insts,
        };
        let stats = sdv_uarch::simulate(&cfg, &Workload::Compress.build(rc.scale), rc.max_insts);
        (key, stats)
    }

    #[test]
    fn fingerprint_is_stable_within_a_build() {
        assert_eq!(simulator_fingerprint(), simulator_fingerprint());
        assert_ne!(simulator_fingerprint(), 0);
    }

    #[test]
    fn fingerprint_is_the_model_source() {
        use crate::source_hash::{closure, files, source_hash};
        use std::fs;
        use std::path::Path;

        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let crates = closure(&root, "sdv-sim").unwrap();
        for name in [
            "uarch",
            "core",
            "mem",
            "emu",
            "predictor",
            "workloads",
            "sim",
        ] {
            let dir = format!("crates/{name}");
            assert!(crates.contains(&dir), "{dir} missing from {crates:?}");
        }
        let toolchain = env!("SDV_TOOLCHAIN");
        let on_disk = source_hash(&root, &crates, toolchain).unwrap();
        assert_eq!(format!("{on_disk:016x}"), MODEL_SOURCE_HASH);
        let mut h = Fnv1a::seeded(0xf1 ^ u64::from(CACHE_VERSION));
        h.write(format!("{on_disk:016x}").as_bytes());
        assert_eq!(h.finish(), simulator_fingerprint());

        // A copy of exactly the hashed files hashes the same; one flipped
        // byte in the pipeline, or one new file in a crate, does not.
        let copy = std::env::temp_dir().join(format!("sdv-source-hash-{}", std::process::id()));
        let _ = fs::remove_dir_all(&copy);
        fs::create_dir_all(&copy).unwrap();
        fs::copy(root.join("Cargo.toml"), copy.join("Cargo.toml")).unwrap();
        for path in files(&root, &crates).unwrap() {
            let to = copy.join(&path);
            fs::create_dir_all(to.parent().unwrap()).unwrap();
            fs::copy(root.join(&path), to).unwrap();
        }
        let hash = || source_hash(&copy, &closure(&copy, "sdv-sim").unwrap(), toolchain).unwrap();
        assert_eq!(hash(), on_disk);

        let pipeline = copy.join("crates/uarch/src/pipeline.rs");
        let original = fs::read(&pipeline).unwrap();
        let mut flipped = original.clone();
        flipped[original.len() / 2] ^= 1;
        fs::write(&pipeline, &flipped).unwrap();
        assert_ne!(hash(), on_disk, "a one-byte model edit moves the hash");
        fs::write(&pipeline, &original).unwrap();
        assert_eq!(hash(), on_disk);

        fs::write(copy.join("crates/core/src/new_module.rs"), "").unwrap();
        assert_ne!(hash(), on_disk, "a new source file moves the hash");
        fs::remove_dir_all(&copy).unwrap();
    }

    #[test]
    fn stats_payloads_round_trip_bit_exactly() {
        let (_, stats) = sample();
        let bytes = stats_to_bytes(&stats);
        assert_eq!(stats_from_bytes(&bytes), Some(stats));
        // Truncated or over-long payloads must miss, never misdecode.
        assert_eq!(stats_from_bytes(&bytes[..bytes.len() - 1]), None);
        let mut long = bytes;
        long.push(0);
        assert_eq!(stats_from_bytes(&long), None);
        // The scalar sample exercises the `None` arms of the option fields.
        let scalar = sdv_uarch::simulate(
            &UarchConfig::four_way(1, crate::PortKind::Scalar),
            &Workload::Swim.build(1),
            3_000,
        );
        assert_eq!(stats_from_bytes(&stats_to_bytes(&scalar)), Some(scalar));
    }

    #[test]
    fn key_hash_distinguishes_configs_and_budgets() {
        let (key, _) = sample();
        let mut other = key.clone();
        other.max_insts += 1;
        assert_ne!(key_hash(&key), key_hash(&other));
        let mut scalar = key.clone();
        scalar.config = UarchConfig::four_way(1, crate::PortKind::Scalar);
        assert_ne!(key_hash(&key), key_hash(&scalar));
        assert_eq!(key_hash(&key), key_hash(&key.clone()));
    }

    #[test]
    fn profile_payloads_round_trip_and_reject_other_lengths() {
        // Every stride bucket is non-zero here, so a field swap would show.
        let profile = stride_profile(Workload::M88ksim, 1, 5_000);
        assert!(profile.counts.iter().all(|&c| c > 0), "{profile:?}");
        let bytes = profile_to_bytes(&profile);
        assert_eq!(bytes.len(), 12 * 8);
        assert_eq!(profile_from_bytes(&bytes), Some(profile));
        assert_eq!(profile_from_bytes(&bytes[..bytes.len() - 1]), None);
        let mut long = bytes;
        long.push(0);
        assert_eq!(profile_from_bytes(&long), None);
    }

    #[test]
    fn profile_keys_are_their_own_domain() {
        let (key, _) = sample();
        let profile = profile_key_hash(key.workload, key.scale, key.max_insts);
        assert_ne!(
            profile,
            key_hash(&key),
            "a profile never shares a cell's key"
        );
        assert_ne!(
            profile,
            profile_key_hash(key.workload, key.scale, key.max_insts + 1),
            "budgets are distinct profiles"
        );
        assert_eq!(
            profile,
            profile_key_hash(key.workload, key.scale, key.max_insts)
        );
    }
}

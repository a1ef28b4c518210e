//! A concurrency-safe result cache in one file: damage is a miss, and the
//! next write heals it.
//!
//! The simulation layer persists `content-hash → serialized result` entries so
//! repeated experiment runs (and CI jobs seeding developer machines) reuse
//! earlier sessions instead of re-simulating.  This crate provides the storage
//! substrate: it knows nothing about simulators or statistics — keys are
//! opaque 128-bit content hashes and values are opaque byte payloads — which
//! keeps it reusable and keeps the dependency arrow pointing the right way
//! (`sdv-sim` layers its serialization *on top* of the store).
//!
//! # Layout
//!
//! A store is a directory holding one data file, `store.bin`, and its writer
//! lock, `store.lock`.  The data file is a small versioned binary blob
//! (version 2; a file at any other version reads as unreadable):
//!
//! ```text
//! magic "SDVS" | version u32 | fingerprint u64 | count u64
//!   count × ( key_lo u64 | key_hi u64 | payload_len u32 | crc32 u32 | payload )
//! ```
//!
//! The `fingerprint` identifies the *producer* (for the simulator: a
//! build-time hash of the model's source and the toolchain).  A store is
//! always opened for one fingerprint; a data file written by a different
//! producer is invisible to readers and replaced on the next write.
//!
//! # Durability: corruption is a miss
//!
//! Every entry can be recomputed, so the store never tries to recover a
//! damaged entry: it detects damage, and the producer recomputes what was
//! lost.  All file I/O goes
//! through the [`StoreIo`] trait ([`RealIo`] in production), so every
//! failure path is provable under the deterministic [`FaultPlan`] injector.
//! The per-entry CRC32 localizes corruption to the entry it hit: readers
//! serve the intact remainder of a damaged file (the rest are misses),
//! [`Store::verify`] reports damage at entry granularity, and the next
//! [`Store::put_batch`] atomically rewrites the file from its intact entries
//! plus the batch.  A file with an unreadable header reads as empty and is
//! replaced whole by the next write.
//!
//! # Concurrency
//!
//! * **Readers are lock-free**: they only ever `read()` the data file, which
//!   is replaced atomically (write-temp + `rename`), so a reader sees either
//!   the old or the new file, never a torn one.  The first [`Store::get`]
//!   loads the whole file once and memoizes it in-process.
//! * **Writers serialize** through an OS advisory lock on `store.lock`: a
//!   write is *read–merge–write* under the lock, so two processes populating
//!   the same store concurrently both land all of their entries.  The kernel
//!   owns lock lifetime — a crashed writer's lock is released automatically,
//!   with no staleness heuristics or stealing.  Because only the lock holder
//!   writes, one fixed temp name, `store.tmp`, serves every writer: the next
//!   writer overwrites a crashed writer's leftover and renames it away.
//!
//! # Example
//!
//! ```
//! use sdv_store::Store;
//!
//! let dir = std::env::temp_dir().join(format!("sdv-store-doc-{}", std::process::id()));
//! let store = Store::open(&dir, 0xfeed).unwrap();
//! store.put_batch(&[(7, b"payload".to_vec())]).unwrap();
//! assert_eq!(store.get(7).as_deref(), Some(&b"payload"[..]));
//! assert!(store.verify().unwrap().is_ok());
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

pub mod fault;
pub mod format;
pub mod io;

use std::collections::HashMap;
use std::io::{self as stdio, ErrorKind};
use std::path::{Path, PathBuf};
use std::sync::{Arc, PoisonError, RwLock};

pub use fault::{Fault, FaultPlan, IoOp};
pub use format::{crc32, scan_entries, serialize_entries, EntryFault, EntryScan, STORE_VERSION};
pub use io::{ObservedIo, RealIo, StoreIo};
pub use sdv_obs::{Obs, ObsLevel};

/// The data file inside a store directory.
const DATA_FILE: &str = "store.bin";
/// The writer lock beside it.
const LOCK_FILE: &str = "store.lock";
/// The temp file of an atomic rewrite, written only under the writer lock.
const TEMP_FILE: &str = "store.tmp";

/// The in-memory form of a data file: opaque payloads keyed by content hash.
type Entries = HashMap<u128, Vec<u8>>;

// ------------------------------------------------------------------ reports

/// What [`Store::put_batch`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PutReport {
    /// Entries that were new to the store.
    pub inserted: u64,
    /// Entries whose key was already present (the new payload wins).
    pub updated: u64,
    /// Entries discarded from a data file written by a different producer
    /// fingerprint (their results are stale by definition).
    pub discarded_stale: u64,
}

/// The outcome of a structural [`Store::verify`] pass.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Intact entries in a data file carrying the store's fingerprint.
    pub entries: u64,
    /// Intact entries in a structurally valid data file with a foreign
    /// fingerprint (stale but harmless — misses, replaced by the next write).
    pub stale_entries: u64,
    /// Entries lost to localized damage (CRC mismatch, truncation,
    /// duplicates) — misses, dropped by the next write.
    pub corrupt_entries: u64,
    /// Structural problems found; empty for a healthy store.
    pub errors: Vec<String>,
}

impl VerifyReport {
    /// `true` when no structural problem was found.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.errors.is_empty()
    }
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} entries, {} stale entries: {}",
            self.entries,
            self.stale_entries,
            if self.is_ok() {
                "OK".to_string()
            } else {
                format!(
                    "{} error(s), {} corrupt entr{}",
                    self.errors.len(),
                    self.corrupt_entries,
                    if self.corrupt_entries == 1 {
                        "y"
                    } else {
                        "ies"
                    }
                )
            }
        )?;
        for e in &self.errors {
            write!(f, "\n  - {e}")?;
        }
        Ok(())
    }
}

/// Aggregate size statistics for a store directory.
#[derive(Debug, Clone, Default)]
pub struct StoreStats {
    /// Intact entries in a data file carrying the store's fingerprint.
    pub entries: u64,
    /// Total payload bytes across those entries.
    pub payload_bytes: u64,
    /// Size of the data file on disk (stale or unreadable included).
    pub file_bytes: u64,
    /// Entries in a structurally valid data file with a foreign fingerprint
    /// (misses, replaced by the next write).
    pub stale_entries: u64,
}

impl std::fmt::Display for StoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} entries ({} payload bytes, {} bytes on disk); {} stale entries",
            self.entries, self.payload_bytes, self.file_bytes, self.stale_entries
        )
    }
}

// -------------------------------------------------------------------- store

/// A handle on one store directory, opened for one producer fingerprint.
///
/// The handle may be shared freely across threads; see the crate docs for the
/// concurrency model.
pub struct Store {
    dir: PathBuf,
    fingerprint: u64,
    io: Arc<dyn StoreIo>,
    /// Memo of the last loaded disk state (`None` = not loaded).
    memo: RwLock<Option<Entries>>,
}

impl Store {
    /// Opens (creating if necessary) the store directory `dir` for entries
    /// produced under `fingerprint`, on the real filesystem.
    ///
    /// # Errors
    ///
    /// Propagates the failure to create the directory.
    pub fn open(dir: impl Into<PathBuf>, fingerprint: u64) -> stdio::Result<Self> {
        Self::open_with_io(dir, fingerprint, Arc::new(RealIo))
    }

    /// Opens the store through an explicit [`StoreIo`] implementation —
    /// the seam fault-injection tests use to prove every recovery path.
    ///
    /// # Errors
    ///
    /// Propagates the failure to create the directory.
    pub fn open_with_io(
        dir: impl Into<PathBuf>,
        fingerprint: u64,
        io: Arc<dyn StoreIo>,
    ) -> stdio::Result<Self> {
        let dir = dir.into();
        io.create_dir_all(&dir)?;
        Ok(Store {
            dir,
            fingerprint,
            io,
            memo: RwLock::new(None),
        })
    }

    /// Attaches an observability handle: subsequent filesystem calls are
    /// counted per operation through an [`io::ObservedIo`] wrapper (lock
    /// waits get a histogram and, under tracing, spans).  Observation only —
    /// behaviour and on-disk bytes are unchanged.
    pub fn set_obs(&mut self, obs: Arc<Obs>) {
        self.io = Arc::new(io::ObservedIo::new(Arc::clone(&self.io), obs));
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The producer fingerprint this handle reads and writes.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Reads the raw bytes of the data file; `Ok(None)` when it does not
    /// exist.
    fn read_data(&self) -> stdio::Result<Option<Vec<u8>>> {
        match self.io.read(&self.dir.join(DATA_FILE)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Takes the exclusive writer lock (blocking): an OS advisory lock on
    /// `store.lock`, released when the returned handle drops.  The kernel
    /// owns the lock's lifetime, so a crashed holder releases automatically
    /// — no staleness heuristics, no stealing, no ownership races.  The
    /// zero-byte lock *file* stays on disk permanently; it is never deleted,
    /// because removing the name while another writer holds the inode's lock
    /// would let a third writer lock a fresh inode under the same name and
    /// break mutual exclusion.
    fn lock_writer(&self) -> stdio::Result<std::fs::File> {
        self.io.lock(&self.dir.join(LOCK_FILE))
    }

    /// Loads the data file (once) and returns the entry's payload.
    ///
    /// A data file written under a different fingerprint, or an unreadable
    /// one, reads as empty; a damaged file serves its intact entries — stale
    /// or corrupt data can only ever cause a miss.
    #[must_use]
    pub fn get(&self, key: u128) -> Option<Vec<u8>> {
        {
            let memo = self.memo.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(entries) = memo.as_ref() {
                return entries.get(&key).cloned();
            }
        }
        let mut memo = self.memo.write().unwrap_or_else(PoisonError::into_inner);
        memo.get_or_insert_with(|| self.load()).get(&key).cloned()
    }

    /// Reads the live entries from disk (empty on absence, foreign
    /// fingerprint, unreadable header, or a failed read; the intact entries
    /// of a damaged file are served).
    fn load(&self) -> Entries {
        match self.read_data() {
            Ok(Some(bytes)) => match scan_entries(&bytes) {
                Ok(scan) if scan.fingerprint == self.fingerprint => scan.entries,
                _ => HashMap::new(),
            },
            _ => HashMap::new(),
        }
    }

    /// Inserts a batch of entries, merging with whatever the data file
    /// already holds (a read–merge–write under the writer lock).  A batch
    /// that adds nothing new leaves the file untouched.  A damaged file is
    /// healed in passing: its intact entries merge with the batch and the
    /// rewrite drops the damage.  A file with an unreadable header, or one
    /// written under another fingerprint, is treated as empty and replaced.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the data file is only ever replaced whole,
    /// so it is never left torn.
    pub fn put_batch(&self, entries: &[(u128, Vec<u8>)]) -> stdio::Result<PutReport> {
        let mut report = PutReport::default();
        if entries.is_empty() {
            return Ok(report);
        }
        let _lock = self.lock_writer()?;
        let (mut merged, on_disk_fresh) = match self.read_data()? {
            Some(bytes) => match scan_entries(&bytes) {
                Ok(scan) if scan.fingerprint == self.fingerprint => {
                    let fresh = scan.is_clean();
                    (scan.entries, fresh)
                }
                Ok(scan) => {
                    report.discarded_stale += scan.entries.len() as u64;
                    (HashMap::new(), false)
                }
                Err(_) => (HashMap::new(), false),
            },
            None => (HashMap::new(), false),
        };
        let mut changed = !on_disk_fresh;
        for (key, payload) in entries {
            match merged.insert(*key, payload.clone()) {
                None => {
                    report.inserted += 1;
                    changed = true;
                }
                Some(old) => {
                    report.updated += 1;
                    changed |= old != *payload;
                }
            }
        }
        if changed {
            self.write_atomic(&serialize_entries(self.fingerprint, &merged))?;
        }
        *self.memo.write().unwrap_or_else(PoisonError::into_inner) = Some(merged);
        Ok(report)
    }

    /// Replaces the data file via the atomic write-temp + rename protocol.
    /// The caller holds the writer lock, so the one temp name never races.
    fn write_atomic(&self, bytes: &[u8]) -> stdio::Result<()> {
        let tmp = self.dir.join(TEMP_FILE);
        self.io.write(&tmp, bytes)?;
        self.io.rename(&tmp, &self.dir.join(DATA_FILE))
    }

    /// Every live entry of the store (a data file carrying this handle's
    /// fingerprint), read fresh from disk.  A damaged file contributes its
    /// intact entries.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from reading the data file.
    pub fn entries(&self) -> stdio::Result<HashMap<u128, Vec<u8>>> {
        Ok(match self.read_data()?.map(|b| scan_entries(&b)) {
            Some(Ok(scan)) if scan.fingerprint == self.fingerprint => scan.entries,
            _ => HashMap::new(),
        })
    }

    /// Verifies the data file at per-entry granularity: magic, version,
    /// entry framing, per-entry CRC, and no trailing bytes.  A stale-but-valid
    /// file (foreign fingerprint) is counted, not flagged.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; structural problems are *reported*, not
    /// returned as errors.
    pub fn verify(&self) -> stdio::Result<VerifyReport> {
        let mut report = VerifyReport::default();
        let Some(bytes) = self.read_data()? else {
            return Ok(report);
        };
        let path = self.dir.join(DATA_FILE);
        match scan_entries(&bytes) {
            Err(e) => report.errors.push(format!("{}: {e}", path.display())),
            Ok(scan) => {
                for fault in &scan.faults {
                    report.errors.push(format!(
                        "{}: {} [bytes {}..{}]",
                        path.display(),
                        fault.what,
                        fault.range.0,
                        fault.range.1
                    ));
                }
                report.corrupt_entries = scan.corrupt_entries();
                let intact = scan.entries.len() as u64;
                if scan.fingerprint == self.fingerprint {
                    report.entries = intact;
                } else {
                    report.stale_entries = intact;
                }
            }
        }
        Ok(report)
    }

    /// Aggregate size statistics (reads the data file).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from reading the data file.
    pub fn stats(&self) -> stdio::Result<StoreStats> {
        let mut stats = StoreStats::default();
        let Some(bytes) = self.read_data()? else {
            return Ok(stats);
        };
        stats.file_bytes = bytes.len() as u64;
        match scan_entries(&bytes) {
            Ok(scan) if scan.fingerprint == self.fingerprint => {
                stats.entries = scan.entries.len() as u64;
                stats.payload_bytes = scan.entries.values().map(|p| p.len() as u64).sum();
            }
            Ok(scan) => stats.stale_entries = scan.entries.len() as u64,
            Err(_) => {}
        }
        Ok(stats)
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("fingerprint", &format_args!("{:#018x}", self.fingerprint))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sdv-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key(top: u8, low: u64) -> u128 {
        (u128::from(top) << 120) | u128::from(low)
    }

    #[test]
    fn round_trips_and_reopens() {
        let dir = tmp_dir("roundtrip");
        let store = Store::open(&dir, 1).unwrap();
        let batch: Vec<(u128, Vec<u8>)> = (0..50u64)
            .map(|i| (key((i * 7) as u8, i), vec![i as u8; (i % 13) as usize]))
            .collect();
        let put = store.put_batch(&batch).unwrap();
        assert_eq!(put.inserted, 50);
        assert_eq!(put.updated, 0);
        for (k, v) in &batch {
            assert_eq!(store.get(*k).as_ref(), Some(v));
        }
        // A fresh handle reads the same data from disk.
        let again = Store::open(&dir, 1).unwrap();
        for (k, v) in &batch {
            assert_eq!(again.get(*k).as_ref(), Some(v));
        }
        assert_eq!(again.entries().unwrap().len(), 50);
        assert!(store.get(key(9, 0xdead)).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrites_are_merges_not_replacements() {
        let dir = tmp_dir("merge-write");
        let a = Store::open(&dir, 1).unwrap();
        a.put_batch(&[(key(5, 1), vec![1])]).unwrap();
        // A second handle (fresh memo, same dir) adds a different entry; the
        // first entry must survive.
        let b = Store::open(&dir, 1).unwrap();
        let put = b.put_batch(&[(key(5, 2), vec![2])]).unwrap();
        assert_eq!(put.inserted, 1);
        let mut c = Store::open(&dir, 1).unwrap();
        let obs = Arc::new(Obs::new(ObsLevel::Metrics));
        c.set_obs(Arc::clone(&obs));
        assert_eq!(c.get(key(5, 1)), Some(vec![1]));
        assert_eq!(c.get(key(5, 2)), Some(vec![2]));
        // Re-putting identical content leaves the file untouched.
        let put = c.put_batch(&[(key(5, 1), vec![1])]).unwrap();
        assert_eq!(put.inserted, 0);
        assert_eq!(put.updated, 1);
        assert_eq!(
            obs.snapshot().counter("store.io.write.calls"),
            None,
            "a batch that adds nothing is not written"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_missing_data_file_is_not_a_read_error() {
        let dir = tmp_dir("read-errors");
        let mut fresh = Store::open(&dir, 1).unwrap();
        let obs = Arc::new(Obs::new(ObsLevel::Metrics));
        fresh.set_obs(Arc::clone(&obs));
        assert!(fresh.get(key(3, 1)).is_none());
        fresh.put_batch(&[(key(3, 1), vec![1])]).unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("store.io.read.calls"), Some(2));
        assert_eq!(snap.counter("store.io.read.errors"), None);
        fs::remove_dir_all(&dir).unwrap();

        // A real read failure still counts.
        let dir = tmp_dir("read-errors-eio");
        let plan = FaultPlan::new().with_fault(IoOp::Read, 0, Fault::Eio);
        let mut failing = Store::open_with_io(&dir, 1, Arc::new(plan)).unwrap();
        let obs = Arc::new(Obs::new(ObsLevel::Metrics));
        failing.set_obs(Arc::clone(&obs));
        assert!(failing.get(key(3, 1)).is_none());
        assert_eq!(obs.snapshot().counter("store.io.read.errors"), Some(1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_fingerprints_are_invisible_and_replaced() {
        let dir = tmp_dir("fingerprint");
        let old = Store::open(&dir, 1).unwrap();
        let stale = [(key(7, 1), vec![1]), (key(8, 2), vec![2])];
        old.put_batch(&stale).unwrap();
        let new = Store::open(&dir, 2).unwrap();
        assert!(new.get(key(7, 1)).is_none(), "stale entries never hit");
        assert!(new.entries().unwrap().is_empty());
        let stats = new.stats().unwrap();
        assert_eq!((stats.entries, stats.stale_entries), (0, 2));

        // Writing under the new fingerprint discards a stale file's contents.
        let put = new.put_batch(&[(key(7, 3), vec![3])]).unwrap();
        assert_eq!(put.discarded_stale, 2);
        let stats = new.stats().unwrap();
        assert_eq!((stats.entries, stats.stale_entries), (1, 0));
        assert!(new.get(key(8, 2)).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_flags_corruption() {
        let dir = tmp_dir("verify");
        let store = Store::open(&dir, 1).unwrap();
        store
            .put_batch(&[(key(1, 1), vec![1]), (key(2, 2), vec![2])])
            .unwrap();
        let report = store.verify().unwrap();
        assert!(report.is_ok(), "{report}");
        assert_eq!(report.entries, 2);
        // Truncate the file: verify must flag it at entry granularity.
        let victim = dir.join(DATA_FILE);
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() - 1]).unwrap();
        let report = store.verify().unwrap();
        assert!(!report.is_ok());
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.corrupt_entries, 1);
        assert_eq!(report.entries, 1, "the intact neighbour still counts");
        assert!(report.to_string().contains("error"), "{report}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_files_serve_their_intact_entries() {
        let dir = tmp_dir("damaged-read");
        let store = Store::open(&dir, 1).unwrap();
        let batch: Vec<(u128, Vec<u8>)> =
            (0..8u64).map(|i| (key(3, i), vec![i as u8; 4])).collect();
        store.put_batch(&batch).unwrap();
        // Flip a payload bit of one entry on disk.
        let path = dir.join(DATA_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let len = bytes.len();
        bytes[len - 2] ^= 0x10; // payload of the last (highest-key) entry
        fs::write(&path, bytes).unwrap();
        let fresh = Store::open(&dir, 1).unwrap();
        assert!(fresh.get(key(3, 7)).is_none(), "the hit entry is gone");
        for i in 0..7u64 {
            assert_eq!(fresh.get(key(3, i)), Some(vec![i as u8; 4]), "entry {i}");
        }
        assert_eq!(fresh.entries().unwrap().len(), 7);
        let report = fresh.verify().unwrap();
        assert_eq!(report.corrupt_entries, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A version-1 file: the current layout with the version field set to 1
    /// (its version-1 entries lacked the CRC, but the header alone decides).
    fn version_1_file(fingerprint: u64, entries: &Entries) -> Vec<u8> {
        let mut bytes = serialize_entries(fingerprint, entries);
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        bytes
    }

    /// The files in a store directory, sorted.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn version_1_files_are_misses_and_a_writer_replaces_them() {
        let dir = tmp_dir("v1-retired");
        fs::create_dir_all(&dir).unwrap();
        let mut entries = HashMap::new();
        entries.insert(key(2, 1), vec![1, 2, 3]);
        entries.insert(key(2, 2), vec![4]);
        fs::write(dir.join(DATA_FILE), version_1_file(1, &entries)).unwrap();
        let store = Store::open(&dir, 1).unwrap();
        assert_eq!(store.get(key(2, 1)), None, "never adopted");
        let verify = store.verify().unwrap();
        assert!(!verify.is_ok());
        assert_eq!(verify.entries, 0);
        assert!(verify.errors[0].contains("version 1"), "{verify}");

        // A writer treats it as empty and replaces it whole.
        store.put_batch(&[(key(2, 9), vec![9])]).unwrap();
        assert_eq!(store.entries().unwrap().len(), 1);
        assert_eq!(store.get(key(2, 2)), None);
        assert!(store.verify().unwrap().is_ok());
        assert_eq!(listing(&dir), [DATA_FILE, LOCK_FILE]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn put_batch_heals_damaged_files_instead_of_discarding() {
        let dir = tmp_dir("put-heal");
        let store = Store::open(&dir, 1).unwrap();
        let batch: Vec<(u128, Vec<u8>)> =
            (0..6u64).map(|i| (key(7, i), vec![i as u8; 3])).collect();
        store.put_batch(&batch).unwrap();
        let path = dir.join(DATA_FILE);
        let mut bytes = fs::read(&path).unwrap();
        bytes[24 + 24] ^= 0xff; // corrupt entry 0's payload
        fs::write(&path, bytes).unwrap();
        let fresh = Store::open(&dir, 1).unwrap();
        fresh.put_batch(&[(key(7, 99), vec![9])]).unwrap();
        // Intact survivors + the new entry; the damage is dropped.
        let entries = fresh.entries().unwrap();
        assert_eq!(entries.len(), 6, "5 survivors + 1 new");
        assert!(fresh.verify().unwrap().is_ok());
        assert_eq!(listing(&dir), [DATA_FILE, LOCK_FILE]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_writers_lose_no_entries() {
        let dir = tmp_dir("concurrent");
        let threads = 8;
        let per_thread = 40u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let dir = dir.clone();
                scope.spawn(move || {
                    let store = Store::open(&dir, 1).unwrap();
                    // Every thread writes the one data file, forcing lock
                    // contention and read–merge–write races.
                    let batch: Vec<(u128, Vec<u8>)> = (0..per_thread)
                        .map(|i| (key((i % 4) as u8, t * 1_000 + i), vec![t as u8]))
                        .collect();
                    store.put_batch(&batch).unwrap();
                });
            }
        });
        let store = Store::open(&dir, 1).unwrap();
        assert_eq!(
            store.entries().unwrap().len() as u64,
            threads * per_thread,
            "read–merge–write under the writer lock must not lose entries"
        );
        assert!(store.verify().unwrap().is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_writers_heal_a_damaged_file_and_lose_no_entries() {
        let dir = tmp_dir("concurrent-heal");
        let seed = Store::open(&dir, 1).unwrap();
        let baseline: Vec<(u128, Vec<u8>)> = (0..40u64)
            .map(|i| (key((i % 4) as u8, i), vec![7]))
            .collect();
        seed.put_batch(&baseline).unwrap();
        // Corrupt the payload of the last (highest-key) entry, so the first
        // writer to take the lock finds a damaged file.
        let path = dir.join(DATA_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let len = bytes.len();
        bytes[len - 1] ^= 0x08;
        fs::write(&path, bytes).unwrap();
        let threads = 4u64;
        let per_thread = 25u64;
        // Every writer opens its handle before any writes, so each one's
        // read–merge–write races the others on the damaged file.
        let start = std::sync::Barrier::new(threads as usize);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (dir, start) = (dir.clone(), &start);
                scope.spawn(move || {
                    let store = Store::open(&dir, 1).unwrap();
                    let batch: Vec<(u128, Vec<u8>)> = (0..per_thread)
                        .map(|i| (key((i % 4) as u8, 1_000 + t * 100 + i), vec![t as u8]))
                        .collect();
                    start.wait();
                    store.put_batch(&batch).unwrap();
                });
            }
        });
        let store = Store::open(&dir, 1).unwrap();
        // Exactly the corrupted baseline entry is gone; every other one and
        // every new one survives whichever writer healed the file.
        assert_eq!(
            store.entries().unwrap().len() as u64,
            40 - 1 + threads * per_thread
        );
        assert!(
            store.get(key(3, 39)).is_none(),
            "the damaged entry is a miss"
        );
        assert!(store.verify().unwrap().is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_crashed_writers_temp_is_consumed_by_the_next_write() {
        let dir = tmp_dir("crashed-temp");
        let first = [(key(6, 1), vec![1]), (key(6, 2), vec![2])];
        Store::open(&dir, 1).unwrap().put_batch(&first).unwrap();
        // The temp file lands, then the writer dies before the rename.
        let plan = Arc::new(FaultPlan::crash_after_temp_write(0));
        let crashed = Store::open_with_io(&dir, 1, plan).unwrap();
        assert!(crashed.put_batch(&[(key(6, 3), vec![3])]).is_err());
        assert_eq!(listing(&dir), [DATA_FILE, LOCK_FILE, TEMP_FILE]);

        let next = Store::open(&dir, 1).unwrap();
        next.put_batch(&[(key(6, 4), vec![4])]).unwrap();
        assert_eq!(listing(&dir), [DATA_FILE, LOCK_FILE], "no stray temp");
        let fresh = Store::open(&dir, 1).unwrap();
        for (k, v) in first.iter().chain(&[(key(6, 4), vec![4])]) {
            assert_eq!(fresh.get(*k).as_ref(), Some(v), "acknowledged {k:#x}");
        }
        assert!(
            fresh.get(key(6, 3)).is_none(),
            "the crashed batch never landed"
        );
        assert!(fresh.verify().unwrap().is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leftover_lock_files_from_dead_writers_do_not_block() {
        let dir = tmp_dir("dead-lock");
        let store = Store::open(&dir, 1).unwrap();
        // A crashed writer leaves the lock *file* behind, but the OS released
        // its advisory lock with the process — a new writer must sail through.
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(LOCK_FILE), b"").unwrap();
        store.put_batch(&[(key(5, 1), vec![1])]).unwrap();
        assert_eq!(store.get(key(5, 1)), Some(vec![1]));
        // Acquisition is a real OS lock: while one handle holds it, a second
        // try_lock on the same file fails; after release it succeeds.
        let held = store.lock_writer().unwrap();
        let probe = fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(LOCK_FILE))
            .unwrap();
        assert!(
            probe.try_lock().is_err(),
            "the writer lock is held, so a contender must not acquire"
        );
        drop(held);
        assert!(probe.try_lock().is_ok(), "released on drop");
        assert!(
            dir.join(LOCK_FILE).exists(),
            "the lock file is never deleted: a held OS lock lives on the \
             inode, and a fresh inode under the same name would break mutual \
             exclusion"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_store_is_healthy() {
        let dir = tmp_dir("empty");
        let store = Store::open(&dir, 1).unwrap();
        assert!(store.verify().unwrap().is_ok());
        let stats = store.stats().unwrap();
        assert_eq!(stats.entries, 0);
        assert!(stats.to_string().contains("0 entries"));
        assert!(store.entries().unwrap().is_empty());
        assert!(format!("{store:?}").contains("Store"));
        assert_eq!(store.put_batch(&[]).unwrap(), PutReport::default());
        assert!(
            !dir.join(DATA_FILE).exists(),
            "an empty batch writes nothing"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}

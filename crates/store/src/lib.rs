//! A mergeable, concurrency-safe, self-healing result store in one file.
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
//! The `fingerprint` identifies the *producer behaviour* (for the simulator:
//! a hash of what two canonical cells measure with the current build).  A
//! store is always opened for one fingerprint; a data file written by a
//! different producer is invisible to readers, replaced on write, and
//! reclaimed by [`Store::gc`].
//!
//! # Durability and self-healing
//!
//! All file I/O goes through the [`StoreIo`] trait ([`RealIo`] in
//! production), so every failure path is provable under the deterministic
//! [`FaultPlan`] injector.  The per-entry CRC32 localizes corruption to the
//! entry it hit: readers silently serve the intact remainder of a damaged
//! file, [`Store::verify`] reports damage at entry granularity, and
//! [`Store::repair`] salvages the intact entries, quarantines the damaged
//! bytes under `quarantine/`, and atomically rewrites the file — losing
//! only provably-corrupt entries, never the store.
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
//!   with no staleness heuristics or stealing.
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

/// Age (by file mtime) beyond which a leftover `store.tmp.*` file is presumed
/// abandoned by a crashed writer and reclaimed by [`Store::gc`].  A live
/// write holds its temp file for milliseconds, so a healthy one never comes
/// close to this; anything younger is presumed in flight and left alone (gc
/// must never race a live writer's rename).
pub const GC_TEMP_MAX_AGE: std::time::Duration = std::time::Duration::from_secs(30);

/// The data file inside a store directory.
const DATA_FILE: &str = "store.bin";
/// The writer lock beside it.
const LOCK_FILE: &str = "store.lock";
/// A writer's temp file is this prefix plus its process id.
const TEMP_PREFIX: &str = "store.tmp.";

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

/// What [`Store::merge_from`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Entries newly inserted into the destination.
    pub inserted: u64,
    /// Entries whose key the destination already held.
    pub updated: u64,
    /// Source entries skipped because they were written by a different
    /// producer fingerprint.
    pub skipped_stale: u64,
}

impl std::fmt::Display for MergeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} entries inserted, {} already present, {} stale skipped",
            self.inserted, self.updated, self.skipped_stale
        )
    }
}

/// What [`Store::gc`] reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries in the kept data file (its fingerprint matched).
    pub kept_entries: u64,
    /// Whether the data file was deleted (foreign fingerprint, foreign
    /// version, or unparseable).
    pub removed_file: bool,
    /// Entries in the deleted data file (0 for an unparseable one).
    pub removed_entries: u64,
    /// Leftover temp files deleted (only ones older than the writer
    /// abandonment threshold — live writers' pending temps survive).
    pub removed_strays: u64,
}

impl std::fmt::Display for GcReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "kept {} entries; removed {} stale data file ({} entries) and {} stray temp files",
            self.kept_entries,
            u64::from(self.removed_file),
            self.removed_entries,
            self.removed_strays
        )
    }
}

/// The outcome of a structural [`Store::verify`] pass.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Intact entries in a data file carrying the store's fingerprint.
    pub entries: u64,
    /// Intact entries in a structurally valid data file with a foreign
    /// fingerprint (stale but harmless — [`Store::gc`] reclaims them).
    pub stale_entries: u64,
    /// Entries lost to localized damage (CRC mismatch, truncation,
    /// duplicates) — what [`Store::repair`] would quarantine.
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

/// What [`Store::repair`] salvaged, quarantined, and rewrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Whether a damaged data file was atomically rewritten.
    pub repaired: bool,
    /// Intact entries carried over into the rewritten file.
    pub recovered_entries: u64,
    /// Entries lost to damage (their bytes are in `quarantine/`).
    pub quarantined_entries: u64,
    /// Damaged bytes moved under `quarantine/`.
    pub quarantined_bytes: u64,
    /// Whether the data file's header was unreadable, so it was moved whole
    /// into `quarantine/`.
    pub quarantined_file: bool,
}

impl RepairReport {
    /// `true` when nothing needed repair.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        !self.repaired && !self.quarantined_file
    }
}

impl std::fmt::Display for RepairReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} entries recovered, {} quarantined ({} damaged bytes), \
             {} unreadable file(s) quarantined",
            if self.is_clean() { "clean" } else { "repaired" },
            self.recovered_entries,
            self.quarantined_entries,
            self.quarantined_bytes,
            u64::from(self.quarantined_file)
        )
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
    /// Entries in a structurally valid data file with a foreign fingerprint.
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
    /// Observability handle; defaults to `Off` (every call is one enum
    /// compare).  [`Store::set_obs`] swaps in a live handle and wraps the
    /// I/O seam in [`io::ObservedIo`].
    obs: Arc<Obs>,
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
            obs: Arc::new(Obs::default()),
        })
    }

    /// Attaches an observability handle: subsequent filesystem calls are
    /// counted per operation through an [`io::ObservedIo`] wrapper (lock
    /// waits get a histogram and, under tracing, spans), and
    /// [`Store::repair`] reports what it salvaged as events.  Observation
    /// only — behaviour and on-disk bytes are unchanged.
    pub fn set_obs(&mut self, obs: Arc<Obs>) {
        self.io = Arc::new(io::ObservedIo::new(Arc::clone(&self.io), Arc::clone(&obs)));
        self.obs = obs;
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

    /// Reads the raw bytes of the data file in store directory `dir`;
    /// `Ok(None)` when it does not exist.
    fn read_data(&self, dir: &Path) -> stdio::Result<Option<Vec<u8>>> {
        match self.io.read(&dir.join(DATA_FILE)) {
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

    /// Drops the memo so the next [`Store::get`] reloads from disk.
    fn forget(&self) {
        *self.memo.write().unwrap_or_else(PoisonError::into_inner) = None;
    }

    /// Whether a temp file at `path` is old enough (by mtime) to be treated
    /// as abandoned by a crashed writer.  `false` when the file is gone or
    /// its age cannot be determined — never presume abandonment without
    /// evidence.
    fn is_stale(&self, path: &Path) -> bool {
        self.io
            .modified(path)
            .ok()
            .and_then(|mtime| std::time::SystemTime::now().duration_since(mtime).ok())
            .is_some_and(|age| age >= GC_TEMP_MAX_AGE)
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
        match self.read_data(&self.dir) {
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
    /// healed in passing: its damaged bytes are quarantined and its intact
    /// entries merge with the batch, so writing never silently drops
    /// salvageable data.
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
        let path = self.dir.join(DATA_FILE);
        let _lock = self.lock_writer()?;
        let (mut merged, on_disk_fresh) = match self.read_data(&self.dir)? {
            Some(bytes) => match scan_entries(&bytes) {
                Ok(scan) if scan.fingerprint == self.fingerprint => {
                    self.quarantine_ranges(&bytes, &scan.faults)?;
                    let fresh = scan.is_clean();
                    (scan.entries, fresh)
                }
                Ok(scan) => {
                    report.discarded_stale += scan.entries.len() as u64;
                    (HashMap::new(), false)
                }
                Err(_) => {
                    self.quarantine_file(&path)?;
                    (HashMap::new(), false)
                }
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
    fn write_atomic(&self, bytes: &[u8]) -> stdio::Result<()> {
        let tmp = self
            .dir
            .join(format!("{TEMP_PREFIX}{}", std::process::id()));
        self.io.write(&tmp, bytes)?;
        self.io.rename(&tmp, &self.dir.join(DATA_FILE))
    }

    /// Merges every live entry of the store directory `src` into this store.
    ///
    /// A source written under a different fingerprint is skipped (its
    /// results are stale for this producer); an unreadable source is skipped
    /// silently, and a damaged one contributes its intact entries.
    /// `merge(A, B)` and `merge(B, A)` into empty stores produce the same
    /// entry *set* whenever A and B agree on shared keys — which
    /// content-hashed deterministic results always do.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from reading `src` or writing this store.
    pub fn merge_from(&self, src: &Path) -> stdio::Result<MergeReport> {
        let mut report = MergeReport::default();
        let Some(Ok(scan)) = self.read_data(src)?.map(|bytes| scan_entries(&bytes)) else {
            return Ok(report);
        };
        if scan.fingerprint != self.fingerprint {
            report.skipped_stale = scan.entries.len() as u64;
            return Ok(report);
        }
        let batch: Vec<(u128, Vec<u8>)> = scan.entries.into_iter().collect();
        let put = self.put_batch(&batch)?;
        report.inserted = put.inserted;
        report.updated = put.updated;
        Ok(report)
    }

    /// Every live entry of the store (a data file carrying this handle's
    /// fingerprint), read fresh from disk.  A damaged file contributes its
    /// intact entries.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from reading the data file.
    pub fn entries(&self) -> stdio::Result<HashMap<u128, Vec<u8>>> {
        Ok(match self.read_data(&self.dir)?.map(|b| scan_entries(&b)) {
            Some(Ok(scan)) if scan.fingerprint == self.fingerprint => scan.entries,
            _ => HashMap::new(),
        })
    }

    /// Deletes the data file when its fingerprint differs from `keep` or its
    /// header is unreadable, plus abandoned temp files (the lock file and the
    /// `quarantine/` directory are never touched), and reports what was
    /// reclaimed.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from listing or deleting files.
    pub fn gc(&self, keep: u64) -> stdio::Result<GcReport> {
        let mut report = GcReport::default();
        for path in self.io.read_dir(&self.dir)? {
            let is_temp = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(TEMP_PREFIX));
            // A leftover temp of a crashed writer.  Only reclaim provably old
            // ones: a concurrent writer's pending temp must survive a gc that
            // races it.
            if is_temp && self.is_stale(&path) {
                self.io.remove_file(&path)?;
                report.removed_strays += 1;
            }
        }
        let path = self.dir.join(DATA_FILE);
        if self.io.exists(&path) {
            // Under the writer lock, so a write landing between the scan and
            // the delete cannot be lost.
            let _lock = self.lock_writer()?;
            if let Some(bytes) = self.read_data(&self.dir)? {
                match scan_entries(&bytes) {
                    Ok(scan) if scan.fingerprint == keep => {
                        report.kept_entries = scan.entries.len() as u64;
                    }
                    stale_or_unreadable => {
                        self.io.remove_file(&path)?;
                        report.removed_file = true;
                        report.removed_entries =
                            stale_or_unreadable.map_or(0, |scan| scan.entries.len() as u64);
                    }
                }
            }
        }
        self.forget();
        Ok(report)
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
        let Some(bytes) = self.read_data(&self.dir)? else {
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

    /// Repairs a damaged data file: salvages the intact entries, quarantines
    /// the damaged bytes under `quarantine/`, and atomically rewrites the
    /// file — losing only provably-corrupt entries, never the store.  A file
    /// whose header is unreadable (bad magic, a version other than
    /// [`STORE_VERSION`]) is moved whole into `quarantine/`.  The repair runs
    /// under the writer lock, and the file's own fingerprint is preserved
    /// (repair heals a stale file without adopting it).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; damage itself is repaired, not reported as
    /// an error.
    pub fn repair(&self) -> stdio::Result<RepairReport> {
        let report = self.repair_data_file()?;
        self.obs.counter("store.repair.runs", 1);
        self.obs
            .counter("store.repair.repaired_files", u64::from(report.repaired));
        self.obs
            .counter("store.repair.recovered_entries", report.recovered_entries);
        self.obs.counter(
            "store.repair.quarantined_entries",
            report.quarantined_entries,
        );
        self.obs
            .counter("store.repair.quarantined_bytes", report.quarantined_bytes);
        self.obs.counter(
            "store.repair.quarantined_files",
            u64::from(report.quarantined_file),
        );
        if !report.is_clean() {
            self.obs.instant(
                "store repair",
                "store",
                &[
                    ("dir", self.dir.display().to_string()),
                    ("recovered_entries", report.recovered_entries.to_string()),
                    (
                        "quarantined_entries",
                        report.quarantined_entries.to_string(),
                    ),
                    ("quarantined_file", report.quarantined_file.to_string()),
                ],
            );
        }
        Ok(report)
    }

    /// The work of [`Store::repair`], without its observability.
    fn repair_data_file(&self) -> stdio::Result<RepairReport> {
        let mut report = RepairReport::default();
        let path = self.dir.join(DATA_FILE);
        if !self.io.exists(&path) {
            return Ok(report);
        }
        let _lock = self.lock_writer()?;
        // Re-read under the lock: the pre-lock existence probe may have
        // raced a writer.
        let Some(bytes) = self.read_data(&self.dir)? else {
            return Ok(report);
        };
        match scan_entries(&bytes) {
            Ok(scan) if scan.is_clean() => return Ok(report),
            Ok(scan) => {
                report.quarantined_bytes = self.quarantine_ranges(&bytes, &scan.faults)?;
                report.quarantined_entries = scan.corrupt_entries();
                report.recovered_entries = scan.entries.len() as u64;
                self.write_atomic(&serialize_entries(scan.fingerprint, &scan.entries))?;
                report.repaired = true;
            }
            Err(_) => {
                self.quarantine_file(&path)?;
                report.quarantined_file = true;
                report.quarantined_bytes = bytes.len() as u64;
            }
        }
        self.forget();
        Ok(report)
    }

    /// The first free `quarantine/store[.N].bad` name.
    fn quarantine_slot(&self) -> stdio::Result<PathBuf> {
        let qdir = self.dir.join("quarantine");
        self.io.create_dir_all(&qdir)?;
        for n in 0u32.. {
            let name = if n == 0 {
                "store.bad".to_string()
            } else {
                format!("store.{n}.bad")
            };
            let candidate = qdir.join(name);
            if !self.io.exists(&candidate) {
                return Ok(candidate);
            }
        }
        unreachable!("some quarantine slot is free")
    }

    /// Writes the damaged byte ranges of the data file into `quarantine/`;
    /// returns how many bytes were preserved (0, and nothing written, for a
    /// clean file).
    fn quarantine_ranges(&self, bytes: &[u8], faults: &[EntryFault]) -> stdio::Result<u64> {
        let mut damaged = Vec::new();
        for fault in faults {
            damaged.extend_from_slice(&bytes[fault.range.0..fault.range.1]);
        }
        if damaged.is_empty() {
            return Ok(0);
        }
        let slot = self.quarantine_slot()?;
        self.io.write(&slot, &damaged)?;
        Ok(damaged.len() as u64)
    }

    /// Moves a wholly-unreadable data file into `quarantine/`.
    fn quarantine_file(&self, path: &Path) -> stdio::Result<()> {
        let slot = self.quarantine_slot()?;
        self.io.rename(path, &slot)
    }

    /// Aggregate size statistics (reads the data file).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from reading the data file.
    pub fn stats(&self) -> stdio::Result<StoreStats> {
        let mut stats = StoreStats::default();
        let Some(bytes) = self.read_data(&self.dir)? else {
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

    fn quarantined(dir: &Path, name: &str) -> bool {
        dir.join("quarantine").join(name).exists()
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
        // gc under the new fingerprint reclaims the stale file.
        let gc = new.gc(2).unwrap();
        assert!(gc.removed_file);
        assert_eq!(gc.removed_entries, 2);
        assert!(!dir.join(DATA_FILE).exists());

        // Writing under the new fingerprint discards a stale file's contents.
        old.put_batch(&stale).unwrap();
        let put = new.put_batch(&[(key(7, 3), vec![3])]).unwrap();
        assert_eq!(put.discarded_stale, 2);
        let stats = new.stats().unwrap();
        assert_eq!((stats.entries, stats.stale_entries), (1, 0));
        let gc = new.gc(2).unwrap();
        assert_eq!((gc.kept_entries, gc.removed_file), (1, false));
        assert!(new.get(key(8, 2)).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_from_unions_two_stores() {
        let dir_a = tmp_dir("merge-a");
        let dir_b = tmp_dir("merge-b");
        let a = Store::open(&dir_a, 1).unwrap();
        let b = Store::open(&dir_b, 1).unwrap();
        a.put_batch(&[(key(1, 1), vec![1]), (key(2, 2), vec![2])])
            .unwrap();
        b.put_batch(&[(key(2, 2), vec![2]), (key(3, 3), vec![3])])
            .unwrap();
        let report = a.merge_from(&dir_b).unwrap();
        assert_eq!(report.inserted, 1);
        assert_eq!(report.updated, 1);
        assert_eq!(report.skipped_stale, 0);
        assert_eq!(a.entries().unwrap().len(), 3);
        assert!(report.to_string().contains("1 entries inserted"));
        // Merging a store written under a different fingerprint imports nothing.
        let foreign_dir = tmp_dir("merge-f");
        let foreign = Store::open(&foreign_dir, 9).unwrap();
        foreign.put_batch(&[(key(4, 4), vec![4])]).unwrap();
        let report = a.merge_from(&foreign_dir).unwrap();
        assert_eq!(report.inserted, 0);
        assert_eq!(report.skipped_stale, 1);
        for d in [&dir_a, &dir_b, &foreign_dir] {
            fs::remove_dir_all(d).unwrap();
        }
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
    fn damaged_shards_serve_their_intact_entries() {
        let dir = tmp_dir("salvage-read");
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

    #[test]
    fn repair_salvages_quarantines_and_rewrites() {
        let dir = tmp_dir("repair");
        let store = Store::open(&dir, 1).unwrap();
        let batch: Vec<(u128, Vec<u8>)> =
            (0..10u64).map(|i| (key(4, i), vec![i as u8; 5])).collect();
        store.put_batch(&batch).unwrap();
        // Corrupt two entries.
        let path = dir.join(DATA_FILE);
        let mut bytes = fs::read(&path).unwrap();
        bytes[24 + 24 + 1] ^= 0x01; // entry 0 payload
        bytes[24 + 29 * 3 + 24 + 2] ^= 0x01; // entry 3 payload
        fs::write(&path, bytes).unwrap();

        let fresh = Store::open(&dir, 1).unwrap();
        let report = fresh.repair().unwrap();
        assert!(report.repaired);
        assert_eq!(report.recovered_entries, 8);
        assert_eq!(report.quarantined_entries, 2);
        assert_eq!(report.quarantined_bytes, 2 * 29);
        assert!(!report.quarantined_file);
        assert!(!report.is_clean());
        assert!(report.to_string().contains("2 quarantined"));

        // Post-repair: verify is clean, the survivors read back, the damaged
        // bytes are preserved under quarantine/.
        let after = Store::open(&dir, 1).unwrap();
        let verify = after.verify().unwrap();
        assert!(verify.is_ok(), "{verify}");
        assert_eq!(verify.corrupt_entries, 0);
        assert_eq!(after.entries().unwrap().len(), 8);
        assert!(after.get(key(4, 0)).is_none());
        assert!(after.get(key(4, 3)).is_none());
        assert_eq!(after.get(key(4, 5)), Some(vec![5u8; 5]));
        assert!(quarantined(&dir, "store.bad"));
        // A second repair pass finds nothing to do.
        let again = after.repair().unwrap();
        assert!(again.is_clean());
        assert!(again.to_string().starts_with("clean"), "{again}");

        // An unreadable header is quarantined whole, in the next free slot.
        fs::write(&path, b"not a store at all").unwrap();
        let report = after.repair().unwrap();
        assert!(report.quarantined_file);
        assert_eq!(report.quarantined_bytes, 18);
        assert!(!path.exists());
        assert!(quarantined(&dir, "store.1.bad"));
        assert!(after.entries().unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A version-1 file: the current layout with the version field set to 1
    /// (its version-1 entries lacked the CRC, but the header alone decides).
    fn version_1_file(fingerprint: u64, entries: &Entries) -> Vec<u8> {
        let mut bytes = serialize_entries(fingerprint, entries);
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        bytes
    }

    #[test]
    fn version_1_shards_are_misses_and_gc_reclaims_them() {
        let dir = tmp_dir("v1-retired");
        fs::create_dir_all(&dir).unwrap();
        let mut entries = HashMap::new();
        entries.insert(key(2, 1), vec![1, 2, 3]);
        entries.insert(key(2, 2), vec![4]);
        let path = dir.join(DATA_FILE);
        fs::write(&path, version_1_file(1, &entries)).unwrap();
        let store = Store::open(&dir, 1).unwrap();
        assert_eq!(store.get(key(2, 1)), None, "never adopted");
        let verify = store.verify().unwrap();
        assert!(!verify.is_ok());
        assert_eq!(verify.entries, 0);
        assert!(verify.errors[0].contains("version 1"), "{verify}");
        let gc = store.gc(1).unwrap();
        assert_eq!((gc.kept_entries, gc.removed_file), (0, true));
        assert!(!path.exists(), "gc reclaims it");

        fs::write(&path, version_1_file(1, &entries)).unwrap();
        let report = store.repair().unwrap();
        assert!(report.quarantined_file, "quarantined whole");
        assert!(!report.repaired);
        assert_eq!(report.recovered_entries, 0);
        assert!(!path.exists());
        assert!(quarantined(&dir, "store.bad"));
        assert!(store.verify().unwrap().is_ok());

        // A writer quarantines it too, and rewrites the file without it.
        fs::write(&path, version_1_file(1, &entries)).unwrap();
        store.put_batch(&[(key(2, 9), vec![9])]).unwrap();
        assert!(quarantined(&dir, "store.1.bad"));
        assert_eq!(store.entries().unwrap().len(), 1);
        assert_eq!(store.get(key(2, 2)), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn put_batch_heals_damaged_shards_instead_of_discarding() {
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
        // Intact survivors + the new entry; damage quarantined, file healed.
        let entries = fresh.entries().unwrap();
        assert_eq!(entries.len(), 6, "5 survivors + 1 new");
        assert!(fresh.verify().unwrap().is_ok());
        assert!(quarantined(&dir, "store.bad"));
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
    fn concurrent_repair_and_writers_lose_no_entries() {
        let dir = tmp_dir("concurrent-repair");
        let seed = Store::open(&dir, 1).unwrap();
        let baseline: Vec<(u128, Vec<u8>)> = (0..40u64)
            .map(|i| (key((i % 4) as u8, i), vec![7]))
            .collect();
        seed.put_batch(&baseline).unwrap();
        // Corrupt one entry so the repairers have real work.
        let path = dir.join(DATA_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let len = bytes.len();
        bytes[len - 1] ^= 0x08;
        fs::write(&path, bytes).unwrap();
        let threads = 4u64;
        let per_thread = 25u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let dir = dir.clone();
                scope.spawn(move || {
                    let store = Store::open(&dir, 1).unwrap();
                    let batch: Vec<(u128, Vec<u8>)> = (0..per_thread)
                        .map(|i| (key((i % 4) as u8, 1_000 + t * 100 + i), vec![t as u8]))
                        .collect();
                    store.put_batch(&batch).unwrap();
                });
            }
            for _ in 0..2 {
                let dir = dir.clone();
                scope.spawn(move || {
                    let store = Store::open(&dir, 1).unwrap();
                    store.repair().unwrap();
                });
            }
        });
        let store = Store::open(&dir, 1).unwrap();
        let entries = store.entries().unwrap();
        // Exactly one baseline entry was corrupted; whether a writer healed
        // the file before or after a repairer quarantined it, every other
        // entry and all new ones survive.
        assert!(
            entries.len() as u64 >= 40 - 1 + threads * per_thread,
            "lost entries: only the corrupted one may go ({} left)",
            entries.len()
        );
        assert!(store.verify().unwrap().is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// [`GC_TEMP_MAX_AGE`] is the exact staleness threshold: a temp file is
    /// live strictly below it, reclaimable at or beyond it, and a missing
    /// file is never presumed abandoned.
    #[test]
    fn gc_temp_max_age_is_the_staleness_threshold() {
        let dir = tmp_dir("gc-threshold");
        fs::create_dir_all(&dir).unwrap();
        let store = Store::open(&dir, 1).unwrap();
        let path = dir.join("store.tmp.1");
        fs::write(&path, b"half a write").unwrap();
        assert!(!store.is_stale(&path), "a fresh temp file is presumed live");

        let backdate = |by: std::time::Duration| {
            let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.set_times(fs::FileTimes::new().set_modified(std::time::SystemTime::now() - by))
                .unwrap();
        };
        backdate(GC_TEMP_MAX_AGE - std::time::Duration::from_secs(5));
        assert!(
            !store.is_stale(&path),
            "just under the threshold is still live"
        );
        backdate(GC_TEMP_MAX_AGE + std::time::Duration::from_secs(5));
        assert!(store.is_stale(&path), "past the threshold is reclaimable");

        assert!(
            !store.is_stale(&dir.join("never-existed.tmp.2")),
            "absence of evidence is not abandonment"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Backdates a file's mtime past the writer-abandonment threshold.
    fn age(path: &Path) {
        let old =
            std::time::SystemTime::now() - (GC_TEMP_MAX_AGE + std::time::Duration::from_secs(30));
        let f = fs::OpenOptions::new().write(true).open(path).unwrap();
        f.set_times(fs::FileTimes::new().set_modified(old)).unwrap();
    }

    #[test]
    fn gc_reclaims_abandoned_temps_but_never_locks() {
        let dir = tmp_dir("gc-strays");
        let store = Store::open(&dir, 1).unwrap();
        store.put_batch(&[(key(1, 1), vec![1])]).unwrap();
        fs::write(dir.join("store.tmp.999"), b"half a write").unwrap();
        fs::write(dir.join("store.tmp.998"), b"in flight").unwrap();
        fs::write(dir.join("unrelated.txt"), b"left alone").unwrap();
        age(&dir.join("store.tmp.999"));
        age(&dir.join(LOCK_FILE));
        let report = store.gc(1).unwrap();
        assert_eq!(report.removed_strays, 1, "only the abandoned temp goes");
        assert_eq!((report.kept_entries, report.removed_file), (1, false));
        assert!(
            dir.join("store.tmp.998").exists(),
            "a fresh temp may belong to a live writer and must survive gc"
        );
        assert!(
            dir.join(LOCK_FILE).exists(),
            "the lock file is never deleted, however old: a held OS lock lives \
             on the inode, and a fresh inode under the same name would break \
             mutual exclusion"
        );
        assert!(dir.join("unrelated.txt").exists());
        assert!(report.to_string().contains("stray"));
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
        assert!(store.repair().unwrap().is_clean());
        assert_eq!(store.put_batch(&[]).unwrap(), PutReport::default());
        assert!(
            !dir.join(DATA_FILE).exists(),
            "an empty batch writes nothing"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}

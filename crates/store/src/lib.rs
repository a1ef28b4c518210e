//! A sharded, mergeable, concurrency-safe, self-healing result store.
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
//! A store is a directory of up to 256 *shard* files, `shard-00.bin` …
//! `shard-ff.bin`, where an entry lives in the shard named by the top byte of
//! its key.  Each shard file is a small versioned binary blob (version 2;
//! a file at any other version reads as an unreadable shard):
//!
//! ```text
//! magic "SDVS" | version u32 | fingerprint u64 | count u64
//!   count × ( key_lo u64 | key_hi u64 | payload_len u32 | crc32 u32 | payload )
//! ```
//!
//! The `fingerprint` identifies the *producer behaviour* (for the simulator:
//! a hash of what two canonical cells measure with the current build).  A
//! store is always opened for one fingerprint; shard files written by a
//! different producer are invisible to readers, replaced on write, and
//! reclaimed by [`Store::gc`].
//!
//! # Durability and self-healing
//!
//! All file I/O goes through the [`StoreIo`] trait ([`RealIo`] in
//! production), so every failure path is provable under the deterministic
//! [`FaultPlan`] injector.  The per-entry CRC32 localizes corruption to the
//! entry it hit: readers silently serve the intact remainder of a damaged
//! shard, [`Store::verify`] reports damage at entry granularity, and
//! [`Store::repair`] salvages the intact entries, quarantines the damaged
//! bytes under `quarantine/`, and atomically rewrites the shard — losing
//! only provably-corrupt entries, never the shard.
//!
//! # Concurrency
//!
//! * **Readers are lock-free**: they only ever `read()` shard files, which are
//!   replaced atomically (write-temp + `rename`), so a reader sees either the
//!   old or the new shard, never a torn one.  Loaded shards are memoized
//!   in-process behind per-shard `RwLock`s.
//! * **Writers serialize per shard** through an OS advisory lock on a sibling
//!   `shard-XX.lock` file: a write is *read–merge–write* under the lock, so
//!   two processes populating the same store concurrently both land all of
//!   their entries.  The kernel owns lock lifetime — a crashed writer's lock
//!   is released automatically, with no staleness heuristics or stealing.
//!
//! # Example
//!
//! ```
//! use sdv_store::Store;
//!
//! let dir = std::env::temp_dir().join(format!("sdv-store-doc-{}", std::process::id()));
//! let store = Store::open(&dir, 0xfeed).unwrap();
//! store.put_batch(&[((0x42u128 << 120) | 7, b"payload".to_vec())]).unwrap();
//! assert_eq!(store.get((0x42u128 << 120) | 7).as_deref(), Some(&b"payload"[..]));
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
pub use format::{crc32, scan_shard, serialize_shard, ShardFault, ShardScan, STORE_VERSION};
pub use io::{ObservedIo, RealIo, StoreIo};
pub use sdv_obs::{Obs, ObsLevel};

/// Number of shard files a store fans out over (keyed by the key's top byte).
pub const SHARDS: usize = 256;
/// Age (by file mtime) beyond which a leftover `.tmp.*` file is presumed
/// abandoned by a crashed writer and reclaimed by [`Store::gc`].  A live
/// shard write holds its temp file for milliseconds, so a healthy one never
/// comes close to this; anything younger is presumed in flight and left
/// alone (gc must never race a live writer's rename).
pub const GC_TEMP_MAX_AGE: std::time::Duration = std::time::Duration::from_secs(30);

/// The in-memory form of one shard: opaque payloads keyed by content hash.
type ShardEntries = HashMap<u128, Vec<u8>>;

/// The index of the shard holding `key`: its most significant byte.
#[must_use]
pub fn shard_of(key: u128) -> usize {
    (key >> 120) as usize
}

fn shard_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:02x}.bin"))
}

// -------------------------------------------------------------- write locks

/// An exclusive per-shard writer lock: an OS advisory lock on a sibling
/// `.lock` file, released when the handle drops.  The kernel owns the lock's
/// lifetime, so a crashed holder releases automatically — no staleness
/// heuristics, no stealing, no ownership races.  The zero-byte lock *files*
/// stay on disk permanently; they are never deleted, because removing a name
/// while another writer holds the inode's lock would let a third writer lock
/// a fresh inode under the same name and break mutual exclusion.
struct ShardLock {
    _file: std::fs::File,
}

// ------------------------------------------------------------------ reports

/// What [`Store::put_batch`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PutReport {
    /// Entries that were new to the store.
    pub inserted: u64,
    /// Entries whose key was already present (the new payload wins).
    pub updated: u64,
    /// Entries discarded from shard files written by a different producer
    /// fingerprint (their results are stale by definition).
    pub discarded_stale: u64,
}

/// What [`Store::merge_from`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Source shard files read.
    pub shards_read: u64,
    /// Entries newly inserted into the destination.
    pub inserted: u64,
    /// Entries whose key the destination already held.
    pub updated: u64,
    /// Source entries skipped because their shard was written by a different
    /// producer fingerprint.
    pub skipped_stale: u64,
}

impl std::fmt::Display for MergeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} shard files read: {} entries inserted, {} already present, {} stale skipped",
            self.shards_read, self.inserted, self.updated, self.skipped_stale
        )
    }
}

/// What [`Store::gc`] reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Shard files kept (their fingerprint matched).
    pub kept_shards: u64,
    /// Entries across the kept shard files.
    pub kept_entries: u64,
    /// Stale shard files deleted (foreign fingerprint, foreign version, or
    /// unparseable).
    pub removed_shards: u64,
    /// Entries across the deleted shard files (0 for unparseable files).
    pub removed_entries: u64,
    /// Leftover temp files deleted (only ones older than the writer
    /// abandonment threshold — live writers' pending temps survive, and
    /// lock files are never touched).
    pub removed_strays: u64,
}

impl std::fmt::Display for GcReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "kept {} shard files ({} entries); removed {} stale shard files \
             ({} entries) and {} stray temp/lock files",
            self.kept_shards,
            self.kept_entries,
            self.removed_shards,
            self.removed_entries,
            self.removed_strays
        )
    }
}

/// The outcome of a structural [`Store::verify`] pass.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Shard files parsed with the store's fingerprint.
    pub shards: u64,
    /// Intact entries across those shards.
    pub entries: u64,
    /// Structurally valid shard files with a foreign fingerprint (stale but
    /// harmless — [`Store::gc`] reclaims them).
    pub stale_shards: u64,
    /// Entries lost to localized damage (CRC mismatch, truncation,
    /// duplicates) across all readable shards — what [`Store::repair`]
    /// would quarantine.
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
            "{} shard files, {} entries, {} stale shard files: {}",
            self.shards,
            self.entries,
            self.stale_shards,
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
    /// Shard files examined.
    pub scanned_shards: u64,
    /// Shard files that were already clean.
    pub clean_shards: u64,
    /// Damaged shard files atomically rewritten.
    pub repaired_shards: u64,
    /// Intact entries carried over into rewritten shards.
    pub recovered_entries: u64,
    /// Entries lost to damage (their bytes are in `quarantine/`).
    pub quarantined_entries: u64,
    /// Damaged bytes moved under `quarantine/`.
    pub quarantined_bytes: u64,
    /// Files whose header was unreadable, moved whole into `quarantine/`.
    pub quarantined_files: u64,
}

impl RepairReport {
    /// `true` when nothing needed repair.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.repaired_shards == 0 && self.quarantined_files == 0
    }
}

impl std::fmt::Display for RepairReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scanned {} shard files: {} clean, {} repaired ({} entries recovered, \
             {} quarantined, {} damaged bytes), {} unreadable file(s) quarantined",
            self.scanned_shards,
            self.clean_shards,
            self.repaired_shards,
            self.recovered_entries,
            self.quarantined_entries,
            self.quarantined_bytes,
            self.quarantined_files
        )
    }
}

/// Aggregate size/occupancy statistics for a store directory.
#[derive(Debug, Clone, Default)]
pub struct StoreStats {
    /// Shard files carrying the store's fingerprint.
    pub shards: u64,
    /// Intact entries across those shards.
    pub entries: u64,
    /// Total payload bytes across those entries.
    pub payload_bytes: u64,
    /// Total size of all shard files on disk (stale ones included).
    pub file_bytes: u64,
    /// Structurally valid shard files with a foreign fingerprint.
    pub stale_shards: u64,
    /// Entries across the stale shards.
    pub stale_entries: u64,
    /// Entry count of the fullest live shard.
    pub largest_shard_entries: u64,
}

impl std::fmt::Display for StoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} entries ({} payload bytes) across {} shard files \
             ({} bytes on disk; fullest shard holds {}); \
             {} stale shard files carrying {} entries",
            self.entries,
            self.payload_bytes,
            self.shards,
            self.file_bytes,
            self.largest_shard_entries,
            self.stale_shards,
            self.stale_entries
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
    /// Per-shard memo of the last loaded disk state (`None` = not loaded).
    shards: Vec<RwLock<Option<ShardEntries>>>,
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
            shards: (0..SHARDS).map(|_| RwLock::new(None)).collect(),
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

    /// Reads a shard file's raw bytes; `Ok(None)` when it does not exist.
    fn read_shard_bytes(&self, path: &Path) -> stdio::Result<Option<Vec<u8>>> {
        match self.io.read(path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Takes the writer lock for `shard` (blocking).
    fn lock_shard(&self, shard: usize) -> stdio::Result<ShardLock> {
        let file = self
            .io
            .lock(&self.dir.join(format!("shard-{shard:02x}.lock")))?;
        Ok(ShardLock { _file: file })
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

    /// Loads the shard holding `key` (once) and returns the entry's payload.
    ///
    /// Shard files written under a different fingerprint, or unreadable ones,
    /// read as empty; a damaged shard serves its intact entries — stale or
    /// corrupt data can only ever cause a miss.
    #[must_use]
    pub fn get(&self, key: u128) -> Option<Vec<u8>> {
        let slot = &self.shards[shard_of(key)];
        {
            let loaded = slot.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(entries) = loaded.as_ref() {
                return entries.get(&key).cloned();
            }
        }
        let mut loaded = slot.write().unwrap_or_else(PoisonError::into_inner);
        if loaded.is_none() {
            *loaded = Some(self.load_shard(shard_of(key)));
        }
        loaded.as_ref().expect("just loaded").get(&key).cloned()
    }

    /// Reads a shard's live entries from disk (empty on absence, foreign
    /// fingerprint, or unreadable header; intact entries of a damaged shard
    /// are served).
    fn load_shard(&self, shard: usize) -> ShardEntries {
        match self.read_shard_bytes(&shard_path(&self.dir, shard)) {
            Ok(Some(bytes)) => match scan_shard(&bytes) {
                Ok(scan) if scan.fingerprint == self.fingerprint => scan.entries,
                _ => HashMap::new(),
            },
            _ => HashMap::new(),
        }
    }

    /// Inserts a batch of entries, merging with whatever each touched shard
    /// already holds on disk (a read–merge–write per shard under the shard's
    /// writer lock).  Untouched shards are not rewritten, and a batch that
    /// adds nothing new to a shard leaves its file untouched.  A damaged
    /// shard is healed in passing: its damaged bytes are quarantined and its
    /// intact entries merge with the batch, so writing never silently drops
    /// salvageable data.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; on error some shards of the batch may already
    /// have been written (each individual shard stays consistent).
    pub fn put_batch(&self, entries: &[(u128, Vec<u8>)]) -> stdio::Result<PutReport> {
        let mut by_shard: HashMap<usize, Vec<&(u128, Vec<u8>)>> = HashMap::new();
        for entry in entries {
            by_shard.entry(shard_of(entry.0)).or_default().push(entry);
        }
        let mut report = PutReport::default();
        let mut shards: Vec<usize> = by_shard.keys().copied().collect();
        shards.sort_unstable(); // deterministic lock order
        for shard in shards {
            let path = shard_path(&self.dir, shard);
            let _lock = self.lock_shard(shard)?;
            let (mut merged, on_disk_fresh) = match self.read_shard_bytes(&path)? {
                Some(bytes) => match scan_shard(&bytes) {
                    Ok(scan) if scan.fingerprint == self.fingerprint => {
                        if !scan.faults.is_empty() {
                            self.quarantine_ranges(shard, &bytes, &scan.faults)?;
                        }
                        let fresh = scan.is_clean();
                        (scan.entries, fresh)
                    }
                    Ok(scan) => {
                        report.discarded_stale += scan.entries.len() as u64;
                        (HashMap::new(), false)
                    }
                    Err(_) => {
                        self.quarantine_file(shard, &path)?;
                        (HashMap::new(), false)
                    }
                },
                None => (HashMap::new(), false),
            };
            let mut changed = !on_disk_fresh;
            for (key, payload) in &by_shard[&shard] {
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
                self.write_shard_atomic(shard, &path, &serialize_shard(self.fingerprint, &merged))?;
            }
            *self.shards[shard]
                .write()
                .unwrap_or_else(PoisonError::into_inner) = Some(merged);
        }
        Ok(report)
    }

    /// Writes shard bytes via the atomic write-temp + rename protocol.
    fn write_shard_atomic(&self, shard: usize, path: &Path, bytes: &[u8]) -> stdio::Result<()> {
        let tmp = self
            .dir
            .join(format!("shard-{shard:02x}.tmp.{}", std::process::id()));
        self.io.write(&tmp, bytes)?;
        self.io.rename(&tmp, path)
    }

    /// Merges every live entry of the store directory `src` into this store.
    ///
    /// Source shards written under a different fingerprint are skipped (their
    /// results are stale for this producer); unreadable source shards are
    /// skipped silently, and damaged ones contribute their intact entries.
    /// `merge(A, B)` and `merge(B, A)` into empty stores produce the same
    /// entry *set* whenever A and B agree on shared keys — which
    /// content-hashed deterministic results always do.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from reading `src` or writing this store.
    pub fn merge_from(&self, src: &Path) -> stdio::Result<MergeReport> {
        let mut report = MergeReport::default();
        for shard in 0..SHARDS {
            let Some(bytes) = self.read_shard_bytes(&shard_path(src, shard))? else {
                continue;
            };
            report.shards_read += 1;
            let Ok(scan) = scan_shard(&bytes) else {
                continue;
            };
            if scan.fingerprint != self.fingerprint {
                report.skipped_stale += scan.entries.len() as u64;
                continue;
            }
            let batch: Vec<(u128, Vec<u8>)> = scan.entries.into_iter().collect();
            let put = self.put_batch(&batch)?;
            report.inserted += put.inserted;
            report.updated += put.updated;
        }
        Ok(report)
    }

    /// Every live entry of the store (the shards carrying this handle's
    /// fingerprint), read fresh from disk.  Damaged shards contribute their
    /// intact entries.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from reading shard files.
    pub fn entries(&self) -> stdio::Result<HashMap<u128, Vec<u8>>> {
        let mut out = HashMap::new();
        for shard in 0..SHARDS {
            let Some(bytes) = self.read_shard_bytes(&shard_path(&self.dir, shard))? else {
                continue;
            };
            if let Ok(scan) = scan_shard(&bytes) {
                if scan.fingerprint == self.fingerprint {
                    out.extend(scan.entries);
                }
            }
        }
        Ok(out)
    }

    /// Deletes shard files whose fingerprint differs from `keep` (plus
    /// unreadable shards and abandoned temp files; lock files and the
    /// `quarantine/` directory are never touched) and reports what was
    /// reclaimed.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from listing or deleting files.
    pub fn gc(&self, keep: u64) -> stdio::Result<GcReport> {
        let mut report = GcReport::default();
        for path in self.io.read_dir(&self.dir)? {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            if !name.starts_with("shard-") {
                continue;
            }
            if name.ends_with(".lock") {
                // Never delete lock files: a writer may hold the OS lock on
                // that inode right now, and a fresh inode under the same name
                // would let a third writer in beside it.
                continue;
            }
            if !name.ends_with(".bin") {
                // A leftover `.tmp.<pid>` of a crashed writer.  Only reclaim
                // provably old ones: a concurrent writer's pending temp file
                // must survive a gc that races it.
                if self.is_stale(&path) {
                    self.io.remove_file(&path)?;
                    report.removed_strays += 1;
                }
                continue;
            }
            let Some(bytes) = self.read_shard_bytes(&path)? else {
                continue;
            };
            match scan_shard(&bytes) {
                Ok(scan) if scan.fingerprint == keep => {
                    report.kept_shards += 1;
                    report.kept_entries += scan.entries.len() as u64;
                }
                Ok(scan) => {
                    self.io.remove_file(&path)?;
                    report.removed_shards += 1;
                    report.removed_entries += scan.entries.len() as u64;
                }
                Err(_) => {
                    self.io.remove_file(&path)?;
                    report.removed_shards += 1;
                }
            }
        }
        for slot in &self.shards {
            *slot.write().unwrap_or_else(PoisonError::into_inner) = None;
        }
        Ok(report)
    }

    /// Verifies every shard file of the store at per-entry granularity:
    /// magic, version, entry framing, per-entry CRC, no trailing bytes, and
    /// every key living in the shard its top byte names.  Stale-but-valid
    /// shards (foreign fingerprint) are counted, not flagged.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; structural problems are *reported*, not
    /// returned as errors.
    pub fn verify(&self) -> stdio::Result<VerifyReport> {
        let mut report = VerifyReport::default();
        for shard in 0..SHARDS {
            let path = shard_path(&self.dir, shard);
            let Some(bytes) = self.read_shard_bytes(&path)? else {
                continue;
            };
            match scan_shard(&bytes) {
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
                    report.corrupt_entries += scan.corrupt_entries();
                    for key in scan.entries.keys() {
                        if shard_of(*key) != shard {
                            report.errors.push(format!(
                                "{}: key {key:#034x} belongs in shard {:02x}",
                                path.display(),
                                shard_of(*key)
                            ));
                        }
                    }
                    if scan.fingerprint == self.fingerprint {
                        report.shards += 1;
                        report.entries += scan.entries.len() as u64;
                    } else {
                        report.stale_shards += 1;
                    }
                }
            }
        }
        Ok(report)
    }

    /// Repairs every damaged shard file: salvages the intact entries,
    /// quarantines the damaged bytes under `quarantine/`, and atomically
    /// rewrites the shard — losing only provably-corrupt entries, never the
    /// shard.  Files whose header is unreadable (bad magic, a version other
    /// than [`STORE_VERSION`]) are moved whole into `quarantine/`.  Shards
    /// are repaired under their writer lock, and each file's own fingerprint
    /// is preserved (repair heals stale shards without adopting them).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; damage itself is repaired, not reported as
    /// an error.
    pub fn repair(&self) -> stdio::Result<RepairReport> {
        let mut report = RepairReport::default();
        for shard in 0..SHARDS {
            let path = shard_path(&self.dir, shard);
            if !self.io.exists(&path) {
                continue;
            }
            let _lock = self.lock_shard(shard)?;
            // Re-read under the lock: the pre-lock existence probe may have
            // raced a writer.
            let Some(bytes) = self.read_shard_bytes(&path)? else {
                continue;
            };
            report.scanned_shards += 1;
            match scan_shard(&bytes) {
                Ok(scan) if scan.is_clean() => report.clean_shards += 1,
                Ok(scan) => {
                    report.quarantined_bytes +=
                        self.quarantine_ranges(shard, &bytes, &scan.faults)?;
                    report.quarantined_entries += scan.corrupt_entries();
                    report.recovered_entries += scan.entries.len() as u64;
                    self.write_shard_atomic(
                        shard,
                        &path,
                        &serialize_shard(scan.fingerprint, &scan.entries),
                    )?;
                    report.repaired_shards += 1;
                    *self.shards[shard]
                        .write()
                        .unwrap_or_else(PoisonError::into_inner) = None;
                }
                Err(_) => {
                    self.quarantine_file(shard, &path)?;
                    report.quarantined_files += 1;
                    report.quarantined_bytes += bytes.len() as u64;
                    *self.shards[shard]
                        .write()
                        .unwrap_or_else(PoisonError::into_inner) = None;
                }
            }
        }
        self.obs.counter("store.repair.runs", 1);
        self.obs
            .counter("store.repair.repaired_shards", report.repaired_shards);
        self.obs
            .counter("store.repair.recovered_entries", report.recovered_entries);
        self.obs.counter(
            "store.repair.quarantined_entries",
            report.quarantined_entries,
        );
        self.obs
            .counter("store.repair.quarantined_bytes", report.quarantined_bytes);
        self.obs
            .counter("store.repair.quarantined_files", report.quarantined_files);
        if !report.is_clean() {
            self.obs.instant(
                "store repair",
                "store",
                &[
                    ("dir", self.dir.display().to_string()),
                    ("repaired_shards", report.repaired_shards.to_string()),
                    ("recovered_entries", report.recovered_entries.to_string()),
                    (
                        "quarantined_entries",
                        report.quarantined_entries.to_string(),
                    ),
                    ("quarantined_files", report.quarantined_files.to_string()),
                ],
            );
        }
        Ok(report)
    }

    /// The first free `quarantine/shard-XX[.N].bad` name.
    fn quarantine_slot(&self, shard: usize) -> stdio::Result<PathBuf> {
        let qdir = self.dir.join("quarantine");
        self.io.create_dir_all(&qdir)?;
        for n in 0u32.. {
            let name = if n == 0 {
                format!("shard-{shard:02x}.bad")
            } else {
                format!("shard-{shard:02x}.{n}.bad")
            };
            let candidate = qdir.join(name);
            if !self.io.exists(&candidate) {
                return Ok(candidate);
            }
        }
        unreachable!("some quarantine slot is free")
    }

    /// Writes the damaged byte ranges of a shard into `quarantine/`;
    /// returns how many bytes were preserved.
    fn quarantine_ranges(
        &self,
        shard: usize,
        bytes: &[u8],
        faults: &[ShardFault],
    ) -> stdio::Result<u64> {
        let mut damaged = Vec::new();
        for fault in faults {
            damaged.extend_from_slice(&bytes[fault.range.0..fault.range.1]);
        }
        if damaged.is_empty() {
            return Ok(0);
        }
        let slot = self.quarantine_slot(shard)?;
        self.io.write(&slot, &damaged)?;
        Ok(damaged.len() as u64)
    }

    /// Moves a wholly-unreadable shard file into `quarantine/`.
    fn quarantine_file(&self, shard: usize, path: &Path) -> stdio::Result<()> {
        let slot = self.quarantine_slot(shard)?;
        self.io.rename(path, &slot)
    }

    /// Aggregate occupancy statistics (reads every shard file).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from reading shard files.
    pub fn stats(&self) -> stdio::Result<StoreStats> {
        let mut stats = StoreStats::default();
        for shard in 0..SHARDS {
            let path = shard_path(&self.dir, shard);
            let Some(bytes) = self.read_shard_bytes(&path)? else {
                continue;
            };
            stats.file_bytes += bytes.len() as u64;
            let Ok(scan) = scan_shard(&bytes) else {
                continue;
            };
            if scan.fingerprint == self.fingerprint {
                stats.shards += 1;
                stats.entries += scan.entries.len() as u64;
                stats.payload_bytes += scan.entries.values().map(|p| p.len() as u64).sum::<u64>();
                stats.largest_shard_entries =
                    stats.largest_shard_entries.max(scan.entries.len() as u64);
            } else {
                stats.stale_shards += 1;
                stats.stale_entries += scan.entries.len() as u64;
            }
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

    fn key(shard: u8, low: u64) -> u128 {
        (u128::from(shard) << 120) | u128::from(low)
    }

    #[test]
    fn round_trips_across_shards_and_reopens() {
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
    fn entries_land_in_the_shard_their_top_byte_names() {
        let dir = tmp_dir("shards");
        let store = Store::open(&dir, 1).unwrap();
        store
            .put_batch(&[
                (key(0x00, 1), vec![1]),
                (key(0xab, 2), vec![2]),
                (key(0xff, 3), vec![3]),
            ])
            .unwrap();
        for shard in [0x00, 0xab, 0xff] {
            assert!(shard_path(&dir, shard).exists(), "shard {shard:02x}");
        }
        let shard_files = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .ends_with(".bin")
            })
            .count();
        assert_eq!(shard_files, 3, "only touched shards get files");
        let stats = store.stats().unwrap();
        assert_eq!(stats.shards, 3);
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.largest_shard_entries, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrites_are_merges_not_replacements() {
        let dir = tmp_dir("merge-write");
        let a = Store::open(&dir, 1).unwrap();
        a.put_batch(&[(key(5, 1), vec![1])]).unwrap();
        // A second handle (fresh memo, same dir) adds a different entry to the
        // same shard; the first entry must survive.
        let b = Store::open(&dir, 1).unwrap();
        let put = b.put_batch(&[(key(5, 2), vec![2])]).unwrap();
        assert_eq!(put.inserted, 1);
        let c = Store::open(&dir, 1).unwrap();
        assert_eq!(c.get(key(5, 1)), Some(vec![1]));
        assert_eq!(c.get(key(5, 2)), Some(vec![2]));
        // Re-putting identical content does not grow anything.
        let put = c.put_batch(&[(key(5, 1), vec![1])]).unwrap();
        assert_eq!(put.inserted, 0);
        assert_eq!(put.updated, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_fingerprints_are_invisible_and_replaced() {
        let dir = tmp_dir("fingerprint");
        let old = Store::open(&dir, 1).unwrap();
        old.put_batch(&[(key(7, 1), vec![1]), (key(8, 2), vec![2])])
            .unwrap();
        let new = Store::open(&dir, 2).unwrap();
        assert!(new.get(key(7, 1)).is_none(), "stale entries never hit");
        assert!(new.entries().unwrap().is_empty());
        // Writing shard 7 under the new fingerprint discards the stale file's
        // contents; shard 8 stays stale until gc.
        let put = new.put_batch(&[(key(7, 3), vec![3])]).unwrap();
        assert_eq!(put.discarded_stale, 1);
        let stats = new.stats().unwrap();
        assert_eq!((stats.shards, stats.entries), (1, 1));
        assert_eq!((stats.stale_shards, stats.stale_entries), (1, 1));
        let gc = new.gc(2).unwrap();
        assert_eq!(gc.kept_shards, 1);
        assert_eq!(gc.removed_shards, 1);
        assert_eq!(gc.removed_entries, 1);
        assert!(new.get(key(8, 2)).is_none());
        assert_eq!(new.stats().unwrap().stale_shards, 0);
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
    fn verify_flags_corruption_and_misplaced_keys() {
        let dir = tmp_dir("verify");
        let store = Store::open(&dir, 1).unwrap();
        store
            .put_batch(&[(key(1, 1), vec![1]), (key(2, 2), vec![2])])
            .unwrap();
        let report = store.verify().unwrap();
        assert!(report.is_ok(), "{report}");
        assert_eq!((report.shards, report.entries), (2, 2));
        // Truncate one shard: verify must flag it at entry granularity.
        let victim = shard_path(&dir, 1);
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() - 1]).unwrap();
        let report = store.verify().unwrap();
        assert!(!report.is_ok());
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.corrupt_entries, 1);
        assert!(report.to_string().contains("error"), "{report}");
        // A key stored in the wrong shard is also flagged.
        let mut wrong = HashMap::new();
        wrong.insert(key(9, 9), vec![9]);
        fs::write(shard_path(&dir, 2), serialize_shard(1, &wrong)).unwrap();
        let report = store.verify().unwrap();
        assert!(report
            .errors
            .iter()
            .any(|e| e.contains("belongs in shard 09")));
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
        let path = shard_path(&dir, 3);
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
        store.put_batch(&[(key(5, 1), vec![42])]).unwrap();
        // Corrupt two entries of shard 4 and make shard 6 header-unreadable.
        let path = shard_path(&dir, 4);
        let mut bytes = fs::read(&path).unwrap();
        bytes[24 + 24 + 1] ^= 0x01; // entry 0 payload
        bytes[24 + 29 * 3 + 24 + 2] ^= 0x01; // entry 3 payload
        fs::write(&path, bytes).unwrap();
        fs::write(shard_path(&dir, 6), b"not a shard at all").unwrap();

        let fresh = Store::open(&dir, 1).unwrap();
        let report = fresh.repair().unwrap();
        assert_eq!(report.scanned_shards, 3);
        assert_eq!(report.clean_shards, 1);
        assert_eq!(report.repaired_shards, 1);
        assert_eq!(report.recovered_entries, 8);
        assert_eq!(report.quarantined_entries, 2);
        assert_eq!(report.quarantined_files, 1);
        assert!(report.quarantined_bytes > 0);
        assert!(!report.is_clean());
        assert!(report.to_string().contains("2 quarantined"));

        // Post-repair: verify is clean, the survivors read back, the damaged
        // bytes are preserved under quarantine/.
        let after = Store::open(&dir, 1).unwrap();
        let verify = after.verify().unwrap();
        assert!(verify.is_ok(), "{verify}");
        assert_eq!(verify.corrupt_entries, 0);
        assert_eq!(after.entries().unwrap().len(), 9);
        assert!(after.get(key(4, 0)).is_none());
        assert!(after.get(key(4, 3)).is_none());
        assert_eq!(after.get(key(4, 5)), Some(vec![5u8; 5]));
        assert!(dir.join("quarantine").join("shard-04.bad").exists());
        assert!(dir.join("quarantine").join("shard-06.bad").exists());
        // A second repair pass finds nothing to do.
        assert!(after.repair().unwrap().is_clean());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A version-1 shard: the current layout with the version field set to 1
    /// (its version-1 entries lacked the CRC, but the header alone decides).
    fn version_1_shard(fingerprint: u64, entries: &ShardEntries) -> Vec<u8> {
        let mut bytes = serialize_shard(fingerprint, entries);
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
        let path = shard_path(&dir, 2);
        fs::write(&path, version_1_shard(1, &entries)).unwrap();
        let store = Store::open(&dir, 1).unwrap();
        assert_eq!(store.get(key(2, 1)), None, "never adopted");
        let verify = store.verify().unwrap();
        assert!(!verify.is_ok());
        assert_eq!(verify.shards, 0);
        assert!(verify.errors[0].contains("version 1"), "{verify}");
        let gc = store.gc(1).unwrap();
        assert_eq!((gc.kept_shards, gc.removed_shards), (0, 1));
        assert!(!path.exists(), "gc reclaims it");

        fs::write(&path, version_1_shard(1, &entries)).unwrap();
        let report = store.repair().unwrap();
        assert_eq!(report.quarantined_files, 1, "quarantined whole");
        assert_eq!((report.repaired_shards, report.recovered_entries), (0, 0));
        assert!(!path.exists());
        assert!(dir.join("quarantine").join("shard-02.bad").exists());
        assert!(store.verify().unwrap().is_ok());

        // A writer quarantines it too, and rewrites the shard without it.
        fs::write(&path, version_1_shard(1, &entries)).unwrap();
        store.put_batch(&[(key(2, 9), vec![9])]).unwrap();
        assert!(dir.join("quarantine").join("shard-02.1.bad").exists());
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
        let path = shard_path(&dir, 7);
        let mut bytes = fs::read(&path).unwrap();
        bytes[24 + 24] ^= 0xff; // corrupt entry 0's payload
        fs::write(&path, bytes).unwrap();
        let fresh = Store::open(&dir, 1).unwrap();
        fresh.put_batch(&[(key(7, 99), vec![9])]).unwrap();
        // Intact survivors + the new entry; damage quarantined, file healed.
        let entries = fresh.entries().unwrap();
        assert_eq!(entries.len(), 6, "5 survivors + 1 new");
        assert!(fresh.verify().unwrap().is_ok());
        assert!(dir.join("quarantine").join("shard-07.bad").exists());
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
                    // Every thread hits the same few shards to force lock
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
            "read–merge–write under the shard lock must not lose entries"
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
        let path = shard_path(&dir, 0);
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
        // the shard before or after a repairer quarantined it, every other
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
        let path = dir.join("shard-00.tmp.1");
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
        fs::write(dir.join("shard-02.tmp.999"), b"half a write").unwrap();
        fs::write(dir.join("shard-03.tmp.998"), b"in flight").unwrap();
        fs::write(dir.join("unrelated.txt"), b"left alone").unwrap();
        age(&dir.join("shard-02.tmp.999"));
        age(&dir.join("shard-01.lock"));
        let report = store.gc(1).unwrap();
        assert_eq!(report.removed_strays, 1, "only the abandoned temp goes");
        assert_eq!(report.kept_shards, 1);
        assert!(
            dir.join("shard-03.tmp.998").exists(),
            "a fresh temp may belong to a live writer and must survive gc"
        );
        assert!(
            dir.join("shard-01.lock").exists(),
            "lock files are never deleted, however old: a held OS lock lives \
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
        fs::write(dir.join("shard-05.lock"), b"").unwrap();
        store.put_batch(&[(key(5, 1), vec![1])]).unwrap();
        assert_eq!(store.get(key(5, 1)), Some(vec![1]));
        // Acquisition is a real OS lock: while one handle holds it, a second
        // try_lock on the same file fails; after release it succeeds.
        let held = store.lock_shard(6).unwrap();
        let probe = fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join("shard-06.lock"))
            .unwrap();
        assert!(
            probe.try_lock().is_err(),
            "the shard lock is held, so a contender must not acquire"
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
        fs::remove_dir_all(&dir).unwrap();
    }
}

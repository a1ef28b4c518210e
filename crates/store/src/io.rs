//! The store's I/O seam: every filesystem touch goes through [`StoreIo`].
//!
//! Production code uses [`RealIo`] (a zero-cost veneer over `std::fs`); tests
//! swap in [`crate::fault::FaultPlan`] to inject crashes, torn writes, bit
//! flips, and resource-exhaustion errors at named points — deterministically,
//! so every recovery path is provable by property test rather than waiting
//! for a real disk to misbehave.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::SystemTime;

use sdv_obs::Obs;

/// Filesystem operations the store performs, as an injectable trait.
///
/// The default implementation is [`RealIo`].  Implementations must be
/// thread-safe: the store shares one handle across all writer threads.
/// The store itself calls only `read`, `write`, `rename`, `create_dir_all`
/// and `lock`; `remove_file`, `read_dir`, `file_len` and `modified` have no
/// caller in this crate and stay only because implementations outside it
/// define them.
pub trait StoreIo: Send + Sync {
    /// Reads a whole file (`std::fs::read`).
    ///
    /// # Errors
    /// Propagates the underlying I/O failure.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Writes a whole file, creating or truncating it (`std::fs::write`).
    ///
    /// # Errors
    /// Propagates the underlying I/O failure.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Atomically renames `from` onto `to` (`std::fs::rename`).
    ///
    /// # Errors
    /// Propagates the underlying I/O failure.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Deletes a file (`std::fs::remove_file`).
    ///
    /// # Errors
    /// Propagates the underlying I/O failure.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Creates a directory and all parents (`std::fs::create_dir_all`).
    ///
    /// # Errors
    /// Propagates the underlying I/O failure.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Opens (creating if necessary) `path` and takes the OS advisory lock on
    /// it, blocking until the current holder releases.  The lock is released
    /// when the returned handle drops — including when the holder crashes,
    /// which is the property the whole locking scheme rests on.
    ///
    /// # Errors
    /// Propagates the underlying open or lock failure.
    fn lock(&self, path: &Path) -> io::Result<fs::File>;

    /// Lists the entries of a directory (paths, any order).
    ///
    /// # Errors
    /// Propagates the underlying I/O failure.
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;

    /// A file's size in bytes.
    ///
    /// # Errors
    /// Propagates the underlying metadata failure.
    fn file_len(&self, path: &Path) -> io::Result<u64>;

    /// A file's last-modified time.
    ///
    /// # Errors
    /// Propagates the underlying metadata failure.
    fn modified(&self, path: &Path) -> io::Result<SystemTime>;
}

/// The production [`StoreIo`]: plain `std::fs`, no interposition.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

impl StoreIo for RealIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    fn lock(&self, path: &Path) -> io::Result<fs::File> {
        let file = fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        // Blocks until the current holder releases (or its process dies).
        file.lock()?;
        Ok(file)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        fs::read_dir(path)?
            .map(|item| item.map(|e| e.path()))
            .collect()
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        fs::metadata(path).map(|m| m.len())
    }

    fn modified(&self, path: &Path) -> io::Result<SystemTime> {
        fs::metadata(path)?.modified()
    }
}

/// Bucket bounds (µs) for the lock-wait histogram: 100µs, 1ms, 10ms, 100ms,
/// 1s.  An uncontended advisory lock lands in the first bucket; anything in
/// the last two means writers are genuinely serializing on the store.
pub const LOCK_WAIT_BOUNDS_MICROS: [f64; 5] = [100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0];

/// A counting decorator over any [`StoreIo`]: every call increments
/// `store.io.<op>.calls` (and `.errors` on failure, except a read of a
/// missing file, which the store treats as empty) in the attached
/// [`Obs`] registry, and [`StoreIo::lock`] additionally records how long the
/// advisory lock blocked — a histogram plus, under tracing, a span per wait.
///
/// Pure observation: results and errors pass through untouched, so stacking
/// this over a [`crate::fault::FaultPlan`] observes the injected faults too.
pub struct ObservedIo {
    inner: Arc<dyn StoreIo>,
    obs: Arc<Obs>,
}

impl ObservedIo {
    /// Wraps `inner`, reporting into `obs`.
    #[must_use]
    pub fn new(inner: Arc<dyn StoreIo>, obs: Arc<Obs>) -> Self {
        ObservedIo { inner, obs }
    }

    fn count<T>(&self, op: &str, result: io::Result<T>) -> io::Result<T> {
        self.obs.counter(&format!("store.io.{op}.calls"), 1);
        if result.is_err() {
            self.obs.counter(&format!("store.io.{op}.errors"), 1);
        }
        result
    }
}

impl StoreIo for ObservedIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let result = self.inner.read(path);
        if matches!(&result, Err(e) if e.kind() == io::ErrorKind::NotFound) {
            // A missing data file reads as an empty store, not a failure.
            self.obs.counter("store.io.read.calls", 1);
            return result;
        }
        self.count("read", result)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.obs.counter("store.io.write.bytes", bytes.len() as u64);
        self.count("write", self.inner.write(path, bytes))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.count("rename", self.inner.rename(from, to))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.count("remove_file", self.inner.remove_file(path))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.count("create_dir_all", self.inner.create_dir_all(path))
    }

    fn lock(&self, path: &Path) -> io::Result<fs::File> {
        let t0 = self.obs.now_micros();
        let result = self.inner.lock(path);
        let waited = self.obs.now_micros().saturating_sub(t0);
        self.obs.observe(
            "store.io.lock_wait_micros",
            &LOCK_WAIT_BOUNDS_MICROS,
            waited as f64,
        );
        self.obs.span(
            "lock wait",
            "store",
            t0,
            &[("path", path.display().to_string())],
        );
        self.count("lock", result)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.count("read_dir", self.inner.read_dir(path))
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.count("file_len", self.inner.file_len(path))
    }

    fn modified(&self, path: &Path) -> io::Result<SystemTime> {
        self.count("modified", self.inner.modified(path))
    }
}

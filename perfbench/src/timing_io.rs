//! A timing [`StoreIo`] decorator: times and counts the store's reads,
//! writes, renames and lock acquisitions, and logs each as a span, passing
//! every call through to the wrapped implementation unchanged.

use sdv_store::StoreIo;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime};

/// Call count, bytes moved and host time of one operation kind.
#[derive(Debug, Default)]
pub struct OpTally {
    calls: AtomicU64,
    bytes: AtomicU64,
    nanos: AtomicU64,
}

/// A point-in-time copy of an [`OpTally`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpTotals {
    pub calls: u64,
    pub bytes: u64,
    pub secs: f64,
}

impl OpTally {
    fn add_call(&self, start: Instant, end: Instant) {
        let nanos = u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    fn add_bytes(&self, n: usize) {
        self.bytes.fetch_add(n as u64, Ordering::Relaxed);
    }

    pub fn totals(&self) -> OpTotals {
        OpTotals {
            calls: self.calls.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            secs: self.nanos.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }
}

/// The decorator.  The caller keeps an `Arc` of it to read the tallies.
pub struct TimingIo {
    inner: Arc<dyn StoreIo>,
    pub read: OpTally,
    pub write: OpTally,
    pub rename: OpTally,
    pub lock: OpTally,
    /// Every timed call as `(span name, start, end)`, until taken.
    log: Mutex<Vec<(&'static str, Instant, Instant)>>,
}

impl TimingIo {
    pub fn new(inner: Arc<dyn StoreIo>) -> Self {
        TimingIo {
            inner,
            read: OpTally::default(),
            write: OpTally::default(),
            rename: OpTally::default(),
            lock: OpTally::default(),
            log: Mutex::default(),
        }
    }

    /// Takes the calls logged so far, for the caller's trace.
    pub fn take_log(&self) -> Vec<(&'static str, Instant, Instant)> {
        std::mem::take(&mut *self.log.lock().expect("call log lock"))
    }

    fn time<T>(
        &self,
        tally: &OpTally,
        span: &'static str,
        f: impl FnOnce() -> io::Result<T>,
    ) -> io::Result<T> {
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        tally.add_call(start, end);
        self.log
            .lock()
            .expect("call log lock")
            .push((span, start, end));
        result
    }
}

impl StoreIo for TimingIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let bytes = self.time(&self.read, "store.read", || self.inner.read(path))?;
        self.read.add_bytes(bytes.len());
        Ok(bytes)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.write.add_bytes(bytes.len());
        self.time(&self.write, "store.write", || self.inner.write(path, bytes))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.time(&self.rename, "store.rename", || self.inner.rename(from, to))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn lock(&self, path: &Path) -> io::Result<fs::File> {
        self.time(&self.lock, "store.lock", || self.inner.lock(path))
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.read_dir(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.inner.file_len(path)
    }

    fn modified(&self, path: &Path) -> io::Result<SystemTime> {
        self.inner.modified(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdv_store::RealIo;

    #[test]
    fn bytes_pass_through_unchanged() {
        let dir = std::env::current_dir()
            .unwrap()
            .join(format!(".perfbench-tmp/io-test-{}", std::process::id()));
        let io = TimingIo::new(Arc::new(RealIo));
        io.create_dir_all(&dir).unwrap();
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let (tmp, path) = (dir.join("a.tmp"), dir.join("a"));
        io.write(&tmp, &payload).unwrap();
        io.rename(&tmp, &path).unwrap();
        let _guard = io.lock(&dir.join("a.lock")).unwrap();
        assert_eq!(io.read(&path).unwrap(), payload);
        assert_eq!(
            fs::read(&path).unwrap(),
            payload,
            "on-disk bytes are the caller's"
        );
        assert_eq!(io.file_len(&path).unwrap(), payload.len() as u64);
        assert!(
            io.read(&dir.join("missing")).is_err(),
            "errors pass through"
        );
        let (r, w) = (io.read.totals(), io.write.totals());
        assert_eq!((r.calls, r.bytes), (2, payload.len() as u64));
        assert_eq!((w.calls, w.bytes), (1, payload.len() as u64));
        assert_eq!(io.rename.totals().calls, 1);
        assert_eq!(io.lock.totals().calls, 1);
        let spans: Vec<&str> = io.take_log().iter().map(|c| c.0).collect();
        assert_eq!(
            spans,
            [
                "store.write",
                "store.rename",
                "store.lock",
                "store.read",
                "store.read"
            ]
        );
        assert!(io.take_log().is_empty(), "taking the log empties it");
        fs::remove_dir_all(&dir).unwrap();
        let _ = fs::remove_dir(dir.parent().unwrap());
    }
}

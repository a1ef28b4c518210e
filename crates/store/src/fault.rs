//! Deterministic fault injection for the store's I/O layer.
//!
//! [`FaultPlan`] implements [`StoreIo`] by delegating to a real filesystem
//! while injecting failures at *named points* from an explicit or seeded
//! schedule: process crashes after a temp write, before a rename, or while
//! holding the writer lock; torn (short) writes; single-bit flips; and
//! transient `EIO` / `ENOSPC` errors.  Everything is counted and triggered
//! by operation index, so a test that fails replays identically.
//!
//! Crash faults are sticky: once one fires, the plan is *dead* and every
//! subsequent operation fails — the test then reopens the directory with a
//! real-I/O [`crate::Store`] to model a process restart, exactly like a real
//! crash-recovery cycle (the OS releases advisory locks with the process;
//! here, dropping the lock file handle does the same).

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::SystemTime;

use crate::io::{RealIo, StoreIo};

/// The I/O operations a fault can attach to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// Whole-file reads (data-file loads, scans).
    Read,
    /// Whole-file writes (temp files on the atomic-replace path).
    Write,
    /// The atomic `rename` publishing a temp file as the live data file.
    Rename,
    /// Writer-lock acquisition.
    Lock,
}

/// What happens when an injection fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The process dies *before* the operation takes effect (a rename that
    /// never happens, a lock never acquired).
    Crash,
    /// The operation completes, then the process dies (the named
    /// "after temp write" point).
    CrashAfter,
    /// Only the first `keep` bytes land, then the process dies (a torn /
    /// short write).  Meaningful for [`IoOp::Write`].
    Torn {
        /// Bytes that make it to disk before the crash.
        keep: usize,
    },
    /// One bit (index modulo the payload's bit length) is flipped and the
    /// write *succeeds* — silent media corruption.
    BitFlip {
        /// Which bit of the written buffer to flip.
        bit: u64,
    },
    /// The operation fails with `EIO`; the process lives (transient error).
    Eio,
    /// The operation fails with `ENOSPC`; the process lives (disk full).
    Enospc,
}

/// A [`StoreIo`] that injects faults from a deterministic schedule.
///
/// Build one with the named-point constructors
/// ([`FaultPlan::crash_after_temp_write`], …), compose arbitrary schedules
/// with [`FaultPlan::with_fault`], or derive a pseudo-random one from a seed
/// with [`FaultPlan::seeded`].
pub struct FaultPlan {
    inner: RealIo,
    /// `(op, nth occurrence)` → fault to fire there (0-based, counted while
    /// the plan is alive).
    schedule: Mutex<HashMap<(IoOp, u64), Fault>>,
    counters: Mutex<HashMap<IoOp, u64>>,
    dead: AtomicBool,
    /// When set, every mutating operation fails `PermissionDenied` — an
    /// unwritable store directory.
    unwritable: bool,
    faults_fired: AtomicU64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultPlan {
    /// A plan with no faults scheduled (behaves exactly like [`RealIo`]).
    #[must_use]
    pub fn new() -> Self {
        FaultPlan {
            inner: RealIo,
            schedule: Mutex::new(HashMap::new()),
            counters: Mutex::new(HashMap::new()),
            dead: AtomicBool::new(false),
            unwritable: false,
            faults_fired: AtomicU64::new(0),
        }
    }

    /// Schedules `fault` at the `nth` (0-based) occurrence of `op`.
    #[must_use]
    pub fn with_fault(self, op: IoOp, nth: u64, fault: Fault) -> Self {
        self.schedule
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert((op, nth), fault);
        self
    }

    /// Named point: the temp file lands, then the process dies before the
    /// rename.
    #[must_use]
    pub fn crash_after_temp_write(nth: u64) -> Self {
        Self::new().with_fault(IoOp::Write, nth, Fault::CrashAfter)
    }

    /// Named point: the process dies with the temp file written but the
    /// rename never issued.
    #[must_use]
    pub fn crash_before_rename(nth: u64) -> Self {
        Self::new().with_fault(IoOp::Rename, nth, Fault::Crash)
    }

    /// Named point: the process dies while holding the writer lock
    /// (the OS — here, the dropped handle — releases it).
    #[must_use]
    pub fn crash_mid_lock(nth: u64) -> Self {
        Self::new().with_fault(IoOp::Lock, nth, Fault::Crash)
    }

    /// Named point: the `nth` write is torn after `keep` bytes.
    #[must_use]
    pub fn torn_write(nth: u64, keep: usize) -> Self {
        Self::new().with_fault(IoOp::Write, nth, Fault::Torn { keep })
    }

    /// An always-unwritable store directory: every mutating operation fails
    /// with `PermissionDenied`; reads pass through.
    #[must_use]
    pub fn unwritable() -> Self {
        FaultPlan {
            unwritable: true,
            ..Self::new()
        }
    }

    /// Derives a small schedule (1–3 faults over the first `ops` operations)
    /// from `seed` via SplitMix64 — the "seeded schedule" entry point: the
    /// same seed always yields the same faults at the same points.
    #[must_use]
    pub fn seeded(seed: u64, ops: u64) -> Self {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut plan = Self::new();
        let n_faults = 1 + next() % 3;
        for _ in 0..n_faults {
            let op = match next() % 4 {
                0 => IoOp::Read,
                1 => IoOp::Write,
                2 => IoOp::Rename,
                _ => IoOp::Lock,
            };
            let nth = next() % ops.max(1);
            let fault = match next() % 6 {
                0 => Fault::Crash,
                1 => Fault::CrashAfter,
                2 => Fault::Torn {
                    keep: (next() % 64) as usize,
                },
                3 => Fault::BitFlip { bit: next() },
                4 => Fault::Eio,
                _ => Fault::Enospc,
            };
            plan = plan.with_fault(op, nth, fault);
        }
        plan
    }

    /// Whether a crash fault has fired (the simulated process is dead).
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// How many scheduled faults have fired so far.
    #[must_use]
    pub fn faults_fired(&self) -> u64 {
        self.faults_fired.load(Ordering::SeqCst)
    }

    /// The fault due at this call of `op`, if any (advances the op counter).
    fn due(&self, op: IoOp) -> Option<Fault> {
        let nth = {
            let mut counters = self
                .counters
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let slot = counters.entry(op).or_insert(0);
            let nth = *slot;
            *slot += 1;
            nth
        };
        let fault = self
            .schedule
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(&(op, nth));
        if fault.is_some() {
            self.faults_fired.fetch_add(1, Ordering::SeqCst);
        }
        fault
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.is_dead() {
            return Err(dead_err());
        }
        Ok(())
    }

    fn check_writable(&self) -> io::Result<()> {
        if self.unwritable {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "simulated unwritable store directory",
            ));
        }
        Ok(())
    }

    fn die(&self) -> io::Error {
        self.dead.store(true, Ordering::SeqCst);
        dead_err()
    }
}

fn dead_err() -> io::Error {
    io::Error::other("simulated crash: process is dead")
}

fn transient(fault: Fault) -> io::Error {
    match fault {
        Fault::Eio => io::Error::other("simulated EIO"),
        Fault::Enospc => io::Error::new(io::ErrorKind::StorageFull, "simulated ENOSPC"),
        _ => unreachable!("only transient faults"),
    }
}

impl StoreIo for FaultPlan {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.check_alive()?;
        match self.due(IoOp::Read) {
            None | Some(Fault::Torn { .. } | Fault::BitFlip { .. }) => self.inner.read(path),
            Some(Fault::Crash | Fault::CrashAfter) => Err(self.die()),
            Some(f @ (Fault::Eio | Fault::Enospc)) => Err(transient(f)),
        }
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.check_alive()?;
        self.check_writable()?;
        match self.due(IoOp::Write) {
            None => self.inner.write(path, bytes),
            Some(Fault::Crash) => Err(self.die()),
            Some(Fault::CrashAfter) => {
                self.inner.write(path, bytes)?;
                Err(self.die())
            }
            Some(Fault::Torn { keep }) => {
                self.inner.write(path, &bytes[..keep.min(bytes.len())])?;
                Err(self.die())
            }
            Some(Fault::BitFlip { bit }) => {
                let mut corrupted = bytes.to_vec();
                if !corrupted.is_empty() {
                    let bit = bit % (corrupted.len() as u64 * 8);
                    corrupted[(bit / 8) as usize] ^= 1 << (bit % 8);
                }
                self.inner.write(path, &corrupted)
            }
            Some(f @ (Fault::Eio | Fault::Enospc)) => Err(transient(f)),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.check_alive()?;
        self.check_writable()?;
        match self.due(IoOp::Rename) {
            None | Some(Fault::Torn { .. } | Fault::BitFlip { .. }) => self.inner.rename(from, to),
            Some(Fault::Crash) => Err(self.die()),
            Some(Fault::CrashAfter) => {
                self.inner.rename(from, to)?;
                Err(self.die())
            }
            Some(f @ (Fault::Eio | Fault::Enospc)) => Err(transient(f)),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.check_alive()?;
        self.check_writable()?;
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.check_alive()?;
        // `mkdir -p` on an existing directory touches nothing: it succeeds
        // even on a read-only filesystem, so an unwritable plan still opens
        // an existing store (the graceful-degradation scenario).
        if self.inner.file_len(path).is_ok() {
            return Ok(());
        }
        self.check_writable()?;
        self.inner.create_dir_all(path)
    }

    fn lock(&self, path: &Path) -> io::Result<fs::File> {
        self.check_alive()?;
        self.check_writable()?;
        match self.due(IoOp::Lock) {
            None | Some(Fault::Torn { .. } | Fault::BitFlip { .. }) => self.inner.lock(path),
            Some(Fault::Crash | Fault::CrashAfter) => {
                // Model dying while holding the lock: acquire it for real,
                // then drop the handle (the kernel releases a crashed
                // process's advisory locks the same way).
                let held = self.inner.lock(path)?;
                drop(held);
                Err(self.die())
            }
            Some(f @ (Fault::Eio | Fault::Enospc)) => Err(transient(f)),
        }
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.check_alive()?;
        self.inner.read_dir(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.check_alive()?;
        self.inner.file_len(path)
    }

    fn modified(&self, path: &Path) -> io::Result<SystemTime> {
        self.check_alive()?;
        self.inner.modified(path)
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("dead", &self.is_dead())
            .field("unwritable", &self.unwritable)
            .field("faults_fired", &self.faults_fired())
            .finish_non_exhaustive()
    }
}

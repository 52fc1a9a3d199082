//! A [`StoreIo`] that forwards to the real filesystem and counts and times
//! every call, so the traced `gateway` run can split store cost out of the
//! server's frame latency without touching the store's code.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tvq_store::{RealIo, SharedIo, StoreIo};

/// Counters of a [`TimingIo`]. All `Relaxed`: they are statistics read
/// after the measured section, publishing no other data.
#[derive(Debug, Default)]
pub struct IoCounters {
    /// `fsync` plus `fsync_dir` calls.
    pub fsyncs: AtomicU64,
    /// Nanoseconds inside `fsync`/`fsync_dir`.
    pub fsync_ns: AtomicU64,
    /// Bytes appended (the write-ahead log).
    pub append_bytes: AtomicU64,
    /// Bytes written as whole files (snapshots, lock files).
    pub file_bytes: AtomicU64,
    /// Nanoseconds inside any call.
    pub io_ns: AtomicU64,
}

/// A point-in-time copy of [`IoCounters`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoSnapshot {
    /// See [`IoCounters::fsyncs`].
    pub fsyncs: u64,
    /// See [`IoCounters::fsync_ns`].
    pub fsync_ns: u64,
    /// See [`IoCounters::append_bytes`].
    pub append_bytes: u64,
    /// See [`IoCounters::file_bytes`].
    pub file_bytes: u64,
    /// See [`IoCounters::io_ns`].
    pub io_ns: u64,
}

impl IoSnapshot {
    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            fsyncs: self.fsyncs - earlier.fsyncs,
            fsync_ns: self.fsync_ns - earlier.fsync_ns,
            append_bytes: self.append_bytes - earlier.append_bytes,
            file_bytes: self.file_bytes - earlier.file_bytes,
            io_ns: self.io_ns - earlier.io_ns,
        }
    }

    /// Field-wise sum.
    pub fn plus(&self, other: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            fsyncs: self.fsyncs + other.fsyncs,
            fsync_ns: self.fsync_ns + other.fsync_ns,
            append_bytes: self.append_bytes + other.append_bytes,
            file_bytes: self.file_bytes + other.file_bytes,
            io_ns: self.io_ns + other.io_ns,
        }
    }
}

/// The timing wrapper around [`RealIo`].
#[derive(Debug, Default)]
pub struct TimingIo {
    counters: Arc<IoCounters>,
}

impl TimingIo {
    /// A shared handle for the store plus the counters it feeds.
    pub fn shared() -> (SharedIo, Arc<IoCounters>) {
        let io = TimingIo::default();
        let counters = Arc::clone(&io.counters);
        (Arc::new(io), counters)
    }

    fn timed<T>(&self, op: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
        let t0 = Instant::now();
        let result = op();
        self.counters
            .io_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }

    fn timed_fsync(&self, op: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
        let t0 = Instant::now();
        let result = op();
        let ns = t0.elapsed().as_nanos() as u64;
        self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.counters.fsync_ns.fetch_add(ns, Ordering::Relaxed);
        self.counters.io_ns.fetch_add(ns, Ordering::Relaxed);
        result
    }
}

impl IoCounters {
    /// Reads every counter.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            fsync_ns: self.fsync_ns.load(Ordering::Relaxed),
            append_bytes: self.append_bytes.load(Ordering::Relaxed),
            file_bytes: self.file_bytes.load(Ordering::Relaxed),
            io_ns: self.io_ns.load(Ordering::Relaxed),
        }
    }
}

impl StoreIo for TimingIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.timed(|| RealIo.create_dir_all(dir))
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.timed(|| RealIo.list(dir))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.timed(|| RealIo.read(path))
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        self.timed(|| RealIo.read_range(path, offset, len))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.counters
            .append_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.timed(|| RealIo.append(path, bytes))
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.counters
            .file_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.timed(|| RealIo.write_file(path, bytes))
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.timed(|| RealIo.truncate(path, len))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.timed(|| RealIo.rename(from, to))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.timed(|| RealIo.remove(path))
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        self.timed_fsync(|| RealIo.fsync(path))
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        self.timed_fsync(|| RealIo.fsync_dir(dir))
    }

    fn exists(&self, path: &Path) -> bool {
        RealIo.exists(path)
    }
}

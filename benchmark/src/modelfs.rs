//! `ModelFs`: the modelled storage device under `wire-put-sync`.
//!
//! The sandbox's real `fsync` moved between 590 and 890 µs from run to
//! run, so a workload on it measured the sandbox, not the program. The
//! model keeps what matters to the write-ahead log — bytes are volatile
//! until `sync`, and `sync` has a cost the committer waits for — and
//! makes that cost a constant: `sync` busy-waits a fixed time on the
//! monotonic clock. Storage is the durable crate's own fault-free
//! in-memory `FaultFs`, so a crash still throws unsynced bytes away.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use polytm_durable::{FaultFs, Storage};

use crate::spans::Recorder;

/// What one `sync` costs on the modelled device.
pub const SYNC_COST: Duration = Duration::from_micros(200);

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceCounters {
    pub appends: u64,
    pub bytes: u64,
    pub syncs: u64,
    /// Nanoseconds spent inside `sync`.
    pub sync_ns: u64,
}

impl DeviceCounters {
    pub fn since(&self, earlier: &DeviceCounters) -> DeviceCounters {
        DeviceCounters {
            appends: self.appends - earlier.appends,
            bytes: self.bytes - earlier.bytes,
            syncs: self.syncs - earlier.syncs,
            sync_ns: self.sync_ns - earlier.sync_ns,
        }
    }
}

pub struct ModelFs {
    inner: FaultFs,
    appends: AtomicU64,
    bytes: AtomicU64,
    syncs: AtomicU64,
    sync_ns: AtomicU64,
    /// Set only in the traced run: every `sync` becomes a span.
    recorder: Option<Arc<Recorder>>,
}

impl ModelFs {
    pub fn new(seed: u64, recorder: Option<Arc<Recorder>>) -> Self {
        ModelFs {
            inner: FaultFs::new(seed),
            appends: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            sync_ns: AtomicU64::new(0),
            recorder,
        }
    }

    pub fn counters(&self) -> DeviceCounters {
        DeviceCounters {
            appends: self.appends.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            sync_ns: self.sync_ns.load(Ordering::Relaxed),
        }
    }

    /// Power loss: every synced byte survives, and of the unsynced tail
    /// at most a prefix (see `FaultFs::crash`).
    pub fn crash(&self) {
        self.inner.crash();
    }

    /// Bytes of `name` that a crash is guaranteed to keep.
    pub fn durable_len(&self, name: &str) -> usize {
        self.inner.durable_len(name)
    }

    fn timed_sync(&self, name: &str) -> io::Result<()> {
        let start = Instant::now();
        let result = self.inner.sync(name);
        while start.elapsed() < SYNC_COST {
            std::hint::spin_loop();
        }
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.sync_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }
}

impl Storage for ModelFs {
    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.append(name, bytes)
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        match &self.recorder {
            Some(rec) => rec.span("device.sync", 0, || self.timed_sync(name)),
            None => self.timed_sync(name),
        }
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }

    fn exists(&self, name: &str) -> io::Result<bool> {
        self.inner.exists(name)
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::median;
    use crate::spans::durations;

    #[test]
    fn sync_costs_the_modelled_time() {
        let rec = Arc::new(Recorder::new());
        let fs = ModelFs::new(1, Some(rec.clone()));
        for i in 0..41u8 {
            fs.append("f", &[i; 100]).unwrap();
            fs.sync("f").unwrap();
        }
        let p50_us = median(&durations(&rec.snapshot(), "device.sync")) / 1000.0;
        assert!((180.0..=220.0).contains(&p50_us), "sync p50 {p50_us} us");
        let c = fs.counters();
        assert_eq!((c.appends, c.bytes, c.syncs), (41, 4100, 41));
        assert!(c.sync_ns >= 41 * 200_000);
    }

    #[test]
    fn crash_keeps_exactly_the_synced_bytes() {
        let fs = ModelFs::new(2, None);
        fs.append("f", b"synced-").unwrap();
        fs.append("f", b"bytes").unwrap();
        fs.sync("f").unwrap();
        assert_eq!(fs.durable_len("f"), 12);
        // Everything was synced: the crash changes nothing.
        fs.crash();
        assert_eq!(fs.read("f").unwrap(), b"synced-bytes");

        // An unsynced tail is never fully trusted: the synced prefix
        // survives byte for byte, and whatever follows is shorter than
        // or equal to what was appended.
        for round in 0..32u8 {
            fs.append("f", &[round; 40]).unwrap();
            let durable = fs.durable_len("f");
            let before = fs.read("f").unwrap();
            fs.crash();
            let after = fs.read("f").unwrap();
            assert_eq!(after[..durable], before[..durable]);
            assert!(after.len() >= durable && after.len() <= before.len());
            fs.sync("f").unwrap();
        }
    }
}

//! `TimedStore`: the traced run's wrapper between the server's event
//! loop and the store it serves.
//!
//! Every call is timed, so the share of the server worker's wall time
//! spent below this boundary is exact. Point reads keep one span in
//! [`GET_SAMPLE`]; coalesced write batches keep every span, and the
//! device's `sync` spans nest under them. `scan`, `cas` and `txn` pass
//! straight through: no workload sends them. The untraced run serves
//! the store directly and never constructs this type.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use polytm_server::{BatchTag, ServerStore, StoreError, TxnOp, WriteReply, WriteRequest};

use crate::spans::Recorder;

/// One `get` span in this many is kept.
pub const GET_SAMPLE: u64 = 32;

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCounters {
    pub gets: u64,
    pub get_ns: u64,
    pub batches: u64,
    /// Write requests carried by those batches.
    pub batch_ops: u64,
    pub batch_ns: u64,
}

impl StoreCounters {
    pub fn busy_ns(&self) -> u64 {
        self.get_ns + self.batch_ns
    }

    pub fn since(&self, e: &StoreCounters) -> StoreCounters {
        StoreCounters {
            gets: self.gets - e.gets,
            get_ns: self.get_ns - e.get_ns,
            batches: self.batches - e.batches,
            batch_ops: self.batch_ops - e.batch_ops,
            batch_ns: self.batch_ns - e.batch_ns,
        }
    }
}

pub struct TimedStore {
    inner: Arc<dyn ServerStore>,
    rec: Arc<Recorder>,
    gets: AtomicU64,
    get_ns: AtomicU64,
    batches: AtomicU64,
    batch_ops: AtomicU64,
    batch_ns: AtomicU64,
}

impl TimedStore {
    pub fn new(inner: Arc<dyn ServerStore>, rec: Arc<Recorder>) -> Self {
        TimedStore {
            inner,
            rec,
            gets: AtomicU64::new(0),
            get_ns: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batch_ops: AtomicU64::new(0),
            batch_ns: AtomicU64::new(0),
        }
    }

    pub fn counters(&self) -> StoreCounters {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        StoreCounters {
            gets: load(&self.gets),
            get_ns: load(&self.get_ns),
            batches: load(&self.batches),
            batch_ops: load(&self.batch_ops),
            batch_ns: load(&self.batch_ns),
        }
    }
}

impl ServerStore for TimedStore {
    fn get(&self, key: u64) -> Option<Vec<u8>> {
        let start = self.rec.now_ns();
        let out = self.inner.get(key);
        let end = self.rec.now_ns();
        self.get_ns.fetch_add(end - start, Ordering::Relaxed);
        if self.gets.fetch_add(1, Ordering::Relaxed).is_multiple_of(GET_SAMPLE) {
            self.rec.leaf("kv.get", 0, start, end);
        }
        out
    }

    fn scan(&self, lo: u64, hi: u64, limit: usize) -> (Vec<(u64, Vec<u8>)>, bool) {
        self.inner.scan(lo, hi, limit)
    }

    fn cas(&self, key: u64, expected: Option<&[u8]>, new: &[u8]) -> Result<bool, StoreError> {
        self.inner.cas(key, expected, new)
    }

    fn commit_writes(
        &self,
        batch: &[WriteRequest],
        tag: BatchTag,
    ) -> Result<Vec<WriteReply>, StoreError> {
        // A batch is one connection's run of consecutive requests:
        // (connection, first sequence number) names it.
        let batch_id = (tag.conn << 32) | u64::from(tag.first_seq);
        let start = self.rec.now_ns();
        let out =
            self.rec.span("kv.commit_writes", batch_id, || self.inner.commit_writes(batch, tag));
        self.batch_ns.fetch_add(self.rec.now_ns() - start, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_ops.fetch_add(batch.len() as u64, Ordering::Relaxed);
        out
    }

    fn txn(&self, ops: &[TxnOp]) -> Result<Vec<Option<Vec<u8>>>, StoreError> {
        self.inner.txn(ops)
    }

    fn is_read_only(&self) -> bool {
        self.inner.is_read_only()
    }
}

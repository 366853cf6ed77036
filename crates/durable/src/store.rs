//! [`DurableKv`]: a [`KvStore`] whose writes survive crashes.
//!
//! ## Write path
//!
//! Every mutating operation runs as a *logged transaction*: a
//! [`DurableTxn`] mirrors each `put`/`delete` into a compact redo
//! record staged on the transaction descriptor, and the STM commit path
//! hands those bytes to the WAL ([`crate::wal::Wal`]) *while the
//! commit's location locks are held* — so the log's sequence order is
//! consistent with the store's per-key serialization, and any prefix of
//! the log replays to a state the store actually passed through.
//! [`DurableKv::txn_logged`] then waits for the log force that covers
//! the commit; a caller that serves several commits at once stages
//! each with [`DurableKv::txn_staged`] and waits once, on the last
//! ticket, with [`DurableKv::wait_durable`] — one fsync for all.
//!
//! ## Recovery
//!
//! `open` loads `snap.bin` (atomic-renamed checkpoint: record set at
//! cut `W`, first live segment), then reads live segments in order,
//! taking the longest CRC-valid, strictly-seq-monotone prefix and
//! folding every entry with `wv > W` into the checkpoint's record set
//! (a put inserts, a delete removes, in log order). The store is then
//! built from the folded set ([`KvStore::with_records`]): recovery
//! runs no transaction, so it commits nothing and re-logs nothing.
//! Torn bytes can only exist at the tail of the highest-numbered
//! segment (rotation happens at synced flush boundaries), and
//! post-recovery appends always start a *fresh* segment — the log never
//! appends after garbage, so "stop at the first invalid frame, continue
//! with the next segment" is exactly the committed-prefix rule. Before
//! admitting transactions the commit clock is caught up to `max(W,
//! highest replayed wv)`: the `wv > W` replay filter is only sound if
//! every post-recovery commit is stamped above every persisted one.
//!
//! ## Checkpoint
//!
//! [`DurableKv::checkpoint`] rotates the segment *first*, then scans
//! under snapshot semantics at cut `W`: every entry in the old segments
//! has `wv <= W` (their flushes preceded the rotation, which preceded
//! reading `W`) and is covered by the snapshot (MVCC scans wait out
//! in-flight publishers at or below their read point), so deleting the
//! old segments after the snapshot renames into place loses nothing.
//! Entries staged before the rotation may *flush* into the new segment;
//! they carry `wv <= W` and replay skips them — re-application is never
//! needed, idempotence never relied on.

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use polytm::{CommitInfo, Semantics, Stm, StmConfig, TxParams, TxResult};
use polytm_kv::{KvConfig, KvStore, KvTxn, Value};

use crate::error::DurabilityLost;
use crate::frame::{decode_entry, decode_snapshot, encode_snapshot, Snapshot};
use crate::storage::Storage;
use crate::wal::{parse_segment_name, Durability, Wal, WalConfig};

/// Checkpoint file name.
pub const SNAP_NAME: &str = "snap.bin";
/// Checkpoint staging name (written, fsynced, renamed over
/// [`SNAP_NAME`]).
pub const SNAP_TMP: &str = "snap.tmp";

const REDO_PUT: u8 = 1;
const REDO_DELETE: u8 = 2;

/// Construction knobs for a [`DurableKv`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DurableKvConfig {
    /// The in-memory store's layout and semantics parameters.
    pub kv: KvConfig,
    /// The write-ahead log's durability mode and tuning.
    pub wal: WalConfig,
}

/// What the log promised about a just-committed transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityOutcome {
    /// The commit (and every commit ordered before it) is on storage.
    Durable,
    /// Async mode: the commit is staged and will persist within
    /// [`WalConfig::async_interval`]; a crash before then loses it (but
    /// never tears it).
    Pending,
    /// The log failed while persisting this commit. It is visible in
    /// memory but may not survive a crash; the store is now read-only.
    Lost,
}

/// Where a transaction from [`DurableKv::txn_staged`] stands before
/// anyone waits on the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Staged {
    /// Its fate is already known: nothing was logged, the log is in
    /// Async mode, or the log had already failed.
    Settled(DurabilityOutcome),
    /// Sync mode: durable once [`DurableKv::wait_durable`] on this log
    /// sequence number returns `Ok`.
    Ticket(u64),
}

/// One decoded redo operation, borrowing its value from the log bytes.
enum RedoOp<'a> {
    Put(u64, &'a [u8]),
    Delete(u64),
}

fn decode_redo(payload: &[u8]) -> Option<Vec<RedoOp<'_>>> {
    let mut ops = Vec::new();
    let mut at = 0usize;
    while at < payload.len() {
        let tag = payload[at];
        let key = u64::from_le_bytes(payload.get(at + 1..at + 9)?.try_into().ok()?);
        at += 9;
        match tag {
            REDO_PUT => {
                let vlen = u32::from_le_bytes(payload.get(at..at + 4)?.try_into().ok()?) as usize;
                ops.push(RedoOp::Put(key, payload.get(at + 4..at + 4 + vlen)?));
                at += 4 + vlen;
            }
            REDO_DELETE => ops.push(RedoOp::Delete(key)),
            _ => return None,
        }
    }
    Some(ops)
}

/// Transactional view inside [`DurableKv::txn`]: the [`KvTxn`] surface
/// with every write mirrored into the transaction's redo record.
pub struct DurableTxn<'a, 's, 'tx> {
    kv: &'a mut KvTxn<'s, 'tx>,
}

impl DurableTxn<'_, '_, '_> {
    /// Read `key` (see [`KvTxn::get`]).
    pub fn get(&mut self, key: u64) -> TxResult<Option<Value>> {
        self.kv.get(key)
    }

    /// Membership probe for `key` (see [`KvTxn::contains`]).
    pub fn contains(&mut self, key: u64) -> TxResult<bool> {
        self.kv.contains(key)
    }

    /// Count keys in `[lo, hi)` (see [`KvTxn::range_count`]).
    pub fn range_count(&mut self, lo: u64, hi: u64) -> TxResult<usize> {
        self.kv.range_count(lo, hi)
    }

    /// Write `key`, logging a redo `put`.
    pub fn put(&mut self, key: u64, value: Value) -> TxResult<Option<Value>> {
        let prev = self.kv.put(key, value.clone())?;
        let bytes = value.as_bytes();
        let mut rec = Vec::with_capacity(13 + bytes.len());
        rec.push(REDO_PUT);
        rec.extend_from_slice(&key.to_le_bytes());
        rec.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        rec.extend_from_slice(bytes);
        self.kv.tx().stage_redo(&rec);
        Ok(prev)
    }

    /// Delete `key`, logging a redo `delete` when the key was present
    /// (deleting an absent key changes nothing and logs nothing).
    pub fn delete(&mut self, key: u64) -> TxResult<Option<Value>> {
        let prev = self.kv.delete(key)?;
        if prev.is_some() {
            let mut rec = Vec::with_capacity(9);
            rec.push(REDO_DELETE);
            rec.extend_from_slice(&key.to_le_bytes());
            self.kv.tx().stage_redo(&rec);
        }
        Ok(prev)
    }
}

/// A crash-durable transactional KV store: [`KvStore`] semantics in
/// memory, a group-committed redo WAL underneath, checkpoint +
/// truncation, and recovery back to the committed prefix. See the
/// module docs for the protocol.
pub struct DurableKv {
    store: KvStore,
    wal: Arc<Wal>,
    storage: Arc<dyn Storage>,
    mode: Durability,
    read_only: AtomicBool,
    /// Serializes [`DurableKv::checkpoint`]: two interleaved
    /// checkpoints could install the older cut over the newer one
    /// *after* the newer one truncated segments the older cut still
    /// needs.
    ckpt: Mutex<()>,
    shutdown: Arc<AtomicBool>,
    flusher: Option<JoinHandle<()>>,
}

impl DurableKv {
    /// Open (recovering if the storage holds state) a durable store.
    ///
    /// Errors are real I/O failures or a structurally corrupt
    /// checkpoint file — the latter is a hard error because the
    /// write-fsync-rename protocol never produces one. A torn log tail
    /// is *not* an error: it is the expected shape of a crash and is
    /// simply not replayed.
    pub fn open(storage: Arc<dyn Storage>, config: DurableKvConfig) -> io::Result<Self> {
        // 1. Checkpoint, if any: its record set starts the fold.
        let snap_bytes =
            if storage.exists(SNAP_NAME)? { Some(storage.read(SNAP_NAME)?) } else { None };
        let snap = match &snap_bytes {
            Some(bytes) => decode_snapshot(bytes).ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "corrupt checkpoint snap.bin")
            })?,
            None => Snapshot::default(),
        };
        let _ = storage.remove(SNAP_TMP);
        let mut records: BTreeMap<u64, Value> =
            snap.records.iter().map(|&(key, value)| (key, Value::from_bytes(value))).collect();

        // 2. Segment inventory: live segments replay; stragglers below
        // the snapshot's first live segment are a crashed truncation's
        // leftovers — drop them.
        let mut live = Vec::new();
        let mut max_seen = None::<u64>;
        for name in storage.list()? {
            if let Some(n) = parse_segment_name(&name) {
                max_seen = Some(max_seen.map_or(n, |m| m.max(n)));
                if n >= snap.start_seg {
                    live.push(n);
                } else {
                    let _ = storage.remove(&name);
                }
            }
        }
        live.sort_unstable();

        // 3. Longest valid prefix: stop a segment at its first invalid
        // frame or seq regression, keep going with the next segment
        // (garbage only ever sits where a crash cut a tail; later
        // segments were opened by a recovered incarnation). Each entry
        // with `wv > W` folds into the record set in log order: a put
        // inserts, a delete removes.
        let mut last_seq = 0u64;
        let mut max_wv = snap.w;
        'segments: for n in &live {
            let bytes = storage.read(&crate::wal::segment_name(*n))?;
            let mut at = 0usize;
            while let Some((entry, next)) = decode_entry(&bytes, at) {
                if entry.seq <= last_seq {
                    break 'segments;
                }
                last_seq = entry.seq;
                max_wv = max_wv.max(entry.wv);
                if entry.wv > snap.w {
                    // CRC-valid but unparseable: not a torn tail, a
                    // version/codec mismatch — stop here rather than
                    // guess.
                    let Some(ops) = decode_redo(entry.payload) else {
                        break 'segments;
                    };
                    for op in ops {
                        match op {
                            RedoOp::Put(key, value) => {
                                records.insert(key, Value::from_bytes(value));
                            }
                            RedoOp::Delete(key) => {
                                records.remove(&key);
                            }
                        }
                    }
                }
                at = next;
            }
        }

        // 4. Build the log, then the store straight from the folded
        // record set: no transaction runs, so nothing is re-logged.
        let next_segment = max_seen.map_or(snap.start_seg, |m| (m + 1).max(snap.start_seg));
        let wal = Arc::new(Wal::new(storage.clone(), config.wal, last_seq + 1, next_segment));
        let stm = Arc::new(Stm::with_redo_sink(StmConfig::default(), wal.clone()));
        // Restore the commit clock before any transaction runs: new
        // commits must be stamped above every persisted `wv` (the
        // snapshot cut and the whole replayed prefix), or the *next*
        // recovery's `wv > W` filter would silently skip them —
        // acknowledged-durable loss one restart later.
        stm.catch_up_clock(max_wv);
        wal.attach_stm(&stm);
        let store = KvStore::with_records(stm, config.kv, records);

        // 5. Async mode gets a background flusher.
        let shutdown = Arc::new(AtomicBool::new(false));
        let flusher = if config.wal.mode == Durability::Async {
            let wal = wal.clone();
            let shutdown = shutdown.clone();
            let interval = config.wal.async_interval;
            Some(std::thread::spawn(move || {
                while !shutdown.load(Ordering::Acquire) {
                    wal.flush_tick();
                    std::thread::park_timeout(interval);
                }
            }))
        } else {
            None
        };

        Ok(Self {
            store,
            wal,
            storage,
            mode: config.wal.mode,
            read_only: AtomicBool::new(false),
            ckpt: Mutex::new(()),
            shutdown,
            flusher,
        })
    }

    /// Run one atomic, logged transaction and report its durability
    /// fate. `Err` means the store is already read-only (an earlier log
    /// failure); [`DurabilityOutcome::Lost`] means *this* call's log
    /// write failed and flipped the store read-only — the transaction
    /// is visible in memory either way. This is
    /// [`DurableKv::txn_staged`] followed by [`DurableKv::wait_durable`]
    /// on its ticket.
    pub fn txn_logged<T>(
        &self,
        f: impl FnMut(&mut DurableTxn<'_, '_, '_>) -> TxResult<T>,
    ) -> Result<(T, CommitInfo, DurabilityOutcome), DurabilityLost> {
        let (value, info, staged) = self.txn_staged(f)?;
        let outcome = match staged {
            Staged::Settled(outcome) => outcome,
            Staged::Ticket(seq) => match self.wait_durable(seq) {
                Ok(()) => DurabilityOutcome::Durable,
                Err(DurabilityLost) => DurabilityOutcome::Lost,
            },
        };
        Ok((value, info, outcome))
    }

    /// Run one atomic, logged transaction and stage its redo entry, but
    /// do not wait for the log force. In Sync mode a transaction that
    /// logged something comes back as [`Staged::Ticket`]: it is visible
    /// in memory, and it is durable — and may be acknowledged — only
    /// once [`DurableKv::wait_durable`] on that ticket returns `Ok`.
    /// Staging several transactions before one wait lets one fsync
    /// cover them all. `Err` means the store is already read-only.
    pub fn txn_staged<T>(
        &self,
        mut f: impl FnMut(&mut DurableTxn<'_, '_, '_>) -> TxResult<T>,
    ) -> Result<(T, CommitInfo, Staged), DurabilityLost> {
        if self.read_only.load(Ordering::Acquire) {
            return Err(DurabilityLost);
        }
        if self.wal.is_poisoned() {
            self.read_only.store(true, Ordering::Release);
            return Err(DurabilityLost);
        }
        // Backpressure *before* the transaction: the redo sink runs
        // under location locks and must never block. From here until
        // the STM run returns — committed, or read-only after any
        // number of retries — a flush leader counts this transaction
        // as a sibling worth waiting for; the guard goes before any
        // `wait_durable`, where this thread may be that leader.
        let in_flight = self.wal.admit();
        let (value, info) = self.store.txn_logged(|kv| f(&mut DurableTxn { kv }));
        drop(in_flight);
        let staged = match info.seq {
            // Read-only transaction (or one whose writes all vanished):
            // nothing to persist.
            None => Staged::Settled(DurabilityOutcome::Durable),
            Some(seq) => match self.mode {
                Durability::Sync => Staged::Ticket(seq),
                Durability::Async => {
                    if self.wal.is_poisoned() {
                        self.read_only.store(true, Ordering::Release);
                        Staged::Settled(DurabilityOutcome::Lost)
                    } else {
                        Staged::Settled(DurabilityOutcome::Pending)
                    }
                }
            },
        };
        Ok((value, info, staged))
    }

    /// Block until the log is durable up to `ticket` (a
    /// [`Staged::Ticket`]), leading the group flush if nobody else is.
    /// A failed force latches the store read-only and returns `Err`:
    /// no transaction at or below the ticket may be acknowledged.
    pub fn wait_durable(&self, ticket: u64) -> Result<(), DurabilityLost> {
        self.wal.wait_durable(ticket).inspect_err(|_| {
            self.read_only.store(true, Ordering::Release);
        })
    }

    /// Run one atomic, logged transaction; collapse
    /// [`DurabilityOutcome::Lost`] into `Err` (the value is still
    /// applied in memory — callers who need it anyway use
    /// [`DurableKv::txn_logged`]).
    pub fn txn<T>(
        &self,
        f: impl FnMut(&mut DurableTxn<'_, '_, '_>) -> TxResult<T>,
    ) -> Result<T, DurabilityLost> {
        let (value, _, outcome) = self.txn_logged(f)?;
        match outcome {
            DurabilityOutcome::Lost => Err(DurabilityLost),
            _ => Ok(value),
        }
    }

    /// Durable point write; returns the previous value.
    pub fn put(&self, key: u64, value: Value) -> Result<Option<Value>, DurabilityLost> {
        self.txn(|tx| tx.put(key, value.clone()))
    }

    /// Durable point delete; returns the deleted value.
    pub fn delete(&self, key: u64) -> Result<Option<Value>, DurabilityLost> {
        self.txn(|tx| tx.delete(key))
    }

    /// Durable batched ingest. Chunks internally; duplicate keys are
    /// last-write-wins, matching [`KvStore::multi_put`].
    pub fn multi_put(&self, entries: &[(u64, Value)]) -> Result<(), DurabilityLost> {
        for chunk in entries.chunks(256) {
            self.txn(|tx| {
                for (key, value) in chunk {
                    tx.put(*key, value.clone())?;
                }
                Ok(())
            })?;
        }
        Ok(())
    }

    /// Point read (never blocked by durability state).
    pub fn get(&self, key: u64) -> Option<Value> {
        self.store.get(key)
    }

    /// Point read appended to `out` ([`KvStore::get_into`]); like
    /// [`DurableKv::get`], never blocked by durability state.
    pub fn get_into(&self, key: u64, out: &mut Vec<u8>) -> bool {
        self.store.get_into(key, out)
    }

    /// Membership probe.
    pub fn contains(&self, key: u64) -> bool {
        self.store.contains(key)
    }

    /// Hint that `keys` are about to be read ([`KvStore::warm`]); like
    /// the reads it serves, it never touches the log.
    pub fn warm(&self, keys: &[u64]) {
        self.store.warm(keys);
    }

    /// Snapshot range scan over `[lo, hi)`.
    pub fn scan_range(&self, lo: u64, hi: u64) -> Vec<(u64, Value)> {
        self.store.scan_range(lo, hi)
    }

    /// Snapshot count of keys in `[lo, hi)`.
    pub fn range_count(&self, lo: u64, hi: u64) -> usize {
        self.store.range_count(lo, hi)
    }

    /// Live record count.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// True once a log failure has latched the store read-only.
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::Acquire)
    }

    /// Force everything staged onto storage (async mode's graceful
    /// shutdown; a no-op when nothing is pending).
    pub fn flush(&self) -> Result<(), DurabilityLost> {
        self.wal.flush_all()
    }

    /// The store's STM (stats, advisor installation).
    pub fn stm(&self) -> &Arc<Stm> {
        self.store.stm()
    }

    /// The write-ahead log (tests and instrumentation).
    pub fn wal(&self) -> &Arc<Wal> {
        &self.wal
    }

    /// Checkpoint: write the current record set to `snap.bin` and
    /// truncate every wholly-covered log segment. Concurrent writers
    /// keep committing throughout — the only global effect is a segment
    /// rotation. The snapshot's cut is bounded below by the MVCC
    /// snapshot registry: a scan bound registered in `snapreg` pins the
    /// version history it can reach, and this checkpoint reads through
    /// exactly that machinery, so it can never observe (or persist) a
    /// state newer than its own registered bound allows. Concurrent
    /// calls are serialized internally: an interleaving where an older
    /// cut's snapshot renames over a newer one whose truncation already
    /// ran would lose the segments between the two cuts.
    pub fn checkpoint(&self) -> io::Result<()> {
        let _serialize = self.ckpt.lock().expect("checkpoint mutex poisoned");
        // Rotate first: everything already flushed lives in segments
        // `<= old_last` with `wv <= W` (their flushes happened before
        // we read W below).
        let old_last = self.wal.rotate();
        let (w, records) = self.stm().run(TxParams::new(Semantics::Snapshot), |tx| {
            let w = tx.read_version();
            let mut records = self.store.scan_range_in(tx, 0, u64::MAX)?;
            if let Some(value) = self.store.get_in(tx, u64::MAX)? {
                records.push((u64::MAX, value));
            }
            Ok((w, records))
        });
        let start_seg = old_last + 1;
        let bytes = encode_snapshot(w, start_seg, &records);
        self.storage.remove(SNAP_TMP)?;
        self.storage.append(SNAP_TMP, &bytes)?;
        self.storage.sync(SNAP_TMP)?;
        self.storage.rename(SNAP_TMP, SNAP_NAME)?;
        for name in self.storage.list()? {
            if let Some(n) = parse_segment_name(&name) {
                if n <= old_last {
                    self.storage.remove(&name)?;
                }
            }
        }
        Ok(())
    }
}

impl Drop for DurableKv {
    /// Stop the background flusher. Deliberately does *not* flush:
    /// dropping an async store mid-stream is the crash case its
    /// semantics already cover, and the torture harness relies on drops
    /// doing no storage I/O. Call [`DurableKv::flush`] for a graceful
    /// async shutdown.
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(flusher) = self.flusher.take() {
            flusher.thread().unpark();
            let _ = flusher.join();
        }
    }
}

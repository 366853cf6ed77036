//! The redo-only write-ahead log with group commit.
//!
//! ## Group-commit protocol
//!
//! Committers never write to storage themselves. The STM commit path
//! (holding the transaction's location locks) calls
//! [`RedoSink::append`], which assigns the next log sequence number and
//! copies the framed entry into an in-memory staging buffer — O(memcpy)
//! under a mutex, no I/O. Durability happens in *batches*:
//!
//! * In [`Durability::Sync`] mode a committer then calls
//!   [`Wal::wait_durable`]. The first waiter that finds no flush in
//!   flight becomes the **leader**: it takes the whole staging buffer,
//!   appends it to the current segment and issues **one** fsync for
//!   every commit in the batch. Followers just sleep on the condvar
//!   until `durable_seq` covers their sequence number.
//! * The leader is **sibling-aware**. Every logged transaction is
//!   registered with the log from admission ([`Wal::admit`]) until its
//!   STM run returns — it has staged its entry by then, or aborted, or
//!   turned out read-only. A leader that sees no registered sibling
//!   takes the buffer at once: a sole committer pays the device and
//!   nothing else. A leader that sees siblings waits on the condvar
//!   until the last of them has left, woken by that sibling itself,
//!   and for at most [`WalConfig::group_window`]. The window is a cap
//!   on waiting for committers that are demonstrably on their way,
//!   never a cost paid on a timer; while a flush is on the device,
//!   later commits pile into staging behind it, so batches grow with
//!   the commit rate and the device's latency, not with the window.
//! * In [`Durability::Async`] mode nobody waits; a background flusher
//!   (owned by `DurableKv`) calls [`Wal::flush_tick`] every
//!   [`WalConfig::async_interval`]. Acked commits may be lost on a
//!   crash, but recovery still yields a *prefix* of the commit order.
//!
//! ## Failure and backpressure
//!
//! A failed append or fsync **poisons** the log: `durable_seq` stops
//! advancing, every `wait_durable` returns [`DurabilityLost`], and the
//! owning store degrades to read-only. We never retry I/O into a file
//! whose tail state is unknown — the durable prefix on disk stays
//! exactly the prefix recovery will replay.
//!
//! [`Wal::admit`] bounds staged-but-unflushed bytes
//! ([`WalConfig::max_inflight_bytes`]): callers invoke it *before*
//! entering the STM transaction (the sink itself must never block — it
//! runs under location locks), so commit admission slows to the flush
//! rate instead of staging growing without bound.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, Weak};
use std::time::Duration;

use polytm::{RedoSink, Stm};

use crate::error::DurabilityLost;
use crate::frame::encode_entry;
use crate::storage::Storage;

/// When a commit is acknowledged relative to the fsync that persists
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Commit acknowledgement waits for the group fsync: every acked
    /// commit survives any crash.
    Sync,
    /// Commits return immediately; a background flusher persists the
    /// tail every [`WalConfig::async_interval`]. A crash may lose the
    /// most recent commits but never yields a torn or reordered state.
    Async,
}

/// Write-ahead log tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Sync vs async acknowledgement (see [`Durability`]).
    pub mode: Durability,
    /// Rotate to a new segment file once the current one reaches this
    /// many bytes (checked at flush boundaries, so segments overshoot
    /// by at most one batch).
    pub segment_bytes: u64,
    /// Backpressure cap: [`Wal::admit`] blocks while staged bytes
    /// exceed this.
    pub max_inflight_bytes: usize,
    /// Upper bound on how long a flush leader waits for the logged
    /// transactions it can see in flight before taking the batch; with
    /// none in flight it never waits. Zero disables the wait (torture
    /// tests use zero to maximize distinct crash points).
    pub group_window: Duration,
    /// Background flush period in [`Durability::Async`] mode.
    pub async_interval: Duration,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self {
            mode: Durability::Sync,
            segment_bytes: 1 << 20,
            max_inflight_bytes: 4 << 20,
            group_window: Duration::from_micros(150),
            async_interval: Duration::from_millis(1),
        }
    }
}

/// Segment file name for segment number `n` (`wal-00000000.log`,
/// sortable lexicographically up to 10^8 segments).
pub fn segment_name(n: u64) -> String {
    format!("wal-{n:08}.log")
}

/// Inverse of [`segment_name`]; `None` for non-segment files.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    if digits.len() < 8 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

struct WalInner {
    /// Framed entries staged since the last flush took the buffer.
    staging: Vec<u8>,
    /// The previous batch's buffer, cleared: the next flush swaps it in
    /// for `staging`, so batches reuse two allocations instead of
    /// regrowing a fresh `Vec` each.
    spare: Vec<u8>,
    /// Commits staged in `staging`.
    staged_entries: u64,
    /// Highest sequence number staged in `staging`.
    staged_hi_seq: u64,
    /// Next sequence number to assign.
    next_seq: u64,
    /// Highest sequence number known durable on storage.
    durable_seq: u64,
    /// A leader is between claiming the flush and publishing its
    /// outcome.
    flushing: bool,
    /// Logged transactions between [`Wal::admit`] and the end of their
    /// STM run: the siblings a leader can see coming.
    in_flight: u32,
    /// The leader is waiting on the condvar for `in_flight` to reach
    /// zero; the last sibling to leave must wake it.
    lingering: bool,
    /// A log I/O failed; durability promises can no longer be kept.
    poisoned: bool,
    /// Current segment number appends go to.
    segment: u64,
    /// Bytes flushed into the current segment so far.
    segment_fill: u64,
}

/// The write-ahead log. One per [`crate::DurableKv`]; installed into
/// the store's [`Stm`] as its [`RedoSink`].
pub struct Wal {
    storage: Arc<dyn Storage>,
    cfg: WalConfig,
    inner: Mutex<WalInner>,
    cond: Condvar,
    /// Stats sink (weak: the `Stm` owns an `Arc` of this log, and a
    /// strong back-edge would leak both).
    stm: OnceLock<Weak<Stm>>,
    /// Highest staging occupancy observed (backpressure test witness).
    high_water: AtomicU64,
}

impl Wal {
    /// A log appending to `storage`, with sequence numbers starting at
    /// `next_seq` and writes going to segment `segment` (recovery picks
    /// both; a fresh store uses `1` and `0`).
    pub fn new(storage: Arc<dyn Storage>, cfg: WalConfig, next_seq: u64, segment: u64) -> Self {
        Self {
            storage,
            cfg,
            inner: Mutex::new(WalInner {
                staging: Vec::new(),
                spare: Vec::new(),
                staged_entries: 0,
                staged_hi_seq: 0,
                next_seq,
                durable_seq: next_seq.saturating_sub(1),
                flushing: false,
                in_flight: 0,
                lingering: false,
                poisoned: false,
                segment,
                segment_fill: 0,
            }),
            cond: Condvar::new(),
            stm: OnceLock::new(),
            high_water: AtomicU64::new(0),
        }
    }

    /// Install the stats sink. Called once by `DurableKv::open` after
    /// the `Stm` is built (the log must exist first to be the redo
    /// sink).
    pub fn attach_stm(&self, stm: &Arc<Stm>) {
        let _ = self.stm.set(Arc::downgrade(stm));
    }

    /// The log's configuration.
    pub fn config(&self) -> &WalConfig {
        &self.cfg
    }

    fn lock(&self) -> MutexGuard<'_, WalInner> {
        self.inner.lock().expect("wal mutex poisoned")
    }

    /// Block until every sequence number up to `seq` is durable,
    /// leading a group flush if nobody else is. Errors once the log is
    /// poisoned.
    pub fn wait_durable(&self, seq: u64) -> Result<(), DurabilityLost> {
        let mut inner = self.lock();
        if inner.durable_seq >= seq {
            return Ok(());
        }
        // Past this point the committer genuinely blocks (leading a
        // flush or sleeping as a follower); charge the whole stretch to
        // the WAL wait component. The already-durable fast path above
        // never reads the clock.
        let wait_start = std::time::Instant::now();
        let result = loop {
            if inner.durable_seq >= seq {
                break Ok(());
            }
            if inner.poisoned {
                break Err(DurabilityLost);
            }
            if !inner.flushing && !inner.staging.is_empty() {
                inner = self.flush_locked(inner);
            } else {
                inner = self.cond.wait(inner).expect("wal mutex poisoned");
            }
        };
        drop(inner);
        let wait_ns = wait_start.elapsed().as_nanos() as u64;
        if wait_ns > 0 {
            if let Some(stm) = self.stm.get().and_then(Weak::upgrade) {
                stm.record_wal_wait(wait_ns);
            }
            polytm::trace::emit(|| {
                polytm::trace::TraceEvent::new(
                    polytm::trace::code::WAL_FOLLOWER_WAIT,
                    0,
                    polytm::trace::NO_CLASS,
                    0,
                    wait_ns,
                    seq,
                )
            });
        }
        result
    }

    /// Flush until nothing is staged (or the log is poisoned). Used by
    /// checkpoints and shutdown.
    pub fn flush_all(&self) -> Result<(), DurabilityLost> {
        let mut inner = self.lock();
        loop {
            if inner.poisoned {
                return Err(DurabilityLost);
            }
            if inner.staging.is_empty() && !inner.flushing {
                return Ok(());
            }
            if !inner.flushing && !inner.staging.is_empty() {
                inner = self.flush_locked(inner);
            } else {
                inner = self.cond.wait(inner).expect("wal mutex poisoned");
            }
        }
    }

    /// One background flush attempt (async-mode flusher tick): flush
    /// the current staging buffer if any and nobody else is flushing;
    /// never blocks waiting for others.
    pub fn flush_tick(&self) {
        let inner = self.lock();
        if !inner.poisoned && !inner.flushing && !inner.staging.is_empty() {
            drop(self.flush_locked(inner));
        }
    }

    /// Commit admission: block while staged bytes are at or over
    /// [`WalConfig::max_inflight_bytes`], then register the caller as a
    /// logged transaction in flight. Call *before* starting the
    /// transaction — never from inside the commit path — and drop the
    /// guard as soon as the STM run returns, before
    /// [`Wal::wait_durable`]: a flush leader waits for registered
    /// transactions, so one that kept its guard would wait for itself.
    pub fn admit(&self) -> InFlight<'_> {
        let mut inner = self.lock();
        while inner.staging.len() >= self.cfg.max_inflight_bytes && !inner.poisoned {
            if !inner.flushing {
                inner = self.flush_locked(inner);
            } else {
                inner = self.cond.wait(inner).expect("wal mutex poisoned");
            }
        }
        inner.in_flight += 1;
        InFlight { wal: self }
    }

    /// Start a new segment (checkpoint cut); returns the number of the
    /// segment that was current. Entries staged before the rotation
    /// flush into the *new* segment — sound for checkpoints because the
    /// snapshot cut `W` covers every commit whose entry was staged
    /// before the checkpoint transaction's read point, and replay skips
    /// `wv <= W`.
    pub fn rotate(&self) -> u64 {
        let mut inner = self.lock();
        let old = inner.segment;
        inner.segment += 1;
        inner.segment_fill = 0;
        old
    }

    /// True once a log I/O error has poisoned the log.
    pub fn is_poisoned(&self) -> bool {
        self.lock().poisoned
    }

    /// Highest sequence number known durable.
    pub fn durable_seq(&self) -> u64 {
        self.lock().durable_seq
    }

    /// Highest staging-buffer occupancy (bytes) seen so far; the
    /// backpressure tests assert this stays near the configured cap.
    pub fn inflight_high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }

    /// The leader path: claim the flush, wait for the in-flight
    /// siblings (if any, and for at most the group window), take the
    /// whole staging buffer, do one append + one fsync for the batch,
    /// publish the outcome. Consumes and returns the guard because the
    /// I/O (and the wait) run unlocked.
    fn flush_locked<'a>(&'a self, mut inner: MutexGuard<'a, WalInner>) -> MutexGuard<'a, WalInner> {
        inner.flushing = true;
        let awaited = inner.in_flight;
        let mut linger_ns = 0u64;
        if awaited > 0 && !self.cfg.group_window.is_zero() {
            let linger_start = std::time::Instant::now();
            inner.lingering = true;
            inner = self
                .cond
                .wait_timeout_while(inner, self.cfg.group_window, |inner| inner.in_flight > 0)
                .expect("wal mutex poisoned")
                .0;
            inner.lingering = false;
            linger_ns = linger_start.elapsed().as_nanos() as u64;
        }
        let spare = std::mem::take(&mut inner.spare);
        let mut buf = std::mem::replace(&mut inner.staging, spare);
        let entries = std::mem::take(&mut inner.staged_entries);
        let hi = inner.staged_hi_seq;
        let seg = inner.segment;
        drop(inner);

        if linger_ns > 0 {
            // How long the leader held the batch open for the siblings
            // it saw in flight — time every commit in the group spends
            // waiting for them. A leader that saw none emits nothing.
            polytm::trace::emit(|| {
                polytm::trace::TraceEvent::new(
                    polytm::trace::code::WAL_LINGER,
                    0,
                    polytm::trace::NO_CLASS,
                    awaited,
                    linger_ns,
                    0,
                )
            });
        }

        let mut fsync_ns = 0u64;
        let result = if buf.is_empty() {
            Ok(())
        } else {
            let name = segment_name(seg);
            self.storage.append(&name, &buf).and_then(|()| {
                let sync_start = std::time::Instant::now();
                let r = self.storage.sync(&name);
                fsync_ns = sync_start.elapsed().as_nanos() as u64;
                r
            })
        };

        let mut inner = self.lock();
        inner.flushing = false;
        match result {
            Ok(()) => {
                if !buf.is_empty() {
                    inner.durable_seq = inner.durable_seq.max(hi);
                    // Rotation is a flush-boundary decision, so every
                    // non-current segment ends exactly at a synced
                    // batch edge — torn bytes can only exist in the
                    // highest-numbered segment. Skip the bookkeeping if
                    // a checkpoint rotated underneath the flush.
                    if inner.segment == seg {
                        inner.segment_fill += buf.len() as u64;
                        if inner.segment_fill >= self.cfg.segment_bytes {
                            inner.segment += 1;
                            inner.segment_fill = 0;
                        }
                    }
                    if let Some(stm) = self.stm.get().and_then(Weak::upgrade) {
                        stm.record_durable(entries, 1, 1, buf.len() as u64);
                    }
                    // One event per group-commit flush: the batch the
                    // leader drained, its fsync latency — the floor any
                    // group-window tuning has to live with — and the
                    // bytes it made durable.
                    polytm::trace::emit(|| {
                        polytm::trace::TraceEvent::new(
                            polytm::trace::code::WAL_FSYNC,
                            0,
                            polytm::trace::NO_CLASS,
                            entries.min(u64::from(u32::MAX)) as u32,
                            fsync_ns,
                            buf.len() as u64,
                        )
                    });
                }
            }
            Err(_) => inner.poisoned = true,
        }
        buf.clear();
        inner.spare = buf;
        self.cond.notify_all();
        inner
    }
}

/// One logged transaction registered as in flight (see [`Wal::admit`]).
/// Dropping it — on commit, abort or a read-only outcome alike — is
/// what tells a waiting flush leader this sibling has nothing more to
/// stage.
pub struct InFlight<'a> {
    wal: &'a Wal,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        // Not `Wal::lock`: a drop during unwinding must not panic on a
        // mutex some other panic poisoned.
        let Ok(mut inner) = self.wal.inner.lock() else { return };
        inner.in_flight -= 1;
        if inner.lingering && inner.in_flight == 0 {
            self.wal.cond.notify_all();
        }
    }
}

impl RedoSink for Wal {
    /// Stage one commit's redo bytes; called by the STM commit path
    /// *under the transaction's location locks*, so it only copies into
    /// memory — the sequence number it returns is the commit's position
    /// in the durable order. Appends to a poisoned log still consume a
    /// sequence number but stage nothing (the commit will learn its
    /// fate from [`Wal::wait_durable`] / the store's read-only latch).
    fn append(&self, wv: u64, redo: &[u8]) -> u64 {
        let mut inner = self.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if !inner.poisoned {
            encode_entry(&mut inner.staging, seq, wv, redo);
            inner.staged_hi_seq = seq;
            inner.staged_entries += 1;
            let occupancy = inner.staging.len() as u64;
            self.high_water.fetch_max(occupancy, Ordering::Relaxed);
        }
        // No notify: nobody sleeps on the condvar for an entry to be
        // staged. Followers wait for a flush outcome, and a lingering
        // leader for this transaction's `InFlight` guard, which drops
        // right after the commit that called us returns.
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::decode_entry;
    use crate::storage::FaultFs;
    use crate::{DurableKv, DurableKvConfig};
    use polytm::trace::{code, TraceEvent, TraceSink};
    use polytm_kv::Value;
    use std::thread::{JoinHandle, ThreadId};
    use std::time::Instant;

    fn test_cfg() -> WalConfig {
        WalConfig { group_window: Duration::ZERO, ..WalConfig::default() }
    }

    #[test]
    fn segment_names_roundtrip_and_sort() {
        assert_eq!(segment_name(0), "wal-00000000.log");
        assert_eq!(parse_segment_name("wal-00000042.log"), Some(42));
        assert_eq!(parse_segment_name("snap.bin"), None);
        assert_eq!(parse_segment_name("wal-0000troj.log"), None);
        assert!(segment_name(9) < segment_name(10));
    }

    #[test]
    fn wait_durable_leads_a_flush_and_batches() {
        let fs = Arc::new(FaultFs::new(3));
        let wal = Wal::new(fs.clone(), test_cfg(), 1, 0);
        let s1 = wal.append(10, b"alpha");
        let s2 = wal.append(11, b"beta");
        assert_eq!((s1, s2), (1, 2));
        wal.wait_durable(s2).expect("healthy log");
        assert_eq!(wal.durable_seq(), 2);
        let bytes = fs.read(&segment_name(0)).expect("segment exists");
        let (e1, next) = decode_entry(&bytes, 0).expect("first entry");
        let (e2, end) = decode_entry(&bytes, next).expect("second entry");
        assert_eq!((e1.seq, e1.wv, e1.payload), (1, 10, &b"alpha"[..]));
        assert_eq!((e2.seq, e2.wv, e2.payload), (2, 11, &b"beta"[..]));
        assert_eq!(end, bytes.len());
        // One batch, so all bytes are durable (one sync call happened).
        assert_eq!(fs.durable_len(&segment_name(0)), bytes.len());
    }

    #[test]
    fn io_failure_poisons_and_unblocks_waiters() {
        // Fail the very first mutating storage op (the batch append).
        let fs = Arc::new(FaultFs::with_crash_after(5, 1));
        let wal = Wal::new(fs, test_cfg(), 1, 0);
        let seq = wal.append(7, b"doomed");
        assert_eq!(wal.wait_durable(seq), Err(DurabilityLost));
        assert!(wal.is_poisoned());
        // Later appends still hand out sequence numbers but stage
        // nothing, and waiting on them fails fast.
        let seq2 = wal.append(8, b"late");
        assert_eq!(seq2, seq + 1);
        assert_eq!(wal.wait_durable(seq2), Err(DurabilityLost));
    }

    #[test]
    fn rotation_at_flush_boundary() {
        let fs = Arc::new(FaultFs::new(9));
        let cfg = WalConfig { segment_bytes: 64, ..test_cfg() };
        let wal = Wal::new(fs.clone(), cfg, 1, 0);
        // Each flush carries one ~60-byte entry; the fill crosses 64
        // after each batch, so every flush rotates.
        for i in 0..3u64 {
            let seq = wal.append(i + 1, &[0u8; 40]);
            wal.wait_durable(seq).unwrap();
        }
        let names = fs.list().unwrap();
        assert_eq!(
            names,
            vec![segment_name(0), segment_name(1), segment_name(2)],
            "one segment per over-cap batch"
        );
    }

    #[test]
    fn admission_bounds_staging() {
        let fs = Arc::new(FaultFs::new(11));
        let cfg = WalConfig { max_inflight_bytes: 256, ..test_cfg() };
        let wal = Wal::new(fs, cfg, 1, 0);
        for i in 0..64u64 {
            let _in_flight = wal.admit();
            wal.append(i + 1, &[7u8; 32]);
        }
        // Each entry is 28 + 32 = 60 bytes; admission flushes whenever
        // staging is at/over 256, so occupancy never exceeds cap + one
        // entry.
        assert!(
            wal.inflight_high_water() <= 256 + 60,
            "high water {} exceeds cap + one entry",
            wal.inflight_high_water()
        );
        wal.flush_all().unwrap();
        assert_eq!(wal.durable_seq(), 64);
    }

    // -- the sibling-aware leader --------------------------------------
    //
    // Every interleaving below is forced: the test thread holds the
    // sibling's guard and acts only once it has *seen* the leader
    // parked (`lingering`), and the windows are far from anything the
    // scheduler can add (a minute where the leader must be woken, tens
    // of milliseconds where it must time out).

    /// The process-wide trace sink of this test binary: `WAL_LINGER`
    /// events, told apart by emitting thread (always the leader's).
    struct Lingers(Mutex<Vec<(ThreadId, TraceEvent)>>);

    impl TraceSink for Lingers {
        fn record(&self, ev: TraceEvent) {
            if ev.code == code::WAL_LINGER {
                self.0.lock().unwrap().push((std::thread::current().id(), ev));
            }
        }
    }

    static LINGERS: Lingers = Lingers(Mutex::new(Vec::new()));

    fn lingers_of(id: ThreadId) -> Vec<TraceEvent> {
        LINGERS.0.lock().unwrap().iter().filter(|(t, _)| *t == id).map(|(_, ev)| *ev).collect()
    }

    fn wal_with_window(seed: u64, group_window: Duration) -> (Arc<Wal>, Arc<Stm>) {
        polytm::trace::install(&LINGERS);
        let cfg = WalConfig { group_window, ..WalConfig::default() };
        let wal = Arc::new(Wal::new(Arc::new(FaultFs::new(seed)), cfg, 1, 0));
        let stm = Arc::new(Stm::new());
        wal.attach_stm(&stm);
        (wal, stm)
    }

    /// Stage one entry on a new thread and lead its flush; yields the
    /// leader's thread id and how long `wait_durable` took.
    fn spawn_leader(wal: &Arc<Wal>) -> JoinHandle<(ThreadId, Duration)> {
        let wal = Arc::clone(wal);
        std::thread::spawn(move || {
            let seq = wal.append(1, b"leader");
            let start = Instant::now();
            wal.wait_durable(seq).expect("healthy log");
            (std::thread::current().id(), start.elapsed())
        })
    }

    fn await_lingering(wal: &Wal) {
        while !wal.lock().lingering {
            std::thread::yield_now();
        }
    }

    #[test]
    fn sole_committer_never_waits_for_the_window() {
        polytm::trace::install(&LINGERS);
        let window = Duration::from_secs(2);
        let cfg = DurableKvConfig {
            wal: WalConfig { group_window: window, ..WalConfig::default() },
            ..DurableKvConfig::default()
        };
        let store = DurableKv::open(Arc::new(FaultFs::new(21)), cfg).unwrap();
        for k in 0..3u64 {
            store.put(k, Value::from_u64(k)).unwrap();
        }
        // A committer still registered in flight when it led its own
        // flush would sit out the whole window on every put. `WAL_LINGER`
        // is emitted exactly when a leader waits, so the counts prove it
        // did not: one sync per put, and no linger on this thread.
        let stats = store.stm().stats();
        assert_eq!((stats.commits_durable, stats.fsyncs), (3, 3));
        assert!(lingers_of(std::thread::current().id()).is_empty(), "nobody to linger for");
    }

    #[test]
    fn leader_waits_for_an_in_flight_sibling_and_one_sync_covers_both() {
        let window = Duration::from_secs(60);
        let (wal, stm) = wal_with_window(22, window);
        let sibling = wal.admit();
        let leader = spawn_leader(&wal);
        await_lingering(&wal);
        let seq = wal.append(2, b"sibling");
        assert_eq!(wal.durable_seq(), 0, "the leader flushed past a sibling it could see");
        drop(sibling);
        let (leader_id, waited) = leader.join().unwrap();
        wal.wait_durable(seq).expect("covered by the leader's batch");
        assert!(waited < window, "woken by the sibling, not by the window");
        let stats = stm.stats();
        assert_eq!((stats.commits_durable, stats.fsyncs, stats.group_commit_batches), (2, 1, 1));
        let lingers = lingers_of(leader_id);
        assert_eq!(lingers.len(), 1);
        assert_eq!(lingers[0].n, 1, "one sibling awaited");
    }

    #[test]
    fn a_sibling_that_leaves_without_staging_releases_the_leader() {
        let window = Duration::from_secs(60);
        let (wal, stm) = wal_with_window(23, window);
        // An aborted or read-only transaction: admitted, never appends.
        let sibling = wal.admit();
        let leader = spawn_leader(&wal);
        await_lingering(&wal);
        assert_eq!(wal.durable_seq(), 0);
        drop(sibling);
        let (_, waited) = leader.join().unwrap();
        assert!(waited < window, "woken by the sibling leaving, not by the window");
        let stats = stm.stats();
        assert_eq!((stats.commits_durable, stats.fsyncs), (1, 1));
    }

    #[test]
    fn a_sibling_that_never_leaves_costs_the_leader_one_window() {
        let window = Duration::from_millis(40);
        let (wal, stm) = wal_with_window(24, window);
        let sibling = wal.admit();
        let (leader_id, waited) = spawn_leader(&wal).join().unwrap();
        assert!(waited >= window, "the leader gave up after {waited:?}, before the window");
        assert_eq!(stm.stats().fsyncs, 1);
        let lingers = lingers_of(leader_id);
        assert_eq!(lingers.len(), 1);
        assert!(lingers[0].a >= window.as_nanos() as u64 && lingers[0].n == 1);
        drop(sibling);
    }
}

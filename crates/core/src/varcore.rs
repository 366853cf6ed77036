//! Per-location state: versioned lock word plus an epoch-reclaimed,
//! bounded chain of immutable value versions.
//!
//! Layout of the lock word: `(version << 1) | locked`. While the lock bit
//! is set, the version bits still hold the *pre-lock* version, so readers
//! that race with a committing writer either observe a consistent
//! `(lockword, head, lockword)` triple or retry.
//!
//! Values are never mutated in place. A commit publishes a fresh
//! [`VersionNode`] and links the previous node behind it; the chain is
//! truncated to exactly what a registered snapshot bound can still reach
//! (the head alone when none is live), with severed nodes handed to
//! crossbeam-epoch for deferred destruction. This gives us three things at
//! once:
//!
//! 1. no `UnsafeCell` seqlock reads (which would be UB on torn reads) —
//!    every read dereferences an immutable node under an epoch guard;
//! 2. [`crate::Semantics::Snapshot`] transactions can read *into the
//!    past* along the chain;
//! 3. ABA-free unlocking: versions strictly increase.

use crossbeam_epoch::{self as epoch, Atomic, Guard, Owned};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::tvar::TxValue;
use crate::txdesc::WritePayload;

const LOCKED: u64 = 1;

/// One committed version of a location's value.
pub(crate) struct VersionNode<T> {
    /// Commit timestamp (write version) that published this value.
    pub version: u64,
    /// The committed value.
    pub value: T,
    /// Next-older version, or null past the history horizon.
    pub prev: Atomic<VersionNode<T>>,
}

/// Decoded lock-word state returned by [`TxSlot::probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotProbe {
    pub locked: bool,
    /// Birth timestamp of the lock owner (valid while `locked`; 0 if the
    /// owner has not been recorded yet).
    pub owner: u64,
    /// Version carried by the lock word (the pre-lock version while
    /// locked).
    pub version: u64,
}

/// A transactional shared register — the paper's shared memory
/// "partitioned into shared registers, supporting atomic reads/writes,
/// and metadata used for synchronization": a versioned lock word, the
/// lock owner, the announced write version and the head of the value's
/// version chain. 32 bytes in release builds.
///
/// A cell is never owned on its own: it lives in a [`crate::TVar`] (one
/// cell) or a [`crate::TVarArray`] (many, in one allocation), and is
/// reached through one of those handles or through a value read under
/// an epoch pin. It has no public constructor. Its methods — `read`,
/// `write`, `read_in`, `peek`, … — are in `tvar.rs`.
pub struct TCell<T> {
    lockword: AtomicU64,
    owner: AtomicU64,
    /// Write version the current lock holder will publish at, or 0 while
    /// no committer has announced one (unlocked, or locked but the clock
    /// has not been advanced yet — the "acquiring" sentinel window).
    ///
    /// Snapshot readers holding bound `rv` use this to stay wait-free
    /// against committers: if the announced `wv > rv`, the committer's
    /// entire write set commits *after* the reader's cut, so the pre-lock
    /// chain already holds every version `<= rv` and the reader can walk
    /// it without arbitrating (see DESIGN.md "MVCC read path" for the
    /// ordering proof).
    pending_wv: AtomicU64,
    /// Newest committed version; older ones hang behind it for as long
    /// as the snapshot watermark passed to publish says a live bound can
    /// still reach them.
    head: Atomic<VersionNode<T>>,
    /// Identifier of the [`crate::Stm`] this cell is tagged to, or 0 for
    /// untagged cells. Mixing cells across STM instances breaks version
    /// ordering; the tag lets debug builds catch it, and release builds
    /// do not carry it.
    #[cfg(debug_assertions)]
    stm_id: u64,
}

impl<T: TxValue> TCell<T> {
    pub(crate) fn new(value: T, stm_id: u64) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = stm_id;
        let node = Owned::new(VersionNode { version: 0, value, prev: Atomic::null() });
        Self {
            lockword: AtomicU64::new(0),
            owner: AtomicU64::new(0),
            pending_wv: AtomicU64::new(0),
            head: Atomic::from(node),
            #[cfg(debug_assertions)]
            stm_id,
        }
    }

    /// Debug builds: panics when the cell is tagged to an STM other than
    /// `stm_id`. Release builds check nothing.
    #[inline]
    pub(crate) fn debug_check_stm(&self, stm_id: u64) {
        #[cfg(debug_assertions)]
        assert!(
            self.stm_id == 0 || self.stm_id == stm_id,
            "TVar used with an Stm instance other than the one that created it"
        );
        #[cfg(not(debug_assertions))]
        let _ = stm_id;
    }

    /// Write version announced by the current lock holder, or 0 while
    /// none is announced (the sentinel). Acquire: pairs with the Release
    /// store in [`TxSlot::publish_wv`], so a reader that observes `wv`
    /// also observes every chain publication that happened before the
    /// announcing committer acquired its locks.
    #[inline]
    pub(crate) fn pending_wv(&self) -> u64 {
        self.pending_wv.load(Ordering::Acquire)
    }

    /// Stable identity of the location (used for write-set ordering and
    /// conflict reporting).
    #[inline]
    pub(crate) fn address(&self) -> usize {
        self as *const Self as *const () as usize
    }

    /// The committed head node under the TL2 `(lockword, head,
    /// lockword)` double-check, or the lock owner's birth timestamp while
    /// the location is locked. The node was the head throughout the
    /// interval between the two lock-word loads: versions strictly
    /// increase, so equal unlocked words rule out any lock/publish cycle
    /// in between.
    #[inline]
    pub(crate) fn committed_head<'g>(
        &'g self,
        guard: &'g Guard,
    ) -> Result<&'g VersionNode<T>, u64> {
        loop {
            let l1 = self.lockword.load(Ordering::Acquire);
            if l1 & LOCKED != 0 {
                return Err(self.owner.load(Ordering::Relaxed));
            }
            let head = self.head.load(Ordering::Acquire, guard);
            if self.lockword.load(Ordering::Acquire) != l1 {
                continue;
            }
            // SAFETY: `head` was read under `guard` and is never null;
            // while the location lives (the borrow of `self`), a node is
            // freed only by deferred destruction after it was unlinked,
            // so the reference is valid for the lifetime of the pin.
            // Exercised under ASan by every transactional read and, on
            // the descriptor-free path, by
            // `polytm-kv/tests/point_reads.rs::direct_gets_are_linearizable_beside_puts_deletes_and_doublings`.
            let node = unsafe { head.deref() };
            debug_assert_eq!(node.version, l1 >> 1, "head version must match lock word");
            return Ok(node);
        }
    }

    /// The latest committed value by reference, under the double-check
    /// of [`TCell::committed_head`]; `None` while the location is
    /// locked.
    #[inline]
    pub(crate) fn committed_value<'g>(&'g self, guard: &'g Guard) -> Option<&'g T> {
        self.committed_head(guard).ok().map(|node| &node.value)
    }

    /// The newest committed value, by reference, for as long as `guard`
    /// stays pinned: one Acquire load of the head and nothing else — no
    /// lock-word double-check (a head pointer is only ever stored after
    /// its node is complete, so whatever the load returns is a value
    /// some commit published), no clone, no version. Hint-grade: the
    /// caller learns neither when the value was current nor whether it
    /// still is. The borrow of `self` is part of the result's lifetime
    /// because dropping the location frees its whole chain at once.
    pub(crate) fn head_value<'g>(&'g self, guard: &'g Guard) -> &'g T {
        let head = self.head.load(Ordering::Acquire, guard);
        // SAFETY: as in `committed_head` — `head` was read under
        // `guard`, is never null, and while the location lives a node
        // is freed only by deferred destruction after it was unlinked,
        // so the reference is valid for the lifetime of the pin.
        &unsafe { head.deref() }.value
    }

    /// Multi-version read: the newest committed version with
    /// `version <= bound`, walking the history chain. Returns `None` when
    /// the history has been truncated past `bound`.
    pub(crate) fn snapshot_node<'g>(
        &'g self,
        bound: u64,
        guard: &'g Guard,
    ) -> Option<&'g VersionNode<T>> {
        let mut cur = self.head.load(Ordering::Acquire, guard);
        while !cur.is_null() {
            // SAFETY: chain nodes are epoch-protected (see above).
            // Exercised under ASan by `tests::snapshot_walks_history`.
            let node = unsafe { cur.deref() };
            if node.version <= bound {
                return Some(node);
            }
            cur = node.prev.load(Ordering::Acquire, guard);
        }
        None
    }

    /// Publishes `value` as the new head version and releases the lock
    /// with `new_version`, as if no snapshot were live (watermark
    /// `u64::MAX`: the new head is all that survives). Must be called
    /// while holding the lock. (Production paths publish through
    /// [`TCell::publish_with`] with a cached guard; this convenience
    /// wrapper serves the unit tests.)
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn publish(&self, value: T, new_version: u64) {
        self.publish_with(value, new_version, u64::MAX, &epoch::pin());
    }

    /// [`TCell::publish`] under a caller-supplied epoch guard, so a
    /// commit publishing many locations pins once instead of per
    /// location. `watermark` is the oldest live snapshot bound: versions
    /// above it, plus the newest version at or below it, stay reachable;
    /// everything older is severed.
    pub(crate) fn publish_with(&self, value: T, new_version: u64, watermark: u64, guard: &Guard) {
        debug_assert!(self.lockword.load(Ordering::Relaxed) & LOCKED != 0);
        let old_head = self.head.load(Ordering::Relaxed, guard);
        let node = Owned::new(VersionNode { version: new_version, value, prev: Atomic::null() });
        node.prev.store(old_head, Ordering::Relaxed);
        self.head.store(node, Ordering::Release);
        self.truncate_history(watermark, guard);
        self.owner.store(0, Ordering::Relaxed);
        // Withdraw any announced write version *before* the lock word is
        // released: the Release store below orders this clear ahead of
        // the unlock for every reader that still observes the lock bit
        // (through the lock word's release sequence), so a stale wv can
        // never be attributed to a later lock holder.
        self.pending_wv.store(0, Ordering::Relaxed);
        self.lockword.store(new_version << 1, Ordering::Release);
    }

    /// Severs and defer-destroys the chain nodes no snapshot bound
    /// `>= watermark` can reach. A node is reachable by bound `b` iff it
    /// is the newest node with `version <= b`; so the retained set is
    /// every node with `version > watermark` plus the newest node at or
    /// below the watermark — with no live snapshot (`watermark` = the
    /// publishing commit's own version) that is the head alone. Caller
    /// must hold the lock (the chain is only mutated by lock holders, so
    /// the walk is race-free).
    fn truncate_history(&self, watermark: u64, guard: &Guard) {
        let mut cur = self.head.load(Ordering::Relaxed, guard);
        while !cur.is_null() {
            // SAFETY: lock held; nodes reachable and epoch-protected.
            // Exercised under ASan by
            // `tests::history_truncation_bounds_the_chain`.
            let node = unsafe { cur.deref() };
            let next = node.prev.load(Ordering::Relaxed, guard);
            if node.version <= watermark {
                // The newest node at or below the watermark: everything
                // older is unreachable by any live snapshot bound.
                if !next.is_null() {
                    node.prev.store(epoch::Shared::null(), Ordering::Release);
                    // Defer-destroy the severed suffix node by node.
                    let mut dead = next;
                    while !dead.is_null() {
                        // SAFETY: severed nodes are unreachable from the
                        // new chain; concurrent snapshot readers pinned
                        // before the severing may still hold them, which
                        // is exactly what deferred destruction protects.
                        // Exercised under ASan by
                        // `tests::history_truncation_bounds_the_chain`.
                        let after = unsafe { dead.deref() }.prev.load(Ordering::Relaxed, guard);
                        // SAFETY: as above — `dead` is unlinked, and
                        // destruction waits until every pin that could
                        // still hold it is released. Exercised under ASan
                        // by `tests::history_truncation_bounds_the_chain`.
                        unsafe { guard.defer_destroy(dead) };
                        dead = after;
                    }
                }
                return;
            }
            cur = next;
        }
    }
}

impl<T> Drop for TCell<T> {
    fn drop(&mut self) {
        // SAFETY: we have exclusive access (`&mut self` through drop): a
        // cell is dropped only by the epoch reclaimer, after the last
        // handle and every pin that could reach it are gone (tvar.rs),
        // so the chain can be freed eagerly.
        // Exercised under ASan by `tests::snapshot_walks_history`, which
        // drops a four-node chain.
        unsafe {
            let guard = epoch::unprotected();
            let mut cur = self.head.load(Ordering::Relaxed, guard);
            while !cur.is_null() {
                let owned = cur.into_owned();
                cur = owned.prev.load(Ordering::Relaxed, guard);
                drop(owned);
            }
        }
    }
}

/// Object-safe view of a `TCell<T>` used by the transaction runtime for
/// type-erased read/write sets.
pub(crate) trait TxSlot: Send + Sync {
    /// Decode the current lock word.
    fn probe(&self) -> SlotProbe;
    /// Try to acquire the commit lock for owner `owner_ts`. On success
    /// returns the pre-lock version; on failure the current owner's
    /// timestamp.
    fn try_lock(&self, owner_ts: u64) -> Result<u64, u64>;
    /// Release the lock without publishing (abort path), restoring the
    /// pre-lock version and withdrawing any announced write version.
    fn unlock_restore(&self, prior_version: u64);
    /// Announce the write version this lock holder will publish at, so
    /// snapshot readers with an older bound can walk the version chain
    /// without arbitrating. Must be called while holding the lock;
    /// cleared again by publish/`unlock_restore`.
    fn publish_wv(&self, wv: u64);
    /// Publish the buffered value in `payload` (leaving it empty) and
    /// release the lock with `new_version`, truncating history no deeper
    /// than the snapshot `watermark` allows.
    ///
    /// # Panics
    /// Panics if the payload is empty or does not hold the location's
    /// value type — impossible through the public API, which pairs
    /// write-set entries with the `TVar` that created them.
    fn publish_payload(
        &self,
        payload: &mut WritePayload,
        new_version: u64,
        watermark: u64,
        guard: &Guard,
    );
}

impl<T: TxValue> TxSlot for TCell<T> {
    fn probe(&self) -> SlotProbe {
        let w = self.lockword.load(Ordering::Acquire);
        let locked = w & LOCKED != 0;
        SlotProbe {
            locked,
            // The owner word is only meaningful while locked; skipping
            // the load in the common unlocked case halves the cost of
            // the validation probes.
            owner: if locked { self.owner.load(Ordering::Relaxed) } else { 0 },
            version: w >> 1,
        }
    }

    fn try_lock(&self, owner_ts: u64) -> Result<u64, u64> {
        let cur = self.lockword.load(Ordering::Relaxed);
        if cur & LOCKED != 0 {
            return Err(self.owner.load(Ordering::Relaxed));
        }
        match self.lockword.compare_exchange(
            cur,
            cur | LOCKED,
            Ordering::Acquire,
            Ordering::Relaxed,
        ) {
            Ok(_) => {
                self.owner.store(owner_ts, Ordering::Relaxed);
                Ok(cur >> 1)
            }
            Err(_) => Err(self.owner.load(Ordering::Relaxed)),
        }
    }

    fn unlock_restore(&self, prior_version: u64) {
        debug_assert!(self.lockword.load(Ordering::Relaxed) & LOCKED != 0);
        self.owner.store(0, Ordering::Relaxed);
        // Sequenced before the Release unlock, like in `publish_with`:
        // covers the abort-after-announce path (validation failure after
        // the clock was advanced).
        self.pending_wv.store(0, Ordering::Relaxed);
        self.lockword.store(prior_version << 1, Ordering::Release);
    }

    fn publish_wv(&self, wv: u64) {
        debug_assert!(self.lockword.load(Ordering::Relaxed) & LOCKED != 0);
        debug_assert!(wv != 0, "write versions start at 1");
        // Release: a snapshot reader that Acquire-loads this value also
        // sees every chain publication ordered before our lock
        // acquisitions, which is what makes its unarbitrated chain walk
        // complete up to its bound (DESIGN.md "MVCC read path").
        self.pending_wv.store(wv, Ordering::Release);
    }

    fn publish_payload(
        &self,
        payload: &mut WritePayload,
        new_version: u64,
        watermark: u64,
        guard: &Guard,
    ) {
        let value = payload.take::<T>().expect("write payload present at publish");
        self.publish_with(value, new_version, watermark, guard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_epoch as epoch;

    fn snap(core: &TCell<i64>, bound: u64, guard: &Guard) -> Option<(i64, u64)> {
        core.snapshot_node(bound, guard).map(|node| (node.value, node.version))
    }

    fn value_of(core: &TCell<i64>) -> (i64, u64) {
        let guard = epoch::pin();
        let node = core.committed_head(&guard).expect("unexpected lock");
        (node.value, node.version)
    }

    #[test]
    fn fresh_var_reads_initial_value_at_version_zero() {
        let core = TCell::new(42i64, 0);
        assert_eq!(value_of(&core), (42, 0));
    }

    #[test]
    fn lock_publish_unlock_cycle() {
        let core = TCell::new(1i64, 0);
        let prior = core.try_lock(7).expect("lock must succeed");
        assert_eq!(prior, 0);
        // Locked: probe reports owner, committed read reports lock.
        let p = core.probe();
        assert!(p.locked);
        assert_eq!(p.owner, 7);
        let guard = epoch::pin();
        assert_eq!(core.committed_head(&guard).err(), Some(7), "must observe the lock");
        drop(guard);
        core.publish(2, 5);
        assert_eq!(value_of(&core), (2, 5));
        assert!(!core.probe().locked);
    }

    #[test]
    fn peek_committed_sees_the_head_and_refuses_a_locked_slot() {
        let core = TCell::new(1i64, 0);
        let guard = epoch::pin();
        assert_eq!(core.committed_value(&guard), Some(&1));
        core.try_lock(7).unwrap();
        assert_eq!(core.committed_value(&guard), None, "a locked slot is never peeked");
        core.publish(2, 5);
        assert_eq!(core.committed_value(&guard), Some(&2));
    }

    #[test]
    fn double_lock_fails_with_owner() {
        let core = TCell::new(0i64, 0);
        core.try_lock(3).unwrap();
        assert_eq!(core.try_lock(9), Err(3));
        core.unlock_restore(0);
        assert_eq!(core.try_lock(9), Ok(0));
        core.unlock_restore(0);
    }

    #[test]
    fn unlock_restore_keeps_version() {
        let core = TCell::new(0i64, 0);
        core.try_lock(1).unwrap();
        core.publish(10, 8);
        core.try_lock(2).unwrap();
        core.unlock_restore(8);
        assert_eq!(value_of(&core), (10, 8));
    }

    #[test]
    fn snapshot_walks_history() {
        let core = TCell::new(0i64, 0);
        let guard = epoch::pin();
        // A snapshot registered before every publish (watermark 0) keeps
        // the whole chain walkable.
        for (v, ver) in [(1i64, 10u64), (2, 20), (3, 30)] {
            core.try_lock(1).unwrap();
            core.publish_with(v, ver, 0, &guard);
        }
        assert_eq!(snap(&core, u64::MAX, &guard), Some((3, 30)));
        assert_eq!(snap(&core, 29, &guard), Some((2, 20)));
        assert_eq!(snap(&core, 20, &guard), Some((2, 20)));
        assert_eq!(snap(&core, 15, &guard), Some((1, 10)));
        assert_eq!(snap(&core, 9, &guard), Some((0, 0)));
    }

    #[test]
    fn history_truncation_bounds_the_chain() {
        let core = TCell::new(0i64, 0);
        let guard = epoch::pin();
        // The oldest live bound trails the writer by 25 ticks: each
        // publish keeps the versions above it plus the one it resolves
        // to, so the chain stays four nodes long however many commits
        // pass.
        for i in 1..=10u64 {
            core.try_lock(1).unwrap();
            core.publish_with(i as i64, i * 10, (i * 10).saturating_sub(25), &guard);
        }
        assert_eq!(snap(&core, u64::MAX, &guard), Some((10, 100)));
        assert_eq!(snap(&core, 95, &guard), Some((9, 90)));
        assert_eq!(snap(&core, 85, &guard), Some((8, 80)));
        assert_eq!(snap(&core, 75, &guard), Some((7, 70)), "what bound 75 resolves to");
        // anything older is gone
        assert_eq!(snap(&core, 69, &guard), None);
    }

    #[test]
    fn zero_history_keeps_only_head() {
        let core = TCell::new(0i64, 0);
        // No snapshot live: every publish severs all it supersedes.
        core.try_lock(1).unwrap();
        core.publish(1, 10);
        core.try_lock(1).unwrap();
        core.publish(2, 20);
        let guard = epoch::pin();
        assert_eq!(snap(&core, u64::MAX, &guard), Some((2, 20)));
        assert_eq!(snap(&core, 19, &guard), None);
    }

    #[test]
    fn publish_payload_downcasts() {
        let core = TCell::new(String::from("a"), 0);
        core.try_lock(1).unwrap();
        let mut payload = WritePayload::new(String::from("b"));
        let guard = epoch::pin();
        TxSlot::publish_payload(&core, &mut payload, 3, u64::MAX, &guard);
        assert!(payload.is_empty(), "payload moved out at publish");
        let node = core.committed_head(&guard).expect("unlocked");
        assert_eq!((node.value.as_str(), node.version), ("b", 3));
    }

    #[test]
    #[should_panic(expected = "write payload type must match")]
    fn publish_payload_wrong_type_panics() {
        let core = TCell::new(0i64, 0);
        core.try_lock(1).unwrap();
        let mut payload = WritePayload::new("wrong");
        let guard = epoch::pin();
        TxSlot::publish_payload(&core, &mut payload, 3, u64::MAX, &guard);
    }

    #[test]
    fn pending_wv_lifecycle_publish_and_abort() {
        let core = TCell::new(0i64, 0);
        assert_eq!(core.pending_wv(), 0, "fresh var has no announced wv");
        core.try_lock(1).unwrap();
        assert_eq!(core.pending_wv(), 0, "locking alone is the sentinel");
        TxSlot::publish_wv(&core, 9);
        assert_eq!(core.pending_wv(), 9);
        core.publish(1, 9);
        assert_eq!(core.pending_wv(), 0, "publish withdraws the announcement");
        core.try_lock(2).unwrap();
        TxSlot::publish_wv(&core, 12);
        core.unlock_restore(9);
        assert_eq!(core.pending_wv(), 0, "abort withdraws the announcement");
        assert_eq!(value_of(&core), (1, 9));
    }

    #[test]
    fn watermark_retains_every_version_a_live_bound_can_reach() {
        let core = TCell::new(0i64, 0);
        let guard = epoch::pin();
        // A live snapshot bound of 15 forces retention of version 10
        // (the newest <= 15) no matter how deep the chain grows.
        for i in 1..=10u64 {
            core.try_lock(1).unwrap();
            core.publish_with(i as i64, i * 10, 15, &guard);
        }
        assert_eq!(snap(&core, 15, &guard), Some((1, 10)));
        // Everything newer than the watermark cut is retained too: a
        // bound registered later may resolve to any of it.
        for i in 2..=10u64 {
            assert_eq!(snap(&core, i * 10, &guard), Some((i as i64, i * 10)));
        }
        // ...but nothing older than the watermark cut survives.
        assert_eq!(snap(&core, 9, &guard), None);
    }

    #[test]
    fn watermark_above_head_reduces_to_head_only_retention() {
        let core = TCell::new(0i64, 0);
        let guard = epoch::pin();
        for i in 1..=10u64 {
            core.try_lock(1).unwrap();
            // Watermark ahead of every version: nothing old is live.
            core.publish_with(i as i64, i * 10, 1_000, &guard);
        }
        assert_eq!(snap(&core, u64::MAX, &guard), Some((10, 100)));
        assert_eq!(snap(&core, 99, &guard), None);
    }

    #[test]
    fn released_bound_lets_the_next_publish_shed_what_it_pinned() {
        let core = TCell::new(0i64, 0);
        let guard = epoch::pin();
        for i in 1..=5u64 {
            core.try_lock(1).unwrap();
            core.publish_with(i as i64, i * 10, 0, &guard);
        }
        assert_eq!(snap(&core, 0, &guard), Some((0, 0)), "pinned by the live bound");
        // The bound is released: one more publish keeps the head only.
        core.try_lock(1).unwrap();
        core.publish_with(6, 60, 60, &guard);
        assert_eq!(snap(&core, u64::MAX, &guard), Some((6, 60)));
        assert_eq!(snap(&core, 59, &guard), None);
    }

    #[test]
    fn watermark_zero_retains_the_whole_chain() {
        let core = TCell::new(0i64, 0);
        let guard = epoch::pin();
        // A snapshot pinned before every publish keeps all history: the
        // initial version-0 node is the watermark cut and everything
        // newer stays.
        for i in 1..=6u64 {
            core.try_lock(1).unwrap();
            core.publish_with(i as i64, i * 10, 0, &guard);
        }
        for i in 1..=6u64 {
            assert_eq!(snap(&core, i * 10, &guard), Some((i as i64, i * 10)));
        }
        assert_eq!(snap(&core, 0, &guard), Some((0, 0)));
    }
}

//! Registry of live snapshot read bounds, driving version retention.
//!
//! A version chain is kept exactly as long as the demand for it: every
//! top-level snapshot transaction registers its read bound in a slot
//! here, and committers compute a **watermark** — the oldest registered
//! bound, clamped to their own write version — below which no live
//! snapshot can ever read. [`crate::TCell`]'s truncation keeps what a
//! bound at or above the watermark can still reach and nothing else —
//! there is no fixed-depth floor — so with no snapshot registered a
//! publish keeps the new head only.
//!
//! The one reader this leaves without cover is a snapshot block nested
//! in an *optimistic* parent: it inherits a bound the parent sampled
//! without registering, and registers it late. Whatever was overwritten
//! in between is already gone — such a block sees
//! `Abort::SnapshotUnavailable` and the whole transaction re-runs with a
//! fresh bound.
//!
//! ## Why a missed registration is still safe
//!
//! Registration (a SeqCst CAS followed by a SeqCst fence) happens before
//! the snapshot samples its read version; a committer advances the clock
//! (an RMW) and then — behind a SeqCst fence — scans the slots. Suppose
//! the committer's scan misses a reader's registration. Then the
//! committer's fence precedes the reader's fence in the total order of
//! SeqCst operations, so the reader's subsequent clock sample observes
//! at least the committer's `wv`: the reader's bound `rv >= c0 >= wv`.
//! The watermark is clamped to `wv` (`watermark <= wv <= rv`), so the
//! truncation this committer performs never severs a version the missed
//! reader could still need. Readers the scan *does* see are protected
//! directly by the min. Consequently a registered top-level snapshot
//! can only lose a version to truncation if it never got a slot (the
//! registry was full) — reported as a distinct capacity abort.

use crossbeam_utils::CachePadded;
use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::shard::current_thread_index;

/// Number of registration slots. Snapshots beyond this many concurrent
/// registrants run unregistered — nothing retains history on their
/// behalf — and abort with a capacity error when an overwrite outruns
/// them.
const SNAP_SLOTS: usize = 64;

/// Sentinel for a free slot.
const FREE: u64 = u64::MAX;

/// Fixed-size table of live snapshot read bounds.
///
/// One per [`crate::Stm`]. Registration is wait-free in the common case
/// (one CAS starting from a per-thread hint); the committer-side
/// watermark scan is a bounded read-only sweep.
#[derive(Debug)]
pub(crate) struct SnapshotRegistry {
    slots: Box<[CachePadded<AtomicU64>]>,
}

impl SnapshotRegistry {
    pub(crate) fn new() -> Self {
        Self { slots: (0..SNAP_SLOTS).map(|_| CachePadded::new(AtomicU64::new(FREE))).collect() }
    }

    /// Registers a snapshot read bound and returns the slot index, or
    /// `None` when every slot is taken. SeqCst CAS + fence: must be
    /// ordered before the caller's clock sample so the Dekker-style
    /// argument in the module docs holds.
    pub(crate) fn register(&self, bound: u64) -> Option<usize> {
        debug_assert!(bound != FREE, "a real clock value never reaches u64::MAX");
        let start = current_thread_index();
        for i in 0..SNAP_SLOTS {
            let idx = (start + i) & (SNAP_SLOTS - 1);
            if self.slots[idx]
                .compare_exchange(FREE, bound, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                fence(Ordering::SeqCst);
                return Some(idx);
            }
        }
        None
    }

    /// Frees a slot returned by [`SnapshotRegistry::register`].
    pub(crate) fn release(&self, idx: usize) {
        debug_assert!(self.slots[idx].load(Ordering::Relaxed) != FREE, "double release");
        self.slots[idx].store(FREE, Ordering::Release);
    }

    /// Oldest registered bound, clamped to `ceiling` (the calling
    /// committer's own write version). The clamp is what keeps missed
    /// registrations safe — see the module docs.
    pub(crate) fn watermark(&self, ceiling: u64) -> u64 {
        // Ordered after the caller's clock advance in the SeqCst total
        // order, pairing with the fence in `register`.
        fence(Ordering::SeqCst);
        let mut min = ceiling;
        for slot in self.slots.iter() {
            let b = slot.load(Ordering::Acquire);
            if b < min {
                min = b;
            }
        }
        min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_registry_watermark_is_the_ceiling() {
        let reg = SnapshotRegistry::new();
        assert_eq!(reg.watermark(42), 42);
        assert_eq!(reg.watermark(u64::MAX), u64::MAX);
    }

    #[test]
    fn watermark_is_the_oldest_live_bound() {
        let reg = SnapshotRegistry::new();
        let a = reg.register(30).unwrap();
        let b = reg.register(10).unwrap();
        let c = reg.register(20).unwrap();
        assert_eq!(reg.watermark(100), 10);
        reg.release(b);
        assert_eq!(reg.watermark(100), 20);
        reg.release(c);
        assert_eq!(reg.watermark(100), 30);
        reg.release(a);
        assert_eq!(reg.watermark(100), 100);
    }

    #[test]
    fn ceiling_clamps_below_registered_bounds() {
        let reg = SnapshotRegistry::new();
        let a = reg.register(50).unwrap();
        assert_eq!(reg.watermark(7), 7, "own wv caps the watermark");
        reg.release(a);
    }

    #[test]
    fn registry_fills_up_and_recovers() {
        let reg = SnapshotRegistry::new();
        let slots: Vec<usize> = (0..SNAP_SLOTS as u64).map(|i| reg.register(i).unwrap()).collect();
        assert_eq!(reg.register(99), None, "no free slot left");
        assert_eq!(reg.watermark(u64::MAX), 0);
        for s in slots {
            reg.release(s);
        }
        assert!(reg.register(99).is_some());
    }

    #[test]
    fn slots_are_distinct() {
        let reg = SnapshotRegistry::new();
        let a = reg.register(1).unwrap();
        let b = reg.register(2).unwrap();
        assert_ne!(a, b);
        reg.release(a);
        reg.release(b);
    }
}

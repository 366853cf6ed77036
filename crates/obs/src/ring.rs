//! The per-thread event ring: a bounded single-producer single-consumer
//! queue of [`TraceEvent`]s that sheds load instead of blocking.
//!
//! ## Design
//!
//! The ring is the classic Lamport SPSC queue with one twist: when the
//! consumer falls behind, the producer **drops the new event and counts
//! it** — it never overwrites unconsumed slots and never waits. That
//! choice is what makes the tearing argument trivial:
//!
//! * the producer writes a slot *before* publishing it with a `Release`
//!   store of `head`;
//! * the consumer reads `head` with `Acquire` and only touches slots
//!   below it;
//! * the producer never rewrites a slot until the consumer has
//!   published (`Release` store of `tail`) that it is past it, which
//!   the producer observes with an `Acquire` load.
//!
//! Every slot read therefore happens-after the slot write it observes,
//! and no slot is concurrently written and read: events cannot tear.
//! The hot path is one plain 32-byte slot write plus one `Release`
//! store of `head` (a plain store on x86) — the "one relaxed-store
//! cost" budget in DESIGN.md §11. The producer caches `tail` and only
//! reloads it when the cached value makes the ring look full, so the
//! common case does not even read the consumer's cache line.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

use polytm::TraceEvent;

/// A bounded SPSC ring of [`TraceEvent`]s with drop-and-count overflow.
///
/// The type itself does not enforce the single-producer/single-consumer
/// roles (both entry points take `&self` so the tracer can share rings
/// between its writer threads and drain loop); the owner must. In this
/// crate, [`crate::RingTracer`] hands each ring to exactly one producer
/// thread via a thread-local and serializes all consumers behind one
/// drain lock.
pub struct EventRing {
    slots: Box<[UnsafeCell<TraceEvent>]>,
    /// Next slot the producer will write (monotonic; slot = head % cap).
    head: AtomicU64,
    /// Next slot the consumer will read (monotonic).
    tail: AtomicU64,
    /// Producer's cached copy of `tail` (plain u64 behind an atomic for
    /// `&self` access; only the producer touches it).
    cached_tail: AtomicU64,
    /// Events shed because the ring was full. Only the producer writes
    /// it, so a load+store pair (no RMW) keeps the count exact.
    dropped: AtomicU64,
}

// SAFETY: all cross-thread slot access is ordered by the head/tail
// acquire/release protocol described in the module docs; the roles
// discipline (one producer, one consumer at a time) is upheld by the
// owner per the type docs. Exercised under ASan by
// `tests/overflow.rs::fast_writer_slow_reader_never_blocks_and_never_tears`.
unsafe impl Sync for EventRing {}
// SAFETY: the ring owns its slots outright (plain `TraceEvent`s, no
// borrowed or thread-bound data), so moving it to another thread moves
// nothing a thread could still reach; the same test hands rings across
// threads inside `Arc`s.
unsafe impl Send for EventRing {}

impl EventRing {
    /// A ring with capacity for `capacity` events (rounded up to a
    /// power of two, minimum 8).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        Self {
            slots: (0..cap).map(|_| UnsafeCell::new(TraceEvent::default())).collect(),
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            cached_tail: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of event slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Producer side: append `ev`, or drop it (counting) when the ring
    /// is full. Never blocks. Returns whether the event was stored.
    #[inline]
    pub fn push(&self, ev: TraceEvent) -> bool {
        let head = self.head.load(Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let mut tail = self.cached_tail.load(Ordering::Relaxed);
        if head - tail >= cap {
            // Looks full through the cache: reload the consumer's real
            // position once before shedding.
            tail = self.tail.load(Ordering::Acquire);
            self.cached_tail.store(tail, Ordering::Relaxed);
            if head - tail >= cap {
                let d = self.dropped.load(Ordering::Relaxed);
                self.dropped.store(d + 1, Ordering::Relaxed);
                return false;
            }
        }
        let slot = self.slots[(head % cap) as usize].get();
        // SAFETY: slot `head` is above every consumer position (the
        // acquire load of `tail` proves the consumer is at or below
        // `tail` <= head) and no other producer exists, so this write
        // is exclusive until the release store below publishes it.
        unsafe { slot.write(ev) };
        self.head.store(head + 1, Ordering::Release);
        true
    }

    /// Consumer side: move every published event into `out`. Never
    /// blocks the producer; returns how many events were drained.
    pub fn drain_into(&self, out: &mut Vec<TraceEvent>) -> usize {
        let head = self.head.load(Ordering::Acquire);
        let mut tail = self.tail.load(Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let n = (head - tail) as usize;
        out.reserve(n);
        while tail < head {
            // SAFETY: `tail < head` with `head` acquire-loaded, so the
            // producer's write of this slot happens-before this read,
            // and the producer will not rewrite it until it observes
            // the tail store below.
            out.push(unsafe { *self.slots[(tail % cap) as usize].get() });
            tail += 1;
        }
        self.tail.store(tail, Ordering::Release);
        n
    }

    /// Events shed so far because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Published events currently waiting to be drained.
    pub fn len(&self) -> usize {
        (self.head.load(Ordering::Acquire) - self.tail.load(Ordering::Relaxed)) as usize
    }

    /// True when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u32) -> TraceEvent {
        TraceEvent { ts_ns: u64::from(n), code: 1, sub: 0, class: 0, n, a: 0, b: 0 }
    }

    #[test]
    fn fills_then_sheds_then_resumes_after_drain() {
        let r = EventRing::new(8);
        for i in 0..8 {
            assert!(r.push(ev(i)));
        }
        assert!(!r.push(ev(99)));
        assert!(!r.push(ev(100)));
        assert_eq!(r.dropped(), 2);
        let mut out = Vec::new();
        assert_eq!(r.drain_into(&mut out), 8);
        assert_eq!(out.iter().map(|e| e.n).collect::<Vec<_>>(), (0..8).collect::<Vec<_>>());
        assert!(r.push(ev(8)), "space reclaimed after drain");
        assert_eq!(r.dropped(), 2, "drop count is cumulative, not reset by drain");
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(EventRing::new(0).capacity(), 8);
        assert_eq!(EventRing::new(9).capacity(), 16);
        assert_eq!(EventRing::new(1024).capacity(), 1024);
    }

    #[test]
    fn drain_preserves_order_across_wrap() {
        let r = EventRing::new(8);
        let mut out = Vec::new();
        let mut next = 0u32;
        for _ in 0..5 {
            for _ in 0..6 {
                assert!(r.push(ev(next)));
                next += 1;
            }
            r.drain_into(&mut out);
        }
        assert_eq!(out.len(), 30);
        assert!(out.windows(2).all(|w| w[1].n == w[0].n + 1), "FIFO across wraparound");
    }
}

//! Pooled, allocation-free transaction descriptors.
//!
//! The seed runtime allocated two SipHash `HashMap`s, two `Vec`s and a
//! `VecDeque` per transaction *attempt*, boxed every buffered write, and
//! rebuilt commit scratch (`order`/`acquired`/`prior_of`) per commit.
//! This module provides the reusable state behind a
//! [`crate::Transaction`]:
//!
//! * [`TxDescriptor`] — every growable buffer a transaction needs, kept
//!   in a thread-local pool ([`take_descriptor`]/[`stash_descriptor`])
//!   and reused across attempts and across transactions. The steady
//!   state performs **zero** heap allocation per transaction.
//! * [`AddrIndex`] — an open-addressed address→index map with an
//!   FxHash-style multiplicative hash and a linear-scan fast path for
//!   the small read/write sets that dominate real workloads.
//! * [`WritePayload`] — type-erased buffered write values with inline
//!   storage for payloads up to 3 machine words (counters, `Arc` nodes,
//!   small structs), falling back to boxing only for larger types.

use std::any::{Any, TypeId};
use std::cell::Cell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::ptr::NonNull;

use crate::tvar::TxValue;
use crate::varcore::TxSlot;

// ---------------------------------------------------------------------
// WritePayload
// ---------------------------------------------------------------------

/// Inline storage: 3 words covers `u64`/`i64` counters, `Arc`/`Option
/// <Arc>` links, and small value structs, i.e. the payloads of every
/// structure in `polytm-structures`. Re-exported as
/// [`crate::INLINE_WRITE_WORDS`] so value types can be *designed* to
/// fit (see `polytm-kv`'s `Value`, which `Arc`-boxes large byte
/// payloads precisely to stay under this budget).
pub const INLINE_WRITE_WORDS: usize = 3;
const INLINE_BYTES: usize = INLINE_WRITE_WORDS * 8;

/// Does a buffered write of `T` use the descriptor's inline payload
/// storage? Re-exported as [`crate::write_payload_fits_inline`]; the
/// condition is the exact branch [`WritePayload::new`] takes, so a
/// `true` here guarantees the allocation-free inline path.
pub const fn fits_inline<T>() -> bool {
    size_of::<T>() <= INLINE_BYTES && align_of::<T>() <= align_of::<u64>()
}

enum PayloadState {
    /// No value (entry superseded by a later eager write, or already
    /// published).
    Empty,
    /// Value stored inline. `drop_fn` destroys it in place when the
    /// payload is discarded without being published.
    Inline {
        data: [MaybeUninit<u64>; INLINE_WRITE_WORDS],
        ty: TypeId,
        drop_fn: unsafe fn(*mut u64),
    },
    /// Value too large (or over-aligned) for inline storage.
    Boxed(Box<dyn Any + Send>),
}

/// A buffered write value. Small `T`s live inline (no allocation); the
/// value is dropped exactly once — either moved out by
/// [`WritePayload::take`] at publish, or destroyed in place when the
/// payload is overwritten/cleared (abort, retry, pool reuse).
pub(crate) struct WritePayload(PayloadState);

unsafe fn drop_erased<T>(p: *mut u64) {
    // SAFETY: caller guarantees `p` points at a live, properly aligned
    // `T` stored by `WritePayload::new::<T>`. Exercised under ASan by
    // `tests::inline_payload_roundtrips_and_drops_once`.
    unsafe { std::ptr::drop_in_place(p.cast::<T>()) }
}

impl WritePayload {
    /// Buffers `value`, inline when it fits.
    #[inline]
    pub(crate) fn new<T: TxValue>(value: T) -> Self {
        // Const-foldable per T: exactly one branch survives codegen.
        if fits_inline::<T>() {
            let mut data = [MaybeUninit::<u64>::uninit(); INLINE_WRITE_WORDS];
            // SAFETY: size/alignment checked above; `data` is writable
            // and exclusively ours. Exercised under ASan by
            // `tests::inline_payload_roundtrips_and_drops_once`.
            unsafe { std::ptr::write(data.as_mut_ptr().cast::<T>(), value) };
            WritePayload(PayloadState::Inline {
                data,
                ty: TypeId::of::<T>(),
                drop_fn: drop_erased::<T>,
            })
        } else {
            WritePayload(PayloadState::Boxed(Box::new(value)))
        }
    }

    /// True when no value is buffered (superseded entry).
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        matches!(self.0, PayloadState::Empty)
    }

    /// Borrows the buffered value for read-own-write.
    ///
    /// # Panics
    /// Panics on a type mismatch — impossible through the public API,
    /// which pairs write-set entries with the `TVar` that created them.
    #[inline]
    pub(crate) fn get_ref<T: TxValue>(&self) -> Option<&T> {
        match &self.0 {
            PayloadState::Empty => None,
            PayloadState::Inline { data, ty, .. } => {
                assert_eq!(*ty, TypeId::of::<T>(), "write payload type must match the TVar type");
                // SAFETY: type checked above; value live while Inline.
                // Exercised under ASan by
                // `tests::small_string_and_arc_payloads_survive`.
                Some(unsafe { &*data.as_ptr().cast::<T>() })
            }
            PayloadState::Boxed(b) => {
                Some(b.downcast_ref::<T>().expect("write payload type must match the TVar type"))
            }
        }
    }

    /// Moves the value out, leaving the payload empty.
    ///
    /// # Panics
    /// Panics on a type mismatch (see [`WritePayload::get_ref`]).
    #[inline]
    pub(crate) fn take<T: TxValue>(&mut self) -> Option<T> {
        match &mut self.0 {
            PayloadState::Empty => None,
            PayloadState::Inline { data, ty, .. } => {
                assert_eq!(*ty, TypeId::of::<T>(), "write payload type must match the TVar type");
                // SAFETY: type checked; `ptr::read` moves the value out,
                // and the overwrite below uses `ptr::write` so the
                // now-logically-dead Inline state is not re-dropped.
                // Exercised under ASan by
                // `tests::inline_payload_roundtrips_and_drops_once`.
                let value = unsafe { std::ptr::read(data.as_ptr().cast::<T>()) };
                // SAFETY: overwriting the enum without running the old
                // state's drop glue — exactly what we need, since the
                // inline bytes were just moved out of. Exercised under
                // ASan by `tests::inline_payload_roundtrips_and_drops_once`.
                unsafe { std::ptr::write(&mut self.0, PayloadState::Empty) };
                Some(value)
            }
            PayloadState::Boxed(_) => {
                // PayloadState has no drop glue of its own (the Drop impl
                // lives on WritePayload), so plain moves are fine here.
                let PayloadState::Boxed(b) = std::mem::replace(&mut self.0, PayloadState::Empty)
                else {
                    unreachable!()
                };
                Some(*b.downcast::<T>().expect("write payload type must match the TVar type"))
            }
        }
    }

    /// Destroys any buffered value in place (supersede path).
    #[inline]
    pub(crate) fn dispose(&mut self) {
        match &mut self.0 {
            PayloadState::Empty => {}
            PayloadState::Inline { data, drop_fn, .. } => {
                let f = *drop_fn;
                let p = data.as_mut_ptr().cast::<u64>();
                // SAFETY: value is live while the state is Inline; the
                // overwrite below skips the old state's drop glue so it
                // is destroyed exactly once. Exercised under ASan by
                // `tests::inline_payload_roundtrips_and_drops_once`.
                unsafe {
                    f(p);
                    std::ptr::write(&mut self.0, PayloadState::Empty);
                }
            }
            PayloadState::Boxed(_) => {
                self.0 = PayloadState::Empty;
            }
        }
    }
}

impl Drop for WritePayload {
    fn drop(&mut self) {
        // Inline values need their erased destructor; a Boxed value is
        // freed by the ordinary field drop that follows this hook.
        if let PayloadState::Inline { data, drop_fn, .. } = &mut self.0 {
            // SAFETY: value live while Inline; dropped exactly once
            // because every move-out overwrites the state with Empty.
            // Exercised under ASan by
            // `tests::inline_payload_roundtrips_and_drops_once`.
            unsafe { drop_fn(data.as_mut_ptr().cast::<u64>()) }
        }
    }
}

// ---------------------------------------------------------------------
// AddrIndex
// ---------------------------------------------------------------------

/// Below this size lookups linear-scan a dense `(addr, idx)` array —
/// faster than any hashing for the tiny sets most transactions build.
const SMALL_MAX: usize = 12;

/// Open-addressing markers. Location addresses are pointers to
/// `TCell`s (aligned, heap-allocated), so 0 and 1 never collide with a
/// real key.
const EMPTY: usize = 0;
const TOMBSTONE: usize = 1;

/// Address → index map: small-mode linear scan, spilling to an
/// open-addressed table with FxHash-style multiplicative hashing.
/// Capacity is retained across [`AddrIndex::clear`] for pooled reuse.
pub(crate) struct AddrIndex {
    /// Dense pairs, authoritative while `table` is empty.
    small: Vec<(usize, u32)>,
    /// Open-addressed `(addr, idx)` slots; empty vec = small mode.
    table: Vec<(usize, u32)>,
    /// Live entries (small mode tracks via `small.len()`).
    len: usize,
    /// Tombstoned slots in `table`. Counted toward the rehash trigger:
    /// probe chains terminate only at EMPTY slots, so letting removals
    /// (elastic cuts) consume every EMPTY slot would make `get` of an
    /// absent key spin forever.
    tombs: usize,
}

impl AddrIndex {
    pub(crate) const fn new() -> Self {
        Self { small: Vec::new(), table: Vec::new(), len: 0, tombs: 0 }
    }

    #[inline]
    fn hash(addr: usize) -> usize {
        // Fibonacci/FxHash-style multiplicative mix; addresses are
        // aligned so the useful entropy is in the middle bits.
        addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17
    }

    /// Number of live entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        if self.table.is_empty() {
            self.small.len()
        } else {
            self.len
        }
    }

    #[inline]
    pub(crate) fn get(&self, addr: usize) -> Option<u32> {
        if self.table.is_empty() {
            return self.small.iter().find(|&&(a, _)| a == addr).map(|&(_, i)| i);
        }
        let mask = self.table.len() - 1;
        let mut slot = Self::hash(addr) & mask;
        loop {
            let (a, i) = self.table[slot];
            if a == addr {
                return Some(i);
            }
            if a == EMPTY {
                return None;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Inserts a new key (caller guarantees `addr` is absent).
    #[inline]
    pub(crate) fn insert(&mut self, addr: usize, idx: u32) {
        debug_assert!(self.get(addr).is_none(), "insert of an existing address");
        if self.table.is_empty() {
            if self.small.len() < SMALL_MAX {
                self.small.push((addr, idx));
                return;
            }
            self.spill();
        }
        // Tombstones count toward occupancy: at least half the slots
        // must stay EMPTY so every probe chain terminates.
        if (self.len + self.tombs + 1) * 2 > self.table.len() {
            self.rehash();
        }
        if Self::raw_insert(&mut self.table, addr, idx) {
            self.tombs -= 1;
        }
        self.len += 1;
    }

    /// Removes a key; returns its index if present.
    #[inline]
    pub(crate) fn remove(&mut self, addr: usize) -> Option<u32> {
        if self.table.is_empty() {
            let pos = self.small.iter().position(|&(a, _)| a == addr)?;
            return Some(self.small.swap_remove(pos).1);
        }
        let mask = self.table.len() - 1;
        let mut slot = Self::hash(addr) & mask;
        loop {
            let (a, i) = self.table[slot];
            if a == addr {
                self.table[slot] = (TOMBSTONE, 0);
                self.len -= 1;
                self.tombs += 1;
                return Some(i);
            }
            if a == EMPTY {
                return None;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Empties the index, retaining capacity (pool hygiene: no stale
    /// entries survive into the next attempt).
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.small.clear();
        // Drop the spilled table to length 0 but keep its capacity; the
        // next spill re-zeroes it with `resize`.
        self.table.clear();
        self.len = 0;
        self.tombs = 0;
    }

    /// Returns true when the insert reused a tombstoned slot.
    fn raw_insert(table: &mut [(usize, u32)], addr: usize, idx: u32) -> bool {
        let mask = table.len() - 1;
        let mut slot = Self::hash(addr) & mask;
        loop {
            let a = table[slot].0;
            if a == EMPTY || a == TOMBSTONE {
                table[slot] = (addr, idx);
                return a == TOMBSTONE;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// First spill out of small mode.
    #[cold]
    fn spill(&mut self) {
        let cap = (SMALL_MAX * 4).next_power_of_two();
        self.table.resize(cap, (EMPTY, 0));
        self.len = 0;
        self.tombs = 0;
        for i in 0..self.small.len() {
            let (a, idx) = self.small[i];
            Self::raw_insert(&mut self.table, a, idx);
            self.len += 1;
        }
        self.small.clear();
    }

    /// Rebuilds the table, sweeping tombstones; capacity is sized to the
    /// *live* count (a long elastic traversal churns entries through a
    /// small window — live stays tiny while tombstones accumulate, and
    /// the rebuild must not double forever on tombstone pressure).
    #[cold]
    fn rehash(&mut self) {
        let min_cap = (SMALL_MAX * 4).next_power_of_two();
        let cap = ((self.len + 1) * 4).next_power_of_two().max(min_cap);
        let old = std::mem::take(&mut self.table);
        self.table = vec![(EMPTY, 0); cap];
        self.tombs = 0;
        for (a, i) in old {
            if a != EMPTY && a != TOMBSTONE {
                Self::raw_insert(&mut self.table, a, i);
            }
        }
    }
}

// ---------------------------------------------------------------------
// TxDescriptor
// ---------------------------------------------------------------------

/// An uncounted pointer to a location's cell, as the read and write sets
/// hold it: recording an access writes nothing the location's other
/// readers share.
///
/// Valid while the attempt that recorded it is pinned. The attempt pins
/// before its first access and holds the pin until it ends, and the
/// descriptor is cleared when it ends; a cell is freed only through the
/// epoch, with the allocation that holds it, after that allocation's
/// last handle is gone (tvar.rs), so no free can complete while the
/// recording attempt is pinned.
#[derive(Clone, Copy)]
pub(crate) struct SlotRef(NonNull<dyn TxSlot>);

impl SlotRef {
    /// Records `slot`; the caller's attempt must already be pinned.
    #[inline]
    pub(crate) fn new(slot: &(dyn TxSlot + 'static)) -> Self {
        SlotRef(NonNull::from(slot))
    }

    /// The location's cell.
    #[inline]
    pub(crate) fn get(&self) -> &dyn TxSlot {
        // SAFETY: see the type's docs — the recording attempt is still
        // pinned whenever its descriptor holds entries. Exercised under
        // ASan by `polytm/tests/drop_while_read.rs`, which drops a
        // register's last handle while an attempt that read it is open.
        unsafe { self.0.as_ref() }
    }
}

/// One read-set entry.
pub(crate) struct ReadEntry {
    pub(crate) slot: SlotRef,
    pub(crate) addr: usize,
    /// Version of the value observed.
    pub(crate) seen: u64,
    /// True once the entry has been elastically cut: it is no longer
    /// validated and no longer counts as "already read".
    pub(crate) dead: bool,
}

/// One buffered write.
pub(crate) struct WriteEntry {
    pub(crate) slot: SlotRef,
    pub(crate) addr: usize,
    /// Empty only for entries superseded by a later eager write, and
    /// transiently while the value is being published.
    pub(crate) payload: WritePayload,
}

/// All growable per-transaction state, pooled per thread and reused
/// across attempts and transactions.
#[derive(Default)]
pub(crate) struct TxDescriptor {
    pub(crate) reads: Vec<ReadEntry>,
    pub(crate) read_index: AddrIndex,
    pub(crate) writes: Vec<WriteEntry>,
    pub(crate) write_index: AddrIndex,
    /// Indices into `reads` still eligible for elastic cutting, oldest
    /// first.
    pub(crate) window_queue: VecDeque<u32>,
    /// Commit scratch: write indices in address order.
    pub(crate) order: Vec<u32>,
    /// Commit scratch: `(write index, pre-lock version)` of every lock
    /// held, in acquisition (= address) order.
    pub(crate) acquired: Vec<(u32, u64)>,
    /// Redo bytes staged by [`crate::Transaction::stage_redo`] for the
    /// installed [`crate::RedoSink`], appended to the log if (and only
    /// if) this attempt commits. Cleared with the rest of the
    /// descriptor between attempts, so a retried closure restages from
    /// scratch.
    pub(crate) redo: Vec<u8>,
}

impl Default for AddrIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl TxDescriptor {
    /// Drops all buffered state (read and write sets, write payloads,
    /// commit scratch), retaining every buffer's capacity for reuse.
    pub(crate) fn clear(&mut self) {
        self.reads.clear();
        self.read_index.clear();
        self.writes.clear();
        self.write_index.clear();
        self.window_queue.clear();
        self.order.clear();
        self.acquired.clear();
        self.redo.clear();
    }

    /// Pool-hygiene check: true when no state survives from a previous
    /// use.
    pub(crate) fn is_pristine(&self) -> bool {
        self.reads.is_empty()
            && self.read_index.len() == 0
            && self.writes.is_empty()
            && self.write_index.len() == 0
            && self.window_queue.is_empty()
            && self.order.is_empty()
            && self.acquired.is_empty()
            && self.redo.is_empty()
    }
}

thread_local! {
    /// One descriptor parked per thread between transactions. A nested
    /// `Stm::run` is rejected by the re-entrancy guard, so one slot is
    /// enough; if a second descriptor ever races the slot it is simply
    /// dropped (correct, merely unpooled).
    static DESC_POOL: Cell<Option<Box<TxDescriptor>>> = const { Cell::new(None) };
}

/// Takes the thread's pooled descriptor (or builds a fresh one).
#[inline]
pub(crate) fn take_descriptor() -> Box<TxDescriptor> {
    let desc = DESC_POOL.with(Cell::take).unwrap_or_default();
    debug_assert!(desc.is_pristine(), "pooled descriptor must be cleared before stashing");
    desc
}

/// Returns a cleared descriptor to the thread's pool.
#[inline]
pub(crate) fn stash_descriptor(desc: Box<TxDescriptor>) {
    debug_assert!(desc.is_pristine(), "descriptor must be cleared before stashing");
    DESC_POOL.with(|p| p.set(Some(desc)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn addr_index_small_mode_roundtrip() {
        let mut ix = AddrIndex::new();
        for i in 0..SMALL_MAX {
            ix.insert(16 * (i + 1), i as u32);
        }
        assert_eq!(ix.len(), SMALL_MAX);
        for i in 0..SMALL_MAX {
            assert_eq!(ix.get(16 * (i + 1)), Some(i as u32));
        }
        assert_eq!(ix.get(8), None);
        assert_eq!(ix.remove(16), Some(0));
        assert_eq!(ix.get(16), None);
        assert_eq!(ix.len(), SMALL_MAX - 1);
    }

    #[test]
    fn addr_index_spills_and_grows() {
        let mut ix = AddrIndex::new();
        let n = 1000usize;
        for i in 0..n {
            ix.insert(16 * (i + 1), i as u32);
        }
        assert_eq!(ix.len(), n);
        for i in 0..n {
            assert_eq!(ix.get(16 * (i + 1)), Some(i as u32), "key {i}");
        }
        // Remove half, re-check the rest.
        for i in (0..n).step_by(2) {
            assert_eq!(ix.remove(16 * (i + 1)), Some(i as u32));
        }
        assert_eq!(ix.len(), n / 2);
        for i in (1..n).step_by(2) {
            assert_eq!(ix.get(16 * (i + 1)), Some(i as u32));
        }
        ix.clear();
        assert_eq!(ix.len(), 0);
        assert_eq!(ix.get(16), None);
        // Reusable after clear.
        ix.insert(32, 7);
        assert_eq!(ix.get(32), Some(7));
    }

    #[test]
    fn addr_index_survives_tombstone_churn() {
        // Regression: removals (elastic cuts) tombstone their slots;
        // without tombstones counting toward the rehash trigger, a long
        // churn with a tiny live set exhausts every EMPTY slot and the
        // next absent-key lookup probes forever.
        let mut ix = AddrIndex::new();
        let live_window = 16usize; // spills past SMALL_MAX
        for i in 0..10_000usize {
            let addr = 16 * (i + 1);
            ix.insert(addr, i as u32);
            if i >= live_window {
                let old = 16 * (i + 1 - live_window);
                assert_eq!(ix.remove(old), Some((i - live_window) as u32));
            }
            // Absent-key probe must terminate at every step.
            assert_eq!(ix.get(8), None);
        }
        assert_eq!(ix.len(), live_window);
        // Live entries remain reachable after all the rehashing.
        for i in (10_000 - live_window)..10_000usize {
            assert_eq!(ix.get(16 * (i + 1)), Some(i as u32));
        }
        // Table stays sized to the live set, not the churn volume.
        assert!(ix.table.len() <= 256, "table grew with churn: {}", ix.table.len());
    }

    #[test]
    fn inline_payload_roundtrips_and_drops_once() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Clone)]
        struct Tally(#[allow(dead_code)] u64);
        impl Drop for Tally {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        DROPS.store(0, Ordering::SeqCst);
        {
            let mut p = WritePayload::new(Tally(7));
            assert!(p.get_ref::<Tally>().is_some());
            let v = p.take::<Tally>().unwrap();
            assert!(p.is_empty());
            assert!(p.take::<Tally>().is_none());
            drop(v);
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 1, "taken value dropped exactly once");

        DROPS.store(0, Ordering::SeqCst);
        {
            let _p = WritePayload::new(Tally(8));
            // dropped without take: destructor must run in place
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);

        DROPS.store(0, Ordering::SeqCst);
        {
            let mut p = WritePayload::new(Tally(9));
            p.dispose();
            assert!(p.is_empty());
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 1, "dispose destroys exactly once");
    }

    #[test]
    fn boxed_payload_roundtrips() {
        // A 5-word value cannot live inline.
        let big = [1u64, 2, 3, 4, 5];
        let mut p = WritePayload::new(big);
        assert_eq!(p.get_ref::<[u64; 5]>(), Some(&big));
        assert_eq!(p.take::<[u64; 5]>(), Some(big));
        assert!(p.is_empty());
    }

    #[test]
    fn small_string_and_arc_payloads_survive() {
        let mut p = WritePayload::new(String::from("hello polytm"));
        assert_eq!(p.get_ref::<String>().unwrap(), "hello polytm");
        assert_eq!(p.take::<String>().unwrap(), "hello polytm");

        let a = Arc::new(41u64);
        let mut p = WritePayload::new(Arc::clone(&a));
        assert_eq!(Arc::strong_count(&a), 2);
        let got = p.take::<Arc<u64>>().unwrap();
        assert_eq!(*got, 41);
        drop(got);
        assert_eq!(Arc::strong_count(&a), 1, "no leaked clone");
    }

    #[test]
    fn descriptor_pool_reuses_and_stays_pristine() {
        let mut d = take_descriptor();
        assert!(d.is_pristine());
        d.order.push(3);
        d.window_queue.push_back(1);
        d.clear();
        assert!(d.is_pristine());
        stash_descriptor(d);
        let d2 = take_descriptor();
        assert!(d2.is_pristine());
        stash_descriptor(d2);
    }
}

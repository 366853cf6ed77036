//! Registers and their handles.
//!
//! A [`TCell`] is one shared register: lock word, owner, announced write
//! version and version-chain head, 32 bytes in release builds, and every
//! register operation (`read`, `read_in`, `write`, `peek`, …) is a
//! method of it. A cell is owned by exactly one allocation, reached
//! through a counted handle:
//!
//! * [`TVar`] — one cell on the heap (the cell and the handle count,
//!   40 bytes), dereferencing to it;
//! * [`TVarArray`] — `n` cells in one cache-line-aligned allocation,
//!   dereferencing to `[TCell]`. A structure that is only ever reached
//!   through one table of registers (a store's buckets) keeps them here:
//!   one allocation per table instead of one per register, and a read
//!   lands on the register itself instead of on a pointer to it.
//!
//! Both handles are the same code (`Cells` below): the last handle to
//! drop hands the whole allocation to the epoch reclaimer, once, so an
//! attempt that read any of its cells under a pin can still validate it
//! (DESIGN.md §1, "Memory-safety argument", item 7).

use std::alloc::{self, Layout};
use std::any::Any;
use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::Deref;
use std::ptr::{self, NonNull};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

use crossbeam_epoch as epoch;

use crate::error::TxResult;
use crate::txn::{ReadRef, Transaction};
pub use crate::varcore::TCell;
use crate::varcore::VersionNode;

/// Types storable in a register.
///
/// [`TCell::read`] returns owned values, so values must be [`Clone`]
/// (keep them small or reference-counted: a list node clones an `Arc`,
/// not its payload; [`TCell::read_in`] borrows instead), and they cross
/// threads at commit, hence [`Send`] + [`Sync`] + `'static`.
pub trait TxValue: Clone + Send + Sync + 'static {}

impl<T: Clone + Send + Sync + 'static> TxValue for T {}

/// An epoch pin for [`TCell::peek`] and [`TCell::read_in`]: references
/// taken under it stay valid until it drops. Pinning is a store to the
/// thread's own epoch slot (a counter bump when the thread is pinned
/// already), so one guard per operation is cheap; drop it promptly all
/// the same — what is unlinked while it lives is freed only after.
pub struct PeekGuard {
    pin: epoch::Guard,
    /// Clones of read-own-write values handed out by [`TCell::read_in`],
    /// owned here so the references stay valid for the guard's life.
    kept: RefCell<Vec<Rc<dyn Any>>>,
}

impl PeekGuard {
    /// Pin the current thread.
    pub fn pin() -> Self {
        PeekGuard { pin: epoch::pin(), kept: RefCell::new(Vec::new()) }
    }

    /// Moves `value` into storage the guard owns and lends it out for
    /// the guard's lifetime.
    fn keep<T: 'static>(&self, value: T) -> &T {
        let kept = Rc::new(value);
        let ptr = Rc::as_ptr(&kept);
        self.kept.borrow_mut().push(kept);
        // SAFETY: the `Rc` allocation does not move and is freed only
        // when the guard drops; the guard never hands out a mutable
        // reference to it. Exercised under ASan by
        // `polytm-structures/tests/by_reference.rs::read_own_write_survives_a_rewrite`.
        unsafe { &*ptr }
    }
}

impl<T: TxValue> TCell<T> {
    /// Transactional read — the paper's `r(x)`.
    ///
    /// What "consistent" means depends on the transaction's
    /// [`crate::Semantics`]: opaque reads join a single atomic critical
    /// step; elastic reads join the sliding window; snapshot reads come
    /// from the version history at the transaction's start time;
    /// irrevocable reads see the frozen committed state.
    #[inline]
    pub fn read(&self, tx: &mut Transaction<'_>) -> TxResult<T> {
        Ok(tx.read_ref(self)?.get().clone())
    }

    /// [`TCell::read`] by reference: the same read, recorded the same
    /// way, without the clone. The value stays valid for as long as
    /// `guard` and the borrow of `self` do; a committed value is never
    /// mutated in place, and one this attempt wrote itself is cloned into
    /// `guard` (a later write in the same attempt replaces the buffered
    /// one).
    ///
    /// Search structures read their links this way: a hop touches the
    /// node it lands on, and writes no reference count.
    ///
    /// ```
    /// use polytm::{PeekGuard, Stm, TxParams};
    ///
    /// let stm = Stm::new();
    /// let x = stm.new_tvar(String::from("seven"));
    /// let len = stm.run(TxParams::default(), |tx| {
    ///     let guard = PeekGuard::pin();
    ///     Ok(x.read_in(tx, &guard)?.len())
    /// });
    /// assert_eq!(len, 5);
    /// ```
    #[inline]
    pub fn read_in<'g>(
        &'g self,
        tx: &mut Transaction<'_>,
        guard: &'g PeekGuard,
    ) -> TxResult<&'g T> {
        match tx.read_ref(self)? {
            ReadRef::Own(value) => Ok(guard.keep(value.clone())),
            ReadRef::Committed(value) => {
                let value: *const T = value;
                // SAFETY: `value` lies in a committed version node, which
                // is immutable and freed only through the epoch after it
                // is unlinked; `guard` was pinned before this read found
                // the node, so the free waits for `guard` to drop. The
                // cell holding the chain lives while the borrow of `self`
                // does. Exercised under ASan by
                // `polytm-structures/tests/by_reference.rs`.
                Ok(unsafe { &*value })
            }
        }
    }

    /// Transactional write — the paper's `w(x, v)`. Buffered until commit
    /// (published eagerly under irrevocable semantics).
    #[inline]
    pub fn write(&self, tx: &mut Transaction<'_>, value: T) -> TxResult<()> {
        tx.write_var(self, value)
    }

    /// Read-modify-write convenience.
    pub fn modify<F>(&self, tx: &mut Transaction<'_>, f: F) -> TxResult<()>
    where
        F: FnOnce(T) -> T,
    {
        let v = self.read(tx)?;
        self.write(tx, f(v))
    }

    /// Write `value` and return the previous value.
    pub fn replace(&self, tx: &mut Transaction<'_>, value: T) -> TxResult<T> {
        let old = self.read(tx)?;
        self.write(tx, value)?;
        Ok(old)
    }

    /// Non-transactional read of the latest committed value. Safe at any
    /// time; linearizes at some point during the call. Useful for
    /// post-quiescence inspection and monitoring.
    pub fn load_committed(&self) -> T {
        self.await_committed(|node| node.value.clone())
    }

    /// Waits out any committer holding the lock, then applies `f` to the
    /// committed head.
    fn await_committed<R>(&self, f: impl Fn(&VersionNode<T>) -> R) -> R {
        let guard = epoch::pin();
        let mut spins = 0u32;
        loop {
            match self.committed_head(&guard) {
                Ok(node) => return f(node),
                Err(_) => {
                    spins += 1;
                    crate::stm::polite_spin(spins);
                }
            }
        }
    }

    /// Hint-grade look at the newest committed value, by reference: no
    /// transaction, no clone, no read set, no statistics. The value is
    /// one some commit published, but the caller learns neither its
    /// version nor whether it is still current, so it may only be used
    /// where a stale or soon-stale answer is harmless — touching memory
    /// ahead of a real read (`KvStore::warm`), never producing a result.
    pub fn peek<'g>(&'g self, guard: &'g PeekGuard) -> &'g T {
        self.head_value(&guard.pin)
    }

    /// The latest committed value, by reference, or `None` while a
    /// committer holds the register's lock. Unlike [`TCell::peek`] the
    /// read is exact: the returned value was the register's committed
    /// value at some instant during the call (the TL2 lock-word
    /// double-check). It carries no version and joins no transaction,
    /// so reading several registers consistently is the caller's
    /// business — [`crate::Stm::read_direct`] brackets such reads
    /// against irrevocable eras.
    #[inline]
    pub fn peek_committed<'g>(&'g self, guard: &'g PeekGuard) -> Option<&'g T> {
        self.committed_value(&guard.pin)
    }

    /// The version (commit timestamp) of the latest committed value.
    pub fn committed_version(&self) -> u64 {
        self.await_committed(|node| node.version)
    }

    /// Stable address identifying this register (the paper's `x` in
    /// `r(x)`); equal iff two references name the same register.
    pub fn addr(&self) -> usize {
        self.address()
    }
}

impl<T: TxValue + fmt::Debug> fmt::Debug for TCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TCell")
            .field("addr", &format_args!("{:#x}", self.addr()))
            .field("value", &self.load_committed())
            .finish()
    }
}

/// One allocation of `len` cells followed by the count of live handles
/// to it: the implementation behind both [`TVar`] (`len` 1) and
/// [`TVarArray`]. The handle that owns a `Cells` knows `len`; the
/// allocation does not store it until the count reaches zero, when the
/// dead count word takes it over for the deferred free.
///
/// Its thread-safety follows the cells', as `Arc`'s follows its
/// pointee's; the bounds name only auto traits, so a value type that
/// contains registers of itself (a list node) resolves them
/// coinductively.
struct Cells<T> {
    first: NonNull<TCell<T>>,
    _owns: PhantomData<TCell<T>>,
}

// SAFETY: a handle is a shared reference to its cells plus a share of
// their atomic handle count, so sending one is sharing the cells.
// Exercised under ASan by every multi-threaded test, e.g.
// `tests/drop_while_read.rs`.
unsafe impl<T> Send for Cells<T> where TCell<T>: Send + Sync {}
// SAFETY: as for `Send`.
unsafe impl<T> Sync for Cells<T> where TCell<T>: Send + Sync {}

impl<T> Cells<T> {
    /// The allocation of `len` cells, and the offset of the count word
    /// right behind them (`len` cells in: a cell's size is a multiple of
    /// the word's alignment). A lone cell takes the cell's own alignment
    /// (40 bytes with the count: a 48-byte allocator chunk); an array is
    /// aligned to a cache line, so no 32-byte cell straddles two lines.
    fn layout(len: usize) -> (Layout, usize) {
        let align = if len == 1 { align_of::<TCell<T>>() } else { 64 };
        let cells = Layout::array::<TCell<T>>(len).and_then(|cells| cells.align_to(align));
        let (layout, count_at) = cells
            .and_then(|cells| cells.extend(Layout::new::<AtomicUsize>()))
            .expect("register array too large");
        (layout.pad_to_align(), count_at)
    }

    /// Drops the first `built` cells of the allocation at `base` and
    /// frees it.
    ///
    /// # Safety
    /// `base` came from `alloc(layout)`, its first `built` cells are
    /// initialised, and nothing refers to any of it any more.
    unsafe fn destroy(base: *mut u8, built: usize, layout: Layout) {
        let cells = ptr::slice_from_raw_parts_mut(base.cast::<TCell<T>>(), built);
        // SAFETY: per the contract: initialised, unreferenced, and
        // allocated with `layout`. Exercised under ASan by every dropped
        // register, e.g. `tests/drop_while_read.rs` and
        // `tests/array_drop_while_read.rs`.
        unsafe {
            ptr::drop_in_place(cells);
            alloc::dealloc(base, layout);
        }
    }

    /// The address of the cells' count word, right behind the last cell.
    fn count_word(&self, len: usize) -> *const AtomicUsize {
        self.first.as_ptr().wrapping_add(len).cast()
    }

    /// The cells' count word.
    fn count(&self, len: usize) -> &AtomicUsize {
        // SAFETY: `new` put an initialised count word there, and it lives
        // while this handle does. Exercised under ASan by every handle
        // clone and drop.
        unsafe { &*self.count_word(len) }
    }

    /// The `len` cells.
    fn cells(&self, len: usize) -> &[TCell<T>] {
        // SAFETY: `new` initialised `len` cells at `first`; they are
        // freed only by the epoch reclaimer after the last handle
        // dropped, and `self` is a live handle. Exercised under ASan by
        // every register access.
        unsafe { std::slice::from_raw_parts(self.first.as_ptr(), len) }
    }

    /// A handle to one more share of the cells.
    fn retain(&self, len: usize) -> Self {
        // Relaxed, as `Arc::clone`: a new handle is made from a live one,
        // so the count cannot be zero here.
        self.count(len).fetch_add(1, Ordering::Relaxed);
        Self { first: self.first, _owns: PhantomData }
    }
}

impl<T: TxValue> Cells<T> {
    /// `values.len()` fresh cells holding `values`, tagged to STM
    /// `stm_id`, with one handle. A panicking or short iterator frees
    /// the cells built so far and the allocation.
    fn new(values: impl ExactSizeIterator<Item = T>, stm_id: u64) -> (Self, usize) {
        /// Owns a partly built allocation until it is complete.
        struct Building<T> {
            base: NonNull<u8>,
            built: usize,
            layout: Layout,
            _cells: PhantomData<TCell<T>>,
        }
        impl<T> Drop for Building<T> {
            fn drop(&mut self) {
                // SAFETY: the first `built` cells were written and
                // nothing else has seen the allocation. Exercised by
                // `tests::a_lying_iterator_frees_what_it_built`.
                unsafe { Cells::<T>::destroy(self.base.as_ptr(), self.built, self.layout) }
            }
        }

        let len = values.len();
        let (layout, count_at) = Self::layout(len);
        // SAFETY: `layout` is non-zero-sized (it holds the count word),
        // and the count word lies inside the allocation, past the cells.
        let base = unsafe {
            let base = NonNull::new(alloc::alloc(layout))
                .unwrap_or_else(|| alloc::handle_alloc_error(layout));
            base.add(count_at).cast::<AtomicUsize>().write(AtomicUsize::new(1));
            base
        };
        let mut building = Building::<T> { base, built: 0, layout, _cells: PhantomData };
        let first = base.cast::<TCell<T>>();
        for value in values.take(len) {
            // SAFETY: cell `built` lies inside the allocation (fewer than
            // `len` were written) and is uninitialised.
            unsafe { first.add(building.built).write(TCell::new(value, stm_id)) };
            building.built += 1;
        }
        assert_eq!(building.built, len, "an ExactSizeIterator yielded fewer items than its len");
        std::mem::forget(building);
        (Self { first, _owns: PhantomData }, len)
    }

    /// Gives up this handle's share; the last one hands the allocation
    /// to the epoch reclaimer.
    fn release(&mut self, len: usize) {
        // Release/Acquire, as `Arc`'s drop: every use of the cells through
        // another handle happens before the free. (An Acquire load rather
        // than a fence, as `Arc` does under ThreadSanitizer.)
        let count = self.count(len);
        if count.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        count.load(Ordering::Acquire);
        // No handle is left to read the count; it now carries `len` to
        // the deferred free, which finds the cells in front of it.
        count.store(len, Ordering::Relaxed);
        let count = self.count_word(len);
        // The last handle is gone, but a pinned attempt that read a cell
        // may still hold a pointer to it in its read set (and a
        // `read_in` reference into its chain): free the cells through
        // the epoch, after every pin taken before now.
        let guard = epoch::pin();
        // SAFETY: no handle is left, so nothing pinned from here on can
        // reach the cells; the allocation is deferred exactly once, by
        // the one drop that saw the count hit zero, and its count word
        // holds its length. Exercised under ASan by
        // `tests/drop_while_read.rs` and `tests/array_drop_while_read.rs`.
        unsafe {
            guard.defer_unchecked(move || {
                let len = (*count).load(Ordering::Relaxed);
                let (layout, count_at) = Self::layout(len);
                Self::destroy(count.cast::<u8>().sub(count_at).cast_mut(), len, layout);
            });
        }
        // Cells can hold a whole structure behind them (a store's table,
        // a list's head): free them at this thread's next unpin rather
        // than when the bag fills, or when some later thread gets to an
        // exited one's orphans.
        guard.flush();
    }
}

/// A counted handle to one shared register on the heap — the paper's
/// shared memory "partitioned into shared registers, supporting atomic
/// reads/writes, and metadata used for synchronization". It
/// dereferences to its [`TCell`], whose methods are the register
/// operations.
///
/// `TVar` is a cheap handle (a pointer); clones alias the same register.
/// The last handle to drop hands the register to the epoch reclaimer, so
/// an attempt that read it can still validate it. Create vars with
/// [`crate::Stm::new_tvar`] so debug builds can verify vars are not
/// mixed across STM instances.
///
/// ```
/// use polytm::{Stm, TxParams};
///
/// let stm = Stm::new();
/// let x = stm.new_tvar(1i64);
/// stm.run(TxParams::default(), |tx| x.modify(tx, |v| v + 1));
/// assert_eq!(x.load_committed(), 2);
/// ```
pub struct TVar<T: TxValue> {
    cells: Cells<T>,
}

impl<T: TxValue> TVar<T> {
    /// Create an untagged var. Prefer [`crate::Stm::new_tvar`].
    pub fn new(value: T) -> Self {
        Self::tagged(value, 0)
    }

    pub(crate) fn tagged(value: T, stm_id: u64) -> Self {
        Self { cells: Cells::new(std::iter::once(value), stm_id).0 }
    }

    /// Do two handles alias the same register?
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        a.cells.first == b.cells.first
    }
}

impl<T: TxValue> Deref for TVar<T> {
    type Target = TCell<T>;

    #[inline]
    fn deref(&self) -> &TCell<T> {
        &self.cells.cells(1)[0]
    }
}

impl<T: TxValue> Clone for TVar<T> {
    fn clone(&self) -> Self {
        Self { cells: self.cells.retain(1) }
    }
}

impl<T: TxValue> Drop for TVar<T> {
    fn drop(&mut self) {
        self.cells.release(1);
    }
}

impl<T: TxValue + fmt::Debug> fmt::Debug for TVar<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A counted handle to `len` shared registers in one allocation. It
/// dereferences to `[TCell<T>]`: index it, iterate it, and use each
/// cell as a register. Cloning shares the registers; the last handle to
/// drop hands all of them to the epoch reclaimer at once.
///
/// ```
/// use polytm::{PeekGuard, Stm, TxParams};
///
/// let stm = Stm::new();
/// let cells = stm.new_tvar_array([0u64, 10, 20, 30]);
/// stm.run(TxParams::default(), |tx| cells[2].modify(tx, |v| v + 1));
/// let sum = stm.run(TxParams::default(), |tx| {
///     let guard = PeekGuard::pin();
///     cells.iter().try_fold(0, |sum, cell| Ok(sum + cell.read_in(tx, &guard)?))
/// });
/// assert_eq!(sum, 61);
/// ```
pub struct TVarArray<T: TxValue> {
    cells: Cells<T>,
    len: usize,
}

impl<T: TxValue> TVarArray<T> {
    /// Made by [`crate::Stm::new_tvar_array`].
    pub(crate) fn tagged(
        values: impl IntoIterator<Item = T, IntoIter: ExactSizeIterator>,
        stm_id: u64,
    ) -> Self {
        let (cells, len) = Cells::new(values.into_iter(), stm_id);
        Self { cells, len }
    }
}

impl<T: TxValue> Deref for TVarArray<T> {
    type Target = [TCell<T>];

    #[inline]
    fn deref(&self) -> &[TCell<T>] {
        self.cells.cells(self.len)
    }
}

impl<T: TxValue> Clone for TVarArray<T> {
    fn clone(&self) -> Self {
        Self { cells: self.cells.retain(self.len), len: self.len }
    }
}

impl<T: TxValue> Drop for TVarArray<T> {
    fn drop(&mut self) {
        self.cells.release(self.len);
    }
}

impl<T: TxValue + fmt::Debug> fmt::Debug for TVarArray<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

// A register is four words; on the heap with its handle count it fits
// the allocator's 48-byte chunk (40 bytes requested).
#[cfg(not(debug_assertions))]
const _: () = assert!(size_of::<TCell<u64>>() == 32);
#[cfg(not(debug_assertions))]
const _: () = assert!(size_of::<TCell<u64>>() + size_of::<AtomicUsize>() <= 40);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Stm, TxParams};

    #[test]
    fn a_lone_register_takes_forty_bytes_and_an_array_whole_lines() {
        let cell = size_of::<TCell<u64>>();
        assert_eq!(Cells::<u64>::layout(1).0.size(), cell + 8);
        let (array, count_at) = Cells::<u64>::layout(5);
        assert_eq!((array.align(), count_at), (64, 5 * cell));
        let stm = Stm::new();
        let cells = stm.new_tvar_array([0u64; 5]);
        assert_eq!(cells.as_ptr() as usize % 64, 0, "cells start on a line");
    }

    #[test]
    fn an_array_is_one_register_per_value_and_clones_share_them() {
        let stm = Stm::new();
        let a = stm.new_tvar_array(vec![String::from("x"); 3]);
        let b = a.clone();
        stm.run(TxParams::default(), |tx| b[1].write(tx, String::from("y")));
        let seen: Vec<String> = a.iter().map(TCell::load_committed).collect();
        assert_eq!(seen, ["x", "y", "x"]);
        assert_eq!(a[1].addr(), b[1].addr());
        assert_ne!(a[0].addr(), a[1].addr());
        let empty = stm.new_tvar_array(Vec::<u64>::new());
        assert!(empty.is_empty());
    }

    /// Claims two items, yields one.
    struct Liar(Option<String>);

    impl Iterator for Liar {
        type Item = String;
        fn next(&mut self) -> Option<String> {
            self.0.take()
        }
    }

    impl ExactSizeIterator for Liar {
        fn len(&self) -> usize {
            2
        }
    }

    #[test]
    #[should_panic(expected = "fewer items than its len")]
    fn a_lying_iterator_frees_what_it_built() {
        Stm::new().new_tvar_array(Liar(Some(String::from("built"))));
    }
}

//! [`TVar`]: a transactional shared register.

use std::any::Any;
use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::ptr::NonNull;
use std::rc::Rc;
use std::sync::atomic::Ordering;

use crossbeam_epoch as epoch;

use crate::error::TxResult;
use crate::txn::{ReadRef, Transaction};
use crate::varcore::{VarCore, VersionNode};

/// Types storable in a [`TVar`].
///
/// [`TVar::read`] returns owned values, so values must be [`Clone`] (keep
/// them small or reference-counted: a list node clones an `Arc`, not its
/// payload; [`TVar::read_in`] borrows instead), and they cross threads
/// at commit, hence [`Send`] + [`Sync`] + `'static`.
pub trait TxValue: Clone + Send + Sync + 'static {}

impl<T: Clone + Send + Sync + 'static> TxValue for T {}

/// An epoch pin for [`TVar::peek`] and [`TVar::read_in`]: references
/// taken under it stay valid until it drops. Pinning is a store to the
/// thread's own epoch slot (a counter bump when the thread is pinned
/// already), so one guard per operation is cheap; drop it promptly all
/// the same — what is unlinked while it lives is freed only after.
pub struct PeekGuard {
    pin: epoch::Guard,
    /// Clones of read-own-write values handed out by [`TVar::read_in`],
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

/// A shared register accessed through transactions — the paper's shared
/// memory "partitioned into shared registers, supporting atomic
/// reads/writes, and metadata used for synchronization".
///
/// `TVar` is a cheap handle (a counted pointer to the register); clones
/// alias the same register. The last handle to drop hands the register to
/// the epoch reclaimer, so an attempt that read it can still validate it.
/// Create vars with [`crate::Stm::new_tvar`] so debug builds can verify
/// vars are not mixed across STM instances.
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
    core: CorePtr<T>,
}

/// The counted pointer a handle holds. Its thread-safety follows the
/// core's, as `Arc`'s follows its pointee's; the bounds name only auto
/// traits, so a value type that contains `TVar`s of itself (a list
/// node) resolves them coinductively.
struct CorePtr<T>(NonNull<VarCore<T>>, PhantomData<VarCore<T>>);

// SAFETY: a handle is a shared reference to a `VarCore<T>` plus a share
// of its atomic handle count, so sending one is sharing the core.
// Exercised under ASan by every multi-threaded test, e.g.
// `tests/drop_while_read.rs`.
unsafe impl<T> Send for CorePtr<T> where VarCore<T>: Send + Sync {}
// SAFETY: as for `Send`.
unsafe impl<T> Sync for CorePtr<T> where VarCore<T>: Send + Sync {}

impl<T> Clone for CorePtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for CorePtr<T> {}

impl<T: TxValue> TVar<T> {
    /// Create an untagged var. Prefer [`crate::Stm::new_tvar`].
    pub fn new(value: T) -> Self {
        Self::tagged(value, 0)
    }

    pub(crate) fn tagged(value: T, stm_id: u64) -> Self {
        let core = Box::new(VarCore::new(value, stm_id));
        Self { core: CorePtr(NonNull::from(Box::leak(core)), PhantomData) }
    }

    /// The shared core.
    #[inline]
    pub(crate) fn core(&self) -> &VarCore<T> {
        // SAFETY: the core is freed only by the epoch reclaimer after the
        // last handle dropped (`Drop` below), and `self` is a live
        // handle. Exercised under ASan by every `TVar` test.
        unsafe { self.core.0.as_ref() }
    }

    /// Transactional read — the paper's `r(x)`.
    ///
    /// What "consistent" means depends on the transaction's
    /// [`crate::Semantics`]: opaque reads join a single atomic critical
    /// step; elastic reads join the sliding window; snapshot reads come
    /// from the version history at the transaction's start time;
    /// irrevocable reads see the frozen committed state.
    #[inline]
    pub fn read(&self, tx: &mut Transaction<'_>) -> TxResult<T> {
        Ok(tx.read_ref(self.core())?.get().clone())
    }

    /// [`TVar::read`] by reference: the same read, recorded the same way,
    /// without the clone. The value stays valid for as long as `guard`
    /// and the borrow of `self` do; a committed value is never mutated in
    /// place, and one this attempt wrote itself is cloned into `guard`
    /// (a later write in the same attempt replaces the buffered one).
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
        match tx.read_ref(self.core())? {
            ReadRef::Own(value) => Ok(guard.keep(value.clone())),
            ReadRef::Committed(value) => {
                let value: *const T = value;
                // SAFETY: `value` lies in a committed version node, which
                // is immutable and freed only through the epoch after it
                // is unlinked; `guard` was pinned before this read found
                // the node, so the free waits for `guard` to drop. The
                // core holding the chain lives while `self` does.
                // Exercised under ASan by
                // `polytm-structures/tests/by_reference.rs`.
                Ok(unsafe { &*value })
            }
        }
    }

    /// Transactional write — the paper's `w(x, v)`. Buffered until commit
    /// (published eagerly under irrevocable semantics).
    #[inline]
    pub fn write(&self, tx: &mut Transaction<'_>, value: T) -> TxResult<()> {
        tx.write_var(self.core(), value)
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
            match self.core().committed_head(&guard) {
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
        self.core().peek(&guard.pin)
    }

    /// The latest committed value, by reference, or `None` while a
    /// committer holds the register's lock. Unlike [`TVar::peek`] the
    /// read is exact: the returned value was the register's committed
    /// value at some instant during the call (the TL2 lock-word
    /// double-check). It carries no version and joins no transaction,
    /// so reading several registers consistently is the caller's
    /// business — [`crate::Stm::read_direct`] brackets such reads
    /// against irrevocable eras.
    #[inline]
    pub fn peek_committed<'g>(&'g self, guard: &'g PeekGuard) -> Option<&'g T> {
        self.core().peek_committed(&guard.pin)
    }

    /// The version (commit timestamp) of the latest committed value.
    pub fn committed_version(&self) -> u64 {
        self.await_committed(|node| node.version)
    }

    /// Stable address identifying this register (the paper's `x` in
    /// `r(x)`); equal iff two handles alias the same register.
    pub fn addr(&self) -> usize {
        self.core().address()
    }

    /// Do two handles alias the same register?
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        a.core.0 == b.core.0
    }
}

impl<T: TxValue> Clone for TVar<T> {
    fn clone(&self) -> Self {
        // Relaxed, as `Arc::clone`: a new handle is made from a live one,
        // so the count cannot be zero here.
        self.core().handles.fetch_add(1, Ordering::Relaxed);
        Self { core: self.core }
    }
}

impl<T: TxValue> Drop for TVar<T> {
    fn drop(&mut self) {
        // Release/Acquire, as `Arc`'s drop: every use of the core through
        // another handle happens before the free. (An Acquire load rather
        // than a fence, as `Arc` does under ThreadSanitizer.)
        if self.core().handles.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        self.core().handles.load(Ordering::Acquire);
        // The last handle is gone, but a pinned attempt that read the
        // register may still hold a pointer to it in its read set (and
        // a `read_in` reference into its chain): free it through the
        // epoch, after every pin taken before now.
        let guard = epoch::pin();
        let core: *const VarCore<T> = self.core.0.as_ptr();
        // SAFETY: no handle is left, so nothing pinned from here on can
        // reach the core; it came from `Box::leak` in `tagged` and is
        // deferred exactly once, by the one drop that saw the count hit
        // zero. Exercised under ASan by `tests/drop_while_read.rs`.
        unsafe { guard.defer_destroy(epoch::Shared::from(core)) };
        // A core can hold a whole structure behind it (a store's table,
        // a list's head): free it at this thread's next unpin rather
        // than when the bag fills, or when some later thread gets to an
        // exited one's orphans.
        guard.flush();
    }
}

impl<T: TxValue + fmt::Debug> fmt::Debug for TVar<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TVar")
            .field("addr", &format_args!("{:#x}", self.addr()))
            .field("value", &self.load_committed())
            .finish()
    }
}

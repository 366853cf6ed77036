//! [`TVar`]: a transactional shared register.

use std::fmt;
use std::sync::Arc;

use crossbeam_epoch as epoch;

use crate::error::TxResult;
use crate::txn::Transaction;
use crate::varcore::{CommittedRead, VarCore};

/// Types storable in a [`TVar`].
///
/// Transactions return owned values, so values must be [`Clone`] (keep
/// them small or reference-counted: a list node clones an `Arc`, not its
/// payload), and they cross threads at commit, hence [`Send`] +
/// [`Sync`] + `'static`.
pub trait TxValue: Clone + Send + Sync + 'static {}

impl<T: Clone + Send + Sync + 'static> TxValue for T {}

/// An epoch pin for [`TVar::peek`]: references peeked under it stay valid
/// until it drops. Pinning costs what beginning a reading transaction
/// costs, so take one guard for a batch of peeks, and drop it promptly —
/// while it lives, no version node anywhere is reclaimed.
pub struct PeekGuard(epoch::Guard);

impl PeekGuard {
    /// Pin the current thread.
    pub fn pin() -> Self {
        PeekGuard(epoch::pin())
    }
}

/// A shared register accessed through transactions — the paper's shared
/// memory "partitioned into shared registers, supporting atomic
/// reads/writes, and metadata used for synchronization".
///
/// `TVar` is a cheap handle (one `Arc`); clones alias the same register.
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
    core: Arc<VarCore<T>>,
}

impl<T: TxValue> TVar<T> {
    /// Create an untagged var. Prefer [`crate::Stm::new_tvar`].
    pub fn new(value: T) -> Self {
        Self::tagged(value, 0)
    }

    pub(crate) fn tagged(value: T, stm_id: u64) -> Self {
        Self { core: Arc::new(VarCore::new(value, stm_id)) }
    }

    /// The shared core, for unit tests that drive the lock word.
    #[cfg(test)]
    pub(crate) fn core(&self) -> &VarCore<T> {
        &self.core
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
        tx.read_var(&self.core)
    }

    /// Transactional write — the paper's `w(x, v)`. Buffered until commit
    /// (published eagerly under irrevocable semantics).
    #[inline]
    pub fn write(&self, tx: &mut Transaction<'_>, value: T) -> TxResult<()> {
        tx.write_var(&self.core, value)
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
        let guard = epoch::pin();
        let mut spins = 0u32;
        loop {
            match self.core.read_committed(&guard) {
                CommittedRead::Value(v, _) => return v,
                CommittedRead::Locked(_) => {
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
        self.core.peek(&guard.0)
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
        self.core.peek_committed(&guard.0)
    }

    /// The version (commit timestamp) of the latest committed value.
    pub fn committed_version(&self) -> u64 {
        let guard = epoch::pin();
        let mut spins = 0u32;
        loop {
            match self.core.read_committed(&guard) {
                CommittedRead::Value(_, ver) => return ver,
                CommittedRead::Locked(_) => {
                    spins += 1;
                    crate::stm::polite_spin(spins);
                }
            }
        }
    }

    /// Stable address identifying this register (the paper's `x` in
    /// `r(x)`); equal iff two handles alias the same register.
    pub fn addr(&self) -> usize {
        self.core.address()
    }

    /// Do two handles alias the same register?
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.core, &b.core)
    }
}

impl<T: TxValue> Clone for TVar<T> {
    fn clone(&self) -> Self {
        Self { core: Arc::clone(&self.core) }
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

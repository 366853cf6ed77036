//! Transactional hash set with a **transactional resize** — the paper's
//! §1 motivating example made concrete.
//!
//! Per-key operations (`contains`/`insert`/`remove`) read the bucket
//! directory and one bucket, running elastically by default: a resize
//! that slides in *behind* an operation does not abort it. The resize
//! itself is one monomorphic (`def`) transaction that atomically swaps
//! the whole directory — the operation that a fixed-bucket lock-free
//! table such as Michael's (SPAA 2002) cannot express.
//!
//! Every read borrows the directory or bucket it reads
//! ([`TVar::read_in`]) instead of cloning it; `insert` and `remove`
//! clone only the bucket they write.

use std::sync::Arc;

use polytm::{PeekGuard, Semantics, Stm, TVar, Transaction, TxParams, TxResult};

type Bucket = Vec<u64>;
type Directory = Arc<Vec<TVar<Bucket>>>;

/// Resizable transactional hash set of `u64` keys.
///
/// Cloning shares the same underlying table.
///
/// ```
/// use std::sync::Arc;
/// use polytm::Stm;
/// use polytm_structures::TxHashSet;
///
/// let set = TxHashSet::new(Arc::new(Stm::new()), 4, 3);
/// for k in 0..64 {
///     assert!(set.insert(k));
/// }
/// assert!(set.buckets() > 4, "overflow triggered a transactional resize");
/// assert!(set.contains(63));
/// assert_eq!(set.len(), 64);
/// ```
#[derive(Clone)]
pub struct TxHashSet {
    stm: Arc<Stm>,
    dir: TVar<Directory>,
    /// Resize when a bucket exceeds this many keys.
    max_load: usize,
    /// `start(p)` parameters for `contains`/`insert`/`remove`.
    op_params: TxParams,
}

fn bucket_index(key: u64, n: usize) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % n
}

impl TxHashSet {
    /// New table with `buckets` initial buckets, splitting when a bucket
    /// exceeds `max_load` keys. Per-key ops run elastic semantics.
    pub fn new(stm: Arc<Stm>, buckets: usize, max_load: usize) -> Self {
        Self::with_op_semantics(stm, buckets, max_load, Semantics::elastic())
    }

    /// As [`TxHashSet::new`] with explicit per-key-operation semantics
    /// (pass [`Semantics::Opaque`] for the monomorphic baseline). Range
    /// scans run snapshot; the resize transaction stays monomorphic
    /// `def` whatever the per-key semantics.
    ///
    /// # Panics
    /// Panics on read-only `op_semantics` (updates write; they would
    /// abort forever), or on zero `buckets`/`max_load`.
    pub fn with_op_semantics(
        stm: Arc<Stm>,
        buckets: usize,
        max_load: usize,
        op_semantics: Semantics,
    ) -> Self {
        assert!(buckets > 0 && max_load > 0);
        assert!(
            !op_semantics.is_read_only(),
            "update operations write; read-only semantics cannot commit them"
        );
        let dir: Directory = Arc::new((0..buckets).map(|_| stm.new_tvar(Vec::new())).collect());
        let dir = stm.new_tvar(dir);
        Self { stm, dir, max_load, op_params: TxParams::new(op_semantics) }
    }

    /// The STM this table lives in.
    pub fn stm(&self) -> &Arc<Stm> {
        &self.stm
    }

    /// Transaction-composable membership test.
    pub fn contains_in(&self, tx: &mut Transaction<'_>, key: u64) -> TxResult<bool> {
        let guard = PeekGuard::pin();
        let bucket = self.slot(tx, key, &guard)?.read_in(tx, &guard)?;
        Ok(bucket.contains(&key))
    }

    /// The bucket register `key` hashes to, read by reference through
    /// the directory under `guard`.
    fn slot<'g>(
        &'g self,
        tx: &mut Transaction<'_>,
        key: u64,
        guard: &'g PeekGuard,
    ) -> TxResult<&'g TVar<Bucket>> {
        let dir = self.dir.read_in(tx, guard)?;
        Ok(&dir[bucket_index(key, dir.len())])
    }

    /// Transaction-composable insert; `Ok(Some(overflow))` reports
    /// whether the touched bucket now exceeds the load factor.
    fn insert_raw(&self, tx: &mut Transaction<'_>, key: u64) -> TxResult<Option<bool>> {
        let guard = PeekGuard::pin();
        let slot = self.slot(tx, key, &guard)?;
        let old = slot.read_in(tx, &guard)?;
        if old.contains(&key) {
            return Ok(None);
        }
        let mut bucket = old.clone();
        bucket.push(key);
        let overflow = bucket.len() > self.max_load;
        slot.write(tx, bucket)?;
        Ok(Some(overflow))
    }

    /// Transaction-composable insert; `false` if present. (Load-factor
    /// maintenance only happens through the non-composable
    /// [`TxHashSet::insert`], since a resize must be its own
    /// transaction.)
    pub fn insert_in(&self, tx: &mut Transaction<'_>, key: u64) -> TxResult<bool> {
        Ok(self.insert_raw(tx, key)?.is_some())
    }

    /// Transaction-composable remove; `false` if absent.
    pub fn remove_in(&self, tx: &mut Transaction<'_>, key: u64) -> TxResult<bool> {
        let guard = PeekGuard::pin();
        let slot = self.slot(tx, key, &guard)?;
        let old = slot.read_in(tx, &guard)?;
        match old.iter().position(|&k| k == key) {
            Some(i) => {
                let mut bucket = old.clone();
                bucket.swap_remove(i);
                slot.write(tx, bucket)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Is `key` present? (One elastic transaction by default.)
    pub fn contains(&self, key: u64) -> bool {
        self.stm.run(self.op_params, |tx| self.contains_in(tx, key))
    }

    /// Insert `key`; `false` if present. Triggers a transactional resize
    /// when the touched bucket overflows.
    pub fn insert(&self, key: u64) -> bool {
        let overflow = self.stm.run(self.op_params, |tx| self.insert_raw(tx, key));
        match overflow {
            None => false,
            Some(overflow) => {
                if overflow {
                    self.resize();
                }
                true
            }
        }
    }

    /// Remove `key`; `false` if absent.
    pub fn remove(&self, key: u64) -> bool {
        self.stm.run(self.op_params, |tx| self.remove_in(tx, key))
    }

    /// Double the table in **one monomorphic transaction**: atomically
    /// reads every bucket and publishes a new directory. Concurrent
    /// elastic readers either see the old or the new directory, never a
    /// mix. Returns the new bucket count (no-op if another resize already
    /// relieved the pressure).
    pub fn resize(&self) -> usize {
        self.stm.run(TxParams::new(Semantics::Opaque), |tx| {
            let guard = PeekGuard::pin();
            let dir = self.dir.read_in(tx, &guard)?;
            // Re-check under the transaction: someone may have resized.
            let mut still_overflowing = false;
            let mut all_keys = Vec::new();
            for slot in dir.iter() {
                let bucket = slot.read_in(tx, &guard)?;
                still_overflowing |= bucket.len() > self.max_load;
                all_keys.extend_from_slice(bucket);
            }
            if !still_overflowing {
                return Ok(dir.len());
            }
            let new_n = dir.len() * 2;
            let mut new_buckets: Vec<Bucket> = vec![Vec::new(); new_n];
            for k in all_keys {
                new_buckets[bucket_index(k, new_n)].push(k);
            }
            let new_dir: Directory =
                Arc::new(new_buckets.into_iter().map(|b| self.stm.new_tvar(b)).collect());
            self.dir.write(tx, new_dir)?;
            Ok(new_n)
        })
    }

    /// Number of keys in `[lo, hi)` under **snapshot** semantics: one
    /// consistent cut over the whole directory, never aborting. A hash
    /// table has no key order, so this walks every bucket — the contrast
    /// with the ordered structures, whose `range_count_snapshot` walks
    /// only the range (polybench's `set-mixed` runs the skip list's).
    /// Nothing outside this crate's tests calls the hash set's.
    pub fn range_count_snapshot(&self, lo: u64, hi: u64) -> usize {
        self.stm.run(TxParams::new(Semantics::Snapshot), |tx| {
            let guard = PeekGuard::pin();
            let mut n = 0usize;
            for slot in self.dir.read_in(tx, &guard)?.iter() {
                n += slot.read_in(tx, &guard)?.iter().filter(|&&k| lo <= k && k < hi).count();
            }
            Ok(n)
        })
    }

    /// Number of keys (one opaque transaction over all buckets).
    pub fn len(&self) -> usize {
        self.stm.run(TxParams::new(Semantics::Opaque), |tx| {
            let guard = PeekGuard::pin();
            let mut n = 0;
            for slot in self.dir.read_in(tx, &guard)?.iter() {
                n += slot.read_in(tx, &guard)?.len();
            }
            Ok(n)
        })
    }

    /// True when no keys are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current bucket count (snapshot read).
    pub fn buckets(&self) -> usize {
        self.stm.run(TxParams::new(Semantics::Snapshot), |tx| {
            Ok(self.dir.read_in(tx, &PeekGuard::pin())?.len())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> TxHashSet {
        TxHashSet::new(Arc::new(Stm::new()), 4, 3)
    }

    #[test]
    fn set_semantics_roundtrip() {
        let h = fresh();
        assert!(h.insert(1));
        assert!(h.insert(2));
        assert!(!h.insert(1));
        assert!(h.contains(1) && h.contains(2) && !h.contains(9));
        assert!(h.remove(1));
        assert!(!h.remove(1));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn range_count_snapshot_spans_buckets() {
        let h = fresh();
        for k in 0..100 {
            h.insert(k);
        }
        assert_eq!(h.range_count_snapshot(0, 100), 100);
        assert_eq!(h.range_count_snapshot(25, 75), 50);
        assert_eq!(h.range_count_snapshot(50, 50), 0);
        assert_eq!(h.range_count_snapshot(99, 200), 1);
    }

    #[test]
    fn resize_triggers_and_preserves_membership() {
        let h = fresh();
        for k in 0..200 {
            assert!(h.insert(k));
        }
        assert!(h.buckets() > 4, "table must have grown from 4 buckets");
        for k in 0..200 {
            assert!(h.contains(k), "key {k} lost across resize");
        }
        assert_eq!(h.len(), 200);
    }

    #[test]
    fn explicit_resize_is_idempotent_when_not_overloaded() {
        let h = fresh();
        h.insert(1);
        let before = h.buckets();
        assert_eq!(h.resize(), before, "resize must no-op when load is fine");
    }

    #[test]
    fn concurrent_inserts_with_resizes() {
        let h = TxHashSet::new(Arc::new(Stm::new()), 2, 2);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..250u64 {
                        assert!(h.insert(t * 1_000_000 + i));
                    }
                });
            }
        });
        assert_eq!(h.len(), 1000);
        for t in 0..4u64 {
            for i in 0..250u64 {
                assert!(h.contains(t * 1_000_000 + i));
            }
        }
        assert!(h.buckets() >= 64, "sustained overflow must have doubled repeatedly");
    }

    #[test]
    fn readers_survive_concurrent_resizes() {
        let h = TxHashSet::new(Arc::new(Stm::new()), 2, 2);
        for k in 0..50 {
            h.insert(k);
        }
        std::thread::scope(|s| {
            let h2 = h.clone();
            s.spawn(move || {
                for k in 50..400 {
                    h2.insert(k);
                }
            });
            for _ in 0..300 {
                for k in 0..50 {
                    assert!(h.contains(k), "stable key {k} must always be found");
                }
            }
        });
    }

    /// Borrowed reads of a bucket this attempt wrote see the write.
    #[test]
    fn composed_operations_see_their_own_writes() {
        let h = fresh();
        h.insert(1);
        let seen = h.stm().run(TxParams::default(), |tx| {
            let inserted = h.insert_in(tx, 2)?;
            let present = h.contains_in(tx, 2)?;
            let inserted_again = h.insert_in(tx, 2)?;
            let removed = h.remove_in(tx, 1)?;
            let still_there = h.contains_in(tx, 1)?;
            Ok([inserted, present, !inserted_again, removed, !still_there])
        });
        assert_eq!(seen, [true; 5]);
        assert!(h.contains(2) && !h.contains(1));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn composed_cross_structure_transaction() {
        let stm = Arc::new(Stm::new());
        let a = TxHashSet::new(Arc::clone(&stm), 4, 8);
        let b = TxHashSet::new(Arc::clone(&stm), 4, 8);
        a.insert(42);
        stm.run(TxParams::default(), |tx| {
            if a.remove_in(tx, 42)? {
                b.insert_in(tx, 42)?;
            }
            Ok(())
        });
        assert!(!a.contains(42));
        assert!(b.contains(42));
    }
}

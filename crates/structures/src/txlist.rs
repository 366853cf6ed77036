//! Transactional sorted linked-list set — the paper's running example.
//!
//! `contains(z)` is the operation of Figure 1: a traversal
//! `r(x), r(y), r(z)` whose semantics assigns consecutive pairs to
//! critical steps. Under [`Semantics::elastic`] the traversal tolerates
//! concurrent updates behind its sliding window; under
//! [`Semantics::Opaque`] (a monomorphic TM) the same traversal aborts
//! whenever any visited node is overwritten — experiment E4/E5 measures
//! exactly that gap.
//!
//! Traversals read links by reference ([`TVar::read_in`]), so a hop
//! clones no `Arc` and writes nothing other traversals share; only the
//! links an update writes are owned clones.

use std::sync::Arc;

use polytm::{PeekGuard, Semantics, Stm, TVar, Transaction, TxParams, TxResult};

/// A link: `None` is the end of the list.
type Link = Option<Arc<Node>>;

/// An immutable-key node; only the `next` link is transactional.
struct Node {
    key: i64,
    next: TVar<Link>,
}

/// Sorted transactional set of `i64` keys.
///
/// Cloning shares the same underlying list.
///
/// ```
/// use std::sync::Arc;
/// use polytm::Stm;
/// use polytm_structures::TxList;
///
/// let list = TxList::new(Arc::new(Stm::new()));
/// assert!(list.insert(2));
/// assert!(list.insert(1));
/// assert!(!list.insert(2), "duplicate");
/// assert!(list.contains(1));
/// assert_eq!(list.to_vec(), vec![1, 2]);
/// ```
#[derive(Clone)]
pub struct TxList {
    stm: Arc<Stm>,
    head: TVar<Link>,
    /// `start(p)` parameters for read operations (`contains`).
    read_params: TxParams,
    /// `start(p)` parameters for updates (`insert`/`remove`).
    update_params: TxParams,
    /// `start(p)` parameters for range scans
    /// ([`TxList::range_count_snapshot`]); snapshot by default.
    scan_params: TxParams,
}

impl TxList {
    /// Empty set on the given STM, single-key operations elastic.
    pub fn new(stm: Arc<Stm>) -> Self {
        Self::with_op_semantics(stm, Semantics::elastic())
    }

    /// Empty set whose single-key operations use `semantics` — pass
    /// [`Semantics::Opaque`] to emulate a monomorphic TM (the baseline in
    /// E4/E5).
    pub fn with_op_semantics(stm: Arc<Stm>, semantics: Semantics) -> Self {
        Self::with_op_params(
            stm,
            TxParams::new(semantics),
            TxParams::new(semantics),
            TxParams::new(Semantics::Snapshot),
        )
    }

    /// Empty set with full per-operation-kind `start(p)` parameters:
    /// `read` drives `contains`, `update` drives `insert`/`remove`,
    /// `scan` drives [`TxList::range_count_snapshot`]. Tagging the
    /// parameters with distinct [`polytm::ClassId`]s (and installing an
    /// advisor on the STM) makes the list *adaptively* polymorphic: the
    /// runtime learns each operation kind's best semantics.
    ///
    /// # Panics
    /// Panics when `update` requests read-only semantics (updates
    /// write; they would abort forever).
    pub fn with_op_params(stm: Arc<Stm>, read: TxParams, update: TxParams, scan: TxParams) -> Self {
        assert!(
            !update.semantics.is_read_only(),
            "update operations write; read-only semantics cannot commit them"
        );
        let head = stm.new_tvar(None);
        Self { stm, head, read_params: read, update_params: update, scan_params: scan }
    }

    /// The STM this list lives in.
    pub fn stm(&self) -> &Arc<Stm> {
        &self.stm
    }

    /// A handle to the *same* underlying list whose single-key operations
    /// run under `semantics` — polymorphism at the handle level (used by
    /// the semantics-mix ablation E7). Range scans keep this handle's
    /// parameters.
    ///
    /// # Panics
    /// Panics on read-only semantics (the handle's updates would retry
    /// forever).
    pub fn clone_with_semantics(&self, semantics: Semantics) -> TxList {
        assert!(
            !semantics.is_read_only(),
            "update operations write; read-only semantics cannot commit them"
        );
        let params = TxParams::new(semantics);
        TxList { read_params: params, update_params: params, ..self.clone() }
    }

    /// Walks to the first node whose key is at least `key`, by reference
    /// under `guard`: returns the link in front of it (the head or the
    /// predecessor's `next`) and that link's value.
    fn seek<'g>(
        &'g self,
        tx: &mut Transaction<'_>,
        key: i64,
        guard: &'g PeekGuard,
    ) -> TxResult<(&'g TVar<Link>, &'g Link)> {
        let mut prev = &self.head;
        let mut link = self.head.read_in(tx, guard)?;
        while let Some(node) = link {
            if node.key >= key {
                break;
            }
            prev = &node.next;
            link = node.next.read_in(tx, guard)?;
        }
        Ok((prev, link))
    }

    /// Visits every key in order, by reference, until `visit` returns
    /// false.
    fn for_each_key(
        &self,
        tx: &mut Transaction<'_>,
        mut visit: impl FnMut(i64) -> bool,
    ) -> TxResult<()> {
        let guard = PeekGuard::pin();
        let mut link = self.head.read_in(tx, &guard)?;
        while let Some(node) = link {
            if !visit(node.key) {
                break;
            }
            link = node.next.read_in(tx, &guard)?;
        }
        Ok(())
    }

    /// Transaction-composable membership test.
    pub fn contains_in(&self, tx: &mut Transaction<'_>, key: i64) -> TxResult<bool> {
        let guard = PeekGuard::pin();
        let (_, link) = self.seek(tx, key, &guard)?;
        Ok(matches!(link, Some(node) if node.key == key))
    }

    /// Transaction-composable insert; `false` if present.
    pub fn insert_in(&self, tx: &mut Transaction<'_>, key: i64) -> TxResult<bool> {
        let guard = PeekGuard::pin();
        let (prev, link) = self.seek(tx, key, &guard)?;
        if matches!(link, Some(node) if node.key == key) {
            return Ok(false);
        }
        let new_node = Arc::new(Node { key, next: self.stm.new_tvar(link.clone()) });
        prev.write(tx, Some(new_node))?;
        Ok(true)
    }

    /// Transaction-composable remove; `false` if absent.
    pub fn remove_in(&self, tx: &mut Transaction<'_>, key: i64) -> TxResult<bool> {
        let guard = PeekGuard::pin();
        let (prev, link) = self.seek(tx, key, &guard)?;
        match link {
            Some(node) if node.key == key => {
                let after = node.next.read(tx)?;
                prev.write(tx, after)?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Is `key` in the set? Runs one transaction under the list's
    /// read-operation parameters (`start(weak)` by default — Figure 1's
    /// p1).
    pub fn contains(&self, key: i64) -> bool {
        self.stm.run(self.read_params, |tx| self.contains_in(tx, key))
    }

    /// Insert `key`; `false` if present.
    pub fn insert(&self, key: i64) -> bool {
        self.stm.run(self.update_params, |tx| self.insert_in(tx, key))
    }

    /// Remove `key`; `false` if absent.
    pub fn remove(&self, key: i64) -> bool {
        self.stm.run(self.update_params, |tx| self.remove_in(tx, key))
    }

    /// Number of keys — an *atomic* aggregate, so it runs `def` (opaque):
    /// the whole traversal is one critical step. This is the polymorphism
    /// pitch: one structure, different semantics per operation.
    pub fn len(&self) -> usize {
        self.stm.run(TxParams::new(Semantics::Opaque), |tx| {
            let mut n = 0usize;
            self.for_each_key(tx, |_| {
                n += 1;
                true
            })?;
            Ok(n)
        })
    }

    /// True when the set is empty (opaque).
    pub fn is_empty(&self) -> bool {
        self.stm.run(TxParams::new(Semantics::Opaque), |tx| Ok(self.head.read(tx)?.is_none()))
    }

    /// Sum of all keys under **snapshot** semantics: an O(n) read-only
    /// aggregate that never aborts, however hot the list is.
    pub fn sum_snapshot(&self) -> i64 {
        self.stm.run(TxParams::new(Semantics::Snapshot), |tx| {
            let mut sum = 0i64;
            self.for_each_key(tx, |key| {
                sum += key;
                true
            })?;
            Ok(sum)
        })
    }

    /// Number of keys in `[lo, hi)` under the list's scan parameters —
    /// **snapshot** semantics by default, where the scan observes one
    /// consistent cut of the list and never aborts, however hot the
    /// list is (the operation polybench's `set-mixed` runs on the skip
    /// list; nothing outside this crate's tests calls the list's).
    /// Handles built with weaker scan parameters trade that consistency
    /// the same way the lock-based scans do.
    pub fn range_count_snapshot(&self, lo: i64, hi: i64) -> usize {
        self.stm.run(self.scan_params, |tx| {
            let mut n = 0usize;
            self.for_each_key(tx, |key| {
                n += usize::from(lo <= key && key < hi);
                key < hi
            })?;
            Ok(n)
        })
    }

    /// Sorted snapshot of the keys (opaque, atomic).
    pub fn to_vec(&self) -> Vec<i64> {
        self.stm.run(TxParams::new(Semantics::Opaque), |tx| {
            let mut out = Vec::new();
            self.for_each_key(tx, |key| {
                out.push(key);
                true
            })?;
            Ok(out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> TxList {
        TxList::new(Arc::new(Stm::new()))
    }

    #[test]
    fn set_semantics_roundtrip() {
        let l = fresh();
        assert!(l.is_empty());
        assert!(l.insert(5));
        assert!(l.insert(1));
        assert!(l.insert(9));
        assert!(!l.insert(5));
        assert!(l.contains(5) && !l.contains(7));
        assert_eq!(l.to_vec(), vec![1, 5, 9]);
        assert!(l.remove(5));
        assert!(!l.remove(5));
        assert_eq!(l.to_vec(), vec![1, 9]);
        assert_eq!(l.len(), 2);
        assert_eq!(l.sum_snapshot(), 10);
    }

    #[test]
    fn range_count_snapshot_counts_half_open_ranges() {
        let l = fresh();
        for k in [1, 3, 5, 7, 9] {
            l.insert(k);
        }
        assert_eq!(l.range_count_snapshot(3, 8), 3); // 3, 5, 7
        assert_eq!(l.range_count_snapshot(0, 100), 5);
        assert_eq!(l.range_count_snapshot(3, 3), 0, "empty range");
        assert_eq!(l.range_count_snapshot(4, 5), 0, "gap");
        assert_eq!(l.range_count_snapshot(9, 10), 1, "upper bound exclusive");
    }

    #[test]
    fn insert_at_head_middle_tail() {
        let l = fresh();
        l.insert(50);
        l.insert(10); // head
        l.insert(30); // middle
        l.insert(90); // tail
        assert_eq!(l.to_vec(), vec![10, 30, 50, 90]);
        assert!(l.remove(10), "remove head");
        assert!(l.remove(90), "remove tail");
        assert_eq!(l.to_vec(), vec![30, 50]);
    }

    #[test]
    fn elastic_traversal_cuts_are_visible_in_stats() {
        let l = fresh();
        for k in 0..32 {
            l.insert(k);
        }
        l.stm().reset_stats();
        assert!(l.contains(31)); // traverses the whole list elastically
        let stats = l.stm().stats();
        assert!(stats.elastic_cuts > 20, "long elastic traversal must cut: {stats:?}");
    }

    #[test]
    fn opaque_variant_performs_no_cuts() {
        let stm = Arc::new(Stm::new());
        let l = TxList::with_op_semantics(Arc::clone(&stm), Semantics::Opaque);
        for k in 0..32 {
            l.insert(k);
        }
        stm.reset_stats();
        assert!(l.contains(31));
        assert_eq!(stm.stats().elastic_cuts, 0);
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let l = fresh();
        std::thread::scope(|s| {
            for t in 0..4 {
                let l = &l;
                s.spawn(move || {
                    for i in 0..100i64 {
                        assert!(l.insert(i * 4 + t));
                    }
                });
            }
        });
        assert_eq!(l.len(), 400);
        let v = l.to_vec();
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn concurrent_churn_keeps_sorted_unique() {
        let l = fresh();
        for k in 0..32 {
            l.insert(k);
        }
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let l = &l;
                s.spawn(move || {
                    let mut seed = 3u64 + t;
                    for _ in 0..300 {
                        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let k = ((seed >> 33) % 48) as i64;
                        if seed & 1 == 0 {
                            l.insert(k);
                        } else {
                            l.remove(k);
                        }
                    }
                });
            }
        });
        let v = l.to_vec();
        assert!(v.windows(2).all(|w| w[0] < w[1]), "sorted unique: {v:?}");
    }

    #[test]
    fn composed_atomic_move_between_lists() {
        // The reusability pitch: build a new atomic operation out of two
        // structures with zero extra synchronization code.
        let stm = Arc::new(Stm::new());
        let a = TxList::new(Arc::clone(&stm));
        let b = TxList::new(Arc::clone(&stm));
        a.insert(7);
        let moved = stm.run(TxParams::default(), |tx| {
            if a.remove_in(tx, 7)? {
                b.insert_in(tx, 7)?;
                Ok(true)
            } else {
                Ok(false)
            }
        });
        assert!(moved);
        assert!(!a.contains(7));
        assert!(b.contains(7));
    }

    #[test]
    fn snapshot_sum_during_writes_is_consistent() {
        // Writers keep the sum invariant (always remove+insert the same
        // key, so the multiset only grows by round values); the snapshot
        // summer must never see a half-applied move.
        let stm = Arc::new(Stm::new());
        let l = TxList::new(Arc::clone(&stm));
        l.insert(100);
        l.insert(200);
        std::thread::scope(|s| {
            let l2 = l.clone();
            s.spawn(move || {
                for _ in 0..300 {
                    // Atomic swap 100 <-> 101 keeping sum in {300, 301}.
                    l2.stm().run(TxParams::default(), |tx| {
                        if l2.remove_in(tx, 100)? {
                            l2.insert_in(tx, 101)?;
                        } else if l2.remove_in(tx, 101)? {
                            l2.insert_in(tx, 100)?;
                        }
                        Ok(())
                    });
                }
            });
            for _ in 0..100 {
                let s = l.sum_snapshot();
                assert!(s == 300 || s == 301, "inconsistent snapshot sum {s}");
            }
        });
    }
}

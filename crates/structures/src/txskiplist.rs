//! Transactional skip-list set with deterministic tower heights.
//!
//! The elastic-transactions evaluation (the systems companion to this
//! paper) used a skip list as its O(log n) search structure; this is the
//! transactional equivalent: the crate's one skip list
//! ([`crate::skiplist::SkipList`], shared with [`crate::TxMap`]) with an
//! empty payload, so a node is its key and its tower. Like
//! [`crate::txlist::TxList`], single-key operations default to the
//! paper's `weak` (elastic) semantics; aggregates run opaque/snapshot.

use polytm::{PeekGuard, Semantics, Transaction, TxParams, TxResult};

use crate::skiplist::SkipList;

/// Sorted transactional set of `i64` keys with O(log n) expected
/// traversals: the skip list with no payload. Cloning shares the
/// structure.
pub type TxSkipList = SkipList<()>;

impl TxSkipList {
    /// Transaction-composable membership test.
    pub fn contains_in(&self, tx: &mut Transaction<'_>, key: i64) -> TxResult<bool> {
        let guard = PeekGuard::pin();
        Ok(self.find(tx, key, &guard)?.is_some())
    }

    /// Transaction-composable insert; `false` if present. An elastic `tx`
    /// needs [`TxSkipList::insert`]'s window, one that covers a whole
    /// tower: a narrower one can lose a concurrent insert.
    pub fn insert_in(&self, tx: &mut Transaction<'_>, key: i64) -> TxResult<bool> {
        let guard = PeekGuard::pin();
        let (preds, found) = self.find_preds(tx, key, &guard)?;
        if found.is_some() {
            return Ok(false);
        }
        self.link_in(tx, &preds, key, ())?;
        Ok(true)
    }

    /// Transaction-composable remove; `false` if absent.
    pub fn remove_in(&self, tx: &mut Transaction<'_>, key: i64) -> TxResult<bool> {
        let guard = PeekGuard::pin();
        let (preds, found) = self.find_preds(tx, key, &guard)?;
        let Some(node) = found else { return Ok(false) };
        self.unlink(tx, &guard, &preds, node)?;
        Ok(true)
    }

    /// Is `key` in the set?
    pub fn contains(&self, key: i64) -> bool {
        self.run_search(|tx| self.contains_in(tx, key))
    }

    /// Insert `key`; `false` if present.
    pub fn insert(&self, key: i64) -> bool {
        self.run_write(|tx| self.insert_in(tx, key))
    }

    /// Remove `key`; `false` if absent.
    pub fn remove(&self, key: i64) -> bool {
        self.run_write(|tx| self.remove_in(tx, key))
    }

    /// Number of keys in `[lo, hi)` under **snapshot** semantics: an
    /// O(log n) tower descent to `lo`, then a level-0 walk to `hi`,
    /// observing one consistent cut without ever aborting.
    pub fn range_count_snapshot(&self, lo: i64, hi: i64) -> usize {
        self.stm().snapshot(|tx| {
            let guard = PeekGuard::pin();
            let mut n = 0usize;
            self.walk(tx, &guard, Some(lo), |_, node| {
                n += usize::from(node.key < hi);
                Ok(node.key < hi)
            })?;
            Ok(n)
        })
    }

    /// Sorted snapshot of the keys (opaque).
    pub fn to_vec(&self) -> Vec<i64> {
        self.stm().run(TxParams::new(Semantics::Opaque), |tx| {
            let guard = PeekGuard::pin();
            let mut out = Vec::new();
            self.walk(tx, &guard, None, |_, node| {
                out.push(node.key);
                Ok(true)
            })?;
            Ok(out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skiplist::height_of;
    use polytm::Stm;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn fresh() -> TxSkipList {
        TxSkipList::new(Arc::new(Stm::new()))
    }

    #[test]
    fn set_semantics_roundtrip() {
        let s = fresh();
        assert!(s.is_empty());
        for k in [5, 1, 9, 3, 7] {
            assert!(s.insert(k));
        }
        assert!(!s.insert(5));
        assert_eq!(s.to_vec(), vec![1, 3, 5, 7, 9]);
        assert!(s.contains(7) && !s.contains(8));
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert_eq!(s.to_vec(), vec![1, 3, 7, 9]);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn range_count_snapshot_matches_reference() {
        let s = fresh();
        let keys: Vec<i64> = (0..200).map(|i| (i * 13) % 500).collect();
        for &k in &keys {
            s.insert(k);
        }
        let sorted = s.to_vec();
        for (lo, hi) in [(0, 500), (100, 300), (250, 250), (499, 500), (300, 100)] {
            let expect = sorted.iter().filter(|&&k| lo <= k && k < hi).count();
            assert_eq!(s.range_count_snapshot(lo, hi), expect, "[{lo}, {hi})");
        }
    }

    #[test]
    fn larger_population_stays_sorted() {
        let s = fresh();
        let mut keys: Vec<i64> = (0..300).map(|i| (i * 37) % 1000).collect();
        keys.sort_unstable();
        keys.dedup();
        for &k in &keys {
            s.insert(k);
        }
        assert_eq!(s.to_vec(), keys);
    }

    #[test]
    fn towers_are_deterministic() {
        assert_eq!(height_of(42), height_of(42));
        // Heights are geometric: the vast majority of keys are short.
        let tall = (0..1000).filter(|&k| height_of(k) > 4).count();
        assert!(tall < 200, "too many tall towers: {tall}");
    }

    #[test]
    fn remove_tall_tower_keeps_structure() {
        let s = fresh();
        for k in 0..64 {
            s.insert(k);
        }
        // Find a tall key and remove it.
        let tall = (0..64).max_by_key(|&k| height_of(k)).unwrap();
        assert!(s.remove(tall));
        assert!(!s.contains(tall));
        let v = s.to_vec();
        assert_eq!(v.len(), 63);
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let s = fresh();
        std::thread::scope(|sc| {
            for t in 0..4 {
                let s = &s;
                sc.spawn(move || {
                    for i in 0..100i64 {
                        assert!(s.insert(i * 4 + t));
                    }
                });
            }
        });
        assert_eq!(s.len(), 400);
        let v = s.to_vec();
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn concurrent_churn_stays_consistent() {
        let s = fresh();
        for k in 0..32 {
            s.insert(k);
        }
        std::thread::scope(|sc| {
            for t in 0..4u64 {
                let s = &s;
                sc.spawn(move || {
                    let mut seed = 11u64 + t;
                    for _ in 0..200 {
                        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let k = ((seed >> 33) % 48) as i64;
                        if seed & 1 == 0 {
                            s.insert(k);
                        } else {
                            s.remove(k);
                        }
                    }
                });
            }
        });
        let v = s.to_vec();
        assert!(v.windows(2).all(|w| w[0] < w[1]), "sorted unique: {v:?}");
    }

    /// A seeded insert/remove churn over the keys `k * stride + offset`,
    /// `k < 128`, each result checked against a model it returns.
    fn churn(s: &TxSkipList, mut seed: u64, stride: i64, offset: i64) -> BTreeSet<i64> {
        let mut model = BTreeSet::new();
        for _ in 0..1_500 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let k = ((seed >> 33) % 128) as i64 * stride + offset;
            if seed & (1 << 20) == 0 {
                assert_eq!(s.insert(k), model.insert(k));
            } else {
                assert_eq!(s.remove(k), model.remove(&k));
            }
        }
        model
    }

    #[test]
    fn towers_hold_after_seeded_churn() {
        let s = fresh();
        let model = churn(&s, 7, 1, 0);
        assert_eq!(s.assert_towers(), Vec::from_iter(model));
    }

    /// Two threads churn interleaved keys, so they share predecessors,
    /// but each thread's model is exact.
    #[test]
    fn towers_hold_after_two_thread_opaque_churn() {
        let s = TxSkipList::with_op_semantics(Arc::new(Stm::new()), Semantics::Opaque);
        let union: BTreeSet<i64> = std::thread::scope(|sc| {
            let s = &s;
            let threads = [0, 1].map(|t| sc.spawn(move || churn(s, 3 + t as u64, 2, t)));
            threads.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(s.assert_towers(), Vec::from_iter(union));
    }
}

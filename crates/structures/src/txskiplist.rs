//! Transactional skip-list set with deterministic tower heights.
//!
//! The elastic-transactions evaluation (the systems companion to this
//! paper) used a skip list as its O(log n) search structure; this is the
//! transactional equivalent. Tower heights derive from a hash of the key,
//! keeping the structure deterministic for reproducible benchmarks.
//! Like [`crate::txlist::TxList`], single-key operations default to the
//! paper's `weak` (elastic) semantics; aggregates run opaque/snapshot.
//!
//! Every descent reads links by reference ([`TVar::read_in`]): a hop
//! clones no `Arc` and so writes nothing the other threads' descents
//! share. Only the links an update writes are owned clones.

use std::sync::Arc;

use polytm::{PeekGuard, Semantics, Stm, TVar, Transaction, TxParams, TxResult};

const MAX_LEVEL: usize = 16;

type Link = Option<Arc<Node>>;

struct Node {
    key: i64,
    /// `next[l]` is the successor at level `l`; the tower's height is
    /// `next.len()`.
    next: Vec<TVar<Link>>,
}

/// Height of `key`'s tower: geometric(1/2) via trailing zeros of a mixed
/// hash, deterministic per key.
fn height_of(key: i64) -> usize {
    let mut h = key as u64;
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d049bb133111eb);
    h ^= h >> 31;
    ((h.trailing_zeros() as usize) + 1).min(MAX_LEVEL)
}

/// Sorted transactional set of `i64` keys with O(log n) expected
/// traversals. Cloning shares the structure.
#[derive(Clone)]
pub struct TxSkipList {
    stm: Arc<Stm>,
    /// Head tower: `head[l]` is the first node at level `l`.
    head: Arc<Vec<TVar<Link>>>,
    op_semantics: Semantics,
}

impl TxSkipList {
    /// Empty set, single-key operations elastic.
    pub fn new(stm: Arc<Stm>) -> Self {
        Self::with_op_semantics(stm, Semantics::elastic())
    }

    /// Empty set with explicit per-key-operation semantics.
    pub fn with_op_semantics(stm: Arc<Stm>, op_semantics: Semantics) -> Self {
        let head = Arc::new((0..MAX_LEVEL).map(|_| stm.new_tvar(None)).collect::<Vec<_>>());
        Self { stm, head, op_semantics }
    }

    /// The STM this skip list lives in.
    pub fn stm(&self) -> &Arc<Stm> {
        &self.stm
    }

    /// The tower descent, by reference under `guard`: at each level,
    /// follows links while they lead to keys below `key`, hands
    /// `at_level` the tower it stopped in (the head's or a node's), and
    /// returns the level-0 link that stopped it — the candidate.
    fn descend<'g>(
        &'g self,
        tx: &mut Transaction<'_>,
        key: i64,
        guard: &'g PeekGuard,
        mut at_level: impl FnMut(usize, &'g [TVar<Link>]),
    ) -> TxResult<&'g Link> {
        let mut tower: &'g [TVar<Link>] = &self.head;
        let mut link: &'g Link = &None;
        for level in (0..MAX_LEVEL).rev() {
            loop {
                link = tower[level].read_in(tx, guard)?;
                match link {
                    Some(node) if node.key < key => tower = &node.next,
                    _ => break,
                }
            }
            at_level(level, tower);
        }
        Ok(link)
    }

    /// The descent for an update: the candidate, plus each level's
    /// predecessor tower, whose link at that level the update writes.
    #[allow(clippy::type_complexity)]
    fn find_preds<'g>(
        &'g self,
        tx: &mut Transaction<'_>,
        key: i64,
        guard: &'g PeekGuard,
    ) -> TxResult<([&'g [TVar<Link>]; MAX_LEVEL], &'g Link)> {
        let mut preds: [&'g [TVar<Link>]; MAX_LEVEL] = [&self.head[..]; MAX_LEVEL];
        let candidate = self.descend(tx, key, guard, |level, tower| preds[level] = tower)?;
        Ok((preds, candidate))
    }

    /// Visits the level-0 keys from `link` on, in order, by reference,
    /// until `visit` returns false.
    fn walk<'g>(
        tx: &mut Transaction<'_>,
        guard: &'g PeekGuard,
        mut link: &'g Link,
        mut visit: impl FnMut(i64) -> bool,
    ) -> TxResult<()> {
        while let Some(node) = link {
            if !visit(node.key) {
                break;
            }
            link = node.next[0].read_in(tx, guard)?;
        }
        Ok(())
    }

    /// Visits every key in order (see [`TxSkipList::walk`]).
    fn for_each_key(
        &self,
        tx: &mut Transaction<'_>,
        visit: impl FnMut(i64) -> bool,
    ) -> TxResult<()> {
        let guard = PeekGuard::pin();
        let first = self.head[0].read_in(tx, &guard)?;
        Self::walk(tx, &guard, first, visit)
    }

    /// Transaction-composable membership test.
    pub fn contains_in(&self, tx: &mut Transaction<'_>, key: i64) -> TxResult<bool> {
        let guard = PeekGuard::pin();
        let candidate = self.descend(tx, key, &guard, |_, _| {})?;
        Ok(matches!(candidate, Some(n) if n.key == key))
    }

    /// Transaction-composable insert; `false` if present.
    ///
    /// When `tx` runs elastic semantics, its window must cover the whole
    /// tower (>= `MAX_LEVEL + 2`, see `write_semantics`): a narrower
    /// window cuts predecessor-link reads this insert later writes
    /// against, which can lose a concurrent insert.
    pub fn insert_in(&self, tx: &mut Transaction<'_>, key: i64) -> TxResult<bool> {
        let guard = PeekGuard::pin();
        let (preds, candidate) = self.find_preds(tx, key, &guard)?;
        if matches!(candidate, Some(n) if n.key == key) {
            return Ok(false);
        }
        let h = height_of(key);
        let mut levels = Vec::with_capacity(h);
        #[allow(clippy::needless_range_loop)] // parallel towers/arrays indexed together
        for level in 0..h {
            let succ = preds[level][level].read(tx)?;
            levels.push(self.stm.new_tvar(succ));
        }
        let node = Arc::new(Node { key, next: levels });
        #[allow(clippy::needless_range_loop)] // parallel towers/arrays indexed together
        for level in 0..h {
            preds[level][level].write(tx, Some(Arc::clone(&node)))?;
        }
        Ok(true)
    }

    /// Transaction-composable remove; `false` if absent.
    pub fn remove_in(&self, tx: &mut Transaction<'_>, key: i64) -> TxResult<bool> {
        let guard = PeekGuard::pin();
        let (preds, candidate) = self.find_preds(tx, key, &guard)?;
        let node = match candidate {
            Some(n) if n.key == key => n,
            _ => return Ok(false),
        };
        for (level, next) in node.next.iter().enumerate() {
            // The predecessor at this level may not point at `node` (its
            // tower may be taller than where we found it); skip it if so.
            let succ = next.read(tx)?;
            let link = &preds[level][level];
            if matches!(link.read_in(tx, &guard)?, Some(c) if Arc::ptr_eq(c, node)) {
                link.write(tx, succ)?;
            }
        }
        Ok(true)
    }

    /// Semantics for operations that *write* tower links. An elastic
    /// window must keep every link the operation later writes against
    /// live (cut reads are never validated); `insert_in` re-reads up to
    /// `MAX_LEVEL + 1` successor links before its first write, so the
    /// narrow search window of [`Semantics::elastic`] would let a
    /// concurrent insert through the same predecessor be silently
    /// overwritten (a lost node). Search operations keep the narrow
    /// window — they write nothing, so cutting stays sound.
    fn write_semantics(&self) -> Semantics {
        match self.op_semantics {
            Semantics::Elastic { .. } => Semantics::Elastic { window: MAX_LEVEL + 2 },
            other => other,
        }
    }

    /// Is `key` in the set?
    pub fn contains(&self, key: i64) -> bool {
        self.stm.run(TxParams::new(self.op_semantics), |tx| self.contains_in(tx, key))
    }

    /// Insert `key`; `false` if present.
    pub fn insert(&self, key: i64) -> bool {
        self.stm.run(TxParams::new(self.write_semantics()), |tx| self.insert_in(tx, key))
    }

    /// Remove `key`; `false` if absent.
    pub fn remove(&self, key: i64) -> bool {
        self.stm.run(TxParams::new(self.write_semantics()), |tx| self.remove_in(tx, key))
    }

    /// Number of keys (opaque, walks level 0).
    pub fn len(&self) -> usize {
        self.stm.run(TxParams::new(Semantics::Opaque), |tx| {
            let mut n = 0;
            self.for_each_key(tx, |_| {
                n += 1;
                true
            })?;
            Ok(n)
        })
    }

    /// True when empty (opaque).
    pub fn is_empty(&self) -> bool {
        self.stm.run(TxParams::new(Semantics::Opaque), |tx| Ok(self.head[0].read(tx)?.is_none()))
    }

    /// Number of keys in `[lo, hi)` under **snapshot** semantics: an
    /// O(log n) tower descent to `lo`, then a level-0 walk to `hi`,
    /// observing one consistent cut without ever aborting.
    pub fn range_count_snapshot(&self, lo: i64, hi: i64) -> usize {
        self.stm.snapshot(|tx| {
            let guard = PeekGuard::pin();
            let first = self.descend(tx, lo, &guard, |_, _| {})?;
            let mut n = 0usize;
            Self::walk(tx, &guard, first, |key| {
                n += usize::from(key < hi);
                key < hi
            })?;
            Ok(n)
        })
    }

    /// Sorted snapshot of the keys (opaque).
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
}

//! The transactional skip list that [`crate::TxSkipList`] and
//! [`crate::TxMap`] are: sorted `i64` keys, each node carrying a
//! payload `P` (`()` for the set, the value register for the map).
//! Each type's own operations live in its module.
//!
//! Tower heights derive from a hash of the key, keeping the structure
//! deterministic for reproducible benchmarks. Every descent reads links
//! by reference ([`polytm::TCell::read_in`]): a hop clones no `Arc` and so writes
//! nothing the other threads' descents share. Only the links an update
//! writes are owned clones.

use std::sync::Arc;

use polytm::{PeekGuard, Semantics, Stm, TVar, Transaction, TxParams, TxResult};

const MAX_LEVEL: usize = 16;

type Link<P> = Option<Arc<Node<P>>>;

/// A tower: `tower[l]` is the link at level `l`.
type Tower<P> = [TVar<Link<P>>];

/// Each level's predecessor tower, as [`SkipList::find_preds`] finds it.
pub(crate) type Preds<'g, P> = [&'g Tower<P>; MAX_LEVEL];

pub(crate) struct Node<P: Send + Sync + 'static> {
    pub(crate) key: i64,
    pub(crate) payload: P,
    /// `next[l]` is the successor at level `l`; the tower's height is
    /// `next.len()`.
    next: Vec<TVar<Link<P>>>,
}

/// Height of `key`'s tower: geometric(1/2) via trailing zeros of a mixed
/// hash, deterministic per key.
pub(crate) fn height_of(key: i64) -> usize {
    let mut h = key as u64;
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d049bb133111eb);
    h ^= h >> 31;
    ((h.trailing_zeros() as usize) + 1).min(MAX_LEVEL)
}

/// A transactional skip list of `i64` keys whose nodes carry a `P`:
/// [`crate::TxSkipList`] with `P = ()`, [`crate::TxMap`] with a value
/// register. Cloning shares the structure.
#[derive(Clone)]
pub struct SkipList<P: Send + Sync + 'static> {
    stm: Arc<Stm>,
    /// Head tower: `head[l]` is the first node at level `l`.
    head: Arc<Vec<TVar<Link<P>>>>,
    op_semantics: Semantics,
}

impl<P: Send + Sync + 'static> SkipList<P> {
    /// Empty, single-key operations elastic.
    pub fn new(stm: Arc<Stm>) -> Self {
        Self::with_op_semantics(stm, Semantics::elastic())
    }

    /// Empty, with explicit per-key-operation semantics (updates widen
    /// an elastic window to cover a tower).
    pub fn with_op_semantics(stm: Arc<Stm>, op_semantics: Semantics) -> Self {
        let head = Arc::new((0..MAX_LEVEL).map(|_| stm.new_tvar(None)).collect::<Vec<_>>());
        Self { stm, head, op_semantics }
    }

    /// The STM this structure lives in.
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
        mut at_level: impl FnMut(usize, &'g Tower<P>),
    ) -> TxResult<&'g Link<P>> {
        let mut tower: &'g Tower<P> = &self.head;
        let mut link: &'g Link<P> = &None;
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

    /// The node holding `key`, if any (a search descent).
    pub(crate) fn find<'g>(
        &'g self,
        tx: &mut Transaction<'_>,
        key: i64,
        guard: &'g PeekGuard,
    ) -> TxResult<Option<&'g Node<P>>> {
        let candidate = self.descend(tx, key, guard, |_, _| {})?;
        Ok(candidate.as_deref().filter(|n| n.key == key))
    }

    /// The descent for an update: each level's predecessor tower, whose
    /// link the update writes, and the node holding `key`, if any.
    #[allow(clippy::type_complexity)]
    pub(crate) fn find_preds<'g>(
        &'g self,
        tx: &mut Transaction<'_>,
        key: i64,
        guard: &'g PeekGuard,
    ) -> TxResult<(Preds<'g, P>, Option<&'g Arc<Node<P>>>)> {
        let mut preds: Preds<'g, P> = [&self.head[..]; MAX_LEVEL];
        let candidate = self.descend(tx, key, guard, |level, tower| preds[level] = tower)?;
        Ok((preds, candidate.as_ref().filter(|n| n.key == key)))
    }

    /// Links a new node for `key` behind `preds` (from a
    /// [`SkipList::find_preds`] that found no node for `key`).
    ///
    /// When `tx` runs elastic semantics, its window must cover the whole
    /// tower (>= `MAX_LEVEL + 2`, see [`SkipList::write_semantics`]): a
    /// narrower window cuts predecessor-link reads this insert later
    /// writes against, which can lose a concurrent insert.
    pub(crate) fn link_in(
        &self,
        tx: &mut Transaction<'_>,
        preds: &Preds<'_, P>,
        key: i64,
        payload: P,
    ) -> TxResult<()> {
        let preds = &preds[..height_of(key)];
        let mut levels = Vec::with_capacity(preds.len());
        for (level, pred) in preds.iter().enumerate() {
            levels.push(self.stm.new_tvar(pred[level].read(tx)?));
        }
        let node = Arc::new(Node { key, payload, next: levels });
        for (level, pred) in preds.iter().enumerate() {
            pred[level].write(tx, Some(Arc::clone(&node)))?;
        }
        Ok(())
    }

    /// Unlinks `node` (found by [`SkipList::find_preds`] with `preds`).
    pub(crate) fn unlink(
        &self,
        tx: &mut Transaction<'_>,
        guard: &PeekGuard,
        preds: &Preds<'_, P>,
        node: &Arc<Node<P>>,
    ) -> TxResult<()> {
        for (level, next) in node.next.iter().enumerate() {
            // The predecessor at this level may not point at `node` (its
            // tower may be taller than where we found it); skip it if so.
            let succ = next.read(tx)?;
            let link = &preds[level][level];
            if matches!(link.read_in(tx, guard)?, Some(c) if Arc::ptr_eq(c, node)) {
                link.write(tx, succ)?;
            }
        }
        Ok(())
    }

    /// Visits the level-0 nodes in key order, by reference, until `visit`
    /// returns false: all of them, or, with `from: Some(lo)`, those from
    /// the first key at or above `lo` on (a tower descent finds it).
    pub(crate) fn walk<'g>(
        &'g self,
        tx: &mut Transaction<'_>,
        guard: &'g PeekGuard,
        from: Option<i64>,
        mut visit: impl FnMut(&mut Transaction<'_>, &'g Node<P>) -> TxResult<bool>,
    ) -> TxResult<()> {
        let mut link = match from {
            Some(lo) => self.descend(tx, lo, guard, |_, _| {})?,
            None => self.head[0].read_in(tx, guard)?,
        };
        while let Some(node) = link {
            if !visit(tx, node)? {
                break;
            }
            link = node.next[0].read_in(tx, guard)?;
        }
        Ok(())
    }

    /// Semantics for operations that *write* tower links. An elastic
    /// window must keep every link the operation later writes against
    /// live (cut reads are never validated); `link_in` re-reads up to
    /// `MAX_LEVEL + 1` successor links before its first write, so the
    /// narrow search window of [`Semantics::elastic`] would let a
    /// concurrent insert through the same predecessor be silently
    /// overwritten (a lost node). Searches keep the narrow window — they
    /// write nothing, so cutting stays sound.
    fn write_semantics(&self) -> Semantics {
        match self.op_semantics {
            Semantics::Elastic { .. } => Semantics::Elastic { window: MAX_LEVEL + 2 },
            other => other,
        }
    }

    /// Runs `f` under the search semantics (`contains`, `get`).
    pub(crate) fn run_search<R>(&self, f: impl FnMut(&mut Transaction<'_>) -> TxResult<R>) -> R {
        self.stm.run(TxParams::new(self.op_semantics), f)
    }

    /// Runs `f` under [`SkipList::write_semantics`] (`insert`, `remove`).
    pub(crate) fn run_write<R>(&self, f: impl FnMut(&mut Transaction<'_>) -> TxResult<R>) -> R {
        self.stm.run(TxParams::new(self.write_semantics()), f)
    }

    /// Number of keys (opaque, walks level 0).
    pub fn len(&self) -> usize {
        self.stm.run(TxParams::new(Semantics::Opaque), |tx| {
            let guard = PeekGuard::pin();
            let mut n = 0;
            self.walk(tx, &guard, None, |_, _| {
                n += 1;
                Ok(true)
            })?;
            Ok(n)
        })
    }

    /// True when empty (opaque).
    pub fn is_empty(&self) -> bool {
        self.stm.run(TxParams::new(Semantics::Opaque), |tx| Ok(self.head[0].read(tx)?.is_none()))
    }
}

#[cfg(test)]
impl<P: Send + Sync + 'static> SkipList<P> {
    /// Checks the committed towers (call it at quiescence) and returns
    /// the level-0 keys: level 0 is strictly increasing, every tower is
    /// `height_of` its key, and every level `l` is exactly the level-0
    /// nodes whose tower is taller than `l`, in order.
    pub(crate) fn assert_towers(&self) -> Vec<i64> {
        let level = |l: usize| {
            let (mut nodes, mut link) = (Vec::new(), self.head[l].load_committed());
            while let Some(node) = link {
                link = node.next[l].load_committed();
                nodes.push(node);
            }
            nodes
        };
        let base = level(0);
        assert!(base.windows(2).all(|w| w[0].key < w[1].key), "level 0 out of order");
        assert!(base.iter().all(|n| n.next.len() == height_of(n.key)), "a tower's height is off");
        for l in 0..MAX_LEVEL {
            let (got, want) = (level(l), base.iter().filter(|n| n.next.len() > l));
            assert_eq!(got.len(), want.clone().count(), "level {l} holds the wrong node count");
            assert!(got.iter().zip(want).all(|(a, b)| Arc::ptr_eq(a, b)), "level {l} is off");
        }
        base.iter().map(|n| n.key).collect()
    }
}

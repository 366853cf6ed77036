//! Transactional ordered map: `i64` keys to arbitrary clonable values,
//! with per-operation semantics like the sets. It is the skip list
//! [`crate::TxSkipList`] is ([`crate::skiplist::SkipList`]) with a value
//! register as each node's payload. `get` runs the paper's `weak`
//! (elastic) semantics by default — a map lookup is a search traversal,
//! the same shape as Figure 1's p1. Value updates write through the
//! per-node register, so overwriting a value never restructures the
//! index.

use polytm::{PeekGuard, Semantics, TVar, Transaction, TxParams, TxResult};

use crate::skiplist::SkipList;

/// Ordered transactional map: the skip list whose node payload is the
/// value's register. Cloning shares the map.
///
/// ```
/// use std::sync::Arc;
/// use polytm::Stm;
/// use polytm_structures::TxMap;
///
/// let map: TxMap<&str> = TxMap::new(Arc::new(Stm::new()));
/// assert_eq!(map.insert(2, "two"), None);
/// assert_eq!(map.insert(2, "TWO"), Some("two"));
/// assert_eq!(map.get(2), Some("TWO"));
/// assert_eq!(map.entries_snapshot(), vec![(2, "TWO")]);
/// ```
pub type TxMap<V> = SkipList<TVar<V>>;

impl<V: Clone + Send + Sync + 'static> TxMap<V> {
    /// Transaction-composable lookup.
    pub fn get_in(&self, tx: &mut Transaction<'_>, key: i64) -> TxResult<Option<V>> {
        let guard = PeekGuard::pin();
        self.find(tx, key, &guard)?.map(|node| node.payload.read(tx)).transpose()
    }

    /// Transaction-composable insert/overwrite; returns the previous
    /// value if any. An elastic `tx` needs [`TxMap::insert`]'s window,
    /// one that covers a whole tower: a narrower one can lose a
    /// concurrent insert.
    pub fn insert_in(&self, tx: &mut Transaction<'_>, key: i64, value: V) -> TxResult<Option<V>> {
        let guard = PeekGuard::pin();
        let (preds, found) = self.find_preds(tx, key, &guard)?;
        if let Some(node) = found {
            return Ok(Some(node.payload.replace(tx, value)?));
        }
        self.link_in(tx, &preds, key, self.stm().new_tvar(value))?;
        Ok(None)
    }

    /// Transaction-composable remove; returns the removed value if any.
    pub fn remove_in(&self, tx: &mut Transaction<'_>, key: i64) -> TxResult<Option<V>> {
        let guard = PeekGuard::pin();
        let (preds, found) = self.find_preds(tx, key, &guard)?;
        let Some(node) = found else { return Ok(None) };
        self.unlink(tx, &guard, &preds, node)?;
        Ok(Some(node.payload.read(tx)?))
    }

    /// Lookup under the map's operation semantics.
    pub fn get(&self, key: i64) -> Option<V> {
        self.run_search(|tx| self.get_in(tx, key))
    }

    /// Insert/overwrite; returns the previous value.
    pub fn insert(&self, key: i64, value: V) -> Option<V> {
        self.run_write(|tx| self.insert_in(tx, key, value.clone()))
    }

    /// Remove; returns the removed value.
    pub fn remove(&self, key: i64) -> Option<V> {
        self.run_write(|tx| self.remove_in(tx, key))
    }

    /// Atomically update the value at `key` (no-op if absent); returns
    /// whether a value was updated. A genuine read-modify-write, so it
    /// always runs opaque.
    pub fn update<F: Fn(&V) -> V>(&self, key: i64, f: F) -> bool {
        self.stm().run(TxParams::new(Semantics::Opaque), |tx| {
            let guard = PeekGuard::pin();
            let Some(node) = self.find(tx, key, &guard)? else { return Ok(false) };
            let new = f(node.payload.read_in(tx, &guard)?);
            node.payload.write(tx, new)?;
            Ok(true)
        })
    }

    /// Ordered `(key, value)` snapshot under **snapshot** semantics —
    /// a consistent O(n) export that never aborts.
    pub fn entries_snapshot(&self) -> Vec<(i64, V)> {
        self.stm().snapshot(|tx| {
            let guard = PeekGuard::pin();
            let mut out = Vec::new();
            self.walk(tx, &guard, None, |tx, node| {
                out.push((node.key, node.payload.read(tx)?));
                Ok(true)
            })?;
            Ok(out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polytm::Stm;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn fresh() -> TxMap<String> {
        TxMap::new(Arc::new(Stm::new()))
    }

    #[test]
    fn map_semantics_roundtrip() {
        let m = fresh();
        assert!(m.is_empty());
        assert_eq!(m.insert(2, "b".into()), None);
        assert_eq!(m.insert(1, "a".into()), None);
        assert_eq!(m.insert(2, "B".into()), Some("b".into()));
        assert_eq!(m.get(1).as_deref(), Some("a"));
        assert_eq!(m.get(2).as_deref(), Some("B"));
        assert_eq!(m.get(3), None);
        assert_eq!(m.remove(1).as_deref(), Some("a"));
        assert_eq!(m.remove(1), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn entries_are_ordered() {
        let m = fresh();
        for k in [9, 2, 7, 1] {
            m.insert(k, k.to_string());
        }
        let entries = m.entries_snapshot();
        assert_eq!(
            entries,
            vec![
                (1, "1".to_string()),
                (2, "2".to_string()),
                (7, "7".to_string()),
                (9, "9".to_string())
            ]
        );
    }

    #[test]
    fn update_in_place() {
        let stm = Arc::new(Stm::new());
        let m: TxMap<i64> = TxMap::new(stm);
        m.insert(5, 10);
        assert!(m.update(5, |v| v * 2));
        assert!(!m.update(6, |v| v * 2));
        assert_eq!(m.get(5), Some(20));
    }

    #[test]
    fn agrees_with_btreemap_model() {
        let m: TxMap<u64> = TxMap::new(Arc::new(Stm::new()));
        let mut model = BTreeMap::new();
        let mut seed = 5u64;
        for _ in 0..600 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let k = ((seed >> 33) % 64) as i64;
            let v = seed % 1000;
            match seed % 4 {
                0 => assert_eq!(m.insert(k, v), model.insert(k, v)),
                1 => assert_eq!(m.remove(k), model.remove(&k)),
                2 => assert_eq!(m.get(k), model.get(&k).copied()),
                _ => {
                    let got = m.update(k, |x| x + 1);
                    let want = model.get_mut(&k).map(|x| *x += 1).is_some();
                    assert_eq!(got, want);
                }
            }
        }
        let entries: Vec<(i64, u64)> = model.into_iter().collect();
        assert_eq!(m.entries_snapshot(), entries);
    }

    #[test]
    fn concurrent_per_key_counters_are_exact() {
        let stm = Arc::new(Stm::new());
        let m: TxMap<u64> = TxMap::new(Arc::clone(&stm));
        for k in 0..8 {
            m.insert(k, 0);
        }
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = m.clone();
                s.spawn(move || {
                    for i in 0..400u64 {
                        m.update((i % 8) as i64, |v| v + 1);
                    }
                });
            }
        });
        let total: u64 = m.entries_snapshot().into_iter().map(|(_, v)| v).sum();
        assert_eq!(total, 1600);
    }

    #[test]
    fn composes_with_other_transactions() {
        let stm = Arc::new(Stm::new());
        let inventory: TxMap<u64> = TxMap::new(Arc::clone(&stm));
        let sold: TxMap<u64> = TxMap::new(Arc::clone(&stm));
        inventory.insert(1, 5);
        // Atomically move one unit from inventory to sold.
        stm.run(TxParams::default(), |tx| {
            if let Some(n) = inventory.get_in(tx, 1)? {
                if n > 0 {
                    inventory.insert_in(tx, 1, n - 1)?;
                    let s = sold.get_in(tx, 1)?.unwrap_or(0);
                    sold.insert_in(tx, 1, s + 1)?;
                }
            }
            Ok(())
        });
        assert_eq!(inventory.get(1), Some(4));
        assert_eq!(sold.get(1), Some(1));
    }

    #[test]
    fn towers_hold_after_seeded_insert_remove_overwrite() {
        let m: TxMap<u64> = TxMap::new(Arc::new(Stm::new()));
        let mut model = BTreeMap::new();
        let mut seed = 9u64;
        for _ in 0..2_000 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let k = ((seed >> 33) % 256) as i64;
            match seed.is_multiple_of(3) {
                true => assert_eq!(m.remove(k), model.remove(&k)),
                false => assert_eq!(m.insert(k, seed), model.insert(k, seed)),
            }
        }
        assert_eq!(m.assert_towers(), Vec::from_iter(model.keys().copied()));
        assert_eq!(m.entries_snapshot(), Vec::from_iter(model));
    }
}

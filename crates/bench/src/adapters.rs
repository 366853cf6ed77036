//! [`ConcurrentSet`] adapters for every set implementation the E4–E6
//! tables sweep, and the by-name factories those tables iterate.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use polytm::{Semantics, Stm};
use polytm_structures::{TxHashSet, TxList, TxSkipList};
use polytm_workload::ConcurrentSet;

// ---------------------------------------------------------------------
// Transactional structures
// ---------------------------------------------------------------------

/// TxList under any per-op semantics.
pub struct TxListSet(pub TxList);

impl ConcurrentSet for TxListSet {
    fn contains(&self, key: u64) -> bool {
        self.0.contains(key as i64)
    }
    fn insert(&self, key: u64) -> bool {
        self.0.insert(key as i64)
    }
    fn remove(&self, key: u64) -> bool {
        self.0.remove(key as i64)
    }
}

/// TxSkipList under any per-op semantics.
pub struct TxSkipListSet(pub TxSkipList);

impl ConcurrentSet for TxSkipListSet {
    fn contains(&self, key: u64) -> bool {
        self.0.contains(key as i64)
    }
    fn insert(&self, key: u64) -> bool {
        self.0.insert(key as i64)
    }
    fn remove(&self, key: u64) -> bool {
        self.0.remove(key as i64)
    }
}

/// TxHashSet under any per-op semantics.
pub struct TxHashAdapter(pub TxHashSet);

impl ConcurrentSet for TxHashAdapter {
    fn contains(&self, key: u64) -> bool {
        self.0.contains(key)
    }
    fn insert(&self, key: u64) -> bool {
        self.0.insert(key)
    }
    fn remove(&self, key: u64) -> bool {
        self.0.remove(key)
    }
}

// ---------------------------------------------------------------------
// Lock-based control
// ---------------------------------------------------------------------

/// Coarse global-lock set: the "one big lock" floor every comparison
/// should clear.
pub struct GlobalLockSet(pub Mutex<BTreeSet<u64>>);

impl ConcurrentSet for GlobalLockSet {
    fn contains(&self, key: u64) -> bool {
        self.0.lock().unwrap().contains(&key)
    }
    fn insert(&self, key: u64) -> bool {
        self.0.lock().unwrap().insert(key)
    }
    fn remove(&self, key: u64) -> bool {
        self.0.lock().unwrap().remove(&key)
    }
}

// ---------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------

/// The list-shaped implementations swept by E4/E5.
pub const LIST_IMPLS: &[&str] = &["tx-elastic", "tx-opaque", "tx-skiplist", "global-lock"];

/// Construct a list implementation by name; the returned boxed set also
/// carries its own `Stm` where applicable (exposed via `stm` for stats).
pub fn make_list_impl(name: &str) -> (Box<dyn ConcurrentSet + Send + Sync>, Option<Arc<Stm>>) {
    match name {
        "tx-elastic" => {
            let stm = Arc::new(Stm::new());
            (Box::new(TxListSet(TxList::new(Arc::clone(&stm)))), Some(stm))
        }
        "tx-opaque" => {
            let stm = Arc::new(Stm::new());
            (
                Box::new(TxListSet(TxList::with_op_semantics(Arc::clone(&stm), Semantics::Opaque))),
                Some(stm),
            )
        }
        "tx-skiplist" => {
            let stm = Arc::new(Stm::new());
            (Box::new(TxSkipListSet(TxSkipList::new(Arc::clone(&stm)))), Some(stm))
        }
        "global-lock" => (Box::new(GlobalLockSet(Mutex::new(BTreeSet::new()))), None),
        other => panic!("unknown list implementation {other:?}"),
    }
}

/// The hash-shaped implementations swept by E6.
pub const HASH_IMPLS: &[&str] = &["tx-hash-elastic", "tx-hash-opaque", "global-lock"];

/// Construct a hash implementation by name. `initial_buckets` seeds the
/// transactional tables, which then grow by transactional resize.
pub fn make_hash_impl(
    name: &str,
    initial_buckets: usize,
) -> (Box<dyn ConcurrentSet + Send + Sync>, Option<Arc<Stm>>) {
    match name {
        "tx-hash-elastic" => {
            let stm = Arc::new(Stm::new());
            (
                Box::new(TxHashAdapter(TxHashSet::new(Arc::clone(&stm), initial_buckets, 8))),
                Some(stm),
            )
        }
        "tx-hash-opaque" => {
            let stm = Arc::new(Stm::new());
            (
                Box::new(TxHashAdapter(TxHashSet::with_op_semantics(
                    Arc::clone(&stm),
                    initial_buckets,
                    8,
                    Semantics::Opaque,
                ))),
                Some(stm),
            )
        }
        "global-lock" => (Box::new(GlobalLockSet(Mutex::new(BTreeSet::new()))), None),
        other => panic!("unknown hash implementation {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_list_impl_behaves_like_a_set() {
        for name in LIST_IMPLS {
            let (set, _stm) = make_list_impl(name);
            assert!(set.insert(5), "{name}");
            assert!(!set.insert(5), "{name}");
            assert!(set.contains(5), "{name}");
            assert!(!set.contains(6), "{name}");
            assert!(set.remove(5), "{name}");
            assert!(!set.remove(5), "{name}");
        }
    }

    #[test]
    fn every_hash_impl_behaves_like_a_set() {
        for name in HASH_IMPLS {
            let (set, _stm) = make_hash_impl(name, 8);
            assert!(set.insert(42), "{name}");
            assert!(!set.insert(42), "{name}");
            assert!(set.contains(42), "{name}");
            assert!(set.remove(42), "{name}");
            assert!(!set.contains(42), "{name}");
        }
    }

    #[test]
    fn impl_lists_and_factories_agree() {
        assert_eq!(LIST_IMPLS.len(), 4);
        assert_eq!(HASH_IMPLS.len(), 3);
    }
}

//! Property test across the whole workspace: every transactional set
//! (list under each semantics, skip list, hash set) must agree with
//! `BTreeSet` on arbitrary operation sequences.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use transaction_polymorphism::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64),
    Remove(u64),
    Contains(u64),
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..64).prop_map(Op::Insert),
            (0u64..64).prop_map(Op::Remove),
            (0u64..64).prop_map(Op::Contains),
        ],
        1..120,
    )
}

trait SetUnderTest {
    fn insert(&self, k: u64) -> bool;
    fn remove(&self, k: u64) -> bool;
    fn contains(&self, k: u64) -> bool;
}

macro_rules! impl_set {
    ($ty:ty, $cast:ty) => {
        impl SetUnderTest for $ty {
            fn insert(&self, k: u64) -> bool {
                <$ty>::insert(self, k as $cast)
            }
            fn remove(&self, k: u64) -> bool {
                <$ty>::remove(self, k as $cast)
            }
            fn contains(&self, k: u64) -> bool {
                <$ty>::contains(self, k as $cast)
            }
        }
    };
}

impl_set!(TxList, i64);
impl_set!(TxSkipList, i64);
impl_set!(TxHashSet, u64);

fn check(ops: &[Op], set: &dyn SetUnderTest, name: &str) -> Result<(), TestCaseError> {
    let mut model = BTreeSet::new();
    for (i, op) in ops.iter().enumerate() {
        let (got, want) = match *op {
            Op::Insert(k) => (set.insert(k), model.insert(k)),
            Op::Remove(k) => (set.remove(k), model.remove(&k)),
            Op::Contains(k) => (set.contains(k), model.contains(&k)),
        };
        prop_assert_eq!(got, want, "{} diverged at op {} ({:?})", name, i, op);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn transactional_sets_match_model(ops in ops_strategy()) {
        let stm = Arc::new(Stm::new());
        check(&ops, &TxList::new(Arc::clone(&stm)), "TxList(elastic)")?;
        check(
            &ops,
            &TxList::with_op_semantics(Arc::clone(&stm), Semantics::Opaque),
            "TxList(opaque)",
        )?;
        check(&ops, &TxSkipList::new(Arc::clone(&stm)), "TxSkipList")?;
        check(&ops, &TxHashSet::new(Arc::clone(&stm), 2, 2), "TxHashSet")?;
    }
}

//! Reads by reference meet the attempt's own writes.
//!
//! `TCell::read_in` lends committed values straight out of the version
//! chain, but a value the attempt wrote itself lives in the write set,
//! and the attempt's next write to that register replaces it. These
//! tests read an own write by reference, rewrite the register, and use
//! the reference afterwards — in a bare register and in the search
//! structures, where an update's descent passes through the link an
//! earlier update in the same transaction wrote. Run under ASan (CI's
//! `sanitizers` job), a reference into the replaced payload would be a
//! use after free.

use std::sync::Arc;

use polytm::{PeekGuard, Semantics, Stm, TxParams};
use polytm_structures::{TxList, TxMap, TxSkipList};

#[test]
fn read_own_write_survives_a_rewrite() {
    let stm = Stm::new();
    let x = stm.new_tvar(None::<Arc<String>>);
    let seen = stm.run(TxParams::default(), |tx| {
        let guard = PeekGuard::pin();
        x.write(tx, Some(Arc::new(String::from("first"))))?;
        let first = x.read_in(tx, &guard)?;
        // Drops the write set's only handle on "first".
        x.write(tx, None)?;
        let second = x.read_in(tx, &guard)?;
        Ok((first.as_deref().cloned(), second.is_none()))
    });
    assert_eq!(seen, (Some(String::from("first")), true));
    assert_eq!(x.load_committed(), None);
}

/// `insert_in(20)` writes 10's level-0 link, `contains_in(20)` reads it
/// back by reference, and `insert_in(15)` descends through it again and
/// rewrites it: three operations through one predecessor.
#[test]
fn skip_list_updates_twice_through_one_predecessor() {
    let stm = Arc::new(Stm::new());
    let set = TxSkipList::with_op_semantics(Arc::clone(&stm), Semantics::Opaque);
    for key in [10, 40] {
        assert!(set.insert(key));
    }
    let results = stm.run(TxParams::default(), |tx| {
        Ok((
            set.insert_in(tx, 20)?,
            set.contains_in(tx, 20)?,
            set.insert_in(tx, 15)?,
            set.contains_in(tx, 15)?,
            set.remove_in(tx, 20)?,
            set.contains_in(tx, 20)?,
        ))
    });
    assert_eq!(results, (true, true, true, true, true, false));
    assert_eq!(set.to_vec(), vec![10, 15, 40]);
    assert_eq!(set.range_count_snapshot(0, 100), 3);
}

/// `insert_in(20)` and `insert_in(15)` both write 10's level-0 link,
/// `get_in(40)` reads back the value `insert_in(40)` overwrote, and
/// `remove_in(20)` unlinks through the links the inserts wrote.
#[test]
fn map_updates_twice_through_one_predecessor() {
    let stm = Arc::new(Stm::new());
    let map = TxMap::with_op_semantics(Arc::clone(&stm), Semantics::Opaque);
    for key in [10, 40] {
        assert_eq!(map.insert(key, key), None);
    }
    let results = stm.run(TxParams::default(), |tx| {
        Ok((
            map.insert_in(tx, 20, 2)?,
            map.insert_in(tx, 15, 1)?,
            map.insert_in(tx, 40, 4)?,
            map.get_in(tx, 40)?,
            map.remove_in(tx, 20)?,
            map.get_in(tx, 20)?,
        ))
    });
    assert_eq!(results, (None, None, Some(40), Some(4), Some(2), None));
    assert_eq!(map.entries_snapshot(), vec![(10, 10), (15, 1), (40, 4)]);
}

#[test]
fn list_updates_twice_through_one_predecessor() {
    let stm = Arc::new(Stm::new());
    let list = TxList::with_op_semantics(Arc::clone(&stm), Semantics::Opaque);
    for key in [10, 40] {
        assert!(list.insert(key));
    }
    let results = stm.run(TxParams::default(), |tx| {
        Ok((
            list.insert_in(tx, 20)?,
            list.contains_in(tx, 20)?,
            list.insert_in(tx, 15)?,
            list.contains_in(tx, 15)?,
            list.remove_in(tx, 20)?,
            list.contains_in(tx, 20)?,
        ))
    });
    assert_eq!(results, (true, true, true, true, true, false));
    assert_eq!(list.to_vec(), vec![10, 15, 40]);
}

//! A classed KV store under a live advisor: each operation kind runs as
//! its own transaction class (reads may converge to snapshot; writers
//! request opaque, which plans can escalate but never weaken), and the
//! store keeps behaving like a record store whatever the advisor picks.

use std::sync::Arc;

use transaction_polymorphism::kv::{KvConfig, KvParams};
use transaction_polymorphism::prelude::*;

#[test]
fn classed_kv_store_classifies_under_load() {
    let advisor = Arc::new(Advisor::default());
    let stm = Arc::new(Stm::with_advisor(StmConfig::default(), advisor as _));
    let store = KvStore::with_config(
        Arc::clone(&stm),
        KvConfig { shards: 16, initial_slots: 64, params: KvParams::classed(0) },
    );
    for k in 0..256u64 {
        store.put(k, Value::from_u64(k));
    }
    for _ in 0..6 {
        for k in 0..256u64 {
            assert!(store.contains(k));
        }
    }
    let advisor = stm.advisor().expect("the store's STM carries an advisor");
    // The advisor observed classed runs; regardless of what it
    // selected, the store must still behave like a record store.
    let plan = advisor.plan(ClassId(0), 0, Semantics::elastic());
    assert_ne!(plan.semantics, Semantics::Irrevocable, "calm reads never escalate");
    assert!(store.contains(0));
    store.modify(0, |cur| Value::from_u64(cur.and_then(Value::as_u64).unwrap_or(0) ^ 7));
    assert!(store.delete(0).is_some());
    assert!(stm.stats().commits > 0);
}

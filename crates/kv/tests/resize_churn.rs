//! Doubling a shard under overwrite churn. A bucket write conflicts
//! with a concurrent doubling of its shard (the doubling reads every
//! bucket; the writer validates the table register), so neither side
//! may starve the other and no overwrite may land in a retired table:
//! the run terminates, every key holds its owner's last value, and the
//! store holds exactly the model's keys.
//!
//! Barriers and counts only — no clocks. `POLYTM_STRESS_THREADS` caps
//! the overwriter count, `POLYTM_STRESS_SCALE` the rounds.

use std::sync::{Arc, Barrier};

use polytm::Stm;
use polytm_kv::{KvConfig, KvParams, KvStore, Value};

fn overwriters() -> u64 {
    let threads = std::env::var("POLYTM_STRESS_THREADS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(4)
        .max(2);
    (threads - 1).min(2)
}

fn scaled(n: u64) -> u64 {
    let pct = std::env::var("POLYTM_STRESS_SCALE")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(100)
        .max(1);
    (n * pct / 100).max(1)
}

#[test]
fn resize_under_overwrite_churn_terminates_and_loses_nothing() {
    const OWNED: u64 = 32; // keys per overwriter
    const FRESH: u64 = 2_048; // inserted while they churn
    const FRESH_BASE: u64 = 1 << 32;
    let store = KvStore::with_config(
        Arc::new(Stm::new()),
        KvConfig { shards: 1, initial_slots: 8, params: KvParams::fixed() },
    );
    let owners = overwriters();
    let rounds = scaled(64);
    let fresh_per_round = FRESH.div_ceil(rounds);
    for k in 0..owners * OWNED {
        store.put(k, Value::from_u64(0));
    }
    let before = store.capacity();

    // Every thread meets at the top of every round, so each doubling
    // the inserter forces happens in a round the overwriters are
    // writing in too.
    let round_start = Barrier::new(owners as usize + 1);
    std::thread::scope(|s| {
        for owner in 0..owners {
            let (store, round_start) = (&store, &round_start);
            s.spawn(move || {
                for round in 1..=rounds {
                    round_start.wait();
                    for k in owner * OWNED..(owner + 1) * OWNED {
                        let prev = store.put(k, Value::from_u64(round));
                        assert_eq!(prev, Some(Value::from_u64(round - 1)), "key {k} lost a write");
                    }
                }
            });
        }
        for round in 0..rounds {
            round_start.wait();
            for i in round * fresh_per_round..(round + 1) * fresh_per_round {
                assert_eq!(store.put(FRESH_BASE + i, Value::from_u64(i)), None);
            }
        }
    });

    let after = store.capacity();
    assert!(after >= 8 * before, "the shard doubled fewer than 3 times: {before} -> {after}");
    for k in 0..owners * OWNED {
        assert_eq!(store.get(k), Some(Value::from_u64(rounds)), "key {k}");
    }
    for i in 0..rounds * fresh_per_round {
        assert_eq!(store.get(FRESH_BASE + i), Some(Value::from_u64(i)), "fresh key {i}");
    }
    assert_eq!(store.len() as u64, owners * OWNED + rounds * fresh_per_round);
}

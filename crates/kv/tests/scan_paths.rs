//! The two scan paths. A span of fewer keys than the store has bucket
//! registers is looked up key by key; a wider one walks every register.
//! Both must agree with a model on every span shape, see the
//! transaction's own writes, stay consistent while shards double, and
//! be chosen by the span — which the read-set size shows without a
//! clock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use polytm::Stm;
use polytm_kv::{KvConfig, KvParams, KvStore, Value};

fn store_with(shards: usize, initial_slots: usize) -> KvStore {
    KvStore::with_config(
        Arc::new(Stm::new()),
        KvConfig { shards, initial_slots, params: KvParams::fixed() },
    )
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// `[lo, hi)` through every entry point that takes it: the snapshot
/// scan, the snapshot count and the count inside a `txn`.
fn check_range(store: &KvStore, model: &BTreeMap<u64, Value>, lo: u64, hi: u64) {
    let want: Vec<(u64, Value)> = if lo < hi {
        model.range(lo..hi).map(|(k, v)| (*k, v.clone())).collect()
    } else {
        Vec::new()
    };
    assert_eq!(store.scan_range(lo, hi), want, "scan_range({lo}, {hi})");
    assert_eq!(store.range_count(lo, hi), want.len(), "range_count({lo}, {hi})");
    let in_txn = store.txn(|kv| kv.range_count(lo, hi));
    assert_eq!(in_txn, want.len(), "KvTxn::range_count({lo}, {hi})");
}

/// The block of keys with `prefix` above the low `low_bits`, whose top
/// block ends at `u64::MAX` itself.
fn check_prefix(store: &KvStore, model: &BTreeMap<u64, Value>, prefix: u64, low_bits: u32) {
    let lo = prefix << low_bits;
    let hi_incl = lo + ((1u64 << low_bits) - 1);
    let want: Vec<(u64, Value)> = model.range(lo..=hi_incl).map(|(k, v)| (*k, v.clone())).collect();
    assert_eq!(store.scan_prefix(prefix, low_bits), want, "scan_prefix({prefix:#x}, {low_bits})");
}

#[test]
fn both_scan_paths_agree_with_a_model() {
    let store = store_with(4, 8);
    let mut model = BTreeMap::new();
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    // A dense low region, a sparse top region ending at u64::MAX, and
    // one lone key far from both.
    for _ in 0..600 {
        let r = xorshift(&mut rng);
        let key = if r.is_multiple_of(4) { u64::MAX - (r >> 40) % 96 } else { (r >> 20) % 400 };
        let value = Value::from_u64(r);
        if r.is_multiple_of(5) {
            assert_eq!(store.delete(key), model.remove(&key));
        } else {
            assert_eq!(store.put(key, value.clone()), model.insert(key, value));
        }
    }
    let lone = 1 << 40;
    store.put(lone, Value::from_u64(7));
    model.insert(lone, Value::from_u64(7));
    let cap = store.capacity() as u64;
    assert!(cap > 32, "the store grew past its first table: {cap} registers");
    assert_eq!(store.len(), model.len());

    // Spans of one key fewer, exactly as many and one more than there
    // are registers — the last takes the walk — and narrow ones.
    let top = u64::MAX - 100;
    for lo in [0, 1, 37, 150, 399, top, u64::MAX - cap - 1, lone - 3, lone + 1] {
        for len in [cap - 1, cap, cap + 1, 0, 1, 2, 5, cap / 2] {
            check_range(&store, &model, lo, lo.saturating_add(len));
        }
    }
    // Spans ending at u64::MAX: an exclusive range stops short of it,
    // the top prefix block holds it; 2^low_bits keys cross `cap`.
    for span in [1, 2, cap - 1, cap, cap + 1, 200] {
        check_range(&store, &model, u64::MAX - span, u64::MAX);
    }
    for low_bits in 0..=10 {
        check_prefix(&store, &model, u64::MAX >> low_bits, low_bits);
    }
    // Prefix blocks over the dense region, narrow and wide.
    for low_bits in 0..=9 {
        for prefix in 0..=(400 >> low_bits) + 1 {
            check_prefix(&store, &model, prefix, low_bits);
        }
    }
    // Empty spans and reversed bounds.
    for (lo, hi) in [(5, 5), (7, 2), (u64::MAX, u64::MAX), (u64::MAX, 0), (400, 1000)] {
        check_range(&store, &model, lo, hi);
    }
    // Spans holding almost no keys: around the lone key.
    for (lo, hi) in [(lone, lone + 1), (lone - cap, lone + 1), (lone, lone + cap + 1)] {
        check_range(&store, &model, lo, hi);
    }
}

#[test]
fn narrow_counts_in_a_txn_see_its_own_writes() {
    let store = store_with(4, 8);
    for k in (0..200).step_by(2) {
        store.put(k, Value::from_u64(k));
    }
    let cap = store.capacity() as u64;
    // [40, 60) holds 10 keys, far fewer than `cap`: the lookup path.
    let (lo, hi) = (40, 60);
    assert!(hi - lo < cap);
    let counts = store.txn(|kv| {
        let before = kv.range_count(lo, hi)?;
        kv.put(41, Value::from_u64(1))?;
        let after_put = kv.range_count(lo, hi)?;
        kv.delete(41)?;
        let after_delete = kv.range_count(lo, hi)?;
        kv.delete(42)?;
        let after_delete_old = kv.range_count(lo, hi)?;
        // The whole key space takes the walk, which sees them too.
        let walked = kv.range_count(0, u64::MAX)?;
        kv.put(42, Value::from_u64(2))?;
        Ok([before, after_put, after_delete, after_delete_old, walked])
    });
    assert_eq!(counts, [10, 11, 10, 9, 99]);
    assert_eq!(store.get(41), None);
    assert_eq!(store.get(42), Some(Value::from_u64(2)));
}

/// The path is told apart by what it reads, not by how long it takes:
/// a key-by-key lookup records at most one bucket per key, the walk
/// every bucket register, and both every shard's table.
#[test]
fn a_narrow_span_reads_only_its_keys_buckets() {
    let store = KvStore::new(Arc::new(Stm::new()));
    let keys: Vec<(u64, Value)> = (0..4096).map(|k| (k, Value::from_u64(k))).collect();
    store.multi_put(&keys);
    let (cap, shards) = (store.capacity(), store.shard_count());
    assert!(cap > 1024 + shards, "{cap} registers leave the two paths indistinguishable");

    let (count, reads) = store.txn(|kv| {
        let count = kv.range_count(1024, 1024 + 1024)?;
        Ok((count, kv.tx().live_reads()))
    });
    assert_eq!(count, 1024);
    assert!(reads <= 1024 + shards, "a 1024-key span read {reads} registers of {cap}");

    let wide = cap as u64 + 1;
    let (count, reads) = store.txn(|kv| {
        let count = kv.range_count(0, wide)?;
        Ok((count, kv.tx().live_reads()))
    });
    assert_eq!(count, 4096.min(wide as usize));
    assert_eq!(reads, cap + shards, "a span wider than the tables walks every register");
}

/// Narrow snapshot scans beside pair transfers while one shard doubles
/// at least three times. Rounds end at a barrier. Before it, the
/// inserter names the round that is the last; after it, every thread
/// compares that name with its own round number, so all stop after the
/// same round (a plain flag could be set for the next round before a
/// slow thread read it for this one).
#[test]
fn narrow_scans_stay_consistent_while_shards_double() {
    const SLOTS: usize = 32; // per shard, two shards
    const PAIRS: u64 = 16; // keys 2i and 2i + 1 sum to SUM
    const SUM: u64 = 1_000;
    const FRESH_BASE: u64 = 1 << 32;
    const FRESH_PER_ROUND: u64 = 16;
    const SCANS_PER_ROUND: usize = 16;
    const TRANSFERS_PER_ROUND: u64 = 64;
    const MAX_ROUNDS: u64 = 4_096;
    let store = store_with(2, SLOTS);
    for i in 0..PAIRS {
        store.put(2 * i, Value::from_u64(SUM));
        store.put(2 * i + 1, Value::from_u64(0));
    }
    // The span is narrower than the first tables, so every scan below
    // takes the lookup path.
    assert!(2 * PAIRS < store.capacity() as u64);

    let last_round = AtomicU64::new(u64::MAX);
    let round_end = Barrier::new(3);
    let faults = Mutex::new(Vec::<String>::new());
    let pair_keys: Vec<u64> = (0..2 * PAIRS).collect();
    let check = |rows: &[(u64, Value)], what: &str| {
        let keys: Vec<u64> = rows.iter().map(|(k, _)| *k).collect();
        if keys != pair_keys {
            faults.lock().unwrap().push(format!("{what}: keys {keys:?}"));
            return;
        }
        for pair in rows.chunks(2) {
            let sum = pair[0].1.as_u64().unwrap() + pair[1].1.as_u64().unwrap();
            if sum != SUM {
                faults.lock().unwrap().push(format!("{what}: pair {} sums to {sum}", pair[0].0));
            }
        }
    };
    let rounds = std::thread::scope(|s| {
        let (store, last_round, round_end, check) = (&store, &last_round, &round_end, &check);
        s.spawn(move || {
            for round in 0.. {
                for _ in 0..SCANS_PER_ROUND {
                    check(&store.scan_range(0, 2 * PAIRS), "scan_range");
                    check(&store.scan_prefix(0, 5), "scan_prefix");
                }
                round_end.wait();
                if last_round.load(Ordering::Acquire) == round {
                    break;
                }
            }
        });
        s.spawn(move || {
            let mut rng = 0x9E37_79B9_7F4A_7C15u64;
            for round in 0.. {
                for _ in 0..TRANSFERS_PER_ROUND {
                    let r = xorshift(&mut rng);
                    let (from, to) = if r & 1 == 0 { (0, 1) } else { (1, 0) };
                    let base = 2 * ((r >> 1) % PAIRS);
                    store.txn(|kv| {
                        let a = kv.get(base + from)?.and_then(|v| v.as_u64()).unwrap();
                        let b = kv.get(base + to)?.and_then(|v| v.as_u64()).unwrap();
                        let amount = (r >> 8) % (a + 1);
                        kv.put(base + from, Value::from_u64(a - amount))?;
                        kv.put(base + to, Value::from_u64(b + amount))?;
                        Ok(())
                    });
                }
                round_end.wait();
                if last_round.load(Ordering::Acquire) == round {
                    break;
                }
            }
        });
        let mut round = 0;
        loop {
            for i in 0..FRESH_PER_ROUND {
                store.put(FRESH_BASE + round * FRESH_PER_ROUND + i, Value::from_u64(i));
            }
            // With two shards of at least SLOTS registers each, a total
            // of 9 * SLOTS means one of them holds 8 * SLOTS: three
            // doublings. MAX_ROUNDS only bounds a store that stopped
            // growing.
            let done = store.capacity() >= 9 * SLOTS || round + 1 == MAX_ROUNDS;
            if done {
                last_round.store(round, Ordering::Release);
            }
            round_end.wait();
            if done {
                break round + 1;
            }
            round += 1;
        }
    });
    assert!(
        store.capacity() >= 9 * SLOTS,
        "no shard doubled three times in {rounds} rounds: {} registers",
        store.capacity()
    );
    check(&store.scan_range(0, 2 * PAIRS), "final scan");
    let faults = faults.into_inner().unwrap();
    assert!(faults.is_empty(), "{} inconsistent scans, first: {}", faults.len(), faults[0]);
    assert_eq!(store.len() as u64, 2 * PAIRS + rounds * FRESH_PER_ROUND);
}

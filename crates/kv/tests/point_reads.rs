//! Descriptor-free `KvStore::get` must be linearizable: readers calling
//! `get` and `get_into` beside owners that put and delete their keys
//! (in optimistic and irrevocable transactions) and an inserter that
//! forces the single shard through at least three doublings only ever
//! see a state each key was in at some instant inside their call.
//!
//! Keys come in pairs written together, in one transaction, with the
//! same round stamp; a pair's `k`-th transaction puts both keys, or
//! deletes both when `(pair + k) % 3 == 0`. Each owner counts per pair
//! the transactions it has started and the ones it has finished. A read
//! that loads `finished` before its call and `started` after it may
//! return the state after any transaction in between, and nothing
//! else: a value some put of that key wrote in that window, or `None`
//! only if a delete falls in it. The window's low end also never drops
//! below a round the same reader already saw in the pair — from either
//! key — so a read that saw one key of a half-published pair and then
//! the other key's old value fails, as does one that goes back in time.
//!
//! Barriers and counts only — no clocks. `POLYTM_STRESS_THREADS` caps
//! the owner count, `POLYTM_STRESS_SCALE` the rounds.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use polytm::{Semantics, Stm, TxParams};
use polytm_kv::{KvConfig, KvParams, KvStore, Value};

fn owners() -> u64 {
    let threads = std::env::var("POLYTM_STRESS_THREADS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(4)
        .max(3);
    (threads - 2).min(2)
}

fn scaled(n: u64) -> u64 {
    let pct = std::env::var("POLYTM_STRESS_SCALE")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(100)
        .max(1);
    (n * pct / 100).max(1)
}

const PAIRS: u64 = 24; // per owner
const FRESH: u64 = 2_048; // inserted while the owners churn
const FRESH_BASE: u64 = 1 << 32;
const READERS: usize = 2;

/// A 64-byte record naming its key and the round that wrote it.
fn record(key: u64, round: u64) -> Value {
    let mut bytes = [0u8; 64];
    bytes[..8].copy_from_slice(&key.to_le_bytes());
    bytes[56..].copy_from_slice(&round.to_le_bytes());
    Value::from_bytes(&bytes)
}

/// The round a record of `key` was written in; panics on bytes no put
/// of `key` wrote.
fn round_of(key: u64, bytes: &[u8]) -> u64 {
    assert_eq!(bytes.len(), 64, "key {key}: a value no put wrote");
    assert_eq!(bytes[..8], key.to_le_bytes(), "key {key}: another key's value");
    u64::from_le_bytes(bytes[56..].try_into().unwrap())
}

fn deletes(pair: u64, round: u64) -> bool {
    round > 0 && (pair + round).is_multiple_of(3)
}

/// Per-pair progress of its owner: transactions started and finished.
struct Progress {
    started: Vec<AtomicU64>,
    finished: Vec<AtomicU64>,
}

/// One read of `key` (of pair `pair`) checked against the window.
fn check_read(
    store: &KvStore,
    progress: &Progress,
    seen: &mut [u64],
    pair: u64,
    key: u64,
    into: bool,
    buf: &mut Vec<u8>,
) {
    let p = pair as usize;
    let lo = progress.finished[p].load(Ordering::SeqCst).max(seen[p]);
    let got: Option<Vec<u8>> = if into {
        buf.clear();
        buf.extend_from_slice(b"kept");
        let found = store.get_into(key, buf);
        assert_eq!(&buf[..4], b"kept", "get_into keeps what the buffer held");
        assert_eq!(found, buf.len() > 4, "get_into's answer matches what it appended");
        found.then(|| buf[4..].to_vec())
    } else {
        store.get(key).map(|v| v.as_bytes().to_vec())
    };
    let hi = progress.started[p].load(Ordering::SeqCst);
    match got {
        Some(bytes) => {
            let round = round_of(key, &bytes);
            assert!(
                (lo..=hi).contains(&round) && !deletes(pair, round),
                "key {key}: round {round} read outside its window [{lo}, {hi}]"
            );
            seen[p] = round;
        }
        None => assert!(
            (lo..=hi).any(|round| deletes(pair, round)),
            "key {key}: absent, but no delete in its window [{lo}, {hi}]"
        ),
    }
}

#[test]
fn direct_gets_are_linearizable_beside_puts_deletes_and_doublings() {
    let (owners, rounds) = (owners(), scaled(64));
    let stm = Arc::new(Stm::new());
    let store = KvStore::with_config(
        Arc::clone(&stm),
        KvConfig { shards: 1, initial_slots: 8, params: KvParams::fixed() },
    );
    let pairs = owners * PAIRS;
    let progress = Progress {
        started: (0..pairs).map(|_| AtomicU64::new(0)).collect(),
        finished: (0..pairs).map(|_| AtomicU64::new(0)).collect(),
    };
    for key in 0..2 * pairs {
        store.put(key, record(key, 0));
    }
    let fresh_per_round = FRESH.div_ceil(rounds);
    let fresh_done = AtomicU64::new(0);
    let before = store.capacity();
    let point_reads = stm.stats().point_reads;

    // Writers meet at the top of every round, so every doubling the
    // inserter forces happens in a round the owners write in. Readers
    // run free until the last writer is out.
    let round_start = Barrier::new(owners as usize + 1);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let (store, progress, stop, fresh_done) = (&store, &progress, &stop, &fresh_done);
                s.spawn(move || {
                    let mut seen = vec![0u64; pairs as usize];
                    let mut buf = Vec::with_capacity(128);
                    let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ r as u64;
                    let mut reads = 0u64;
                    while !stop.load(Ordering::SeqCst) || reads < 1_000 {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        let pair = (rng >> 8) % pairs;
                        // Both keys of the pair, in either order.
                        let first = 2 * pair + (rng & 1);
                        for key in [first, first ^ 1] {
                            let into = (rng >> 1) & 1 == 1;
                            check_read(store, progress, &mut seen, pair, key, into, &mut buf);
                        }
                        // A fresh key: present once its insert finished.
                        let done = fresh_done.load(Ordering::SeqCst);
                        let i = (rng >> 24) % (done + 1);
                        match store.get(FRESH_BASE + i) {
                            Some(v) => assert_eq!(v, record(FRESH_BASE + i, 0), "fresh {i}"),
                            None => assert!(i >= done, "fresh {i} lost after its insert"),
                        }
                        reads += 3;
                    }
                    reads
                })
            })
            .collect();
        let writers: Vec<_> = (0..owners)
            .map(|owner| {
                let (store, stm, progress, round_start) = (&store, &stm, &progress, &round_start);
                s.spawn(move || {
                    let irrevocable = TxParams::new(Semantics::Irrevocable);
                    for round in 1..=rounds {
                        round_start.wait();
                        for pair in owner * PAIRS..(owner + 1) * PAIRS {
                            let (a, b) = (2 * pair, 2 * pair + 1);
                            progress.started[pair as usize].store(round, Ordering::SeqCst);
                            let write = |kv: &mut polytm_kv::KvTxn<'_, '_>| {
                                if deletes(pair, round) {
                                    kv.delete(a)?;
                                    kv.delete(b)?;
                                } else {
                                    kv.put(a, record(a, round))?;
                                    kv.put(b, record(b, round))?;
                                }
                                Ok(())
                            };
                            if round.is_multiple_of(4) {
                                // Eager writes: `a` is published a whole
                                // write ahead of `b`, inside one era.
                                stm.run(irrevocable, |tx| {
                                    if deletes(pair, round) {
                                        store.delete_in(tx, a)?;
                                        store.delete_in(tx, b)?;
                                    } else {
                                        store.put_in(tx, a, record(a, round))?;
                                        store.put_in(tx, b, record(b, round))?;
                                    }
                                    Ok(())
                                });
                            } else {
                                store.txn(write);
                            }
                            progress.finished[pair as usize].store(round, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        for round in 0..rounds {
            round_start.wait();
            for i in round * fresh_per_round..(round + 1) * fresh_per_round {
                assert_eq!(store.put(FRESH_BASE + i, record(FRESH_BASE + i, 0)), None);
                fresh_done.store(i + 1, Ordering::SeqCst);
            }
        }
        for w in writers {
            w.join().expect("writer panicked");
        }
        stop.store(true, Ordering::SeqCst);
        for r in readers {
            assert!(r.join().expect("reader panicked") >= 1_000);
        }
    });

    let after = store.capacity();
    assert!(after >= 8 * before, "the shard doubled fewer than 3 times: {before} -> {after}");
    assert!(stm.stats().point_reads > point_reads, "the direct path never answered");
    for pair in 0..pairs {
        for key in [2 * pair, 2 * pair + 1] {
            let want = (!deletes(pair, rounds)).then(|| record(key, rounds));
            assert_eq!(store.get(key), want, "key {key} after the last round");
        }
    }
}

/// A store whose reads carry an advisor class keeps the transaction:
/// its `get` commits and never counts a point read.
#[test]
fn classed_store_gets_stay_transactional() {
    let stm = Arc::new(Stm::new());
    let store = KvStore::with_config(
        Arc::clone(&stm),
        KvConfig { params: KvParams::classed(0), ..KvConfig::default() },
    );
    store.put(1, Value::from_u64(1));
    let before = stm.stats();
    assert_eq!(store.get(1), Some(Value::from_u64(1)));
    let mut out = Vec::new();
    assert!(store.get_into(1, &mut out));
    assert_eq!(out, 1u64.to_le_bytes());
    let d = stm.stats().delta_since(&before);
    assert_eq!((d.point_reads, d.commits), (0, 2));
}

/// An unclassed store answers without committing anything.
#[test]
fn fixed_store_gets_commit_nothing() {
    let stm = Arc::new(Stm::new());
    let store = KvStore::new(Arc::clone(&stm));
    store.put(1, Value::from_u64(1));
    let before = stm.stats();
    assert_eq!(store.get(1), Some(Value::from_u64(1)));
    assert_eq!(store.get(2), None);
    let mut out = vec![9];
    assert!(!store.get_into(2, &mut out));
    assert!(store.get_into(1, &mut out));
    assert_eq!(out, [&[9u8][..], &1u64.to_le_bytes()].concat());
    let d = stm.stats().delta_since(&before);
    assert_eq!((d.point_reads, d.commits, d.aborts()), (4, 0, 0));
}

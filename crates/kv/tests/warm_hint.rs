//! `KvStore::warm` must be invisible: a thread hinting random key sets
//! — present, absent, repeated, none at all, more than one chunk —
//! beside owners putting and deleting their keys and an inserter that
//! forces the single shard through at least three doublings changes no
//! answer, frees nothing it is looking at, and leaves nothing behind.
//!
//! The store's values are plain bytes, so drops are counted where they
//! end up: in an allocator local to this test binary that counts live
//! bytes and overwrites every block it is handed back before releasing
//! it. A hint walking a bucket array or a value that had been freed
//! under it would chase those overwritten pointers and lengths and take
//! the process down; live bytes returning to where they started is
//! "nothing leaked".
//!
//! Barriers and counts only — no clocks. One `#[test]` on purpose (the
//! allocator counts the whole process). `POLYTM_STRESS_THREADS` caps
//! the owner count, `POLYTM_STRESS_SCALE` the rounds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use polytm::Stm;
use polytm_kv::{KvConfig, KvParams, KvStore, Value};

struct Scrubbing;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is bookkeeping
// beside the call, and the scrub writes only to a block the caller has
// just given up, within its layout, before `System` gets it back.
unsafe impl GlobalAlloc for Scrubbing {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout`, passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `alloc` above with this `layout`, so it
        // is valid for `layout.size()` bytes and, being deallocated, no
        // longer anyone's to read.
        unsafe {
            std::ptr::write_bytes(p, 0xDD, layout.size());
            System.dealloc(p, layout);
        }
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: Scrubbing = Scrubbing;

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

const OWNED: u64 = 48; // keys per owner
const FRESH: u64 = 2_048; // inserted while they churn
const FRESH_BASE: u64 = 1 << 32;
const ABSENT_BASE: u64 = 1 << 40; // never written by anyone

/// A 64-byte record (shared, so the hint's last stage has bytes behind
/// a pointer to touch) naming its key and the round that wrote it.
fn record(key: u64, round: u64) -> Value {
    let mut bytes = [0u8; 64];
    bytes[..8].copy_from_slice(&key.to_le_bytes());
    bytes[56..].copy_from_slice(&round.to_le_bytes());
    Value::from_bytes(&bytes)
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// One key set for the hint: 0 to 40 keys drawn from owned keys (there,
/// or deleted this round), fresh keys (there, about to be, or moving
/// between tables), keys nobody writes, and repeats of earlier picks.
fn key_set(rng: &mut u64, owners: u64, fresh: u64) -> Vec<u64> {
    let len = xorshift(rng) % 41;
    let mut keys: Vec<u64> = Vec::with_capacity(len as usize);
    for _ in 0..len {
        let r = xorshift(rng);
        keys.push(match r % 4 {
            0 => (r >> 8) % (owners * OWNED),
            1 => FRESH_BASE + (r >> 8) % fresh,
            2 => ABSENT_BASE + (r >> 8) % 64,
            _ if !keys.is_empty() => keys[(r >> 8) as usize % keys.len()],
            _ => 0,
        });
    }
    keys
}

/// One full run against a fresh store; returns the heap bytes the
/// store held at the end, before it was dropped.
fn churn(owners: u64, rounds: u64) -> usize {
    let empty = LIVE.load(Ordering::Relaxed);
    let store = KvStore::with_config(
        Arc::new(Stm::new()),
        KvConfig { shards: 1, initial_slots: 8, params: KvParams::fixed() },
    );
    let fresh_per_round = FRESH.div_ceil(rounds);
    for k in 0..owners * OWNED {
        store.put(k, record(k, 0));
    }
    let before = store.capacity();

    // Everyone meets at the top of every round, so every doubling the
    // inserter forces happens in a round the owners write in; each
    // writer counts itself out at the bottom, and the hinter hints until
    // the round's writers all have.
    let round_start = Barrier::new(owners as usize + 2);
    let writers_out = AtomicU64::new(0);
    let mut models: Vec<BTreeMap<u64, Value>> = Vec::new();
    std::thread::scope(|s| {
        let owner_threads: Vec<_> = (0..owners)
            .map(|owner| {
                let (store, round_start, writers_out) = (&store, &round_start, &writers_out);
                s.spawn(move || {
                    let mine = owner * OWNED..(owner + 1) * OWNED;
                    let mut model: BTreeMap<u64, Value> =
                        mine.clone().map(|k| (k, record(k, 0))).collect();
                    for round in 1..=rounds {
                        round_start.wait();
                        for k in mine.clone() {
                            if (k + round).is_multiple_of(3) {
                                assert_eq!(store.delete(k), model.remove(&k), "delete {k}");
                            } else {
                                let v = record(k, round);
                                assert_eq!(store.put(k, v.clone()), model.insert(k, v), "put {k}");
                            }
                            assert_eq!(store.get(k), model.get(&k).cloned(), "get {k}");
                        }
                        writers_out.fetch_add(1, Ordering::SeqCst);
                    }
                    model
                })
            })
            .collect();
        let hinter = {
            let (store, round_start, writers_out) = (&store, &round_start, &writers_out);
            s.spawn(move || {
                let mut rng = 0x2545_F491_4F6C_DD1Du64;
                let mut hinted = 0usize;
                for round in 1..=rounds {
                    round_start.wait();
                    loop {
                        let keys = key_set(&mut rng, owners, FRESH);
                        store.warm(&keys);
                        hinted += keys.len();
                        if writers_out.load(Ordering::SeqCst) == round * (owners + 1) {
                            break;
                        }
                    }
                }
                store.warm(&[]);
                store.warm(&[7; 33]);
                hinted
            })
        };
        for round in 0..rounds {
            round_start.wait();
            for i in round * fresh_per_round..(round + 1) * fresh_per_round {
                assert_eq!(store.put(FRESH_BASE + i, record(i, round)), None);
            }
            writers_out.fetch_add(1, Ordering::SeqCst);
        }
        models = owner_threads.into_iter().map(|t| t.join().unwrap()).collect();
        assert!(hinter.join().unwrap() > 0);
    });

    let after = store.capacity();
    assert!(after >= 8 * before, "the shard doubled fewer than 3 times: {before} -> {after}");
    let mut live = 0;
    for model in &models {
        live += model.len();
    }
    for (owner, model) in models.iter().enumerate() {
        for k in owner as u64 * OWNED..(owner as u64 + 1) * OWNED {
            assert_eq!(store.get(k), model.get(&k).cloned(), "key {k}");
        }
    }
    for i in 0..rounds * fresh_per_round {
        assert_eq!(store.get(FRESH_BASE + i), Some(record(i, i / fresh_per_round)), "fresh {i}");
    }
    assert_eq!(store.len(), live + (rounds * fresh_per_round) as usize);
    LIVE.load(Ordering::Relaxed).saturating_sub(empty)
}

#[test]
fn hinting_beside_writers_and_doublings_changes_nothing_and_leaks_nothing() {
    let (owners, rounds) = (owners(), scaled(64));
    // The first pass leaves behind what outlives any store: this
    // thread's pooled transaction descriptors, grown to the largest
    // transaction it ran. Whichever thread doubles the shard runs that
    // one, so the level can differ from pass to pass by one such read
    // set, but not by a fraction of what the hint walked over — the
    // whole store, many times.
    churn(owners, rounds);
    let settled = LIVE.load(Ordering::Relaxed);
    let held = churn(owners, rounds);
    let left = LIVE.load(Ordering::Relaxed).saturating_sub(settled);
    assert!(left < held / 4, "a second pass over a {held}-byte store left {left} more bytes live");
}

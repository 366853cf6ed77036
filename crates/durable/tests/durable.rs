//! Store-level durability tests: recovery roundtrips, checkpoint
//! truncation, group-commit amortization, poisoned-log degradation,
//! and checkpoint-vs-live-snapshot interaction.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use polytm_durable::storage::FaultFs;
use polytm_durable::store::SNAP_TMP;
use polytm_durable::wal::segment_name;
use polytm_durable::{
    Durability, DurabilityLost, DurabilityOutcome, DurableKv, DurableKvConfig, RealFs, Staged,
    Storage, WalConfig, SNAP_NAME,
};
use polytm_kv::{KvConfig, Value};

fn small_config(mode: Durability) -> DurableKvConfig {
    DurableKvConfig {
        kv: KvConfig { shards: 4, initial_slots: 16, ..KvConfig::default() },
        wal: WalConfig {
            mode,
            segment_bytes: 512,
            group_window: Duration::ZERO,
            ..WalConfig::default()
        },
    }
}

fn dump(store: &DurableKv) -> Vec<(u64, Vec<u8>)> {
    store.scan_range(0, u64::MAX).into_iter().map(|(k, v)| (k, v.as_bytes().to_vec())).collect()
}

#[test]
fn sync_commits_survive_reopen() {
    let fs = Arc::new(FaultFs::new(101));
    let store = DurableKv::open(fs.clone(), small_config(Durability::Sync)).unwrap();
    for k in 0..40u64 {
        store.put(k, Value::from_u64(k * 7)).unwrap();
    }
    store.delete(3).unwrap();
    store.delete(999).unwrap(); // absent: logs nothing
    let before = dump(&store);
    drop(store);
    fs.crash(); // nothing volatile in sync mode: pure reopen
    let recovered = DurableKv::open(fs, small_config(Durability::Sync)).unwrap();
    assert_eq!(dump(&recovered), before);
    assert_eq!(recovered.get(3), None);
    assert_eq!(recovered.get(5).unwrap().as_u64(), Some(35));
}

#[test]
fn async_flush_then_reopen_recovers() {
    let fs = Arc::new(FaultFs::new(202));
    let store = DurableKv::open(fs.clone(), small_config(Durability::Async)).unwrap();
    let mut last = DurabilityOutcome::Durable;
    for k in 0..20u64 {
        let (_, _, outcome) = store.txn_logged(|tx| tx.put(k, Value::from_u64(k))).unwrap();
        last = outcome;
    }
    assert_eq!(last, DurabilityOutcome::Pending, "async commits ack before the fsync");
    store.flush().unwrap();
    let before = dump(&store);
    drop(store);
    fs.crash();
    let recovered = DurableKv::open(fs, small_config(Durability::Async)).unwrap();
    assert_eq!(dump(&recovered), before);
}

#[test]
fn read_only_txns_log_nothing() {
    let fs = Arc::new(FaultFs::new(7));
    let store = DurableKv::open(fs, small_config(Durability::Sync)).unwrap();
    store.put(1, Value::from_u64(10)).unwrap();
    let durable_before = store.wal().durable_seq();
    let (found, info, outcome) = store.txn_logged(|tx| tx.get(1)).unwrap();
    assert_eq!(found.unwrap().as_u64(), Some(10));
    assert_eq!(info.seq, None, "pure reads take no log sequence number");
    assert_eq!(outcome, DurabilityOutcome::Durable);
    assert_eq!(store.wal().durable_seq(), durable_before, "no flush was needed");
}

/// Staging hands out tickets without forcing the log; one wait on the
/// last ticket forces it once for every staged commit, and a failed
/// force latches the store read-only.
#[test]
fn staged_commits_share_one_force() {
    let fs = Arc::new(FaultFs::new(17));
    let store = DurableKv::open(fs.clone(), small_config(Durability::Sync)).unwrap();
    let tickets: Vec<u64> = (0..3u64)
        .map(|k| match store.txn_staged(|tx| tx.put(k, Value::from_u64(k))).unwrap().2 {
            Staged::Ticket(seq) => seq,
            other => panic!("a Sync write stages a ticket, got {other:?}"),
        })
        .collect();
    assert_eq!(store.stm().stats().fsyncs, 0, "staging forces nothing");
    assert_eq!(store.get(2).unwrap().as_u64(), Some(2), "staged commits are visible");
    let (_, _, read) = store.txn_staged(|tx| tx.get(1)).unwrap();
    assert_eq!(read, Staged::Settled(DurabilityOutcome::Durable), "a read owes no force");
    store.wait_durable(*tickets.last().unwrap()).unwrap();
    let stats = store.stm().stats();
    assert_eq!((stats.commits_durable, stats.fsyncs), (3, 1));
    assert!(tickets.iter().all(|&t| store.wal().durable_seq() >= t));

    // The next force fails: the wait reports it and the store latches.
    fs.arm_after(1);
    let (_, _, staged) = store.txn_staged(|tx| tx.put(9, Value::from_u64(9))).unwrap();
    let Staged::Ticket(seq) = staged else { panic!("expected a ticket, got {staged:?}") };
    assert_eq!(store.wait_durable(seq), Err(DurabilityLost));
    assert!(store.is_read_only());
    assert!(store.txn_staged(|tx| tx.put(10, Value::from_u64(10))).is_err());
}

#[test]
fn checkpoint_truncates_and_recovery_uses_it() {
    let fs = Arc::new(FaultFs::new(303));
    let store = DurableKv::open(fs.clone(), small_config(Durability::Sync)).unwrap();
    for k in 0..30u64 {
        store.put(k, Value::from_u64(k + 100)).unwrap();
    }
    store.checkpoint().unwrap();
    // Pre-checkpoint segments are gone, the snapshot is installed.
    let names = fs.list().unwrap();
    assert!(names.contains(&SNAP_NAME.to_string()), "snapshot installed: {names:?}");
    assert!(!names.contains(&SNAP_TMP.to_string()), "tmp renamed away: {names:?}");
    assert!(
        !names.contains(&segment_name(0)),
        "wholly-covered segment must be truncated: {names:?}"
    );
    // Post-checkpoint writes land in the rotated segment and recover
    // on top of the snapshot.
    for k in 0..5u64 {
        store.put(k, Value::from_u64(k)).unwrap();
    }
    store.delete(29).unwrap();
    let before = dump(&store);
    drop(store);
    fs.crash();
    let recovered = DurableKv::open(fs, small_config(Durability::Sync)).unwrap();
    assert_eq!(dump(&recovered), before);
}

#[test]
fn commit_clock_survives_recovery_across_two_restarts() {
    // Regression: recovery must catch the commit clock up to the
    // checkpoint cut. A first incarnation checkpoints at some W (the
    // clock has advanced once per commit); if the second incarnation
    // reopens with a fresh clock, its commits are stamped wv << W, get
    // acked Durable — and the THIRD incarnation's `wv > W` replay
    // filter silently skips them. Two restarts are required to see the
    // loss.
    let fs = Arc::new(FaultFs::new(606));
    let store = DurableKv::open(fs.clone(), small_config(Durability::Sync)).unwrap();
    for k in 0..50u64 {
        store.put(k, Value::from_u64(k)).unwrap();
    }
    store.checkpoint().unwrap();
    drop(store);
    fs.crash();

    // Second incarnation: its commits must land above the snapshot cut.
    let store = DurableKv::open(fs.clone(), small_config(Durability::Sync)).unwrap();
    store.put(1000, Value::from_u64(0xBEEF)).unwrap();
    store.put(3, Value::from_u64(333)).unwrap();
    let before = dump(&store);
    drop(store);
    fs.crash();

    // Third incarnation: the acked-durable second-incarnation writes
    // must still be there.
    let recovered = DurableKv::open(fs, small_config(Durability::Sync)).unwrap();
    assert_eq!(dump(&recovered), before);
    assert_eq!(recovered.get(1000).unwrap().as_u64(), Some(0xBEEF));
    assert_eq!(recovered.get(3).unwrap().as_u64(), Some(333));
}

#[test]
fn concurrent_checkpoints_never_lose_committed_writes() {
    // Checkpoints are serialized internally; racing them against each
    // other and a writer must never produce a snapshot/truncation
    // interleaving that loses a committed update.
    let fs = Arc::new(FaultFs::new(707));
    let store = Arc::new(DurableKv::open(fs.clone(), small_config(Durability::Sync)).unwrap());
    std::thread::scope(|scope| {
        let writer = {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for i in 0..300u64 {
                    store.put(i % 32, Value::from_u64(i)).unwrap();
                }
            })
        };
        for _ in 0..2 {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for _ in 0..6 {
                    store.checkpoint().unwrap();
                }
            });
        }
        writer.join().unwrap();
    });
    store.checkpoint().unwrap();
    let before = dump(&store);
    drop(store);
    fs.crash();
    let recovered = DurableKv::open(fs, small_config(Durability::Sync)).unwrap();
    assert_eq!(dump(&recovered), before);
}

#[test]
fn io_failure_degrades_to_read_only_not_panic() {
    // Arm the crash point a few storage ops in: some writes succeed,
    // then the log poisons.
    let fs = Arc::new(FaultFs::with_crash_after(11, 5));
    let store = DurableKv::open(fs, small_config(Durability::Sync)).unwrap();
    let mut lost_at = None;
    for k in 0..10u64 {
        match store.txn_logged(|tx| tx.put(k, Value::from_u64(k))) {
            Ok((_, _, DurabilityOutcome::Lost)) => {
                lost_at = Some(k);
                break;
            }
            Ok(_) => {}
            Err(DurabilityLost) => panic!("latch must trip via Lost first"),
        }
    }
    let lost_at = lost_at.expect("the armed op must surface as Lost");
    assert!(store.is_read_only());
    // Writes now fail fast; reads keep serving the in-memory state,
    // including the commit whose durability was lost.
    assert_eq!(store.put(99, Value::from_u64(1)), Err(DurabilityLost));
    assert_eq!(store.txn(|tx| tx.delete(0)), Err(DurabilityLost));
    for k in 0..=lost_at {
        assert_eq!(store.get(k).unwrap().as_u64(), Some(k));
    }
}

#[test]
fn group_commit_amortizes_fsyncs_across_committers() {
    // The default config on an instant device: nothing makes the two
    // committers' flushes overlap except the leader seeing its sibling
    // in flight. Each round's two transactions meet at a barrier
    // *inside* their closures — both admitted, neither staged — so
    // whichever reaches `wait_durable` first finds the other either in
    // flight (and waits for it) or already staged.
    let fs = Arc::new(FaultFs::new(404));
    let store = Arc::new(DurableKv::open(fs, DurableKvConfig::default()).unwrap());
    let per_thread = 40u64;
    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let store = Arc::clone(&store);
            let barrier = &barrier;
            scope.spawn(move || {
                for i in 0..per_thread {
                    // Once per round, not per attempt: a retried
                    // closure must not wait for a partner that is
                    // already past the barrier.
                    let mut met = false;
                    store
                        .txn(|tx| {
                            if !met {
                                met = true;
                                barrier.wait();
                            }
                            tx.put(t * 1000 + i, Value::from_u64(i))
                        })
                        .unwrap();
                }
            });
        }
    });
    let stats = store.stm().stats();
    assert_eq!(stats.commits_durable, 2 * per_thread);
    assert!(stats.fsyncs >= 1 && stats.group_commit_batches == stats.fsyncs);
    assert!(
        stats.fsyncs < stats.commits_durable,
        "group commit must batch: {} fsyncs for {} commits",
        stats.fsyncs,
        stats.commits_durable
    );
    assert!(stats.wal_bytes > 0);
}

#[test]
fn checkpoint_never_tears_a_concurrent_snapshot_scan() {
    // Constant-sum invariant: transfers between keys keep the total
    // fixed; snapshot scans and checkpoints run concurrently. Every
    // scan must see the full sum, and the checkpointed state (what
    // recovery yields) must too.
    const KEYS: u64 = 16;
    const PER_KEY: u64 = 1000;
    let fs = Arc::new(FaultFs::new(505));
    let store = Arc::new(DurableKv::open(fs.clone(), small_config(Durability::Sync)).unwrap());
    let entries: Vec<(u64, Value)> = (0..KEYS).map(|k| (k, Value::from_u64(PER_KEY))).collect();
    store.multi_put(&entries).unwrap();
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        let writer = {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut x = 9u64;
                while !stop.load(Ordering::Relaxed) {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let from = (x >> 33) % KEYS;
                    let to = (x >> 13) % KEYS;
                    store
                        .txn(|tx| {
                            let a = tx.get(from)?.and_then(|v| v.as_u64()).unwrap_or(0);
                            let b = tx.get(to)?.and_then(|v| v.as_u64()).unwrap_or(0);
                            if from != to && a > 0 {
                                tx.put(from, Value::from_u64(a - 1))?;
                                tx.put(to, Value::from_u64(b + 1))?;
                            }
                            Ok(())
                        })
                        .unwrap();
                }
            })
        };
        for _ in 0..8 {
            store.checkpoint().unwrap();
            let sum: u64 =
                store.scan_range(0, u64::MAX).iter().filter_map(|(_, v)| v.as_u64()).sum();
            assert_eq!(sum, KEYS * PER_KEY, "snapshot scan tore during checkpoint");
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    });

    drop(store);
    fs.crash();
    let recovered = DurableKv::open(fs, small_config(Durability::Sync)).unwrap();
    let sum: u64 = recovered.scan_range(0, u64::MAX).iter().filter_map(|(_, v)| v.as_u64()).sum();
    assert_eq!(sum, KEYS * PER_KEY, "recovered state tore");
}

#[test]
fn real_fs_recovery_roundtrip() {
    let dir = std::env::temp_dir().join(format!("polytm-durable-rt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fs = Arc::new(RealFs::open(&dir).unwrap());
    let store = DurableKv::open(fs.clone(), small_config(Durability::Sync)).unwrap();
    for k in 0..25u64 {
        store.put(k, Value::from_u64(k * k)).unwrap();
    }
    store.checkpoint().unwrap();
    store.put(1, Value::from_u64(777)).unwrap();
    store.delete(2).unwrap();
    let before = dump(&store);
    drop(store);
    // Reopen against the same directory through a fresh handle cache.
    let fs2 = Arc::new(RealFs::open(&dir).unwrap());
    let recovered = DurableKv::open(fs2, small_config(Durability::Sync)).unwrap();
    assert_eq!(dump(&recovered), before);
    assert_eq!(recovered.get(1).unwrap().as_u64(), Some(777));
    assert_eq!(recovered.get(2), None);
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Recovery builds the store from the folded record set: opening a
/// checkpoint plus a log runs no transaction, and the first commit
/// after it still lands above every persisted stamp.
#[test]
fn recovery_commits_nothing() {
    let fs = Arc::new(FaultFs::new(808));
    let store = DurableKv::open(fs.clone(), small_config(Durability::Sync)).unwrap();
    for k in 0..200u64 {
        store.put(k, Value::from_u64(k)).unwrap();
    }
    store.checkpoint().unwrap();
    for k in 0..20u64 {
        store.put(k * 3, Value::from_u64(k + 1000)).unwrap();
        store.delete(k * 5 + 1).unwrap();
    }
    let before = dump(&store);
    drop(store);
    fs.crash();
    let recovered = DurableKv::open(fs, small_config(Durability::Sync)).unwrap();
    assert_eq!(recovered.stm().stats().commits, 0, "recovery committed a transaction");
    assert_eq!(dump(&recovered), before);
    let (_, info, _) = recovered.txn_logged(|tx| tx.put(7, Value::from_u64(7))).unwrap();
    assert!(info.seq.is_some());
}

/// One redo payload: `Some(value)` puts, `None` deletes.
fn redo_payload(ops: &[(u64, Option<Vec<u8>>)]) -> Vec<u8> {
    let mut payload = Vec::new();
    for (key, value) in ops {
        match value {
            Some(bytes) => {
                payload.push(1);
                payload.extend_from_slice(&key.to_le_bytes());
                payload.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                payload.extend_from_slice(bytes);
            }
            None => {
                payload.push(2);
                payload.extend_from_slice(&key.to_le_bytes());
            }
        }
    }
    payload
}

/// Seeded device images written frame by frame — a checkpoint at cut
/// `W`, then two segments of one- to four-op entries (deletes of
/// checkpointed keys, re-puts, entries stamped `wv <= W`) ending in a
/// torn frame — recover to exactly a `BTreeMap` replay of the snapshot
/// and the valid entries above the cut, without committing anything.
#[test]
fn recovery_equals_a_model_replay_of_seeded_logs() {
    use polytm_durable::frame::{encode_entry, encode_snapshot};
    use std::collections::BTreeMap;

    const W: u64 = 1_000;
    const START_SEG: u64 = 4;
    for seed in 1..=24u64 {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let fs = Arc::new(FaultFs::new(seed));
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for _ in 0..next() % 120 {
            let key = next() % 256;
            model.insert(key, next().to_le_bytes().repeat(1 + (key % 4) as usize));
        }
        let snap: Vec<(u64, Vec<u8>)> = model.iter().map(|(k, v)| (*k, v.clone())).collect();
        fs.append(SNAP_NAME, &encode_snapshot(W, START_SEG, &snap)).unwrap();
        fs.sync(SNAP_NAME).unwrap();

        let entries = 20 + next() % 60;
        let mut seq = 0u64;
        let mut segment = Vec::new();
        for i in 0..entries {
            let ops: Vec<(u64, Option<Vec<u8>>)> = (0..1 + next() % 4)
                .map(|_| {
                    let key = next() % 300;
                    let value = (next() % 3 != 0)
                        .then(|| next().to_le_bytes()[..1 + (key % 8) as usize].to_vec());
                    (key, value)
                })
                .collect();
            let wv = if next() % 5 == 0 { W - next() % 10 } else { W + 1 + next() % 500 };
            seq += 1 + next() % 2;
            if wv > W {
                for (key, value) in &ops {
                    match value {
                        Some(bytes) => model.insert(*key, bytes.clone()),
                        None => model.remove(key),
                    };
                }
            }
            encode_entry(&mut segment, seq, wv, &redo_payload(&ops));
            if i == entries / 2 {
                fs.append(&segment_name(START_SEG), &segment).unwrap();
                fs.sync(&segment_name(START_SEG)).unwrap();
                segment.clear();
            }
        }
        // A torn last frame: every byte but its final one.
        let mut torn = Vec::new();
        encode_entry(&mut torn, seq + 1, W + 9_999, &redo_payload(&[(5, Some(vec![9; 20]))]));
        segment.extend_from_slice(&torn[..torn.len() - 1]);
        fs.append(&segment_name(START_SEG + 1), &segment).unwrap();
        fs.sync(&segment_name(START_SEG + 1)).unwrap();

        let recovered = DurableKv::open(fs, small_config(Durability::Sync)).unwrap();
        assert_eq!(recovered.stm().stats().commits, 0, "seed {seed}: recovery committed");
        let want: Vec<(u64, Vec<u8>)> = model.into_iter().collect();
        assert_eq!(dump(&recovered), want, "seed {seed}");
    }
}

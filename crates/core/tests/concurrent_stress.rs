//! Concurrent stress tests: invariants that must hold under arbitrary
//! thread interleavings (conservation, atomicity, snapshot isolation,
//! mixed-semantics co-existence — the heart of "polymorphism").

use std::sync::atomic::{AtomicBool, Ordering};

use polytm::{ConflictArbiter, NestingPolicy, Semantics, Stm, StmConfig, TVar, TxParams};

/// Worker-thread count, env-gated for CI: `POLYTM_STRESS_THREADS`
/// (default 4, minimum 2 so every test still exercises real
/// concurrency). Tests whose thread count is structural (one thread per
/// role) ignore this and gate only their iteration counts.
fn threads() -> usize {
    std::env::var("POLYTM_STRESS_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(4)
        .max(2)
}

/// Scales an iteration count by `POLYTM_STRESS_SCALE` (a percentage;
/// default 100 = the written counts, minimum result 1). CI boxes set a
/// small percentage for wall-clock bounds; local runs are unweakened.
fn scaled(n: u64) -> u64 {
    let pct = std::env::var("POLYTM_STRESS_SCALE")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(100)
        .max(1);
    (n * pct / 100).max(1)
}

fn spawn_workers<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    std::thread::scope(|s| {
        for i in 0..n {
            let f = &f;
            s.spawn(move || f(i));
        }
    });
}

#[test]
fn concurrent_counter_increments_are_all_applied() {
    let stm = Stm::new();
    let counter = stm.new_tvar(0u64);
    let workers = threads();
    let per_thread = scaled(500);
    spawn_workers(workers, |_| {
        for _ in 0..per_thread {
            stm.run(TxParams::default(), |t| counter.modify(t, |v| v + 1));
        }
    });
    assert_eq!(counter.load_committed(), workers as u64 * per_thread);
    let stats = stm.stats();
    assert_eq!(stats.commits, workers as u64 * per_thread);
}

#[test]
fn bank_transfers_conserve_total() {
    let stm = Stm::new();
    const ACCOUNTS: usize = 16;
    const INITIAL: i64 = 1_000;
    let accounts: Vec<TVar<i64>> = (0..ACCOUNTS).map(|_| stm.new_tvar(INITIAL)).collect();
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        // Transfer threads: move funds between pseudo-random accounts.
        let transfers = scaled(400);
        for tid in 0..threads() {
            let accounts = &accounts;
            let stm = &stm;
            let stop = &stop;
            s.spawn(move || {
                let mut seed = 0x9e37_79b9_7f4a_7c15u64 ^ (tid as u64);
                for _ in 0..transfers {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let from = (seed >> 33) as usize % ACCOUNTS;
                    let to = (seed >> 17) as usize % ACCOUNTS;
                    if from == to {
                        continue;
                    }
                    stm.run(TxParams::default(), |t| {
                        let a = accounts[from].read(t)?;
                        let b = accounts[to].read(t)?;
                        accounts[from].write(t, a - 1)?;
                        accounts[to].write(t, b + 1)
                    });
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
        // Auditor thread: the total must be invariant in *every* opaque
        // and snapshot view.
        let accounts = &accounts;
        let stm = &stm;
        let stop = &stop;
        s.spawn(move || {
            let expect = ACCOUNTS as i64 * INITIAL;
            while !stop.load(Ordering::Relaxed) {
                for sem in [Semantics::Opaque, Semantics::Snapshot, Semantics::elastic()] {
                    // NOTE: the elastic auditor reads through a window, so
                    // per the paper it is *not* guaranteed an atomic view
                    // of all accounts; we only assert on opaque/snapshot.
                    let total = stm.run(TxParams::new(sem), |t| {
                        let mut sum = 0i64;
                        for acc in accounts {
                            sum += acc.read(t)?;
                        }
                        Ok(sum)
                    });
                    if sem != Semantics::elastic() {
                        assert_eq!(total, expect, "atomic audit under {sem:?}");
                    }
                }
            }
        });
    });

    let final_total: i64 = accounts.iter().map(|a| a.load_committed()).sum();
    assert_eq!(final_total, ACCOUNTS as i64 * INITIAL);
}

#[test]
fn mixed_semantics_transactions_coexist() {
    // The core claim of the paper: transactions with distinct semantics
    // run concurrently in the same TM. Here opaque writers, elastic
    // searchers, snapshot auditors and an occasional irrevocable batch
    // run together over one array; the final state must equal the number
    // of successful increments.
    let stm = Stm::new();
    const SLOTS: usize = 32;
    let slots: Vec<TVar<u64>> = (0..SLOTS).map(|_| stm.new_tvar(0u64)).collect();

    let writes = scaled(600);
    let scans = scaled(200);
    let batches = scaled(30);
    spawn_workers(4, |tid| match tid {
        // opaque writer
        0 => {
            for i in 0..writes as usize {
                let idx = i % SLOTS;
                stm.run(TxParams::default(), |t| slots[idx].modify(t, |v| v + 1));
            }
        }
        // elastic traverser (read-only: result is a sample, not an atomic sum)
        1 => {
            for _ in 0..scans {
                let _ = stm.run(TxParams::weak(), |t| {
                    let mut sum = 0u64;
                    for s in &slots {
                        sum += s.read(t)?;
                    }
                    Ok(sum)
                });
            }
        }
        // snapshot auditor: sums must be monotonically non-decreasing
        // because slots only grow.
        2 => {
            let mut last = 0u64;
            for _ in 0..scans {
                let sum = stm.run(TxParams::new(Semantics::Snapshot), |t| {
                    let mut sum = 0u64;
                    for s in &slots {
                        sum += s.read(t)?;
                    }
                    Ok(sum)
                });
                assert!(sum >= last, "snapshot sums must not go backwards");
                last = sum;
            }
        }
        // irrevocable batch updates
        _ => {
            for i in 0..batches as usize {
                let idx = (i * 7) % SLOTS;
                stm.run(TxParams::new(Semantics::Irrevocable), |t| slots[idx].modify(t, |v| v + 1));
            }
        }
    });

    let total: u64 = slots.iter().map(|s| s.load_committed()).sum();
    assert_eq!(total, writes + batches);
}

#[test]
fn contention_managers_all_make_progress() {
    for arbiter in [
        ConflictArbiter::Suicide(polytm::Suicide),
        ConflictArbiter::Backoff(polytm::Backoff::default()),
        ConflictArbiter::Greedy(polytm::Greedy::default()),
    ] {
        let stm = Stm::with_config(StmConfig { arbiter, ..StmConfig::default() });
        let hot = stm.new_tvar(0u64);
        let workers = threads();
        let per_thread = scaled(200);
        spawn_workers(workers, |_| {
            for _ in 0..per_thread {
                stm.run(TxParams::default(), |t| hot.modify(t, |v| v + 1));
            }
        });
        assert_eq!(
            hot.load_committed(),
            workers as u64 * per_thread,
            "arbiter {} lost updates",
            arbiter.label()
        );
    }
}

#[test]
fn irrevocable_serializes_against_optimistic_commits() {
    let stm = Stm::new();
    let a = stm.new_tvar(0i64);
    let b = stm.new_tvar(0i64);
    // Invariant: a == b at every commit point.
    let per_thread = scaled(200);
    spawn_workers(3, |tid| {
        for _ in 0..per_thread {
            if tid == 0 {
                stm.run(TxParams::new(Semantics::Irrevocable), |t| {
                    let va = a.read(t)?;
                    a.write(t, va + 1)?;
                    // Irrevocable writes are eager, but the gate keeps any
                    // concurrent *commit* out until we finish.
                    let vb = b.read(t)?;
                    b.write(t, vb + 1)
                });
            } else {
                stm.run(TxParams::default(), |t| {
                    let va = a.read(t)?;
                    let vb = b.read(t)?;
                    assert_eq!(va, vb, "optimistic view must be atomic");
                    a.write(t, va + 1)?;
                    b.write(t, vb + 1)
                });
            }
        }
    });
    assert_eq!(a.load_committed(), 3 * per_thread as i64);
    assert_eq!(b.load_committed(), 3 * per_thread as i64);
}

#[test]
fn snapshot_history_exhaustion_retries_transparently() {
    // History is kept only for registered bounds, and a snapshot block
    // nested in an optimistic parent registers its (inherited) bound
    // late: under a fast writer it will hit SnapshotUnavailable and must
    // retry with a fresh bound, never returning an inconsistent pair.
    let stm = Stm::new();
    let x = stm.new_tvar(0i64);
    let y = stm.new_tvar(0i64);
    std::thread::scope(|s| {
        let stm_ref = &stm;
        let (xh, yh) = (&x, &y);
        s.spawn(move || {
            for _ in 0..scaled(1_000) {
                stm_ref.run(TxParams::default(), |t| {
                    let v = xh.read(t)?;
                    xh.write(t, v + 1)?;
                    yh.write(t, v + 1)
                });
            }
        });
        for _ in 0..scaled(300) {
            let (va, vb) = stm.run(TxParams::default(), |t| {
                t.nested_with_policy(Semantics::Snapshot, NestingPolicy::Parameter, |inner| {
                    Ok((x.read(inner)?, y.read(inner)?))
                })
            });
            assert_eq!(va, vb);
        }
    });
}

#[test]
fn many_vars_low_contention_scales_without_lost_updates() {
    let stm = Stm::new();
    const N: usize = 256;
    let vars: Vec<TVar<u64>> = (0..N).map(|_| stm.new_tvar(0u64)).collect();
    let workers = threads();
    let rounds = scaled(50);
    spawn_workers(workers, |tid| {
        // Each thread owns a stride of vars: almost no conflicts.
        for round in 0..rounds {
            for i in (tid..N).step_by(workers) {
                let _ = round;
                stm.run(TxParams::default(), |t| vars[i].modify(t, |v| v + 1));
            }
        }
    });
    for v in &vars {
        assert_eq!(v.load_committed(), rounds);
    }
}

/// The stats-conservation law: every closure invocation (attempt) ends
/// as exactly one of a commit, a cause-classified abort, or a cancel —
/// so `attempts == commits + aborts() + cancels` must hold exactly, no
/// matter how attempts interleave. The workload forces every abort
/// cause the counters classify: organic lock/validation conflicts on a
/// hot counter (opaque and elastic), user retries, user-forced
/// capacity/unavailable aborts, the `RestartIrrevocable` upgrade
/// (whose restarted attempt must still be accounted), and cancels
/// (which are deliberately *not* aborts and are counted by the test).
#[test]
fn attempts_conserve_as_commits_plus_aborts_plus_cancels() {
    use std::cell::Cell;
    use std::sync::atomic::AtomicU64;

    use polytm::Abort;

    let stm = Stm::with_config(StmConfig {
        // A low fallback keeps the upgrade path itself in play; the
        // identity must survive upgrades too.
        irrevocable_fallback_after: Some(8),
        ..StmConfig::default()
    });
    let counter = stm.new_tvar(0u64);
    let attempts = AtomicU64::new(0);
    let cancels = AtomicU64::new(0);

    // `.max(20)` guarantees every op variant below runs at least twice
    // even under an aggressive POLYTM_STRESS_SCALE.
    let runs = scaled(400).max(20);
    spawn_workers(threads(), |_| {
        for i in 0..runs {
            match i % 10 {
                // Hot opaque increments: organic lock/validation aborts.
                0..=3 => {
                    stm.run(TxParams::default(), |t| {
                        attempts.fetch_add(1, Ordering::Relaxed);
                        counter.modify(t, |v| v + 1)
                    });
                }
                // Elastic increment: read-time conflicts classify as cuts.
                4 => {
                    stm.run(TxParams::new(Semantics::Elastic { window: 4 }), |t| {
                        attempts.fetch_add(1, Ordering::Relaxed);
                        counter.modify(t, |v| v + 1)
                    });
                }
                // Snapshot read alongside the writers.
                5 => {
                    stm.run(TxParams::new(Semantics::Snapshot), |t| {
                        attempts.fetch_add(1, Ordering::Relaxed);
                        counter.read(t)
                    });
                }
                // User retry twice, then commit.
                6 => {
                    let tries = Cell::new(0u32);
                    stm.run(TxParams::default(), |t| {
                        attempts.fetch_add(1, Ordering::Relaxed);
                        let n = tries.get();
                        tries.set(n + 1);
                        if n < 2 {
                            return Err(Abort::Retry);
                        }
                        counter.modify(t, |v| v + 1)
                    });
                }
                // Forced capacity then unavailable aborts, then commit.
                7 => {
                    let tries = Cell::new(0u32);
                    stm.run(TxParams::default(), |t| {
                        attempts.fetch_add(1, Ordering::Relaxed);
                        let n = tries.get();
                        tries.set(n + 1);
                        match n {
                            0 => Err(Abort::SnapshotCapacity { addr: 1 }),
                            1 => Err(Abort::SnapshotUnavailable { addr: 1 }),
                            _ => counter.read(t),
                        }
                    });
                }
                // RestartIrrevocable: the restarted attempt is an abort
                // (cause Other) and the re-run commits irrevocably.
                8 => {
                    let tries = Cell::new(0u32);
                    stm.run(TxParams::default(), |t| {
                        attempts.fetch_add(1, Ordering::Relaxed);
                        let n = tries.get();
                        tries.set(n + 1);
                        if n == 0 {
                            return Err(Abort::RestartIrrevocable);
                        }
                        counter.modify(t, |v| v + 1)
                    });
                }
                // Cancel: reads, then abandons the run entirely.
                _ => {
                    let r = stm.try_run(TxParams::default(), |t| -> polytm::TxResult<()> {
                        attempts.fetch_add(1, Ordering::Relaxed);
                        let _ = counter.read(t)?;
                        Err(Abort::Cancel)
                    });
                    assert!(r.is_err(), "a cancelling closure must surface Err(Canceled)");
                    cancels.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    });

    let s = stm.stats();
    assert_eq!(
        attempts.load(Ordering::Relaxed),
        s.commits + s.aborts() + cancels.load(Ordering::Relaxed),
        "attempts must equal commits + aborts + cancels; snapshot: {s:?}"
    );
    // The workload provably exercised each classified cause at least
    // once per worker (the forced branches are deterministic).
    let w = threads() as u64;
    assert!(s.aborts_user_retry >= 2 * w + w, "retries + restart-irrevocable attempts");
    assert!(s.aborts_capacity >= w);
    assert!(s.aborts_unavailable >= w);
    assert!(s.irrevocable_commits >= w, "each RestartIrrevocable re-run commits irrevocably");
    assert_eq!(cancels.load(Ordering::Relaxed), w * (runs / 10), "i % 10 == 9 cancels per worker");
}

//! MVCC snapshot-path tests: the wait-free read protocol and the
//! watermark-driven version retention introduced with the snapshot
//! registry.
//!
//! Three properties are on trial:
//!
//! 1. **Commit-atomic cuts** — a snapshot reader must never observe a
//!    torn multi-location commit, whatever the interleaving with
//!    committers (the torn-cut detector stress).
//! 2. **Retention** — a version reachable from a live snapshot bound
//!    is never reclaimed, however far the writers run ahead — and it is
//!    the *only* retention there is: with no bound live a location keeps
//!    its head alone.
//! 3. **Irrevocable exclusion** — the era gate drains committers before
//!    an irrevocable transaction starts, so its unarbitrated direct
//!    reads can never observe a locked slot (a debug assertion in the
//!    read path turns any violation into a test failure).

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Barrier;

use proptest::prelude::*;

use polytm::{Semantics, Stm, TVar, TxParams};

/// Worker-thread count, env-gated for CI: `POLYTM_STRESS_THREADS`
/// (default 4, minimum 2 so every test still exercises real
/// concurrency).
fn threads() -> usize {
    std::env::var("POLYTM_STRESS_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(4)
        .max(2)
}

/// Scales an iteration count by `POLYTM_STRESS_SCALE` (a percentage;
/// default 100 = the written counts, minimum result 1).
fn scaled(n: u64) -> u64 {
    let pct = std::env::var("POLYTM_STRESS_SCALE")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(100)
        .max(1);
    (n * pct / 100).max(1)
}

/// The torn-cut detector: transfer transactions move value among
/// *four* accounts at a time (two debits, two credits) while snapshot
/// auditors sum the whole array in parallel. Any cut that interleaves
/// a committer's publishes — e.g. a reader that took the wait-free
/// fast path past a committer's lock but then read one slot too new —
/// shows up as a non-conserved total.
#[test]
fn snapshot_cuts_are_commit_atomic_under_transfer_churn() {
    let stm = Stm::new();
    const ACCOUNTS: usize = 24;
    const INITIAL: i64 = 1_000;
    let accounts: Vec<TVar<i64>> = (0..ACCOUNTS).map(|_| stm.new_tvar(INITIAL)).collect();
    let stop = AtomicBool::new(false);
    let expect = ACCOUNTS as i64 * INITIAL;

    std::thread::scope(|s| {
        let transfers = scaled(500);
        for tid in 0..threads() {
            let (accounts, stm, stop) = (&accounts, &stm, &stop);
            s.spawn(move || {
                let mut seed = 0x9e37_79b9_7f4a_7c15u64 ^ (tid as u64);
                let mut next = || {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (seed >> 33) as usize % ACCOUNTS
                };
                for _ in 0..transfers {
                    let (a, b, c, d) = (next(), next(), next(), next());
                    stm.run(TxParams::default(), |t| {
                        // Two debits, two credits — all-or-nothing.
                        for idx in [a, b] {
                            let v = accounts[idx].read(t)?;
                            accounts[idx].write(t, v - 3)?;
                        }
                        for idx in [c, d] {
                            let v = accounts[idx].read(t)?;
                            accounts[idx].write(t, v + 3)?;
                        }
                        Ok(())
                    });
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
        // Two snapshot auditors so auditors also race each other's
        // registry slots, not just the committers.
        for _ in 0..2 {
            let (accounts, stm, stop) = (&accounts, &stm, &stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let total = stm.run(TxParams::new(Semantics::Snapshot), |t| {
                        let mut sum = 0i64;
                        for acc in accounts {
                            sum += acc.read(t)?;
                        }
                        Ok(sum)
                    });
                    assert_eq!(total, expect, "snapshot observed a torn transfer cut");
                }
            });
        }
    });

    let final_total: i64 = accounts.iter().map(|a| a.load_committed()).sum();
    assert_eq!(final_total, expect);
}

/// Long scans under write churn with the minimal history there is (no
/// retention floor at all): watermark retention must keep every version
/// a live snapshot bound can reach, so registered snapshot transactions
/// never die with `SnapshotUnavailable` — the failure mode the
/// fixed-depth scheme had.
#[test]
fn long_scans_survive_churn_with_minimal_history_depth() {
    let stm = Stm::new();
    const VARS: usize = 96;
    let vars: Vec<TVar<u64>> = (0..VARS).map(|_| stm.new_tvar(0u64)).collect();
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        // Writers: bump a whole stripe per transaction, as fast as
        // possible, superseding each slot's head over and over.
        for tid in 0..threads().saturating_sub(1).max(1) {
            let (vars, stm, stop) = (&vars, &stm, &stop);
            s.spawn(move || {
                let mut i = tid;
                while !stop.load(Ordering::Relaxed) {
                    stm.run(TxParams::default(), |t| {
                        for off in 0..4 {
                            vars[(i + off * 7) % VARS].modify(t, |v| v + 1)?;
                        }
                        Ok(())
                    });
                    i = i.wrapping_add(1);
                }
            });
        }
        // Scanner: whole-array snapshot scans. With the registry in
        // place these must complete; the per-scan assertion is that the
        // sum is a value some committed prefix could have produced
        // (monotone non-decreasing across scans, since slots only grow).
        let (vars, stm, stop) = (&vars, &stm, &stop);
        s.spawn(move || {
            let mut last = 0u64;
            for _ in 0..scaled(200) {
                let sum = stm.run(TxParams::new(Semantics::Snapshot), |t| {
                    let mut sum = 0u64;
                    for v in vars {
                        sum += v.read(t)?;
                    }
                    Ok(sum)
                });
                assert!(sum >= last, "snapshot sums must not go backwards");
                last = sum;
            }
            stop.store(true, Ordering::Relaxed);
        });
    });

    let stats = stm.stats();
    assert_eq!(
        stats.aborts_unavailable, 0,
        "a registered snapshot bound must pin its versions: {stats:?}"
    );
}

/// Era-gate regression for the irrevocable direct-read path: the grant
/// drains and excludes committers, so an irrevocable reader must never
/// observe a locked slot. The read path carries a debug assertion on
/// that invariant — running this test in a debug profile turns any
/// regression (e.g. a committer locking outside its gate registration)
/// into a panic here.
#[test]
fn irrevocable_direct_reads_never_observe_committer_locks() {
    let stm = Stm::new();
    const VARS: usize = 16;
    let vars: Vec<TVar<i64>> = (0..VARS).map(|_| stm.new_tvar(0i64)).collect();
    let rounds = scaled(150);

    std::thread::scope(|s| {
        // Optimistic committers with multi-location write sets: wide
        // lock spans maximize the window an unguarded reader would hit.
        for tid in 0..threads().saturating_sub(1).max(1) {
            let (vars, stm) = (&vars, &stm);
            s.spawn(move || {
                for i in 0..rounds as usize {
                    stm.run(TxParams::default(), |t| {
                        for off in 0..8 {
                            let idx = (tid + i + off) % VARS;
                            vars[idx].modify(t, |v| v + 1)?;
                        }
                        Ok(())
                    });
                }
            });
        }
        // Irrevocable readers: read-only passes over the same slots.
        let (vars, stm) = (&vars, &stm);
        s.spawn(move || {
            for _ in 0..rounds {
                let _ = stm.run(TxParams::new(Semantics::Irrevocable), |t| {
                    let mut sum = 0i64;
                    for v in vars {
                        sum += v.read(t)?;
                    }
                    Ok(std::hint::black_box(sum))
                });
            }
        });
    });
}

/// Pin-refresh hygiene: a snapshot scan long enough to cross the epoch
/// pin refresh interval several times, against writers that overwrite
/// every slot in one transaction per round. The refresh must never open
/// an unpinned window between the chain-head load and the node deref —
/// a violation surfaces as a torn cut (mixed rounds) or as a crash
/// under epoch reclamation.
#[test]
fn snapshot_pin_refresh_preserves_a_consistent_cut() {
    let stm = Stm::new();
    // More vars than the pin-refresh interval (64), so one scan
    // refreshes its guard several times mid-transaction.
    const VARS: usize = 200;
    let vars: Vec<TVar<u64>> = (0..VARS).map(|_| stm.new_tvar(0u64)).collect();
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        let (vars, stm, stop) = (&vars, &stm, &stop);
        s.spawn(move || {
            let mut round = 1u64;
            while !stop.load(Ordering::Relaxed) {
                // One commit writes the same round everywhere.
                stm.run(TxParams::default(), |t| {
                    for v in vars {
                        v.write(t, round)?;
                    }
                    Ok(())
                });
                round += 1;
            }
        });
        for _ in 0..scaled(150) {
            let (lo, hi) = stm.run(TxParams::new(Semantics::Snapshot), |t| {
                let mut lo = u64::MAX;
                let mut hi = 0u64;
                for v in vars {
                    let val = v.read(t)?;
                    lo = lo.min(val);
                    hi = hi.max(val);
                }
                Ok((lo, hi))
            });
            assert_eq!(lo, hi, "pin refresh tore a snapshot cut: rounds {lo}..{hi}");
        }
        stop.store(true, Ordering::Relaxed);
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24)
    ))]

    /// Retention property, end to end: a snapshot transaction begun
    /// *before* a burst of commits can still read every location at its
    /// bound afterwards, however many commits landed in between,
    /// because its registered bound holds the truncation watermark back
    /// (nothing else retains history).
    #[test]
    fn retention_never_reclaims_a_version_a_live_bound_can_reach(
        commits in 1u64..120,
        nvars in 2usize..6,
    ) {
        let stm = Stm::new();
        let vars: Vec<TVar<u64>> = (0..nvars).map(|_| stm.new_tvar(0u64)).collect();
        let barrier = Barrier::new(2);
        let attempts = AtomicU32::new(0);

        let seen = std::thread::scope(|s| {
            let (vars, stm, barrier) = (&vars, &stm, &barrier);
            s.spawn(move || {
                barrier.wait(); // reader's bound is fixed
                for round in 1..=commits {
                    stm.run(TxParams::default(), |t| {
                        for v in vars {
                            v.write(t, round)?;
                        }
                        Ok(())
                    });
                }
                barrier.wait(); // churn done
            });
            stm.try_run(TxParams::new(Semantics::Snapshot), |t| {
                // Synchronize on the first attempt only: a retry would
                // mean the snapshot failed, which is itself a failure
                // of the property (asserted below via try_run's Ok).
                if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                    barrier.wait();
                    barrier.wait();
                }
                let mut seen = Vec::with_capacity(vars.len());
                for v in vars {
                    seen.push(v.read(t)?);
                }
                Ok(seen)
            })
        });

        let seen = match seen {
            Ok(seen) => seen,
            Err(abort) => return Err(TestCaseError::fail(format!(
                "snapshot at a live bound aborted after {commits} commits: {abort}"
            ))),
        };
        prop_assert_eq!(attempts.load(Ordering::Relaxed), 1, "the bound-holding attempt retried");
        // The bound predates every commit: the cut must be the initial
        // state, read *after* `commits` overwrites.
        prop_assert!(seen.iter().all(|&v| v == 0), "non-initial values at the old bound: {seen:?}");
        prop_assert_eq!(stm.stats().aborts_unavailable, 0u64);
    }
}

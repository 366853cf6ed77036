//! Watermark-driven retention under checkpoint-style pressure: a live
//! registered snapshot bound must pin every version it can reach, no
//! matter how hard writers churn — there is no retention floor, so the
//! registry is all that stands between a live scan and truncation. The
//! durable crate's checkpoint (a long snapshot scan racing log
//! truncation) leans on this property.
//!
//! Companion to the registry's own unit tests in `snapreg.rs`: those
//! check the watermark arithmetic; these check the end-to-end promise
//! through commit-time truncation in `TCell`.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Barrier;

use polytm::{Semantics, Stm, TxParams};

/// Iteration scaling via `POLYTM_STRESS_SCALE` (a percentage; the
/// nightly job raises it).
fn scaled(n: u64) -> u64 {
    let pct = std::env::var("POLYTM_STRESS_SCALE")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(100)
        .max(1);
    (n * pct / 100).max(1)
}

fn threads() -> usize {
    std::env::var("POLYTM_STRESS_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(4)
        .max(2)
}

/// The unit case: one snapshot transaction registers its bound, then a
/// writer commits two hundred versions while the snapshot is still
/// live (an unregistered bound would lose its version to the first). The snapshot's re-read must return its
/// original value on the *first attempt* — a retry would mean the
/// registered bound lost a version to truncation.
#[test]
fn live_snapshot_bound_survives_churn_with_no_retention_floor() {
    // Every surviving old version is the registry's doing: with no
    // bound live a publish keeps the head only.
    let stm = Stm::new();
    let var = stm.new_tvar(0u64);
    let start_churn = Barrier::new(2);
    let churn_done = Barrier::new(2);
    let attempts = AtomicU32::new(0);

    std::thread::scope(|s| {
        let (stm_ref, var_ref) = (&stm, &var);
        let (attempts_ref, start_ref, done_ref) = (&attempts, &start_churn, &churn_done);
        s.spawn(move || {
            let observed = stm_ref.run(TxParams::new(Semantics::Snapshot), |t| {
                let first = attempts_ref.fetch_add(1, Ordering::SeqCst) == 0;
                let before = var_ref.read(t)?;
                if first {
                    // Hold the transaction (and its registered bound)
                    // open across the writer's entire burst.
                    start_ref.wait();
                    done_ref.wait();
                }
                let after = var_ref.read(t)?;
                assert_eq!(before, after, "snapshot re-read moved");
                Ok(after)
            });
            assert_eq!(observed, 0, "snapshot must see its registration-time state");
        });

        start_churn.wait();
        for i in 0..200u64 {
            stm.run(TxParams::default(), |t| var.write(t, i + 1));
        }
        churn_done.wait();
    });

    assert_eq!(
        attempts.load(Ordering::SeqCst),
        1,
        "a registered snapshot bound lost a reachable version to truncation"
    );
    assert_eq!(stm.stats().aborts_unavailable, 0);
}

/// The churn case (checkpoint-shaped): scanners repeatedly snapshot-sum
/// a transfer-conserved array while writers churn every location.
/// Registered snapshots must never die unavailable, and
/// every cut must conserve the total.
#[test]
fn registered_snapshots_never_die_unavailable_under_churn() {
    const VARS: usize = 12;
    const INITIAL: i64 = 500;
    let stm = Stm::new();
    let vars: Vec<_> = (0..VARS).map(|_| stm.new_tvar(INITIAL)).collect();
    let stop = AtomicBool::new(false);
    let expect = VARS as i64 * INITIAL;

    std::thread::scope(|s| {
        for tid in 0..threads().saturating_sub(1).max(1) {
            let (stm, vars, stop) = (&stm, &vars, &stop);
            s.spawn(move || {
                let mut seed = 0xA076_1D64_78BD_642Fu64 ^ tid as u64;
                let mut next = || {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (seed >> 33) as usize % VARS
                };
                while !stop.load(Ordering::Relaxed) {
                    let (a, b) = (next(), next());
                    stm.run(TxParams::default(), |t| {
                        let x = vars[a].read(t)?;
                        let y = vars[b].read(t)?;
                        if a != b {
                            vars[a].write(t, x - 1)?;
                            vars[b].write(t, y + 1)?;
                        }
                        Ok(())
                    });
                }
            });
        }

        let scans = scaled(300);
        for _ in 0..scans {
            let total: i64 = stm.run(TxParams::new(Semantics::Snapshot), |t| {
                let mut sum = 0;
                for var in &vars {
                    sum += var.read(t)?;
                }
                Ok(sum)
            });
            assert_eq!(total, expect, "snapshot cut tore under churn");
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(
        stm.stats().aborts_unavailable,
        0,
        "a registered snapshot bound was truncated out from under a live scan"
    );
}

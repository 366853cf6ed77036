//! Stress and interleaving regression tests for the irrevocable-era
//! gate: an optimistic begin or rv-extension racing an irrevocable
//! writer must never observe a half-applied eager-write window.
//!
//! The irrevocable writer publishes each eager write at its own write
//! version, so a read version sampled inside its window would let an
//! optimistic reader accept some of the writes (version <= rv) while
//! rejecting others — a torn view of an atomic transaction. The era
//! protocol (crates/core/src/gate.rs) must make that impossible without
//! any lock on the begin path.
//!
//! Structure note: the hosts running these tests may have a single CPU,
//! so each race is driven by counts, never by a fixed writer iteration
//! count that could finish before an auditor runs. The writer loops
//! until the auditors stop it, and they stop only once they have
//! audited `target` times *and* the irrevocable mover has committed at
//! least `MOVER_FLOOR` times (`irrevocable_commits`), so no test passes
//! without the race it exists for. The `yield_now` calls are courtesy
//! to a single CPU, not an oracle: no stop condition counts yields or
//! time.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use polytm::{Semantics, Stm, TxParams};

/// Irrevocable commits the mover must reach before an auditor may stop.
const MOVER_FLOOR: u64 = 100;

/// True once the auditors have done `target` audits and the mover has
/// committed irrevocably at least [`MOVER_FLOOR`] times. Auditors the
/// liveness fallback escalated commit irrevocably too, so upgrades are
/// subtracted (recorded before their commit, so never an overcount).
fn audited_enough(stm: &Stm, audits: &AtomicU64, target: u64) -> bool {
    audits.load(Ordering::Relaxed) >= target && {
        let s = stm.stats();
        s.irrevocable_commits.saturating_sub(s.irrevocable_upgrades) >= MOVER_FLOOR
    }
}

fn scaled(n: u64) -> u64 {
    let pct = std::env::var("POLYTM_STRESS_SCALE")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(100)
        .max(1);
    (n * pct / 100).max(1)
}

/// The core regression: an irrevocable writer moves value between `x`
/// and `y` (sum invariant 0) with *two separate eager writes*; read-only
/// opaque transactions beginning at arbitrary moments must always see
/// sum == 0. A read version sampled between the two eager writes would
/// see the decrement without the increment.
#[test]
fn optimistic_begin_never_lands_inside_an_eager_write_window() {
    let stm = Stm::new();
    let x = stm.new_tvar(0i64);
    let y = stm.new_tvar(0i64);
    let stop = AtomicBool::new(false);
    let audits = AtomicU64::new(0);
    let target = scaled(2_000);

    std::thread::scope(|s| {
        let (stm, x, y, stop, audits) = (&stm, &x, &y, &stop, &audits);
        s.spawn(move || {
            let mut step = 0i64;
            while !stop.load(Ordering::Relaxed) {
                step += 1;
                let delta = 1 + (step % 5);
                stm.run(TxParams::new(Semantics::Irrevocable), |t| {
                    let vx = x.read(t)?;
                    // Window opens here: x published at its own wv...
                    x.write(t, vx - delta)?;
                    let vy = y.read(t)?;
                    // ...and y at a later wv. rv must not land between.
                    y.write(t, vy + delta)
                });
                // Courtesy, not an oracle: on a single CPU this lets the
                // auditors begin mid-stream rather than only between our
                // transactions; the stop condition counts commits.
                std::thread::yield_now();
            }
        });
        for _ in 0..2 {
            s.spawn(move || {
                while !audited_enough(stm, audits, target) {
                    let sum = stm.run(TxParams::default(), |t| Ok(x.read(t)? + y.read(t)?));
                    assert_eq!(sum, 0, "opaque view tore an irrevocable eager-write window");
                    audits.fetch_add(1, Ordering::Relaxed);
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
    });
    assert!(audited_enough(&stm, &audits, target));
    assert_eq!(x.load_committed() + y.load_committed(), 0);
}

/// Same invariant through the rv-*extension* path: a long-running opaque
/// transaction reads a churn variable first (forcing extensions when it
/// later re-samples), then audits the invariant pair. The extension's
/// clock sample goes through the same era double-check as begin.
#[test]
fn rv_extension_never_lands_inside_an_eager_write_window() {
    let stm = Stm::new();
    let churn = stm.new_tvar(0u64);
    let x = stm.new_tvar(0i64);
    let y = stm.new_tvar(0i64);
    let stop = AtomicBool::new(false);
    let audits = AtomicU64::new(0);
    let target = scaled(1_000);

    std::thread::scope(|s| {
        let (stm, churn, x, y, stop, audits) = (&stm, &churn, &x, &y, &stop, &audits);
        // Irrevocable mover: multi-write window, sum stays 0.
        s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                stm.run(TxParams::new(Semantics::Irrevocable), |t| {
                    let vx = x.read(t)?;
                    x.write(t, vx + 7)?;
                    let vy = y.read(t)?;
                    y.write(t, vy - 7)
                });
                // Courtesy to a single CPU, not an oracle (see above).
                std::thread::yield_now();
            }
        });
        // Churn writer: forces later readers of `churn` to extend rv.
        s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                stm.run(TxParams::default(), |t| churn.modify(t, |v| v + 1));
                // Courtesy to a single CPU, not an oracle (see above).
                std::thread::yield_now();
            }
        });
        // Auditor: reads x first, churn second (the churn read's version
        // usually exceeds the start rv, triggering an extension that
        // must revalidate the x read), then y. Tears abort and retry —
        // but a successfully *returned* view must be atomic.
        s.spawn(move || {
            while !audited_enough(stm, audits, target) {
                let (sx, _, sy) = stm.run(TxParams::default(), |t| {
                    let sx = x.read(t)?;
                    let c = churn.read(t)?;
                    let sy = y.read(t)?;
                    Ok((sx, c, sy))
                });
                assert_eq!(sx + sy, 0, "extended opaque view tore an irrevocable window");
                audits.fetch_add(1, Ordering::Relaxed);
            }
            stop.store(true, Ordering::Relaxed);
        });
    });
    assert!(audited_enough(&stm, &audits, target));
    assert_eq!(x.load_committed() + y.load_committed(), 0);
}

/// Optimistic *writing* commits racing the era drain: every committed
/// update must survive, and irrevocable counts land exactly once —
/// exercises committer registration (enter_commit) against the drain.
#[test]
fn writing_commits_and_irrevocable_writers_interleave_without_loss() {
    let stm = Stm::new();
    let counter = stm.new_tvar(0u64);
    let opt_done = AtomicU64::new(0);
    let irr_done = AtomicU64::new(0);

    std::thread::scope(|s| {
        let (stm, counter) = (&stm, &counter);
        for tid in 0..4usize {
            let opt_done = &opt_done;
            let irr_done = &irr_done;
            s.spawn(move || {
                for i in 0..scaled(500) {
                    if tid == 0 && i % 8 == 0 {
                        stm.run(TxParams::new(Semantics::Irrevocable), |t| {
                            counter.modify(t, |v| v + 1)
                        });
                        irr_done.fetch_add(1, Ordering::Relaxed);
                    } else {
                        stm.run(TxParams::default(), |t| counter.modify(t, |v| v + 1));
                        opt_done.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let expect = opt_done.load(Ordering::Relaxed) + irr_done.load(Ordering::Relaxed);
    assert_eq!(counter.load_committed(), expect, "updates lost across the era gate");
}

/// Concurrent irrevocable transactions must serialize (the era CAS is
/// the mutual exclusion; there is no RwLock anymore).
#[test]
fn concurrent_irrevocable_transactions_serialize() {
    let stm = Stm::new();
    let a = stm.new_tvar(0u64);
    let b = stm.new_tvar(0u64);
    let per_thread = scaled(300);
    std::thread::scope(|s| {
        let (stm, a, b) = (&stm, &a, &b);
        for _ in 0..4 {
            s.spawn(move || {
                for _ in 0..per_thread {
                    stm.run(TxParams::new(Semantics::Irrevocable), |t| {
                        let va = a.read(t)?;
                        a.write(t, va + 1)?;
                        // A second irrevocable running concurrently would
                        // interleave here and lose one of the updates.
                        let vb = b.read(t)?;
                        b.write(t, vb + 1)
                    });
                }
            });
        }
    });
    assert_eq!(a.load_committed(), 4 * per_thread);
    assert_eq!(b.load_committed(), 4 * per_thread);
}

/// Snapshot transactions sample rv through the same gate and must never
/// see a half-applied irrevocable window either (their reads come from
/// the version chain at rv).
#[test]
fn snapshot_views_exclude_eager_write_windows() {
    let stm = Stm::new();
    let x = stm.new_tvar(0i64);
    let y = stm.new_tvar(0i64);
    let stop = AtomicBool::new(false);
    let audits = AtomicU64::new(0);
    let target = scaled(1_000);
    std::thread::scope(|s| {
        let (stm, x, y, stop, audits) = (&stm, &x, &y, &stop, &audits);
        s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                stm.run(TxParams::new(Semantics::Irrevocable), |t| {
                    let vx = x.read(t)?;
                    x.write(t, vx + 3)?;
                    let vy = y.read(t)?;
                    y.write(t, vy - 3)
                });
                // Courtesy to a single CPU, not an oracle (see above).
                std::thread::yield_now();
            }
        });
        s.spawn(move || {
            while !audited_enough(stm, audits, target) {
                let sum =
                    stm.run(TxParams::new(Semantics::Snapshot), |t| Ok(x.read(t)? + y.read(t)?));
                assert_eq!(sum, 0, "snapshot view tore an irrevocable window");
                audits.fetch_add(1, Ordering::Relaxed);
            }
            stop.store(true, Ordering::Relaxed);
        });
    });
    assert!(audited_enough(&stm, &audits, target));
}

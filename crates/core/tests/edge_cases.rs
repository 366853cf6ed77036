//! Edge-case and robustness tests for the STM core: panic safety, odd
//! configurations, large transactions, and API misuse that must fail
//! loudly rather than corrupt state.

use std::sync::atomic::{AtomicU32, Ordering};

use polytm::{NestingPolicy, Semantics, Stm, TVar, TxParams};

#[test]
fn panic_in_closure_releases_reentrancy_guard() {
    let stm = Stm::new();
    let x = stm.new_tvar(0i64);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        stm.run(TxParams::default(), |_tx| -> polytm::TxResult<()> {
            panic!("user bug");
        })
    }));
    assert!(result.is_err());
    // The thread must be able to run transactions again.
    stm.run(TxParams::default(), |tx| x.write(tx, 1));
    assert_eq!(x.load_committed(), 1);
}

#[test]
fn panic_mid_transaction_publishes_nothing() {
    let stm = Stm::new();
    let x = stm.new_tvar(0i64);
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        stm.run(TxParams::default(), |tx| {
            x.write(tx, 999)?;
            panic!("after buffered write");
            #[allow(unreachable_code)]
            Ok(())
        })
    }));
    assert_eq!(x.load_committed(), 0, "buffered writes must die with the panic");
    // And the location must not be left locked.
    stm.run(TxParams::default(), |tx| x.write(tx, 5));
    assert_eq!(x.load_committed(), 5);
}

#[test]
fn irrevocable_panic_releases_the_gate() {
    let stm = Stm::new();
    let x = stm.new_tvar(0i64);
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        stm.run(TxParams::new(Semantics::Irrevocable), |tx| {
            let _ = x.read(tx)?;
            panic!("irrevocable body panicked before any write");
            #[allow(unreachable_code)]
            Ok(())
        })
    }));
    // If the gate leaked, this commit would deadlock.
    stm.run(TxParams::default(), |tx| x.write(tx, 1));
    assert_eq!(x.load_committed(), 1);
}

#[test]
fn untagged_tvar_works_with_any_stm() {
    // TVar::new creates an untagged var (stm_id 0): usable, but without
    // the debug pairing check.
    let stm = Stm::new();
    let x: TVar<i64> = TVar::new(5);
    let v = stm.run(TxParams::default(), |tx| {
        x.modify(tx, |v| v + 1)?;
        x.read(tx)
    });
    assert_eq!(v, 6);
}

#[test]
fn large_write_set_commits_atomically() {
    let stm = Stm::new();
    let vars: Vec<_> = (0..2_000).map(|_| stm.new_tvar(0u64)).collect();
    stm.run(TxParams::default(), |tx| {
        for (i, v) in vars.iter().enumerate() {
            v.write(tx, i as u64)?;
        }
        Ok(())
    });
    for (i, v) in vars.iter().enumerate() {
        assert_eq!(v.load_committed(), i as u64);
    }
    assert_eq!(stm.stats().commits, 1);
}

#[test]
fn duplicate_writes_keep_last_value_single_version_bump() {
    let stm = Stm::new();
    let x = stm.new_tvar(0i64);
    stm.run(TxParams::default(), |tx| {
        for i in 0..100 {
            x.write(tx, i)?;
        }
        Ok(())
    });
    assert_eq!(x.load_committed(), 99);
    // One commit => the global clock advanced exactly once and the var
    // carries that single new version.
    assert_eq!(stm.clock_now(), 1);
    assert_eq!(x.committed_version(), 1);
    assert_eq!(stm.stats().commits, 1);
}

#[test]
fn write_then_read_then_write_roundtrips() {
    let stm = Stm::new();
    let x = stm.new_tvar(String::new());
    stm.run(TxParams::default(), |tx| {
        x.write(tx, "a".to_string())?;
        let mut v = x.read(tx)?;
        v.push('b');
        x.write(tx, v)?;
        assert_eq!(x.read(tx)?, "ab");
        Ok(())
    });
    assert_eq!(x.load_committed(), "ab");
}

#[test]
fn elastic_window_one_is_the_weakest_read_chain() {
    let stm = Stm::new();
    let vars: Vec<_> = (0..10).map(|i| stm.new_tvar(i as i64)).collect();
    stm.run(TxParams::new(Semantics::Elastic { window: 1 }), |tx| {
        for v in &vars {
            v.read(tx)?;
        }
        Ok(())
    });
    assert_eq!(stm.stats().elastic_cuts, 9);
}

#[test]
fn zero_history_snapshot_retries_but_terminates() {
    // No snapshot is registered when the parent samples its bound, so
    // the overwrite below keeps x's head only. The nested snapshot
    // block then registers that stale bound too late: its read misses
    // (`SnapshotUnavailable`) and the whole transaction re-runs with a
    // fresh bound — once, not forever.
    let stm = Stm::new();
    let x = stm.new_tvar(0i64);
    let attempts = AtomicU32::new(0);
    let seen = stm.run(TxParams::default(), |tx| {
        if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
            std::thread::scope(|s| {
                s.spawn(|| stm.run(TxParams::default(), |w| x.write(w, 1)));
            });
        }
        tx.nested_with_policy(Semantics::Snapshot, NestingPolicy::Parameter, |inner| x.read(inner))
    });
    assert_eq!(seen, 1);
    assert_eq!(attempts.load(Ordering::SeqCst), 2, "one miss, one clean re-run");
    assert_eq!(stm.stats().aborts_unavailable, 1);
}

#[test]
fn snapshot_ignores_later_commits() {
    let stm = Stm::new();
    let x = stm.new_tvar(1i64);
    let y = stm.new_tvar(1i64);
    // A snapshot transaction that reads x, then (from another thread)
    // both vars are rewritten, then reads y: it must see the OLD y.
    let observed = std::thread::scope(|s| {
        let (tx_go, rx_go) = std::sync::mpsc::channel::<()>();
        let (tx_done, rx_done) = std::sync::mpsc::channel::<()>();
        let stm_ref = &stm;
        let (xh, yh) = (&x, &y);
        s.spawn(move || {
            rx_go.recv().unwrap();
            stm_ref.run(TxParams::default(), |t| {
                xh.write(t, 2)?;
                yh.write(t, 2)
            });
            tx_done.send(()).unwrap();
        });
        let attempts = AtomicU32::new(0);
        stm.run(TxParams::new(Semantics::Snapshot), |t| {
            let n = attempts.fetch_add(1, Ordering::SeqCst);
            let a = x.read(t)?;
            if n == 0 {
                tx_go.send(()).unwrap();
                rx_done.recv().unwrap();
            }
            let b = y.read(t)?;
            Ok((a, b))
        })
    });
    assert_eq!(observed, (1, 1), "snapshot must read from its start time");
}

#[test]
fn two_stms_are_independent() {
    let a = Stm::new();
    let b = Stm::new();
    let xa = a.new_tvar(0i64);
    let xb = b.new_tvar(0i64);
    a.run(TxParams::default(), |tx| xa.write(tx, 1));
    b.run(TxParams::default(), |tx| xb.write(tx, 2));
    assert_eq!(a.stats().commits, 1);
    assert_eq!(b.stats().commits, 1);
    assert_ne!(a.id(), b.id());
}

#[test]
fn stats_reset_between_phases() {
    let stm = Stm::new();
    let x = stm.new_tvar(0i64);
    stm.run(TxParams::default(), |tx| x.write(tx, 1));
    assert_eq!(stm.stats().commits, 1);
    stm.reset_stats();
    assert_eq!(stm.stats().commits, 0);
    stm.run(TxParams::default(), |tx| x.write(tx, 2));
    assert_eq!(stm.stats().commits, 1);
}

#[test]
fn read_version_visible_through_api() {
    let stm = Stm::new();
    let x = stm.new_tvar(0i64);
    stm.run(TxParams::default(), |tx| x.write(tx, 1));
    let clock = stm.clock_now();
    stm.run(TxParams::default(), |tx| {
        assert_eq!(tx.read_version(), clock);
        assert!(tx.birth_ts() > 0);
        assert_eq!(tx.pending_writes(), 0);
        let _ = x.read(tx)?;
        assert_eq!(tx.live_reads(), 1);
        Ok(())
    });
}

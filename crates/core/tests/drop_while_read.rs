//! A register's last handle may drop while an attempt that read it is
//! still open: the read set points at the register's core uncounted, and
//! `read_in` lends a reference into its version chain. The core must
//! outlive the attempt — the last handle hands it to the epoch reclaimer
//! — so the attempt validates it, reads through the reference and
//! commits without fault. Barriers gate every step; the value counts its
//! own drop, so "freed too early" is a flag, not a crash that may or may
//! not happen.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Barrier, Mutex};

use polytm::{PeekGuard, Stm, TVar, TxParams};

static FREED: AtomicBool = AtomicBool::new(false);

/// The doomed register's value: reports its drop.
#[derive(Clone)]
struct Witness {
    check: u64,
    original: bool,
}

impl Drop for Witness {
    fn drop(&mut self) {
        if self.original {
            FREED.store(true, Ordering::SeqCst);
        }
    }
}

#[test]
fn an_attempt_outlives_the_last_handle_of_a_register_it_read() {
    let stm = Stm::new();
    let doomed: Mutex<Option<TVar<Witness>>> =
        Mutex::new(Some(stm.new_tvar(Witness { check: 0xD00D, original: true })));
    let out = stm.new_tvar(0u64);
    let other = stm.new_tvar(0u64);
    let (read_done, dropped) = (Barrier::new(2), Barrier::new(2));
    let attempts = AtomicU32::new(0);

    std::thread::scope(|s| {
        s.spawn(|| {
            let check = stm.run(TxParams::default(), |tx| {
                let guard = PeekGuard::pin();
                let first = attempts.fetch_add(1, Ordering::SeqCst) == 0;
                let held = doomed.lock().unwrap();
                let value: *const Witness = match held.as_ref() {
                    Some(var) => var.read_in(tx, &guard)?,
                    None => panic!("retried after the register was dropped"),
                };
                drop(held);
                if first {
                    read_done.wait(); // the read is in the read set
                    dropped.wait(); // the last handle is gone, a commit passed
                }
                assert!(
                    !FREED.load(Ordering::SeqCst),
                    "the register was freed under a pinned read"
                );
                // SAFETY: `value` came from `read_in` under `guard`,
                // still pinned, so its node outlives the register's last
                // handle; the raw pointer only sidesteps the borrow of
                // the mutex, which is what this test is about.
                let check = unsafe { (*value).check };
                out.write(tx, check)?;
                Ok(check)
            });
            assert_eq!(check, 0xD00D);
        });
        read_done.wait();
        drop(doomed.lock().unwrap().take());
        // A commit after the reader began: its commit cannot take the
        // `wv == rv + 1` shortcut, so it probes the dropped register.
        stm.run(TxParams::default(), |tx| other.write(tx, 1));
        dropped.wait();
    });

    assert_eq!(attempts.load(Ordering::SeqCst), 1, "the dropped register failed validation");
    assert_eq!(out.load_committed(), 0xD00D);
    // Once nothing is pinned the register goes: pin and unpin until the
    // reclaimer has met that moment, bounded by a count.
    for _ in 0..1_000_000 {
        if FREED.load(Ordering::SeqCst) {
            return;
        }
        drop(PeekGuard::pin());
    }
    panic!("the dropped register was never freed");
}

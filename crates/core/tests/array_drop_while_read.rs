//! The last handle of a `TVarArray` may drop while an attempt that read
//! and wrote its cells is still open: the read and write sets point at
//! cells inside the array, uncounted, and `read_in` lends a reference
//! into one cell's version chain. The whole array must outlive the
//! attempt — the last handle hands it to the epoch reclaimer in one
//! deferral — so the attempt validates the cell it read, publishes to
//! the cell it wrote, reads through the reference and commits without
//! fault; and once nothing is pinned, every value the array ever held
//! is freed. Barriers gate every step; the values count themselves, so
//! "freed too early" and "never freed" are numbers, not crashes that
//! may or may not happen.

use std::sync::atomic::{AtomicI64, AtomicU32, Ordering};
use std::sync::{Barrier, Mutex};

use polytm::{PeekGuard, Stm, TVarArray, TxParams};

/// Live `Witness` values, clones included.
static LIVE: AtomicI64 = AtomicI64::new(0);

/// A cell value that counts itself.
struct Witness(u64);

impl Witness {
    fn new(check: u64) -> Self {
        LIVE.fetch_add(1, Ordering::SeqCst);
        Witness(check)
    }
}

impl Clone for Witness {
    fn clone(&self) -> Self {
        Witness::new(self.0)
    }
}

impl Drop for Witness {
    fn drop(&mut self) {
        LIVE.fetch_sub(1, Ordering::SeqCst);
    }
}

#[test]
fn an_attempt_outlives_the_last_handle_of_an_array_it_read_and_wrote() {
    let stm = Stm::new();
    let doomed: Mutex<Option<TVarArray<Witness>>> =
        Mutex::new(Some(stm.new_tvar_array([0, 1, 2].map(|i| Witness::new(0xD00D + i)))));
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
                let Some(cells) = held.as_ref() else {
                    panic!("retried after the array was dropped");
                };
                let value: *const Witness = cells[1].read_in(tx, &guard)?;
                cells[2].write(tx, Witness::new(0xBEEF))?;
                drop(held);
                if first {
                    read_done.wait(); // the read and the write are recorded
                    dropped.wait(); // the last handle is gone, a commit passed
                }
                // Three cells' values and the buffered write: nothing freed.
                assert_eq!(LIVE.load(Ordering::SeqCst), 4, "the array was freed under a pin");
                // SAFETY: `value` came from `read_in` under `guard`,
                // still pinned, so its node outlives the array's last
                // handle; the raw pointer only sidesteps the borrow of
                // the mutex, which is what this test is about.
                let check = unsafe { (*value).0 };
                out.write(tx, check)?;
                Ok(check)
            });
            assert_eq!(check, 0xD00E);
        });
        read_done.wait();
        drop(doomed.lock().unwrap().take());
        // A commit after the reader began: its commit cannot take the
        // `wv == rv + 1` shortcut, so it probes the dropped array's cell.
        stm.run(TxParams::default(), |tx| other.write(tx, 1));
        dropped.wait();
    });

    assert_eq!(attempts.load(Ordering::SeqCst), 1, "the dropped array's cell failed validation");
    assert_eq!(out.load_committed(), 0xD00E);
    // Once nothing is pinned the array goes, with every version its
    // cells held: pin and unpin until the reclaimer has met that
    // moment, bounded by a count.
    for _ in 0..1_000_000 {
        if LIVE.load(Ordering::SeqCst) == 0 {
            return;
        }
        drop(PeekGuard::pin());
    }
    panic!("{} values of the dropped array were never freed", LIVE.load(Ordering::SeqCst));
}

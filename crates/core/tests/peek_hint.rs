//! `TCell::peek`: the hint-grade read. It promises little — a value some
//! commit published, valid by reference while the guard is pinned — and
//! these tests hold it to exactly that, beside a committer that
//! supersedes the peeked version and a parked snapshot that first
//! retains history and then lets it go.
//!
//! Barriers and counts only, no clocks. Every tracked value counts its
//! own drop, so "freed" and "leaked" are numbers, not inferences.
//! `POLYTM_STRESS_SCALE` scales the commit counts.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use polytm::{PeekGuard, Semantics, Stm, TxParams};

fn scaled(n: u64) -> u64 {
    let pct = std::env::var("POLYTM_STRESS_SCALE")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(100)
        .max(1);
    (n * pct / 100).max(2)
}

/// One flag per stamp, set when the value *published* under that stamp
/// is dropped.
struct Ledger(Vec<AtomicBool>);

impl Ledger {
    fn new(stamps: u64) -> Arc<Self> {
        Arc::new(Ledger((0..=stamps).map(|_| AtomicBool::new(false)).collect()))
    }

    fn dropped(&self, stamp: u64) -> bool {
        self.0[stamp as usize].load(Ordering::SeqCst)
    }

    fn dropped_count(&self) -> usize {
        self.0.iter().filter(|flag| flag.load(Ordering::SeqCst)).count()
    }
}

/// A value that knows its stamp twice over (`check == !stamp`, so a
/// torn or recycled node would not look like any stamp) and reports the
/// drop of the published original; the clones transactional reads hand
/// out drop silently.
struct Tracked {
    stamp: u64,
    check: u64,
    original: bool,
    ledger: Arc<Ledger>,
}

impl Tracked {
    fn new(stamp: u64, ledger: &Arc<Ledger>) -> Self {
        Tracked { stamp, check: !stamp, original: true, ledger: Arc::clone(ledger) }
    }
}

impl Clone for Tracked {
    fn clone(&self) -> Self {
        Tracked {
            stamp: self.stamp,
            check: self.check,
            original: false,
            ledger: Arc::clone(&self.ledger),
        }
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        if self.original {
            let again = self.ledger.0[self.stamp as usize].swap(true, Ordering::SeqCst);
            assert!(!again, "stamp {} dropped twice", self.stamp);
        }
    }
}

/// Pin and unpin until the reclaimer has met a moment with no pin live
/// and freed what was deferred before it; `settled` says when. Bounded
/// by a count: a value that never gets freed fails, it does not hang.
fn quiesce(settled: impl Fn() -> bool) {
    for _ in 0..1_000_000 {
        if settled() {
            return;
        }
        drop(PeekGuard::pin());
        std::thread::yield_now();
    }
    panic!("deferred versions were never reclaimed");
}

/// A peeked reference stays valid, and its node undropped, across every
/// commit that supersedes it while the guard is pinned; once the guard
/// is gone each superseded version is dropped exactly once, and the
/// head goes with the variable — through the reclaimer as well, since an
/// attempt that read the variable may still be pinned when it drops.
#[test]
fn a_peeked_version_outlives_the_commits_that_supersede_it() {
    let commits = scaled(64);
    let ledger = Ledger::new(commits);
    let stm = Stm::new();
    let var = stm.new_tvar(Tracked::new(0, &ledger));

    let guard = PeekGuard::pin();
    let first = var.peek(&guard);
    assert_eq!(first.stamp, 0);
    // No snapshot is live, so each of these commits severs its
    // predecessor from the chain and hands it to the reclaimer.
    std::thread::scope(|s| {
        s.spawn(|| {
            for stamp in 1..=commits {
                stm.run(TxParams::default(), |tx| var.write(tx, Tracked::new(stamp, &ledger)));
            }
        });
    });
    assert_eq!(ledger.dropped_count(), 0, "a version was freed under a live guard");
    assert_eq!((first.stamp, first.check), (0, !0), "the peeked value changed in place");
    assert_eq!(var.peek(&guard).stamp, commits, "a fresh peek sees the newest commit");
    drop(guard);

    quiesce(|| ledger.dropped_count() == commits as usize);
    assert!(!ledger.dropped(commits), "the head is still the variable's");
    drop(var);
    quiesce(|| ledger.dropped(commits));
}

/// Beside a committer, with a snapshot parked across the first half of
/// the commits (history is retained behind the head) and gone for the
/// second (history is truncated at every publish), a peek only ever
/// returns a whole value that some commit published, no older than the
/// last commit known finished before the peek began.
#[test]
fn peek_returns_only_published_values_beside_a_committer_and_a_parked_snapshot() {
    let half = scaled(2_000);
    let ledger = Ledger::new(2 * half);
    let stm = Stm::new();
    let var = stm.new_tvar(Tracked::new(0, &ledger));
    // `begun` is raised before a commit starts, `finished` after it
    // returns: a value peeked between reading the two lies between them.
    let (begun, finished) = (AtomicU64::new(0), AtomicU64::new(0));
    let parked = Barrier::new(2);
    let snapshot_attempts = AtomicU32::new(0);
    let peeks = AtomicU64::new(0);

    std::thread::scope(|s| {
        s.spawn(|| {
            let cut = stm.run(TxParams::new(Semantics::Snapshot), |tx| {
                if snapshot_attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                    parked.wait(); // bound registered, nothing read yet
                    parked.wait(); // the first half is committed
                }
                Ok(var.read(tx)?.stamp)
            });
            assert_eq!(cut, 0, "the parked snapshot reads the value of its cut");
        });
        s.spawn(|| {
            while finished.load(Ordering::SeqCst) < 2 * half {
                let floor = finished.load(Ordering::SeqCst);
                let guard = PeekGuard::pin();
                let seen = var.peek(&guard);
                let (stamp, check) = (seen.stamp, seen.check);
                let ceiling = begun.load(Ordering::SeqCst);
                assert_eq!(check, !stamp, "peeked a value no commit wrote");
                assert!(
                    (floor..=ceiling).contains(&stamp),
                    "peeked stamp {stamp}, outside what was published: {floor}..={ceiling}"
                );
                assert!(!ledger.dropped(stamp), "peeked a dropped value");
                peeks.fetch_add(1, Ordering::SeqCst);
            }
        });

        // Every `stride` commits the committer lets the peeker get a
        // peek in, so peeks land throughout both halves however the
        // threads are scheduled.
        let stride = half / 8 + 1;
        let commit = |stamp: u64| {
            if stamp.is_multiple_of(stride) {
                let seen = peeks.load(Ordering::SeqCst);
                while peeks.load(Ordering::SeqCst) == seen {
                    std::thread::yield_now();
                }
            }
            begun.store(stamp, Ordering::SeqCst);
            stm.run(TxParams::default(), |tx| var.write(tx, Tracked::new(stamp, &ledger)));
            finished.store(stamp, Ordering::SeqCst);
        };
        parked.wait();
        (1..=half).for_each(commit);
        parked.wait();
        (half + 1..=2 * half).for_each(commit);
    });

    assert_eq!(snapshot_attempts.load(Ordering::SeqCst), 1, "the parked snapshot lost its version");
    assert_eq!(stm.stats().commits, 2 * half + 1, "a peek is not a transaction");
    quiesce(|| ledger.dropped_count() == 2 * half as usize);
    drop(var);
    quiesce(|| ledger.dropped_count() == 2 * half as usize + 1);
}

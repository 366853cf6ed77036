//! The irrevocable-era gate: gate-free transaction begin/extend.
//!
//! An irrevocable transaction publishes each eager write at its own write
//! version, so a read version sampled *inside* its eager-write window
//! `[wv1, wvk)` would serialize between those writes and observe them
//! half-applied. The seed implementation enforced this with a global
//! `RwLock` taken shared on **every** begin and rv-extension — an atomic
//! RMW on one shared cache line for every transaction in the system.
//!
//! This module replaces it with:
//!
//! * an **era word**: even = no irrevocable transaction, odd =
//!   irrevocable in progress. Optimistic begin/extend samples the clock
//!   with a seqlock-style double-check of the era (two plain loads, zero
//!   RMWs, no shared-line writes);
//! * **striped committer slots**: a writing commit registers in a
//!   cache-padded per-thread slot for the duration of its lock/publish
//!   window, so an incoming irrevocable transaction can drain all
//!   in-flight commits before freezing the committed state. Registration
//!   is two RMWs per *writing commit* (which already performs a CAS per
//!   written location), not per begin.
//!
//! ## Why the rv double-check is sound (see also DESIGN.md §1)
//!
//! The irrevocable path makes the era odd (SeqCst CAS) *before* its
//! first eager write, and even again (Release `fetch_add`) only *after*
//! its last; each eager write advances the clock with an AcqRel RMW.
//! The optimistic sampler loads era (Acquire, must be even), loads the
//! clock (Acquire), then re-loads era and retries unless it reads the
//! same even value. Suppose the sampled clock value `c >= wv1` for some
//! window `[wv1, wvk)`:
//!
//! * if that window's era-odd store happened before our first era load,
//!   the first load sees odd (or a later era) and we spin/retry;
//! * otherwise the Acquire clock load that observed `c >= wv1` reads
//!   from the release sequence through `wv1`'s AcqRel increment, which
//!   synchronizes-with it; the era-odd store is sequenced before that
//!   increment, so the era re-load (program-ordered after an Acquire
//!   load, hence not hoisted above it) must observe the odd (or a later)
//!   era — different from the first load's value — and we retry.
//!
//! Conversely `c < wv1` never lands inside the window. A *closed*
//! window cannot supply a stale `c` either: reading the closing (even,
//! Release) era value synchronizes-with the close, making the final
//! clock value `>= wvk` visible before the clock load. Eras strictly
//! increase, so value equality of the two loads rules out a full
//! odd→even cycle between them.
//!
//! ## Committer/irrevocable mutual exclusion
//!
//! A committer registers (SeqCst `fetch_add` on its slot) and *then*
//! checks the era (SeqCst load); the irrevocable side makes the era odd
//! (SeqCst CAS) and *then* scans the slots (SeqCst loads). This is the
//! classic store→load / store→load pattern: in every interleaving either
//! the committer sees the odd era (and backs out before touching any
//! location lock) or the irrevocable transaction sees the registration
//! (and waits for it to drain). SeqCst on these four accesses is what
//! rules out the both-proceed outcome; everything else is
//! Acquire/Release.

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_utils::CachePadded;

use crate::clock::GlobalClock;
use crate::shard::current_thread_index;
use crate::stm::polite_spin;

/// Number of committer slots. Power of two; threads beyond this share
/// slots (the slots are counters, so sharing is correct, merely less
/// parallel).
const COMMIT_STRIPES: usize = 32;

/// Wait behind a (potentially long) irrevocable era: spin briefly, then
/// yield, then sleep with a growing interval. Irrevocable bodies run
/// arbitrary user code, and the seed's RwLock *parked* waiters here —
/// an unbounded spin would burn CPU (and, oversubscribed, steal quanta
/// from the very transaction being waited out). A futex-style park on
/// the era word would be stronger; the sleep keeps the fast path free
/// of any parking machinery while bounding the burn.
#[inline]
fn era_wait(spins: u32) {
    if spins < 64 {
        polite_spin(spins);
    } else {
        let us = 50 * u64::from((spins - 63).min(20));
        std::thread::sleep(std::time::Duration::from_micros(us));
    }
}

/// The era word plus the striped committer registry (see module docs).
#[derive(Debug)]
pub(crate) struct IrrevGate {
    /// Even = no irrevocable transaction; odd = one in progress.
    era: AtomicU64,
    /// In-flight writing commits per thread stripe.
    committers: Box<[CachePadded<AtomicU64>]>,
    /// Smallest birth timestamp among transactions currently waiting to
    /// open an era; `u64::MAX` when none. Era admission is age-ordered
    /// through this word (see [`IrrevGate::enter_irrevocable`]): without
    /// it, the transaction that the irrevocable *liveness fallback*
    /// upgraded precisely because it kept losing could lose the era CAS
    /// to a stream of younger irrevocable transactions too — the
    /// contention-manager identity (`TxMeta::birth_ts`) silently dropped
    /// out of the one path whose whole point is aging.
    oldest_waiter: CachePadded<AtomicU64>,
    /// Times a sampler has gone round the wait loop of
    /// [`IrrevGate::sample_rv`]: lets a test observe a sampler waiting
    /// before it closes the era.
    #[cfg(test)]
    pub(crate) sample_waits: AtomicU64,
}

impl IrrevGate {
    pub(crate) fn new() -> Self {
        Self {
            era: AtomicU64::new(0),
            committers: (0..COMMIT_STRIPES).map(|_| CachePadded::new(AtomicU64::new(0))).collect(),
            oldest_waiter: CachePadded::new(AtomicU64::new(u64::MAX)),
            #[cfg(test)]
            sample_waits: AtomicU64::new(0),
        }
    }

    /// Current era value (diagnostics/tests).
    #[cfg(test)]
    pub(crate) fn era(&self) -> u64 {
        self.era.load(Ordering::Acquire)
    }

    /// Samples a read version that is guaranteed not to land inside any
    /// irrevocable eager-write window. The hot path (no irrevocable in
    /// progress) is two plain loads around the clock load — no RMW, no
    /// store, no shared-line invalidation, and no clock read for
    /// `wait_ns`: the accumulator is only touched (and the monotonic
    /// clock only consulted) once the sampler has actually had to wait.
    #[inline]
    pub(crate) fn sample_rv(&self, clock: &GlobalClock, wait_ns: &mut u64) -> u64 {
        let mut spins = 0u32;
        let mut wait_start: Option<std::time::Instant> = None;
        loop {
            // Acquire: reading an even value synchronizes-with the
            // Release close of the previous window, so the clock load
            // below cannot return a value from inside that closed window.
            let e1 = self.era.load(Ordering::Acquire);
            if e1 & 1 == 0 {
                let c = clock.now();
                // Ordered after the Acquire clock load by program order
                // (loads are not hoisted above an Acquire load); equality
                // with `e1` proves no window opened before `c` was
                // produced — see the module docs for the full argument.
                if self.era.load(Ordering::Acquire) == e1 {
                    if let Some(t0) = wait_start {
                        *wait_ns += t0.elapsed().as_nanos() as u64;
                    }
                    return c;
                }
            }
            spins += 1;
            wait_start.get_or_insert_with(std::time::Instant::now);
            #[cfg(test)]
            self.sample_waits.fetch_add(1, Ordering::SeqCst);
            era_wait(spins);
        }
    }

    /// Opens a descriptor-free read ([`crate::Stm::read_direct`]): the
    /// current era if it is even, `None` while an irrevocable
    /// transaction runs. Acquire, as in [`IrrevGate::sample_rv`]: an
    /// even value read from a window's close makes every eager write of
    /// that window visible to the reads that follow.
    #[inline]
    pub(crate) fn open_direct_read(&self) -> Option<u64> {
        let era = self.era.load(Ordering::Acquire);
        (era & 1 == 0).then_some(era)
    }

    /// Closes a descriptor-free read opened at `era`: true iff no
    /// irrevocable window opened since. The reads in between end in
    /// Acquire loads, so this load is ordered after them; if any of them
    /// read an eager write, it synchronized-with that write, whose
    /// era-odd store is sequenced before it, so this load sees the odd
    /// (or a later) era and the read is thrown away — the argument of
    /// the module docs with the register loads in the clock load's place.
    #[inline]
    pub(crate) fn close_direct_read(&self, era: u64) -> bool {
        self.era.load(Ordering::Acquire) == era
    }

    /// Registers this thread as an in-flight writing commit, waiting out
    /// any irrevocable transaction first. The returned guard must be held
    /// across the whole lock/validate/publish window and deregisters on
    /// drop (including abort and panic paths). Time spent waiting out an
    /// era is added to `wait_ns` (untouched on the no-wait fast path).
    #[inline]
    pub(crate) fn enter_commit(&self, wait_ns: &mut u64) -> CommitTicket<'_> {
        let slot = &self.committers[current_thread_index() & (COMMIT_STRIPES - 1)];
        let mut spins = 0u32;
        let mut wait_start: Option<std::time::Instant> = None;
        loop {
            // Register *before* checking the era (SeqCst store→load, see
            // module docs): either we see the odd era and back out, or
            // the irrevocable side sees our registration and drains us.
            slot.fetch_add(1, Ordering::SeqCst);
            if self.era.load(Ordering::SeqCst) & 1 == 0 {
                if let Some(t0) = wait_start {
                    *wait_ns += t0.elapsed().as_nanos() as u64;
                }
                return CommitTicket { slot };
            }
            slot.fetch_sub(1, Ordering::Release);
            wait_start.get_or_insert_with(std::time::Instant::now);
            while self.era.load(Ordering::Acquire) & 1 == 1 {
                spins += 1;
                era_wait(spins);
            }
        }
    }

    /// Opens an irrevocable era: makes the era odd (excluding other
    /// irrevocable transactions), then drains every in-flight writing
    /// commit. On return the committed state is frozen — no optimistic
    /// transaction holds or can acquire a location lock until the
    /// returned guard drops.
    ///
    /// Admission among competing irrevocable transactions is ordered by
    /// `birth_ts` (oldest first), matching the Greedy contention
    /// manager's aging discipline: every waiter keeps re-asserting its
    /// timestamp into [`IrrevGate::oldest_waiter`] and only the current
    /// minimum attempts the era CAS. Birth timestamps increase
    /// monotonically, so the oldest waiter only ever advances to the
    /// front — a transaction upgraded after many aborts cannot be
    /// starved by younger irrevocable arrivals. (`birth_ts` must not be
    /// `u64::MAX`, which encodes "no waiter"; the `Stm` timestamp
    /// source starts at 1 and increments.)
    ///
    /// The whole entry (era race + committer drain) counts as gate wait
    /// into `wait_ns`: unlike the optimistic paths this one always
    /// serializes, and it is rare enough that the two clock reads are
    /// noise against the SeqCst CAS and the 32-slot drain.
    pub(crate) fn enter_irrevocable(&self, birth_ts: u64, wait_ns: &mut u64) -> IrrevTicket<'_> {
        debug_assert_ne!(birth_ts, u64::MAX, "u64::MAX encodes the absence of a waiter");
        let entry_start = std::time::Instant::now();
        let mut spins = 0u32;
        loop {
            // Re-assert every round: the previous winner resets the word
            // on entry, and only re-assertion repopulates it. The RMW is
            // skipped while the word already carries our (or an older)
            // timestamp, so parked waiters poll with plain loads instead
            // of ping-ponging the line.
            if self.oldest_waiter.load(Ordering::Acquire) > birth_ts {
                self.note_waiter(birth_ts);
            }
            let e = self.era.load(Ordering::Acquire);
            // SeqCst success: the era-odd store must be totally ordered
            // against committer registrations (module docs).
            if e & 1 == 0
                && self.oldest_waiter.load(Ordering::Acquire) == birth_ts
                && self
                    .era
                    .compare_exchange_weak(e, e + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
            {
                // Withdraw our claim. An even older transaction may have
                // registered meanwhile (it will win the *next* era); in
                // that case the word is no longer ours and stays.
                let _ = self.oldest_waiter.compare_exchange(
                    birth_ts,
                    u64::MAX,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
                break;
            }
            spins += 1;
            era_wait(spins);
        }
        for slot in self.committers.iter() {
            let mut spins = 0u32;
            while slot.load(Ordering::SeqCst) != 0 {
                spins += 1;
                polite_spin(spins);
            }
        }
        *wait_ns += entry_start.elapsed().as_nanos() as u64;
        IrrevTicket { gate: self }
    }

    /// Register `birth_ts` as an era waiter unless an older one is
    /// already registered (an atomic min).
    #[inline]
    fn note_waiter(&self, birth_ts: u64) {
        self.oldest_waiter.fetch_min(birth_ts, Ordering::AcqRel);
    }
}

/// Registration of one in-flight writing commit; deregisters on drop.
pub(crate) struct CommitTicket<'g> {
    slot: &'g CachePadded<AtomicU64>,
}

impl Drop for CommitTicket<'_> {
    fn drop(&mut self) {
        // Release: our lock releases / publishes are ordered before the
        // deregistration the draining irrevocable transaction acquires.
        self.slot.fetch_sub(1, Ordering::Release);
    }
}

/// An open irrevocable era; closes (era becomes even) on drop, including
/// on panic unwind out of the irrevocable closure.
pub(crate) struct IrrevTicket<'g> {
    gate: &'g IrrevGate,
}

impl Drop for IrrevTicket<'_> {
    fn drop(&mut self) {
        // Release-close: samplers that read the new even era see every
        // eager write (and clock tick) of the window as already done.
        self.gate.era.fetch_add(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn sample_rv_passes_through_when_idle() {
        let gate = IrrevGate::new();
        let clock = GlobalClock::new();
        clock.increment();
        clock.increment();
        let mut wait_ns = 0u64;
        assert_eq!(gate.sample_rv(&clock, &mut wait_ns), 2);
        assert_eq!(gate.era(), 0);
        assert_eq!(wait_ns, 0, "the no-wait fast path never touches the accumulator");
    }

    #[test]
    fn irrevocable_ticket_flips_era_parity() {
        let gate = IrrevGate::new();
        let t = gate.enter_irrevocable(1, &mut 0);
        assert_eq!(gate.era() & 1, 1);
        drop(t);
        assert_eq!(gate.era() & 1, 0);
        assert_eq!(gate.era(), 2, "eras strictly increase");
    }

    #[test]
    fn commit_ticket_registers_and_deregisters() {
        let gate = IrrevGate::new();
        let mut commit_wait = 0u64;
        let t = gate.enter_commit(&mut commit_wait);
        assert_eq!(commit_wait, 0, "uncontended commit entry records no wait");
        // An irrevocable entry must wait for the ticket to drop.
        let entered = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut wait_ns = 0u64;
                let _t = gate.enter_irrevocable(1, &mut wait_ns);
                assert!(wait_ns > 0, "draining the registered committer is counted as wait");
                entered.store(true, Ordering::SeqCst);
            });
            // An odd era means the irrevocable thread has won the era
            // and is draining committers; ours is still registered.
            while gate.era() & 1 == 0 {
                std::thread::yield_now();
            }
            assert!(!entered.load(Ordering::SeqCst), "must drain registered committers first");
            drop(t);
        });
        assert!(entered.load(Ordering::SeqCst));
    }

    #[test]
    fn sample_rv_waits_out_an_open_era() {
        let gate = IrrevGate::new();
        let clock = GlobalClock::new();
        let ticket = gate.enter_irrevocable(1, &mut 0);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut wait_ns = 0u64;
                let _rv = gate.sample_rv(&clock, &mut wait_ns);
                assert!(wait_ns > 0, "waiting out an open era is counted");
                done.store(true, Ordering::SeqCst);
            });
            // Close the era only once the sampler is seen waiting on it.
            while gate.sample_waits.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            assert!(!done.load(Ordering::SeqCst), "sampling must block while era is odd");
            drop(ticket);
        });
        assert!(done.load(Ordering::SeqCst));
    }

    #[test]
    fn irrevocable_eras_exclude_each_other() {
        let gate = IrrevGate::new();
        let counter = AtomicU64::new(0);
        // Unique, monotonically drawn birth timestamps, as Stm issues.
        let next_ts = AtomicU64::new(1);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..200 {
                        let _t =
                            gate.enter_irrevocable(next_ts.fetch_add(1, Ordering::Relaxed), &mut 0);
                        let v = counter.load(Ordering::Relaxed);
                        std::hint::spin_loop();
                        counter.store(v + 1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 800, "eras must be mutually exclusive");
    }

    #[test]
    fn era_admission_is_age_ordered() {
        // Regression test for the CM-identity hole: a younger irrevocable
        // transaction must not open the era while an older transaction is
        // registered as a waiter — the Greedy aging order extends to the
        // irrevocable-upgrade path.
        let gate = IrrevGate::new();
        // The older transaction (birth_ts = 5) has announced itself but
        // not entered yet (it is, say, between retries).
        gate.note_waiter(5);
        let entered_young = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _t = gate.enter_irrevocable(9, &mut 0);
                entered_young.store(true, Ordering::SeqCst);
            });
            for _ in 0..200 {
                std::thread::yield_now();
            }
            assert!(
                !entered_young.load(Ordering::SeqCst),
                "younger waiter must defer to the registered older one"
            );
            // The older transaction arrives: it enters first, even though
            // the younger one has been spinning the whole time.
            let old = gate.enter_irrevocable(5, &mut 0);
            assert!(!entered_young.load(Ordering::SeqCst));
            drop(old);
        });
        assert!(entered_young.load(Ordering::SeqCst), "younger waiter enters after the older");
    }
}

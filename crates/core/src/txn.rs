//! The transaction runtime: per-semantics read rules, lazy write sets,
//! elastic cutting, validation/extension, and the commit protocol.
//!
//! A [`Transaction`] is handed to the closure passed to
//! [`crate::Stm::run`]. It owns:
//!
//! * a **read set** — an append-only log of `(location, version-seen)`
//!   entries. Elastic transactions *cut* entries that slide out of their
//!   window (marking them dead) instead of validating them at commit;
//! * a **write set** — lazy, type-erased buffered writes, published
//!   atomically at commit under per-location versioned locks acquired in
//!   address order (deadlock-free);
//! * its **read version** `rv`, extensible on demand (revalidating all
//!   live reads against the current clock);
//! * the irrevocable-era ticket when running irrevocably.
//!
//! ## Hot-path design (see DESIGN.md §1)
//!
//! All growable state lives in a pooled `TxDescriptor` reused across
//! attempts and transactions (zero steady-state allocation); read
//! versions are sampled through the gate-free era double-check in
//! `gate.rs` (no RMW, no lock); the global clock is an Acquire/Release
//! CAS (no SeqCst); and an attempt pins the epoch once, before its first
//! access, and holds that pin until it ends — arbitrated waits and the
//! commit included. The pin is what lets the read and write sets point
//! at locations without counting references, and a read return the
//! committed value by reference ([`crate::TCell::read_in`]): a read
//! writes nothing another reader of the location shares.

use std::mem::ManuallyDrop;

use crossbeam_epoch as epoch;

use crate::cm::{ConflictArbiter, ConflictDecision, ContentionManager, TxMeta};
use crate::error::{Abort, TxResult};
use crate::gate::IrrevTicket;
use crate::semantics::{compose, NestingPolicy, Semantics};
use crate::stm::Stm;
use crate::tvar::TxValue;
use crate::txdesc::{
    stash_descriptor, take_descriptor, ReadEntry, SlotRef, TxDescriptor, WriteEntry, WritePayload,
};
use crate::varcore::{TCell, TxSlot, VersionNode};

/// Where [`Transaction::read_ref`] found the value it returns.
pub(crate) enum ReadRef<'r, T> {
    /// A committed version: immutable, and not freed while the attempt
    /// (or any guard pinned before the read) stays pinned.
    Committed(&'r T),
    /// This attempt's own buffered write, which its next write to the
    /// location replaces.
    Own(&'r T),
}

impl<'r, T> ReadRef<'r, T> {
    /// The value, wherever it lies.
    #[inline]
    pub(crate) fn get(&self) -> &'r T {
        match *self {
            ReadRef::Committed(value) | ReadRef::Own(value) => value,
        }
    }
}

/// An in-flight transaction attempt. See the module docs.
pub struct Transaction<'s> {
    stm: &'s Stm,
    semantics: Semantics,
    meta: TxMeta,
    /// Contention manager for this attempt: the configured arbiter, or
    /// the per-attempt override an installed advisor planned.
    arbiter: ConflictArbiter,
    rv: u64,
    /// Elastic cuts performed by this attempt (flushed to stats at end).
    cuts: u64,
    /// Read-version extensions performed by this attempt.
    extensions: u64,
    /// Eagerly published (irrevocable) writes — not in the write set,
    /// counted separately so receipts report true write activity.
    eager_writes: u64,
    /// Snapshot/irrevocable reads — not in the read set, counted
    /// separately so receipts report true read activity.
    direct_reads: u64,
    /// Pooled read/write sets and commit scratch; returned to the pool
    /// (cleared) by `Drop`.
    desc: ManuallyDrop<Box<TxDescriptor>>,
    /// The attempt's epoch pin: taken before its first access, held
    /// until the attempt ends (see [`Transaction::pin`]).
    guard: Option<epoch::Guard>,
    /// Slot in the STM's snapshot registry protecting this
    /// transaction's read bound from version-chain truncation, when one
    /// was free. `None` for non-snapshot semantics, and for snapshot
    /// attempts that found the registry full (whose chain-walk misses
    /// report as capacity aborts).
    snap_slot: Option<usize>,
    /// Held for the whole transaction when running irrevocably; closes
    /// the era on drop (commit, abort and panic paths alike).
    era: Option<IrrevTicket<'s>>,
    /// Nanoseconds this attempt spent waiting at the era gate, indexed
    /// by gate site (`trace::GATE_SAMPLE_RV` / `GATE_ENTER_COMMIT` /
    /// `GATE_ENTER_IRREVOCABLE`). Zero on the no-contention path — the
    /// gate only reads a clock once it has actually had to wait.
    wait_gate_ns: [u64; 3],
    /// Nanoseconds spent in arbitrated lock waits (the `Wait` arm of
    /// [`Transaction::arbitrate_lock`]), summed over the attempt.
    wait_arbitrate_ns: u64,
    /// The last address an arbitrated wait contended on (0 = none).
    wait_arbitrate_addr: u64,
}

impl<'s> Transaction<'s> {
    pub(crate) fn begin(
        stm: &'s Stm,
        semantics: Semantics,
        meta: TxMeta,
        arbiter: ConflictArbiter,
    ) -> Self {
        let mut wait_gate_ns = [0u64; 3];
        let (rv, era, snap_slot) = if semantics == Semantics::Irrevocable {
            // Opening the era excludes other irrevocable transactions and
            // drains every in-flight writing commit, so the committed
            // state observed from here on is frozen: sample directly.
            // Admission is ordered by our birth timestamp, so an aged
            // (upgraded) transaction is not starved by younger ones.
            let ticket = stm.gate().enter_irrevocable(
                meta.birth_ts,
                &mut wait_gate_ns[crate::trace::GATE_ENTER_IRREVOCABLE as usize],
            );
            (stm.clock().now(), Some(ticket), None)
        } else if semantics == Semantics::Snapshot {
            // Protect the read bound from version-chain truncation
            // *before* sampling it: register a pre-sample of the clock,
            // then take rv (`>=` the registered bound, so everything rv
            // can reach, the registration protects). The registration's
            // SeqCst CAS + fence pairs with the committer-side watermark
            // fence — a committer that misses this slot is one whose
            // clock advance our rv already observed (snapreg.rs).
            let c0 = stm.clock().now();
            let snap_slot = stm.snapreg().register(c0);
            let rv = stm
                .gate()
                .sample_rv(stm.clock(), &mut wait_gate_ns[crate::trace::GATE_SAMPLE_RV as usize]);
            (rv, None, snap_slot)
        } else {
            // Gate-free begin: the era double-check guarantees rv never
            // lands inside an irrevocable eager-write window (gate.rs).
            let rv = stm
                .gate()
                .sample_rv(stm.clock(), &mut wait_gate_ns[crate::trace::GATE_SAMPLE_RV as usize]);
            (rv, None, None)
        };
        Self {
            stm,
            semantics,
            meta,
            arbiter,
            rv,
            cuts: 0,
            extensions: 0,
            eager_writes: 0,
            direct_reads: 0,
            desc: ManuallyDrop::new(take_descriptor()),
            guard: None,
            snap_slot,
            era,
            wait_gate_ns,
            wait_arbitrate_ns: 0,
            wait_arbitrate_addr: 0,
        }
    }

    /// The semantics this transaction is currently executing under
    /// (changes inside [`Transaction::nested`] blocks).
    pub fn semantics(&self) -> Semantics {
        self.semantics
    }

    /// Read version: the clock value this transaction's reads are
    /// currently consistent with.
    pub fn read_version(&self) -> u64 {
        self.rv
    }

    /// Birth timestamp (stable across retries; used for contention
    /// priority).
    pub fn birth_ts(&self) -> u64 {
        self.meta.birth_ts
    }

    /// Number of elastic cuts performed so far in this attempt.
    pub fn cut_count(&self) -> u64 {
        self.cuts
    }

    /// Number of live (validated-at-commit) read-set entries.
    pub fn live_reads(&self) -> usize {
        self.desc.read_index.len()
    }

    /// Number of buffered writes.
    pub fn pending_writes(&self) -> usize {
        self.desc.writes.len()
    }

    /// Abort the current attempt and re-execute from the start (after the
    /// contention manager's backoff). Typical use: a condition the
    /// transaction needs is not yet true.
    pub fn retry<T>(&self) -> TxResult<T> {
        Err(Abort::Retry)
    }

    /// Cancel the transaction: [`crate::Stm::try_run`] returns
    /// [`crate::Canceled`] and no effects are published.
    ///
    /// Must not be used under [`Semantics::Irrevocable`] (whose writes are
    /// already public); the runtime panics in that case.
    pub fn cancel<T>(&self) -> TxResult<T> {
        Err(Abort::Cancel)
    }

    /// Stage redo bytes for the installed [`crate::RedoSink`]: if this
    /// attempt commits *and publishes writes*, the concatenation of all
    /// staged bytes is handed to the sink, stamped with the commit's
    /// write version, before the writes become visible (see `redo.rs`
    /// for the ordering contract). On abort or retry the staged bytes
    /// are discarded with the attempt — a re-executed closure stages
    /// from scratch — and a commit that publishes nothing (read-only,
    /// e.g. a delete of an absent key that stages conservatively) drops
    /// them too: no phantom log entries for no-op commits.
    ///
    /// The bytes are opaque to the runtime. No-op without an installed
    /// sink (the buffer still accumulates; callers that care should
    /// check [`crate::Stm::redo_sink`] first).
    pub fn stage_redo(&mut self, bytes: &[u8]) {
        self.desc.redo.extend_from_slice(bytes);
    }

    /// The attempt's epoch pin, taken before its first access and held
    /// until the attempt ends. It keeps every version node the attempt
    /// read, and every location core its read and write sets point at,
    /// from being freed (DESIGN.md §1, "Memory-safety argument"). Held
    /// through arbitrated waits too: with per-thread epochs a long pin
    /// delays only the garbage unlinked while it lives.
    #[inline]
    fn pin(&mut self) -> &epoch::Guard {
        self.guard.get_or_insert_with(epoch::pin)
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// The one transactional read: the value this attempt reads from
    /// `core`, by reference. [`crate::TCell::read`] clones it and
    /// [`crate::TCell::read_in`] lends it out under a guard; both record
    /// the read exactly as this does.
    pub(crate) fn read_ref<'r, T: TxValue>(
        &'r mut self,
        core: &'r TCell<T>,
    ) -> TxResult<ReadRef<'r, T>> {
        core.debug_check_stm(self.stm.id());
        let addr = core.address();
        // Read-own-write.
        if let Some(idx) = self.desc.write_index.get(addr) {
            let value = self.desc.writes[idx as usize]
                .payload
                .get_ref::<T>()
                .expect("write-set value present outside commit");
            return Ok(ReadRef::Own(value));
        }
        let node = match self.semantics {
            Semantics::Snapshot => self.read_snapshot(core, addr)?,
            Semantics::Irrevocable => {
                // The era is ours: no other transaction can commit, so
                // the committed state is frozen apart from our own
                // (already published) eager writes. `Locked` is
                // unreachable here: optimistic committers register with
                // the gate *before* taking any location lock and the
                // era open drained them all (gate.rs), none re-enter
                // while it stays open, other irrevocable transactions
                // are excluded by the era parity, and our own eager
                // writes release their lock before returning. Assert
                // that in debug builds; in release, arbitrate like
                // every other lock wait — the resulting abort trips the
                // "irrevocable closures must be infallible" panic in
                // stm.rs, which beats spinning forever on a leaked
                // lock.
                self.direct_reads += 1;
                debug_assert!(
                    core.committed_head(self.pin()).is_ok(),
                    "location {addr:#x} locked during an irrevocable read; the era grant \
                     should exclude all committers"
                );
                self.wait_committed_head(core, addr)?.0
            }
            Semantics::Opaque | Semantics::Elastic { .. } => self.read_optimistic(core, addr)?,
        };
        // SAFETY: `node` was reached under this attempt's pin, which is
        // held until the attempt drops — after `'r`, which borrows the
        // attempt. Version nodes are immutable and freed only through
        // the epoch once unlinked, and `core` (whose drop frees its
        // chain) outlives `'r` too. Exercised under ASan by every
        // transactional read, and with the core's last handle dropped
        // mid-attempt by `tests/drop_while_read.rs`.
        Ok(ReadRef::Committed(unsafe { &(*node).value }))
    }

    fn read_snapshot<T: TxValue>(
        &mut self,
        core: &TCell<T>,
        addr: usize,
    ) -> TxResult<*const VersionNode<T>> {
        let rv = self.rv;
        // Wait-free against committers: a committer locks its
        // whole write set *before* taking its write version and
        // announces the version on every held lock right after
        // (pending_wv). If the announced wv > rv, the entire
        // commit serializes after our cut — every version
        // `<= rv` is already on the chain, frozen (later
        // commits only prepend strictly newer versions), so we
        // walk it without arbitrating. We only wait in the
        // sentinel window (locked, wv not yet announced) or
        // when wv <= rv (the committer's value belongs in our
        // cut but is not published yet); both waits stay
        // arbitrated so a leaked lock aborts us instead of
        // spinning forever. See DESIGN.md "MVCC read path" for
        // the ordering proof (including why an announced wv can
        // never be a stale leftover of an earlier committer).
        let mut spins = 0u32;
        loop {
            let p = core.probe();
            if !p.locked {
                break;
            }
            let wv = core.pending_wv();
            if wv != 0 && wv > rv {
                break;
            }
            self.arbitrate_lock(addr, p.owner, &mut spins)?;
        }
        self.direct_reads += 1;
        let node = core.snapshot_node(rv, self.pin()).map(|node| node as *const VersionNode<T>);
        node.ok_or_else(|| self.snapshot_miss(addr))
    }

    fn read_optimistic<T: TxValue>(
        &mut self,
        core: &TCell<T>,
        addr: usize,
    ) -> TxResult<*const VersionNode<T>> {
        if let Some(idx) = self.desc.read_index.get(addr) {
            // Re-read: the location must still carry the version we saw,
            // otherwise two reads of the same location would return
            // different values inside one transaction.
            let seen = self.desc.reads[idx as usize].seen;
            let (node, ver) = self.wait_committed_head(core, addr)?;
            return if ver == seen { Ok(node) } else { Err(Abort::ReadConflict { addr }) };
        }
        // Elastic cut rule (ε-STM): the critical-step window *includes*
        // the incoming access, so before validating the new read, shed the
        // oldest reads until at most `window - 1` previous reads remain.
        // Only legal before the first write.
        if let Semantics::Elastic { window } = self.semantics {
            if self.desc.writes.is_empty() {
                self.cut_to(window.max(1) - 1);
            }
        }
        let (mut node, mut ver) = self.wait_committed_head(core, addr)?;
        while ver > self.rv {
            // The location changed after we started: try to slide our
            // serialization point forward. Live reads must all still be
            // current; elastic transactions have already shed the reads
            // they are allowed to shed, so failure here is final.
            self.extend(addr)?;
            // The location may have been republished *between* the read
            // above and the extension's clock sample; admitting the
            // buffered value would let a commit with `wv == rv + 1` skip
            // validation over a stale read (a lost update). Re-read and
            // re-check against the extended rv.
            (node, ver) = self.wait_committed_head(core, addr)?;
        }
        // The attempt is pinned (the head load above pinned it), so the
        // uncounted pointer stays valid until the descriptor is cleared.
        self.push_read(SlotRef::new(core), addr, ver);
        Ok(node)
    }

    /// The committed head of `core` and its version, arbitrating with
    /// the contention manager while a committer holds the location's
    /// lock. A raw pointer, so the caller can go on updating the attempt;
    /// the node stays valid under the attempt's pin (see `read_ref`).
    fn wait_committed_head<T: TxValue>(
        &mut self,
        core: &TCell<T>,
        addr: usize,
    ) -> TxResult<(*const VersionNode<T>, u64)> {
        let mut spins = 0u32;
        loop {
            let owner = match core.committed_head(self.pin()) {
                Ok(node) => return Ok((node, node.version)),
                Err(owner) => owner,
            };
            self.arbitrate_lock(addr, owner, &mut spins)?;
        }
    }

    /// Classify a snapshot chain-walk miss. A registered bound is
    /// protected from truncation (snapreg.rs), so a miss *with* a slot
    /// means the bound predates the registration (a nested snapshot
    /// block registering mid-flight) — history genuinely unavailable. A
    /// miss *without* a slot means the registry was full: a resource
    /// capacity failure, reported distinctly so operators can tell
    /// "raise the slot count" from "history retention raced my scan".
    fn snapshot_miss(&self, addr: usize) -> Abort {
        if self.snap_slot.is_some() {
            Abort::SnapshotUnavailable { addr }
        } else {
            Abort::SnapshotCapacity { addr }
        }
    }

    /// One arbitration round against the transaction currently holding a
    /// location lock: either aborts this transaction
    /// ([`Abort::Locked`]) or backs off politely and lets the caller
    /// re-probe. Shared by every lock-wait loop in the runtime. The
    /// attempt stays pinned while it waits: the contention manager bounds
    /// the wait, and per-thread epochs let everyone else's garbage go.
    fn arbitrate_lock(&mut self, addr: usize, owner: u64, spins: &mut u32) -> TxResult<()> {
        match self.arbiter.on_conflict(&self.meta, owner, *spins) {
            ConflictDecision::AbortSelf => Err(Abort::Locked { addr, owner }),
            ConflictDecision::Wait => {
                *spins += 1;
                // Already the contention slow path: two clock reads
                // around the spin are noise next to the wait itself, and
                // they are what make the waterfall's lock-wait component
                // measurable.
                let wait_start = std::time::Instant::now();
                crate::stm::polite_spin(*spins);
                self.wait_arbitrate_ns += wait_start.elapsed().as_nanos() as u64;
                self.wait_arbitrate_addr = addr as u64;
                Ok(())
            }
        }
    }

    /// Append a read-set entry; elastic reads also enter the cut window.
    fn push_read(&mut self, slot: SlotRef, addr: usize, seen: u64) {
        let idx = self.desc.reads.len() as u32;
        self.desc.reads.push(ReadEntry { slot, addr, seen, dead: false });
        self.desc.read_index.insert(addr, idx);
        if let Semantics::Elastic { window } = self.semantics {
            if self.desc.writes.is_empty() {
                self.desc.window_queue.push_back(idx);
                // Invariant (defensive; `cut_to` already ran): at most
                // `window` live elastic reads.
                self.cut_to(window.max(1));
            }
        }
    }

    /// Mark the oldest cuttable reads dead until at most `keep` remain in
    /// the elastic window.
    fn cut_to(&mut self, keep: usize) {
        while self.desc.window_queue.len() > keep {
            let old = self.desc.window_queue.pop_front().expect("queue non-empty");
            let entry = &mut self.desc.reads[old as usize];
            entry.dead = true;
            let addr = entry.addr;
            self.desc.read_index.remove(addr);
            self.cuts += 1;
        }
    }

    /// Read-version extension: move `rv` to `now` if every live read is
    /// still current. `addr` is only for the error value.
    fn extend(&mut self, addr: usize) -> TxResult<()> {
        // Same rule as at begin: the extended read version must not land
        // inside an irrevocable eager-write window, so sample it through
        // the era double-check (waiting out any irrevocable transaction
        // in progress). When *this* transaction holds the era (a nested
        // optimistic block inside an irrevocable parent), no other
        // irrevocable transaction can be running — sample directly.
        let now = if self.era.is_some() {
            self.stm.clock().now()
        } else {
            // The sampler may spin behind an open era, still pinned: an
            // open era admits no other commit, so little garbage waits.
            let stm = self.stm;
            stm.gate().sample_rv(
                stm.clock(),
                &mut self.wait_gate_ns[crate::trace::GATE_SAMPLE_RV as usize],
            )
        };
        for entry in self.desc.reads.iter().filter(|e| !e.dead) {
            let p = entry.slot.get().probe();
            if p.locked || p.version != entry.seen {
                return Err(Abort::ReadConflict { addr: entry.addr });
            }
        }
        self.rv = now;
        self.extensions += 1;
        // Off the common path (extensions are conflict-driven), so the
        // un-hoisted emit's extra load is fine here. The run's class is
        // not visible this deep; the commit/abort event carries it.
        crate::trace::emit(|| {
            crate::trace::TraceEvent::new(
                crate::trace::code::TXN_EXTEND,
                crate::trace::semantics_code(self.semantics),
                crate::trace::NO_CLASS,
                self.extensions.min(u64::from(u32::MAX)) as u32,
                addr as u64,
                0,
            )
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    pub(crate) fn write_var<T: TxValue>(&mut self, core: &TCell<T>, value: T) -> TxResult<()> {
        core.debug_check_stm(self.stm.id());
        if self.semantics.is_read_only() {
            return Err(Abort::ReadOnlyViolation);
        }
        let addr = core.address();
        if self.semantics == Semantics::Irrevocable {
            // An earlier nested revocable block may have buffered a write
            // to this location; this eager write is later in program
            // order and supersedes it (the emptied entry is skipped at
            // commit).
            if let Some(idx) = self.desc.write_index.remove(addr) {
                self.desc.writes[idx as usize].payload.dispose();
            }
            // Eager write: we hold the era, so every optimistic committer
            // was drained before our first read and none can re-enter —
            // the lock is free. Still, spin defensively.
            loop {
                match core.try_lock(self.meta.birth_ts) {
                    Ok(_prior) => break,
                    Err(_) => std::hint::spin_loop(),
                }
            }
            // Unique tick: each eager write needs its own version so
            // the era protocol's window `[wv1, wvk)` is well defined
            // (clock.rs). No pending_wv announcement here: the lock is
            // held only for the publish below (no validation phase), so
            // the sentinel window a concurrent snapshot reader can
            // observe is a few instructions wide — the arbitrated
            // fallback covers it.
            let wv = self.stm.clock().tick();
            let watermark = self.stm.snapreg().watermark(wv);
            core.publish_with(value, wv, watermark, self.pin());
            self.eager_writes += 1;
            return Ok(());
        }
        // Oversized payloads take the boxed slow path (allocation +
        // erased destructor per buffered write); count them so a hot
        // value type that misses the inline budget shows up in the
        // stats instead of silently costing an allocation per write.
        // The check is const-foldable per T: inline types pay nothing.
        if !crate::txdesc::fits_inline::<T>() {
            self.stm.raw_stats().record_boxed_write();
        }
        // The write set points at the core uncounted: pin first.
        self.pin();
        // First write freezes the elastic window: the remaining window
        // entries become permanent read-set entries, validated at commit.
        if self.desc.writes.is_empty() {
            self.desc.window_queue.clear();
        }
        match self.desc.write_index.get(addr) {
            Some(idx) => {
                self.desc.writes[idx as usize].payload = WritePayload::new(value);
            }
            None => {
                let idx = self.desc.writes.len() as u32;
                self.desc.writes.push(WriteEntry {
                    slot: SlotRef::new(core),
                    addr,
                    payload: WritePayload::new(value),
                });
                self.desc.write_index.insert(addr, idx);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Nesting
    // ------------------------------------------------------------------

    /// Run `f` as a nested transaction requesting `requested` semantics,
    /// composed with the parent semantics under the STM's configured
    /// [`NestingPolicy`] (see [`crate::StmConfig::nesting_policy`]).
    ///
    /// polytm uses *flattened closed nesting*: the nested block shares
    /// this transaction's read and write sets, and an abort restarts the
    /// whole flat transaction. What changes inside the block is the
    /// *read/cut discipline*: e.g. an elastic block inside an opaque
    /// parent may cut only the reads it performed itself.
    ///
    /// Requesting [`Semantics::Irrevocable`] inside a revocable parent
    /// cannot be honoured in place; the runtime aborts with
    /// [`Abort::RestartIrrevocable`] and [`crate::Stm::run`] restarts the
    /// whole transaction irrevocably.
    pub fn nested<T, F>(&mut self, requested: Semantics, f: F) -> TxResult<T>
    where
        F: FnOnce(&mut Transaction<'s>) -> TxResult<T>,
    {
        self.nested_with_policy(requested, self.stm.config().nesting_policy, f)
    }

    /// [`Transaction::nested`] with an explicit composition policy.
    pub fn nested_with_policy<T, F>(
        &mut self,
        requested: Semantics,
        policy: NestingPolicy,
        f: F,
    ) -> TxResult<T>
    where
        F: FnOnce(&mut Transaction<'s>) -> TxResult<T>,
    {
        let effective = compose(self.semantics, requested, policy);
        if effective == Semantics::Irrevocable && self.semantics != Semantics::Irrevocable {
            return Err(Abort::RestartIrrevocable);
        }
        if effective.is_read_only() && !self.desc.writes.is_empty() {
            // A snapshot block inside a writing transaction would not see
            // the transaction's own writes; run it opaquely instead. This
            // is the conservative resolution of the paper's composition
            // question for read-only semantics.
            return self.run_block(Semantics::Opaque, f);
        }
        self.run_block(effective, f)
    }

    fn run_block<T, F>(&mut self, effective: Semantics, f: F) -> TxResult<T>
    where
        F: FnOnce(&mut Transaction<'s>) -> TxResult<T>,
    {
        let saved = self.semantics;
        if effective == Semantics::Snapshot && self.snap_slot.is_none() {
            // A snapshot block inside an optimistic parent inherits a
            // bound sampled without registration. Register it now,
            // best-effort: truncation that already passed the bound is
            // not undone (misses report as unavailable, not capacity),
            // but from here on the bound is protected. The slot is
            // released with the transaction.
            self.snap_slot = self.stm.snapreg().register(self.rv);
        }
        // Reads made by the parent must never be cut by an elastic nested
        // block: start the block with an empty window. Conversely, when
        // the block ends, its window entries become permanent (the parent
        // may have stronger semantics).
        let saved_window = std::mem::take(&mut self.desc.window_queue);
        self.semantics = effective;
        let result = f(self);
        self.semantics = saved;
        self.desc.window_queue = saved_window;
        result
    }

    // ------------------------------------------------------------------
    // Commit / rollback
    // ------------------------------------------------------------------

    /// Attempt to commit. Consumes the attempt; on `Err` the caller
    /// re-executes the closure on a fresh [`Transaction`]. Both arms
    /// carry the attempt's receipt: the cuts and extensions of a failed
    /// commit are work that happened and must not vanish from the
    /// statistics.
    pub(crate) fn commit(mut self) -> Result<CommitReceipt, (Abort, CommitReceipt)> {
        let mut receipt = CommitReceipt {
            cuts: self.cuts,
            extensions: self.extensions,
            live_reads: self.desc.read_index.len() as u64 + self.direct_reads,
            writes: self.desc.writes.len() as u64 + self.eager_writes,
            wv: 0,
            log_seq: None,
            wait_gate_ns: [0; 3],
            wait_arbitrate_ns: 0,
            wait_arbitrate_addr: 0,
        };
        let outcome: Result<(), Abort> = match self.semantics {
            // Snapshot reads were consistent at rv by construction (and
            // can hold no buffered writes — writing is a
            // ReadOnlyViolation).
            Semantics::Snapshot => Ok(()),
            // The irrevocable transaction's own writes are already
            // published, but a nested *revocable* block (e.g. an elastic
            // traversal under NestingPolicy::Parameter) buffers its
            // writes like any optimistic code path; publish them now
            // rather than silently dropping them. We hold the era, so no
            // other transaction can hold a location lock (committers were
            // drained and stay out) and locking cannot contend.
            Semantics::Irrevocable => {
                if self.desc.writes.iter().any(|e| !e.payload.is_empty()) {
                    let wv = self.stm.clock().tick();
                    let watermark = self.stm.snapreg().watermark(wv);
                    let guard = self.guard.get_or_insert_with(epoch::pin);
                    for entry in self.desc.writes.iter_mut() {
                        // Entries emptied by a later eager write to the
                        // same location are superseded; skip them.
                        if entry.payload.is_empty() {
                            continue;
                        }
                        let slot = entry.slot.get();
                        while slot.try_lock(self.meta.birth_ts).is_err() {
                            std::hint::spin_loop();
                        }
                        slot.publish_payload(&mut entry.payload, wv, watermark, guard);
                    }
                }
                if receipt.writes > 0 {
                    // Stamp: the commit-time clock value bounds every
                    // eager write's tick from above, and the still-open
                    // era excludes every other committer, so enqueue
                    // order trivially respects the history here.
                    let stamp = self.stm.clock().now();
                    receipt.log_seq = self.append_redo(stamp);
                    receipt.wv = stamp;
                }
                Ok(())
            }
            Semantics::Opaque | Semantics::Elastic { .. } => {
                if self.desc.writes.is_empty() {
                    // Read-only optimistic transactions are consistent at
                    // their (possibly extended) read version; nothing to
                    // publish, nothing to validate (TL2 read-only rule).
                    // Any staged redo dies with the attempt: no writes,
                    // nothing to make durable.
                    Ok(())
                } else {
                    match self.commit_writes() {
                        Ok((wv, log_seq)) => {
                            receipt.wv = wv;
                            receipt.log_seq = log_seq;
                            Ok(())
                        }
                        Err(abort) => Err(abort),
                    }
                }
            }
        };
        // Filled after the arms: the commit path above may have waited
        // at the era gate or on location locks, and those nanoseconds
        // belong to this attempt's receipt on both outcomes.
        receipt.wait_gate_ns = self.wait_gate_ns;
        receipt.wait_arbitrate_ns = self.wait_arbitrate_ns;
        receipt.wait_arbitrate_addr = self.wait_arbitrate_addr;
        match outcome {
            Ok(()) => Ok(receipt),
            Err(abort) => Err((abort, receipt)),
        }
    }

    /// Hand staged redo bytes to the installed sink, stamped with
    /// `stamp`. Returns the sink-assigned sequence number, or `None`
    /// when there is no sink or nothing staged.
    fn append_redo(&self, stamp: u64) -> Option<u64> {
        if self.desc.redo.is_empty() {
            return None;
        }
        let sink = self.stm.redo_sink()?;
        Some(sink.append(stamp, &self.desc.redo))
    }

    fn commit_writes(&mut self) -> TxResult<(u64, Option<u64>)> {
        // Registration may spin for the whole duration of an open
        // irrevocable era (arbitrary user code), still pinned: the era
        // admits no other commit, so little garbage piles up behind it.
        // Register as an in-flight writing commit, waiting out any
        // irrevocable era first. Registration precedes every per-location
        // lock, preserving the seed's gate -> locations lock order; the
        // ticket deregisters on drop (success and abort paths alike).
        let stm = self.stm;
        let _commit = stm
            .gate()
            .enter_commit(&mut self.wait_gate_ns[crate::trace::GATE_ENTER_COMMIT as usize]);

        // Commit scratch is pooled; take it out to sidestep overlapping
        // borrows of the descriptor, return it cleared below.
        let mut order = std::mem::take(&mut self.desc.order);
        let mut acquired = std::mem::take(&mut self.desc.acquired);
        let result = self.lock_validate_publish(&mut order, &mut acquired);
        order.clear();
        acquired.clear();
        self.desc.order = order;
        self.desc.acquired = acquired;
        result
    }

    fn lock_validate_publish(
        &mut self,
        order: &mut Vec<u32>,
        acquired: &mut Vec<(u32, u64)>,
    ) -> TxResult<(u64, Option<u64>)> {
        debug_assert!(order.is_empty() && acquired.is_empty());

        // Acquire write locks in address order (global total order =>
        // deadlock freedom even when the contention manager waits).
        order.extend(0..self.desc.writes.len() as u32);
        order.sort_unstable_by_key(|&i| self.desc.writes[i as usize].addr);
        for &i in order.iter() {
            let mut spins = 0u32;
            loop {
                let entry = &self.desc.writes[i as usize];
                match entry.slot.get().try_lock(self.meta.birth_ts) {
                    Ok(prior) => {
                        acquired.push((i, prior));
                        break;
                    }
                    Err(owner) => {
                        let addr = entry.addr;
                        if let Err(abort) = self.arbitrate_lock(addr, owner, &mut spins) {
                            self.release_acquired(acquired);
                            return Err(abort);
                        }
                    }
                }
            }
        }

        // Advance the clock (retried CAS, never adopted — clock.rs
        // explains why GV4 adoption is unsound under Acquire/Release):
        // our wv comes from our own RMW, restoring the TL2 guarantee
        // that readers with rv >= wv synchronize with our lock stores.
        let wv = self.stm.clock().advance();

        // Announce wv on every held lock immediately — before
        // validation, so the sentinel window snapshot readers must wait
        // out is just the lock-to-advance gap, not the whole validation
        // phase. `release_acquired` withdraws the announcements if
        // validation fails below.
        for &(i, _) in acquired.iter() {
            self.desc.writes[i as usize].slot.get().publish_wv(wv);
        }

        // Validate live reads. Locations we hold locks on are validated
        // against the pre-lock version returned by try_lock (`acquired`
        // is in address order, so the lookup is a binary search — no
        // per-commit map allocation). TL2 shortcut: wv == rv + 1 means
        // our own CAS was the only clock advance since rv, so no one
        // committed in between and the read set cannot have changed.
        if wv > self.rv + 1 {
            for entry in self.desc.reads.iter().filter(|e| !e.dead) {
                let lookup = acquired
                    .binary_search_by_key(&entry.addr, |&(i, _)| self.desc.writes[i as usize].addr);
                let current = match lookup {
                    Ok(pos) => acquired[pos].1,
                    Err(_) => {
                        let p = entry.slot.get().probe();
                        if p.locked {
                            self.release_acquired(acquired);
                            return Err(Abort::ValidationFailed { addr: entry.addr });
                        }
                        p.version
                    }
                };
                if current != entry.seen {
                    self.release_acquired(acquired);
                    return Err(Abort::ValidationFailed { addr: entry.addr });
                }
            }
        }

        // Truncation bound for the publishes below: the oldest live
        // registered snapshot bound, clamped to our own wv. Sampled
        // once per commit, after our clock advance (the SeqCst pairing
        // snapreg.rs relies on).
        let watermark = self.stm.snapreg().watermark(wv);

        // Hand staged redo bytes to the installed sink *here* — after
        // validation has succeeded (the commit is now certain) and
        // before any write publishes. Every location lock is still
        // held, so a transaction that later reads our writes can only
        // enqueue its own redo after ours: the sink's sequence order
        // respects every per-location serialization, and a durable
        // prefix of it is a prefix of the history (redo.rs). The sink
        // only stages into memory, so the added lock hold time is a
        // short critical section, not I/O.
        let log_seq = self.append_redo(wv);

        // Publish & unlock under the attempt's pin (taken at its first
        // write, if not at a read before).
        let guard = self.guard.get_or_insert_with(epoch::pin);
        for &(i, _) in acquired.iter() {
            let entry = &mut self.desc.writes[i as usize];
            entry.slot.get().publish_payload(&mut entry.payload, wv, watermark, guard);
        }
        Ok((wv, log_seq))
    }

    fn release_acquired(&self, acquired: &[(u32, u64)]) {
        for &(i, prior) in acquired.iter().rev() {
            self.desc.writes[i as usize].slot.get().unlock_restore(prior);
        }
    }

    /// Receipt counters for the statistics sink.
    pub(crate) fn abort_receipt(&self) -> CommitReceipt {
        CommitReceipt {
            cuts: self.cuts,
            extensions: self.extensions,
            live_reads: self.desc.read_index.len() as u64 + self.direct_reads,
            writes: self.desc.writes.len() as u64 + self.eager_writes,
            wv: 0,
            log_seq: None,
            wait_gate_ns: self.wait_gate_ns,
            wait_arbitrate_ns: self.wait_arbitrate_ns,
            wait_arbitrate_addr: self.wait_arbitrate_addr,
        }
    }
}

impl Drop for Transaction<'_> {
    fn drop(&mut self) {
        // Stop protecting this attempt's read bound; a retry registers
        // its fresh bound in `begin`.
        if let Some(slot) = self.snap_slot.take() {
            self.stm.snapreg().release(slot);
        }
        // SAFETY: `desc` is never touched again — `drop` is the only
        // place that takes it, and it runs exactly once.
        let mut desc = unsafe { ManuallyDrop::take(&mut self.desc) };
        desc.clear();
        stash_descriptor(desc);
        // Unpin only now: the read and write sets pointed at location
        // cores uncounted until the clear above.
        self.guard = None;
        // `era` (if any) drops after this body, closing the irrevocable
        // era even on panic unwind.
    }
}

/// Per-attempt counters reported back to [`crate::Stm`] for statistics
/// and advisor telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CommitReceipt {
    pub cuts: u64,
    pub extensions: u64,
    pub live_reads: u64,
    pub writes: u64,
    /// Clock stamp of the commit (see [`crate::CommitInfo::wv`]).
    pub wv: u64,
    /// Sequence number the redo sink assigned, if any.
    pub log_seq: Option<u64>,
    /// Era-gate wait nanoseconds by site (`trace::GATE_*` indices).
    pub wait_gate_ns: [u64; 3],
    /// Arbitrated lock-wait nanoseconds.
    pub wait_arbitrate_ns: u64,
    /// Last contended address of an arbitrated wait (0 = none).
    pub wait_arbitrate_addr: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cm::Suicide;

    fn read(tx: &mut Transaction<'_>, core: &TCell<i64>) -> TxResult<i64> {
        Ok(*tx.read_ref(core)?.get())
    }

    /// A snapshot transaction whose arbiter aborts on the *first*
    /// conflict round: any `arbitrate_lock` call inside a read surfaces
    /// as `Err(Abort::Locked)`, so these tests distinguish "waited" from
    /// "wait-free" by the result alone.
    fn begin_suicide_snapshot(stm: &Stm) -> Transaction<'_> {
        Transaction::begin(
            stm,
            Semantics::Snapshot,
            TxMeta { birth_ts: 1, retries: 0 },
            ConflictArbiter::Suicide(Suicide),
        )
    }

    /// ISSUE 6 acceptance: a snapshot read of a slot locked by a
    /// committer that has announced `wv > rv` completes without calling
    /// `arbitrate_lock`.
    #[test]
    fn snapshot_read_of_future_committer_lock_is_wait_free() {
        let stm = Stm::new();
        let core = TCell::new(7i64, stm.id());
        // Commit version 1, then advance the clock so a snapshot begun
        // now reads at rv = 2.
        core.try_lock(1).unwrap();
        core.publish(7, stm.clock().advance());
        stm.clock().advance();
        let mut tx = begin_suicide_snapshot(&stm);
        assert_eq!(tx.read_version(), 2);
        // An in-flight committer holds the lock and has announced a
        // write version above the snapshot's bound.
        core.try_lock(99).unwrap();
        TxSlot::publish_wv(&core, 3);
        assert_eq!(read(&mut tx, &core), Ok(7), "must read the pre-lock head without arbitrating");
        core.unlock_restore(1);
    }

    /// In the sentinel window (locked, no wv announced yet) the read
    /// still arbitrates — it cannot know which side of its cut the
    /// committer will land on.
    #[test]
    fn snapshot_read_arbitrates_in_the_sentinel_window() {
        let stm = Stm::new();
        let core = TCell::new(7i64, stm.id());
        core.try_lock(1).unwrap();
        core.publish(7, stm.clock().advance());
        stm.clock().advance();
        let mut tx = begin_suicide_snapshot(&stm);
        core.try_lock(99).unwrap();
        assert_eq!(
            read(&mut tx, &core),
            Err(Abort::Locked { addr: core.address(), owner: 99 }),
            "sentinel window must fall back to the arbitrated wait"
        );
        core.unlock_restore(1);
    }

    /// A committer whose announced wv falls inside the snapshot's cut
    /// (`wv <= rv`) must be waited out: its value belongs in the cut
    /// but is not published yet.
    #[test]
    fn snapshot_read_arbitrates_when_committer_is_inside_its_cut() {
        let stm = Stm::new();
        let core = TCell::new(7i64, stm.id());
        core.try_lock(1).unwrap();
        core.publish(7, stm.clock().advance());
        stm.clock().advance();
        let mut tx = begin_suicide_snapshot(&stm);
        assert_eq!(tx.read_version(), 2);
        core.try_lock(99).unwrap();
        TxSlot::publish_wv(&core, 2);
        assert_eq!(
            read(&mut tx, &core),
            Err(Abort::Locked { addr: core.address(), owner: 99 }),
            "an announced wv <= rv belongs in the cut and must be waited for"
        );
        core.unlock_restore(1);
    }

    /// An unregistered snapshot (registry full) that misses the chain
    /// reports a capacity abort; a registered one reports unavailable.
    #[test]
    fn chain_miss_classification_tracks_registration() {
        let stm = Stm::new();
        let core = TCell::new(0i64, stm.id());
        // Three commits with no snapshot live: only the head survives,
        // so a bound below it misses.
        for _ in 0..3 {
            core.try_lock(1).unwrap();
            core.publish(1, stm.clock().advance());
        }
        let mut registered = begin_suicide_snapshot(&stm);
        assert!(registered.snap_slot.is_some());
        registered.rv = 1; // force a bound below the retained head
        assert_eq!(
            read(&mut registered, &core),
            Err(Abort::SnapshotUnavailable { addr: core.address() })
        );
        let mut unregistered = begin_suicide_snapshot(&stm);
        // Simulate a full registry at begin.
        if let Some(slot) = unregistered.snap_slot.take() {
            stm.snapreg().release(slot);
        }
        unregistered.rv = 1;
        assert_eq!(
            read(&mut unregistered, &core),
            Err(Abort::SnapshotCapacity { addr: core.address() })
        );
    }
}

//! The [`Stm`] instance: global clock, irrevocable-era gate,
//! configuration, statistics, and the `start(p)` entry points
//! [`Stm::run`] / [`Stm::try_run`].

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::advisor::{ClassId, RunTelemetry, SemanticsSource};
use crate::clock::GlobalClock;
use crate::cm::{ConflictArbiter, ContentionManager, TxMeta};
use crate::error::{Abort, AbortCause, Canceled, TxResult};
use crate::gate::IrrevGate;
use crate::redo::{CommitInfo, RedoSink};
use crate::semantics::{NestingPolicy, Semantics};
use crate::snapreg::SnapshotRegistry;
use crate::stats::{StatsSnapshot, StmStats};
use crate::trace::{self, TraceEvent};
use crate::tvar::{PeekGuard, TVar, TVarArray, TxValue};
use crate::txn::{CommitReceipt, Transaction};

/// Tuning knobs of an [`Stm`] instance.
///
/// There is no version-history knob: a location keeps exactly the
/// versions a registered [`Semantics::Snapshot`] bound can still reach
/// (the snapshot registry's watermark), and its head alone while no
/// snapshot is live.
#[derive(Debug, Clone, Copy)]
pub struct StmConfig {
    /// The contention manager.
    pub arbiter: ConflictArbiter,
    /// Composition policy applied by [`Transaction::nested`].
    pub nesting_policy: NestingPolicy,
    /// After this many aborted attempts, a transaction is upgraded to
    /// [`Semantics::Irrevocable`] so it is guaranteed to finish
    /// (liveness fallback). `None` disables the upgrade. Snapshot
    /// transactions are never upgraded (they retry with a fresh bound).
    pub irrevocable_fallback_after: Option<u32>,
}

impl Default for StmConfig {
    fn default() -> Self {
        Self {
            arbiter: ConflictArbiter::default(),
            nesting_policy: NestingPolicy::Strongest,
            irrevocable_fallback_after: Some(64),
        }
    }
}

/// Per-`run` parameters — the paper's `start(p)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct TxParams {
    /// The semantic parameter `p`. [`Default`] is the paper's `def`
    /// (opaque) semantics.
    pub semantics: Semantics,
    /// Transaction class this run belongs to, for the installed
    /// [`SemanticsSource`] (if any) to plan per-attempt parameters.
    /// `None` (the default) opts the run out of advice entirely: it
    /// runs under `semantics`, full stop.
    pub class: Option<ClassId>,
}

impl TxParams {
    /// `start(p)` with an explicit semantics.
    pub const fn new(semantics: Semantics) -> Self {
        Self { semantics, class: None }
    }

    /// The paper's `start(def)`.
    pub const fn default_semantics() -> Self {
        Self::new(Semantics::Opaque)
    }

    /// The paper's `start(weak)`.
    pub const fn weak() -> Self {
        Self::new(Semantics::elastic())
    }

    /// Tag the run with a transaction class; `semantics` becomes the
    /// *requested* semantics the installed advisor may override per
    /// attempt (and the fallback when its advice proves unusable). A
    /// plan can never weaken the run's requested discipline: a
    /// requested [`Semantics::Irrevocable`] stays irrevocable, a
    /// requested [`Semantics::Snapshot`] keeps its atomic view, a
    /// requested opaque class is never served elastic semantics, and
    /// an elastic request never has its window narrowed. The two
    /// moves a plan *may* make are strengthening (elastic → opaque →
    /// irrevocable) and switching a class to [`Semantics::Snapshot`]'s
    /// multi-versioned atomic view (a write under an injected snapshot
    /// re-runs under the requested semantics). A classed run may
    /// therefore be *strengthened* past snapshot, so a classed
    /// snapshot run must not rely on writes being rejected (under a
    /// strengthened plan a write commits instead of aborting with
    /// `ReadOnlyViolation`).
    pub const fn with_class(mut self, class: ClassId) -> Self {
        self.class = Some(class);
        self
    }
}

/// A polymorphic transactional memory instance.
///
/// All [`TVar`]s created through [`Stm::new_tvar`] share this instance's
/// global version clock; do not mix vars across instances (checked in
/// debug builds).
pub struct Stm {
    id: u64,
    clock: GlobalClock,
    gate: IrrevGate,
    snapreg: SnapshotRegistry,
    ts_source: AtomicU64,
    config: StmConfig,
    stats: StmStats,
    /// Installed per-attempt parameter source; consulted only for runs
    /// tagged with a [`ClassId`]. Fixed at construction so the hot path
    /// reads a plain field, not a synchronized cell.
    advisor: Option<Arc<dyn SemanticsSource>>,
    /// Installed commit-time redo sink (see `redo.rs`). Fixed at
    /// construction like the advisor, for the same hot-path reason.
    redo_sink: Option<Arc<dyn RedoSink>>,
}

impl std::fmt::Debug for Stm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stm")
            .field("id", &self.id)
            .field("config", &self.config)
            .field("advisor", &self.advisor.is_some())
            .finish_non_exhaustive()
    }
}

/// Source of unique [`Stm::id`]s for debug-mode TVar/Stm pairing checks.
static STM_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static IN_TRANSACTION: Cell<bool> = const { Cell::new(false) };
}

/// Resets the re-entrancy flag even if the user closure panics.
struct ReentrancyGuard;

impl ReentrancyGuard {
    fn enter() -> Self {
        IN_TRANSACTION.with(|f| {
            assert!(
                !f.get(),
                "Stm::run called inside a running transaction; use Transaction::nested \
                 for nested transactions"
            );
            f.set(true);
        });
        ReentrancyGuard
    }
}

impl Drop for ReentrancyGuard {
    fn drop(&mut self) {
        IN_TRANSACTION.with(|f| f.set(false));
    }
}

/// Spin politely: processor hint first, yielding to the OS scheduler
/// regularly so single-core hosts make progress.
#[inline]
pub(crate) fn polite_spin(spins: u32) {
    if spins.is_multiple_of(4) {
        std::thread::yield_now();
    } else {
        std::hint::spin_loop();
    }
}

impl Stm {
    /// New instance with default configuration.
    pub fn new() -> Self {
        Self::with_config(StmConfig::default())
    }

    /// New instance with explicit configuration.
    pub fn with_config(config: StmConfig) -> Self {
        Self {
            id: STM_IDS.fetch_add(1, Ordering::Relaxed),
            clock: GlobalClock::new(),
            gate: IrrevGate::new(),
            snapreg: SnapshotRegistry::new(),
            ts_source: AtomicU64::new(1),
            config,
            stats: StmStats::default(),
            advisor: None,
            redo_sink: None,
        }
    }

    /// New instance with an installed [`SemanticsSource`]: runs tagged
    /// with a [`ClassId`] (see [`TxParams::with_class`]) consult it
    /// before every attempt and report telemetry when they finish.
    /// Untagged runs behave exactly as on an advisor-free instance.
    pub fn with_advisor(config: StmConfig, advisor: Arc<dyn SemanticsSource>) -> Self {
        Self { advisor: Some(advisor), ..Self::with_config(config) }
    }

    /// New instance with an installed [`RedoSink`]: every committing
    /// transaction that staged redo bytes (see
    /// [`Transaction::stage_redo`]) hands them to the sink, stamped
    /// with its write version, before its writes become visible. Used
    /// by the durability layer (`polytm-durable`) to drive a write-ahead
    /// log off the commit path.
    pub fn with_redo_sink(config: StmConfig, sink: Arc<dyn RedoSink>) -> Self {
        Self { redo_sink: Some(sink), ..Self::with_config(config) }
    }

    /// The installed advisor, if any.
    pub fn advisor(&self) -> Option<&Arc<dyn SemanticsSource>> {
        self.advisor.as_ref()
    }

    /// The installed redo sink, if any.
    pub fn redo_sink(&self) -> Option<&Arc<dyn RedoSink>> {
        self.redo_sink.as_ref()
    }

    /// Unique instance id (used for debug-mode TVar pairing checks).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The configuration this instance runs with.
    pub fn config(&self) -> &StmConfig {
        &self.config
    }

    pub(crate) fn clock(&self) -> &GlobalClock {
        &self.clock
    }

    pub(crate) fn gate(&self) -> &IrrevGate {
        &self.gate
    }

    pub(crate) fn snapreg(&self) -> &SnapshotRegistry {
        &self.snapreg
    }

    pub(crate) fn raw_stats(&self) -> &StmStats {
        &self.stats
    }

    /// Current value of the global version clock.
    pub fn clock_now(&self) -> u64 {
        self.clock.now()
    }

    /// Advance the global version clock to at least `to` (see
    /// [`GlobalClock::catch_up`]). Recovery support for durability
    /// layers: call before admitting transactions on a freshly rebuilt
    /// instance, so new commits are stamped above every write version
    /// the previous incarnation persisted.
    pub fn catch_up_clock(&self, to: u64) {
        self.clock.catch_up(to);
    }

    /// Commit/abort statistics since creation (or the last
    /// [`Stm::reset_stats`]).
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Zero all statistics counters.
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Record durability work done on behalf of this instance's commits
    /// (the [`StatsSnapshot`] durability bucket). Called by the
    /// attached durability layer — typically once per group-commit
    /// batch: `commits` transactions made durable, by `batches` batches
    /// costing `fsyncs` fsync calls over `wal_bytes` appended bytes.
    pub fn record_durable(&self, commits: u64, batches: u64, fsyncs: u64, wal_bytes: u64) {
        self.stats.record_durable(commits, batches, fsyncs, wal_bytes);
    }

    /// Record nanoseconds a committer spent blocked on WAL durability
    /// (the [`StatsSnapshot::wal_wait_ns`] column). Called by the
    /// attached durability layer from its `wait_durable` path.
    pub fn record_wal_wait(&self, ns: u64) {
        self.stats.record_wal_wait(ns);
    }

    /// Create a [`TVar`] tagged to this instance.
    pub fn new_tvar<T: TxValue>(&self, value: T) -> TVar<T> {
        TVar::tagged(value, self.id)
    }

    /// Allocate registers holding `values`, in order, in one allocation
    /// tagged to this instance (see [`TVarArray`]).
    pub fn new_tvar_array<T: TxValue>(
        &self,
        values: impl IntoIterator<Item = T, IntoIter: ExactSizeIterator>,
    ) -> TVarArray<T> {
        TVarArray::tagged(values, self.id)
    }

    /// Run a transaction to commit — the paper's `start(p) … commit`.
    ///
    /// The closure may be executed several times (whenever the attempt
    /// aborts); it must be idempotent apart from its transactional reads
    /// and writes. Returns the closure's value from the committed attempt.
    ///
    /// # Panics
    /// Panics if the closure cancels (use [`Stm::try_run`] to allow
    /// cancellation), if called re-entrantly from inside a transaction, or
    /// if an irrevocable closure returns any error.
    pub fn run<T, F>(&self, params: TxParams, f: F) -> T
    where
        F: FnMut(&mut Transaction<'_>) -> TxResult<T>,
    {
        self.try_run(params, f)
            .expect("transaction cancelled; use Stm::try_run to permit cancellation")
    }

    /// Like [`Stm::run`], but the closure may cancel the transaction with
    /// [`Transaction::cancel`], which surfaces as `Err(Canceled)` with no
    /// effects published.
    pub fn try_run<T, F>(&self, params: TxParams, f: F) -> Result<T, Canceled>
    where
        F: FnMut(&mut Transaction<'_>) -> TxResult<T>,
    {
        self.try_run_logged(params, f).map(|(value, _)| value)
    }

    /// [`Stm::run`] plus the committed attempt's [`CommitInfo`] — its
    /// clock stamp and, when a [`RedoSink`] is installed and the
    /// closure staged redo bytes, the log sequence number the sink
    /// assigned. The durability layer uses the sequence number to wait
    /// for the commit to become durable *after* the transaction is
    /// over, keeping I/O off the lock-holding commit path.
    ///
    /// # Panics
    /// As [`Stm::run`].
    pub fn run_logged<T, F>(&self, params: TxParams, f: F) -> (T, CommitInfo)
    where
        F: FnMut(&mut Transaction<'_>) -> TxResult<T>,
    {
        self.try_run_logged(params, f)
            .expect("transaction cancelled; use Stm::try_run_logged to permit cancellation")
    }

    /// [`Stm::run_logged`] with cancellation, as [`Stm::try_run`].
    pub fn try_run_logged<T, F>(
        &self,
        params: TxParams,
        mut f: F,
    ) -> Result<(T, CommitInfo), Canceled>
    where
        F: FnMut(&mut Transaction<'_>) -> TxResult<T>,
    {
        let _reentrancy = ReentrancyGuard::enter();
        // One birth timestamp per run, threaded unchanged through every
        // attempt — including attempts upgraded to irrevocable semantics
        // — so contention-manager aging (Greedy, and the era gate's
        // age-ordered admission) keeps ordering the same transaction.
        let birth_ts = self.ts_source.fetch_add(1, Ordering::Relaxed);
        let requested = params.semantics;
        let advisor = match params.class {
            Some(_) => self.advisor.as_deref(),
            None => None,
        };
        let class = params.class.unwrap_or(ClassId(0));
        // Telemetry exists only when someone will observe it: unadvised
        // runs must not pay for per-abort cause accounting.
        let mut telemetry = advisor.map(|_| RunTelemetry::new(class, requested));
        let mut semantics = requested;
        let mut retries = 0u32;
        // One-way runtime overrides a per-attempt plan must not undo.
        let mut upgraded = false;
        let mut snapshot_rejected = false;
        // Tracing: the sink lookup is hoisted out of the attempt loop,
        // so an uninstalled sink costs one load per *run* and each emit
        // site below is a register test on a perfectly predicted branch.
        let tsink = trace::sink();
        let tclass = params.class.map_or(trace::NO_CLASS, |c| c.0);
        let trace_abort = |sem: Semantics, attempt_retries: u32, abort: Abort| {
            if let Some(t) = tsink {
                t.record(TraceEvent::new(
                    trace::code::TXN_ABORT,
                    abort.cause(sem).map_or(0, AbortCause::code),
                    tclass,
                    attempt_retries,
                    abort.addr().unwrap_or(0) as u64,
                    0,
                ));
            }
        };
        // Wait accounting for one finished attempt: stats always (the
        // adds are skipped when the attempt never waited, the common
        // case), span events only with a sink — emitted *before* the
        // attempt's commit/abort event so the span joiner sees an
        // attempt's waits ahead of its resolution on the same ring.
        let record_attempt_waits = |sem: Semantics, attempt_retries: u32, r: &CommitReceipt| {
            let gate_ns: u64 = r.wait_gate_ns.iter().sum();
            self.stats.record_waits(gate_ns, r.wait_arbitrate_ns, 0);
            if let Some(t) = tsink {
                for (site, &ns) in r.wait_gate_ns.iter().enumerate() {
                    if ns > 0 {
                        t.record(TraceEvent::new(
                            trace::code::WAIT_GATE,
                            site as u8,
                            tclass,
                            attempt_retries,
                            ns,
                            0,
                        ));
                    }
                }
                if r.wait_arbitrate_ns > 0 {
                    t.record(TraceEvent::new(
                        trace::code::WAIT_ARBITRATE,
                        trace::semantics_code(sem),
                        tclass,
                        attempt_retries,
                        r.wait_arbitrate_ns,
                        r.wait_arbitrate_addr,
                    ));
                }
            }
        };
        loop {
            let mut arbiter = self.config.arbiter;
            if let Some(src) = advisor {
                let plan = src.plan(class, retries, requested);
                if let Some(a) = plan.arbiter {
                    arbiter = a;
                }
                // A plan may never weaken the run's guarantees: a
                // caller-requested irrevocable run stays irrevocable
                // (its closure is written to execute exactly once), a
                // caller-requested snapshot keeps an atomic view (only
                // other single-critical-step semantics may replace it —
                // elastic would let the closure observe a torn cut), and
                // a runtime upgrade is one-way.
                if !upgraded && requested != Semantics::Irrevocable {
                    let atomic_view = matches!(
                        plan.semantics,
                        Semantics::Snapshot | Semantics::Opaque | Semantics::Irrevocable
                    );
                    // An injected Snapshot that already collided with a
                    // write in this run likewise falls back to the
                    // caller's requested semantics.
                    let rejected = snapshot_rejected && plan.semantics == Semantics::Snapshot;
                    semantics = if rejected || (requested == Semantics::Snapshot && !atomic_view) {
                        requested
                    } else {
                        match (plan.semantics, requested) {
                            // An elastic plan may not narrow the window
                            // the caller asked for: the requested window
                            // is part of the operation's correctness
                            // argument (tower- and probe-writing
                            // structures widen it), not a tuning knob
                            // the advisor owns.
                            (Semantics::Elastic { window }, Semantics::Elastic { window: req }) => {
                                Semantics::Elastic { window: window.max(req) }
                            }
                            // A plan may strengthen the request, or
                            // switch a class to Snapshot's atomic view
                            // (backstopped by the ReadOnlyViolation
                            // fallback below) — but never weaken the
                            // requested discipline: an elastic plan for
                            // a requested-opaque class would cut reads
                            // the caller's write safety depends on.
                            (planned, req)
                                if planned != Semantics::Snapshot
                                    && planned.strength() < req.strength() =>
                            {
                                req
                            }
                            (planned, _) => planned,
                        }
                    };
                    if semantics == Semantics::Irrevocable {
                        // Plan-directed escalation is an upgrade like any
                        // other: one-way, and accounted as one.
                        self.stats.record_irrevocable_upgrade();
                        upgraded = true;
                    }
                }
            }
            let meta = TxMeta { birth_ts, retries };
            // First attempts emit no begin event: the attempt is implied
            // by its own commit/abort event (which carries `retries`),
            // so the commit-on-first-try hot path pays for ONE ring push
            // per transaction, not two. Only re-attempts (retries > 0)
            // emit a begin — exactly the attempts whose existence an
            // analyzer cannot otherwise see until they resolve.
            if retries > 0 {
                if let Some(t) = tsink {
                    t.record(TraceEvent::new(
                        trace::code::TXN_BEGIN,
                        trace::semantics_code(semantics),
                        tclass,
                        retries,
                        0,
                        0,
                    ));
                }
            }
            let mut tx = Transaction::begin(self, semantics, meta, arbiter);
            let outcome = f(&mut tx);
            let abort = match outcome {
                Ok(value) => match tx.commit() {
                    Ok(receipt) => {
                        record_attempt_waits(semantics, retries, &receipt);
                        self.stats.record_cuts(receipt.cuts);
                        self.stats.record_extensions(receipt.extensions);
                        if semantics == Semantics::Irrevocable {
                            self.stats.record_irrevocable_commit();
                        } else {
                            self.stats.record_commit();
                        }
                        if let Some(t) = tsink {
                            let reads =
                                (receipt.live_reads + receipt.cuts).min(u64::from(u32::MAX));
                            let writes = receipt.writes.min(u64::from(u32::MAX));
                            t.record(TraceEvent::new(
                                trace::code::TXN_COMMIT,
                                trace::semantics_code(semantics),
                                tclass,
                                retries,
                                receipt.wv,
                                (reads << 32) | writes,
                            ));
                        }
                        if let (Some(src), Some(telemetry)) = (advisor, telemetry.as_mut()) {
                            telemetry.committed_semantics = semantics;
                            telemetry.retries = retries;
                            telemetry.upgraded = upgraded;
                            telemetry.reads = receipt.live_reads + receipt.cuts;
                            telemetry.writes = receipt.writes;
                            telemetry.wrote |= receipt.writes > 0;
                            src.observe(telemetry);
                        }
                        return Ok((value, CommitInfo { wv: receipt.wv, seq: receipt.log_seq }));
                    }
                    Err((abort, receipt)) => {
                        record_attempt_waits(semantics, retries, &receipt);
                        // The failed attempt's cuts/extensions are real
                        // work; account them like the abort path below.
                        self.stats.record_cuts(receipt.cuts);
                        self.stats.record_extensions(receipt.extensions);
                        if let Some(t) = telemetry.as_mut() {
                            t.wrote |= receipt.writes > 0;
                        }
                        abort
                    }
                },
                Err(abort) => {
                    if semantics == Semantics::Irrevocable {
                        // Irrevocable writes are already published; there
                        // is no way to honour any abort.
                        panic!(
                            "irrevocable transaction attempted to abort ({abort}); \
                             irrevocable closures must be infallible"
                        );
                    }
                    let receipt = tx.abort_receipt();
                    record_attempt_waits(semantics, retries, &receipt);
                    self.stats.record_cuts(receipt.cuts);
                    self.stats.record_extensions(receipt.extensions);
                    if let Some(t) = telemetry.as_mut() {
                        t.wrote |= receipt.writes > 0;
                    }
                    drop(tx);
                    match abort {
                        Abort::Cancel => {
                            self.stats.record_abort(Abort::Cancel, semantics);
                            return Err(Canceled);
                        }
                        Abort::RestartIrrevocable => {
                            // The restarted attempt is a real abort:
                            // account it (and report it to the advisor)
                            // before the one-way upgrade, or attempts
                            // stop summing to commits + aborts.
                            self.stats.record_abort(abort, semantics);
                            if let Some(t) = telemetry.as_mut() {
                                t.record_abort(abort, semantics);
                            }
                            trace_abort(semantics, retries, abort);
                            self.stats.record_irrevocable_upgrade();
                            semantics = Semantics::Irrevocable;
                            upgraded = true;
                            continue;
                        }
                        Abort::ReadOnlyViolation
                            if semantics == Semantics::Snapshot
                                && requested != Semantics::Snapshot =>
                        {
                            // The advisor assigned Snapshot to a class
                            // that writes: note the rejection (sticky for
                            // this run, reported in telemetry so the
                            // advisor learns) and re-run revocably under
                            // the requested semantics.
                            self.stats.record_abort(abort, semantics);
                            if let Some(t) = telemetry.as_mut() {
                                t.record_abort(abort, semantics);
                                t.wrote = true;
                                t.read_only_violation = true;
                            }
                            trace_abort(semantics, retries, abort);
                            snapshot_rejected = true;
                            retries = retries.saturating_add(1);
                            continue;
                        }
                        other => other,
                    }
                }
            };
            // Aborted attempt: account, back off, maybe upgrade, retry.
            self.stats.record_abort(abort, semantics);
            if let Some(t) = telemetry.as_mut() {
                t.record_abort(abort, semantics);
            }
            trace_abort(semantics, retries, abort);
            retries = retries.saturating_add(1);
            if let Some(limit) = self.config.irrevocable_fallback_after {
                if retries >= limit
                    && semantics != Semantics::Irrevocable
                    && semantics != Semantics::Snapshot
                {
                    self.stats.record_irrevocable_upgrade();
                    semantics = Semantics::Irrevocable;
                    upgraded = true;
                }
            }
            if let Some(d) = arbiter.backoff(retries) {
                if !d.is_zero() {
                    // Measure the actual sleep, not the requested
                    // duration — oversubscribed hosts oversleep, and the
                    // waterfall should show the time that really passed.
                    let backoff_start = std::time::Instant::now();
                    std::thread::sleep(d);
                    let slept_ns = backoff_start.elapsed().as_nanos() as u64;
                    self.stats.record_waits(0, 0, slept_ns);
                    if let Some(t) = tsink {
                        t.record(TraceEvent::new(
                            trace::code::WAIT_CLOCK,
                            trace::semantics_code(semantics),
                            tclass,
                            retries,
                            slept_ns,
                            0,
                        ));
                    }
                }
            }
        }
    }

    /// A read with no transaction: `read` loads registers with
    /// [`crate::TCell::peek_committed`] under one [`PeekGuard`], and its answer
    /// is kept only if no irrevocable era was open at any point of the
    /// read — the era word is loaded before and after, as a read
    /// version is sampled at begin. `None` means "run the transaction
    /// instead": `read` returned `None` (a register was locked), an era
    /// was open or opened meanwhile, or the calling thread is inside a
    /// transaction already.
    ///
    /// No descriptor, read set, validation or commit: the read is only
    /// as consistent as what `read` makes of the registers it loads.
    /// One register is linearizable by itself; several need an argument
    /// of their own (`polytm-kv`'s point lookup, DESIGN.md §1).
    /// A read that answers counts in [`StatsSnapshot::point_reads`],
    /// never as an attempt.
    ///
    /// ```
    /// use polytm::Stm;
    ///
    /// let stm = Stm::new();
    /// let x = stm.new_tvar(7u64);
    /// assert_eq!(stm.read_direct(|g| x.peek_committed(g).copied()), Some(7));
    /// assert_eq!(stm.stats().point_reads, 1);
    /// assert_eq!(stm.stats().commits, 0);
    /// ```
    #[inline]
    pub fn read_direct<R>(&self, read: impl FnOnce(&PeekGuard) -> Option<R>) -> Option<R> {
        if IN_TRANSACTION.with(Cell::get) {
            return None;
        }
        let era = self.gate.open_direct_read()?;
        let guard = PeekGuard::pin();
        let answer = read(&guard)?;
        if !self.gate.close_direct_read(era) {
            return None;
        }
        self.stats.record_point_read();
        Some(answer)
    }

    /// Convenience: run a read-only snapshot transaction.
    pub fn snapshot<T, F>(&self, f: F) -> T
    where
        F: FnMut(&mut Transaction<'_>) -> TxResult<T>,
    {
        self.run(TxParams::new(Semantics::Snapshot), f)
    }
}

impl Default for Stm {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use super::*;
    use crate::varcore::TxSlot;

    /// A one-entry "shard": a table register pointing at bucket
    /// registers, read table-then-bucket as `polytm-kv`'s point lookup
    /// reads them.
    fn lookup(stm: &Stm, table: &TVar<Arc<[TVar<u64>]>>) -> Option<u64> {
        stm.read_direct(|g| table.peek_committed(g)?[0].peek_committed(g).copied())
    }

    #[test]
    fn direct_read_refuses_a_locked_register_and_counts_only_answers() {
        let stm = Stm::new();
        let x = stm.new_tvar(1u64);
        assert_eq!(stm.read_direct(|g| x.peek_committed(g).copied()), Some(1));
        x.try_lock(9).expect("free");
        assert_eq!(stm.read_direct(|g| x.peek_committed(g).copied()), None);
        x.unlock_restore(0);
        let s = stm.stats();
        assert_eq!((s.point_reads, s.commits, s.aborts()), (1, 0, 0));
    }

    #[test]
    fn direct_read_inside_a_transaction_defers_to_it() {
        let stm = Stm::new();
        let x = stm.new_tvar(1u64);
        let inner =
            stm.run(TxParams::default(), |_| Ok(stm.read_direct(|g| x.peek_committed(g).copied())));
        assert_eq!(inner, None);
        assert_eq!(stm.stats().point_reads, 0);
    }

    /// The era test, proved by order: while an irrevocable transaction
    /// holds an eager write to the bucket, a lookup never answers. Its
    /// direct read gives up, and its fallback transaction is seen
    /// waiting in the era gate before the era closes; it answers after
    /// the close, with the eager value, and `point_reads` never moves.
    #[test]
    fn lookup_never_answers_from_an_open_irrevocable_era() {
        let stm = Stm::new();
        let table: TVar<Arc<[TVar<u64>]>> = stm.new_tvar(Arc::from([stm.new_tvar(1u64)]));
        assert_eq!(lookup(&stm, &table), Some(1));
        let point_reads = stm.stats().point_reads;
        let answered = AtomicBool::new(false);
        let (direct, value) = std::thread::scope(|s| {
            let reader = stm.run(TxParams::new(Semantics::Irrevocable), |tx| {
                let bucket = table.read(tx)?[0].clone();
                bucket.write(tx, 2)?; // eager: the bucket's committed head is 2 now
                let reader = s.spawn(|| {
                    let direct = lookup(&stm, &table);
                    let value = direct.unwrap_or_else(|| {
                        stm.run(TxParams::new(Semantics::elastic()), |tx| {
                            table.read(tx)?[0].read(tx)
                        })
                    });
                    answered.store(true, Ordering::SeqCst);
                    (direct, value)
                });
                // Until the reader has gone round the gate's wait loop —
                // it is held behind this era — or, wrongly, has answered.
                while stm.gate().sample_waits.load(Ordering::SeqCst) == 0
                    && !answered.load(Ordering::SeqCst)
                {
                    std::thread::yield_now();
                }
                assert!(!answered.load(Ordering::SeqCst), "no answer while the era is open");
                Ok(reader)
            });
            reader.join().expect("reader panicked")
        });
        assert_eq!(direct, None, "the direct read never answers inside an era");
        assert_eq!(value, 2, "the fallback answers after the close");
        assert_eq!(stm.stats().point_reads, point_reads, "a fallback is not a point read");
    }
}

//! Commit/abort accounting.
//!
//! Counters are sharded per thread: each thread records into its own
//! cache-padded slot (assigned via `shard.rs`) and [`StmStats::snapshot`]
//! aggregates across shards. A commit therefore never fetch-adds a
//! *globally shared* cache line — the seed's single padded counter block
//! serialized every commit at high core counts. Reading while
//! transactions run yields a consistent-enough snapshot for reporting
//! (exact totals are only guaranteed quiescently).

use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::semantics::Semantics;
use crate::shard::current_thread_index;

/// Number of counter shards. Power of two; threads beyond this share
/// shards (still correct — the counters are atomic — merely less
/// parallel).
const STAT_SHARDS: usize = 32;

/// One thread stripe's counters. Plain (unpadded) atomics inside one
/// padded block: a thread touches only its own block.
#[derive(Debug, Default)]
struct StatShard {
    commits: AtomicU64,
    aborts_read_conflict: AtomicU64,
    aborts_locked: AtomicU64,
    aborts_validation: AtomicU64,
    aborts_elastic_cut: AtomicU64,
    aborts_capacity: AtomicU64,
    aborts_unavailable: AtomicU64,
    aborts_user_retry: AtomicU64,
    elastic_cuts: AtomicU64,
    extensions: AtomicU64,
    irrevocable_upgrades: AtomicU64,
    irrevocable_commits: AtomicU64,
    boxed_writes: AtomicU64,
    commits_durable: AtomicU64,
    group_commit_batches: AtomicU64,
    fsyncs: AtomicU64,
    wal_bytes: AtomicU64,
    wait_gate_ns: AtomicU64,
    wait_arbitrate_ns: AtomicU64,
    wait_clock_ns: AtomicU64,
    wal_wait_ns: AtomicU64,
    point_reads: AtomicU64,
}

impl StatShard {
    fn counters(&self) -> [&AtomicU64; 22] {
        [
            &self.commits,
            &self.aborts_read_conflict,
            &self.aborts_locked,
            &self.aborts_validation,
            &self.aborts_elastic_cut,
            &self.aborts_capacity,
            &self.aborts_unavailable,
            &self.aborts_user_retry,
            &self.elastic_cuts,
            &self.extensions,
            &self.irrevocable_upgrades,
            &self.irrevocable_commits,
            &self.boxed_writes,
            &self.commits_durable,
            &self.group_commit_batches,
            &self.fsyncs,
            &self.wal_bytes,
            &self.wait_gate_ns,
            &self.wait_arbitrate_ns,
            &self.wait_clock_ns,
            &self.wal_wait_ns,
            &self.point_reads,
        ]
    }
}

/// Sharded counter block owned by an [`crate::Stm`].
#[derive(Debug)]
pub struct StmStats {
    shards: Box<[CachePadded<StatShard>]>,
}

impl Default for StmStats {
    fn default() -> Self {
        Self { shards: (0..STAT_SHARDS).map(|_| CachePadded::new(StatShard::default())).collect() }
    }
}

impl StmStats {
    /// This thread's home shard.
    #[inline]
    fn shard(&self) -> &StatShard {
        &self.shards[current_thread_index() & (STAT_SHARDS - 1)]
    }

    pub(crate) fn record_commit(&self) {
        self.shard().commits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one descriptor-free read that returned its answer (see
    /// [`crate::Stm::read_direct`]). Not an attempt: it is neither a
    /// commit nor an abort, and a read that falls back is counted as
    /// the transaction it then runs.
    #[inline]
    pub(crate) fn record_point_read(&self) {
        self.shard().point_reads.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_irrevocable_commit(&self) {
        let s = self.shard();
        s.irrevocable_commits.fetch_add(1, Ordering::Relaxed);
        s.commits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one abort, classified by [`crate::error::AbortCause`]
    /// (the `semantics` of the aborted attempt decides whether a
    /// read-time conflict is a *cut* or plain validation). The
    /// validation cause keeps the finer read-time vs commit-time split
    /// in two counters.
    pub(crate) fn record_abort(&self, abort: crate::Abort, semantics: Semantics) {
        use crate::error::AbortCause;
        let s = self.shard();
        let ctr = match abort.cause(semantics) {
            None => return, // Cancel is not an abort
            Some(AbortCause::Cut) => &s.aborts_elastic_cut,
            Some(AbortCause::LockConflict) => &s.aborts_locked,
            Some(AbortCause::Capacity) => &s.aborts_capacity,
            Some(AbortCause::Unavailable) => &s.aborts_unavailable,
            Some(AbortCause::Other) => &s.aborts_user_retry,
            Some(AbortCause::Validation) => match abort {
                crate::Abort::ReadConflict { .. } => &s.aborts_read_conflict,
                _ => &s.aborts_validation,
            },
        };
        ctr.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` elastic cuts in one add (no-op when `n == 0`).
    pub(crate) fn record_cuts(&self, n: u64) {
        if n > 0 {
            self.shard().elastic_cuts.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record `n` read-version extensions in one add (no-op when
    /// `n == 0`).
    pub(crate) fn record_extensions(&self, n: u64) {
        if n > 0 {
            self.shard().extensions.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_irrevocable_upgrade(&self) {
        self.shard().irrevocable_upgrades.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one buffered write whose payload exceeded the inline
    /// budget and took the `Box<dyn Any>` slow path (an allocation plus
    /// an erased destructor per buffered write). A steadily growing
    /// count on a hot path means a value type should be redesigned to
    /// fit [`crate::INLINE_WRITE_WORDS`] — typically by `Arc`-boxing
    /// the large part, as `polytm-kv`'s `Value` does.
    pub(crate) fn record_boxed_write(&self) {
        self.shard().boxed_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Record durability work (see [`crate::Stm::record_durable`]): a
    /// group-commit leader reports its whole batch in one call, so the
    /// counters cost nothing on unbatched paths.
    pub(crate) fn record_durable(&self, commits: u64, batches: u64, fsyncs: u64, wal_bytes: u64) {
        let s = self.shard();
        if commits > 0 {
            s.commits_durable.fetch_add(commits, Ordering::Relaxed);
        }
        if batches > 0 {
            s.group_commit_batches.fetch_add(batches, Ordering::Relaxed);
        }
        if fsyncs > 0 {
            s.fsyncs.fetch_add(fsyncs, Ordering::Relaxed);
        }
        if wal_bytes > 0 {
            s.wal_bytes.fetch_add(wal_bytes, Ordering::Relaxed);
        }
    }

    /// Record an attempt's accumulated wait nanoseconds (see the
    /// `wait_*` snapshot fields). Each add is skipped when zero, so
    /// attempts that never waited — the common case — touch nothing.
    pub(crate) fn record_waits(&self, gate_ns: u64, arbitrate_ns: u64, clock_ns: u64) {
        if gate_ns | arbitrate_ns | clock_ns == 0 {
            return;
        }
        let s = self.shard();
        if gate_ns > 0 {
            s.wait_gate_ns.fetch_add(gate_ns, Ordering::Relaxed);
        }
        if arbitrate_ns > 0 {
            s.wait_arbitrate_ns.fetch_add(arbitrate_ns, Ordering::Relaxed);
        }
        if clock_ns > 0 {
            s.wait_clock_ns.fetch_add(clock_ns, Ordering::Relaxed);
        }
    }

    /// Record time a committer spent blocked on WAL durability (the
    /// leader's wait for siblings + fsync as seen from the waiting
    /// side).
    pub(crate) fn record_wal_wait(&self, ns: u64) {
        if ns > 0 {
            self.shard().wal_wait_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Aggregate all shards into one snapshot.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut out = StatsSnapshot::default();
        for shard in self.shards.iter() {
            // Zipped against counters() so the counter list lives in
            // exactly one place; a mismatch is a compile error here.
            let dst: [&mut u64; 22] = [
                &mut out.commits,
                &mut out.aborts_read_conflict,
                &mut out.aborts_locked,
                &mut out.aborts_validation,
                &mut out.aborts_elastic_cut,
                &mut out.aborts_capacity,
                &mut out.aborts_unavailable,
                &mut out.aborts_user_retry,
                &mut out.elastic_cuts,
                &mut out.extensions,
                &mut out.irrevocable_upgrades,
                &mut out.irrevocable_commits,
                &mut out.boxed_writes,
                &mut out.commits_durable,
                &mut out.group_commit_batches,
                &mut out.fsyncs,
                &mut out.wal_bytes,
                &mut out.wait_gate_ns,
                &mut out.wait_arbitrate_ns,
                &mut out.wait_clock_ns,
                &mut out.wal_wait_ns,
                &mut out.point_reads,
            ];
            for (src, dst) in shard.counters().iter().zip(dst) {
                *dst += src.load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Reset all counters to zero (between benchmark phases).
    pub fn reset(&self) {
        for shard in self.shards.iter() {
            for c in shard.counters() {
                c.store(0, Ordering::Relaxed);
            }
        }
    }
}

/// Point-in-time copy of the [`StmStats`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)] // field names are self-describing counter labels
pub struct StatsSnapshot {
    pub commits: u64,
    pub aborts_read_conflict: u64,
    pub aborts_locked: u64,
    pub aborts_validation: u64,
    pub aborts_elastic_cut: u64,
    pub aborts_capacity: u64,
    pub aborts_unavailable: u64,
    pub aborts_user_retry: u64,
    pub elastic_cuts: u64,
    pub extensions: u64,
    pub irrevocable_upgrades: u64,
    pub irrevocable_commits: u64,
    pub boxed_writes: u64,
    pub commits_durable: u64,
    pub group_commit_batches: u64,
    pub fsyncs: u64,
    pub wal_bytes: u64,
    pub wait_gate_ns: u64,
    pub wait_arbitrate_ns: u64,
    pub wait_clock_ns: u64,
    pub wal_wait_ns: u64,
    /// Descriptor-free reads ([`crate::Stm::read_direct`]) that
    /// answered without a transaction. Outside the conservation law
    /// `attempts == commits + aborts + cancels`: a point read is no
    /// attempt, and one that falls back is counted as its transaction.
    pub point_reads: u64,
}

impl StatsSnapshot {
    /// Total nanoseconds transaction attempts spent waiting inside the
    /// STM (era gate + arbitrated lock waits + contention backoff) —
    /// polybench's `core.stm_wait_ns_per_commit` numerator.
    pub fn stm_wait_ns(&self) -> u64 {
        self.wait_gate_ns + self.wait_arbitrate_ns + self.wait_clock_ns
    }
    /// Total aborts across all causes.
    pub fn aborts(&self) -> u64 {
        self.aborts_read_conflict
            + self.aborts_locked
            + self.aborts_validation
            + self.aborts_elastic_cut
            + self.aborts_capacity
            + self.aborts_unavailable
            + self.aborts_user_retry
    }

    /// The five contention causes as `(label, count)` pairs, in the
    /// order the bench rows report them: lock-conflict (a location lock
    /// held by another transaction), validation (read-time or
    /// commit-time read-set validation under non-elastic semantics),
    /// cut (an elastic window that could not absorb a conflicting
    /// update), capacity (the snapshot registry had no free slot to
    /// protect a bound), unavailable (snapshot history truncated past
    /// an unprotected bound). User retries are deliberately excluded:
    /// they are workload logic, not contention.
    pub fn aborts_by_cause(&self) -> [(&'static str, u64); 5] {
        [
            ("lock-conflict", self.aborts_locked),
            ("validation", self.aborts_read_conflict + self.aborts_validation),
            ("cut", self.aborts_elastic_cut),
            ("capacity", self.aborts_capacity),
            ("unavailable", self.aborts_unavailable),
        ]
    }

    /// Aborts per commit; 0.0 when nothing committed.
    pub fn abort_ratio(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.aborts() as f64 / self.commits as f64
        }
    }

    /// Difference of two snapshots (for per-phase accounting).
    pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            commits: self.commits - earlier.commits,
            aborts_read_conflict: self.aborts_read_conflict - earlier.aborts_read_conflict,
            aborts_locked: self.aborts_locked - earlier.aborts_locked,
            aborts_validation: self.aborts_validation - earlier.aborts_validation,
            aborts_elastic_cut: self.aborts_elastic_cut - earlier.aborts_elastic_cut,
            aborts_capacity: self.aborts_capacity - earlier.aborts_capacity,
            aborts_unavailable: self.aborts_unavailable - earlier.aborts_unavailable,
            aborts_user_retry: self.aborts_user_retry - earlier.aborts_user_retry,
            elastic_cuts: self.elastic_cuts - earlier.elastic_cuts,
            extensions: self.extensions - earlier.extensions,
            irrevocable_upgrades: self.irrevocable_upgrades - earlier.irrevocable_upgrades,
            irrevocable_commits: self.irrevocable_commits - earlier.irrevocable_commits,
            boxed_writes: self.boxed_writes - earlier.boxed_writes,
            commits_durable: self.commits_durable - earlier.commits_durable,
            group_commit_batches: self.group_commit_batches - earlier.group_commit_batches,
            fsyncs: self.fsyncs - earlier.fsyncs,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
            wait_gate_ns: self.wait_gate_ns - earlier.wait_gate_ns,
            wait_arbitrate_ns: self.wait_arbitrate_ns - earlier.wait_arbitrate_ns,
            wait_clock_ns: self.wait_clock_ns - earlier.wait_clock_ns,
            wal_wait_ns: self.wal_wait_ns - earlier.wal_wait_ns,
            point_reads: self.point_reads - earlier.point_reads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Abort;

    #[test]
    fn commit_and_abort_counting() {
        let s = StmStats::default();
        s.record_commit();
        s.record_commit();
        s.record_abort(Abort::ReadConflict { addr: 0 }, Semantics::Opaque);
        s.record_abort(Abort::Locked { addr: 0, owner: 0 }, Semantics::Opaque);
        s.record_abort(Abort::ValidationFailed { addr: 0 }, Semantics::Opaque);
        let snap = s.snapshot();
        assert_eq!(snap.commits, 2);
        assert_eq!(snap.aborts(), 3);
        assert!((snap.abort_ratio() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn elastic_read_conflicts_count_as_cut_aborts() {
        let s = StmStats::default();
        s.record_abort(Abort::ReadConflict { addr: 0 }, Semantics::elastic());
        s.record_abort(Abort::ReadConflict { addr: 0 }, Semantics::Opaque);
        // Commit-time validation stays validation even when elastic.
        s.record_abort(Abort::ValidationFailed { addr: 0 }, Semantics::elastic());
        let snap = s.snapshot();
        assert_eq!(snap.aborts_elastic_cut, 1);
        assert_eq!(snap.aborts_read_conflict, 1);
        assert_eq!(snap.aborts_validation, 1);
        assert_eq!(snap.aborts(), 3);
    }

    #[test]
    fn cause_groups_cover_the_contention_buckets() {
        let s = StmStats::default();
        s.record_abort(Abort::Locked { addr: 0, owner: 1 }, Semantics::Opaque);
        s.record_abort(Abort::ReadConflict { addr: 0 }, Semantics::Opaque);
        s.record_abort(Abort::ValidationFailed { addr: 0 }, Semantics::Opaque);
        s.record_abort(Abort::ReadConflict { addr: 0 }, Semantics::elastic());
        s.record_abort(Abort::SnapshotUnavailable { addr: 0 }, Semantics::Snapshot);
        s.record_abort(Abort::SnapshotCapacity { addr: 0 }, Semantics::Snapshot);
        s.record_abort(Abort::Retry, Semantics::Opaque);
        let by_cause = s.snapshot().aborts_by_cause();
        assert_eq!(
            by_cause,
            [
                ("lock-conflict", 1),
                ("validation", 2),
                ("cut", 1),
                ("capacity", 1),
                ("unavailable", 1)
            ]
        );
        // User retries are in the total but not a contention cause.
        assert_eq!(s.snapshot().aborts(), 7);
    }

    #[test]
    fn cancel_is_not_an_abort() {
        let s = StmStats::default();
        s.record_abort(Abort::Cancel, Semantics::Opaque);
        assert_eq!(s.snapshot().aborts(), 0);
    }

    #[test]
    fn cuts_extensions_and_upgrades() {
        let s = StmStats::default();
        s.record_cuts(3);
        s.record_cuts(0);
        s.record_extensions(2);
        s.record_extensions(0);
        s.record_irrevocable_upgrade();
        s.record_irrevocable_commit();
        let snap = s.snapshot();
        assert_eq!(snap.elastic_cuts, 3);
        assert_eq!(snap.extensions, 2);
        assert_eq!(snap.irrevocable_upgrades, 1);
        assert_eq!(snap.irrevocable_commits, 1);
        assert_eq!(snap.commits, 1);
    }

    #[test]
    fn delta_and_reset() {
        let s = StmStats::default();
        s.record_commit();
        let first = s.snapshot();
        s.record_commit();
        s.record_abort(Abort::Retry, Semantics::Opaque);
        let second = s.snapshot();
        let d = second.delta_since(&first);
        assert_eq!(d.commits, 1);
        assert_eq!(d.aborts_user_retry, 1);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn point_reads_are_counted_apart_from_commits() {
        let s = StmStats::default();
        s.record_point_read();
        s.record_point_read();
        let snap = s.snapshot();
        assert_eq!(snap.point_reads, 2);
        assert_eq!(snap.commits, 0, "a point read is not a commit");
        assert_eq!(snap.delta_since(&StatsSnapshot::default()).point_reads, 2);
        s.reset();
        assert_eq!(s.snapshot().point_reads, 0);
    }

    #[test]
    fn boxed_writes_are_counted_and_reset() {
        let s = StmStats::default();
        s.record_boxed_write();
        s.record_boxed_write();
        assert_eq!(s.snapshot().boxed_writes, 2);
        let d = s.snapshot().delta_since(&StatsSnapshot::default());
        assert_eq!(d.boxed_writes, 2);
        s.reset();
        assert_eq!(s.snapshot().boxed_writes, 0);
    }

    #[test]
    fn durability_bucket_batches_and_resets() {
        let s = StmStats::default();
        // A group-commit leader reporting a 3-commit batch, then a
        // solo commit's own fsync.
        s.record_durable(3, 1, 1, 96);
        s.record_durable(1, 1, 1, 32);
        let snap = s.snapshot();
        assert_eq!(snap.commits_durable, 4);
        assert_eq!(snap.group_commit_batches, 2);
        assert_eq!(snap.fsyncs, 2);
        assert_eq!(snap.wal_bytes, 128);
        let d = s.snapshot().delta_since(&snap);
        assert_eq!(d.commits_durable, 0);
        assert_eq!(d.wal_bytes, 0);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn abort_ratio_of_empty_snapshot_is_zero() {
        assert_eq!(StatsSnapshot::default().abort_ratio(), 0.0);
    }

    #[test]
    fn wait_counters_accumulate_and_reset() {
        let s = StmStats::default();
        s.record_waits(0, 0, 0); // the common no-wait case touches nothing
        s.record_waits(100, 20, 0);
        s.record_waits(0, 0, 7);
        s.record_wal_wait(500);
        s.record_wal_wait(0);
        let snap = s.snapshot();
        assert_eq!(snap.wait_gate_ns, 100);
        assert_eq!(snap.wait_arbitrate_ns, 20);
        assert_eq!(snap.wait_clock_ns, 7);
        assert_eq!(snap.stm_wait_ns(), 127);
        assert_eq!(snap.wal_wait_ns, 500);
        let d = s.snapshot().delta_since(&snap);
        assert_eq!(d.stm_wait_ns(), 0);
        assert_eq!(d.wal_wait_ns, 0);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn counts_from_many_threads_aggregate() {
        let s = StmStats::default();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        s.record_commit();
                    }
                    s.record_abort(Abort::Retry, Semantics::Opaque);
                });
            }
        });
        let snap = s.snapshot();
        assert_eq!(snap.commits, 800);
        assert_eq!(snap.aborts_user_retry, 8);
    }
}

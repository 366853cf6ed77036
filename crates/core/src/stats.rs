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

use crate::error::{AbortCause, AbortCounts};
use crate::semantics::Semantics;
use crate::shard::current_thread_index;

/// Number of counter shards. Power of two; threads beyond this share
/// shards (still correct — the counters are atomic — merely less
/// parallel).
const STAT_SHARDS: usize = 32;

/// The STM's counters, each declared once: a [`StatsSnapshot`] field
/// and its key in the metrics plane (relative to the prefix the
/// `polytm-obs` `StmMetrics` source is registered under, conventionally
/// `stm`). The list generates the per-thread [`StatShard`], the shard
/// walk, [`StatsSnapshot`], [`StatsSnapshot::counters`] and
/// [`StatsSnapshot::delta_since`], so a new counter is one line here
/// plus the `record_*` method that bumps it.
macro_rules! stm_counters {
    ($($(#[$doc:meta])* $field:ident => $key:literal,)+) => {
        /// One thread stripe's counters. Plain (unpadded) atomics inside
        /// one padded block: a thread touches only its own block.
        #[derive(Debug, Default)]
        struct StatShard {
            $($field: AtomicU64,)+
        }

        impl StatShard {
            /// Add this shard's counts into `out`.
            fn add_to(&self, out: &mut StatsSnapshot) {
                $(out.$field += self.$field.load(Ordering::Relaxed);)+
            }

            fn reset(&self) {
                $(self.$field.store(0, Ordering::Relaxed);)+
            }
        }

        /// Number of counters in a [`StatsSnapshot`].
        const COUNTERS: usize = [$(stringify!($field)),+].len();

        /// Point-in-time copy of the [`StmStats`] counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        #[allow(missing_docs)] // field names are self-describing counter labels
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $field: u64,)+
        }

        impl StatsSnapshot {
            /// Every counter as `(metrics key, count)`, in declaration
            /// order — what `StmMetrics` exports.
            pub fn counters(&self) -> [(&'static str, u64); COUNTERS] {
                [$(($key, self.$field)),+]
            }

            /// Difference of two snapshots (for per-phase accounting).
            pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot { $($field: self.$field - earlier.$field,)+ }
            }
        }
    };
}

stm_counters! {
    commits => "commits",
    /// Read-time conflicts under non-elastic semantics (one half of
    /// [`AbortCause::Validation`]).
    aborts_read_conflict => "aborts.read_conflict",
    aborts_locked => "aborts.locked",
    /// Commit-time read-set validation failures (the other half of
    /// [`AbortCause::Validation`]).
    aborts_validation => "aborts.validation",
    aborts_elastic_cut => "aborts.cut",
    aborts_capacity => "aborts.capacity",
    aborts_unavailable => "aborts.unavailable",
    aborts_user_retry => "aborts.other",
    elastic_cuts => "cuts",
    extensions => "extensions",
    irrevocable_upgrades => "upgrades.irrevocable",
    irrevocable_commits => "commits.irrevocable",
    boxed_writes => "boxed_writes",
    commits_durable => "wal.commits_durable",
    group_commit_batches => "wal.group_commit_batches",
    fsyncs => "wal.fsyncs",
    wal_bytes => "wal.bytes",
    wait_gate_ns => "wait.gate_ns",
    wait_arbitrate_ns => "wait.arbitrate_ns",
    wait_clock_ns => "wait.clock_ns",
    wal_wait_ns => "wal.wait_ns",
    /// Descriptor-free reads ([`crate::Stm::read_direct`]) that
    /// answered without a transaction. Outside the conservation law
    /// `attempts == commits + aborts + cancels`: a point read is no
    /// attempt, and one that falls back is counted as its transaction.
    point_reads => "point_reads",
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

    /// Record one abort, classified by [`AbortCause`]
    /// (the `semantics` of the aborted attempt decides whether a
    /// read-time conflict is a *cut* or plain validation). The
    /// validation cause keeps the finer read-time vs commit-time split
    /// in two counters.
    pub(crate) fn record_abort(&self, abort: crate::Abort, semantics: Semantics) {
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
            shard.add_to(&mut out);
        }
        out
    }

    /// Reset all counters to zero (between benchmark phases).
    pub fn reset(&self) {
        for shard in self.shards.iter() {
            shard.reset();
        }
    }
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
        self.aborts_by_cause().total()
    }

    /// Aborts split by [`AbortCause`]; validation sums the read-time
    /// and commit-time counters.
    pub fn aborts_by_cause(&self) -> AbortCounts {
        AbortCounts::from_fn(|cause| match cause {
            AbortCause::LockConflict => self.aborts_locked,
            AbortCause::Validation => self.aborts_read_conflict + self.aborts_validation,
            AbortCause::Cut => self.aborts_elastic_cut,
            AbortCause::Capacity => self.aborts_capacity,
            AbortCause::Unavailable => self.aborts_unavailable,
            AbortCause::Other => self.aborts_user_retry,
        })
    }

    /// Aborts per commit; 0.0 when nothing committed.
    pub fn abort_ratio(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.aborts() as f64 / self.commits as f64
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
            by_cause.iter().collect::<Vec<_>>(),
            [
                (AbortCause::LockConflict, 1),
                (AbortCause::Validation, 2),
                (AbortCause::Cut, 1),
                (AbortCause::Capacity, 1),
                (AbortCause::Unavailable, 1),
                (AbortCause::Other, 1)
            ]
        );
        // User retries are in the total but not a contention cause.
        assert_eq!(s.snapshot().aborts(), 7);
        assert_eq!(by_cause.contention(), 6);
    }

    #[test]
    fn every_counter_has_a_distinct_metrics_key() {
        let mut keys = StatsSnapshot::default().counters().map(|(key, _)| key);
        keys.sort_unstable();
        assert!(keys.windows(2).all(|w| w[0] != w[1]), "duplicate key in {keys:?}");
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

//! Per-class telemetry: cheap sharded counters fed by
//! [`polytm::SemanticsSource::observe`] and aggregated on the epoch
//! cadence.
//!
//! Layout mirrors the core's `StmStats`: each thread lands in one
//! cache-padded shard (no globally shared line on the record path); the
//! controller sums across shards when an epoch closes. One extra word
//! per class is *sticky*: the has-ever-written bit, which is never
//! reset — it backs the hard safety rule that a writing class is never
//! assigned snapshot semantics.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crossbeam_utils::CachePadded;
use polytm::{current_thread_index, AbortCause, AbortCounts, RunTelemetry};

/// Number of distinct class slots the advisor tracks. Class ids fold
/// into this table (`id % MAX_CLASSES`); colliding classes share a slot
/// — merely less precise, never unsafe (the sticky write bit is
/// conservative under sharing).
pub const MAX_CLASSES: usize = 32;

/// Counter shards (power of two).
const SHARDS: usize = 8;

// Indices into a cell: five run counters, then one abort count per
// cause at `C_ABORTS + cause index`.
const C_RUNS: usize = 0;
const C_RETRIES: usize = 1;
const C_READS: usize = 2;
const C_WRITES: usize = 3;
const C_UPGRADES: usize = 4;
const C_ABORTS: usize = 5;

/// Counters per (shard, class) cell.
const COUNTERS: usize = C_ABORTS + AbortCause::ALL.len();

/// One shard: a dense `[class][counter]` block. A thread touches only
/// its own shard, so the padding boundary is the shard, not the cell.
struct Shard {
    cells: [[AtomicU64; COUNTERS]; MAX_CLASSES],
}

impl Shard {
    fn new() -> Self {
        Self { cells: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))) }
    }
}

/// The sharded per-class telemetry table.
pub struct ClassTable {
    shards: Box<[CachePadded<Shard>]>,
    /// Sticky: has this class *ever* been observed writing? Never
    /// cleared (epoch resets must not forget a write — the Snapshot
    /// safety rule is a lifetime invariant, not a per-epoch one).
    wrote: [AtomicBool; MAX_CLASSES],
}

impl Default for ClassTable {
    fn default() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| CachePadded::new(Shard::new())).collect(),
            wrote: std::array::from_fn(|_| AtomicBool::new(false)),
        }
    }
}

impl ClassTable {
    /// Fold a class id into the table.
    pub fn slot(class: polytm::ClassId) -> usize {
        class.0 as usize % MAX_CLASSES
    }

    /// Record one completed run's telemetry.
    pub fn record(&self, t: &RunTelemetry) {
        let slot = Self::slot(t.class);
        let cell = &self.shards[current_thread_index() % SHARDS].cells[slot];
        cell[C_RUNS].fetch_add(1, Ordering::Relaxed);
        if t.retries > 0 {
            cell[C_RETRIES].fetch_add(u64::from(t.retries), Ordering::Relaxed);
        }
        for (cause, n) in t.aborts.iter() {
            if n > 0 {
                cell[C_ABORTS + cause.index()].fetch_add(n, Ordering::Relaxed);
            }
        }
        if t.reads > 0 {
            cell[C_READS].fetch_add(t.reads, Ordering::Relaxed);
        }
        if t.writes > 0 {
            cell[C_WRITES].fetch_add(t.writes, Ordering::Relaxed);
        }
        if t.upgraded {
            cell[C_UPGRADES].fetch_add(1, Ordering::Relaxed);
        }
        if t.wrote && !self.wrote[slot].load(Ordering::Relaxed) {
            // Checked first so steady-state writing classes read a
            // shared line instead of storing to it on every run; only
            // the first writer's store publishes (no ordering guarantee
            // for later writers' counters — readers sum the counters
            // Relaxed and treat them as approximate anyway). The bit is
            // allowed to win races: extra safety, never less.
            self.wrote[slot].store(true, Ordering::Release);
        }
    }

    /// Sticky has-ever-written bit for a class slot.
    pub fn has_written(&self, slot: usize) -> bool {
        self.wrote[slot].load(Ordering::Acquire)
    }

    /// Aggregate a class slot across shards (monotonic lifetime totals).
    pub fn totals(&self, slot: usize) -> ClassTotals {
        let mut out = [0u64; COUNTERS];
        for shard in self.shards.iter() {
            for (acc, ctr) in out.iter_mut().zip(shard.cells[slot].iter()) {
                *acc += ctr.load(Ordering::Relaxed);
            }
        }
        ClassTotals {
            runs: out[C_RUNS],
            retries: out[C_RETRIES],
            aborts: AbortCounts::from_fn(|c| out[C_ABORTS + c.index()]),
            reads: out[C_READS],
            writes: out[C_WRITES],
            upgrades: out[C_UPGRADES],
        }
    }
}

/// Aggregated counters for one class (lifetime totals, or an epoch
/// delta via [`ClassTotals::delta_since`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)] // field names are self-describing counter labels
pub struct ClassTotals {
    pub runs: u64,
    pub retries: u64,
    pub aborts: AbortCounts,
    pub reads: u64,
    pub writes: u64,
    pub upgrades: u64,
}

impl ClassTotals {
    /// Contention aborts per run (user retries excluded); 0.0 when no
    /// runs.
    pub fn abort_ratio(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.aborts.contention() as f64 / self.runs as f64
        }
    }

    /// Mean observed reads per run (0 when no runs).
    pub fn avg_reads(&self) -> u64 {
        self.reads.checked_div(self.runs).unwrap_or(0)
    }

    /// Counter-wise difference (for per-epoch accounting).
    pub fn delta_since(&self, earlier: &ClassTotals) -> ClassTotals {
        ClassTotals {
            runs: self.runs - earlier.runs,
            retries: self.retries - earlier.retries,
            aborts: self.aborts.delta_since(&earlier.aborts),
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            upgrades: self.upgrades - earlier.upgrades,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polytm::{ClassId, Semantics};

    fn telemetry(class: u16) -> RunTelemetry {
        // Build through the public surface: a RunTelemetry is Copy with
        // all-public fields.
        let mut t = sample();
        t.class = ClassId(class);
        t
    }

    fn sample() -> RunTelemetry {
        let mut aborts = AbortCounts::default();
        aborts[AbortCause::LockConflict] = 1;
        aborts[AbortCause::Validation] = 1;
        RunTelemetry {
            class: ClassId(0),
            requested: Semantics::elastic(),
            committed_semantics: Semantics::elastic(),
            retries: 2,
            aborts,
            reads: 10,
            writes: 1,
            wrote: true,
            upgraded: false,
            read_only_violation: false,
        }
    }

    #[test]
    fn record_and_aggregate() {
        let table = ClassTable::default();
        for _ in 0..5 {
            table.record(&telemetry(3));
        }
        let t = table.totals(3);
        assert_eq!(t.runs, 5);
        assert_eq!(t.retries, 10);
        assert_eq!(t.aborts[AbortCause::LockConflict], 5);
        assert_eq!(t.aborts.contention(), 10);
        assert_eq!(t.avg_reads(), 10);
        assert!((t.abort_ratio() - 2.0).abs() < 1e-12);
        assert_eq!(table.totals(4), ClassTotals::default(), "other classes untouched");
    }

    #[test]
    fn wrote_bit_is_sticky() {
        let table = ClassTable::default();
        assert!(!table.has_written(1));
        let mut t = telemetry(1);
        t.wrote = false;
        table.record(&t);
        assert!(!table.has_written(1));
        t.wrote = true;
        table.record(&t);
        assert!(table.has_written(1));
        // Later read-only observations never clear it.
        t.wrote = false;
        table.record(&t);
        assert!(table.has_written(1));
    }

    #[test]
    fn class_ids_fold_into_the_table() {
        assert_eq!(ClassTable::slot(ClassId(0)), 0);
        assert_eq!(ClassTable::slot(ClassId(MAX_CLASSES as u16)), 0);
        assert_eq!(ClassTable::slot(ClassId(MAX_CLASSES as u16 + 3)), 3);
        let table = ClassTable::default();
        table.record(&telemetry(MAX_CLASSES as u16 + 3));
        assert_eq!(table.totals(3).runs, 1);
    }

    #[test]
    fn delta_since_subtracts_counterwise() {
        let table = ClassTable::default();
        table.record(&telemetry(0));
        let first = table.totals(0);
        table.record(&telemetry(0));
        let second = table.totals(0);
        let d = second.delta_since(&first);
        assert_eq!(d.runs, 1);
        assert_eq!(d.reads, 10);
    }

    #[test]
    fn concurrent_records_aggregate() {
        let table = ClassTable::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        table.record(&telemetry(7));
                    }
                });
            }
        });
        assert_eq!(table.totals(7).runs, 400);
    }
}

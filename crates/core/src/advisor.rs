//! The semantics-advisor hook: per-attempt parameter injection.
//!
//! The paper's polymorphism pitch is that the *caller* knows the right
//! semantics per operation. A feedback-driven runtime can go further and
//! *learn* it: this module defines the interface such a runtime plugs
//! into [`crate::Stm`] — the STM core stays policy-free, the policy
//! lives in an external [`SemanticsSource`] (see the `polytm-adaptive`
//! crate).
//!
//! The contract:
//!
//! * A run tagged with a [`ClassId`] (via
//!   [`crate::TxParams::with_class`]) consults the installed source
//!   before **every attempt** ([`SemanticsSource::plan`]) and reports
//!   accumulated telemetry once, when the run commits
//!   ([`SemanticsSource::observe`]; cancelled runs report nothing).
//! * The runtime never lets a plan weaken its own guarantees: an
//!   attempt already upgraded to [`Semantics::Irrevocable`] stays
//!   irrevocable; a plan never serves semantics weaker than the
//!   caller's request (no elastic plan for a requested-opaque class,
//!   no narrowed elastic window) except [`Semantics::Snapshot`]'s
//!   atomic view; and a class that turns out to write under an
//!   injected [`Semantics::Snapshot`] is transparently re-run under
//!   the caller's requested semantics (the `ReadOnlyViolation`
//!   fallback) — a misbehaving advisor can cost throughput, never
//!   safety.

use crate::cm::ConflictArbiter;
use crate::error::AbortCounts;
use crate::semantics::Semantics;

/// Identity of a transaction *class*: a group of `Stm::run` call sites
/// expected to behave alike (same access shape, same conflict profile).
/// Classes are cheap dense indices — an advisor typically folds them
/// into a small fixed table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u16);

impl ClassId {
    /// A class id (const-friendly).
    pub const fn new(id: u16) -> Self {
        ClassId(id)
    }
}

/// What a [`SemanticsSource`] prescribes for one attempt.
#[derive(Debug, Clone, Copy)]
pub struct AttemptPlan {
    /// Semantics to run the attempt under.
    pub semantics: Semantics,
    /// Contention-manager override for the attempt (conflict decisions
    /// *and* the post-abort backoff curve); `None` keeps the
    /// [`crate::StmConfig`] arbiter.
    pub arbiter: Option<ConflictArbiter>,
}

impl AttemptPlan {
    /// A plan that keeps the configured arbiter.
    pub const fn semantics(semantics: Semantics) -> Self {
        Self { semantics, arbiter: None }
    }
}

/// Telemetry for one completed `Stm::run` call (all attempts folded
/// together), reported to [`SemanticsSource::observe`].
#[derive(Debug, Clone, Copy)]
pub struct RunTelemetry {
    /// The class the run was tagged with.
    pub class: ClassId,
    /// Semantics the caller requested (before any advisor injection).
    pub requested: Semantics,
    /// Semantics of the attempt that finally committed.
    pub committed_semantics: Semantics,
    /// Aborted attempts before the commit.
    pub retries: u32,
    /// The run's aborted attempts, by cause.
    pub aborts: AbortCounts,
    /// Reads observed by the committed attempt: live read-set entries,
    /// elastically cut entries, and snapshot/irrevocable direct reads —
    /// the attempt's traversal length, which is what a classifier needs
    /// (a plain live count would shrink under the very semantics that
    /// cut or bypass the read set).
    pub reads: u64,
    /// Buffered writes of the committed attempt. Irrevocable attempts
    /// write eagerly, so this undercounts them; pair with
    /// [`RunTelemetry::wrote`] for the write/read-only distinction.
    pub writes: u64,
    /// True when the run performed any write — buffered, eager, or one
    /// that aborted with `ReadOnlyViolation` under an injected
    /// [`Semantics::Snapshot`]. The advisor's Snapshot safety rule keys
    /// off this.
    pub wrote: bool,
    /// True when the run was upgraded to [`Semantics::Irrevocable`]
    /// (nested request or liveness fallback).
    pub upgraded: bool,
    /// True when an injected Snapshot was rejected by a write and the
    /// run fell back to the requested semantics.
    pub read_only_violation: bool,
}

impl RunTelemetry {
    pub(crate) fn new(class: ClassId, requested: Semantics) -> Self {
        Self {
            class,
            requested,
            committed_semantics: requested,
            retries: 0,
            aborts: AbortCounts::default(),
            reads: 0,
            writes: 0,
            wrote: false,
            upgraded: false,
            read_only_violation: false,
        }
    }

    /// Fold one abort into the per-cause counts, classified by the
    /// same [`crate::AbortCause`] split as [`crate::StatsSnapshot`].
    pub(crate) fn record_abort(&mut self, abort: crate::Abort, semantics: Semantics) {
        // Cancel has no cause: it is not an abort.
        if let Some(cause) = abort.cause(semantics) {
            self.aborts[cause] += 1;
        }
    }
}

/// A feedback-driven source of per-attempt transaction parameters.
///
/// Implementations must be cheap: [`SemanticsSource::plan`] runs on
/// every attempt of every classified transaction (a table lookup, not a
/// decision procedure) and [`SemanticsSource::observe`] once per run
/// (a handful of striped counter increments). Heavy lifting belongs on
/// an epoch cadence inside the implementation.
pub trait SemanticsSource: Send + Sync {
    /// Parameters for attempt number `retries` (0 = first attempt) of a
    /// run whose caller requested `requested` semantics.
    fn plan(&self, class: ClassId, retries: u32, requested: Semantics) -> AttemptPlan;

    /// One run of `class` finished; `telemetry` folds all its attempts.
    fn observe(&self, telemetry: &RunTelemetry);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Abort;

    #[test]
    fn telemetry_classifies_abort_causes() {
        let mut t = RunTelemetry::new(ClassId(3), Semantics::Opaque);
        t.record_abort(Abort::Locked { addr: 0, owner: 1 }, Semantics::Opaque);
        t.record_abort(Abort::ReadConflict { addr: 0 }, Semantics::Opaque);
        t.record_abort(Abort::ReadConflict { addr: 0 }, Semantics::elastic());
        t.record_abort(Abort::ValidationFailed { addr: 0 }, Semantics::elastic());
        t.record_abort(Abort::SnapshotUnavailable { addr: 0 }, Semantics::Snapshot);
        t.record_abort(Abort::SnapshotCapacity { addr: 0 }, Semantics::Snapshot);
        t.record_abort(Abort::Retry, Semantics::Opaque);
        t.record_abort(Abort::Cancel, Semantics::Opaque);
        assert_eq!(t.aborts.iter().map(|(_, n)| n).collect::<Vec<_>>(), [1, 2, 1, 1, 1, 1]);
    }

    #[test]
    fn class_ids_are_ordered_value_types() {
        assert!(ClassId(1) < ClassId(2));
        assert_eq!(ClassId::new(7), ClassId(7));
    }
}

//! Transaction outcomes: abort causes and cancellation.

use std::fmt;

/// The result type returned by transactional operations and by the user
/// closure passed to [`crate::Stm::run`].
///
/// `Err(Abort::...)` values produced by the library are *control flow*:
/// [`crate::Stm::run`] intercepts them and re-executes the closure.
/// Propagate them with `?`.
pub type TxResult<T> = Result<T, Abort>;

/// Why a transaction attempt cannot commit.
///
/// Except for [`Abort::Cancel`], every variant causes
/// [`crate::Stm::run`]/[`crate::Stm::try_run`] to retry the transaction
/// (possibly after contention-manager backoff, possibly upgraded to
/// irrevocable semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Abort {
    /// A read observed a location whose version is newer than the
    /// transaction's read version and the semantics-specific repair
    /// (opaque extension, elastic cut) was not possible.
    ReadConflict {
        /// Address of the conflicting location (stable for the lifetime of
        /// the `TVar`; useful for diagnostics and contention management).
        addr: usize,
    },
    /// A read or commit-time lock acquisition found the location locked by
    /// another transaction and the contention manager chose to abort us.
    Locked {
        /// Address of the contended location.
        addr: usize,
        /// Birth timestamp of the lock owner, if known (0 when unknown).
        owner: u64,
    },
    /// Commit-time validation of the read set failed.
    ValidationFailed {
        /// Address of the first invalid read-set entry.
        addr: usize,
    },
    /// A snapshot transaction required a version older than the history
    /// retained by the location. With watermark-based retention this
    /// only happens to snapshots whose bound was not registered (see
    /// [`Abort::SnapshotCapacity`]) or to nested snapshots piggybacking
    /// on a parent without a slot.
    SnapshotUnavailable {
        /// Address of the location whose history was too short.
        addr: usize,
    },
    /// A snapshot transaction could not protect its read bound because
    /// the snapshot registry was full, and a location's history was
    /// truncated past the bound.
    SnapshotCapacity {
        /// Address of the location whose history was too short.
        addr: usize,
    },
    /// A write was attempted under read-only semantics
    /// ([`crate::Semantics::Snapshot`]).
    ReadOnlyViolation,
    /// The user requested a retry (e.g. a condition is not yet satisfied).
    /// The runtime re-executes the transaction after a backoff.
    Retry,
    /// The transaction requests restart under irrevocable semantics
    /// (raised internally when a nested block needs a pessimistic parent).
    RestartIrrevocable,
    /// The user cancelled the transaction; surfaces as
    /// [`Canceled`] from [`crate::Stm::try_run`].
    Cancel,
}

/// The cause buckets aborts are classified into, declared once: every
/// count split by cause ([`crate::StatsSnapshot::aborts_by_cause`], the
/// advisor's [`crate::RunTelemetry`] and per-class metrics, the trace's
/// `TXN_ABORT` events and their replay) is an [`AbortCounts`] indexed by
/// this enum, and every cause name is [`AbortCause::name`].
///
/// The discriminant is the stable trace code ([`AbortCause::code`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum AbortCause {
    /// A location lock held by another transaction.
    LockConflict = 1,
    /// Read validation (a read-time conflict under non-elastic
    /// semantics, or commit-time read-set validation).
    Validation = 2,
    /// An elastic window that could not absorb a conflicting update
    /// (read-time conflict under elastic semantics).
    Cut = 3,
    /// A runtime resource limit: the snapshot registry had no free slot
    /// to protect a snapshot's read bound, and the unprotected bound
    /// fell behind truncation.
    Capacity = 4,
    /// A snapshot needed a version older than the history retained for
    /// the location (the bound was never registry-protected).
    Unavailable = 5,
    /// Not contention: user retries, read-only violations, irrevocable
    /// restarts.
    Other = 6,
}

impl AbortCause {
    /// Every cause, in trace-code order.
    pub const ALL: [AbortCause; 6] = [
        AbortCause::LockConflict,
        AbortCause::Validation,
        AbortCause::Cut,
        AbortCause::Capacity,
        AbortCause::Unavailable,
        AbortCause::Other,
    ];

    /// Stable wire code (the `sub` of `TXN_ABORT` trace events); never
    /// renumbered, so older trace dumps keep decoding.
    pub const fn code(self) -> u8 {
        self as u8
    }

    /// The cause a trace code names; `None` for a code no cause has.
    pub fn from_code(code: u8) -> Option<AbortCause> {
        Self::ALL.into_iter().find(|c| c.code() == code)
    }

    /// The cause's name in trace replays and metric keys.
    pub const fn name(self) -> &'static str {
        match self {
            AbortCause::LockConflict => "lock-conflict",
            AbortCause::Validation => "validation",
            AbortCause::Cut => "cut",
            AbortCause::Capacity => "capacity",
            AbortCause::Unavailable => "unavailable",
            AbortCause::Other => "other",
        }
    }

    /// Position in [`AbortCause::ALL`] (and in an [`AbortCounts`]), for
    /// tables that keep one slot per cause.
    pub const fn index(self) -> usize {
        self as usize - 1
    }
}

/// One count per [`AbortCause`], indexed by the cause.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct AbortCounts([u64; AbortCause::ALL.len()]);

impl AbortCounts {
    /// Counts filled in cause by cause.
    pub fn from_fn(mut count: impl FnMut(AbortCause) -> u64) -> Self {
        Self(AbortCause::ALL.map(&mut count))
    }

    /// `(cause, count)` pairs in [`AbortCause::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (AbortCause, u64)> + '_ {
        AbortCause::ALL.into_iter().zip(self.0)
    }

    /// Aborts across every cause.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Contention aborts: every cause except [`AbortCause::Other`]
    /// (user retries and the like are workload logic, not contention).
    pub fn contention(&self) -> u64 {
        self.total() - self[AbortCause::Other]
    }

    /// Cause-wise difference (for per-phase accounting).
    pub fn delta_since(&self, earlier: &AbortCounts) -> AbortCounts {
        Self::from_fn(|c| self[c] - earlier[c])
    }
}

impl std::ops::Index<AbortCause> for AbortCounts {
    type Output = u64;
    fn index(&self, cause: AbortCause) -> &u64 {
        &self.0[cause.index()]
    }
}

impl std::ops::IndexMut<AbortCause> for AbortCounts {
    fn index_mut(&mut self, cause: AbortCause) -> &mut u64 {
        &mut self.0[cause.index()]
    }
}

/// Prints as a map from cause name to count.
impl fmt::Debug for AbortCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter().map(|(c, n)| (c.name(), n))).finish()
    }
}

impl Abort {
    /// True when the runtime should transparently retry the transaction.
    pub fn is_retryable(self) -> bool {
        !matches!(self, Abort::Cancel)
    }

    /// Contention cause of this abort in a transaction running under
    /// `semantics`; `None` for [`Abort::Cancel`], which is not counted
    /// as an abort at all.
    pub fn cause(self, semantics: crate::Semantics) -> Option<AbortCause> {
        Some(match self {
            Abort::ReadConflict { .. } if matches!(semantics, crate::Semantics::Elastic { .. }) => {
                AbortCause::Cut
            }
            Abort::ReadConflict { .. } | Abort::ValidationFailed { .. } => AbortCause::Validation,
            Abort::Locked { .. } => AbortCause::LockConflict,
            Abort::SnapshotUnavailable { .. } => AbortCause::Unavailable,
            Abort::SnapshotCapacity { .. } => AbortCause::Capacity,
            Abort::Retry | Abort::ReadOnlyViolation | Abort::RestartIrrevocable => {
                AbortCause::Other
            }
            Abort::Cancel => return None,
        })
    }

    /// The shared-memory address this abort implicates, if the variant
    /// carries one — the attribution key trace analyzers use to rank
    /// the hottest contended locations.
    pub fn addr(self) -> Option<usize> {
        match self {
            Abort::ReadConflict { addr }
            | Abort::Locked { addr, .. }
            | Abort::ValidationFailed { addr }
            | Abort::SnapshotUnavailable { addr }
            | Abort::SnapshotCapacity { addr } => Some(addr),
            Abort::ReadOnlyViolation | Abort::Retry | Abort::RestartIrrevocable | Abort::Cancel => {
                None
            }
        }
    }
}

impl fmt::Display for Abort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Abort::ReadConflict { addr } => write!(f, "read conflict at {addr:#x}"),
            Abort::Locked { addr, owner } => {
                write!(f, "location {addr:#x} locked by transaction {owner}")
            }
            Abort::ValidationFailed { addr } => {
                write!(f, "read-set validation failed at {addr:#x}")
            }
            Abort::SnapshotUnavailable { addr } => {
                write!(f, "snapshot version unavailable at {addr:#x}")
            }
            Abort::SnapshotCapacity { addr } => {
                write!(f, "snapshot registry at capacity; version unavailable at {addr:#x}")
            }
            Abort::ReadOnlyViolation => write!(f, "write attempted in a read-only transaction"),
            Abort::Retry => write!(f, "user-requested retry"),
            Abort::RestartIrrevocable => write!(f, "restart requested under irrevocable semantics"),
            Abort::Cancel => write!(f, "transaction cancelled by user"),
        }
    }
}

impl std::error::Error for Abort {}

/// Returned by [`crate::Stm::try_run`] when the closure cancelled the
/// transaction via [`Abort::Cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Canceled;

impl fmt::Display for Canceled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transaction cancelled")
    }
}

impl std::error::Error for Canceled {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_is_not_retryable_everything_else_is() {
        assert!(!Abort::Cancel.is_retryable());
        for a in [
            Abort::ReadConflict { addr: 1 },
            Abort::Locked { addr: 1, owner: 2 },
            Abort::ValidationFailed { addr: 1 },
            Abort::SnapshotUnavailable { addr: 1 },
            Abort::SnapshotCapacity { addr: 1 },
            Abort::ReadOnlyViolation,
            Abort::Retry,
            Abort::RestartIrrevocable,
        ] {
            assert!(a.is_retryable(), "{a} must be retryable");
        }
    }

    #[test]
    fn cause_classifies_by_variant_and_semantics() {
        use crate::Semantics;
        assert_eq!(
            Abort::ReadConflict { addr: 0 }.cause(Semantics::elastic()),
            Some(AbortCause::Cut)
        );
        assert_eq!(
            Abort::ReadConflict { addr: 0 }.cause(Semantics::Opaque),
            Some(AbortCause::Validation)
        );
        assert_eq!(
            Abort::ValidationFailed { addr: 0 }.cause(Semantics::elastic()),
            Some(AbortCause::Validation),
            "commit-time validation stays validation even when elastic"
        );
        assert_eq!(
            Abort::Locked { addr: 0, owner: 1 }.cause(Semantics::Opaque),
            Some(AbortCause::LockConflict)
        );
        assert_eq!(
            Abort::SnapshotUnavailable { addr: 0 }.cause(Semantics::Snapshot),
            Some(AbortCause::Unavailable)
        );
        assert_eq!(
            Abort::SnapshotCapacity { addr: 0 }.cause(Semantics::Snapshot),
            Some(AbortCause::Capacity)
        );
        assert_eq!(Abort::Retry.cause(Semantics::Opaque), Some(AbortCause::Other));
        assert_eq!(Abort::Cancel.cause(Semantics::Opaque), None);
    }

    #[test]
    fn labels_are_distinct() {
        let mut names = AbortCause::ALL.map(AbortCause::name);
        names.sort_unstable();
        assert!(names.windows(2).all(|w| w[0] != w[1]), "duplicate cause name in {names:?}");
        for (i, c) in AbortCause::ALL.into_iter().enumerate() {
            assert_eq!((AbortCause::from_code(c.code()), c.index()), (Some(c), i));
        }
        assert_eq!((AbortCause::from_code(0), AbortCause::from_code(7)), (None, None));
    }

    #[test]
    fn abort_counts_index_by_cause() {
        let mut counts = AbortCounts::default();
        counts[AbortCause::LockConflict] = 4;
        counts[AbortCause::Capacity] = 2;
        counts[AbortCause::Other] = 1;
        assert_eq!((counts.total(), counts.contention()), (7, 6));
        let later = AbortCounts::from_fn(|c| counts[c] + 1);
        assert_eq!(later.delta_since(&counts), AbortCounts::from_fn(|_| 1));
        assert_eq!(
            format!("{counts:?}"),
            "{\"lock-conflict\": 4, \"validation\": 0, \"cut\": 0, \"capacity\": 2, \
             \"unavailable\": 0, \"other\": 1}"
        );
    }

    #[test]
    fn display_is_informative() {
        let s = format!("{}", Abort::Locked { addr: 0xbeef, owner: 7 });
        assert!(s.contains("0xbeef") && s.contains('7'));
    }
}

//! # polytm — polymorphic software transactional memory
//!
//! This crate implements *transaction polymorphism* as introduced by
//! Gramoli and Guerraoui, "Brief Announcement: Transaction Polymorphism"
//! (SPAA 2011): a transactional memory in which every transaction is
//! started with a **semantic parameter** and transactions with *distinct*
//! semantics run concurrently over the same shared data.
//!
//! The paper's `start(p)` is [`Stm::run`]/[`Stm::try_run`] with a
//! [`TxParams`] carrying a [`Semantics`]:
//!
//! * [`Semantics::Opaque`] — the paper's default `def`: a monomorphic,
//!   opaque transaction (TL2-style: per-location versioned locks, a global
//!   version clock, commit-time write locking and read-set validation).
//! * [`Semantics::Elastic`] — the paper's `weak`: an *elastic* transaction
//!   (Felber, Gramoli, Guerraoui, DISC 2009). Before its first write, an
//!   elastic transaction may be **cut** into pieces: older reads fall out
//!   of a sliding window and are no longer validated, so search-style
//!   traversals tolerate concurrent updates behind them. This is exactly
//!   what accepts the paper's Figure 1 schedule.
//! * [`Semantics::Snapshot`] — a multi-versioned read-only transaction
//!   that reads from a bounded per-location version chain and never
//!   aborts on read-write conflicts.
//! * [`Semantics::Irrevocable`] — a pessimistic transaction that is
//!   guaranteed to commit (it serializes against all commits through a
//!   global revocation gate), useful for transactions with side effects
//!   and as the liveness fallback after repeated aborts.
//!
//! Shared data lives in registers ([`TCell`]s), each owned by a [`TVar`]
//! or, many at once, by a [`TVarArray`]. Values are published as immutable,
//! epoch-reclaimed version nodes, so readers never observe torn values and
//! the implementation contains no data races (see `DESIGN.md` at the
//! repository root for the memory-safety argument).
//!
//! ## Quick start
//!
//! ```
//! use polytm::{Stm, Semantics, TxParams};
//!
//! let stm = Stm::new();
//! let x = stm.new_tvar(0i64);
//! let y = stm.new_tvar(10i64);
//!
//! // A monomorphic (default-semantics) transaction, as in the paper's
//! // `start(def)`:
//! let sum = stm.run(TxParams::new(Semantics::Opaque), |tx| {
//!     let a = x.read(tx)?;
//!     let b = y.read(tx)?;
//!     x.write(tx, a + 1)?;
//!     Ok(a + b)
//! });
//! assert_eq!(sum, 10);
//!
//! // The paper's `start(weak)`: an elastic search that tolerates
//! // concurrent updates behind its sliding read window.
//! let found = stm.run(TxParams::new(Semantics::elastic()), |tx| {
//!     Ok(x.read(tx)? + y.read(tx)?)
//! });
//! assert_eq!(found, 11);
//! ```
//!
//! ## Nesting
//!
//! The paper (§3) asks what the semantics of a *nested* transaction should
//! be: the requested parameter, the parent's semantics, or the strongest
//! of the two. All three composition policies are implemented; see
//! [`NestingPolicy`] and [`Transaction::nested`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod advisor;
pub mod clock;
pub mod cm;
pub mod error;
pub(crate) mod gate;
pub mod redo;
pub mod semantics;
pub mod shard;
pub(crate) mod snapreg;
pub mod stats;
pub mod stm;
pub mod trace;
pub mod tvar;
pub(crate) mod txdesc;
pub mod txn;
pub(crate) mod varcore;

pub use advisor::{AttemptPlan, ClassId, RunTelemetry, SemanticsSource};
pub use clock::GlobalClock;
pub use cm::{
    Backoff, ConflictArbiter, ConflictDecision, ContentionManager, Greedy, Suicide, TxMeta,
};
pub use error::{Abort, AbortCause, AbortCounts, Canceled, TxResult};
pub use redo::{CommitInfo, RedoSink};
pub use semantics::{NestingPolicy, Semantics, Strength};
pub use shard::current_thread_index;
pub use stats::{StatsSnapshot, StmStats};
pub use stm::{Stm, StmConfig, TxParams};
pub use trace::{TraceEvent, TraceSink};
pub use tvar::{PeekGuard, TCell, TVar, TVarArray, TxValue};
pub use txdesc::INLINE_WRITE_WORDS;
pub use txn::Transaction;

/// True when buffered transactional writes of `T` use the descriptor's
/// allocation-free inline payload storage. Payloads larger than
/// [`INLINE_WRITE_WORDS`] machine words (or over-aligned ones) are
/// boxed per write — an allocation plus an erased destructor on the
/// commit hot path, counted in [`StatsSnapshot::boxed_writes`]. Value
/// types meant for hot write paths should be designed to satisfy this
/// predicate, typically by `Arc`-boxing their large part (one pointer
/// inline; the bytes shared).
pub const fn write_payload_fits_inline<T: TxValue>() -> bool {
    txdesc::fits_inline::<T>()
}

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::{
        Abort, NestingPolicy, Semantics, Stm, StmConfig, TVar, Transaction, TxParams, TxResult,
    };
}

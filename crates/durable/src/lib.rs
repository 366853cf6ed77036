//! # polytm-durable — the durability wing
//!
//! The rest of this workspace keeps every committed state in memory;
//! this crate makes the KV store's commits survive crashes, without
//! giving up the polymorphic STM's commit path:
//!
//! * [`frame`] — CRC-framed, length-prefixed redo entries and the
//!   checkpoint file layout; decoding follows the longest-valid-prefix
//!   rule.
//! * [`storage`] — the [`Storage`] plane: real files ([`RealFs`]) and a
//!   deterministic fault simulator ([`FaultFs`]) that injects seeded
//!   crash points, torn tail writes, and short fsyncs.
//! * [`wal`] — the redo-only write-ahead log with leader/follower group
//!   commit, sync/async durability modes, backpressure, and a poisoned
//!   ([`DurabilityLost`]) degradation path.
//! * [`store`] — [`DurableKv`]: logged transactions over
//!   [`polytm_kv::KvStore`], checkpoint + log truncation keyed off the
//!   MVCC snapshot machinery, and crash recovery back to the committed
//!   prefix.
//!
//! The correctness contract, the group-commit protocol, and the fault
//! matrix the torture tests sweep are documented in `DESIGN.md` §9.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod frame;
pub mod storage;
pub mod store;
pub mod wal;

pub use error::DurabilityLost;
pub use storage::{FaultFs, RealFs, Storage};
pub use store::{DurabilityOutcome, DurableKv, DurableKvConfig, DurableTxn, Staged, SNAP_NAME};
pub use wal::{Durability, Wal, WalConfig};

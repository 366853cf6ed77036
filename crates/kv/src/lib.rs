//! # polytm-kv — a sharded transactional key-value store
//!
//! Every workload the rest of this workspace measures is set-shaped
//! (membership on ordered/hash sets). Production serving systems run
//! *record stores*: point reads and writes, compare-and-set,
//! multi-record transactions, range and prefix scans — the YCSB
//! workload class. This crate builds that store on the polymorphic STM
//! and keeps the paper's thesis front and center: each operation kind
//! runs under the weakest semantics that is *sound for its shape* —
//! elastic lookups, opaque fully-validated writes, snapshot scans — and
//! the classed constructor hands each kind to the adaptive advisor as
//! its own transaction class.
//!
//! * [`KvStore`] — N cache-padded shards, each a hash-indexed table of
//!   `TVar`-backed buckets (one register per bucket, records in an
//!   immutable array behind it); `get`/`put`/`delete`/`cas`/
//!   [`KvStore::modify`], snapshot [`KvStore::scan_range`]/
//!   [`KvStore::scan_prefix`], batched [`KvStore::multi_put`] ingest,
//!   atomic multi-key cross-shard [`KvStore::txn`] blocks, and
//!   [`KvStore::warm`], a cache hint for a batch of upcoming point
//!   reads.
//! * [`Value`] — the record payload: inline up to 14 bytes,
//!   `Arc`-shared beyond, so every transactional write of a value —
//!   whatever the record size — stays inside the STM's 3-word inline
//!   write-payload budget (no per-write boxing; see
//!   `StatsSnapshot::boxed_writes`).
//!
//! See `DESIGN.md` §7 for the sharding layout, the cross-shard commit
//! argument and the scan-consistency contract per backend.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod store;
pub mod value;

pub use store::{KvConfig, KvParams, KvStore, KvTxn, KV_CLASSES};
pub use value::{Value, INLINE_VALUE_BYTES};

//! # polytm-bench — the experiment harness
//!
//! One entry point per experiment in `DESIGN.md` (E1–E10 and the
//! single-thread `micro` table), each regenerating the corresponding
//! table/figure. Run them all with
//! `cargo run --release -p polytm-bench --bin tables -- all`, or a single
//! one with e.g. `-- e4`. The other binaries under `src/bin` are the
//! scenario matrix (`scenarios`, one JSON line per cell) and the trace
//! replay (`traceview` over [`replay`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adapters;
pub mod experiments;
pub mod replay;

pub use adapters::{
    make_hash_impl, make_list_impl, AdaptiveHashSet, AdaptiveListSet, Backend, BackendInstance,
    CoarseLockKv, Family, KvBackend, KvBackendInstance, KvStoreTable, ServerBackend,
    ServerStoreInstance, Shape, BACKENDS, HASH_IMPLS, KV_BACKENDS, LIST_IMPLS, SERVER_BACKENDS,
};

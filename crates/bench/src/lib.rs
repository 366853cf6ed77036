//! # polytm-bench — the experiment harness
//!
//! One entry point per experiment in `DESIGN.md` (E1–E10), each
//! regenerating the corresponding table/figure. Run them all with
//! `cargo run --release -p polytm-bench --bin tables -- all`, or a single
//! one with e.g. `-- e4`. The binaries under `src/bin` are the scenario
//! matrix (`scenarios`), the committed perf trajectory (`perfsuite`) and
//! the trace and row tooling (`traceview` over [`replay`], `benchlint`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adapters;
pub mod experiments;
pub mod replay;
pub mod report;

pub use adapters::{
    make_hash_impl, make_list_impl, AdaptiveHashSet, AdaptiveListSet, Backend, BackendInstance,
    CoarseLockKv, Family, KvBackend, KvBackendInstance, KvStoreTable, ServerBackend,
    ServerStoreInstance, Shape, BACKENDS, HASH_IMPLS, KV_BACKENDS, LIST_IMPLS, SERVER_BACKENDS,
};

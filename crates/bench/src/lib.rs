//! # polytm-bench — the experiment harness
//!
//! One entry point per experiment in `DESIGN.md` (E1–E10 and the
//! single-thread `micro` table), each regenerating the corresponding
//! table/figure. Run them all with
//! `cargo run --release -p polytm-bench --bin tables -- all`, or a single
//! one with e.g. `-- e4`. The other binary under `src/bin` is the trace
//! replay (`traceview` over [`replay`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adapters;
pub mod experiments;
pub mod replay;

pub use adapters::{make_hash_impl, make_list_impl, HASH_IMPLS, LIST_IMPLS};

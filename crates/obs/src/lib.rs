//! # polytm-obs — the observability plane
//!
//! Always-available, low-overhead visibility into the polymorphic STM
//! stack, in two halves:
//!
//! * **Event tracing** — [`RingTracer`] implements the core's
//!   [`polytm::trace::TraceSink`] hook with one lock-free
//!   [`EventRing`] per emitting thread. Install it once per process
//!   ([`RingTracer::install`]) and every layer's emit sites (the
//!   transaction loop, the advisor's epoch controller, the WAL's
//!   group-commit leader, the server's coalescer) stream fixed-size
//!   32-byte events into per-thread rings that shed-and-count instead
//!   of blocking. [`TraceDump`] persists a drain in a strict binary
//!   format the `traceview` replay (crates/bench) decodes offline.
//!
//! * **Unified metrics** — [`MetricsRegistry`] flattens every layer's
//!   counters (StmStats, ServerStats, durability, advisor class
//!   tables) into one canonical dot-separated key space, exported as a
//!   plain-text exposition dump and over the wire via the PTM1 `STATS`
//!   opcode.
//!
//! `DESIGN.md` §11 carries the overhead and non-tearing arguments;
//! `docs/RUNBOOK.md` ("Reading the metrics plane") is the operator's
//! guide to the key table and traceview recipes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod dump;
pub mod registry;
pub mod ring;
pub mod tracer;

pub use dump::{RingDump, TraceDump};
pub use registry::{
    decode_entries, encode_entries, fn_source, MetricsRegistry, MetricsSource, StmMetrics,
};
pub use ring::EventRing;
pub use tracer::RingTracer;

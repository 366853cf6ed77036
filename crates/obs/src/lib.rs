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
//!   plain-text exposition dump, over the wire via the PTM1 `STATS`
//!   opcode, and — through the [`Sampler`] thread — as per-second
//!   rates in the same key space.
//!
//! * **Slow-request flight recorder** — [`flight`] retains the worst
//!   request spans (coalesced commits whose wall time crossed a
//!   threshold) in a tiny bounded ring that survives runs long after
//!   the event rings wrapped. Its health counters feed the same
//!   metrics plane.
//!
//! `DESIGN.md` §11 carries the overhead and non-tearing arguments;
//! `docs/RUNBOOK.md` ("Reading the metrics plane") is the operator's
//! guide to the key table and traceview recipes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod dump;
pub mod flight;
pub mod registry;
pub mod ring;
pub mod sampler;
pub mod tracer;

pub use dump::{RingDump, TraceDump};
pub use flight::{FlightRecorder, SlowSpan};
pub use registry::{
    decode_entries, encode_entries, fn_source, MetricsRegistry, MetricsSource, StmMetrics,
};
pub use ring::EventRing;
pub use sampler::Sampler;
pub use tracer::RingTracer;

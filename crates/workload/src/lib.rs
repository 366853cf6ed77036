//! # polytm-workload — deterministic workload generation & measurement
//!
//! The experiment tables (crate `polytm-bench`) sweep set
//! implementations across thread counts and update ratios. This crate
//! holds the pieces that are independent of any particular structure:
//!
//! * [`rng`] — a tiny splitmix64/xoshiro-style PRNG. Deliberately not the
//!   `rand` crate: benchmark workloads must be bit-for-bit reproducible
//!   across runs and platforms, and the generator sits on the measured
//!   hot path, so it must be branch-light and allocation-free.
//! * [`keys`] — uniform key streams over a bounded key space;
//! * [`mix`] — operation mixes (`contains`/`insert`/`remove` ratios);
//! * [`driver`] — the [`driver::ConcurrentSet`] abstraction plus a
//!   multi-threaded timed driver with prefill, warmup and a measured
//!   window;
//! * [`table`] — the fixed-width ASCII table the experiment reports
//!   print.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod driver;
pub mod keys;
pub mod mix;
pub mod rng;
pub mod table;

pub use driver::{run_workload, ConcurrentSet, Measurement, WorkloadSpec};
pub use keys::KeyStream;
pub use mix::{OpKind, OpMix};
pub use rng::SplitMix64;
pub use table::Table;

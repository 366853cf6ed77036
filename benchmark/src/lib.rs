//! `polybench`: the repository's benchmark. See `README.md` beside this
//! crate for the workloads, the metrics and how to read them.

pub mod embedded;
pub mod estimate;
pub mod ladder;
pub mod modelfs;
pub mod procfs;
pub mod report;
pub mod rng;
pub mod run;
pub mod spans;
pub mod timed_store;
pub mod wire;
pub mod wire_bench;

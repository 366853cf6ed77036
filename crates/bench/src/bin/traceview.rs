//! Decode and replay a `polytm-obs` trace dump.
//!
//! ```text
//! cargo run --release -p polytm-bench --bin traceview -- /tmp/run.trace
//! cargo run --release -p polytm-bench --bin traceview -- /tmp/run.trace --top 20
//! cargo run --release -p polytm-bench --bin traceview -- /tmp/run.trace --deny-drops
//! ```
//!
//! The input is the `PTRC` ring-dump file a traced process writes: it
//! installs the tracer with `RingTracer::install`, runs (a server from
//! `Server::spawn`, say), then calls `tracer.drain().write_file(path)`. The output is the report
//! [`polytm_bench::replay`] builds in one pass over each ring:
//! per-class timelines, abort attribution by address, WAL group-commit
//! histograms, per-connection coalescing, advisor flips, and the
//! per-request waterfall — which layer (batch wait, STM gate/
//! arbitration/backoff, WAL, everything else) the p50/p99/p999 went
//! to — with its join-health counters.
//!
//! Flags:
//!
//! * `--deny-drops` — exit nonzero if the traced run shed any events
//!   (a dump with drops is an *incomplete* trace; CI uses this so a
//!   waterfall is never built from a stream with holes).
//! * `--top N` — widen the top-k lists (default 10).
//!
//! Exit status: `0` on a useful report; `1` when the dump is
//! unreadable, corrupt (bad magic, truncated, version mismatch,
//! trailing garbage) or contains no events at all; `2` on usage
//! errors; `3` when `--deny-drops` found shed events.

use polytm_bench::replay::{render, replay_dump};
use polytm_obs::TraceDump;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = match args.iter().find(|a| !a.starts_with("--")) {
        Some(p) => p.clone(),
        None => {
            eprintln!("usage: traceview <dump.trace> [--top N] [--deny-drops]");
            std::process::exit(2);
        }
    };
    let top: usize = args
        .iter()
        .position(|a| a == "--top")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    let deny_drops = args.iter().any(|a| a == "--deny-drops");

    let dump = match TraceDump::read_file(std::path::Path::new(&path)) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("traceview: {path}: {e}");
            std::process::exit(1);
        }
    };
    let report = replay_dump(&dump);
    if report.events == 0 {
        eprintln!(
            "traceview: {path}: dump decodes but holds no events ({} rings, capacity {}); \
             was the tracer installed before the run?",
            dump.rings.len(),
            dump.capacity
        );
        std::process::exit(1);
    }
    let dropped = dump.dropped_total();
    eprintln!(
        "traceview: {path}: {} rings (capacity {}), {} events, {} dropped",
        dump.rings.len(),
        dump.capacity,
        report.events,
        dropped
    );
    print!("{}", render(&report, top));
    if deny_drops && dropped > 0 {
        eprintln!(
            "traceview: {path}: {dropped} events dropped — trace is incomplete \
             (raise the ring capacity or shorten the traced window)"
        );
        std::process::exit(3);
    }
}

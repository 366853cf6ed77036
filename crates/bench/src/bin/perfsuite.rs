//! Reproducible perf harness: a fixed, pinned-duration subset of the
//! E4/E6/E9 workloads plus single-thread op-latency microbenches, written
//! as machine-readable rows to `BENCH_core.json`.
//!
//! Every row is `{rev, label, bench, threads, cores, ops_per_sec, abort_ratio}`;
//! the file is a JSON array with one row per line, so successive runs
//! (e.g. a "before" and an "after" of a perf PR) append rows and stay
//! trivially diffable. This file is the perf trajectory every later
//! performance PR is judged against.
//!
//! ```text
//! cargo run --release -p polytm-bench --bin perfsuite -- --label after
//! cargo run --release -p polytm-bench --bin perfsuite -- --quick --out /tmp/smoke.json
//! ```
//!
//! `--quick` shrinks every measured window so the whole suite finishes in
//! a few seconds (the CI `perf-smoke` job runs this mode; the numbers are
//! noisy but the harness itself is exercised end to end).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use polytm::{Semantics, Stm, StmConfig, TxParams};
use polytm_bench::make_hash_impl;
use polytm_bench::make_list_impl;
use polytm_bench::report::{append_rows, git_rev, BenchCli};
use polytm_structures::TxCounter;
use polytm_workload::{run_workload_with, KeyDist, OpMix, WorkloadSpec};

/// One output row of the suite.
struct Row {
    bench: &'static str,
    threads: usize,
    ops_per_sec: f64,
    abort_ratio: f64,
}

/// Measurement windows for the two modes.
struct Knobs {
    micro: Duration,
    sweep: Duration,
    warmup: Duration,
    threads: &'static [usize],
}

impl Knobs {
    fn new(quick: bool) -> Self {
        if quick {
            Self {
                micro: Duration::from_millis(200),
                sweep: Duration::from_millis(120),
                warmup: Duration::from_millis(25),
                threads: &[1, 2],
            }
        } else {
            Self {
                micro: Duration::from_millis(1500),
                sweep: Duration::from_millis(700),
                warmup: Duration::from_millis(150),
                threads: &[1, 2, 4],
            }
        }
    }
}

/// Run `op` single-threaded for `dur` and return completed ops/second.
fn time_ops(dur: Duration, warmup: Duration, mut op: impl FnMut()) -> f64 {
    let wstart = Instant::now();
    while wstart.elapsed() < warmup {
        op();
    }
    let start = Instant::now();
    let mut ops = 0u64;
    // Check the clock in batches so the timer read does not dominate
    // sub-microsecond operations.
    loop {
        for _ in 0..64 {
            op();
        }
        ops += 64;
        if start.elapsed() >= dur {
            break;
        }
    }
    ops as f64 / start.elapsed().as_secs_f64()
}

fn micro_rows(k: &Knobs, rows: &mut Vec<Row>) {
    // Transaction begin/commit floor under each begin-relevant semantics.
    for (bench, sem) in [
        ("st_empty_txn_opaque", Semantics::Opaque),
        ("st_empty_txn_irrevocable", Semantics::Irrevocable),
    ] {
        let stm = Stm::new();
        let ops = time_ops(k.micro, k.warmup, || {
            stm.run(TxParams::new(sem), |_tx| Ok(std::hint::black_box(0u64)));
        });
        rows.push(Row { bench, threads: 1, ops_per_sec: ops, abort_ratio: 0.0 });
    }

    // Per-read cost: a 32-read chain under the read-rule semantics.
    for (bench, sem) in [
        ("st_read32_opaque", Semantics::Opaque),
        ("st_read32_elastic8", Semantics::Elastic { window: 8 }),
        ("st_read32_snapshot", Semantics::Snapshot),
    ] {
        let stm = Stm::new();
        let vars: Vec<_> = (0..32).map(|i| stm.new_tvar(i as i64)).collect();
        let ops = time_ops(k.micro, k.warmup, || {
            stm.run(TxParams::new(sem), |tx| {
                let mut acc = 0i64;
                for v in &vars {
                    acc += v.read(tx)?;
                }
                Ok(std::hint::black_box(acc))
            });
        });
        rows.push(Row { bench, threads: 1, ops_per_sec: ops, abort_ratio: 0.0 });
    }

    // Per-write + commit cost: single-var RMW and a 16-location commit.
    {
        let stm = Stm::new();
        let x = stm.new_tvar(0u64);
        let ops = time_ops(k.micro, k.warmup, || {
            stm.run(TxParams::default(), |tx| x.modify(tx, |v| v + 1));
        });
        rows.push(Row { bench: "st_rmw_single", threads: 1, ops_per_sec: ops, abort_ratio: 0.0 });
    }
    {
        let stm = Stm::new();
        let vars: Vec<_> = (0..16).map(|_| stm.new_tvar(0i64)).collect();
        let ops = time_ops(k.micro, k.warmup, || {
            stm.run(TxParams::default(), |tx| {
                for v in &vars {
                    v.modify(tx, |x| x + 1)?;
                }
                Ok(())
            });
        });
        rows.push(Row {
            bench: "st_write16_commit",
            threads: 1,
            ops_per_sec: ops,
            abort_ratio: 0.0,
        });
    }
}

fn sweep_spec(k: &Knobs, threads: usize, key_space: u64, update_pct: u32) -> WorkloadSpec {
    WorkloadSpec {
        threads,
        key_space,
        // Prefill is done by hand before stats reset, so measured
        // abort ratios cover only the steady-state window.
        prefill: false,
        mix: OpMix::updates(update_pct).into(),
        dist: KeyDist::Uniform,
        scan_span: WorkloadSpec::default_scan_span(key_space),
        duration: k.sweep,
        warmup: k.warmup,
        record_latency: false,
        seed: 0xBE2C_0000 + u64::from(update_pct),
    }
}

/// E4-style: sorted-list set sweeps, elastic vs opaque per-op semantics.
fn e4_rows(k: &Knobs, rows: &mut Vec<Row>) {
    for (bench, name) in [("e4_list_elastic", "tx-elastic"), ("e4_list_opaque", "tx-opaque")] {
        for &threads in k.threads {
            let (set, stm) = make_list_impl(name);
            let stm = stm.expect("transactional impl carries an Stm");
            for key in (0..512).step_by(2) {
                set.insert(key);
            }
            // Stats reset at window start: abort_ratio then covers the
            // same interval as the throughput column.
            let m = run_workload_with(set.as_ref(), &sweep_spec(k, threads, 512, 20), || {
                stm.reset_stats()
            });
            let s = stm.stats();
            rows.push(Row {
                bench,
                threads,
                ops_per_sec: m.throughput,
                abort_ratio: s.abort_ratio(),
            });
        }
    }
}

/// E6-style: hash set under growth pressure (starts at 4 buckets).
fn e6_rows(k: &Knobs, rows: &mut Vec<Row>) {
    for &threads in k.threads {
        let (set, stm) = make_hash_impl("tx-hash-elastic", 4);
        let stm = stm.expect("transactional impl carries an Stm");
        let m = run_workload_with(
            set.as_ref(),
            &{
                let mut s = sweep_spec(k, threads, 8192, 50);
                s.prefill = true; // growth pressure IS the workload here
                s
            },
            || stm.reset_stats(),
        );
        let s = stm.stats();
        rows.push(Row {
            bench: "e6_hash_growth",
            threads,
            ops_per_sec: m.throughput,
            abort_ratio: s.abort_ratio(),
        });
    }
}

/// E9-style: snapshot scans against hot writers. `threads` counts the
/// writers; one scanner thread runs alongside, and the reported rate is
/// scans/second.
fn e9_rows(k: &Knobs, rows: &mut Vec<Row>) {
    for &threads in k.threads {
        let stm = Arc::new(Stm::with_config(StmConfig {
            irrevocable_fallback_after: None,
            ..StmConfig::default()
        }));
        let counter = TxCounter::new(Arc::clone(&stm), 16);
        stm.reset_stats();
        let stop = AtomicBool::new(false);
        let scans = AtomicU64::new(0);
        std::thread::scope(|s| {
            for w in 0..threads {
                let counter = &counter;
                let stop = &stop;
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        counter.add_for(w, 1);
                    }
                });
            }
            {
                let counter = &counter;
                let stop = &stop;
                let scans = &scans;
                let stm = &stm;
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let _ =
                            stm.run(TxParams::new(Semantics::Snapshot), |tx| counter.sum_in(tx));
                        scans.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            std::thread::sleep(k.sweep);
            stop.store(true, Ordering::Relaxed);
        });
        let s = stm.stats();
        rows.push(Row {
            bench: "e9_snapshot_scan",
            threads,
            ops_per_sec: scans.load(Ordering::Relaxed) as f64 / k.sweep.as_secs_f64(),
            abort_ratio: s.abort_ratio(),
        });
    }
}

fn render_row(rev: &str, label: &str, cores: usize, r: &Row) -> String {
    format!(
        "  {{\"rev\":\"{rev}\",\"label\":\"{label}\",\"bench\":\"{}\",\"threads\":{},\
         \"cores\":{cores},\"ops_per_sec\":{:.1},\"abort_ratio\":{:.5}}}",
        r.bench, r.threads, r.ops_per_sec, r.abort_ratio
    )
}

fn main() {
    let cli = BenchCli::parse("BENCH_core.json");
    let knobs = Knobs::new(cli.quick);
    let rev = git_rev();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfsuite: rev {rev}, label {:?}, mode {}, cores {cores}, out {}",
        cli.label,
        if cli.quick { "quick" } else { "full" },
        cli.out
    );

    let mut rows = Vec::new();
    micro_rows(&knobs, &mut rows);
    e4_rows(&knobs, &mut rows);
    e6_rows(&knobs, &mut rows);
    e9_rows(&knobs, &mut rows);

    for r in &rows {
        eprintln!(
            "  {:<28} t={:<2} {:>12.0} ops/s  abort_ratio {:.4}",
            r.bench, r.threads, r.ops_per_sec, r.abort_ratio
        );
    }
    let lines: Vec<String> = rows.iter().map(|r| render_row(&rev, &cli.label, cores, r)).collect();
    append_rows(&cli.out, &lines, cli.fresh);
    eprintln!("perfsuite: wrote {} rows to {}", lines.len(), cli.out);
}

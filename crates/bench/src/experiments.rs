//! E1–E10 and `micro`: one function per experiment in `DESIGN.md` §5,
//! each returning its rendered report.

use std::sync::Arc;
use std::time::{Duration, Instant};

use polytm::{
    Backoff, ConflictArbiter, Greedy, NestingPolicy, Semantics, Stm, StmConfig, Suicide, TxParams,
};
use polytm_durable::{DurableKv, DurableKvConfig, FaultFs};
use polytm_kv::{KvStore, Value};
use polytm_schedule::{
    accepts, check_theorem1, check_theorem2, figure1_interleaving, figure1_lock_schedule,
    figure1_program, replay, Synchronization,
};
use polytm_structures::{TxCounter, TxList, TxSkipList};
use polytm_workload::{run_workload, OpMix, Table, WorkloadSpec};

use crate::adapters::{make_hash_impl, make_list_impl, HASH_IMPLS, LIST_IMPLS};

/// Measurement profile: `quick` keeps the full suite under a minute;
/// set `POLYTM_BENCH_FULL=1` for longer, steadier windows.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Measured window per cell.
    pub duration: Duration,
    /// Warmup per cell.
    pub warmup: Duration,
    /// Thread counts swept.
    pub threads: Vec<usize>,
}

impl Profile {
    /// Profile from the environment (`POLYTM_BENCH_FULL=1` for the long
    /// version).
    pub fn from_env() -> Self {
        if std::env::var("POLYTM_BENCH_FULL").as_deref() == Ok("1") {
            Self {
                duration: Duration::from_millis(1000),
                warmup: Duration::from_millis(200),
                threads: vec![1, 2, 4, 8],
            }
        } else {
            Self {
                duration: Duration::from_millis(150),
                warmup: Duration::from_millis(30),
                threads: vec![1, 2, 4],
            }
        }
    }
}

fn spec(profile: &Profile, threads: usize, key_space: u64, update_pct: u32) -> WorkloadSpec {
    WorkloadSpec {
        threads,
        key_space,
        prefill: true,
        mix: OpMix::updates(update_pct),
        duration: profile.duration,
        warmup: profile.warmup,
        seed: 0xC0FF_EE00 + u64::from(update_pct),
    }
}

/// E1 — Figure 1: analytic acceptance, the lock schedule's discipline,
/// and the replay through the real STM.
pub fn e1_figure1() -> String {
    let program = figure1_program();
    let inter = figure1_interleaving();
    let mut out = String::new();
    out.push_str("E1: the paper's Figure 1 schedule\n\n");
    out.push_str(&inter.render(&program));
    out.push('\n');

    let mut t = Table::new(
        "acceptance of the Figure 1 schedule",
        &["synchronization", "analytic checker", "real implementation (replay)"],
    );
    for (sync, name) in [
        (Synchronization::LockBased, "lock-based"),
        (Synchronization::Monomorphic, "monomorphic (all def)"),
        (Synchronization::Polymorphic, "polymorphic (p1 weak)"),
    ] {
        let analytic =
            if accepts(&program, &inter, sync).accepted { "accepted" } else { "REJECTED" };
        let replayed = match sync {
            Synchronization::LockBased => {
                // The explicit lock schedule stands in for a replay: it is
                // executable iff its discipline validates.
                match figure1_lock_schedule().validate() {
                    Ok(()) => "executable (discipline ok)".to_string(),
                    Err(e) => format!("INVALID: {e:?}"),
                }
            }
            _ => {
                let r = replay(&program, &inter, sync).expect("replayable");
                if r.accepted {
                    "all committed".to_string()
                } else {
                    format!(
                        "p{} aborted",
                        r.first_failure.as_ref().map(|(p, _)| p + 1).unwrap_or(0)
                    )
                }
            }
        };
        t.row(&[name.to_string(), analytic.to_string(), replayed]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\npaper: accepted by lock-based and polymorphic transactions, \
         not by monomorphic transactions.\n",
    );
    out
}

/// E2 — Theorem 1 (lock-based ≻ monomorphic).
pub fn e2_theorem1() -> String {
    format!("E2: {}\n", check_theorem1())
}

/// E3 — Theorem 2 (polymorphic ≻ monomorphic).
pub fn e3_theorem2() -> String {
    format!("E3: {}\n", check_theorem2())
}

/// E4 — sorted-list throughput across implementations, sizes, update
/// ratios and thread counts.
pub fn e4_list_throughput(profile: &Profile) -> String {
    let mut t = Table::new(
        "E4: sorted-list set throughput (ops/s)",
        &["impl", "size", "update%", "threads", "throughput"],
    );
    for &size in &[64u64, 512] {
        for &updates in &[0u32, 10, 50] {
            for &threads in &profile.threads {
                for name in LIST_IMPLS {
                    let (set, _stm) = make_list_impl(name);
                    let m = run_workload(set.as_ref(), &spec(profile, threads, size, updates));
                    t.row(&[
                        name.to_string(),
                        size.to_string(),
                        updates.to_string(),
                        threads.to_string(),
                        format!("{:.0}", m.throughput),
                    ]);
                }
            }
        }
    }
    t.render()
}

/// E5 — abort/cut accounting: elastic vs opaque traversals under update
/// pressure.
pub fn e5_abort_rates(profile: &Profile) -> String {
    let mut t = Table::new(
        "E5: commit/abort statistics, list workload (updates 20%)",
        &["impl", "size", "threads", "commits", "aborts", "abort/commit", "cuts", "extensions"],
    );
    let threads = *profile.threads.last().unwrap_or(&2);
    for &size in &[64u64, 512] {
        for name in ["tx-elastic", "tx-opaque"] {
            let (set, stm) = make_list_impl(name);
            let stm = stm.expect("transactional impl");
            stm.reset_stats();
            let _ = run_workload(set.as_ref(), &spec(profile, threads, size, 20));
            let s = stm.stats();
            t.row(&[
                name.to_string(),
                size.to_string(),
                threads.to_string(),
                s.commits.to_string(),
                s.aborts().to_string(),
                format!("{:.4}", s.abort_ratio()),
                s.elastic_cuts.to_string(),
                s.extensions.to_string(),
            ]);
        }
    }
    t.render()
}

/// E6 — hash-set throughput with growth pressure (the §1 motivating
/// example: a table that resizes transactionally), against the coarse
/// lock.
pub fn e6_hash_throughput(profile: &Profile) -> String {
    let mut t = Table::new(
        "E6: hash set throughput under growth (initial 4 buckets, key space 8192)",
        &["impl", "update%", "threads", "throughput"],
    );
    for &updates in &[10u32, 50] {
        for &threads in &profile.threads {
            for name in HASH_IMPLS {
                let (set, _stm) = make_hash_impl(name, 4);
                let m = run_workload(set.as_ref(), &spec(profile, threads, 8192, updates));
                t.row(&[
                    name.to_string(),
                    updates.to_string(),
                    threads.to_string(),
                    format!("{:.0}", m.throughput),
                ]);
            }
        }
    }
    t.render()
}

/// E7 — polymorphism ablation: sweep the fraction of weak (elastic)
/// transactions in a fixed list workload.
pub fn e7_semantics_mix(profile: &Profile) -> String {
    use polytm_workload::{ConcurrentSet, SplitMix64};

    /// A TxList whose per-op semantics is drawn per call: `pct_weak`% of
    /// operations run `start(weak)`, the rest `start(def)`.
    struct MixedList {
        elastic: TxList,
        opaque: TxList,
        pct_weak: u32,
        rng: std::sync::Mutex<SplitMix64>,
    }

    impl ConcurrentSet for MixedList {
        fn contains(&self, key: u64) -> bool {
            if self.pick() {
                self.elastic.contains(key as i64)
            } else {
                self.opaque.contains(key as i64)
            }
        }
        fn insert(&self, key: u64) -> bool {
            if self.pick() {
                self.elastic.insert(key as i64)
            } else {
                self.opaque.insert(key as i64)
            }
        }
        fn remove(&self, key: u64) -> bool {
            if self.pick() {
                self.elastic.remove(key as i64)
            } else {
                self.opaque.remove(key as i64)
            }
        }
    }

    impl MixedList {
        fn pick(&self) -> bool {
            self.rng.lock().unwrap().next_below(100) < u64::from(self.pct_weak)
        }
    }

    let mut t = Table::new(
        "E7: fraction of weak transactions vs throughput (list size 512, updates 20%)",
        &["weak%", "threads", "throughput", "commits", "aborts"],
    );
    let threads = *profile.threads.last().unwrap_or(&2);
    for &pct in &[0u32, 25, 50, 75, 100] {
        let stm = Arc::new(Stm::new());
        let list = TxList::new(Arc::clone(&stm));
        let set = MixedList {
            opaque: list.clone_with_semantics(Semantics::Opaque),
            elastic: list,
            pct_weak: pct,
            rng: std::sync::Mutex::new(SplitMix64::new(77)),
        };
        stm.reset_stats();
        let m = run_workload(&set, &spec(profile, threads, 512, 20));
        let s = stm.stats();
        t.row(&[
            pct.to_string(),
            threads.to_string(),
            format!("{:.0}", m.throughput),
            s.commits.to_string(),
            s.aborts().to_string(),
        ]);
    }
    t.render()
}

/// E8 — nesting-policy ablation: an opaque updater whose traversal is a
/// nested weak block, under the three composition policies.
pub fn e8_nesting_policies(profile: &Profile) -> String {
    let mut t = Table::new(
        "E8: nested weak-in-def traversal under each composition policy (list 256, 20% updates)",
        &["policy", "threads", "txns/s", "aborts", "cuts"],
    );
    let threads = *profile.threads.last().unwrap_or(&2);
    for (policy, name) in [
        (NestingPolicy::Parameter, "Parameter (honour weak)"),
        (NestingPolicy::Parent, "Parent (stay def)"),
        (NestingPolicy::Strongest, "Strongest (def wins)"),
    ] {
        let stm = Arc::new(Stm::with_config(StmConfig {
            nesting_policy: policy,
            ..StmConfig::default()
        }));
        let list = TxList::new(Arc::clone(&stm));
        for k in (0..256).step_by(2) {
            list.insert(k);
        }
        stm.reset_stats();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let done_ops = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for tid in 0..threads {
                let stm = &stm;
                let list = &list;
                let stop = &stop;
                let done_ops = &done_ops;
                s.spawn(move || {
                    let mut rng = polytm_workload::SplitMix64::for_thread(42, tid);
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let k = rng.next_below(256) as i64;
                        let write = rng.next_below(100) < 20;
                        stm.run(TxParams::default(), |tx| {
                            // Nested weak traversal inside a def parent —
                            // the paper's §3 scenario.
                            let present = tx
                                .nested(Semantics::elastic(), |inner| list.contains_in(inner, k))?;
                            if write {
                                if present {
                                    list.remove_in(tx, k)?;
                                } else {
                                    list.insert_in(tx, k)?;
                                }
                            }
                            Ok(())
                        });
                        done_ops.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
            std::thread::sleep(profile.warmup + profile.duration);
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        let s = stm.stats();
        let rate = done_ops.load(std::sync::atomic::Ordering::Relaxed) as f64
            / (profile.warmup + profile.duration).as_secs_f64();
        t.row(&[
            name.to_string(),
            threads.to_string(),
            format!("{rate:.0}"),
            s.aborts().to_string(),
            s.elastic_cuts.to_string(),
        ]);
    }
    t.render()
}

/// E9 — snapshot vs opaque read-only scans against a write-hot counter.
pub fn e9_snapshot_scans(profile: &Profile) -> String {
    let mut t = Table::new(
        "E9: read-only scans concurrent with writers (16-stripe counter)",
        &["scan semantics", "scans done", "scan aborts", "writer commits"],
    );
    for (sem, name) in [(Semantics::Snapshot, "snapshot"), (Semantics::Opaque, "opaque (def)")] {
        let stm = Arc::new(Stm::with_config(StmConfig {
            // Keep the opaque scanner honest: no irrevocable rescue.
            irrevocable_fallback_after: None,
            ..StmConfig::default()
        }));
        let counter = TxCounter::new(Arc::clone(&stm), 16);
        stm.reset_stats();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let scans = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for w in 0..2usize {
                let counter = &counter;
                let stop = &stop;
                s.spawn(move || {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
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
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let _ = stm.run(TxParams::new(sem), |tx| counter.sum_in(tx));
                        scans.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
            std::thread::sleep(profile.duration);
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        let stats = stm.stats();
        // Every transaction here is opaque or snapshot, so no abort is a
        // cut and the contention causes are the scan's conflicts.
        let scan_aborts = stats.aborts_by_cause().contention();
        t.row(&[
            name.to_string(),
            scans.load(std::sync::atomic::Ordering::Relaxed).to_string(),
            // Writer aborts are possible too but rare (stripes are
            // disjoint); attribute conflicts to the scanner.
            scan_aborts.to_string(),
            stats.commits.to_string(),
        ]);
    }
    t.render()
}

/// E10 — contention-manager ablation on a hot counter.
pub fn e10_contention_managers(profile: &Profile) -> String {
    let mut t = Table::new(
        "E10: contention managers, single hot TVar, 4 threads",
        &["manager", "commits", "aborts", "abort/commit", "throughput"],
    );
    for arbiter in [
        ConflictArbiter::Suicide(Suicide),
        ConflictArbiter::Backoff(Backoff::default()),
        ConflictArbiter::Greedy(Greedy::default()),
    ] {
        let stm = Stm::with_config(StmConfig { arbiter, ..StmConfig::default() });
        let hot = stm.new_tvar(0u64);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let stm = &stm;
                let hot = &hot;
                let stop = &stop;
                s.spawn(move || {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        stm.run(TxParams::default(), |tx| hot.modify(tx, |v| v + 1));
                    }
                });
            }
            std::thread::sleep(profile.duration);
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        let s = stm.stats();
        t.row(&[
            arbiter.label().to_string(),
            s.commits.to_string(),
            s.aborts().to_string(),
            format!("{:.3}", s.abort_ratio()),
            format!("{:.0}/s", s.commits as f64 / profile.duration.as_secs_f64()),
        ]);
    }
    t.render()
}

/// Run `op` single-threaded for the profile's window (after its warmup)
/// and return completed ops/second.
fn time_ops(profile: &Profile, mut op: impl FnMut()) -> f64 {
    let warm = Instant::now();
    while warm.elapsed() < profile.warmup {
        op();
    }
    let start = Instant::now();
    let mut ops = 0u64;
    // Read the clock once per batch so it does not dominate
    // sub-microsecond transactions.
    loop {
        for _ in 0..64 {
            op();
        }
        ops += 64;
        if start.elapsed() >= profile.duration {
            break;
        }
    }
    ops as f64 / start.elapsed().as_secs_f64()
}

/// Micro — single-thread transaction cost per semantics: the empty
/// transaction's begin/commit floor, the per-read cost of a 32-read
/// chain, a single-var read-modify-write, a 16-location write commit,
/// and a `KvStore` snapshot scan of 1 024 of 4 096 keys (the key-by-key
/// path) beside a full `len()` (the walk of every register).
pub fn micro_single_thread(profile: &Profile) -> String {
    let mut t = Table::new(
        "micro: single-thread transaction cost",
        &["transaction", "semantics", "txns/s", "ns/txn"],
    );
    let mut row = |shape: &str, sem: &str, rate: f64| {
        t.row(&[
            shape.to_string(),
            sem.to_string(),
            format!("{rate:.0}"),
            format!("{:.1}", 1e9 / rate),
        ]);
    };
    for (name, sem) in [("opaque", Semantics::Opaque), ("irrevocable", Semantics::Irrevocable)] {
        let stm = Stm::new();
        let rate = time_ops(profile, || {
            stm.run(TxParams::new(sem), |_tx| Ok(std::hint::black_box(0u64)));
        });
        row("empty", name, rate);
    }
    for (name, sem) in [
        ("opaque", Semantics::Opaque),
        ("elastic(8)", Semantics::Elastic { window: 8 }),
        ("snapshot", Semantics::Snapshot),
    ] {
        let stm = Stm::new();
        let vars: Vec<_> = (0..32).map(|i| stm.new_tvar(i as i64)).collect();
        let rate = time_ops(profile, || {
            stm.run(TxParams::new(sem), |tx| {
                let mut acc = 0i64;
                for v in &vars {
                    acc += v.read(tx)?;
                }
                Ok(std::hint::black_box(acc))
            });
        });
        row("32 reads", name, rate);
    }
    let stm = Stm::new();
    let x = stm.new_tvar(0u64);
    let rate = time_ops(profile, || {
        stm.run(TxParams::default(), |tx| x.modify(tx, |v| v + 1));
    });
    row("1-var RMW", "opaque", rate);
    let stm = Stm::new();
    let vars: Vec<_> = (0..16).map(|_| stm.new_tvar(0i64)).collect();
    let rate = time_ops(profile, || {
        stm.run(TxParams::default(), |tx| {
            for v in &vars {
                v.modify(tx, |x| x + 1)?;
            }
            Ok(())
        });
    });
    row("16-var write", "opaque", rate);
    let store = KvStore::new(Arc::new(Stm::new()));
    let records: Vec<(u64, Value)> = (0..1 << 12).map(|k| (k, Value::from_u64(k))).collect();
    store.multi_put(&records);
    let registers = store.capacity();
    let mut lo = 0;
    let rate = time_ops(profile, || {
        lo = (lo + 1024) % (1 << 12);
        std::hint::black_box(store.scan_range(lo, lo + 1024));
    });
    row(&format!("kv scan 1024 of 4096 keys, {registers} registers"), "snapshot", rate);
    let rate = time_ops(profile, || {
        std::hint::black_box(store.len());
    });
    row(&format!("kv len 4096 keys, {registers} registers"), "snapshot", rate);
    t.render()
}

/// Micro — crash recovery: `DurableKv::open` of an in-memory device
/// holding a checkpoint of 2^16 records of 64 bytes and an empty log,
/// opened at least five times (and for at least the profile's window),
/// and the drop of each opened store, which frees its tables and every
/// record: the median and interquartile range of each.
pub fn micro_recovery(profile: &Profile) -> String {
    let mut t = Table::new("micro: recovery", &["operation", "runs", "median ms", "IQR ms"]);
    let device = Arc::new(FaultFs::new(1));
    let store = DurableKv::open(device.clone(), DurableKvConfig::default()).expect("empty device");
    let records: Vec<(u64, Value)> =
        (0..1u64 << 16).map(|k| (k, Value::from_bytes(&k.to_le_bytes().repeat(8)))).collect();
    store.multi_put(&records).expect("the in-memory device does not fail");
    store.checkpoint().expect("the in-memory device does not fail");
    drop(store);
    let (mut open_ms, mut drop_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while open_ms.len() < 5 || start.elapsed() < profile.duration {
        let open = Instant::now();
        let store =
            DurableKv::open(device.clone(), DurableKvConfig::default()).expect("checkpointed");
        open_ms.push(open.elapsed().as_secs_f64() * 1e3);
        assert_eq!(store.len(), records.len(), "recovery lost records");
        let dropped = Instant::now();
        drop(store);
        drop_ms.push(dropped.elapsed().as_secs_f64() * 1e3);
    }
    for (operation, ms) in [
        ("DurableKv::open, 2^16-record checkpoint", &mut open_ms),
        ("drop of the opened 2^16-record store", &mut drop_ms),
    ] {
        ms.sort_by(f64::total_cmp);
        let at = |q: usize| ms[(ms.len() - 1) * q / 4];
        t.row(&[
            operation.to_string(),
            ms.len().to_string(),
            format!("{:.1}", at(2)),
            format!("{:.1}", at(3) - at(1)),
        ]);
    }
    t.render()
}

/// Run `op(thread)` on `threads` threads at once, each timed as
/// [`time_ops`] times one after a common start line, and return the
/// ops/second summed over the threads.
fn time_ops_on(profile: &Profile, threads: usize, op: impl Fn(usize) + Sync) -> f64 {
    let start_line = std::sync::Barrier::new(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (op, start_line) = (&op, &start_line);
                s.spawn(move || {
                    start_line.wait();
                    time_ops(profile, || op(t))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("micro thread panicked")).sum()
    })
}

/// Micro — do reads scale? Read-only opaque transactions of 32 reads
/// over 32 `TVar<u64>`s both threads share, over 32 of each thread's
/// own, and elastic `contains` on a 2^12-key skip list, each on one
/// thread and on two, with the two-thread total over the one-thread
/// rate. Thread counts stop at `available_parallelism`: a row with more
/// busy threads than CPUs would measure the scheduler.
pub fn micro_read_scaling(profile: &Profile) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut t = Table::new(
        format!("micro: reads on 1 and 2 threads ({cpus} CPUs available)"),
        &["reads", "threads", "txns/s (all threads)", "2 threads / 1"],
    );
    let mut rows = |shape: &str, op: &(dyn Fn(usize) + Sync)| {
        let one = time_ops_on(profile, 1, op);
        t.row(&[shape.to_string(), "1".to_string(), format!("{one:.0}"), String::new()]);
        if cpus >= 2 {
            let two = time_ops_on(profile, 2, op);
            t.row(&[
                shape.to_string(),
                "2".to_string(),
                format!("{two:.0}"),
                format!("{:.2}x", two / one),
            ]);
        }
    };
    let read_all = |stm: &Stm, vars: &[polytm::TVar<u64>]| {
        stm.run(TxParams::new(Semantics::Opaque), |tx| {
            let mut acc = 0u64;
            for v in vars {
                acc += v.read(tx)?;
            }
            Ok(std::hint::black_box(acc))
        });
    };
    let stm = Stm::new();
    let shared: Vec<_> = (0..32).map(|i| stm.new_tvar(i as u64)).collect();
    rows("32 shared, opaque", &|_| read_all(&stm, &shared));
    let own: Vec<Vec<_>> =
        (0..2).map(|_| (0..32).map(|i| stm.new_tvar(i as u64)).collect()).collect();
    rows("32 disjoint, opaque", &|t| read_all(&stm, &own[t]));
    let set = TxSkipList::new(Arc::new(Stm::new()));
    for key in 0..1 << 12 {
        set.insert(key);
    }
    thread_local! {
        static DRAW: std::cell::Cell<u64> = const { std::cell::Cell::new(0x9E37_79B9_7F4A_7C15) };
    }
    rows("skip-list contains, 2^12 keys", &|_| {
        // A per-thread xorshift draw: the row writes no shared line of
        // its own. Two keys in three are present.
        let r = DRAW.with(|d| {
            let mut x = d.get();
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            d.set(x);
            x
        });
        std::hint::black_box(set.contains(((r >> 33) % (3 << 11)) as i64));
    });
    t.render()
}

/// Run one experiment by id ("e1".."e10", "micro") or "all"; returns the
/// report.
pub fn run_experiment(id: &str, profile: &Profile) -> Option<String> {
    let out = match id {
        "e1" => e1_figure1(),
        "e2" => e2_theorem1(),
        "e3" => e3_theorem2(),
        "e4" => e4_list_throughput(profile),
        "e5" => e5_abort_rates(profile),
        "e6" => e6_hash_throughput(profile),
        "e7" => e7_semantics_mix(profile),
        "e8" => e8_nesting_policies(profile),
        "e9" => e9_snapshot_scans(profile),
        "e10" => e10_contention_managers(profile),
        "micro" => {
            micro_single_thread(profile)
                + "\n"
                + &micro_read_scaling(profile)
                + "\n"
                + &micro_recovery(profile)
        }
        "all" => {
            let mut all = String::new();
            for id in ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "micro"] {
                all.push_str(&run_experiment(id, profile).expect("known id"));
                all.push('\n');
            }
            all
        }
        _ => return None,
    };
    Some(out)
}

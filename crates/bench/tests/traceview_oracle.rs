//! The traceview acceptance test: a deterministic single-threaded run
//! with known classes, forced abort addresses, and a sync-mode WAL is
//! traced through the real `polytm-obs` ring tracer, dumped through the
//! real `PTRC` file codec, and replayed with `polytm_bench::replay` —
//! then every headline number in the report is checked against counts
//! the test computed independently (and against the STM's own stats
//! counters for the WAL histograms). A second, separately drained
//! phase runs a durable server whose replies wait for one log force
//! per event-loop round, and checks that the replay still joins every
//! request to its commit. The real `traceview` binary replays the
//! first dump too, and its documented exit codes are checked: 0 on a
//! complete dump, 1 on a truncated one, 2 without a path, 3 when
//! `--deny-drops` meets a dump that shed events.
//!
//! One `#[test]` only: `RingTracer::install` claims the process-global
//! trace sink, so the whole oracle runs as a single scenario.

use std::cell::Cell;
use std::process::{Command, Output};
use std::sync::Arc;
use std::time::Duration;

use polytm::{Abort, AbortCause, AbortCounts, ClassId, Semantics, Stm, StmConfig, TxParams};
use polytm_bench::replay::{render, replay_dump, TraceReport};
use polytm_durable::{Durability, DurableKv, DurableKvConfig, FaultFs, RealFs, WalConfig};
use polytm_kv::{KvConfig, Value};
use polytm_obs::{RingTracer, TraceDump};

/// Forced-abort addresses: distinct, non-zero, and impossible to
/// confuse with a real `TVar` slot in this tiny run.
const HOT: usize = 0xDEAD;
const WARM: usize = 0xBEEF;
const COOL: usize = 0xCAFE;

/// Run `runs` transactions under `class`; each one returns
/// `Err(abort())` for its first `aborts_each` attempts (a user-forced
/// abort with a chosen address), then commits a real write.
fn run_classed(
    stm: &Stm,
    class: u16,
    sem: Semantics,
    runs: u64,
    aborts_each: u32,
    abort: impl Fn() -> Abort,
) {
    let x = stm.new_tvar(0u64);
    for _ in 0..runs {
        let attempt = Cell::new(0u32);
        stm.run(TxParams::new(sem).with_class(ClassId(class)), |tx| {
            let n = attempt.get();
            attempt.set(n + 1);
            if n < aborts_each {
                return Err(abort());
            }
            x.modify(tx, |v| v + 1)
        });
    }
}

/// The oracle's view of one class: (attempts, commits, `aborts_by_cause`).
/// Also checks the begin-elision invariant: the core emits `TXN_BEGIN`
/// only for re-attempts, and every abort here is retried, so the
/// retry-begin count must equal the abort count exactly.
fn class_counts(report: &TraceReport, class: u16) -> (u64, u64, AbortCounts) {
    let t = report.classes.get(&class).unwrap_or_else(|| panic!("class {class} missing"));
    assert_eq!(t.retry_begins, t.aborts(), "class {class}: one re-attempt begin per abort");
    (t.attempts(), t.commits(), t.aborts_by_cause)
}

#[test]
fn traceview_report_matches_a_deterministic_oracle() {
    let tracer = RingTracer::install(1 << 14).expect("first sink install in this process");

    // No fallback escalation: every attempt keeps its requested
    // semantics, so the oracle's per-semantics commit table is exact.
    let stm =
        Stm::with_config(StmConfig { irrevocable_fallback_after: None, ..StmConfig::default() });

    // Class 7: 40 clean opaque commits (one attempt each).
    run_classed(&stm, 7, Semantics::Opaque, 40, 0, || unreachable!());
    // Class 9: 25 commits, each preceded by two lock-conflict aborts
    // at address HOT -> 75 begins, 50 aborts.
    run_classed(&stm, 9, Semantics::Opaque, 25, 2, || Abort::Locked { addr: HOT, owner: 0 });
    // Class 11: 10 commits, each preceded by one validation abort at
    // address WARM.
    run_classed(&stm, 11, Semantics::Opaque, 10, 1, || Abort::ValidationFailed { addr: WARM });
    // Class 13: 15 elastic commits, each preceded by one read conflict
    // at COOL — which under elastic semantics is attributed as a cut.
    run_classed(&stm, 13, Semantics::Elastic { window: 8 }, 15, 1, || Abort::ReadConflict {
        addr: COOL,
    });

    // WAL phase: a sync-mode durable store with a zero group window on
    // one thread flushes every put as its own batch of one commit.
    let dir = std::env::temp_dir().join(format!("polytm-traceview-oracle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fs = Arc::new(RealFs::open(&dir).expect("open temp storage dir"));
    let kv = DurableKv::open(
        fs,
        DurableKvConfig {
            kv: KvConfig { shards: 4, initial_slots: 64, ..KvConfig::default() },
            wal: WalConfig {
                mode: Durability::Sync,
                group_window: Duration::ZERO,
                ..WalConfig::default()
            },
        },
    )
    .expect("open durable store");
    const PUTS: u64 = 20;
    for k in 0..PUTS {
        kv.put(k, Value::from_u64(k * 3)).expect("durable put");
    }
    let wal_stats = kv.stm().stats();
    drop(kv);
    let _ = std::fs::remove_dir_all(&dir);

    // Server phase: a loopback server answers synchronous puts and
    // gets, so the dump carries request spans (REQ_RECV … REQ_DONE on
    // the worker's ring) for the replay to reassemble.
    let server_store = Arc::new(polytm_kv::KvStore::new(Arc::new(Stm::new())));
    let handle = polytm_server::Server::spawn(
        server_store,
        "127.0.0.1:0",
        polytm_server::ServerConfig::default(),
    )
    .expect("spawn loopback server");
    let mut client = polytm_server::Client::connect(handle.local_addr()).expect("connect");
    const SERVER_PUTS: u64 = 30;
    const SERVER_GETS: u64 = 10;
    for k in 0..SERVER_PUTS {
        client.put(k, &k.to_le_bytes()).expect("server put");
    }
    for k in 0..SERVER_GETS {
        let got = client.get(k).expect("server get");
        assert_eq!(got.as_deref(), Some(&k.to_le_bytes()[..]));
    }
    drop(client);
    handle.shutdown();

    // Dump through the real file codec, as any embedder does.
    let trace_path = temp_path("trace");
    let mut dump = tracer.drain();
    dump.write_file(&trace_path).expect("write trace dump");
    let reread = TraceDump::read_file(&trace_path).expect("reread trace dump");

    // -- the traceview binary's exit codes ------------------------
    let out = traceview(&[&trace_path, "--deny-drops", "--top", "5"]);
    assert_eq!(out.status.code(), Some(0), "a complete dump replays cleanly");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("== request waterfall (40 requests joined) =="),
        "traceview prints the request waterfall:\n{stdout}"
    );
    let bytes = std::fs::read(&trace_path).expect("read trace dump");
    let truncated_path = temp_path("truncated.trace");
    std::fs::write(&truncated_path, &bytes[..bytes.len() - 1]).expect("write truncated dump");
    assert_eq!(traceview(&[&truncated_path]).status.code(), Some(1), "a truncated dump is corrupt");
    assert_eq!(traceview(&["--deny-drops"]).status.code(), Some(2), "no path is a usage error");
    dump.rings[0].dropped = 1;
    let dropped_path = temp_path("dropped.trace");
    dump.write_file(&dropped_path).expect("write dump with a drop");
    let out = traceview(&[&dropped_path, "--deny-drops"]);
    assert_eq!(out.status.code(), Some(3), "--deny-drops refuses a dump that shed events");
    for path in [&trace_path, &truncated_path, &dropped_path] {
        let _ = std::fs::remove_file(path);
    }
    assert_eq!(reread.dropped_total(), 0, "this run fits the ring with room to spare");
    let report = replay_dump(&reread);

    // -- per-class timelines --------------------------------------
    let lock = AbortCause::LockConflict;
    let validation = AbortCause::Validation;
    let cut = AbortCause::Cut;

    let (attempts, commits, aborts) = class_counts(&report, 7);
    assert_eq!((attempts, commits), (40, 40));
    assert_eq!(aborts.total(), 0);
    assert_eq!(report.classes[&7].commits_by_semantics[0], 40, "all class-7 commits opaque");
    assert_eq!(report.classes[&7].commit_series.iter().sum::<u64>(), 40);

    let (attempts, commits, aborts) = class_counts(&report, 9);
    assert_eq!((attempts, commits), (75, 25), "25 commits after 2 aborts each");
    assert_eq!(aborts[lock], 50);
    assert_eq!(aborts.total(), 50);

    let (attempts, commits, aborts) = class_counts(&report, 11);
    assert_eq!((attempts, commits), (20, 10));
    assert_eq!(aborts[validation], 10);

    let (attempts, commits, aborts) = class_counts(&report, 13);
    assert_eq!((attempts, commits), (30, 15));
    assert_eq!(aborts[cut], 15, "elastic read conflicts are attributed as cuts");
    assert_eq!(report.classes[&13].commits_by_semantics[1], 15, "all class-13 commits elastic");

    // -- hottest-TVar table ---------------------------------------
    let sites: Vec<(u64, u64)> = report.abort_sites.iter().map(|s| (s.addr, s.total())).collect();
    assert_eq!(
        sites,
        vec![(HOT as u64, 50), (COOL as u64, 15), (WARM as u64, 10)],
        "abort sites ranked hottest-first with exact totals"
    );
    assert_eq!(report.abort_sites[0].by_cause[lock], 50);
    assert_eq!(report.abort_sites[1].by_cause[cut], 15);
    assert_eq!(report.abort_sites[2].by_cause[validation], 10);

    // -- WAL group-commit histograms ------------------------------
    // Cross-checked against the STM's own durability counters: every
    // flush recorded exactly one histogram sample, the batch sizes sum
    // to the durable commits, and consecutive flushes leave gaps.
    assert_eq!(report.wal_batch.samples, wal_stats.fsyncs, "one batch sample per fsync");
    assert_eq!(report.wal_fsync_ns.samples, wal_stats.fsyncs);
    assert_eq!(report.wal_batch.sum, wal_stats.commits_durable, "batch sizes sum to commits");
    assert_eq!(wal_stats.commits_durable, PUTS);
    assert_eq!(report.wal_gap_ns.samples, report.wal_batch.samples - 1, "N flushes leave N-1 gaps");
    // Single-threaded sync mode with a zero group window: every put is
    // its own flush, so every batch lands in the [1, 2) bucket.
    assert_eq!(report.wal_batch.buckets().collect::<Vec<_>>(), vec![(0, 2, PUTS)]);

    // -- per-connection coalescing -------------------------------
    // The client is synchronous, so every put is its own one-op batch
    // on the one connection; the durable phase's commits carry no
    // connection and stay out of the table.
    let conns: Vec<(u64, u64)> = report.conns.values().map(|c| (c.batches, c.ops)).collect();
    assert_eq!(conns, vec![(SERVER_PUTS, SERVER_PUTS)], "one connection, one op per batch");

    // -- request-span waterfall -----------------------------------
    // The span-join oracle: a single synchronous client means every
    // request opened exactly one span, every span closed, and nothing
    // joined across requests.
    assert_eq!(report.unmatched_done, 0, "every REQ_DONE closed a REQ_RECV");
    assert_eq!(report.unclosed_recv, 0, "every REQ_RECV was answered before shutdown");
    assert_eq!(report.shed_open, 0);
    assert_eq!(
        report.requests.len() as u64,
        SERVER_PUTS + SERVER_GETS,
        "one span per wire request"
    );
    let batched = report.requests.iter().filter(|r| r.batch_ops > 0).count() as u64;
    assert_eq!(batched, SERVER_PUTS, "every put joined to its commit; no get did");
    for span in &report.requests {
        assert!(span.total_ns > 0, "request spans measure real time");
        assert!(
            span.components_ns() <= span.total_ns || report.overflowed > 0,
            "components never exceed the measured end-to-end time"
        );
    }
    assert_eq!(report.overflowed, 0, "decomposed waits fit inside every request");
    for span in &report.requests {
        assert_eq!(
            span.components_ns(),
            span.total_ns,
            "batch_wait + stm + wal + other reassembles the whole request"
        );
    }

    // -- the rendered report mentions the headline numbers --------
    let text = render(&report, 10);
    for needle in [
        "class 7",
        "class 9",
        "class 13",
        "aborts[lock-conflict] 50",
        "aborts[cut] 15",
        "addr 0xdead: 50 aborts",
        "addr 0xcafe: 15 aborts",
        "commits/flush",
        "40 requests joined",
        "batch_wait",
    ] {
        assert!(text.contains(needle), "render output missing {needle:?}:\n{text}");
    }

    // -- held replies: one log force per event-loop round ---------
    // A durable server on one worker with two pipelining connections:
    // a round stages every ready connection's batch, forces the log
    // once, and only then emits the batches' `BATCH_COMMIT`s and the
    // held replies' `REQ_DONE`s. Replayed on its own (the drain above
    // emptied the rings), every request must still join, and every PUT
    // to the commit that answered it.
    let durable = DurableKv::open(Arc::new(FaultFs::new(0x7ACE)), DurableKvConfig::default())
        .expect("open durable store");
    let handle = polytm_server::Server::spawn(
        Arc::new(durable),
        "127.0.0.1:0",
        polytm_server::ServerConfig { workers: 1, ..polytm_server::ServerConfig::default() },
    )
    .expect("spawn durable loopback server");
    let mut clients: Vec<polytm_server::Client> = (0..2)
        .map(|_| polytm_server::Client::connect(handle.local_addr()).expect("connect"))
        .collect();
    const ROUNDS: u64 = 25;
    const DEPTH: u64 = 8;
    for round in 0..ROUNDS {
        for (c, client) in (0u64..).zip(clients.iter_mut()) {
            for i in 0..DEPTH {
                let key = (c * ROUNDS + round) * DEPTH + i;
                let put = polytm_server::Request::Put { key, value: key.to_le_bytes().to_vec() };
                client.send(&put).expect("pipelined put");
            }
        }
        for client in &mut clients {
            for _ in 0..DEPTH {
                let (_, resp) = client.recv().expect("put reply");
                assert!(matches!(resp, polytm_server::Response::Written { existed: false }));
            }
        }
    }
    drop(clients);
    handle.shutdown();
    let held = replay_dump(&tracer.drain());
    assert_eq!(
        (held.unmatched_done, held.unclosed_recv, held.orphan_commits, held.shed_open),
        (0, 0, 0, 0),
        "join health is all zeros"
    );
    assert_eq!(held.overflowed, 0);
    let puts = 2 * ROUNDS * DEPTH;
    assert_eq!(held.requests.len() as u64, puts, "one span per wire request");
    assert!(held.requests.iter().all(|r| r.batch_ops > 0), "every PUT joined to its commit");
    let committed: u64 = held.conns.values().map(|c| c.ops).sum();
    assert_eq!((held.conns.len(), committed), (2, puts), "every PUT in one committed batch");
}

/// A per-process temp file path ending in `suffix`.
fn temp_path(suffix: &str) -> String {
    let dir = std::env::temp_dir();
    format!("{}/polytm-traceview-oracle-{}.{suffix}", dir.display(), std::process::id())
}

/// Run the real `traceview` binary with `args`.
fn traceview(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_traceview")).args(args).output().expect("run traceview")
}

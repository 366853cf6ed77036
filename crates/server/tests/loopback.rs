//! End-to-end loopback tests: real sockets, pipelined clients, a
//! recovered durable store behind the event loop, and the two
//! batching-semantics regressions the protocol spec promises —
//! coalesced writes are all-or-nothing under commit aborts, and
//! per-connection response order always matches request order.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use polytm::Stm;
use polytm_durable::{DurableKv, DurableKvConfig, FaultFs, RealFs, Storage};
use polytm_kv::{KvStore, Value};
use polytm_server::protocol::{
    decode_frame, encode_request, parse_response, ErrorCode, FrameEvent, Request, Response, TxnOp,
    WriteOp,
};
use polytm_server::{Client, Server, ServerConfig, ServerStore};

/// Temp dir that cleans up after itself.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "polytm-server-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn quick_config() -> ServerConfig {
    ServerConfig { workers: 2, ..ServerConfig::default() }
}

/// The acceptance-criteria path: seed a durable store, crash it
/// (drop), reopen so the server fronts a *recovered* store, then run
/// every opcode through a loopback client and verify effects — both
/// over the wire and in the store after another recovery.
#[test]
fn recovered_durable_store_serves_every_opcode() {
    let dir = TempDir::new("recovered");
    let config = DurableKvConfig::default();

    // Phase 1: seed and "crash" (drop without checkpoint).
    {
        let fs = RealFs::open(&dir.0).unwrap();
        let store = DurableKv::open(Arc::new(fs) as Arc<dyn Storage>, config).unwrap();
        for k in 0..50u64 {
            store.put(k, Value::from_u64(k * 10)).unwrap();
        }
    }

    // Phase 2: recover and serve.
    let fs = RealFs::open(&dir.0).unwrap();
    let store = Arc::new(DurableKv::open(Arc::new(fs) as Arc<dyn Storage>, config).unwrap());
    assert_eq!(store.len(), 50, "recovery must replay the seeded records");
    let handle =
        Server::spawn(Arc::clone(&store) as Arc<dyn ServerStore>, "127.0.0.1:0", quick_config())
            .unwrap();
    let addr = handle.local_addr();

    let mut client = Client::connect(addr).unwrap();
    client.crc = true; // exercise the CRC path over a real socket

    // GET of recovered state.
    assert_eq!(client.get(7).unwrap(), Some(Value::from_u64(70).as_bytes().to_vec()));
    assert_eq!(client.get(999).unwrap(), None);

    // PUT / DELETE.
    assert!(!client.put(100, b"fresh").unwrap());
    assert!(client.put(100, b"fresher").unwrap());
    assert!(client.delete(3).unwrap());
    assert!(!client.delete(3).unwrap());

    // CAS.
    assert!(client.cas(100, Some(b"fresher"), b"swapped").unwrap());
    assert!(!client.cas(100, Some(b"fresher"), b"nope").unwrap());

    // MULTI: atomic batch.
    let resp = client
        .call(&Request::Multi {
            ops: vec![
                WriteOp::Put { key: 200, value: b"a".to_vec() },
                WriteOp::Put { key: 201, value: b"b".to_vec() },
                WriteOp::Delete { key: 0 },
            ],
        })
        .unwrap();
    assert_eq!(resp, Response::Applied { ops: 3 });

    // TXN: mixed body, read-your-writes.
    let resp = client
        .call(&Request::Txn {
            ops: vec![
                TxnOp::Get { key: 200 },
                TxnOp::Put { key: 202, value: b"c".to_vec() },
                TxnOp::Get { key: 202 },
                TxnOp::Delete { key: 201 },
                TxnOp::Get { key: 201 },
            ],
        })
        .unwrap();
    assert_eq!(
        resp,
        Response::TxnResults { gets: vec![Some(b"a".to_vec()), Some(b"c".to_vec()), None] }
    );

    // SCAN: snapshot over the mutated range.
    let (entries, truncated) = client.scan(200, 210, 0).unwrap();
    assert!(!truncated);
    assert_eq!(
        entries,
        vec![(200, b"a".to_vec()), (202, b"c".to_vec())],
        "scan must reflect the committed MULTI/TXN effects in key order"
    );

    // PING for completeness.
    assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);

    drop(client);
    handle.shutdown();
    drop(store);

    // Phase 3: everything acknowledged above must survive another
    // recovery (sync durability end to end, through the socket).
    let fs = RealFs::open(&dir.0).unwrap();
    let reopened = DurableKv::open(Arc::new(fs) as Arc<dyn Storage>, config).unwrap();
    assert_eq!(reopened.get(100).map(|v| v.as_bytes().to_vec()), Some(b"swapped".to_vec()));
    assert_eq!(reopened.get(200).map(|v| v.as_bytes().to_vec()), Some(b"a".to_vec()));
    assert_eq!(reopened.get(201), None);
    assert_eq!(reopened.get(3), None);
}

/// Pipelining: send a long mixed burst without reading, then require
/// every response in exact request order with the matching kind.
#[test]
fn pipelined_responses_match_request_order() {
    let stm = Arc::new(Stm::new());
    let store = Arc::new(KvStore::new(stm));
    let handle =
        Server::spawn(Arc::clone(&store) as Arc<dyn ServerStore>, "127.0.0.1:0", quick_config())
            .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let n = 400u64;
    let mut expected = Vec::new();
    for i in 0..n {
        let req = match i % 5 {
            0 => Request::Put { key: i, value: i.to_le_bytes().to_vec() },
            1 => Request::Get { key: i - 1 },
            2 => Request::Delete { key: i - 2 },
            3 => Request::Multi {
                ops: vec![
                    WriteOp::Put { key: 1000 + i, value: b"m".to_vec() },
                    WriteOp::Put { key: 2000 + i, value: b"m".to_vec() },
                ],
            },
            _ => Request::Ping,
        };
        let seq = client.send(&req).unwrap();
        expected.push((seq, i % 5));
    }
    for (want_seq, kind) in expected {
        let (seq, resp) = client.recv().unwrap();
        assert_eq!(seq, want_seq, "responses must arrive in request order");
        match kind {
            0 => assert!(matches!(resp, Response::Written { .. })),
            // The pipelined GET follows its PUT, so the value must be
            // there: coalescing may merge the commits but never
            // reorders a read before the write it trails.
            1 => assert!(matches!(resp, Response::Value(Some(_)))),
            2 => assert!(matches!(resp, Response::Deleted { .. })),
            3 => assert_eq!(resp, Response::Applied { ops: 2 }),
            _ => assert_eq!(resp, Response::Pong),
        }
    }

    // The burst outran the event loop's read sweeps, so at least some
    // writes must have shared a commit.
    let stats = handle.stats();
    let batches = stats.batches.load(Ordering::Relaxed);
    let batched = stats.batched_ops.load(Ordering::Relaxed);
    assert!(batches > 0, "write traffic must produce coalesced commits");
    assert!(batched >= batches, "each commit carries at least one request");
    handle.shutdown();
}

/// Concurrent pipelined clients over disjoint key ranges, checked
/// against local oracles and a final server-side snapshot scan.
#[test]
fn concurrent_clients_agree_with_oracle() {
    let stm = Arc::new(Stm::new());
    let store = Arc::new(KvStore::new(stm));
    let handle =
        Server::spawn(Arc::clone(&store) as Arc<dyn ServerStore>, "127.0.0.1:0", quick_config())
            .unwrap();
    let addr = handle.local_addr();

    let clients = 4usize;
    let span = 1_000u64;
    let mut threads = Vec::new();
    for t in 0..clients {
        threads.push(std::thread::spawn(move || {
            let base = t as u64 * span;
            let mut client = Client::connect(addr).unwrap();
            let mut oracle: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
            let mut rng = polytm_workload::SplitMix64::for_thread(0xFEED, t);
            let mut outstanding = 0usize;
            for i in 0..600u64 {
                let key = base + rng.next_below(span);
                let r = rng.next_u64();
                match r % 4 {
                    0 | 1 => {
                        let value = format!("c{t}-i{i}").into_bytes();
                        client.send(&Request::Put { key, value: value.clone() }).unwrap();
                        oracle.insert(key, value);
                    }
                    2 => {
                        client.send(&Request::Delete { key }).unwrap();
                        oracle.remove(&key);
                    }
                    _ => {
                        let mut ops = Vec::new();
                        for j in 0..4u64 {
                            let k = base + ((key + j) % span);
                            let value = format!("m{t}-i{i}-j{j}").into_bytes();
                            oracle.insert(k, value.clone());
                            ops.push(WriteOp::Put { key: k, value });
                        }
                        client.send(&Request::Multi { ops }).unwrap();
                    }
                }
                outstanding += 1;
                // Keep a deep pipeline but bounded.
                while outstanding > 64 {
                    client.recv().unwrap();
                    outstanding -= 1;
                }
            }
            while outstanding > 0 {
                client.recv().unwrap();
                outstanding -= 1;
            }
            // Verify: every oracle key reads back exactly; a snapshot
            // scan of the whole range agrees on membership.
            for (&key, value) in &oracle {
                assert_eq!(client.get(key).unwrap().as_deref(), Some(value.as_slice()));
            }
            let (entries, truncated) = client.scan(base, base + span, 0).unwrap();
            assert!(!truncated);
            let got: BTreeMap<u64, Vec<u8>> = entries.into_iter().collect();
            assert_eq!(got, oracle, "server snapshot must equal the oracle");
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    handle.shutdown();
}

/// The batching-atomicity regression: a writer streams pipelined MULTI
/// batches that keep an invariant (all eight keys carry the same tag),
/// while a direct-store contender commits conflicting writes to the
/// same keys to inject commit aborts. Snapshot readers must never
/// observe a mixed state, and the run must actually provoke aborts.
#[test]
fn coalesced_multi_is_all_or_nothing_under_commit_aborts() {
    let stm = Arc::new(Stm::new());
    let store = Arc::new(KvStore::new(Arc::clone(&stm)));
    // Small batch budget: force multiple coalesced commits rather than
    // one giant run per sweep.
    let config = ServerConfig { workers: 1, batch_max_ops: 4, ..ServerConfig::default() };
    let handle =
        Server::spawn(Arc::clone(&store) as Arc<dyn ServerStore>, "127.0.0.1:0", config).unwrap();
    let addr = handle.local_addr();

    const KEYS: u64 = 8;
    let stop = Arc::new(AtomicBool::new(false));

    // Contender: atomically writes the same key set with its own tag,
    // so every interleaving preserves "all tags equal" but write-write
    // conflicts (and thus aborts/retries) are guaranteed.
    let contender = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut tag = 1_000_000u64;
            while !stop.load(Ordering::Relaxed) {
                let entries: Vec<(u64, Value)> =
                    (0..KEYS).map(|k| (k, Value::from_u64(tag))).collect();
                store.multi_put(&entries);
                tag += 1;
            }
        })
    };

    // Checker: snapshot scans must always see one uniform tag.
    let checker = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let snap = store.scan_range(0, KEYS);
                if snap.is_empty() {
                    continue;
                }
                let tags: Vec<u64> = snap.iter().map(|(_, v)| v.as_u64().unwrap()).collect();
                assert!(
                    tags.windows(2).all(|w| w[0] == w[1]) && snap.len() == KEYS as usize,
                    "torn MULTI batch observed: {tags:?}"
                );
            }
        })
    };

    // Writer: pipelined MULTI batches through the server, each batch
    // tagging all keys identically.
    let mut client = Client::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut tag = 1u64;
    let mut outstanding = 0usize;
    loop {
        let ops: Vec<WriteOp> = (0..KEYS)
            .map(|k| WriteOp::Put { key: k, value: Value::from_u64(tag).as_bytes().to_vec() })
            .collect();
        client.send(&Request::Multi { ops }).unwrap();
        outstanding += 1;
        tag += 1;
        while outstanding > 32 {
            let (_, resp) = client.recv().unwrap();
            assert_eq!(resp, Response::Applied { ops: KEYS as u32 });
            outstanding -= 1;
        }
        // Stop once aborts have demonstrably fired (with a generous
        // floor of rounds so the checker gets real interleavings).
        if tag.is_multiple_of(64)
            && (stm.stats().aborts() > 0 && tag > 512 || Instant::now() > deadline)
        {
            break;
        }
    }
    while outstanding > 0 {
        client.recv().unwrap();
        outstanding -= 1;
    }
    stop.store(true, Ordering::Relaxed);
    contender.join().unwrap();
    checker.join().unwrap();

    assert!(stm.stats().aborts() > 0, "the contender must have injected at least one commit abort");
    let stats = handle.stats();
    assert!(stats.batches.load(Ordering::Relaxed) > 0);
    handle.shutdown();
}

/// Durability-loss degradation over the wire: after the armed fault
/// fires, writes answer `ReadOnly` while reads keep serving.
#[test]
fn read_only_degradation_surfaces_as_error_responses() {
    let fs = Arc::new(FaultFs::with_crash_after(0xBAD5EED, 400));
    let store = Arc::new(
        DurableKv::open(Arc::clone(&fs) as Arc<dyn Storage>, DurableKvConfig::default()).unwrap(),
    );
    let handle =
        Server::spawn(Arc::clone(&store) as Arc<dyn ServerStore>, "127.0.0.1:0", quick_config())
            .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let mut degraded_at = None;
    for k in 0..5_000u64 {
        match client.call(&Request::Put { key: k, value: b"durable?".to_vec() }).unwrap() {
            Response::Written { .. } => {}
            Response::Error(ErrorCode::ReadOnly) => {
                degraded_at = Some(k);
                break;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    let degraded_at = degraded_at.expect("armed fault must fire within the write budget");
    assert!(degraded_at > 0, "some writes must succeed before the fault");

    // Reads still serve from memory; subsequent writes of every write
    // shape keep failing read-only.
    assert!(client.get(0).unwrap().is_some());
    let (entries, _) = client.scan(0, degraded_at, 0).unwrap();
    assert!(!entries.is_empty());
    assert_eq!(
        client.call(&Request::Multi { ops: vec![WriteOp::Delete { key: 0 }] }).unwrap(),
        Response::Error(ErrorCode::ReadOnly)
    );
    assert_eq!(
        client
            .call(&Request::Txn { ops: vec![TxnOp::Put { key: 1, value: b"x".to_vec() }] })
            .unwrap(),
        Response::Error(ErrorCode::ReadOnly)
    );
    assert!(handle.stats().read_only_errors.load(Ordering::Relaxed) >= 3);
    handle.shutdown();
}

/// Backpressure: with a tiny response backlog budget and a client that
/// refuses to read while pipelining large scans, the server must pause
/// reads (stall counter moves) yet deliver every response, in order,
/// once the client drains.
#[test]
fn backpressure_pauses_reads_without_losing_order() {
    let stm = Arc::new(Stm::new());
    let store = Arc::new(KvStore::new(stm));
    for k in 0..1_000u64 {
        store.put(k, Value::from_bytes(&[k as u8; 64]));
    }
    let config = ServerConfig { workers: 1, max_backlog: 1 << 10, ..ServerConfig::default() };
    let handle =
        Server::spawn(Arc::clone(&store) as Arc<dyn ServerStore>, "127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // Each response is ~74 KiB (1000 entries of 64-byte values); 300
    // of them is ~22 MiB — beyond the 1 KiB backlog budget plus
    // anything the kernel's socket buffers can absorb (tcp_wmem max
    // is 4 MiB here).
    let n = 300u32;
    let mut seqs = Vec::new();
    for _ in 0..n {
        seqs.push(client.send(&Request::Scan { lo: 0, hi: 1_000, limit: 0 }).unwrap());
    }
    // Let the server hit the backlog wall before we start draining.
    std::thread::sleep(Duration::from_millis(100));
    for want in seqs {
        let (seq, resp) = client.recv().unwrap();
        assert_eq!(seq, want);
        match resp {
            Response::Entries { entries, truncated } => {
                assert_eq!(entries.len(), 1_000);
                assert!(!truncated);
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert!(
        handle.stats().backpressure_stalls.load(Ordering::Relaxed) > 0,
        "a non-draining client must trip the backlog pause"
    );
    // Duration accounting, not just edges: the 100ms non-draining
    // window above was spent stalled, and the wait must be visible as
    // accumulated time (resumed stalls, plus any still-stalled residue
    // folded in when the connection closed).
    let stats = Arc::clone(handle.stats());
    drop(client);
    handle.shutdown();
    assert!(
        stats.backpressure_stalled_ns.load(Ordering::Relaxed) > 0,
        "stalled time must accumulate while the backlog pause holds"
    );
}

/// The `STATS` opcode returns one snapshot of the unified metrics
/// plane in both wire formats, and reflects work pipelined ahead of
/// it on the same connection (it is a barrier).
#[test]
fn stats_opcode_snapshots_the_metrics_plane() {
    let stm = Arc::new(Stm::new());
    let store = Arc::new(KvStore::new(Arc::clone(&stm)));
    let registry = Arc::new(polytm_obs::MetricsRegistry::new());
    registry.register("stm", Arc::new(polytm_obs::StmMetrics::new(stm)));
    let handle = Server::spawn_with_metrics(
        Arc::clone(&store) as Arc<dyn ServerStore>,
        "127.0.0.1:0",
        quick_config(),
        registry,
    )
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    for k in 0..32u64 {
        assert!(!client.put(k, b"v").unwrap());
    }
    let entries = client.stats().unwrap();
    let get = |key: &str| entries.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
    assert!(
        get("stm.commits").unwrap_or(0.0) >= 1.0,
        "the pipelined puts must have committed before the STATS barrier"
    );
    assert!(get("server.requests").unwrap_or(0.0) >= 32.0);
    assert!(get("server.batches").unwrap_or(0.0) >= 1.0);
    assert_eq!(get("server.hinted_keys"), Some(0.0), "one PUT per window: nothing to hint");
    assert!(
        entries.windows(2).all(|w| w[0].0 <= w[1].0),
        "binary snapshot entries arrive sorted by key"
    );

    let text = client.stats_text().unwrap();
    assert!(text.lines().any(|l| l.starts_with("server.accepted ")));
    assert!(text.lines().any(|l| l.starts_with("stm.commits ")));
    handle.shutdown();
}

/// A server spawned without a registry still answers `STATS` — with a
/// well-formed empty snapshot, not an error.
#[test]
fn stats_without_a_registry_is_empty_not_an_error() {
    let store = Arc::new(KvStore::new(Arc::new(Stm::new())));
    let handle =
        Server::spawn(Arc::clone(&store) as Arc<dyn ServerStore>, "127.0.0.1:0", quick_config())
            .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    assert!(client.stats().unwrap().is_empty());
    assert!(client.stats_text().unwrap().is_empty());
    handle.shutdown();
}

/// Send `requests` as one write on a fresh connection — so the server
/// meets them in one read, as one batch window — and collect the
/// replies in arrival order, checking each carries its request's
/// sequence number.
fn one_window(addr: SocketAddr, requests: &[Request], crc: bool) -> Vec<Response> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let wire: Vec<u8> = requests
        .iter()
        .enumerate()
        .flat_map(|(i, req)| encode_request(req, i as u32 + 1, crc))
        .collect();
    stream.write_all(&wire).unwrap();

    let (mut buf, mut replies) = (Vec::new(), Vec::new());
    while replies.len() < requests.len() {
        match decode_frame(&buf) {
            FrameEvent::Frame { consumed, opcode, seq, payload } => {
                assert_eq!(seq as usize, replies.len() + 1, "replies arrive in request order");
                replies.push(parse_response(opcode, payload).unwrap());
                buf.drain(..consumed);
            }
            FrameEvent::Incomplete { .. } => {
                let mut chunk = [0u8; 4096];
                let n = stream.read(&mut chunk).unwrap();
                assert!(n > 0, "server hung up after {} replies", replies.len());
                buf.extend_from_slice(&chunk[..n]);
            }
            FrameEvent::Corrupt(why) => panic!("corrupt reply stream: {why:?}"),
        }
    }
    replies
}

/// The hint must be invisible. Every GET of a window is hinted before
/// any request of the window runs, so what the hint saw of key `k` is
/// the value from before the window's PUT and DELETE of `k`. Each GET
/// must still answer from its own place in the request order; a server
/// that ever served what the hint saw would answer `v1 · v1 · v1` here.
#[test]
fn hinted_gets_answer_from_their_place_in_the_request_order() {
    const KEYS: u64 = 16;
    for crc in [false, true] {
        let store = Arc::new(KvStore::new(Arc::new(Stm::new())));
        let config = ServerConfig { workers: 1, crc, ..ServerConfig::default() };
        let handle =
            Server::spawn(Arc::clone(&store) as Arc<dyn ServerStore>, "127.0.0.1:0", config)
                .unwrap();
        let (v1, v2) = (|k: u64| format!("v1-of-{k}").into_bytes(), |k: u64| vec![k as u8; 64]);
        for k in 0..KEYS {
            store.put(k, Value::from_bytes(&v1(k)));
        }

        let window: Vec<Request> = (0..KEYS)
            .flat_map(|key| {
                [
                    Request::Get { key },
                    Request::Put { key, value: v2(key) },
                    Request::Get { key },
                    Request::Delete { key },
                    Request::Get { key },
                ]
            })
            .collect();
        let replies = one_window(handle.local_addr(), &window, crc);
        for (key, of_key) in replies.chunks(5).enumerate() {
            let key = key as u64;
            let want = [
                Response::Value(Some(v1(key))),
                Response::Written { existed: true },
                Response::Value(Some(v2(key))),
                Response::Deleted { existed: true },
                Response::Value(None),
            ];
            assert_eq!(of_key, want, "key {key}, crc {crc}");
        }
        assert!(store.is_empty());
        // The test means something only if the hint ran: all three GETs
        // of every key, in the one window the single write made.
        assert_eq!(handle.stats().hinted_keys.load(Ordering::Relaxed), 3 * KEYS);
        handle.shutdown();
    }
}

/// A window of nothing but GETs — the shape the hint exists for — with
/// repeated keys and keys that were never written: more keys than one
/// hinting chunk, every reply the record or its absence.
#[test]
fn a_window_of_gets_with_duplicates_and_absent_keys() {
    let store = Arc::new(KvStore::new(Arc::new(Stm::new())));
    let handle = Server::spawn(
        Arc::clone(&store) as Arc<dyn ServerStore>,
        "127.0.0.1:0",
        ServerConfig { workers: 1, ..ServerConfig::default() },
    )
    .unwrap();
    let record = |k: u64| [k.to_le_bytes(), (!k).to_le_bytes()].concat().repeat(4);
    for k in (0..40u64).filter(|k| k % 3 != 0) {
        store.put(k, Value::from_bytes(&record(k)));
    }

    // 64 GETs over 40 keys: each of 0..24 twice, a third of them absent.
    let keys: Vec<u64> = (0..64u64).map(|i| i % 40).collect();
    let window: Vec<Request> = keys.iter().map(|&key| Request::Get { key }).collect();
    let replies = one_window(handle.local_addr(), &window, false);
    for (&key, reply) in keys.iter().zip(&replies) {
        let want = (key % 3 != 0).then(|| record(key));
        assert_eq!(*reply, Response::Value(want), "key {key}");
    }
    let stats = handle.stats();
    assert_eq!(stats.hinted_keys.load(Ordering::Relaxed), 64);

    // One request per window, the open-loop shape: nothing to overlap,
    // so nothing is hinted.
    let mut client = Client::connect(handle.local_addr()).unwrap();
    for key in 0..8u64 {
        assert_eq!(client.get(key).unwrap(), (key % 3 != 0).then(|| record(key)));
    }
    assert_eq!(stats.hinted_keys.load(Ordering::Relaxed), 64);
    handle.shutdown();
}

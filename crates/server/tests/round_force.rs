//! One log force per event-loop round, proven by order rather than by
//! time. A one-worker server fronts a `DurableKv` in Sync mode through
//! two gates the test holds:
//!
//! * a [`ServerStore`] wrapper parks the round's first `stage_writes`
//!   until the test has written a second connection's frames, so that
//!   connection's window is readable while the round is still staging;
//! * a [`Storage`] wrapper parks the round's `sync` until the test has
//!   seen that neither client socket has a byte to read.
//!
//! Every step waits on an event the server causes; the only clock is a
//! generous guard that turns a hang into a failure.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use polytm_durable::{DurableKv, DurableKvConfig, FaultFs, Storage};
use polytm_server::protocol::{decode_frame, encode_request, parse_response, FrameEvent};
use polytm_server::{
    BatchTag, ErrorCode, Request, Response, Server, ServerConfig, ServerStore, StoreError, TxnOp,
    WriteReply, WriteRequest,
};

/// Liveness guard for the rendezvous waits: far beyond anything a
/// correct run needs, there only so a broken server fails the test
/// instead of hanging it.
const GUARD: Duration = Duration::from_secs(60);

/// A one-shot rendezvous. When armed, the first [`Gate::pass`] marks
/// the gate entered and blocks until the test calls [`Gate::open`];
/// every later pass (or any pass of an unarmed gate) goes straight
/// through.
struct Gate {
    /// `(armed, entered, open)`.
    state: Mutex<(bool, bool, bool)>,
    cond: Condvar,
}

impl Gate {
    fn new(armed: bool) -> Self {
        Gate { state: Mutex::new((armed, false, false)), cond: Condvar::new() }
    }

    fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        if !state.0 {
            return;
        }
        state.0 = false;
        state.1 = true;
        self.cond.notify_all();
        let (state, timeout) = self.cond.wait_timeout_while(state, GUARD, |s| !s.2).unwrap();
        assert!(!timeout.timed_out() && state.2, "the test never opened the gate");
    }

    fn await_entered(&self) {
        let state = self.state.lock().unwrap();
        let (state, timeout) = self.cond.wait_timeout_while(state, GUARD, |s| !s.1).unwrap();
        assert!(!timeout.timed_out() && state.1, "the server never reached the gate");
    }

    fn open(&self) {
        self.state.lock().unwrap().2 = true;
        self.cond.notify_all();
    }
}

/// `FaultFs` with a gate in front of `sync`, counting syncs and the
/// ones that failed.
struct GatedFs {
    inner: FaultFs,
    gate: Gate,
    syncs: AtomicU64,
    failed_syncs: AtomicU64,
}

impl GatedFs {
    fn new(inner: FaultFs, armed: bool) -> Self {
        GatedFs {
            inner,
            gate: Gate::new(armed),
            syncs: AtomicU64::new(0),
            failed_syncs: AtomicU64::new(0),
        }
    }
}

impl Storage for GatedFs {
    fn append(&self, name: &str, bytes: &[u8]) -> std::io::Result<()> {
        self.inner.append(name, bytes)
    }

    fn sync(&self, name: &str) -> std::io::Result<()> {
        self.syncs.fetch_add(1, Ordering::SeqCst);
        self.gate.pass();
        let result = self.inner.sync(name);
        if result.is_err() {
            self.failed_syncs.fetch_add(1, Ordering::SeqCst);
        }
        result
    }

    fn read(&self, name: &str) -> std::io::Result<Vec<u8>> {
        self.inner.read(name)
    }

    fn exists(&self, name: &str) -> std::io::Result<bool> {
        self.inner.exists(name)
    }

    fn rename(&self, from: &str, to: &str) -> std::io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove(&self, name: &str) -> std::io::Result<()> {
        self.inner.remove(name)
    }

    fn list(&self) -> std::io::Result<Vec<String>> {
        self.inner.list()
    }
}

/// A `DurableKv` whose first `stage_writes` passes a gate first.
struct GatedStore {
    inner: DurableKv,
    gate: Gate,
}

impl ServerStore for GatedStore {
    fn get(&self, key: u64) -> Option<Vec<u8>> {
        ServerStore::get(&self.inner, key)
    }

    fn scan(&self, lo: u64, hi: u64, limit: usize) -> (Vec<(u64, Vec<u8>)>, bool) {
        self.inner.scan(lo, hi, limit)
    }

    fn cas(&self, key: u64, expected: Option<&[u8]>, new: &[u8]) -> Result<bool, StoreError> {
        self.inner.cas(key, expected, new)
    }

    fn commit_writes(
        &self,
        batch: &[WriteRequest],
        tag: BatchTag,
    ) -> Result<Vec<WriteReply>, StoreError> {
        self.inner.commit_writes(batch, tag)
    }

    fn stage_writes(
        &self,
        batch: &[WriteRequest],
        tag: BatchTag,
    ) -> Result<(Vec<WriteReply>, Option<u64>), StoreError> {
        self.gate.pass();
        self.inner.stage_writes(batch, tag)
    }

    fn wait_durable(&self, ticket: u64) -> Result<(), StoreError> {
        ServerStore::wait_durable(&self.inner, ticket)
    }

    fn txn(&self, ops: &[TxnOp]) -> Result<Vec<Option<Vec<u8>>>, StoreError> {
        ServerStore::txn(&self.inner, ops)
    }

    fn is_read_only(&self) -> bool {
        ServerStore::is_read_only(&self.inner)
    }
}

/// A raw client: frames go out as one write, replies are read back
/// frame by frame.
struct Wire {
    stream: TcpStream,
    buf: Vec<u8>,
    next_seq: u32,
}

impl Wire {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(GUARD)).unwrap();
        Wire { stream, buf: Vec::new(), next_seq: 1 }
    }

    /// Send `requests` in one write; returns their sequence numbers.
    fn send(&mut self, requests: &[Request]) -> Vec<u32> {
        let seqs: Vec<u32> = (self.next_seq..).take(requests.len()).collect();
        self.next_seq += requests.len() as u32;
        let wire: Vec<u8> = requests
            .iter()
            .zip(&seqs)
            .flat_map(|(req, &seq)| encode_request(req, seq, false))
            .collect();
        self.stream.write_all(&wire).unwrap();
        seqs
    }

    /// The replies to `seqs`, which must arrive in that order.
    fn replies(&mut self, seqs: &[u32]) -> Vec<Response> {
        let mut out = Vec::new();
        while out.len() < seqs.len() {
            match decode_frame(&self.buf) {
                FrameEvent::Frame { consumed, opcode, seq, payload } => {
                    assert_eq!(seq, seqs[out.len()], "replies arrive in request order");
                    out.push(parse_response(opcode, payload).unwrap());
                    self.buf.drain(..consumed);
                }
                FrameEvent::Incomplete { .. } => {
                    let mut chunk = [0u8; 4096];
                    let n = self.stream.read(&mut chunk).unwrap();
                    assert!(n > 0, "server hung up after {} replies", out.len());
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                FrameEvent::Corrupt(why) => panic!("corrupt reply stream: {why:?}"),
            }
        }
        out
    }

    fn call(&mut self, requests: &[Request]) -> Vec<Response> {
        let seqs = self.send(requests);
        self.replies(&seqs)
    }

    /// Nothing has arrived: a non-blocking read says `WouldBlock`.
    fn assert_quiet(&mut self, who: &str) {
        assert!(self.buf.is_empty());
        self.stream.set_nonblocking(true).unwrap();
        let mut byte = [0u8; 1];
        match self.stream.read(&mut byte) {
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            other => panic!("{who}: a reply left before the round's force: {other:?}"),
        }
        self.stream.set_nonblocking(false).unwrap();
    }
}

fn put(key: u64) -> Request {
    Request::Put { key, value: key.to_le_bytes().to_vec() }
}

/// One worker, so both connections share one event loop and one round.
fn spawn(
    fs: &Arc<GatedFs>,
    stage_gate: bool,
) -> (Arc<GatedStore>, polytm_server::ServerHandle, Wire, Wire) {
    let inner =
        DurableKv::open(Arc::clone(fs) as Arc<dyn Storage>, DurableKvConfig::default()).unwrap();
    let store = Arc::new(GatedStore { inner, gate: Gate::new(stage_gate) });
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let handle =
        Server::spawn(Arc::clone(&store) as Arc<dyn ServerStore>, "127.0.0.1:0", config).unwrap();
    let (mut a, mut b) = (Wire::connect(handle.local_addr()), Wire::connect(handle.local_addr()));
    // A reply to a PING means the worker owns that connection: both are
    // in its sweep before any write arrives.
    assert_eq!(a.call(&[Request::Ping]), vec![Response::Pong]);
    assert_eq!(b.call(&[Request::Ping]), vec![Response::Pong]);
    (store, handle, a, b)
}

/// Connection B's batch arrives while connection A's is staging. It
/// must join the same round: one sync for both, and neither reply
/// leaves before that sync returns.
#[test]
fn one_force_covers_every_connection_staged_in_the_round() {
    let fs = Arc::new(GatedFs::new(FaultFs::new(0x60F0), true));
    let (store, handle, mut a, mut b) = spawn(&fs, true);

    let a_seqs = a.send(&[put(1), put(2), put(3)]);
    store.gate.await_entered();
    let b_seqs = b.send(&[put(11), put(12)]);
    store.gate.open();

    // The round's force is on the device.
    fs.gate.await_entered();
    a.assert_quiet("connection A");
    b.assert_quiet("connection B");
    fs.gate.open();

    let written = Response::Written { existed: false };
    assert_eq!(a.replies(&a_seqs), vec![written.clone(); 3]);
    assert_eq!(b.replies(&b_seqs), vec![written; 2]);
    assert_eq!(fs.syncs.load(Ordering::SeqCst), 1, "one sync for the two batches");
    let stats = store.inner.stm().stats();
    assert_eq!((stats.commits_durable, stats.fsyncs), (2, 1));
    let server = handle.stats();
    assert_eq!(server.batches.load(Ordering::Relaxed), 2);
    assert_eq!(server.batched_ops.load(Ordering::Relaxed), 5);
    handle.shutdown();
}

/// The round's sync fails. Every held write on every connection
/// answers `ReadOnly`, in request order; the reads held behind them
/// still answer; and both connections stay open.
#[test]
fn a_failed_force_fails_every_held_write_and_drops_nothing() {
    // Mutating storage operations: opening the store removes a stale
    // checkpoint file (1), the round's flush appends (2) and syncs (3).
    let fs = Arc::new(GatedFs::new(FaultFs::with_crash_after(0xFA11, 3), false));
    let (store, handle, mut a, mut b) = spawn(&fs, true);

    let a_seqs = a.send(&[put(1), put(2), Request::Get { key: 1 }, put(3)]);
    store.gate.await_entered();
    let b_seqs = b.send(&[put(11), Request::Get { key: 11 }]);
    store.gate.open();

    let read_only = Response::Error(ErrorCode::ReadOnly);
    let a_replies = a.replies(&a_seqs);
    let b_replies = b.replies(&b_seqs);
    assert_eq!(a_replies[..2], [read_only.clone(), read_only.clone()]);
    assert!(matches!(a_replies[2], Response::Value(_)), "held GET answered: {:?}", a_replies[2]);
    assert_eq!(a_replies[3], read_only);
    assert_eq!(b_replies[0], read_only);
    assert!(matches!(b_replies[1], Response::Value(_)), "held GET answered: {:?}", b_replies[1]);
    assert_eq!(
        (fs.syncs.load(Ordering::SeqCst), fs.failed_syncs.load(Ordering::SeqCst)),
        (1, 1),
        "the round's one sync is the one that failed"
    );

    // Degraded, not disconnected.
    assert_eq!(a.call(&[Request::Ping]), vec![Response::Pong]);
    assert_eq!(b.call(&[put(12)]), vec![read_only]);
    assert!(ServerStore::is_read_only(store.as_ref()));
    assert_eq!(handle.stats().read_only_errors.load(Ordering::Relaxed), 5);
    handle.shutdown();
}

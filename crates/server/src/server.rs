//! The non-blocking event loop: acceptor + worker threads, request
//! admission, write coalescing, and per-connection backpressure.
//!
//! ## Shape
//!
//! One acceptor thread polls the listener and deals fresh connections
//! round-robin onto worker inboxes. Each worker owns its connections
//! outright — no cross-thread handoff after accept — and runs a sweep
//! loop: poll readiness, read, decode, hint, execute, flush.
//!
//! ## Batching / admission
//!
//! Everything decodable after one read sweep forms the *batch window*:
//! all of it is decoded first, the store is told which keys the
//! window's `GET`s will read ([`crate::store::ServerStore::warm`], so
//! their cache misses overlap instead of queueing behind one another),
//! and only then do the requests run, in order.
//! Within the window, consecutive write requests (`PUT`, `DELETE`,
//! `MULTI`) are admitted into a pending run and committed as **one**
//! STM transaction ([`crate::store::ServerStore::stage_writes`]),
//! bounded by [`ServerConfig::batch_max_ops`] and
//! [`ServerConfig::batch_max_bytes`]. Reads and read-modify ops
//! (`GET`, `SCAN`, `CAS`, `TXN`, `PING`) are barriers: they flush the
//! pending run first, so every response reflects a state consistent
//! with its position in the request order. This mirrors the WAL's
//! group commit one level up: many wire requests, one commit.
//!
//! ## One log force per round
//!
//! A sweep is a *round*. A durable store in Sync mode stages each
//! batch and hands back a log ticket instead of waiting for the
//! fsync. Once a round holds a ticket, every reply it produces is held
//! on its connection, in request order; the worker re-polls, without
//! waiting, the connections it has not served this round (each at most
//! once, until none is readable), so their batches stage behind the
//! same force; then it waits once on the highest ticket, emits the
//! staged batches' `BATCH_COMMIT`s, and releases the held replies —
//! every write as `ReadOnly` if the force failed. No reply byte leaves
//! before the force that covers its round. A round that staged nothing
//! (every round of an in-memory store) flushes in place.
//!
//! ## Backpressure
//!
//! A worker stops *reading* a connection whose unflushed response
//! bytes exceed [`ServerConfig::max_backlog`]; reading resumes once
//! the kernel drains the backlog. Combined with the read-buffer cap,
//! per-connection memory is bounded — the argument is written out in
//! `DESIGN.md` §10.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use polytm::trace::{self, TraceEvent};
use polytm_obs::{encode_entries, MetricsRegistry, MetricsSource};

use crate::poll::{Interest, Poller, READ, WRITE};
use crate::protocol::{
    decode_frame, encode_get_reply_into, encode_response_into, parse_request, ErrorCode,
    FrameEvent, Request, Response,
};
use crate::store::{
    emit_batch_commit, BatchTag, ServerStore, StoreError, WriteReply, WriteRequest,
};

/// Tunables for [`Server::spawn`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Event-loop worker threads (connections are partitioned across
    /// them at accept time). Defaults to available parallelism.
    pub workers: usize,
    /// Max admitted write requests per coalesced commit.
    pub batch_max_ops: usize,
    /// Byte budget (payload bytes) per coalesced commit.
    pub batch_max_bytes: usize,
    /// Unflushed response bytes above which a connection stops being
    /// read (backpressure).
    pub max_backlog: usize,
    /// Server-side cap on entries returned by one `SCAN`.
    pub scan_cap: u32,
    /// Attach CRC-32 trailers to response frames.
    pub crc: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            batch_max_ops: 64,
            batch_max_bytes: 256 << 10,
            max_backlog: 256 << 10,
            scan_cap: 4096,
            crc: false,
        }
    }
}

/// Monotonic event-loop counters; all relaxed (they are telemetry,
/// not synchronisation). `docs/RUNBOOK.md` documents how to read them.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub accepted: AtomicU64,
    /// Connections closed (any reason).
    pub closed: AtomicU64,
    /// Well-formed requests decoded.
    pub requests: AtomicU64,
    /// Responses encoded (== requests on a healthy stream).
    pub responses: AtomicU64,
    /// Coalesced write commits.
    pub batches: AtomicU64,
    /// Write requests carried by those commits (`batched_ops /
    /// batches` = mean coalescing factor,
    /// [`ServerStats::batch_ops_per_commit`]).
    pub batched_ops: AtomicU64,
    /// Bytes read off sockets.
    pub bytes_in: AtomicU64,
    /// Bytes flushed to sockets.
    pub bytes_out: AtomicU64,
    /// Transitions into the "backlog full, reads paused" state.
    pub backpressure_stalls: AtomicU64,
    /// Total nanoseconds connections spent in that state (stall entry
    /// to read-resume, accumulated at resume or close). With the edge
    /// count above this turns "it stalled" into "it stalled for 40 ms
    /// of the run".
    pub backpressure_stalled_ns: AtomicU64,
    /// Connections dropped for framing corruption.
    pub corrupt_conns: AtomicU64,
    /// Error responses due to the store latching read-only.
    pub read_only_errors: AtomicU64,
    /// `GET` keys handed to [`ServerStore::warm`] ahead of execution
    /// (bumped once per batch window; a window holding a single `GET`
    /// hints nothing). `hinted_keys / requests` says whether clients
    /// pipeline deeply enough for the hint to act.
    pub hinted_keys: AtomicU64,
}

impl ServerStats {
    /// Mean admitted write requests per coalesced commit so far.
    pub fn batch_ops_per_commit(&self) -> f64 {
        let batches = self.batches.load(Ordering::Relaxed);
        if batches == 0 {
            0.0
        } else {
            self.batched_ops.load(Ordering::Relaxed) as f64 / batches as f64
        }
    }
}

/// Register the event-loop counters under a prefix (conventionally
/// `server`) in the unified metrics plane. Key names mirror the field
/// names; `batch_ops_per_commit` is the derived coalescing factor.
impl MetricsSource for ServerStats {
    fn collect(&self, out: &mut Vec<(String, f64)>) {
        let mut push = |key: &str, v: u64| out.push((key.to_string(), v as f64));
        push("accepted", self.accepted.load(Ordering::Relaxed));
        push("closed", self.closed.load(Ordering::Relaxed));
        push("requests", self.requests.load(Ordering::Relaxed));
        push("responses", self.responses.load(Ordering::Relaxed));
        push("batches", self.batches.load(Ordering::Relaxed));
        push("batched_ops", self.batched_ops.load(Ordering::Relaxed));
        push("bytes_in", self.bytes_in.load(Ordering::Relaxed));
        push("bytes_out", self.bytes_out.load(Ordering::Relaxed));
        push("backpressure_stalls", self.backpressure_stalls.load(Ordering::Relaxed));
        push("backpressure_stalled_ns", self.backpressure_stalled_ns.load(Ordering::Relaxed));
        push("corrupt_conns", self.corrupt_conns.load(Ordering::Relaxed));
        push("read_only_errors", self.read_only_errors.load(Ordering::Relaxed));
        push("hinted_keys", self.hinted_keys.load(Ordering::Relaxed));
        out.push(("batch_ops_per_commit".to_string(), self.batch_ops_per_commit()));
    }
}

/// A running server; dropping (or calling [`ServerHandle::shutdown`])
/// stops the acceptor and workers and closes every connection.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared counters.
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.stats
    }

    /// Stop accepting, drain the event loops, and join all threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Namespace for spawning the front end.
pub struct Server;

impl Server {
    /// Bind `addr` and spawn the acceptor + worker threads serving
    /// `store`. Returns immediately; the handle owns the threads.
    pub fn spawn(
        store: Arc<dyn ServerStore>,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<ServerHandle> {
        Self::spawn_inner(store, addr, config, None)
    }

    /// Like [`Server::spawn`], but attach a metrics registry: the
    /// server registers its own counters under the `server` prefix and
    /// answers `STATS` requests with snapshots of the whole registry
    /// (whatever else the embedder registered — STM, WAL, advisor,
    /// tracer, sampler rates).
    pub fn spawn_with_metrics(
        store: Arc<dyn ServerStore>,
        addr: &str,
        config: ServerConfig,
        registry: Arc<MetricsRegistry>,
    ) -> std::io::Result<ServerHandle> {
        Self::spawn_inner(store, addr, config, Some(registry))
    }

    fn spawn_inner(
        store: Arc<dyn ServerStore>,
        addr: &str,
        config: ServerConfig,
        registry: Option<Arc<MetricsRegistry>>,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        if let Some(reg) = &registry {
            reg.register("server", Arc::clone(&stats) as Arc<dyn MetricsSource>);
        }
        let workers = config.workers.max(1);

        let inboxes: Vec<Arc<Mutex<Vec<TcpStream>>>> =
            (0..workers).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();

        let mut threads = Vec::with_capacity(workers + 1);
        for (i, inbox) in inboxes.iter().enumerate() {
            let inbox = Arc::clone(inbox);
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            let registry = registry.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("polytm-server-w{i}"))
                    .spawn(move || worker_loop(inbox, store, config, stop, stats, registry))?,
            );
        }
        {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            threads.push(
                std::thread::Builder::new()
                    .name("polytm-server-accept".into())
                    .spawn(move || accept_loop(listener, inboxes, stop, stats))?,
            );
        }
        Ok(ServerHandle { addr: local, stop, stats, threads })
    }
}

fn accept_loop(
    listener: TcpListener,
    inboxes: Vec<Arc<Mutex<Vec<TcpStream>>>>,
    stop: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
) {
    let poller = Poller::new();
    let mut next = 0usize;
    while !stop.load(Ordering::Acquire) {
        poller.wait(
            &[Interest { fd: listener.as_raw_fd(), events: READ }],
            Duration::from_millis(25),
        );
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    stats.accepted.fetch_add(1, Ordering::Relaxed);
                    inboxes[next % inboxes.len()].lock().unwrap().push(stream);
                    next += 1;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        poller.idle_backoff();
    }
}

/// Process-wide connection sequence; gives every accepted connection a
/// stable identity for trace attribution (fds get reused, these don't).
static NEXT_CONN_ID: AtomicU64 = AtomicU64::new(1);

/// Per-connection state owned by exactly one worker.
struct Conn {
    /// Stable identity for trace events (`REQ_*`, `BATCH_*`) and the
    /// flight recorder.
    id: u64,
    stream: TcpStream,
    /// Received, not-yet-decoded bytes.
    in_buf: Vec<u8>,
    /// Encoded, not-yet-flushed response bytes (`out_pos` is the
    /// flushed prefix).
    out_buf: Vec<u8>,
    out_pos: usize,
    /// Peer finished sending (half-close): drain and hang up.
    read_eof: bool,
    /// Fatal condition (corrupt stream / I/O error): drop after the
    /// current flush attempt.
    dead: bool,
    /// When backpressure started excluding this connection from reads
    /// (`Some` while stalled). Duration accumulates into
    /// [`ServerStats::backpressure_stalled_ns`] at resume or close.
    stall_start: Option<std::time::Instant>,
    /// Replies produced while the worker's round holds a log ticket,
    /// in request order; released after the round's force.
    held: Vec<Held>,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            id: NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed),
            stream,
            in_buf: Vec::new(),
            out_buf: Vec::new(),
            out_pos: 0,
            read_eof: false,
            dead: false,
            stall_start: None,
            held: Vec::new(),
        }
    }

    fn backlog(&self) -> usize {
        self.out_buf.len() - self.out_pos
    }

    fn finished(&self) -> bool {
        self.dead || (self.read_eof && self.backlog() == 0 && self.in_buf.is_empty())
    }

    /// Whether a sweep may read this connection (it is live, and not
    /// held back by backpressure).
    fn readable(&self, config: &ServerConfig) -> bool {
        !self.read_eof && !self.dead && self.backlog() < config.max_backlog
    }
}

/// Bytes read per connection per sweep; bounds the batch window.
const READ_CHUNK: usize = 64 << 10;

/// One complete frame of a batch window, decoded and parsed.
struct Decoded {
    opcode: u8,
    seq: u32,
    payload_len: usize,
    parsed: Result<Request, ErrorCode>,
}

/// The pending coalesced run: admitted write requests, and beside them
/// the wire identity `(opcode, seq)` needed to answer each one.
#[derive(Default)]
struct Run {
    writes: Vec<WriteRequest>,
    ids: Vec<(u8, u32)>,
    /// Payload bytes admitted so far.
    bytes: usize,
}

/// A worker's buffers for the batch window in hand, kept between
/// windows so a steady stream of them allocates nothing here. Each
/// holds at most what one window's bytes decode to, and a window is
/// bounded by [`READ_CHUNK`] and the frame cap.
#[derive(Default)]
struct Window {
    frames: Vec<Decoded>,
    /// Keys of the window's `GET`s, in request order.
    get_keys: Vec<u64>,
    run: Run,
}

/// A reply on its way out: a coalesced write's outcome, or any other
/// response.
enum Reply {
    Write(WriteReply),
    Other(Response),
}

/// A reply kept back until its round's log force (see [`Round`]).
struct Held {
    opcode: u8,
    seq: u32,
    reply: Reply,
}

/// A batch staged with a log ticket, waiting for its round's force.
struct StagedBatch {
    tag: BatchTag,
    ops: u32,
    /// Flight-recorder origins: the batch window's start, and the
    /// commit's (`None` when no recorder is installed).
    sweep_start: std::time::Instant,
    commit_start: Option<std::time::Instant>,
}

/// The log force one event-loop round owes before its replies leave.
/// A round is one sweep: the poll pass plus the re-polls that gather
/// more connections behind the same force.
#[derive(Default)]
struct Round {
    /// Highest ticket staged this round. `None` while nothing is
    /// staged: replies then go straight to the output buffers.
    ticket: Option<u64>,
    /// The batches behind `ticket`, in staging order.
    staged: Vec<StagedBatch>,
    /// Per connection (by index), whether it was served this round.
    served: Vec<bool>,
}

/// What every step of a sweep reads and nothing in it writes.
struct Ctx<'a> {
    store: &'a dyn ServerStore,
    config: &'a ServerConfig,
    stats: &'a ServerStats,
    registry: Option<&'a MetricsRegistry>,
}

fn worker_loop(
    inbox: Arc<Mutex<Vec<TcpStream>>>,
    store: Arc<dyn ServerStore>,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    registry: Option<Arc<MetricsRegistry>>,
) {
    let cx = Ctx {
        store: store.as_ref(),
        config: &config,
        stats: &stats,
        registry: registry.as_deref(),
    };
    let poller = Poller::new();
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut window = Window::default();
    let mut round = Round::default();

    while !stop.load(Ordering::Acquire) {
        conns.extend(inbox.lock().unwrap().drain(..).map(Conn::new));

        let interests: Vec<Interest> = conns
            .iter_mut()
            .map(|c| {
                let mut events = 0u8;
                let over = c.backlog() >= config.max_backlog;
                if over && c.stall_start.is_none() {
                    stats.backpressure_stalls.fetch_add(1, Ordering::Relaxed);
                    c.stall_start = Some(std::time::Instant::now());
                } else if !over {
                    if let Some(t0) = c.stall_start.take() {
                        let stalled_ns = t0.elapsed().as_nanos() as u64;
                        stats.backpressure_stalled_ns.fetch_add(stalled_ns, Ordering::Relaxed);
                        trace::emit(|| {
                            TraceEvent::new(
                                trace::code::NET_STALL,
                                0,
                                trace::NO_CLASS,
                                0,
                                c.id,
                                stalled_ns,
                            )
                        });
                    }
                }
                if c.readable(&config) {
                    events |= READ;
                }
                if c.backlog() > 0 {
                    events |= WRITE;
                }
                Interest { fd: c.stream.as_raw_fd(), events }
            })
            .collect();

        let ready = poller.wait(&interests, Duration::from_millis(25));
        let mut progressed = false;
        round.served.clear();
        round.served.resize(conns.len(), false);

        for (i, (conn, ready)) in conns.iter_mut().zip(ready).enumerate() {
            if ready & READ != 0 && !conn.read_eof && !conn.dead {
                progressed |= serve(conn, &mut scratch, &mut window, &mut round, &cx);
                round.served[i] = true;
            }
            if conn.backlog() > 0 {
                // Optimistic flush: fresh responses should not wait a
                // poll round; a full kernel buffer just says
                // `WouldBlock` and the WRITE interest wakes us later.
                // Held replies are not in the buffer yet.
                progressed |= flush(conn, &stats);
            }
        }

        if round.ticket.is_some() {
            // The round owes a log force. Every connection whose window
            // arrived meanwhile can stage behind the same one: re-poll,
            // without waiting, the ones not served yet, each at most
            // once, until none is readable.
            loop {
                let (idx, interests): (Vec<usize>, Vec<Interest>) = conns
                    .iter()
                    .enumerate()
                    .filter(|&(i, c)| !round.served[i] && c.readable(&config))
                    .map(|(i, c)| (i, Interest { fd: c.stream.as_raw_fd(), events: READ }))
                    .unzip();
                if idx.is_empty() {
                    break;
                }
                let mut served_any = false;
                for (i, ready) in idx.into_iter().zip(poller.wait(&interests, Duration::ZERO)) {
                    if ready & READ != 0 {
                        serve(&mut conns[i], &mut scratch, &mut window, &mut round, &cx);
                        round.served[i] = true;
                        served_any = true;
                    }
                }
                if !served_any {
                    break;
                }
            }
            release(&mut conns, &mut round, &cx);
            progressed = true;
        }

        // A connection that dies while stalled still owes its stall
        // time to the counter.
        for c in conns.iter_mut().filter(|c| c.finished()) {
            if let Some(t0) = c.stall_start.take() {
                let stalled_ns = t0.elapsed().as_nanos() as u64;
                stats.backpressure_stalled_ns.fetch_add(stalled_ns, Ordering::Relaxed);
            }
        }
        let before = conns.len();
        conns.retain(|c| !c.finished());
        stats.closed.fetch_add((before - conns.len()) as u64, Ordering::Relaxed);

        if !progressed {
            poller.idle_backoff();
        }
    }
    stats.closed.fetch_add(conns.len() as u64, Ordering::Relaxed);
}

/// Read once and run the batch window it completes; returns whether
/// any bytes arrived.
fn serve(
    conn: &mut Conn,
    scratch: &mut [u8],
    window: &mut Window,
    round: &mut Round,
    cx: &Ctx<'_>,
) -> bool {
    let got = fill(conn, scratch, cx.stats);
    process(conn, window, round, cx);
    if conn.read_eof && !conn.in_buf.is_empty() {
        // Half-closed with a partial frame: those bytes can never
        // complete, so drop them and let the connection finish once
        // its backlog drains.
        conn.in_buf.clear();
    }
    got
}

/// Pay the round's one log force, then let its held replies out: one
/// `BATCH_COMMIT` per staged batch, then every held reply in request
/// order — each write as `ReadOnly` if the force failed — and a flush.
fn release(conns: &mut [Conn], round: &mut Round, cx: &Ctx<'_>) {
    let Some(ticket) = round.ticket.take() else {
        return;
    };
    let forced = cx.store.wait_durable(ticket).is_ok();
    let flight = polytm_obs::flight::get();
    for batch in round.staged.drain(..).filter(|_| forced) {
        emit_batch_commit(batch.tag, batch.ops as usize);
        settled(batch, flight, cx.stats);
    }
    for conn in conns.iter_mut().filter(|c| !c.held.is_empty()) {
        let mut held = std::mem::take(&mut conn.held);
        for Held { opcode, seq, reply } in held.drain(..) {
            let resp = match reply {
                Reply::Write(_) if !forced => {
                    cx.stats.read_only_errors.fetch_add(1, Ordering::Relaxed);
                    Response::Error(ErrorCode::ReadOnly)
                }
                Reply::Write(reply) => write_response(reply),
                Reply::Other(resp) => resp,
            };
            encode(conn, opcode, seq, &resp, cx);
        }
        conn.held = held;
        flush(conn, cx.stats);
    }
}

/// Count a batch whose replies may now leave, and hand it to the
/// flight recorder if it was slow.
fn settled(batch: StagedBatch, flight: Option<&polytm_obs::FlightRecorder>, stats: &ServerStats) {
    stats.batches.fetch_add(1, Ordering::Relaxed);
    stats.batched_ops.fetch_add(u64::from(batch.ops), Ordering::Relaxed);
    if let Some(recorder) = flight {
        let total_ns = batch.sweep_start.elapsed().as_nanos() as u64;
        if total_ns >= recorder.threshold_ns() {
            recorder.record(polytm_obs::SlowSpan {
                conn: batch.tag.conn,
                first_seq: batch.tag.first_seq,
                last_seq: batch.tag.last_seq,
                ops: batch.ops,
                total_ns,
                commit_ns: batch.commit_start.map_or(0, |t0| t0.elapsed().as_nanos() as u64),
            });
        }
    }
}

/// One read per sweep, into a buffer the size of the sweep cap;
/// returns whether any bytes arrived. A read that comes back short took
/// everything the socket held, so asking again would only be told
/// `WouldBlock`; after a full one the cap is reached. Either way what is
/// left, or arrives later, raises the (level-triggered) READ readiness
/// again, and that is also how EOF is seen once the bytes ahead of it
/// are read.
fn fill(conn: &mut Conn, scratch: &mut [u8], stats: &ServerStats) -> bool {
    let got = loop {
        match conn.stream.read(scratch) {
            Ok(0) => {
                conn.read_eof = true;
                break 0;
            }
            Ok(n) => {
                conn.in_buf.extend_from_slice(&scratch[..n]);
                break n;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break 0,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break 0;
            }
        }
    };
    stats.bytes_in.fetch_add(got as u64, Ordering::Relaxed);
    got > 0
}

/// Decode, hint, then execute everything in `conn.in_buf` — one batch
/// window.
fn process(conn: &mut Conn, window: &mut Window, round: &mut Round, cx: &Ctx<'_>) {
    // One stamp per batch window: request spans measure from here
    // (the flight recorder's `total_ns` origin).
    let sweep_start = std::time::Instant::now();
    let Window { frames, get_keys, run } = window;

    // Decode: every complete frame is framed, CRC-checked and parsed
    // exactly once, before any of them runs.
    let mut cursor = 0usize;
    let mut corrupt = false;
    loop {
        match decode_frame(&conn.in_buf[cursor..]) {
            FrameEvent::Incomplete { .. } => break,
            FrameEvent::Corrupt(_) => {
                corrupt = true;
                break;
            }
            FrameEvent::Frame { consumed, opcode, seq, payload } => {
                cursor += consumed;
                let parsed = parse_request(opcode, payload);
                if let Ok(Request::Get { key }) = parsed {
                    get_keys.push(key);
                }
                frames.push(Decoded { opcode, seq, payload_len: payload.len(), parsed });
            }
        }
    }
    conn.in_buf.drain(..cursor);
    cx.stats.requests.fetch_add(frames.len() as u64, Ordering::Relaxed);

    // Hint: the window's GETs will each miss cache along the same
    // dependent chain, one after another. Telling the store all their
    // keys first lets it overlap those misses. A hint answers nothing —
    // every reply below still comes from its own `get`, in its place in
    // the request order — and a lone GET has nothing to overlap with.
    if get_keys.len() >= 2 {
        cx.store.warm(get_keys);
        cx.stats.hinted_keys.fetch_add(get_keys.len() as u64, Ordering::Relaxed);
    }
    get_keys.clear();

    // Execute: the admission state machine, over parsed requests.
    for Decoded { opcode, seq, payload_len, parsed } in frames.drain(..) {
        // The request span opens here: everything the request
        // waits on from now until its `REQ_DONE` lands on this
        // worker's ring, in program order, between the two.
        trace::emit(|| {
            TraceEvent::new(
                trace::code::REQ_RECV,
                opcode,
                trace::NO_CLASS,
                seq,
                conn.id,
                payload_len as u64,
            )
        });
        match parsed.map(admit) {
            Err(code) => {
                commit_run(conn, run, round, cx, sweep_start);
                respond(conn, round, opcode, seq, Reply::Other(Response::Error(code)), cx);
            }
            Ok(Admitted::Write(w)) => {
                run.writes.push(w);
                run.ids.push((opcode, seq));
                run.bytes += payload_len;
                trace::emit(|| {
                    TraceEvent::new(
                        trace::code::BATCH_ENQUEUE,
                        opcode,
                        trace::NO_CLASS,
                        seq,
                        conn.id,
                        run.writes.len() as u64,
                    )
                });
                if run.writes.len() >= cx.config.batch_max_ops
                    || run.bytes >= cx.config.batch_max_bytes
                {
                    commit_run(conn, run, round, cx, sweep_start);
                }
            }
            Ok(Admitted::Barrier(req)) => {
                commit_run(conn, run, round, cx, sweep_start);
                match req {
                    // A reply not held behind a log force is framed with
                    // the value copied straight from the store.
                    Request::Get { key } if round.ticket.is_none() => {
                        let wire_len = encode_get_reply_into(
                            &mut conn.out_buf,
                            opcode,
                            seq,
                            cx.config.crc,
                            |out| cx.store.get_into(key, out),
                        );
                        encoded(conn, opcode, seq, wire_len, cx);
                    }
                    req => {
                        let resp = execute_barrier(&req, cx);
                        respond(conn, round, opcode, seq, Reply::Other(resp), cx);
                    }
                }
            }
        }
    }
    // End of the batch window: whatever is still pending commits now.
    commit_run(conn, run, round, cx, sweep_start);
    if corrupt {
        // Everything framed ahead of the corruption was answered; the
        // stream itself cannot be resynchronised.
        cx.stats.corrupt_conns.fetch_add(1, Ordering::Relaxed);
        conn.dead = true;
    }
}

enum Admitted {
    Write(WriteRequest),
    Barrier(Request),
}

/// Admission: writes coalesce, everything else is a barrier.
fn admit(req: Request) -> Admitted {
    match req {
        Request::Put { key, value } => Admitted::Write(WriteRequest::Put { key, value }),
        Request::Delete { key } => Admitted::Write(WriteRequest::Delete { key }),
        Request::Multi { ops } => Admitted::Write(WriteRequest::Multi { ops }),
        other => Admitted::Barrier(other),
    }
}

/// Stage the pending run as one transaction and answer each request.
/// A batch that comes back with a log ticket joins the round's force
/// (see [`release`]); one that comes back settled is counted here.
fn commit_run(
    conn: &mut Conn,
    run: &mut Run,
    round: &mut Round,
    cx: &Ctx<'_>,
    sweep_start: std::time::Instant,
) {
    let (Some(&(_, first_seq)), Some(&(_, last_seq))) = (run.ids.first(), run.ids.last()) else {
        return;
    };
    run.bytes = 0;
    let tag = BatchTag { conn: conn.id, first_seq, last_seq };
    // Time the commit only when a flight recorder is installed: until
    // then this is one atomic load per batch, no clock reads.
    let flight = polytm_obs::flight::get();
    let commit_start = flight.map(|_| std::time::Instant::now());
    let outcome = cx.store.stage_writes(&run.writes, tag);
    run.writes.clear();
    match outcome {
        Ok((replies, ticket)) => {
            let batch = StagedBatch {
                tag,
                ops: run.ids.len().min(u32::MAX as usize) as u32,
                sweep_start,
                commit_start,
            };
            match ticket {
                Some(ticket) => {
                    round.ticket = Some(round.ticket.map_or(ticket, |t| t.max(ticket)));
                    round.staged.push(batch);
                }
                None => settled(batch, flight, cx.stats),
            }
            for ((opcode, seq), reply) in run.ids.drain(..).zip(replies) {
                respond(conn, round, opcode, seq, Reply::Write(reply), cx);
            }
        }
        Err(StoreError::ReadOnly) => {
            for (opcode, seq) in run.ids.drain(..) {
                cx.stats.read_only_errors.fetch_add(1, Ordering::Relaxed);
                let reply = Reply::Other(Response::Error(ErrorCode::ReadOnly));
                respond(conn, round, opcode, seq, reply, cx);
            }
        }
    }
}

/// Execute a non-coalescable request as its own transaction.
fn execute_barrier(req: &Request, cx: &Ctx<'_>) -> Response {
    let store = cx.store;
    match req {
        Request::Ping => Response::Pong,
        Request::Get { key } => Response::Value(store.get(*key)),
        Request::Scan { lo, hi, limit } => {
            let cap = cx.config.scan_cap.max(1);
            let effective = if *limit == 0 { cap } else { (*limit).min(cap) };
            let (entries, truncated) = store.scan(*lo, *hi, effective as usize);
            Response::Entries { entries, truncated }
        }
        Request::Cas { key, expected, new } => match store.cas(*key, expected.as_deref(), new) {
            Ok(swapped) => Response::Swapped { swapped },
            Err(StoreError::ReadOnly) => {
                cx.stats.read_only_errors.fetch_add(1, Ordering::Relaxed);
                Response::Error(ErrorCode::ReadOnly)
            }
        },
        Request::Txn { ops } => match store.txn(ops) {
            Ok(gets) => Response::TxnResults { gets },
            Err(StoreError::ReadOnly) => {
                cx.stats.read_only_errors.fetch_add(1, Ordering::Relaxed);
                Response::Error(ErrorCode::ReadOnly)
            }
        },
        Request::Stats { text } => {
            let payload = match cx.registry {
                Some(reg) => {
                    if *text {
                        reg.exposition().into_bytes()
                    } else {
                        encode_entries(&reg.snapshot())
                    }
                }
                // No registry attached: an empty snapshot, still
                // well-formed under either format.
                None => {
                    if *text {
                        Vec::new()
                    } else {
                        encode_entries(&[])
                    }
                }
            };
            Response::Stats { payload }
        }
        // Writes never reach here; `admit` coalesces them.
        Request::Put { .. } | Request::Delete { .. } | Request::Multi { .. } => {
            Response::Error(ErrorCode::BadRequest)
        }
    }
}

fn write_response(reply: WriteReply) -> Response {
    match reply {
        WriteReply::Written { existed } => Response::Written { existed },
        WriteReply::Deleted { existed } => Response::Deleted { existed },
        WriteReply::Applied { ops } => Response::Applied { ops },
    }
}

/// Answer a request: encode the reply now, or — while the round holds
/// a log ticket — keep it back, in order, until the round's force.
fn respond(conn: &mut Conn, round: &Round, opcode: u8, seq: u32, reply: Reply, cx: &Ctx<'_>) {
    if round.ticket.is_some() {
        conn.held.push(Held { opcode, seq, reply });
        return;
    }
    let resp = match reply {
        Reply::Write(reply) => write_response(reply),
        Reply::Other(resp) => resp,
    };
    encode(conn, opcode, seq, &resp, cx);
}

/// Frame a response straight into the connection's output buffer
/// (over-cap payloads go out as `TooLarge`, see
/// [`encode_response_into`]).
fn encode(conn: &mut Conn, request_op: u8, seq: u32, resp: &Response, cx: &Ctx<'_>) {
    let wire_len = encode_response_into(&mut conn.out_buf, resp, request_op, seq, cx.config.crc);
    encoded(conn, request_op, seq, wire_len, cx);
}

/// Account a reply of `wire_len` bytes just framed into the output
/// buffer.
fn encoded(conn: &Conn, request_op: u8, seq: u32, wire_len: usize, cx: &Ctx<'_>) {
    cx.stats.responses.fetch_add(1, Ordering::Relaxed);
    // The request span closes here: the response is encoded and
    // buffered (kernel flush time is the NET_STALL event's business,
    // not the request's).
    trace::emit(|| {
        TraceEvent::new(
            trace::code::REQ_DONE,
            request_op,
            trace::NO_CLASS,
            seq,
            conn.id,
            wire_len as u64,
        )
    });
}

/// Flush pending response bytes until `WouldBlock`; returns whether
/// any bytes moved.
fn flush(conn: &mut Conn, stats: &ServerStats) -> bool {
    let mut moved = 0usize;
    while conn.out_pos < conn.out_buf.len() {
        match conn.stream.write(&conn.out_buf[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => {
                conn.out_pos += n;
                moved += n;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if conn.out_pos == conn.out_buf.len() {
        conn.out_buf.clear();
        conn.out_pos = 0;
    }
    stats.bytes_out.fetch_add(moved as u64, Ordering::Relaxed);
    moved > 0
}

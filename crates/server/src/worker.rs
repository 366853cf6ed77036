//! The event-loop worker's core, with no I/O: it holds no socket,
//! makes no system call and reads no clock. The driver in
//! [`crate::server`] hands it each read's bytes stamped with the time
//! ([`Worker::on_bytes`]), EOFs, socket errors and the outcome of the
//! round's log force ([`Worker::on_forced`]), and writes out what
//! [`Worker::output`] exposes.
//!
//! Every reply is framed into its connection's output buffer when it is
//! produced. While the round holds a log ticket, the bytes past the
//! connection's *release mark* are held: [`Worker::output`] stops at
//! the mark, so no flush can send them before [`Worker::on_forced`]
//! moves it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use polytm::trace::{self, TraceEvent};
use polytm_obs::{encode_entries, MetricsRegistry};

use crate::poll::{READ, WRITE};
use crate::protocol::{
    decode_frame, encode_get_reply_into, encode_response_into, parse_request, ErrorCode,
    FrameEvent, Request, Response,
};
use crate::server::{ServerConfig, ServerStats};
use crate::store::{
    emit_batch_commit, BatchTag, ServerStore, StoreError, WriteReply, WriteRequest,
};

/// Process-wide connection sequence; gives every connection a stable
/// identity for trace attribution (fds get reused, these don't).
static NEXT_CONN_ID: AtomicU64 = AtomicU64::new(1);

/// One connection's state.
#[derive(Default)]
struct Conn {
    /// Stable identity for trace events (`REQ_*`, `BATCH_*`).
    id: u64,
    /// Received, not-yet-decoded bytes.
    in_buf: Vec<u8>,
    /// Framed replies; `out_pos` is the flushed prefix and `released`
    /// the release mark, past which the [`HeldFrame`]s lie.
    out_buf: Vec<u8>,
    out_pos: usize,
    released: usize,
    /// Peer finished sending (half-close): drain and hang up.
    read_eof: bool,
    /// Fatal condition (corrupt stream / I/O error): drop after the
    /// current flush attempt.
    dead: bool,
    /// When backpressure started excluding this connection from reads
    /// (`Some` while stalled), in the driver's nanoseconds.
    stall_start: Option<u64>,
    /// The frames past the release mark, in request order.
    held: Vec<HeldFrame>,
}

/// A reply framed past the release mark, waiting for its round's force.
struct HeldFrame {
    opcode: u8,
    seq: u32,
    len: usize,
    /// A coalesced write's reply: a failed force turns it into
    /// `ReadOnly`.
    write: bool,
}

impl Conn {
    fn backlog(&self) -> usize {
        self.out_buf.len() - self.out_pos
    }

    fn finished(&self) -> bool {
        self.dead || (self.read_eof && self.backlog() == 0 && self.in_buf.is_empty())
    }
}

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

/// The buffers for the batch window in hand, kept between windows so a
/// steady stream of them allocates nothing here. Each holds at most
/// what one window's bytes decode to.
#[derive(Default)]
struct Window {
    frames: Vec<Decoded>,
    /// Keys of the window's `GET`s, in request order.
    get_keys: Vec<u64>,
    run: Run,
}

/// The log force one event-loop round owes before its replies leave.
#[derive(Default)]
struct Round {
    /// Highest ticket staged this round. `None` while nothing is
    /// staged: replies are released as they are framed.
    ticket: Option<u64>,
    /// `end_round` has handed `ticket` out; `on_forced` is next.
    ended: bool,
    /// The batches behind `ticket`, with their op counts.
    staged: Vec<(BatchTag, usize)>,
}

/// What every step reads and nothing in it writes.
struct Ctx {
    store: Arc<dyn ServerStore>,
    config: ServerConfig,
    stats: Arc<ServerStats>,
    registry: Option<Arc<MetricsRegistry>>,
}

/// One worker's connections, batch window and round. Connections are
/// addressed by index, in the order [`Worker::open`] added them;
/// [`Worker::reap`] removes finished ones and keeps the rest in order.
pub(crate) struct Worker {
    cx: Ctx,
    conns: Vec<Conn>,
    window: Window,
    round: Round,
}

impl Worker {
    pub(crate) fn new(
        store: Arc<dyn ServerStore>,
        config: ServerConfig,
        stats: Arc<ServerStats>,
        registry: Option<Arc<MetricsRegistry>>,
    ) -> Self {
        Worker {
            cx: Ctx { store, config, stats, registry },
            conns: Vec::new(),
            window: Window::default(),
            round: Round::default(),
        }
    }

    /// Add a connection at the next index.
    pub(crate) fn open(&mut self) {
        let id = NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed);
        self.conns.push(Conn { id, ..Conn::default() });
    }

    /// One read's bytes arrived at `now`: run the batch window they
    /// complete.
    pub(crate) fn on_bytes(&mut self, conn: usize, bytes: &[u8], now: u64) {
        debug_assert!(!self.round.ended, "no window runs between end_round and on_forced");
        let Worker { cx, conns, window, round } = self;
        let conn = &mut conns[conn];
        cx.stats.bytes_in.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        conn.in_buf.extend_from_slice(bytes);
        cx.process(conn, window, round);
        cx.account_stall(conn, now);
    }

    /// The peer finished sending. A partial frame left in the input can
    /// never complete, so it is dropped; the connection finishes once
    /// its backlog drains.
    pub(crate) fn on_eof(&mut self, conn: usize) {
        let conn = &mut self.conns[conn];
        conn.read_eof = true;
        conn.in_buf.clear();
    }

    /// The connection's socket failed: it finishes now.
    pub(crate) fn on_error(&mut self, conn: usize) {
        self.conns[conn].dead = true;
    }

    /// Whether the round holds a ticket its replies wait on.
    pub(crate) fn owes_force(&self) -> bool {
        self.round.ticket.is_some()
    }

    /// The round's highest ticket, handed out once; the driver forces
    /// the log up to it and reports back through [`Worker::on_forced`].
    /// `None` when the round staged nothing.
    pub(crate) fn end_round(&mut self) -> Option<u64> {
        if self.round.ended {
            return None;
        }
        self.round.ended = self.round.ticket.is_some();
        self.round.ticket
    }

    /// The round's force returned. On success: one `BATCH_COMMIT` per
    /// staged batch, then one `REQ_DONE` per held reply in request
    /// order. On failure every held write's frame becomes a `ReadOnly`
    /// error first, and held reads keep their bytes. Either way every
    /// release mark moves to the end of its buffer.
    pub(crate) fn on_forced(&mut self, forced: Result<(), StoreError>) {
        let cx = &self.cx;
        self.round.ticket = None;
        self.round.ended = false;
        for (tag, ops) in self.round.staged.drain(..).filter(|_| forced.is_ok()) {
            emit_batch_commit(tag, ops);
            cx.settled(ops);
        }
        for conn in self.conns.iter_mut().filter(|c| !c.held.is_empty()) {
            if forced.is_err() {
                cx.fail_held_writes(conn);
            }
            for held in conn.held.drain(..) {
                cx.done(conn.id, held.opcode, held.seq, held.len);
            }
            conn.released = conn.out_buf.len();
        }
    }

    /// The released bytes not yet flushed.
    pub(crate) fn output(&self, conn: usize) -> &[u8] {
        let conn = &self.conns[conn];
        &conn.out_buf[conn.out_pos..conn.released]
    }

    /// The first `n` bytes of [`Worker::output`] reached the socket.
    pub(crate) fn consumed(&mut self, conn: usize, n: usize) {
        let conn = &mut self.conns[conn];
        conn.out_pos += n;
        debug_assert!(conn.out_pos <= conn.released);
        if conn.out_pos == conn.out_buf.len() {
            conn.out_buf.clear();
            conn.out_pos = 0;
            conn.released = 0;
        }
        self.cx.stats.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Whether the connection may be read: it is live, and its backlog
    /// (held bytes included) is under `max_backlog`.
    pub(crate) fn readable(&self, conn: usize) -> bool {
        let conn = &self.conns[conn];
        !conn.read_eof && !conn.dead && conn.backlog() < self.cx.config.max_backlog
    }

    /// The connection's poll interest at `now`: READ if
    /// [`Worker::readable`], WRITE if it has output. Settles its
    /// backpressure stall first.
    pub(crate) fn interest(&mut self, conn: usize, now: u64) -> u8 {
        self.cx.account_stall(&mut self.conns[conn], now);
        let read = if self.readable(conn) { READ } else { 0 };
        read | if self.output(conn).is_empty() { 0 } else { WRITE }
    }

    /// Whether the connection is done: dead, or half-closed with
    /// nothing left to decode or send.
    pub(crate) fn finished(&self, conn: usize) -> bool {
        self.conns[conn].finished()
    }

    /// Drop every finished connection, settling its stall at `now`; the
    /// rest keep their order.
    pub(crate) fn reap(&mut self, now: u64) {
        let before = self.conns.len();
        for conn in self.conns.iter_mut().filter(|c| c.finished()) {
            self.cx.account_stall(conn, now);
        }
        self.conns.retain(|c| !c.finished());
        let closed = (before - self.conns.len()) as u64;
        self.cx.stats.closed.fetch_add(closed, Ordering::Relaxed);
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

/// One server trace event: a request span's `REQ_*`/`BATCH_ENQUEUE`
/// edge, or a connection's `NET_STALL`.
fn span(code: u8, opcode: u8, seq: u32, conn: u64, a: u64) {
    trace::emit(|| TraceEvent::new(code, opcode, trace::NO_CLASS, seq, conn, a));
}

fn write_response(reply: WriteReply) -> Response {
    match reply {
        WriteReply::Written { existed } => Response::Written { existed },
        WriteReply::Deleted { existed } => Response::Deleted { existed },
        WriteReply::Applied { ops } => Response::Applied { ops },
    }
}

impl Ctx {
    /// Decode, hint, then execute everything in `conn.in_buf` — one
    /// batch window.
    fn process(&self, conn: &mut Conn, window: &mut Window, round: &mut Round) {
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
        self.stats.requests.fetch_add(frames.len() as u64, Ordering::Relaxed);

        // Hint: the window's GETs will each miss cache along the same
        // dependent chain, one after another. Telling the store all their
        // keys first lets it overlap those misses. A hint answers nothing —
        // every reply below still comes from its own `get_into`, in its
        // place in the request order — and a lone GET has nothing to
        // overlap with.
        if get_keys.len() >= 2 {
            self.store.warm(get_keys);
            self.stats.hinted_keys.fetch_add(get_keys.len() as u64, Ordering::Relaxed);
        }
        get_keys.clear();

        // Execute: the admission state machine, over parsed requests.
        for Decoded { opcode, seq, payload_len, parsed } in frames.drain(..) {
            // The request span opens here: everything the request
            // waits on from now until its `REQ_DONE` lands on this
            // worker's ring, in program order, between the two.
            span(trace::code::REQ_RECV, opcode, seq, conn.id, payload_len as u64);
            match parsed.map(admit) {
                Err(code) => {
                    self.commit_run(conn, run, round);
                    self.reply(conn, round, opcode, seq, &Response::Error(code), false);
                }
                Ok(Admitted::Write(w)) => {
                    run.writes.push(w);
                    run.ids.push((opcode, seq));
                    run.bytes += payload_len;
                    let len = run.writes.len() as u64;
                    span(trace::code::BATCH_ENQUEUE, opcode, seq, conn.id, len);
                    if run.writes.len() >= self.config.batch_max_ops
                        || run.bytes >= self.config.batch_max_bytes
                    {
                        self.commit_run(conn, run, round);
                    }
                }
                Ok(Admitted::Barrier(req)) => {
                    self.commit_run(conn, run, round);
                    let out = &mut conn.out_buf;
                    let len = match req {
                        // The value is copied straight from the store
                        // into the frame.
                        Request::Get { key } => {
                            encode_get_reply_into(out, opcode, seq, self.config.crc, |out| {
                                self.store.get_into(key, out)
                            })
                        }
                        req => {
                            let resp = self.execute_barrier(&req);
                            encode_response_into(out, &resp, opcode, seq, self.config.crc)
                        }
                    };
                    self.framed(conn, round, opcode, seq, len, false);
                }
            }
        }
        // End of the batch window: whatever is still pending commits now.
        self.commit_run(conn, run, round);
        if corrupt {
            // Everything framed ahead of the corruption was answered; the
            // stream itself cannot be resynchronised.
            self.stats.corrupt_conns.fetch_add(1, Ordering::Relaxed);
            conn.dead = true;
        }
    }

    /// Stage the pending run as one transaction and answer each request.
    /// A batch that comes back with a log ticket joins the round's force
    /// (see [`Worker::on_forced`]); one that comes back settled is
    /// counted here.
    fn commit_run(&self, conn: &mut Conn, run: &mut Run, round: &mut Round) {
        let (Some(&(_, first_seq)), Some(&(_, last_seq))) = (run.ids.first(), run.ids.last())
        else {
            return;
        };
        run.bytes = 0;
        let tag = BatchTag { conn: conn.id, first_seq, last_seq };
        let outcome = self.store.stage_writes(&run.writes, tag);
        run.writes.clear();
        match outcome {
            Ok((replies, ticket)) => {
                match ticket {
                    Some(ticket) => {
                        round.ticket = Some(round.ticket.map_or(ticket, |t| t.max(ticket)));
                        round.staged.push((tag, run.ids.len()));
                    }
                    None => self.settled(run.ids.len()),
                }
                for ((opcode, seq), reply) in run.ids.drain(..).zip(replies) {
                    self.reply(conn, round, opcode, seq, &write_response(reply), true);
                }
            }
            Err(StoreError::ReadOnly) => {
                for (opcode, seq) in run.ids.drain(..) {
                    self.reply(conn, round, opcode, seq, &self.read_only(), false);
                }
            }
        }
    }

    /// Count a batch of `ops` requests whose replies may now leave.
    fn settled(&self, ops: usize) {
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats.batched_ops.fetch_add(ops as u64, Ordering::Relaxed);
    }

    /// Execute a non-coalescable request other than `GET` as its own
    /// transaction.
    fn execute_barrier(&self, req: &Request) -> Response {
        let store = &self.store;
        match req {
            Request::Ping => Response::Pong,
            Request::Scan { lo, hi, limit } => {
                let cap = self.config.scan_cap.max(1);
                let effective = if *limit == 0 { cap } else { (*limit).min(cap) };
                let (entries, truncated) = store.scan(*lo, *hi, effective as usize);
                Response::Entries { entries, truncated }
            }
            Request::Cas { key, expected, new } => {
                match store.cas(*key, expected.as_deref(), new) {
                    Ok(swapped) => Response::Swapped { swapped },
                    Err(StoreError::ReadOnly) => self.read_only(),
                }
            }
            Request::Txn { ops } => match store.txn(ops) {
                Ok(gets) => Response::TxnResults { gets },
                Err(StoreError::ReadOnly) => self.read_only(),
            },
            Request::Stats { text } => {
                // No registry attached: an empty snapshot, still
                // well-formed under either format.
                let payload = match (&self.registry, *text) {
                    (Some(reg), true) => reg.exposition().into_bytes(),
                    (Some(reg), false) => encode_entries(&reg.snapshot()),
                    (None, true) => Vec::new(),
                    (None, false) => encode_entries(&[]),
                };
                Response::Stats { payload }
            }
            // `process` frames `GET`s itself, and `admit` coalesces
            // writes: none reaches here.
            Request::Get { .. }
            | Request::Put { .. }
            | Request::Delete { .. }
            | Request::Multi { .. } => Response::Error(ErrorCode::BadRequest),
        }
    }

    /// A `ReadOnly` error reply, counted.
    fn read_only(&self) -> Response {
        self.stats.read_only_errors.fetch_add(1, Ordering::Relaxed);
        Response::Error(ErrorCode::ReadOnly)
    }

    /// Frame `resp` onto the connection's output (over-cap payloads go
    /// out as `TooLarge`, see [`encode_response_into`]).
    fn reply(
        &self,
        conn: &mut Conn,
        round: &Round,
        opcode: u8,
        seq: u32,
        resp: &Response,
        write: bool,
    ) {
        let len = encode_response_into(&mut conn.out_buf, resp, opcode, seq, self.config.crc);
        self.framed(conn, round, opcode, seq, len, write);
    }

    /// Account a reply of `len` bytes just framed onto the output: held
    /// past the release mark while the round owes a force, released at
    /// once otherwise.
    fn framed(
        &self,
        conn: &mut Conn,
        round: &Round,
        opcode: u8,
        seq: u32,
        len: usize,
        write: bool,
    ) {
        if round.ticket.is_some() {
            conn.held.push(HeldFrame { opcode, seq, len, write });
        } else {
            conn.released = conn.out_buf.len();
            self.done(conn.id, opcode, seq, len);
        }
    }

    /// A reply of `len` bytes may leave: count it and close its request
    /// span (kernel flush time is the `NET_STALL` event's business, not
    /// the request's).
    fn done(&self, conn: u64, opcode: u8, seq: u32, len: usize) {
        self.stats.responses.fetch_add(1, Ordering::Relaxed);
        span(trace::code::REQ_DONE, opcode, seq, conn, len as u64);
    }

    /// Rewrite the held frames after a failed force: each write's frame
    /// becomes a `ReadOnly` error frame, in request order, and the reads
    /// keep their bytes.
    fn fail_held_writes(&self, conn: &mut Conn) {
        let held_bytes = conn.out_buf.split_off(conn.released);
        let mut at = 0;
        for held in &mut conn.held {
            let frame = &held_bytes[at..at + held.len];
            at += held.len;
            if held.write {
                let (resp, crc) = (self.read_only(), self.config.crc);
                held.len =
                    encode_response_into(&mut conn.out_buf, &resp, held.opcode, held.seq, crc);
            } else {
                conn.out_buf.extend_from_slice(frame);
            }
        }
    }

    /// Start or end the connection's backpressure stall at `now`. It is
    /// stalled while it is open and its backlog is at least
    /// `max_backlog`; a stall's time is added when it ends, which for a
    /// finished connection is when it is reaped.
    fn account_stall(&self, conn: &mut Conn, now: u64) {
        let stalled = !conn.finished() && conn.backlog() >= self.config.max_backlog;
        match conn.stall_start {
            None if stalled => {
                self.stats.backpressure_stalls.fetch_add(1, Ordering::Relaxed);
                conn.stall_start = Some(now);
            }
            Some(t0) if !stalled => {
                conn.stall_start = None;
                let stalled_ns = now.saturating_sub(t0);
                self.stats.backpressure_stalled_ns.fetch_add(stalled_ns, Ordering::Relaxed);
                span(trace::code::NET_STALL, 0, 0, conn.id, stalled_ns);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    //! The core over byte vectors: no socket, no clock. Every `now` is
    //! a number the test picks.

    use super::*;
    use crate::protocol::{encode_request, encode_response, parse_response};
    use crate::store::WriteReply;
    use polytm::Stm;
    use polytm_kv::{KvStore, Value};

    /// A `KvStore` that, when `ticketing`, stages every batch with the
    /// next ticket instead of settling it.
    struct TicketStore {
        inner: KvStore,
        ticketing: bool,
        last_ticket: AtomicU64,
    }

    impl TicketStore {
        fn new(ticketing: bool) -> Arc<Self> {
            let inner = KvStore::new(Arc::new(Stm::new()));
            Arc::new(TicketStore { inner, ticketing, last_ticket: AtomicU64::new(0) })
        }
    }

    impl ServerStore for TicketStore {
        fn get(&self, key: u64) -> Option<Vec<u8>> {
            ServerStore::get(&self.inner, key)
        }

        fn get_into(&self, key: u64, out: &mut Vec<u8>) -> bool {
            ServerStore::get_into(&self.inner, key, out)
        }

        fn scan(&self, lo: u64, hi: u64, limit: usize) -> (Vec<(u64, Vec<u8>)>, bool) {
            ServerStore::scan(&self.inner, lo, hi, limit)
        }

        fn cas(&self, key: u64, expected: Option<&[u8]>, new: &[u8]) -> Result<bool, StoreError> {
            ServerStore::cas(&self.inner, key, expected, new)
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
            let replies = self.inner.commit_writes(batch, tag)?;
            let ticket =
                self.ticketing.then(|| self.last_ticket.fetch_add(1, Ordering::SeqCst) + 1);
            Ok((replies, ticket))
        }

        fn txn(&self, ops: &[crate::TxnOp]) -> Result<Vec<Option<Vec<u8>>>, StoreError> {
            ServerStore::txn(&self.inner, ops)
        }
    }

    fn worker(store: &Arc<TicketStore>, max_backlog: usize) -> (Worker, Arc<ServerStats>) {
        let stats = Arc::new(ServerStats::default());
        let config = ServerConfig { max_backlog, ..ServerConfig::default() };
        let store = Arc::clone(store) as Arc<dyn ServerStore>;
        (Worker::new(store, config, Arc::clone(&stats), None), stats)
    }

    /// `requests` framed back to back, with sequence numbers from 1.
    fn wire(requests: &[Request]) -> Vec<u8> {
        (1..).zip(requests).flat_map(|(seq, req)| encode_request(req, seq, false)).collect()
    }

    /// Every frame in `bytes`, as raw frames; panics on a partial one.
    fn frames(mut bytes: &[u8]) -> Vec<&[u8]> {
        let mut out = Vec::new();
        while !bytes.is_empty() {
            match decode_frame(bytes) {
                FrameEvent::Frame { consumed, .. } => {
                    out.push(&bytes[..consumed]);
                    bytes = &bytes[consumed..];
                }
                _ => panic!("not a whole frame"),
            }
        }
        out
    }

    /// The replies in `bytes`, as `(seq, response)`.
    fn replies(bytes: &[u8]) -> Vec<(u32, Response)> {
        let reply = |frame| match decode_frame(frame) {
            FrameEvent::Frame { opcode, seq, payload, .. } => {
                (seq, parse_response(opcode, payload).unwrap())
            }
            _ => unreachable!(),
        };
        frames(bytes).into_iter().map(reply).collect()
    }

    /// Everything the worker has released on `conn`, flushed.
    fn drain(worker: &mut Worker, conn: usize) -> Vec<u8> {
        let out = worker.output(conn).to_vec();
        worker.consumed(conn, out.len());
        out
    }

    fn put(key: u64) -> Request {
        Request::Put { key, value: vec![key as u8; 8] }
    }

    const WRITTEN: Response = Response::Written { existed: false };
    const READ_ONLY: Response = Response::Error(ErrorCode::ReadOnly);

    #[test]
    fn one_round_stages_two_connections_behind_its_highest_ticket() {
        let store = TicketStore::new(true);
        let (mut worker, stats) = worker(&store, 1 << 20);
        worker.open();
        worker.open();
        worker.on_bytes(0, &wire(&[put(1), put(2)]), 0);
        worker.on_bytes(1, &wire(&[put(3)]), 0);

        assert!(worker.owes_force());
        assert!(worker.output(0).is_empty() && worker.output(1).is_empty());
        assert_eq!(worker.interest(0, 0) & WRITE, 0, "nothing to flush before the force");
        assert_eq!(stats.responses.load(Ordering::Relaxed), 0);
        assert_eq!(worker.end_round(), Some(2), "the highest of the round's two tickets");
        assert_eq!(worker.end_round(), None, "handed out once");

        worker.on_forced(Ok(()));
        assert!(!worker.owes_force());
        assert_eq!(replies(&drain(&mut worker, 0)), vec![(1, WRITTEN), (2, WRITTEN)]);
        assert_eq!(replies(&drain(&mut worker, 1)), vec![(1, WRITTEN)]);
        assert_eq!(stats.batches.load(Ordering::Relaxed), 2);
        assert_eq!(stats.batched_ops.load(Ordering::Relaxed), 3);
        assert_eq!(stats.responses.load(Ordering::Relaxed), 3);
        assert_eq!(worker.end_round(), None, "the next round has staged nothing");
    }

    #[test]
    fn a_failed_force_turns_held_writes_read_only_in_order_and_keeps_reads() {
        let store = TicketStore::new(true);
        let (mut worker, stats) = worker(&store, 1 << 20);
        worker.open();
        worker.open();
        let a = [put(1), Request::Get { key: 1 }, put(2), Request::Ping, Request::Get { key: 9 }];
        worker.on_bytes(0, &wire(&a), 0);
        worker.on_bytes(1, &wire(&[Request::Get { key: 2 }, put(3)]), 0);
        let ticket = worker.end_round().unwrap();
        assert_eq!(ticket, 3);

        worker.on_forced(Err(StoreError::ReadOnly));
        // The held reads saw memory, which the failed force does not undo.
        assert_eq!(
            replies(&drain(&mut worker, 0)),
            vec![
                (1, READ_ONLY),
                (2, Response::Value(Some(vec![1; 8]))),
                (3, READ_ONLY),
                (4, Response::Pong),
                (5, Response::Value(None)),
            ]
        );
        assert_eq!(
            replies(&drain(&mut worker, 1)),
            vec![(1, Response::Value(Some(vec![2; 8]))), (2, READ_ONLY)]
        );
        assert_eq!(stats.read_only_errors.load(Ordering::Relaxed), 3);
        assert_eq!(stats.responses.load(Ordering::Relaxed), 7, "nothing dropped");
        assert_eq!(stats.batches.load(Ordering::Relaxed), 0, "no batch settled");
    }

    #[test]
    fn a_held_get_frame_is_byte_identical_to_an_unheld_one() {
        let value = vec![0xAB; 64];
        let get = Request::Get { key: 5 };
        let expected =
            encode_response(&Response::Value(Some(value.clone())), get.opcode(), 2, false);

        // Unheld: an in-memory store settles, so the GET is released at once.
        let unheld_store = TicketStore::new(false);
        unheld_store.inner.put(5, Value::from_bytes(&value));
        let (mut unheld, _) = worker(&unheld_store, 1 << 20);
        unheld.open();
        unheld.on_bytes(0, &wire(&[Request::Ping, get.clone()]), 0);
        let unheld_out = drain(&mut unheld, 0);
        assert_eq!(frames(&unheld_out)[1], &expected[..]);

        // Held: behind a staged write, released by the force.
        let held_store = TicketStore::new(true);
        held_store.inner.put(5, Value::from_bytes(&value));
        let (mut held, _) = worker(&held_store, 1 << 20);
        held.open();
        held.on_bytes(0, &wire(&[put(6), get]), 0);
        assert!(held.output(0).is_empty());
        let ticket = held.end_round().unwrap();
        held.on_forced(Ok(()));
        let held_out = drain(&mut held, 0);
        assert_eq!(ticket, 1);
        assert_eq!(frames(&held_out)[1], &expected[..]);
    }

    #[test]
    fn a_round_that_stages_nothing_releases_at_once() {
        let store = TicketStore::new(false);
        let (mut worker, stats) = worker(&store, 1 << 20);
        worker.open();
        worker.on_bytes(0, &wire(&[put(1), Request::Get { key: 1 }]), 0);
        assert!(!worker.owes_force());
        assert_eq!(worker.end_round(), None);
        assert_eq!(
            replies(&drain(&mut worker, 0)),
            vec![(1, WRITTEN), (2, Response::Value(Some(vec![1; 8])))]
        );
        assert_eq!(stats.batches.load(Ordering::Relaxed), 1, "settled when staged");
    }

    #[test]
    fn stall_time_comes_from_the_now_values_passed_in() {
        let store = TicketStore::new(false);
        store.inner.put(7, Value::from_bytes(&[7; 64]));
        let (mut worker, stats) = worker(&store, 128);
        let gets: Vec<Request> = (0..4).map(|_| Request::Get { key: 7 }).collect();
        let stalls = || stats.backpressure_stalls.load(Ordering::Relaxed);
        let stalled_ns = || stats.backpressure_stalled_ns.load(Ordering::Relaxed);
        worker.open();

        // Over `max_backlog` at 1 000, drained, read again at 5 000.
        worker.on_bytes(0, &wire(&gets), 1_000);
        assert!(!worker.readable(0));
        assert_eq!(worker.interest(0, 3_000), WRITE, "stalled: no READ interest");
        assert_eq!((stalls(), stalled_ns()), (1, 0));
        drain(&mut worker, 0);
        assert_eq!(worker.interest(0, 5_000), READ);
        assert_eq!((stalls(), stalled_ns()), (1, 4_000));

        // Stalled at 10 000, then the socket fails: reaped at 10 700,
        // the stall's time is added once.
        worker.on_bytes(0, &wire(&gets), 10_000);
        worker.on_error(0);
        assert!(worker.finished(0));
        worker.reap(10_700);
        worker.reap(20_000);
        assert_eq!((stalls(), stalled_ns()), (2, 4_700));
        assert_eq!(stats.closed.load(Ordering::Relaxed), 1);
    }
}

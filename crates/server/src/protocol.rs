//! The `PTM1` wire protocol: length-prefixed binary frames carrying KV
//! requests and responses.
//!
//! ## Frame layout
//!
//! ```text
//! [magic u32][len u32][opcode u8][flags u8][seq u32][payload ...][crc u32?]
//! ```
//!
//! All integers little-endian. `magic` is the four ASCII bytes `PTM1`.
//! `len` counts the *body*: everything after the 8-byte header —
//! opcode, flags, seq, payload, and the optional CRC trailer. `flags`
//! bit 0 announces a CRC-32 (IEEE) trailer computed over the body
//! minus the trailer itself (opcode through end of payload). All other
//! flag bits must be zero.
//!
//! Decoding never panics and never allocates more than [`MAX_PAYLOAD`]
//! bytes for a single frame: a `len` above the cap is corruption, not
//! an allocation request — the same rule the WAL's on-disk framing
//! uses. The normative specification lives in `docs/PROTOCOL.md`; this
//! module and that document are kept in lockstep.

use polytm_durable::frame::crc32;

/// Frame magic: the ASCII bytes `PTM1` read as a little-endian u32.
pub const MAGIC: u32 = u32::from_le_bytes(*b"PTM1");
/// Fixed prefix before the body: magic + len.
pub const HEADER: usize = 8;
/// Fixed body prefix: opcode + flags + seq.
pub const BODY_PREFIX: usize = 6;
/// Flag bit 0: body carries a CRC-32 trailer.
pub const FLAG_CRC: u8 = 0x01;
/// Upper bound on a frame's payload. A `len` implying more is treated
/// as corruption.
pub const MAX_PAYLOAD: usize = 1 << 20;
/// Longest response frame a server sends; a longer one becomes an
/// [`ErrorCode::TooLarge`] error.
pub const MAX_RESPONSE_FRAME: usize = MAX_PAYLOAD + 64;

/// Request opcodes. Response frames echo the request opcode with the
/// high bit set ([`RESPONSE_BIT`]); error responses use [`OP_ERROR`].
pub mod op {
    /// Liveness probe; empty payload.
    pub const PING: u8 = 0x01;
    /// Point read.
    pub const GET: u8 = 0x02;
    /// Blind write.
    pub const PUT: u8 = 0x03;
    /// Point delete.
    pub const DELETE: u8 = 0x04;
    /// Compare-and-swap.
    pub const CAS: u8 = 0x05;
    /// Snapshot range scan.
    pub const SCAN: u8 = 0x06;
    /// Atomic multi-write batch.
    pub const MULTI: u8 = 0x07;
    /// Atomic mixed read/write transaction.
    pub const TXN: u8 = 0x08;
    /// Unified metrics snapshot (binary entries or text exposition).
    pub const STATS: u8 = 0x09;
}

/// High bit distinguishing responses from requests.
pub const RESPONSE_BIT: u8 = 0x80;
/// Opcode of an error response (any request may fail).
pub const OP_ERROR: u8 = 0xFF;

/// Error codes carried by an [`OP_ERROR`] response payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request payload did not parse under its opcode's grammar.
    BadRequest = 1,
    /// The request opcode is not assigned.
    UnknownOpcode = 2,
    /// The store has latched read-only (durability lost); the write
    /// was **not acknowledged durable**. See `docs/RUNBOOK.md`.
    ReadOnly = 3,
    /// The request or its response would exceed the frame payload cap.
    TooLarge = 4,
}

impl ErrorCode {
    /// Decode a wire byte back into an error code.
    pub fn from_u8(byte: u8) -> Option<Self> {
        match byte {
            1 => Some(Self::BadRequest),
            2 => Some(Self::UnknownOpcode),
            3 => Some(Self::ReadOnly),
            4 => Some(Self::TooLarge),
            _ => None,
        }
    }
}

/// One write inside a [`Request::Multi`] batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WriteOp {
    /// Insert or overwrite `key`.
    Put {
        /// Target key.
        key: u64,
        /// New value bytes.
        value: Vec<u8>,
    },
    /// Remove `key` if present.
    Delete {
        /// Target key.
        key: u64,
    },
}

/// One operation inside a [`Request::Txn`] body; `Get`s read from the
/// transaction's own snapshot (and see earlier writes in the same
/// body).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxnOp {
    /// Transactional read; result is returned in body order.
    Get {
        /// Target key.
        key: u64,
    },
    /// Transactional write.
    Put {
        /// Target key.
        key: u64,
        /// New value bytes.
        value: Vec<u8>,
    },
    /// Transactional delete.
    Delete {
        /// Target key.
        key: u64,
    },
}

/// A decoded client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Read one key.
    Get {
        /// Target key.
        key: u64,
    },
    /// Write one key.
    Put {
        /// Target key.
        key: u64,
        /// Value bytes.
        value: Vec<u8>,
    },
    /// Delete one key.
    Delete {
        /// Target key.
        key: u64,
    },
    /// Compare-and-swap: install `new` iff the current value equals
    /// `expected` (`None` = key absent).
    Cas {
        /// Target key.
        key: u64,
        /// Expected current value, `None` for "absent".
        expected: Option<Vec<u8>>,
        /// Replacement value.
        new: Vec<u8>,
    },
    /// Snapshot scan of the half-open range `[lo, hi)`, truncated to
    /// `limit` entries (0 = server's cap).
    Scan {
        /// Inclusive lower key bound.
        lo: u64,
        /// Exclusive upper key bound.
        hi: u64,
        /// Client-requested entry cap (0 = server default).
        limit: u32,
    },
    /// Atomic multi-write batch: all ops commit in one transaction.
    Multi {
        /// Writes, applied in order within one commit.
        ops: Vec<WriteOp>,
    },
    /// Atomic mixed transaction: reads and writes in one commit.
    Txn {
        /// Operations, applied in order within one commit.
        ops: Vec<TxnOp>,
    },
    /// Snapshot of the server's unified metrics plane (`polytm-obs`
    /// flat key space). Acts as a barrier: the pending coalesced run
    /// commits first, so counters reflect everything pipelined ahead
    /// of this request on the same connection.
    Stats {
        /// `true` for the plain-text exposition format, `false` for
        /// the binary entries codec (`polytm_obs::decode_entries`).
        text: bool,
    },
}

impl Request {
    /// The request's wire opcode.
    pub fn opcode(&self) -> u8 {
        match self {
            Request::Ping => op::PING,
            Request::Get { .. } => op::GET,
            Request::Put { .. } => op::PUT,
            Request::Delete { .. } => op::DELETE,
            Request::Cas { .. } => op::CAS,
            Request::Scan { .. } => op::SCAN,
            Request::Multi { .. } => op::MULTI,
            Request::Txn { .. } => op::TXN,
            Request::Stats { .. } => op::STATS,
        }
    }
}

/// A decoded server response. `Error` pairs with any request opcode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::Get`]: the value, if present.
    Value(Option<Vec<u8>>),
    /// Reply to [`Request::Put`]: whether the key already existed.
    Written {
        /// True if the put overwrote an existing value.
        existed: bool,
    },
    /// Reply to [`Request::Delete`]: whether the key existed.
    Deleted {
        /// True if a value was actually removed.
        existed: bool,
    },
    /// Reply to [`Request::Cas`]: whether the swap was applied.
    Swapped {
        /// True if the expectation held and `new` was installed.
        swapped: bool,
    },
    /// Reply to [`Request::Scan`]: entries in ascending key order.
    Entries {
        /// `(key, value)` pairs from one consistent snapshot.
        entries: Vec<(u64, Vec<u8>)>,
        /// True if the scan was cut short by a limit.
        truncated: bool,
    },
    /// Reply to [`Request::Multi`]: number of ops applied (all of
    /// them — the batch is atomic).
    Applied {
        /// Count of writes in the committed batch.
        ops: u32,
    },
    /// Reply to [`Request::Txn`]: results of the body's `Get`s in
    /// body order.
    TxnResults {
        /// One entry per `TxnOp::Get`, in order.
        gets: Vec<Option<Vec<u8>>>,
    },
    /// Reply to [`Request::Stats`]: the snapshot in the requested
    /// format. A server spawned without a metrics registry answers
    /// with an empty snapshot rather than an error.
    Stats {
        /// Binary entries (`polytm_obs::decode_entries`) or UTF-8
        /// exposition text, per the request's `text` flag.
        payload: Vec<u8>,
    },
    /// The request failed; carried under [`OP_ERROR`].
    Error(ErrorCode),
}

impl Response {
    /// The wire opcode for this response when answering `request_op`.
    pub fn opcode(&self, request_op: u8) -> u8 {
        match self {
            Response::Error(_) => OP_ERROR,
            _ => request_op | RESPONSE_BIT,
        }
    }
}

/// Why a frame was rejected outright (resynchronisation is not
/// attempted: a corrupt stream closes the connection).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corrupt {
    /// The first four bytes were not [`MAGIC`].
    BadMagic,
    /// `len` was below the fixed body prefix or above the cap.
    BadLength,
    /// The CRC trailer did not match the body.
    BadCrc,
    /// Reserved flag bits were set.
    BadFlags,
}

/// Outcome of [`decode_frame`] on a byte buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameEvent<'a> {
    /// Not enough bytes yet; read more and retry. `need` is the total
    /// buffer length required to make progress.
    Incomplete {
        /// Total bytes (from buffer start) needed for the next check.
        need: usize,
    },
    /// One whole frame. `consumed` bytes may be drained from the
    /// buffer; `payload` borrows from it.
    Frame {
        /// Bytes this frame occupied, including header.
        consumed: usize,
        /// Body opcode.
        opcode: u8,
        /// Request/response sequence number.
        seq: u32,
        /// Payload slice (CRC trailer already stripped and verified).
        payload: &'a [u8],
    },
    /// The stream is corrupt at the buffer's start.
    Corrupt(Corrupt),
}

/// Append one frame to `out`, its payload written in place by `fill`;
/// the length (which the payload decides) is patched in afterwards and
/// the CRC computed over the finished body. Returns the frame's length.
/// The one encoder: every `encode_*` below frames through here.
fn frame_into(
    out: &mut Vec<u8>,
    opcode: u8,
    seq: u32,
    crc: bool,
    fill: impl FnOnce(&mut Vec<u8>),
) -> usize {
    let start = out.len();
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&[0; 4]);
    out.push(opcode);
    out.push(if crc { FLAG_CRC } else { 0 });
    out.extend_from_slice(&seq.to_le_bytes());
    fill(out);
    if crc {
        let sum = crc32(&out[start + HEADER..]);
        out.extend_from_slice(&sum.to_le_bytes());
    }
    let body_len = out.len() - start - HEADER;
    out[start + 4..start + HEADER].copy_from_slice(&(body_len as u32).to_le_bytes());
    out.len() - start
}

/// Encode one frame. `crc` appends and flags a CRC-32 trailer.
pub fn encode_frame(opcode: u8, seq: u32, payload: &[u8], crc: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER + BODY_PREFIX + payload.len() + 4);
    frame_into(&mut out, opcode, seq, crc, |out| out.extend_from_slice(payload));
    out
}

/// Try to decode one frame from the front of `buf`. Never panics; a
/// hostile buffer yields `Incomplete` (read more) or `Corrupt` (drop
/// the connection), never an allocation larger than [`MAX_PAYLOAD`].
pub fn decode_frame(buf: &[u8]) -> FrameEvent<'_> {
    if buf.len() < HEADER {
        // Check whatever magic bytes have arrived so garbage fails
        // fast instead of waiting for 8 bytes that never come.
        let magic = MAGIC.to_le_bytes();
        if !magic.starts_with(&buf[..buf.len().min(4)]) {
            return FrameEvent::Corrupt(Corrupt::BadMagic);
        }
        return FrameEvent::Incomplete { need: HEADER };
    }
    let magic = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if magic != MAGIC {
        return FrameEvent::Corrupt(Corrupt::BadMagic);
    }
    let body_len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
    if !(BODY_PREFIX..=BODY_PREFIX + MAX_PAYLOAD + 4).contains(&body_len) {
        return FrameEvent::Corrupt(Corrupt::BadLength);
    }
    let total = HEADER + body_len;
    if buf.len() < total {
        return FrameEvent::Incomplete { need: total };
    }
    let body = &buf[HEADER..total];
    let opcode = body[0];
    let flags = body[1];
    if flags & !FLAG_CRC != 0 {
        return FrameEvent::Corrupt(Corrupt::BadFlags);
    }
    let seq = u32::from_le_bytes([body[2], body[3], body[4], body[5]]);
    let payload = if flags & FLAG_CRC != 0 {
        if body.len() < BODY_PREFIX + 4 {
            return FrameEvent::Corrupt(Corrupt::BadLength);
        }
        let split = body.len() - 4;
        let want =
            u32::from_le_bytes([body[split], body[split + 1], body[split + 2], body[split + 3]]);
        if crc32(&body[..split]) != want {
            return FrameEvent::Corrupt(Corrupt::BadCrc);
        }
        &body[BODY_PREFIX..split]
    } else {
        &body[BODY_PREFIX..]
    };
    if payload.len() > MAX_PAYLOAD {
        return FrameEvent::Corrupt(Corrupt::BadLength);
    }
    FrameEvent::Frame { consumed: total, opcode, seq, payload }
}

// ---- payload grammars -------------------------------------------------

/// Cursor over a payload slice; every read is bounds-checked so the
/// parsers below cannot panic on truncated or hostile input.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn u32(&mut self) -> Option<u32> {
        let s = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        let s = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(s.try_into().ok()?))
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(s)
    }

    /// Length-prefixed byte string: `[len u32][len bytes]`.
    fn lp_bytes(&mut self) -> Option<Vec<u8>> {
        let n = self.u32()? as usize;
        Some(self.bytes(n)?.to_vec())
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Parse a request payload under `opcode`'s grammar.
pub fn parse_request(opcode: u8, payload: &[u8]) -> Result<Request, ErrorCode> {
    let mut c = Cursor::new(payload);
    let req = match opcode {
        op::PING => Request::Ping,
        op::GET => Request::Get { key: c.u64().ok_or(ErrorCode::BadRequest)? },
        op::PUT => {
            let key = c.u64().ok_or(ErrorCode::BadRequest)?;
            Request::Put { key, value: c.rest().to_vec() }
        }
        op::DELETE => Request::Delete { key: c.u64().ok_or(ErrorCode::BadRequest)? },
        op::CAS => {
            let key = c.u64().ok_or(ErrorCode::BadRequest)?;
            let expected = match c.u8().ok_or(ErrorCode::BadRequest)? {
                0 => None,
                1 => Some(c.lp_bytes().ok_or(ErrorCode::BadRequest)?),
                _ => return Err(ErrorCode::BadRequest),
            };
            Request::Cas { key, expected, new: c.rest().to_vec() }
        }
        op::SCAN => {
            let lo = c.u64().ok_or(ErrorCode::BadRequest)?;
            let hi = c.u64().ok_or(ErrorCode::BadRequest)?;
            let limit = c.u32().ok_or(ErrorCode::BadRequest)?;
            Request::Scan { lo, hi, limit }
        }
        op::MULTI => {
            let count = c.u32().ok_or(ErrorCode::BadRequest)? as usize;
            let mut ops = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                ops.push(parse_write_op(&mut c)?);
            }
            Request::Multi { ops }
        }
        op::TXN => {
            let count = c.u32().ok_or(ErrorCode::BadRequest)? as usize;
            let mut ops = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                ops.push(parse_txn_op(&mut c)?);
            }
            Request::Txn { ops }
        }
        op::STATS => match c.u8().ok_or(ErrorCode::BadRequest)? {
            0 => Request::Stats { text: false },
            1 => Request::Stats { text: true },
            _ => return Err(ErrorCode::BadRequest),
        },
        _ => return Err(ErrorCode::UnknownOpcode),
    };
    if c.done() {
        Ok(req)
    } else {
        Err(ErrorCode::BadRequest)
    }
}

fn parse_write_op(c: &mut Cursor<'_>) -> Result<WriteOp, ErrorCode> {
    match c.u8().ok_or(ErrorCode::BadRequest)? {
        1 => {
            let key = c.u64().ok_or(ErrorCode::BadRequest)?;
            let value = c.lp_bytes().ok_or(ErrorCode::BadRequest)?;
            Ok(WriteOp::Put { key, value })
        }
        2 => Ok(WriteOp::Delete { key: c.u64().ok_or(ErrorCode::BadRequest)? }),
        _ => Err(ErrorCode::BadRequest),
    }
}

fn parse_txn_op(c: &mut Cursor<'_>) -> Result<TxnOp, ErrorCode> {
    match c.u8().ok_or(ErrorCode::BadRequest)? {
        0 => Ok(TxnOp::Get { key: c.u64().ok_or(ErrorCode::BadRequest)? }),
        1 => {
            let key = c.u64().ok_or(ErrorCode::BadRequest)?;
            let value = c.lp_bytes().ok_or(ErrorCode::BadRequest)?;
            Ok(TxnOp::Put { key, value })
        }
        2 => Ok(TxnOp::Delete { key: c.u64().ok_or(ErrorCode::BadRequest)? }),
        _ => Err(ErrorCode::BadRequest),
    }
}

/// Encode a request's payload (the frame body's payload section).
pub fn encode_request_payload(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Ping => {}
        Request::Get { key } | Request::Delete { key } => {
            out.extend_from_slice(&key.to_le_bytes());
        }
        Request::Put { key, value } => {
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(value);
        }
        Request::Cas { key, expected, new } => {
            out.extend_from_slice(&key.to_le_bytes());
            match expected {
                None => out.push(0),
                Some(e) => {
                    out.push(1);
                    out.extend_from_slice(&(e.len() as u32).to_le_bytes());
                    out.extend_from_slice(e);
                }
            }
            out.extend_from_slice(new);
        }
        Request::Scan { lo, hi, limit } => {
            out.extend_from_slice(&lo.to_le_bytes());
            out.extend_from_slice(&hi.to_le_bytes());
            out.extend_from_slice(&limit.to_le_bytes());
        }
        Request::Multi { ops } => {
            out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
            for w in ops {
                encode_write_op(&mut out, w);
            }
        }
        Request::Txn { ops } => {
            out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
            for t in ops {
                match t {
                    TxnOp::Get { key } => {
                        out.push(0);
                        out.extend_from_slice(&key.to_le_bytes());
                    }
                    TxnOp::Put { key, value } => {
                        out.push(1);
                        out.extend_from_slice(&key.to_le_bytes());
                        out.extend_from_slice(&(value.len() as u32).to_le_bytes());
                        out.extend_from_slice(value);
                    }
                    TxnOp::Delete { key } => {
                        out.push(2);
                        out.extend_from_slice(&key.to_le_bytes());
                    }
                }
            }
        }
        Request::Stats { text } => out.push(u8::from(*text)),
    }
    out
}

fn encode_write_op(out: &mut Vec<u8>, w: &WriteOp) {
    match w {
        WriteOp::Put { key, value } => {
            out.push(1);
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&(value.len() as u32).to_le_bytes());
            out.extend_from_slice(value);
        }
        WriteOp::Delete { key } => {
            out.push(2);
            out.extend_from_slice(&key.to_le_bytes());
        }
    }
}

/// Encode a whole request frame.
pub fn encode_request(req: &Request, seq: u32, crc: bool) -> Vec<u8> {
    encode_frame(req.opcode(), seq, &encode_request_payload(req), crc)
}

/// Encode a response's payload under its (request) opcode pairing.
pub fn encode_response_payload(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    response_payload_into(&mut out, resp);
    out
}

fn response_payload_into(out: &mut Vec<u8>, resp: &Response) {
    match resp {
        Response::Pong => {}
        Response::Value(v) => match v {
            None => out.push(0),
            Some(bytes) => {
                out.push(1);
                out.extend_from_slice(bytes);
            }
        },
        Response::Written { existed } | Response::Deleted { existed } => {
            out.push(u8::from(*existed));
        }
        Response::Swapped { swapped } => out.push(u8::from(*swapped)),
        Response::Entries { entries, truncated } => {
            out.push(u8::from(*truncated));
            out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for (key, value) in entries {
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&(value.len() as u32).to_le_bytes());
                out.extend_from_slice(value);
            }
        }
        Response::Applied { ops } => out.extend_from_slice(&ops.to_le_bytes()),
        Response::TxnResults { gets } => {
            out.extend_from_slice(&(gets.len() as u32).to_le_bytes());
            for g in gets {
                match g {
                    None => out.push(0),
                    Some(bytes) => {
                        out.push(1);
                        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                        out.extend_from_slice(bytes);
                    }
                }
            }
        }
        Response::Stats { payload } => out.extend_from_slice(payload),
        Response::Error(code) => out.push(*code as u8),
    }
}

/// Append to `out` the whole response frame answering a request with
/// opcode `request_op` and sequence `seq`, built in place (a server
/// passes its connection's output buffer); returns the frame's length.
/// A response too large for a frame a peer would accept is demoted to
/// [`ErrorCode::TooLarge`]: `out` is cut back to where the frame began,
/// so no partial frame stays behind, and the error is framed instead.
pub fn encode_response_into(
    out: &mut Vec<u8>,
    resp: &Response,
    request_op: u8,
    seq: u32,
    crc: bool,
) -> usize {
    capped_frame_into(out, resp.opcode(request_op), seq, crc, |out| {
        response_payload_into(out, resp)
    })
}

/// [`encode_response_into`] of a `GET`'s [`Response::Value`], with the
/// value appended in place by `read` (which returns whether the key was
/// present and appends nothing when it was not) — the bytes go from
/// the store to the frame with no `Vec` of their own. The frame is
/// byte-for-byte the one `encode_response_into` builds, over-cap
/// demotion to [`ErrorCode::TooLarge`] included.
pub fn encode_get_reply_into(
    out: &mut Vec<u8>,
    request_op: u8,
    seq: u32,
    crc: bool,
    read: impl FnOnce(&mut Vec<u8>) -> bool,
) -> usize {
    capped_frame_into(out, request_op | RESPONSE_BIT, seq, crc, |out| {
        let tag = out.len();
        out.push(1);
        if !read(out) {
            out[tag] = 0;
        }
    })
}

/// [`frame_into`], with a frame longer than [`MAX_RESPONSE_FRAME`] cut
/// back and replaced by a [`ErrorCode::TooLarge`] error frame.
fn capped_frame_into(
    out: &mut Vec<u8>,
    opcode: u8,
    seq: u32,
    crc: bool,
    fill: impl FnOnce(&mut Vec<u8>),
) -> usize {
    let start = out.len();
    let len = frame_into(out, opcode, seq, crc, fill);
    if len <= MAX_RESPONSE_FRAME {
        return len;
    }
    out.truncate(start);
    frame_into(out, OP_ERROR, seq, crc, |out| out.push(ErrorCode::TooLarge as u8))
}

/// Encode a whole response frame ([`encode_response_into`] on a fresh
/// buffer).
pub fn encode_response(resp: &Response, request_op: u8, seq: u32, crc: bool) -> Vec<u8> {
    let mut out = Vec::new();
    encode_response_into(&mut out, resp, request_op, seq, crc);
    out
}

/// Parse a response payload. `opcode` is the *response* frame opcode.
pub fn parse_response(opcode: u8, payload: &[u8]) -> Result<Response, ErrorCode> {
    let mut c = Cursor::new(payload);
    if opcode == OP_ERROR {
        let code = ErrorCode::from_u8(c.u8().ok_or(ErrorCode::BadRequest)?)
            .ok_or(ErrorCode::BadRequest)?;
        return if c.done() { Ok(Response::Error(code)) } else { Err(ErrorCode::BadRequest) };
    }
    let resp = match opcode & !RESPONSE_BIT {
        op::PING => Response::Pong,
        op::GET => match c.u8().ok_or(ErrorCode::BadRequest)? {
            0 => Response::Value(None),
            1 => Response::Value(Some(c.rest().to_vec())),
            _ => return Err(ErrorCode::BadRequest),
        },
        op::PUT => Response::Written { existed: c.u8().ok_or(ErrorCode::BadRequest)? != 0 },
        op::DELETE => Response::Deleted { existed: c.u8().ok_or(ErrorCode::BadRequest)? != 0 },
        op::CAS => Response::Swapped { swapped: c.u8().ok_or(ErrorCode::BadRequest)? != 0 },
        op::SCAN => {
            let truncated = c.u8().ok_or(ErrorCode::BadRequest)? != 0;
            let count = c.u32().ok_or(ErrorCode::BadRequest)? as usize;
            let mut entries = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                let key = c.u64().ok_or(ErrorCode::BadRequest)?;
                let value = c.lp_bytes().ok_or(ErrorCode::BadRequest)?;
                entries.push((key, value));
            }
            Response::Entries { entries, truncated }
        }
        op::MULTI => Response::Applied { ops: c.u32().ok_or(ErrorCode::BadRequest)? },
        op::TXN => {
            let count = c.u32().ok_or(ErrorCode::BadRequest)? as usize;
            let mut gets = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                match c.u8().ok_or(ErrorCode::BadRequest)? {
                    0 => gets.push(None),
                    1 => gets.push(Some(c.lp_bytes().ok_or(ErrorCode::BadRequest)?)),
                    _ => return Err(ErrorCode::BadRequest),
                }
            }
            Response::TxnResults { gets }
        }
        op::STATS => Response::Stats { payload: c.rest().to_vec() },
        _ => return Err(ErrorCode::UnknownOpcode),
    };
    if c.done() {
        Ok(resp)
    } else {
        Err(ErrorCode::BadRequest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Get { key: 7 },
            Request::Put { key: 9, value: b"hello".to_vec() },
            Request::Put { key: 10, value: Vec::new() },
            Request::Delete { key: u64::MAX },
            Request::Cas { key: 3, expected: None, new: b"n".to_vec() },
            Request::Cas { key: 3, expected: Some(b"old".to_vec()), new: Vec::new() },
            Request::Scan { lo: 0, hi: 1 << 40, limit: 128 },
            Request::Multi {
                ops: vec![
                    WriteOp::Put { key: 1, value: b"a".to_vec() },
                    WriteOp::Delete { key: 2 },
                ],
            },
            Request::Txn {
                ops: vec![
                    TxnOp::Get { key: 1 },
                    TxnOp::Put { key: 2, value: b"bb".to_vec() },
                    TxnOp::Delete { key: 3 },
                ],
            },
            Request::Stats { text: false },
            Request::Stats { text: true },
        ]
    }

    fn sample_responses() -> Vec<(u8, Response)> {
        vec![
            (op::PING, Response::Pong),
            (op::GET, Response::Value(None)),
            (op::GET, Response::Value(Some(b"v".to_vec()))),
            (op::PUT, Response::Written { existed: true }),
            (op::DELETE, Response::Deleted { existed: false }),
            (op::CAS, Response::Swapped { swapped: true }),
            (
                op::SCAN,
                Response::Entries {
                    entries: vec![(1, b"x".to_vec()), (2, Vec::new())],
                    truncated: true,
                },
            ),
            (op::MULTI, Response::Applied { ops: 3 }),
            (op::TXN, Response::TxnResults { gets: vec![None, Some(b"yes".to_vec())] }),
            (op::STATS, Response::Stats { payload: Vec::new() }),
            (op::STATS, Response::Stats { payload: b"stm.commits 41\n".to_vec() }),
            (op::PUT, Response::Error(ErrorCode::ReadOnly)),
        ]
    }

    #[test]
    fn request_round_trip_with_and_without_crc() {
        for crc in [false, true] {
            for (i, req) in sample_requests().into_iter().enumerate() {
                let seq = i as u32 * 3 + 1;
                let wire = encode_request(&req, seq, crc);
                match decode_frame(&wire) {
                    FrameEvent::Frame { consumed, opcode, seq: got_seq, payload } => {
                        assert_eq!(consumed, wire.len());
                        assert_eq!(opcode, req.opcode());
                        assert_eq!(got_seq, seq);
                        assert_eq!(parse_request(opcode, payload), Ok(req));
                    }
                    other => panic!("expected frame, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn response_round_trip_with_and_without_crc() {
        for crc in [false, true] {
            for (i, (req_op, resp)) in sample_responses().into_iter().enumerate() {
                let seq = 100 + i as u32;
                let wire = encode_response(&resp, req_op, seq, crc);
                match decode_frame(&wire) {
                    FrameEvent::Frame { opcode, seq: got_seq, payload, .. } => {
                        assert_eq!(opcode, resp.opcode(req_op));
                        assert_eq!(got_seq, seq);
                        assert_eq!(parse_response(opcode, payload), Ok(resp));
                    }
                    other => panic!("expected frame, got {other:?}"),
                }
            }
        }
    }

    /// The framing `encode_frame` did before frames were built in
    /// place, over a finished payload: the reference the in-place
    /// encoder must match byte for byte.
    fn reference_frame(opcode: u8, seq: u32, payload: &[u8], crc: bool) -> Vec<u8> {
        let body_len = BODY_PREFIX + payload.len() + if crc { 4 } else { 0 };
        let mut out = MAGIC.to_le_bytes().to_vec();
        out.extend_from_slice(&(body_len as u32).to_le_bytes());
        out.push(opcode);
        out.push(if crc { FLAG_CRC } else { 0 });
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(payload);
        if crc {
            let sum = crc32(&out[HEADER..]);
            out.extend_from_slice(&sum.to_le_bytes());
        }
        out
    }

    #[test]
    fn in_place_response_frames_match_the_reference_encoder() {
        for crc in [false, true] {
            // One buffer for all of them, as a connection's is: every
            // frame lands behind the ones before it and disturbs none.
            let mut out = b"unflushed".to_vec();
            let mut want = out.clone();
            for (i, (req_op, resp)) in sample_responses().into_iter().enumerate() {
                let seq = 7 + i as u32;
                let frame =
                    reference_frame(resp.opcode(req_op), seq, &encode_response_payload(&resp), crc);
                assert_eq!(encode_response_into(&mut out, &resp, req_op, seq, crc), frame.len());
                assert_eq!(encode_response(&resp, req_op, seq, crc), frame, "{resp:?}");
                want.extend_from_slice(&frame);
                assert_eq!(out, want, "{resp:?}, crc {crc}");
            }
        }
    }

    #[test]
    fn oversized_response_is_demoted_leaving_no_partial_frame() {
        let too_large = Response::Value(Some(vec![0xAB; MAX_RESPONSE_FRAME]));
        for crc in [false, true] {
            let mut out = encode_response(&Response::Pong, op::PING, 1, crc);
            let before = out.clone();
            let len = encode_response_into(&mut out, &too_large, op::GET, 2, crc);
            let error = reference_frame(OP_ERROR, 2, &[ErrorCode::TooLarge as u8], crc);
            assert_eq!(len, error.len());
            assert_eq!(out, [before, error].concat(), "only the error frame follows the pong");
            // The largest response that still fits goes out as itself.
            let fits = Response::Stats {
                payload: vec![1; MAX_RESPONSE_FRAME - HEADER - BODY_PREFIX - 4 * usize::from(crc)],
            };
            out.clear();
            assert_eq!(
                encode_response_into(&mut out, &fits, op::STATS, 3, crc),
                MAX_RESPONSE_FRAME
            );
            assert_eq!(out[HEADER], op::STATS | RESPONSE_BIT);
        }
    }

    #[test]
    fn get_reply_framed_in_place_matches_the_response_encoder() {
        let values =
            [None, Some(Vec::new()), Some(b"v".repeat(64)), Some(vec![7; MAX_PAYLOAD + 1])];
        for crc in [false, true] {
            for (seq, value) in values.iter().enumerate() {
                let seq = seq as u32;
                let mut want = b"unflushed".to_vec();
                let resp = Response::Value(value.clone());
                let want_len = encode_response_into(&mut want, &resp, op::GET, seq, crc);
                let mut out = b"unflushed".to_vec();
                let len = encode_get_reply_into(&mut out, op::GET, seq, crc, |out| {
                    value.as_ref().map(|v| out.extend_from_slice(v)).is_some()
                });
                assert_eq!((len, &out), (want_len, &want), "{value:?}, crc {crc}");
            }
        }
    }

    #[test]
    fn every_strict_prefix_is_incomplete() {
        let wire = encode_request(&Request::Put { key: 1, value: b"abcdef".to_vec() }, 5, true);
        for cut in 0..wire.len() {
            match decode_frame(&wire[..cut]) {
                FrameEvent::Incomplete { need } => assert!(need > cut),
                other => panic!("prefix {cut}: expected incomplete, got {other:?}"),
            }
        }
    }

    #[test]
    fn corruption_is_detected() {
        assert_eq!(decode_frame(b"nope-not-a-frame"), FrameEvent::Corrupt(Corrupt::BadMagic));
        // Early magic check: a single wrong byte already fails.
        assert_eq!(decode_frame(b"X"), FrameEvent::Corrupt(Corrupt::BadMagic));

        // Oversized len field.
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&MAGIC.to_le_bytes());
        oversized.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_frame(&oversized), FrameEvent::Corrupt(Corrupt::BadLength));

        // Undersized len field (body can't hold opcode+flags+seq).
        let mut tiny = Vec::new();
        tiny.extend_from_slice(&MAGIC.to_le_bytes());
        tiny.extend_from_slice(&2u32.to_le_bytes());
        assert_eq!(decode_frame(&tiny), FrameEvent::Corrupt(Corrupt::BadLength));

        // Flipped payload bit under CRC.
        let mut wire = encode_request(&Request::Put { key: 1, value: b"abc".to_vec() }, 1, true);
        let at = wire.len() - 6;
        wire[at] ^= 0x01;
        assert_eq!(decode_frame(&wire), FrameEvent::Corrupt(Corrupt::BadCrc));

        // Reserved flag bit.
        let mut wire = encode_request(&Request::Ping, 1, false);
        wire[9] |= 0x40;
        assert_eq!(decode_frame(&wire), FrameEvent::Corrupt(Corrupt::BadFlags));
    }

    #[test]
    fn trailing_garbage_in_payload_is_bad_request() {
        let mut payload = encode_request_payload(&Request::Get { key: 1 });
        payload.push(0xAA);
        assert_eq!(parse_request(op::GET, &payload), Err(ErrorCode::BadRequest));
    }

    #[test]
    fn unknown_opcode_is_reported() {
        assert_eq!(parse_request(0x6F, &[]), Err(ErrorCode::UnknownOpcode));
    }

    #[test]
    fn back_to_back_frames_decode_in_sequence() {
        let mut wire = encode_request(&Request::Get { key: 1 }, 1, false);
        wire.extend_from_slice(&encode_request(&Request::Delete { key: 2 }, 2, true));
        let FrameEvent::Frame { consumed, seq, .. } = decode_frame(&wire) else {
            panic!("first frame");
        };
        assert_eq!(seq, 1);
        let FrameEvent::Frame { seq, .. } = decode_frame(&wire[consumed..]) else {
            panic!("second frame");
        };
        assert_eq!(seq, 2);
    }
}

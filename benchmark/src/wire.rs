//! The wire load generator: one thread, non-blocking connections, and
//! request bytes encoded before the run starts.
//!
//! The generator never builds a request while it measures. Each
//! connection owns a ring of pre-encoded frames and replays it in
//! order; a frame's sequence number is its ring index, so a reply is
//! checked against the ring entry it answers. Two load shapes:
//!
//! * **open loop** — requests are due at fixed intervals whatever the
//!   server does; latency runs from the *due* time, and the distance
//!   between due time and actual send is recorded as generator lag;
//! * **closed loop** — each connection keeps a fixed window of requests
//!   in flight, so the server is saturated and the rate is the result.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use polytm_server::poll::{Interest, Poller, READ, WRITE};
use polytm_server::protocol::{
    decode_frame, encode_request, op, FrameEvent, Request, RESPONSE_BIT,
};

use crate::estimate::median_u32;
use crate::rng::{preload_word, value_of, VALUE_BYTES};

/// One GET reply in this many has its value bytes compared.
const VALUE_CHECK_EVERY: u64 = 64;

/// What a connection replays.
pub struct RequestRing {
    bytes: Vec<u8>,
    frame_len: usize,
    opcode: u8,
    /// Key of request `i`.
    pub keys: Vec<u64>,
    /// For PUT rings, the value word of request `i`; empty for GET.
    pub words: Vec<u64>,
}

impl RequestRing {
    pub fn gets(keys: Vec<u64>) -> Self {
        Self::build(op::GET, keys, Vec::new())
    }

    pub fn puts(keys: Vec<u64>, words: Vec<u64>) -> Self {
        assert_eq!(keys.len(), words.len());
        Self::build(op::PUT, keys, words)
    }

    fn build(opcode: u8, keys: Vec<u64>, words: Vec<u64>) -> Self {
        assert!(!keys.is_empty() && keys.len() <= u32::MAX as usize);
        let mut bytes = Vec::new();
        let mut frame_len = 0;
        for (i, &key) in keys.iter().enumerate() {
            let req = match opcode {
                op::GET => Request::Get { key },
                _ => Request::Put { key, value: value_of(words[i]).to_vec() },
            };
            let frame = encode_request(&req, i as u32, false);
            assert!(frame_len == 0 || frame_len == frame.len(), "frames of one ring have one size");
            frame_len = frame.len();
            bytes.extend_from_slice(&frame);
        }
        RequestRing { bytes, frame_len, opcode, keys, words }
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Payload bytes a user handed over per request (key + value).
    pub fn user_bytes_per_request(&self) -> u64 {
        8 + if self.opcode == op::PUT { VALUE_BYTES as u64 } else { 0 }
    }
}

/// One connection and its place in the ring. Counts are absolute over
/// the connection's life; request `j` replays ring entry `j % len`.
pub struct Conn {
    sock: TcpStream,
    pub ring: Arc<RequestRing>,
    /// Seed the store was preloaded with (GET value checks).
    seed: u64,
    /// Requests released for sending.
    admitted: u64,
    sent_bytes: u64,
    pub replied: u64,
    pub failed: u64,
    rbuf: Vec<u8>,
    rlen: usize,
}

fn fail(msg: &str) -> io::Error {
    io::Error::other(format!("wire generator: {msg}"))
}

impl Conn {
    pub fn connect(addr: SocketAddr, ring: Arc<RequestRing>, seed: u64) -> io::Result<Self> {
        let sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true)?;
        sock.set_nonblocking(true)?;
        Ok(Conn {
            sock,
            ring,
            seed,
            admitted: 0,
            sent_bytes: 0,
            replied: 0,
            failed: 0,
            rbuf: vec![0u8; 64 << 10],
            rlen: 0,
        })
    }

    fn unsent_bytes(&self) -> u64 {
        self.admitted * self.ring.frame_len as u64 - self.sent_bytes
    }

    /// Write released request bytes until the socket would block.
    fn pump_write(&mut self) -> io::Result<bool> {
        let ring_len = self.ring.bytes.len() as u64;
        let mut progress = false;
        while self.unsent_bytes() > 0 {
            let off = (self.sent_bytes % ring_len) as usize;
            let n = self.unsent_bytes().min(ring_len - off as u64) as usize;
            match self.sock.write(&self.ring.bytes[off..off + n]) {
                Ok(0) => return Err(fail("server closed the connection")),
                Ok(w) => {
                    self.sent_bytes += w as u64;
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(progress)
    }

    /// Read what has arrived and check every whole reply.
    fn pump_read(&mut self) -> io::Result<bool> {
        let mut progress = false;
        loop {
            let space = self.rbuf.len() - self.rlen;
            match self.sock.read(&mut self.rbuf[self.rlen..]) {
                Ok(0) => return Err(fail("server closed the connection")),
                Ok(n) => {
                    self.rlen += n;
                    progress = true;
                    self.consume_replies()?;
                    if n < space {
                        break; // short read: the socket is drained
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(progress)
    }

    fn consume_replies(&mut self) -> io::Result<()> {
        let mut cursor = 0;
        loop {
            match decode_frame(&self.rbuf[cursor..self.rlen]) {
                FrameEvent::Incomplete { .. } => break,
                FrameEvent::Corrupt(c) => return Err(fail(&format!("corrupt reply: {c:?}"))),
                FrameEvent::Frame { consumed, opcode, seq, payload } => {
                    let idx = (self.replied % self.ring.len() as u64) as usize;
                    if !self.reply_ok(idx, opcode, seq, payload) {
                        self.failed += 1;
                    }
                    self.replied += 1;
                    cursor += consumed;
                }
            }
        }
        self.rbuf.copy_within(cursor..self.rlen, 0);
        self.rlen -= cursor;
        Ok(())
    }

    fn reply_ok(&self, idx: usize, opcode: u8, seq: u32, payload: &[u8]) -> bool {
        if seq != idx as u32 || opcode != self.ring.opcode | RESPONSE_BIT {
            return false;
        }
        if self.ring.opcode == op::PUT {
            // Every key was preloaded, so every PUT overwrites.
            return payload == [1];
        }
        if payload.len() != 1 + VALUE_BYTES || payload[0] != 1 {
            return false;
        }
        !self.replied.is_multiple_of(VALUE_CHECK_EVERY)
            || payload[1..] == value_of(preload_word(self.seed, self.ring.keys[idx]))
    }
}

/// One closed-loop slice: replies completed and the exact time it took.
#[derive(Clone, Copy, Debug)]
pub struct RateSlice {
    pub ops: u64,
    pub ns: u64,
}

impl RateSlice {
    pub fn per_s(&self) -> f64 {
        self.ops as f64 * 1e9 / self.ns as f64
    }
}

#[derive(Debug, Default)]
pub struct OpenLoopOut {
    /// Median reply latency of each slice, ns.
    pub slice_p50_ns: Vec<f64>,
    /// Every latency sample of the phase, ns.
    pub lat_ns: Vec<u32>,
    /// How late each request was released, ns.
    pub lag_ns: Vec<u32>,
    pub released: u64,
    pub completed: u64,
}

pub struct Generator {
    pub conns: Vec<Conn>,
    poller: Poller,
}

impl Generator {
    pub fn new(conns: Vec<Conn>) -> Self {
        Generator { conns, poller: Poller::new() }
    }

    pub fn replied(&self) -> u64 {
        self.conns.iter().map(|c| c.replied).sum()
    }

    pub fn failed(&self) -> u64 {
        self.conns.iter().map(|c| c.failed).sum()
    }

    /// Block until a connection is readable (or writable, where bytes
    /// are waiting to go out), at most `timeout`.
    fn wait(&self, active: usize, timeout: Duration) {
        let interests: Vec<Interest> = self.conns[..active]
            .iter()
            .map(|c| Interest {
                fd: c.sock.as_raw_fd(),
                events: READ | if c.unsent_bytes() > 0 { WRITE } else { 0 },
            })
            .collect();
        // `poll` counts in whole milliseconds; round up so a short
        // remainder still blocks instead of spinning.
        self.poller.wait(&interests, timeout.max(Duration::from_millis(1)));
    }

    /// Wait until every released request has been answered.
    pub fn drain(&mut self) -> io::Result<()> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            for c in &mut self.conns {
                c.pump_write()?;
                c.pump_read()?;
            }
            if self.conns.iter().all(|c| c.replied == c.admitted) {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(fail("replies still missing after 30 s"));
            }
            self.wait(self.conns.len(), Duration::from_millis(5));
        }
    }

    /// Closed loop until at least `ops` more replies have arrived: a
    /// fixed amount of work, not timed.
    pub fn closed_loop_ops(&mut self, window: u64, ops: u64) -> io::Result<()> {
        let target = self.replied() + ops;
        while self.replied() < target {
            let mut progress = false;
            for c in &mut self.conns {
                c.admitted = c.replied + window;
                progress |= c.pump_write()?;
                progress |= c.pump_read()?;
            }
            if !progress {
                self.wait(self.conns.len(), Duration::from_millis(5));
            }
        }
        Ok(())
    }

    /// Closed loop over the first `active` connections with `window`
    /// requests in flight on each, for `slices` slices of `slice_ns`.
    /// `between(k)` runs after slice `k` (of `0..slices-1`) outside
    /// any slice's clock.
    pub fn closed_loop(
        &mut self,
        active: usize,
        window: u64,
        slices: usize,
        slice_ns: u64,
        mut between: impl FnMut(usize),
    ) -> io::Result<Vec<RateSlice>> {
        let mut out = Vec::with_capacity(slices);
        let replied = |g: &Generator| g.conns[..active].iter().map(|c| c.replied).sum::<u64>();
        let t0 = Instant::now();
        let mut slice_start = 0u64;
        let mut slice_base = replied(self);
        while out.len() < slices {
            let now = t0.elapsed().as_nanos() as u64;
            if now >= slice_start + slice_ns {
                let done = replied(self);
                out.push(RateSlice { ops: done - slice_base, ns: now - slice_start });
                if out.len() < slices {
                    between(out.len() - 1);
                    // Replies that arrived meanwhile belong to no slice.
                    for c in &mut self.conns[..active] {
                        c.pump_read()?;
                    }
                }
                slice_base = replied(self);
                slice_start = t0.elapsed().as_nanos() as u64;
                continue;
            }
            let mut progress = false;
            for c in &mut self.conns[..active] {
                c.admitted = c.replied + window;
                progress |= c.pump_write()?;
                progress |= c.pump_read()?;
            }
            if !progress {
                self.wait(active, Duration::from_nanos(slice_start + slice_ns - now));
            }
        }
        Ok(out)
    }

    /// Open loop at `rate` requests per second, dealt to the
    /// connections in turn. Every connection must be drained first.
    pub fn open_loop(
        &mut self,
        rate: f64,
        slices: usize,
        slice_ns: u64,
    ) -> io::Result<OpenLoopOut> {
        let n = self.conns.len() as u64;
        let interval_ns = 1e9 / rate;
        let base: Vec<u64> = self.conns.iter().map(|c| c.replied).collect();
        let expect = (rate * slice_ns as f64 / 1e9) as usize;
        let mut out = OpenLoopOut {
            slice_p50_ns: Vec::with_capacity(slices),
            lat_ns: Vec::with_capacity(expect * slices + 64),
            lag_ns: Vec::with_capacity(expect * slices + 64),
            ..OpenLoopOut::default()
        };
        let mut samples: Vec<u32> = Vec::with_capacity(expect * 2);
        let t0 = Instant::now();
        let clamp = |ns: f64| ns.clamp(0.0, f64::from(u32::MAX)) as u32;
        while out.slice_p50_ns.len() < slices {
            let now = t0.elapsed().as_nanos() as u64;
            if now >= (out.slice_p50_ns.len() as u64 + 1) * slice_ns {
                out.lat_ns.extend_from_slice(&samples);
                out.slice_p50_ns.push(median_u32(&mut samples));
                samples.clear();
                continue;
            }
            // Request g is due at g * interval.
            let due = (now as f64 / interval_ns) as u64 + 1;
            while out.released < due {
                let g = out.released;
                self.conns[(g % n) as usize].admitted += 1;
                out.lag_ns.push(clamp(now as f64 - g as f64 * interval_ns));
                out.released += 1;
            }
            for (c, conn) in self.conns.iter_mut().enumerate() {
                conn.pump_write()?;
                let before = conn.replied;
                conn.pump_read()?;
                if conn.replied > before {
                    let arrived = t0.elapsed().as_nanos() as f64;
                    for j in before..conn.replied {
                        let g = (j - base[c]) * n + c as u64;
                        samples.push(clamp(arrived - g as f64 * interval_ns));
                    }
                    out.completed += conn.replied - before;
                }
            }
            std::hint::spin_loop();
        }
        Ok(out)
    }
}

//! A small blocking client for the `PTM1` protocol: one socket, explicit
//! pipelining (`send` many, `recv` in order), and convenience wrappers
//! for each opcode. This is what the loopback tests and the examples
//! drive the server with.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{
    decode_frame, encode_request, parse_response, FrameEvent, Request, Response,
};

/// Blocking protocol client. Not thread-safe; one per connection.
pub struct Client {
    stream: TcpStream,
    /// Bytes received but not yet decoded.
    buf: Vec<u8>,
    next_seq: u32,
    /// Attach CRC trailers to outgoing frames.
    pub crc: bool,
}

/// Client-side failure: transport error or an undecodable reply.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server's byte stream failed to decode.
    Protocol(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(what) => write!(f, "protocol: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream, buf: Vec::new(), next_seq: 1, crc: false })
    }

    /// Bound how long [`Client::recv`] blocks for socket bytes; a
    /// timeout surfaces as `ClientError::Io` with kind
    /// `WouldBlock`/`TimedOut` and leaves the stream decodable (partial
    /// frames stay buffered).
    pub fn set_read_timeout(
        &self,
        timeout: Option<std::time::Duration>,
    ) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Pipelined send: write one request, return its sequence number
    /// without waiting for the reply.
    pub fn send(&mut self, req: &Request) -> Result<u32, ClientError> {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        let wire = encode_request(req, seq, self.crc);
        self.stream.write_all(&wire)?;
        Ok(seq)
    }

    /// Receive the next response in arrival order (the server
    /// guarantees arrival order == request order per connection).
    pub fn recv(&mut self) -> Result<(u32, Response), ClientError> {
        loop {
            match decode_frame(&self.buf) {
                FrameEvent::Frame { consumed, opcode, seq, payload } => {
                    let resp = parse_response(opcode, payload)
                        .map_err(|_| ClientError::Protocol("bad response payload"))?;
                    self.buf.drain(..consumed);
                    return Ok((seq, resp));
                }
                FrameEvent::Corrupt(_) => {
                    return Err(ClientError::Protocol("corrupt response frame"));
                }
                FrameEvent::Incomplete { .. } => {
                    let mut chunk = [0u8; 16 << 10];
                    match self.stream.read(&mut chunk) {
                        Ok(0) => return Err(ClientError::Protocol("connection closed")),
                        Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(e) => return Err(ClientError::Io(e)),
                    }
                }
            }
        }
    }

    /// Round-trip one request.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        let seq = self.send(req)?;
        let (got, resp) = self.recv()?;
        if got != seq {
            return Err(ClientError::Protocol("response sequence mismatch"));
        }
        Ok(resp)
    }

    /// `GET key`.
    pub fn get(&mut self, key: u64) -> Result<Option<Vec<u8>>, ClientError> {
        match self.call(&Request::Get { key })? {
            Response::Value(v) => Ok(v),
            _ => Err(ClientError::Protocol("unexpected reply to GET")),
        }
    }

    /// `PUT key value`; returns whether the key existed.
    pub fn put(&mut self, key: u64, value: &[u8]) -> Result<bool, ClientError> {
        match self.call(&Request::Put { key, value: value.to_vec() })? {
            Response::Written { existed } => Ok(existed),
            _ => Err(ClientError::Protocol("unexpected reply to PUT")),
        }
    }

    /// `DELETE key`; returns whether the key existed.
    pub fn delete(&mut self, key: u64) -> Result<bool, ClientError> {
        match self.call(&Request::Delete { key })? {
            Response::Deleted { existed } => Ok(existed),
            _ => Err(ClientError::Protocol("unexpected reply to DELETE")),
        }
    }

    /// `CAS key expected new`; returns whether the swap applied.
    pub fn cas(
        &mut self,
        key: u64,
        expected: Option<&[u8]>,
        new: &[u8],
    ) -> Result<bool, ClientError> {
        let req = Request::Cas { key, expected: expected.map(<[u8]>::to_vec), new: new.to_vec() };
        match self.call(&req)? {
            Response::Swapped { swapped } => Ok(swapped),
            _ => Err(ClientError::Protocol("unexpected reply to CAS")),
        }
    }

    /// `SCAN [lo, hi) limit`; returns entries plus the truncation flag.
    pub fn scan(&mut self, lo: u64, hi: u64, limit: u32) -> Result<ScanResult, ClientError> {
        match self.call(&Request::Scan { lo, hi, limit })? {
            Response::Entries { entries, truncated } => Ok((entries, truncated)),
            _ => Err(ClientError::Protocol("unexpected reply to SCAN")),
        }
    }

    /// `STATS` (binary): one snapshot of the server's unified metrics
    /// plane as sorted `(key, value)` entries. Empty if the server was
    /// spawned without a metrics registry.
    pub fn stats(&mut self) -> Result<Vec<(String, f64)>, ClientError> {
        match self.call(&Request::Stats { text: false })? {
            Response::Stats { payload } => polytm_obs::decode_entries(&payload)
                .map_err(|_| ClientError::Protocol("bad STATS entries payload")),
            _ => Err(ClientError::Protocol("unexpected reply to STATS")),
        }
    }

    /// `STATS` (text): the plain-text exposition dump, one
    /// `key value` line per metric.
    pub fn stats_text(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Stats { text: true })? {
            Response::Stats { payload } => String::from_utf8(payload)
                .map_err(|_| ClientError::Protocol("STATS exposition is not UTF-8")),
            _ => Err(ClientError::Protocol("unexpected reply to STATS")),
        }
    }
}

/// A `SCAN` outcome: `(key, value)` entries in ascending key order,
/// plus whether a limit truncated the result.
pub type ScanResult = (Vec<(u64, Vec<u8>)>, bool);

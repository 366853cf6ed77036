//! The trace-dump codec: a strict little-endian binary format for
//! persisting drained rings, decodable by `traceview` (and anything
//! else) without this process's state.
//!
//! ## Layout (version 1)
//!
//! ```text
//! header:  "PTRC" | version:u32 | ring_capacity:u32 | ring_count:u32
//! per ring: ring_index:u32 | dropped:u64 | event_count:u64 | events…
//! event (32 bytes):
//!   ts_ns:u64 | code:u8 | sub:u8 | class:u16 | n:u32 | a:u64 | b:u64
//! ```
//!
//! All integers little-endian. Decoding is strict — wrong magic,
//! truncated bodies, or trailing garbage are errors, never panics — so
//! the decoder can face arbitrary bytes (it is proptest-fuzzed).

use std::path::Path;

use polytm::TraceEvent;

/// Bytes one event occupies on the wire.
pub const EVENT_BYTES: usize = 32;
/// The dump file magic.
pub const MAGIC: &[u8; 4] = b"PTRC";
/// Current format version.
pub const VERSION: u32 = 1;

/// One drained per-thread ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingDump {
    /// Registration index of the ring within its tracer.
    pub ring: u32,
    /// Cumulative events this ring shed (ring full) up to the drain.
    pub dropped: u64,
    /// The drained events, in emission order.
    pub events: Vec<TraceEvent>,
}

/// A full drain of a [`crate::RingTracer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDump {
    /// Per-ring slot capacity the tracer ran with.
    pub capacity: usize,
    /// One entry per registered per-thread ring.
    pub rings: Vec<RingDump>,
}

impl TraceDump {
    /// Total events shed across all rings.
    pub fn dropped_total(&self) -> u64 {
        self.rings.iter().map(|r| r.dropped).sum()
    }

    /// Serialize to the version-1 wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let events: usize = self.rings.iter().map(|r| r.events.len()).sum();
        let mut out = Vec::with_capacity(16 + self.rings.len() * 20 + events * EVENT_BYTES);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.capacity as u32).to_le_bytes());
        out.extend_from_slice(&(self.rings.len() as u32).to_le_bytes());
        for ring in &self.rings {
            out.extend_from_slice(&ring.ring.to_le_bytes());
            out.extend_from_slice(&ring.dropped.to_le_bytes());
            out.extend_from_slice(&(ring.events.len() as u64).to_le_bytes());
            for ev in &ring.events {
                encode_event(ev, &mut out);
            }
        }
        out
    }

    /// Strict inverse of [`TraceDump::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Reader { bytes, at: 0 };
        if r.take(4)? != MAGIC {
            return Err("not a trace dump (bad magic)".into());
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(format!("unsupported dump version {version}"));
        }
        let capacity = r.u32()? as usize;
        let ring_count = r.u32()?;
        let mut rings = Vec::new();
        for _ in 0..ring_count {
            let ring = r.u32()?;
            let dropped = r.u64()?;
            let count = r.u64()?;
            // Bound by what the buffer can actually hold, so a corrupt
            // count cannot drive allocation.
            if count > (bytes.len() / EVENT_BYTES) as u64 {
                return Err(format!("ring {ring} claims {count} events; dump is too short"));
            }
            let mut events = Vec::with_capacity(count as usize);
            for _ in 0..count {
                events.push(decode_event(r.take(EVENT_BYTES)?));
            }
            rings.push(RingDump { ring, dropped, events });
        }
        if r.at != bytes.len() {
            return Err(format!("{} trailing bytes after dump body", bytes.len() - r.at));
        }
        Ok(Self { capacity, rings })
    }

    /// Write the dump to `path` (atomic enough for tooling: whole-file
    /// write, no partial rewrites of an existing dump).
    pub fn write_file(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Read and decode a dump file.
    pub fn read_file(path: impl AsRef<Path>) -> Result<Self, String> {
        let bytes = std::fs::read(path.as_ref()).map_err(|e| format!("reading trace dump: {e}"))?;
        Self::from_bytes(&bytes)
    }
}

/// Append one event's 32 wire bytes.
pub fn encode_event(ev: &TraceEvent, out: &mut Vec<u8>) {
    out.extend_from_slice(&ev.ts_ns.to_le_bytes());
    out.push(ev.code);
    out.push(ev.sub);
    out.extend_from_slice(&ev.class.to_le_bytes());
    out.extend_from_slice(&ev.n.to_le_bytes());
    out.extend_from_slice(&ev.a.to_le_bytes());
    out.extend_from_slice(&ev.b.to_le_bytes());
}

/// Decode one event from exactly [`EVENT_BYTES`] wire bytes.
///
/// # Panics
/// If `bytes` is not exactly [`EVENT_BYTES`] long (the framing layer
/// has already validated lengths).
pub fn decode_event(bytes: &[u8]) -> TraceEvent {
    assert_eq!(bytes.len(), EVENT_BYTES, "event frame must be {EVENT_BYTES} bytes");
    let u64_at = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
    TraceEvent {
        ts_ns: u64_at(0),
        code: bytes[8],
        sub: bytes[9],
        class: u16::from_le_bytes([bytes[10], bytes[11]]),
        n: u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")),
        a: u64_at(16),
        b: u64_at(24),
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.bytes.len() - self.at < n {
            return Err(format!("dump truncated at byte {}", self.at));
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceDump {
        TraceDump {
            capacity: 1024,
            rings: vec![
                RingDump {
                    ring: 0,
                    dropped: 3,
                    events: vec![
                        TraceEvent { ts_ns: 10, code: 1, sub: 0, class: 5, n: 0, a: 7, b: 9 },
                        TraceEvent { ts_ns: 20, code: 2, sub: 1, class: 5, n: 1, a: 0, b: 0 },
                    ],
                },
                RingDump { ring: 1, dropped: 0, events: vec![] },
            ],
        }
    }

    #[test]
    fn round_trips() {
        let d = sample();
        assert_eq!(TraceDump::from_bytes(&d.to_bytes()).expect("decode"), d);
    }

    #[test]
    fn rejects_bad_magic_truncation_and_trailing_garbage() {
        let d = sample();
        let bytes = d.to_bytes();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(TraceDump::from_bytes(&bad).is_err());
        assert!(TraceDump::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut long = bytes.clone();
        long.push(0);
        assert!(TraceDump::from_bytes(&long).is_err());
        assert!(TraceDump::from_bytes(&[]).is_err());
    }
}

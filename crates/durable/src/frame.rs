//! On-disk framing: CRC32, length-prefixed redo entry frames, and the
//! snapshot file layout.
//!
//! ## CRC-32
//!
//! CRC-32/IEEE (reflected polynomial `0xEDB8_8320`, pre- and
//! post-inverted), computed **slicing-by-8**: eight 256-entry tables,
//! built at compile time, fold eight input bytes per step with eight
//! lookups instead of 64 shift-and-xor rounds (Kounavis & Berry, 2005).
//! It computes the same function as the bit-at-a-time loop, which the
//! tests keep as an oracle, so the on-disk format below is unchanged
//! down to every checksum byte.
//!
//! ## Entry frame
//!
//! ```text
//! [magic u32][len u32][seq u64][wv u64][crc u32][payload: len bytes]
//! ```
//!
//! All integers little-endian. `crc` is CRC-32 (IEEE) over the `len`,
//! `seq` and `wv` fields followed by the payload, so a torn header and
//! a torn payload are equally detectable. Decoding stops at the first
//! frame that is truncated, mis-magicked, implausibly sized, or fails
//! its CRC — the **longest valid prefix** rule recovery is built on.
//!
//! ## Snapshot file
//!
//! ```text
//! [magic u32][cut W u64][start_seg u64][count u64]
//! [count × (key u64, vlen u32, vlen bytes)][crc u32]
//! ```
//!
//! `crc` covers everything after the magic. The snapshot is written to
//! a temporary name, fsynced, then renamed over `snap.bin`, so a valid
//! file is replaced atomically; recovery treats a missing file as an
//! empty store and a corrupt one as a hard error (the write protocol
//! never produces one — see `store.rs`).

/// Entry frame magic: "PLOG".
pub const ENTRY_MAGIC: u32 = 0x504C_4F47;
/// Snapshot file magic: "PSNP".
pub const SNAP_MAGIC: u32 = 0x5053_4E50;
/// Entry frame header size in bytes.
pub const ENTRY_HEADER: usize = 4 + 4 + 8 + 8 + 4;
/// Sanity cap on a single entry's payload — anything larger than this
/// in a length field is treated as corruption, not an allocation
/// request.
pub const MAX_ENTRY_PAYLOAD: u32 = 64 << 20;

/// CRC-32 (IEEE 802.3, reflected) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// The reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `CRC_TABLES[0][b]` is the CRC state step for
/// byte `b`, and `CRC_TABLES[k][b]` that step followed by `k` zero
/// bytes, so one step folds bytes 0..8 of a chunk through tables 7..0.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut state = b as u32;
        let mut bit = 0;
        while bit < 8 {
            state = (state >> 1) ^ (CRC_POLY & (state & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = state;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// Streaming CRC-32 step (state in, state out; pre/post-inversion is
/// the caller's job — use [`crc32`] unless chaining slices). Eight
/// bytes per table step, then the tail byte by byte.
fn crc32_update(mut state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let low = state ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        state = t[7][(low & 0xFF) as usize]
            ^ t[6][((low >> 8) & 0xFF) as usize]
            ^ t[5][((low >> 16) & 0xFF) as usize]
            ^ t[4][(low >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        state = (state >> 8) ^ t[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// CRC over an entry's protected region: `len`, `seq`, `wv`, payload.
/// The three fields go through one 20-byte update, so the sliced loop
/// takes two full steps over them rather than three short tails.
fn entry_crc(len: u32, seq: u64, wv: u64, payload: &[u8]) -> u32 {
    let mut fields = [0u8; 20];
    fields[..4].copy_from_slice(&len.to_le_bytes());
    fields[4..12].copy_from_slice(&seq.to_le_bytes());
    fields[12..].copy_from_slice(&wv.to_le_bytes());
    crc32_update(crc32_update(0xFFFF_FFFF, &fields), payload) ^ 0xFFFF_FFFF
}

/// Append one framed entry to `buf`.
pub fn encode_entry(buf: &mut Vec<u8>, seq: u64, wv: u64, payload: &[u8]) {
    let len = payload.len() as u32;
    buf.extend_from_slice(&ENTRY_MAGIC.to_le_bytes());
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&wv.to_le_bytes());
    buf.extend_from_slice(&entry_crc(len, seq, wv, payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// One decoded entry frame, borrowing its payload from the log bytes.
#[derive(Debug, PartialEq, Eq)]
pub struct Entry<'a> {
    /// Log sequence number (monotone across the whole log).
    pub seq: u64,
    /// Commit clock stamp.
    pub wv: u64,
    /// Opaque redo payload.
    pub payload: &'a [u8],
}

fn read_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("caller checked length"))
}

fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("caller checked length"))
}

/// Decode the next frame at `bytes[at..]`. Returns the entry and the
/// offset just past it, or `None` for anything that is not a complete,
/// CRC-valid frame (truncation, torn tail, bit rot — recovery stops
/// here).
pub fn decode_entry(bytes: &[u8], at: usize) -> Option<(Entry<'_>, usize)> {
    let b = bytes.get(at..)?;
    if b.len() < ENTRY_HEADER {
        return None;
    }
    if read_u32(b) != ENTRY_MAGIC {
        return None;
    }
    let len = read_u32(&b[4..]);
    if len > MAX_ENTRY_PAYLOAD {
        return None;
    }
    let seq = read_u64(&b[8..]);
    let wv = read_u64(&b[16..]);
    let crc = read_u32(&b[24..]);
    let payload = b.get(ENTRY_HEADER..ENTRY_HEADER + len as usize)?;
    if entry_crc(len, seq, wv, payload) != crc {
        return None;
    }
    Some((Entry { seq, wv, payload }, at + ENTRY_HEADER + len as usize))
}

/// Serialize a snapshot file: cut `w`, first live segment `start_seg`,
/// and the full record set. The buffer is sized up front, so each value
/// is copied once, straight into it.
pub fn encode_snapshot<V: AsRef<[u8]>>(w: u64, start_seg: u64, records: &[(u64, V)]) -> Vec<u8> {
    let body: usize = records.iter().map(|(_, value)| 12 + value.as_ref().len()).sum();
    let mut buf = Vec::with_capacity(4 + 24 + body + 4);
    buf.extend_from_slice(&SNAP_MAGIC.to_le_bytes());
    buf.extend_from_slice(&w.to_le_bytes());
    buf.extend_from_slice(&start_seg.to_le_bytes());
    buf.extend_from_slice(&(records.len() as u64).to_le_bytes());
    for (key, value) in records {
        let value = value.as_ref();
        buf.extend_from_slice(&key.to_le_bytes());
        buf.extend_from_slice(&(value.len() as u32).to_le_bytes());
        buf.extend_from_slice(value);
    }
    let crc = crc32(&buf[4..]);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// A decoded snapshot file, borrowing its values from the file bytes.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Snapshot<'a> {
    /// Checkpoint cut: redo entries stamped `wv <= w` are already
    /// reflected in `records` and are skipped at replay.
    pub w: u64,
    /// First segment number recovery replays; lower-numbered stragglers
    /// (a crash between snapshot install and segment deletion) are
    /// ignored.
    pub start_seg: u64,
    /// The record set at the cut.
    pub records: Vec<(u64, &'a [u8])>,
}

/// Decode a snapshot file. `None` means structurally invalid (bad
/// magic, truncated, CRC mismatch) — the caller decides whether that is
/// "no snapshot" or corruption.
pub fn decode_snapshot(bytes: &[u8]) -> Option<Snapshot<'_>> {
    if bytes.len() < 4 + 8 + 8 + 8 + 4 {
        return None;
    }
    if read_u32(bytes) != SNAP_MAGIC {
        return None;
    }
    let body = &bytes[..bytes.len() - 4];
    let crc = read_u32(&bytes[bytes.len() - 4..]);
    if crc32(&body[4..]) != crc {
        return None;
    }
    let w = read_u64(&body[4..]);
    let start_seg = read_u64(&body[12..]);
    let count = read_u64(&body[20..]);
    let mut at = 28usize;
    let mut records = Vec::with_capacity(count.min(1 << 20) as usize);
    for _ in 0..count {
        let key = read_u64(body.get(at..at + 8)?);
        let vlen = read_u32(body.get(at + 8..at + 12)?) as usize;
        let value = body.get(at + 12..at + 12 + vlen)?;
        records.push((key, value));
        at += 12 + vlen;
    }
    if at != body.len() {
        return None;
    }
    Some(Snapshot { w, start_seg, records })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn entry_roundtrip_and_tail_rejection() {
        let mut buf = Vec::new();
        encode_entry(&mut buf, 7, 42, b"hello");
        encode_entry(&mut buf, 8, 43, b"");
        let (e1, next) = decode_entry(&buf, 0).expect("first frame");
        assert_eq!((e1.seq, e1.wv, e1.payload), (7, 42, &b"hello"[..]));
        let (e2, end) = decode_entry(&buf, next).expect("second frame");
        assert_eq!((e2.seq, e2.wv, e2.payload), (8, 43, &b""[..]));
        assert_eq!(end, buf.len());
        assert!(decode_entry(&buf, end).is_none(), "clean end of log");
        // Every strict prefix of a frame is rejected, never mis-parsed.
        for cut in next..buf.len() {
            assert!(decode_entry(&buf[..cut], next).is_none(), "torn tail at {cut}");
        }
    }

    #[test]
    fn entry_bitflips_are_detected() {
        let mut clean = Vec::new();
        encode_entry(&mut clean, 1, 2, b"payload-bytes");
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut torn = clean.clone();
                torn[byte] ^= 1 << bit;
                let decoded = decode_entry(&torn, 0);
                assert!(decoded.is_none(), "flip of byte {byte} bit {bit} must not decode");
            }
        }
    }

    #[test]
    fn snapshot_roundtrip_and_corruption() {
        let records: Vec<(u64, &[u8])> = vec![(1, &[1, 2, 3]), (u64::MAX, &[]), (9, &[0; 100])];
        let bytes = encode_snapshot(55, 3, &records);
        let snap = decode_snapshot(&bytes).expect("roundtrip");
        assert_eq!(snap, Snapshot { w: 55, start_seg: 3, records });
        for cut in 0..bytes.len() {
            assert!(decode_snapshot(&bytes[..cut]).is_none(), "truncation at {cut}");
        }
        let mut flipped = bytes.clone();
        flipped[10] ^= 0x40;
        assert!(decode_snapshot(&flipped).is_none());
    }

    /// The bit-at-a-time CRC step the sliced one must equal.
    fn crc32_update_bitwise(mut state: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            state ^= b as u32;
            for _ in 0..8 {
                let mask = (state & 1).wrapping_neg();
                state = (state >> 1) ^ (CRC_POLY & mask);
            }
        }
        state
    }

    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_crc_equals_the_bitwise_oracle() {
        // Every length up to 256 at every start offset within a word,
        // from a non-trivial state, so each head/tail split is covered.
        let buf = seeded_bytes(3, 256 + 8);
        for start in 0..8 {
            for len in 0..=256 {
                let bytes = &buf[start..start + len];
                for state in [0xFFFF_FFFF, 0x1234_5678] {
                    assert_eq!(
                        crc32_update(state, bytes),
                        crc32_update_bitwise(state, bytes),
                        "start {start} len {len}"
                    );
                }
            }
        }
        for (seed, len) in [(5, 1000), (6, 4097), (7, 65_535), (8, 65_536)] {
            let bytes = seeded_bytes(seed, len);
            assert_eq!(crc32(&bytes), crc32_update_bitwise(0xFFFF_FFFF, &bytes) ^ 0xFFFF_FFFF);
        }
    }

    #[test]
    fn entry_crc_is_the_crc_of_the_concatenated_fields() {
        for (len, payload) in [(0usize, 0u64), (3, 1), (8, 2), (13, 3), (300, 4)] {
            let payload = seeded_bytes(payload, len);
            let (seq, wv) = (0x0102_0304_0506_0708u64, u64::MAX - 9);
            let mut all = (len as u32).to_le_bytes().to_vec();
            all.extend_from_slice(&seq.to_le_bytes());
            all.extend_from_slice(&wv.to_le_bytes());
            all.extend_from_slice(&payload);
            assert_eq!(entry_crc(len as u32, seq, wv, &payload), crc32(&all), "payload {len} B");
        }
    }

    /// Frames written by the bit-at-a-time encoder, byte for byte: an
    /// entry carrying a one-put redo payload, and a three-record
    /// snapshot. They must decode to what was encoded, and encoding it
    /// again must give the same bytes.
    #[test]
    fn golden_frames_decode_unchanged() {
        const ENTRY: [u8; 44] = [
            71, 79, 76, 80, 16, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 42, 0, 0, 0, 0, 0, 0, 0, 128, 97,
            224, 160, 1, 5, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 97, 98, 99,
        ];
        const PAYLOAD: &[u8] = b"\x01\x05\0\0\0\0\0\0\0\x03\0\0\0abc";
        let (entry, end) = decode_entry(&ENTRY, 0).expect("golden entry decodes");
        assert_eq!(entry, Entry { seq: 7, wv: 42, payload: PAYLOAD });
        assert_eq!(end, ENTRY.len());
        let mut again = Vec::new();
        encode_entry(&mut again, 7, 42, PAYLOAD);
        assert_eq!(again, ENTRY);

        const SNAP: [u8; 88] = [
            80, 78, 83, 80, 55, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 122, 101, 114, 111, 9, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 255, 255, 255, 255, 255, 255, 255, 255, 16, 0, 0, 0, 171, 171, 171, 171, 171,
            171, 171, 171, 171, 171, 171, 171, 171, 171, 171, 171, 127, 197, 113, 206,
        ];
        let records: Vec<(u64, &[u8])> = vec![(0, b"zero"), (9, b""), (u64::MAX, &[0xAB; 16])];
        let snap = decode_snapshot(&SNAP).expect("golden snapshot decodes");
        assert_eq!(snap, Snapshot { w: 55, start_seg: 3, records: records.clone() });
        assert_eq!(encode_snapshot(55, 3, &records), SNAP);
    }
}

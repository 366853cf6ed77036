//! The `GET` reply path: `ServerStore::get_into` copies a value out of
//! the store with no allocation, the default body still answers through
//! `get`, and a reply framed in place is byte-for-byte the frame
//! `encode_response_into` builds — over-cap values demoted to
//! `TooLarge` included.
//!
//! Allocations are counted per thread, by an allocator local to this
//! test binary, so tests running beside one another (and the server's
//! own threads) do not show up in each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use polytm::Stm;
use polytm_kv::{KvStore, Value};
use polytm_server::protocol::{
    decode_frame, encode_request, encode_response, op, FrameEvent, MAX_RESPONSE_FRAME,
};
use polytm_server::{
    BatchTag, Request, Response, Server, ServerConfig, ServerStore, StoreError, TxnOp, WriteReply,
    WriteRequest,
};

struct Counting;

thread_local! {
    /// Allocations this thread made while [`counted`] was running.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_alloc() {
    // `try_with`: the allocator may run while this thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|a| a.set(a.get().map(|n| n + 1)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the count is bookkeeping
// beside the call (a const-initialised thread local, which never
// allocates) and never influences what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's `layout`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(p, layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(p, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `f`'s result and the allocations this thread made while running it.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.with(|a| a.set(Some(0)));
    let r = f();
    (r, ALLOCS.with(|a| a.take()).expect("counting was on"))
}

/// A store that implements only what `ServerStore` requires, so `GET`s
/// through it take the trait's default `get_into`.
struct Plain(KvStore);

impl ServerStore for Plain {
    fn get(&self, key: u64) -> Option<Vec<u8>> {
        ServerStore::get(&self.0, key)
    }

    fn scan(&self, lo: u64, hi: u64, limit: usize) -> (Vec<(u64, Vec<u8>)>, bool) {
        ServerStore::scan(&self.0, lo, hi, limit)
    }

    fn cas(&self, key: u64, expected: Option<&[u8]>, new: &[u8]) -> Result<bool, StoreError> {
        ServerStore::cas(&self.0, key, expected, new)
    }

    fn commit_writes(
        &self,
        batch: &[WriteRequest],
        tag: BatchTag,
    ) -> Result<Vec<WriteReply>, StoreError> {
        ServerStore::commit_writes(&self.0, batch, tag)
    }

    fn txn(&self, ops: &[TxnOp]) -> Result<Vec<Option<Vec<u8>>>, StoreError> {
        ServerStore::txn(&self.0, ops)
    }
}

fn store_with_record() -> KvStore {
    let store = KvStore::new(Arc::new(Stm::new()));
    store.put(7, Value::from_bytes(&[0xAB; 64]));
    store
}

#[test]
fn get_into_with_room_allocates_nothing_and_get_allocates_once() {
    let store = store_with_record();
    let mut out = Vec::with_capacity(256);
    // The first read on a thread registers it with the epoch collector.
    assert!(ServerStore::get_into(&store, 7, &mut out));
    out.clear();

    let (found, allocs) = counted(|| ServerStore::get_into(&store, 7, &mut out));
    assert!(found);
    assert_eq!(out, [0xAB; 64]);
    assert_eq!(allocs, 0, "get_into copies straight into the buffer");
    let (absent, allocs) = counted(|| ServerStore::get_into(&store, 8, &mut out));
    assert!(!absent);
    assert_eq!((out.len(), allocs), (64, 0), "an absent key appends nothing");

    let (value, allocs) = counted(|| ServerStore::get(&store, 7));
    assert_eq!(value.as_deref(), Some(&[0xAB; 64][..]));
    assert_eq!(allocs, 1, "get returns the value in a Vec of its own");

    // The trait's default body answers the same through `get`.
    let plain = Plain(store);
    out.clear();
    let (found, allocs) = counted(|| plain.get_into(7, &mut out));
    assert!(found);
    assert_eq!(out, [0xAB; 64]);
    assert_eq!(allocs, 1, "the default get_into pays get's Vec");
    assert!(!plain.get_into(8, &mut out));
    assert_eq!(out.len(), 64);
}

/// Reads whole frames off a blocking socket.
fn read_frames(stream: &mut TcpStream, count: usize) -> Vec<Vec<u8>> {
    let mut buf = Vec::new();
    let mut frames = Vec::new();
    let mut chunk = vec![0u8; 64 << 10];
    while frames.len() < count {
        match decode_frame(&buf) {
            FrameEvent::Frame { consumed, .. } => {
                frames.push(buf.drain(..consumed).collect());
            }
            FrameEvent::Incomplete { .. } => {
                let n = stream.read(&mut chunk).expect("read");
                assert!(n > 0, "server hung up");
                buf.extend_from_slice(&chunk[..n]);
            }
            FrameEvent::Corrupt(c) => panic!("corrupt reply stream: {c:?}"),
        }
    }
    frames
}

#[test]
fn get_replies_framed_in_place_match_the_response_encoder_over_loopback() {
    let store = store_with_record();
    let big = vec![0x5A; MAX_RESPONSE_FRAME];
    store.put(9, Value::from_bytes(&big)); // directly: no request could carry it
    let served = Arc::new(store);
    for crc in [false, true] {
        let handle = Server::spawn(
            Arc::clone(&served) as Arc<dyn ServerStore>,
            "127.0.0.1:0",
            ServerConfig { workers: 1, crc, ..ServerConfig::default() },
        )
        .unwrap();
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        // One window: a present key, an absent one, the over-cap one,
        // and a present key again behind it.
        let keys = [7u64, 8, 9, 7];
        let mut wire = Vec::new();
        for (seq, &key) in keys.iter().enumerate() {
            wire.extend(encode_request(&Request::Get { key }, seq as u32, crc));
        }
        stream.write_all(&wire).unwrap();
        let frames = read_frames(&mut stream, keys.len());
        for (seq, (&key, frame)) in keys.iter().zip(&frames).enumerate() {
            let value = served.get(key).map(|v| v.as_bytes().to_vec());
            let want = encode_response(&Response::Value(value), op::GET, seq as u32, crc);
            assert_eq!(frame, &want, "key {key}, crc {crc}");
        }
        let too_large = &frames[2];
        assert!(too_large.len() < 32, "the over-cap value is demoted to a TooLarge error");
        handle.shutdown();
    }
}

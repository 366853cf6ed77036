//! Trace-ring overflow coverage: a fast writer against a slow (or
//! absent) drain never blocks, sheds with an exact drop count, and the
//! drained events are never torn.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use polytm::trace::{code, TraceSink};
use polytm::TraceEvent;
use polytm_obs::{EventRing, RingTracer};

/// An event whose payload fields are all derived from one sequence
/// number, so a torn (half-old half-new) slot read is detectable.
fn sealed(seq: u64) -> TraceEvent {
    TraceEvent {
        ts_ns: seq,
        code: code::TXN_COMMIT,
        sub: (seq % 251) as u8,
        class: (seq % 65_521) as u16,
        n: (seq % 4_294_967_291) as u32,
        a: seq.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        b: !seq,
    }
}

/// True when `ev`'s fields are mutually consistent with its `ts_ns`.
fn is_sealed(ev: &TraceEvent) -> bool {
    *ev == sealed(ev.ts_ns)
}

#[test]
fn exact_drop_count_with_no_reader() {
    let ring = EventRing::new(64);
    let cap = ring.capacity() as u64;
    let total = 10_000u64;
    for seq in 0..total {
        ring.push(sealed(seq));
    }
    assert_eq!(ring.dropped(), total - cap, "everything past capacity sheds, exactly counted");
    let mut out = Vec::new();
    ring.drain_into(&mut out);
    assert_eq!(out.len(), cap as usize);
    // Drop-newest: the survivors are exactly the first `cap` events.
    assert!(out.iter().enumerate().all(|(i, e)| e.ts_ns == i as u64));
}

#[test]
fn fast_writer_slow_reader_never_blocks_and_never_tears() {
    let ring = Arc::new(EventRing::new(256));
    let cap = ring.capacity() as u64;
    let lapped = 4 * cap;
    let total = lapped + 100_000;
    let reader_released = Arc::new(Barrier::new(2));
    let writer_done = Arc::new(AtomicBool::new(false));
    let writer = {
        let (ring, reader_released, writer_done) =
            (Arc::clone(&ring), Arc::clone(&reader_released), Arc::clone(&writer_done));
        std::thread::spawn(move || {
            for seq in 0..lapped {
                ring.push(sealed(seq));
            }
            reader_released.wait();
            reader_released.wait(); // the reader has checked the count
            for seq in lapped..total {
                ring.push(sealed(seq));
            }
            writer_done.store(true, Ordering::Release);
        })
    };
    // "Never blocks", causally: the reader is parked here having drained
    // nothing, and the barrier only opens once the writer has completed
    // four rings' worth of pushes — a push that waited for room would
    // never get there.
    reader_released.wait();
    assert_eq!(ring.dropped(), lapped - cap, "everything past capacity shed, exactly counted");
    reader_released.wait();

    // Now drain against the still-running writer.
    let mut drained: Vec<TraceEvent> = Vec::new();
    while !writer_done.load(Ordering::Acquire) {
        ring.drain_into(&mut drained);
    }
    writer.join().expect("writer panicked");
    ring.drain_into(&mut drained);

    assert!(drained.iter().all(is_sealed), "no drained event is torn");
    // FIFO per ring: sequence numbers strictly increase.
    assert!(drained.windows(2).all(|w| w[0].ts_ns < w[1].ts_ns));
    // Conservation: every pushed event is either drained or counted dropped.
    assert_eq!(drained.len() as u64 + ring.dropped(), total);
}

#[test]
fn tracer_drain_reports_exact_per_ring_drops() {
    let tracer = Arc::new(RingTracer::new(32));
    let threads: Vec<_> = (0..2)
        .map(|_| {
            let tracer = Arc::clone(&tracer);
            std::thread::spawn(move || {
                for seq in 0..1000u64 {
                    tracer.record(sealed(seq));
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("emitter panicked");
    }
    let dump = tracer.drain();
    assert_eq!(dump.rings.len(), 2);
    for ring in &dump.rings {
        // RingTracer stamps ts_ns, so sealedness is not preserved — but
        // count conservation is: capacity survived, the rest counted.
        assert_eq!(ring.events.len() as u64 + ring.dropped, 1000);
        assert_eq!(ring.dropped, 1000 - dump.capacity as u64);
    }
}

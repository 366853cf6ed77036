//! [`RingTracer`]: the [`TraceSink`] implementation — one
//! [`EventRing`] per emitting thread, found through a thread-local so
//! the hot path never takes a lock.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use polytm::trace::{self, TraceSink};
use polytm::TraceEvent;

use crate::dump::{RingDump, TraceDump};
use crate::ring::EventRing;

/// Process-unique tracer ids, so a thread-local ring cached for one
/// tracer is never written on behalf of another.
static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's ring per tracer it has emitted into. Almost always
    /// one entry, so the per-event lookup is a scan of a length-1 vec.
    static THREAD_RINGS: RefCell<Vec<(u64, Arc<EventRing>)>> = const { RefCell::new(Vec::new()) };

    /// Hot-path cache: the last `(tracer id, ring)` this thread used.
    /// A raw pointer so the fast path is one TLS load, one compare and
    /// one deref — no `RefCell` flag, no vec scan, no `Arc` traffic.
    /// The pointee outlives every use: the tracer's own registry holds
    /// an `Arc` to the ring for the tracer's whole lifetime, `record`
    /// requires the tracer alive (`&self`), and this cell has no
    /// destructor so it cannot observe teardown ordering.
    static FAST_RING: Cell<(u64, *const EventRing)> = const { Cell::new((0, std::ptr::null())) };
}

/// A [`TraceSink`] that fans events into per-thread [`EventRing`]s.
///
/// Each emitting thread lazily registers one ring (a `Mutex` push, once
/// per thread per tracer) and thereafter reaches it through a
/// thread-local: the per-event cost is a timestamp read and the ring's
/// single-producer push. Draining ([`RingTracer::drain`]) is serialized
/// behind one lock and never blocks producers — a producer that laps a
/// slow drain sheds events into its ring's exact drop counter instead.
///
/// ## Timestamp cost
///
/// On x86_64 the hot path stamps events with the raw TSC (`rdtsc`, a
/// few ns) instead of a `clock_gettime` call (~20 ns — comparable to
/// the rest of the emit put together); [`RingTracer::drain`]
/// calibrates ticks against the tracer's monotonic epoch and rewrites
/// every drained stamp to nanoseconds, so consumers only ever see
/// `ts_ns` in nanoseconds since the epoch. Other architectures stamp
/// nanoseconds directly.
pub struct RingTracer {
    id: u64,
    capacity: usize,
    epoch: Instant,
    /// Raw clock value at `epoch` (TSC ticks on x86_64, 0 elsewhere).
    raw_epoch: u64,
    rings: Mutex<Vec<Arc<EventRing>>>,
    drain_lock: Mutex<()>,
}

/// Raw hot-path clock read: TSC ticks on x86_64, nanoseconds since
/// `epoch` elsewhere.
#[inline]
fn raw_now(epoch: Instant) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        let _ = epoch;
        // SAFETY: `rdtsc` has no preconditions; it is unprivileged on
        // every x86_64 environment this workspace targets.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        epoch.elapsed().as_nanos() as u64
    }
}

impl RingTracer {
    /// A tracer whose per-thread rings hold `capacity_per_thread`
    /// events each (rounded up to a power of two).
    pub fn new(capacity_per_thread: usize) -> Self {
        let epoch = Instant::now();
        Self {
            id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
            capacity: capacity_per_thread,
            epoch,
            raw_epoch: raw_now(epoch),
            rings: Mutex::new(Vec::new()),
            drain_lock: Mutex::new(()),
        }
    }

    /// Nanoseconds per raw-clock tick right now, measured against the
    /// epoch (1.0 where the raw clock already counts nanoseconds).
    fn ns_per_tick(&self) -> f64 {
        if cfg!(target_arch = "x86_64") {
            let elapsed_ns = self.epoch.elapsed().as_nanos() as f64;
            let elapsed_ticks = raw_now(self.epoch).saturating_sub(self.raw_epoch) as f64;
            if elapsed_ticks > 0.0 {
                elapsed_ns / elapsed_ticks
            } else {
                1.0
            }
        } else {
            1.0
        }
    }

    /// Build a tracer, leak it, and install it as the process-wide
    /// sink. Returns `None` (and still leaks one tracer) if a sink is
    /// already installed — the trace plane is install-once by design.
    pub fn install(capacity_per_thread: usize) -> Option<&'static RingTracer> {
        let tracer: &'static RingTracer = Box::leak(Box::new(Self::new(capacity_per_thread)));
        trace::install(tracer).then_some(tracer)
    }

    /// The tracer's monotonic epoch — event `ts_ns` values count from
    /// this instant.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Run `f` on this thread's ring for this tracer, registering one
    /// on first use. Working under the thread-local borrow (instead of
    /// handing out a clone) keeps `Arc` reference traffic off the
    /// per-event path.
    #[inline]
    fn with_my_ring(&self, f: impl FnOnce(&EventRing)) {
        let _ = THREAD_RINGS.try_with(|cell| {
            let mut rings = cell.borrow_mut();
            let ring = match rings.iter().find(|(id, _)| *id == self.id) {
                Some((_, ring)) => ring,
                None => {
                    let ring = Arc::new(EventRing::new(self.capacity));
                    self.rings.lock().expect("tracer registry poisoned").push(Arc::clone(&ring));
                    rings.push((self.id, ring));
                    &rings.last().expect("just pushed").1
                }
            };
            let _ = FAST_RING.try_with(|c| c.set((self.id, Arc::as_ptr(ring))));
            f(ring);
        });
    }

    /// Drain every thread's ring into one dump, rewriting raw hot-path
    /// stamps to nanoseconds since the epoch. Producers keep running;
    /// anything they emit after their ring is visited lands in the next
    /// drain. Ring indices are registration order (stable across
    /// drains); `dropped` counts are cumulative per ring.
    pub fn drain(&self) -> TraceDump {
        let _consumer = self.drain_lock.lock().expect("drain lock poisoned");
        let ns_per_tick = self.ns_per_tick();
        let rings = self.rings.lock().expect("tracer registry poisoned").clone();
        let mut dumps = Vec::with_capacity(rings.len());
        for (i, ring) in rings.iter().enumerate() {
            let mut events = Vec::new();
            ring.drain_into(&mut events);
            for ev in &mut events {
                let ticks = ev.ts_ns.saturating_sub(self.raw_epoch);
                ev.ts_ns = (ticks as f64 * ns_per_tick) as u64;
            }
            dumps.push(RingDump { ring: i as u32, dropped: ring.dropped(), events });
        }
        TraceDump { capacity: rings.first().map_or(self.capacity, |r| r.capacity()), rings: dumps }
    }

    /// Total events shed across all rings so far.
    pub fn dropped_total(&self) -> u64 {
        self.rings.lock().expect("tracer registry poisoned").iter().map(|r| r.dropped()).sum()
    }

    /// Number of per-thread rings registered so far.
    pub fn ring_count(&self) -> usize {
        self.rings.lock().expect("tracer registry poisoned").len()
    }
}

impl TraceSink for RingTracer {
    #[inline]
    fn record(&self, mut ev: TraceEvent) {
        // Raw stamp (TSC ticks on x86_64); drain() rewrites it to
        // nanoseconds since the epoch before anything observes it.
        ev.ts_ns = raw_now(self.epoch);
        // Fast path: the cached `(id, ring)` pair from the last emit.
        let hit = FAST_RING.try_with(|c| {
            let (id, ptr) = c.get();
            if id == self.id {
                // SAFETY: the pointer was cached under this tracer's id,
                // the registry keeps the ring alive for the tracer's
                // lifetime, and `&self` proves the tracer is alive (see
                // FAST_RING's docs). Exercised under ASan by
                // `tracer::tests::stamps_and_collects_per_thread`.
                unsafe { (*ptr).push(ev) };
                true
            } else {
                false
            }
        });
        if matches!(hit, Ok(true)) {
            return;
        }
        // Slow path: first emit from this thread (or a different
        // tracer) — register/look up the ring and re-prime the cache.
        // A thread torn down past its TLS destructors silently sheds —
        // there is no ring left to count into, and panicking in that
        // window would abort the process.
        self.with_my_ring(|ring| {
            ring.push(ev);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polytm::trace::code;

    fn ev(n: u32) -> TraceEvent {
        TraceEvent::new(code::TXN_COMMIT, 0, 7, n, 0, 0)
    }

    #[test]
    fn stamps_and_collects_per_thread() {
        let tracer = Arc::new(RingTracer::new(1 << 10));
        let threads: Vec<_> = (0..3)
            .map(|t| {
                let tracer = Arc::clone(&tracer);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        tracer.record(ev(t * 1000 + i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("emitter panicked");
        }
        let dump = tracer.drain();
        assert_eq!(dump.rings.len(), 3, "one ring per emitting thread");
        let total: usize = dump.rings.iter().map(|r| r.events.len()).sum();
        assert_eq!(total, 300);
        for ring in &dump.rings {
            assert_eq!(ring.dropped, 0);
            assert!(
                ring.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
                "per-ring timestamps are monotone"
            );
            // Per-thread FIFO: the payloads a thread emitted stay in order.
            assert!(ring.events.windows(2).all(|w| w[0].n < w[1].n));
        }
        assert!(tracer.drain().rings.iter().all(|r| r.events.is_empty()), "drain consumes");
    }

    #[test]
    fn two_tracers_keep_rings_apart() {
        let a = RingTracer::new(64);
        let b = RingTracer::new(64);
        a.record(ev(1));
        b.record(ev(2));
        b.record(ev(3));
        assert_eq!(a.drain().rings.iter().map(|r| r.events.len()).sum::<usize>(), 1);
        assert_eq!(b.drain().rings.iter().map(|r| r.events.len()).sum::<usize>(), 2);
    }
}

//! The slow-request flight recorder: a bounded, process-global ring of
//! the worst request spans the server has seen.
//!
//! The trace plane ([`crate::RingTracer`]) records *everything* and
//! sheds under pressure; the flight recorder is its complement — it
//! records *almost nothing* (only coalesced commits whose wall time
//! crossed a threshold) and therefore survives arbitrarily long runs in
//! a few kilobytes. When an operator asks "what did the slowest
//! requests of the last hour look like?", the answer is here even if
//! the event rings wrapped long ago.
//!
//! ## Cost model
//!
//! Until a request is slow, the server pays one `OnceLock` load per
//! coalesced commit to discover whether a recorder is installed, and
//! two `Instant` reads to measure the commit — no allocation, no lock.
//! Only a span that crosses [`FlightRecorder::threshold_ns`] takes the
//! ring mutex, and by construction such requests are already tens of
//! microseconds deep, so the lock is never on a fast path.
//!
//! Install-once by design, like the trace sink: the embedding process
//! calls [`install`] at startup; libraries only ever call [`get`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::registry::MetricsSource;

/// One retained slow span: a coalesced commit (and the requests it
/// carried) that exceeded the recorder's threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlowSpan {
    /// Connection the batch belonged to.
    pub conn: u64,
    /// First wire sequence number in the batch.
    pub first_seq: u32,
    /// Last wire sequence number in the batch.
    pub last_seq: u32,
    /// Write requests the batch carried.
    pub ops: u32,
    /// Wall time from the start of the read sweep that admitted the
    /// batch to the batch's replies being encoded.
    pub total_ns: u64,
    /// The store-commit portion of `total_ns` (STM attempts + WAL
    /// durability wait).
    pub commit_ns: u64,
}

/// The bounded ring of retained [`SlowSpan`]s plus its health counters.
pub struct FlightRecorder {
    threshold_ns: u64,
    capacity: usize,
    ring: Mutex<VecDeque<SlowSpan>>,
    /// Spans ever recorded (retained + evicted).
    recorded: AtomicU64,
    /// Spans pushed out by newer ones once the ring was full.
    evicted: AtomicU64,
}

static FLIGHT: OnceLock<FlightRecorder> = OnceLock::new();

/// Install the process-wide recorder: spans at or over `threshold_ns`
/// are retained, the newest `capacity` of them. Returns the winning
/// recorder — on a second call the *first* installation stays in force
/// (install-once, like the trace sink) and the new parameters are
/// discarded.
pub fn install(threshold_ns: u64, capacity: usize) -> &'static FlightRecorder {
    FLIGHT.get_or_init(|| FlightRecorder {
        threshold_ns,
        capacity: capacity.max(1),
        ring: Mutex::new(VecDeque::new()),
        recorded: AtomicU64::new(0),
        evicted: AtomicU64::new(0),
    })
}

/// The installed recorder, if any. One atomic load — cheap enough to
/// call per coalesced commit.
#[inline]
pub fn get() -> Option<&'static FlightRecorder> {
    FLIGHT.get()
}

impl FlightRecorder {
    /// Spans strictly faster than this are not retained.
    #[inline]
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns
    }

    /// Retain `span`, evicting the oldest retained span if the ring is
    /// full. Callers are expected to have checked the threshold first
    /// (that keeps the mutex off the fast path), but the recorder
    /// enforces it anyway so counters never lie.
    pub fn record(&self, span: SlowSpan) {
        if span.total_ns < self.threshold_ns {
            return;
        }
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock().expect("flight ring poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(span);
    }

    /// The retained spans, oldest first, leaving the ring intact (a
    /// dump, not a drain — operators may ask repeatedly).
    pub fn snapshot(&self) -> Vec<SlowSpan> {
        self.ring.lock().expect("flight ring poisoned").iter().copied().collect()
    }

    /// Spans ever recorded (retained plus later evicted).
    pub fn recorded_total(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }
}

/// Flight-recorder health in the metrics plane (conventionally under
/// the `flight` prefix): the threshold in force, how many slow spans
/// were ever seen, how many are still retained, and the worst retained
/// total latency.
impl MetricsSource for FlightRecorder {
    fn collect(&self, out: &mut Vec<(String, f64)>) {
        let ring = self.ring.lock().expect("flight ring poisoned");
        let worst = ring.iter().map(|s| s.total_ns).max().unwrap_or(0);
        out.push(("threshold_ns".to_string(), self.threshold_ns as f64));
        out.push(("recorded".to_string(), self.recorded.load(Ordering::Relaxed) as f64));
        out.push(("evicted".to_string(), self.evicted.load(Ordering::Relaxed) as f64));
        out.push(("retained".to_string(), ring.len() as f64));
        out.push(("worst_total_ns".to_string(), worst as f64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(conn: u64, total_ns: u64) -> SlowSpan {
        SlowSpan { conn, first_seq: 1, last_seq: 1, ops: 1, total_ns, commit_ns: total_ns / 2 }
    }

    #[test]
    fn ring_bounds_and_counts() {
        // A private recorder (not the global): the OnceLock global is
        // install-once per process, which tests cannot share.
        let fr = FlightRecorder {
            threshold_ns: 100,
            capacity: 2,
            ring: Mutex::new(VecDeque::new()),
            recorded: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        };
        fr.record(span(1, 50)); // under threshold: ignored
        fr.record(span(2, 150));
        fr.record(span(3, 200));
        fr.record(span(4, 300)); // evicts conn 2
        assert_eq!(fr.recorded_total(), 3);
        let spans = fr.snapshot();
        assert_eq!(spans.iter().map(|s| s.conn).collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(fr.snapshot().len(), 2, "snapshot leaves the ring intact");

        let mut out = Vec::new();
        fr.collect(&mut out);
        let get = |k: &str| out.iter().find(|(key, _)| key == k).map(|(_, v)| *v);
        assert_eq!(get("recorded"), Some(3.0));
        assert_eq!(get("evicted"), Some(1.0));
        assert_eq!(get("retained"), Some(2.0));
        assert_eq!(get("worst_total_ns"), Some(300.0));
    }

    #[test]
    fn global_install_is_once() {
        let a = install(1_000, 8);
        let b = install(999_999, 1);
        assert!(std::ptr::eq(a, b), "second install yields the first recorder");
        assert_eq!(b.threshold_ns(), 1_000);
        assert!(get().is_some());
    }
}

//! The measurement driver: N threads hammer one [`ConcurrentSet`] (or
//! [`RangeSet`]) for a fixed duration and report throughput plus
//! per-operation latency quantiles.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::hist::LatencyHistogram;
use crate::keys::{KeyDist, KeyStream};
use crate::mix::{MixSchedule, OpKind, OpMix};
use crate::rng::SplitMix64;

/// Anything that behaves like a concurrent set of `u64` keys. All the
/// implementations under test (transactional, and the coarse-lock
/// control) adapt to this in the bench crate.
pub trait ConcurrentSet: Sync {
    /// Membership test.
    fn contains(&self, key: u64) -> bool;
    /// Insert; false if present.
    fn insert(&self, key: u64) -> bool;
    /// Remove; false if absent.
    fn remove(&self, key: u64) -> bool;
    /// Phase notification: the driver calls this from a worker thread
    /// whenever that thread's (phased) schedule crosses a phase
    /// boundary, before the first operation of the new phase. Adaptive
    /// backends use it to tag the thread's subsequent operations with a
    /// phase-specific transaction class, so mid-run phase changes
    /// surface as reclassifiable classes. The default ignores it.
    fn note_phase(&self, _phase: usize) {}
}

/// Extension for backends that can observe a whole key range in one
/// operation — the snapshot/range-scan scenarios drive this. On the
/// transactional side it is backed by `Stm::snapshot`; the coarse-lock
/// control scans under its one lock, which makes the scan atomic but
/// serial.
pub trait RangeSet: ConcurrentSet {
    /// Number of keys in `[lo, hi)`, observed as one scan.
    fn range_count(&self, lo: u64, hi: u64) -> usize;
}

/// What to run.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Worker thread count.
    pub threads: usize,
    /// Key space (keys drawn from `[0, key_space)`).
    pub key_space: u64,
    /// Pre-fill the set with every even key (≈ 50% occupancy, the
    /// standard steady-state initial condition) when true.
    pub prefill: bool,
    /// Operation mix, possibly phased over time.
    pub mix: MixSchedule,
    /// Key distribution.
    pub dist: KeyDist,
    /// Width of each range scan: a scan drawn at key `k` covers
    /// `[k, min(k + scan_span, key_space))`. Ignored by scan-free mixes.
    pub scan_span: u64,
    /// Measured duration (after warmup).
    pub duration: Duration,
    /// Warmup duration (not measured).
    pub warmup: Duration,
    /// Record per-operation latency into per-thread histograms (merged
    /// into [`Measurement::latency`] at join). Adds two `Instant` reads
    /// per operation; leave off for pure-throughput runs.
    pub record_latency: bool,
    /// Base seed for the deterministic per-thread streams.
    pub seed: u64,
}

impl WorkloadSpec {
    /// The conventional scan width for `key_space`: 1/32nd of the
    /// space, at least one key. The single source of the default-span
    /// policy for every spec builder.
    pub fn default_scan_span(key_space: u64) -> u64 {
        (key_space / 32).max(1)
    }

    /// A conventional spec: `threads` workers over `key_space` keys at
    /// `update_percent`% updates, uniform keys, 200 ms measure + 50 ms
    /// warmup, no latency recording.
    pub fn quick(threads: usize, key_space: u64, update_percent: u32) -> Self {
        Self {
            threads,
            key_space,
            prefill: true,
            mix: OpMix::updates(update_percent).into(),
            dist: KeyDist::Uniform,
            scan_span: Self::default_scan_span(key_space),
            duration: Duration::from_millis(200),
            warmup: Duration::from_millis(50),
            record_latency: false,
            seed: 0xC0FF_EE11,
        }
    }
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Completed operations during the measured window.
    pub ops: u64,
    /// Measured wall time of the window (not the requested duration:
    /// sleep overshoot is real time the workers kept running, so
    /// throughput divides by this).
    pub elapsed: Duration,
    /// Operations per second over the measured window.
    pub throughput: f64,
    /// Merged per-operation latency histogram; empty unless
    /// [`WorkloadSpec::record_latency`] was set.
    pub latency: LatencyHistogram,
}

/// Adapter that lets scan-free workloads run against a plain
/// [`ConcurrentSet`]: `run_workload` asserts the mix never draws a scan,
/// so `range_count` is unreachable.
struct NoScan<'a, S: ?Sized>(&'a S);

impl<S: ConcurrentSet + ?Sized> ConcurrentSet for NoScan<'_, S> {
    fn contains(&self, key: u64) -> bool {
        self.0.contains(key)
    }
    fn insert(&self, key: u64) -> bool {
        self.0.insert(key)
    }
    fn remove(&self, key: u64) -> bool {
        self.0.remove(key)
    }
    fn note_phase(&self, phase: usize) {
        self.0.note_phase(phase);
    }
}

impl<S: ConcurrentSet + ?Sized> RangeSet for NoScan<'_, S> {
    fn range_count(&self, _lo: u64, _hi: u64) -> usize {
        unreachable!("run_workload rejects mixes with range scans")
    }
}

/// Run a scan-free `spec` against `set`. Deterministic op/key streams per
/// thread; wall-clock-bounded. The caller is responsible for resetting
/// any statistics before the call if it wants per-run counters — or use
/// [`run_workload_with`] to reset them exactly at window start.
///
/// # Panics
/// Panics when `spec.mix` can draw range scans — those need a
/// [`RangeSet`] backend via [`run_scenario`].
pub fn run_workload<S: ConcurrentSet + ?Sized>(set: &S, spec: &WorkloadSpec) -> Measurement {
    run_workload_with(set, spec, || {})
}

/// As [`run_workload`], invoking `on_measure_start` at the moment the
/// measured window opens (after warmup). External counters reset in the
/// callback — e.g. `Stm::reset_stats` — then describe the same interval
/// as the returned throughput and latency figures, up to the instant it
/// takes workers to observe the stop flag.
pub fn run_workload_with<S: ConcurrentSet + ?Sized>(
    set: &S,
    spec: &WorkloadSpec,
    on_measure_start: impl Fn() + Sync,
) -> Measurement {
    assert!(
        !spec.mix.has_scans(),
        "mix draws range scans; use run_scenario with a RangeSet backend"
    );
    run_scenario_with(&NoScan(set), spec, on_measure_start)
}

/// Run `spec` — any mix, including phased schedules and range scans —
/// against a [`RangeSet`] backend.
pub fn run_scenario<S: RangeSet + ?Sized>(set: &S, spec: &WorkloadSpec) -> Measurement {
    run_scenario_with(set, spec, || {})
}

/// As [`run_scenario`] with the window-start callback of
/// [`run_workload_with`].
pub fn run_scenario_with<S: RangeSet + ?Sized>(
    set: &S,
    spec: &WorkloadSpec,
    on_measure_start: impl Fn() + Sync,
) -> Measurement {
    if spec.prefill {
        for k in (0..spec.key_space).step_by(2) {
            set.insert(k);
        }
    }
    let (measurement, ()) = run_timed(
        spec.threads,
        spec.warmup,
        spec.duration,
        spec.record_latency,
        on_measure_start,
        |t| {
            let mut keys = KeyStream::new(spec.dist, spec.key_space, spec.seed).for_thread(t);
            let mut ops_rng = SplitMix64::for_thread(spec.seed ^ 0xDEAD_BEEF, t);
            // O(1) per draw; phase position advances with this
            // thread's own op count, deterministically.
            let mut mix = spec.mix.cursor();
            let mut cur_phase = 0usize;
            move |timed: bool| {
                let key = keys.next_key();
                // Phase of the op about to be drawn; notify the
                // backend on boundaries (constant schedules never
                // leave phase 0, so this is one predictable compare).
                let phase = mix.phase();
                if phase != cur_phase {
                    cur_phase = phase;
                    set.note_phase(phase);
                }
                let op = mix.next_op(&mut ops_rng);
                // Latency covers the set operation only, not the
                // deterministic key/op draws above (the boundary every
                // recorded trajectory row was measured with).
                let t0 = timed.then(Instant::now);
                match op {
                    OpKind::Contains => {
                        std::hint::black_box(set.contains(key));
                    }
                    OpKind::Insert => {
                        std::hint::black_box(set.insert(key));
                    }
                    OpKind::Remove => {
                        std::hint::black_box(set.remove(key));
                    }
                    OpKind::RangeScan => {
                        let hi = key.saturating_add(spec.scan_span).min(spec.key_space);
                        std::hint::black_box(set.range_count(key, hi));
                    }
                }
                ((), t0.map(elapsed_ns))
            }
        },
        |(), ()| {},
    );
    measurement
}

/// Saturating nanoseconds since `t0` (the histogram sample form).
pub(crate) fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// The timed-measurement core shared by the set driver above and the
/// record-store driver in [`crate::kv`]: `threads` workers each run a
/// per-thread step closure (built by `make_step`, which owns the
/// thread's deterministic streams) until the stop flag — and until it
/// has completed at least one step inside the measured window, so a
/// worker the scheduler starved through a short window still reports.
/// Each step is told whether to time itself (`true` only inside the
/// measured window with latency recording on — the step picks its own
/// timing boundary around the measured operation and returns the
/// sample). Operations
/// are counted — and each step's tally of type `T` folded — only
/// inside the measured window (warmup work is discarded by resetting
/// on window entry); latency samples go into per-thread histograms
/// merged at join. The window-discipline subtleties live here, once:
/// the window flag is sampled *before* the step so an op straddling
/// the window open is attributed consistently with its latency sample,
/// and `on_measure_start` fires after the flag flips but before the
/// window clock starts.
pub(crate) fn run_timed<T, S>(
    threads: usize,
    warmup: Duration,
    duration: Duration,
    record_latency: bool,
    on_measure_start: impl Fn() + Sync,
    make_step: impl Fn(usize) -> S + Sync,
    fold: impl Fn(&mut T, T) + Sync,
) -> (Measurement, T)
where
    // Generic (not boxed) step: the per-op call monomorphizes and
    // inlines, so the measured hot loop is the same machine code shape
    // as the pre-extraction drivers — trajectory rows stay comparable.
    S: FnMut(bool) -> (T, Option<u64>),
    T: Default + Send,
{
    let stop = AtomicBool::new(false);
    let measuring = AtomicBool::new(false);
    let total_ops = AtomicU64::new(0);
    let merged_hist = Mutex::new(LatencyHistogram::new());
    let merged_tally = Mutex::new(T::default());

    let elapsed = std::thread::scope(|s| {
        for t in 0..threads {
            let stop = &stop;
            let measuring = &measuring;
            let total_ops = &total_ops;
            let merged_hist = &merged_hist;
            let merged_tally = &merged_tally;
            let make_step = &make_step;
            let fold = &fold;
            s.spawn(move || {
                let mut step = make_step(t);
                let mut hist = LatencyHistogram::new();
                let mut local_ops = 0u64;
                let mut tally = T::default();
                let mut counted = false;
                // `counted` first: a worker starved through a short
                // window still completes one in-window step before it
                // honours stop (the window flag is always set before
                // the stop flag), so every role reports progress.
                while !(counted && stop.load(Ordering::Relaxed)) {
                    let in_window = measuring.load(Ordering::Relaxed);
                    let (delta, sample_ns) = step(in_window && record_latency);
                    if let Some(ns) = sample_ns {
                        hist.record(ns);
                    }
                    if in_window {
                        if !counted {
                            // Entering the measured window: reset.
                            counted = true;
                            local_ops = 0;
                            tally = T::default();
                        }
                        local_ops += 1;
                        fold(&mut tally, delta);
                    }
                }
                total_ops.fetch_add(local_ops, Ordering::Relaxed);
                fold(&mut merged_tally.lock().expect("tally mutex poisoned"), tally);
                if hist.count() > 0 {
                    merged_hist.lock().expect("histogram mutex poisoned").merge(&hist);
                }
            });
        }
        // Warmup, then measure. The measured window is what actually
        // elapsed between flipping `measuring` on and `stop` — sleep is
        // allowed to overshoot, and the workers kept counting throughout.
        std::thread::sleep(warmup);
        measuring.store(true, Ordering::Relaxed);
        on_measure_start();
        let start = Instant::now();
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        start.elapsed()
        // Threads join at scope end; ops counted only inside the window.
    });

    let ops = total_ops.load(Ordering::Relaxed);
    let latency = merged_hist.into_inner().expect("histogram mutex poisoned");
    let tally = merged_tally.into_inner().expect("tally mutex poisoned");
    (Measurement { ops, elapsed, throughput: ops as f64 / elapsed.as_secs_f64(), latency }, tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Mutex;

    /// Reference implementation for driver tests.
    struct MutexSet(Mutex<BTreeSet<u64>>);

    impl MutexSet {
        fn new() -> Self {
            Self(Mutex::new(BTreeSet::new()))
        }
    }

    impl ConcurrentSet for MutexSet {
        fn contains(&self, key: u64) -> bool {
            self.0.lock().unwrap().contains(&key)
        }
        fn insert(&self, key: u64) -> bool {
            self.0.lock().unwrap().insert(key)
        }
        fn remove(&self, key: u64) -> bool {
            self.0.lock().unwrap().remove(&key)
        }
    }

    impl RangeSet for MutexSet {
        fn range_count(&self, lo: u64, hi: u64) -> usize {
            self.0.lock().unwrap().range(lo..hi).count()
        }
    }

    fn tiny_spec(threads: usize) -> WorkloadSpec {
        WorkloadSpec {
            threads,
            key_space: 64,
            prefill: true,
            mix: OpMix::updates(20).into(),
            dist: KeyDist::Uniform,
            scan_span: 8,
            duration: Duration::from_millis(30),
            warmup: Duration::from_millis(5),
            record_latency: false,
            seed: 1,
        }
    }

    #[test]
    fn driver_measures_nonzero_throughput() {
        let set = MutexSet::new();
        let m = run_workload(&set, &tiny_spec(2));
        assert!(m.ops > 0);
        assert!(m.throughput > 0.0);
    }

    #[test]
    fn throughput_divides_by_measured_window() {
        let set = MutexSet::new();
        let spec = tiny_spec(1);
        let m = run_workload(&set, &spec);
        // The measured window can only overshoot the requested sleep.
        assert!(m.elapsed >= spec.duration, "elapsed {:?}", m.elapsed);
        let recomputed = m.ops as f64 / m.elapsed.as_secs_f64();
        assert!((m.throughput - recomputed).abs() < 1e-6 * recomputed.max(1.0));
    }

    #[test]
    fn prefill_populates_even_keys() {
        let set = MutexSet::new();
        let mut spec = tiny_spec(1);
        spec.mix = OpMix::updates(0).into(); // read-only: population unchanged
        run_workload(&set, &spec);
        let inner = set.0.lock().unwrap();
        for k in (0..64).step_by(2) {
            assert!(inner.contains(&k));
        }
        for k in (1..64).step_by(2) {
            assert!(!inner.contains(&k));
        }
    }

    #[test]
    fn more_threads_still_complete() {
        let set = MutexSet::new();
        let m = run_workload(&set, &tiny_spec(4));
        assert!(m.ops > 0);
    }

    #[test]
    fn latency_recording_fills_the_histogram() {
        let set = MutexSet::new();
        let mut spec = tiny_spec(2);
        spec.record_latency = true;
        let m = run_workload(&set, &spec);
        assert!(m.latency.count() > 0, "histogram must receive samples");
        // Sampled ops are a subset of counted ops (the window flags are
        // read at slightly different instants), but the same order of
        // magnitude.
        assert!(m.latency.count() <= m.ops + spec.threads as u64);
        assert!(m.latency.p50() <= m.latency.p99());
        assert!(m.latency.p99() <= m.latency.p999());
        assert!(m.latency.max() > 0);
    }

    #[test]
    fn latency_off_leaves_histogram_empty() {
        let set = MutexSet::new();
        let m = run_workload(&set, &tiny_spec(1));
        assert_eq!(m.latency.count(), 0);
    }

    #[test]
    fn measure_start_hook_fires_once_at_window_open() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let set = MutexSet::new();
        let fired = AtomicU32::new(0);
        let m = run_workload_with(&set, &tiny_spec(2), || {
            fired.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(fired.load(Ordering::Relaxed), 1, "hook fires exactly once");
        assert!(m.ops > 0);
    }

    #[test]
    fn scan_mix_drives_range_counts() {
        let set = MutexSet::new();
        let mut spec = tiny_spec(2);
        spec.mix = OpMix::with_scans(10, 30).into();
        let m = run_scenario(&set, &spec);
        assert!(m.ops > 0);
    }

    #[test]
    fn phased_mix_runs_end_to_end() {
        let set = MutexSet::new();
        let mut spec = tiny_spec(2);
        spec.mix = MixSchedule::phased_burst(5, 200, 90, 50);
        let m = run_workload(&set, &spec);
        assert!(m.ops > 0);
    }

    #[test]
    fn phase_notifications_reach_the_backend() {
        struct PhaseRecorder {
            inner: MutexSet,
            phases: Mutex<Vec<usize>>,
        }
        impl ConcurrentSet for PhaseRecorder {
            fn contains(&self, key: u64) -> bool {
                self.inner.contains(key)
            }
            fn insert(&self, key: u64) -> bool {
                self.inner.insert(key)
            }
            fn remove(&self, key: u64) -> bool {
                self.inner.remove(key)
            }
            fn note_phase(&self, phase: usize) {
                self.phases.lock().unwrap().push(phase);
            }
        }
        let set = PhaseRecorder { inner: MutexSet::new(), phases: Mutex::new(Vec::new()) };
        let mut spec = tiny_spec(1);
        spec.mix = MixSchedule::phased_burst(5, 20, 90, 10);
        run_workload(&set, &spec);
        let phases = set.phases.lock().unwrap();
        assert!(!phases.is_empty(), "phased schedule must emit phase notifications");
        // Single thread: boundaries cycle 1, 2, 0, 1, 2, 0, ...
        for (i, &p) in phases.iter().enumerate() {
            assert_eq!(p, (i + 1) % 3, "boundary {i} out of order: {phases:?}");
        }
    }

    #[test]
    #[should_panic(expected = "range scans")]
    fn run_workload_rejects_scan_mixes() {
        let set = MutexSet::new();
        let mut spec = tiny_spec(1);
        spec.mix = OpMix::with_scans(0, 100).into();
        run_workload(&set, &spec);
    }
}

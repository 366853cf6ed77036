//! The measurement driver: N threads hammer one [`ConcurrentSet`] for a
//! fixed duration and report throughput.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::keys::KeyStream;
use crate::mix::{OpKind, OpMix};
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
}

/// What to run.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Worker thread count.
    pub threads: usize,
    /// Key space (keys drawn uniformly from `[0, key_space)`).
    pub key_space: u64,
    /// Pre-fill the set with every even key (≈ 50% occupancy, the
    /// standard steady-state initial condition) when true.
    pub prefill: bool,
    /// Operation mix.
    pub mix: OpMix,
    /// Measured duration (after warmup).
    pub duration: Duration,
    /// Warmup duration (not measured).
    pub warmup: Duration,
    /// Base seed for the deterministic per-thread streams.
    pub seed: u64,
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
}

/// Thread `t`'s deterministic key and operation streams under `spec`.
fn thread_streams(spec: &WorkloadSpec, t: usize) -> (KeyStream, SplitMix64) {
    (
        KeyStream::new(spec.key_space, spec.seed).for_thread(t),
        SplitMix64::for_thread(spec.seed ^ 0xDEAD_BEEF, t),
    )
}

/// Run `spec` against `set`: prefill, then `spec.threads` workers draw
/// their deterministic key/op streams through the warmup and the
/// measured window. Operations are counted only inside the window. A
/// worker leaves only once it has completed at least one in-window
/// operation (the window flag is always set before the stop flag), so
/// a worker the scheduler starved through a short window still
/// reports. The caller is responsible for resetting any statistics
/// before the call if it wants per-run counters.
pub fn run_workload<S: ConcurrentSet + ?Sized>(set: &S, spec: &WorkloadSpec) -> Measurement {
    if spec.prefill {
        for k in (0..spec.key_space).step_by(2) {
            set.insert(k);
        }
    }
    let stop = AtomicBool::new(false);
    let measuring = AtomicBool::new(false);
    let total_ops = AtomicU64::new(0);

    let elapsed = std::thread::scope(|s| {
        for t in 0..spec.threads {
            let stop = &stop;
            let measuring = &measuring;
            let total_ops = &total_ops;
            s.spawn(move || {
                let (mut keys, mut ops_rng) = thread_streams(spec, t);
                let mut local_ops = 0u64;
                let mut counted = false;
                while !(counted && stop.load(Ordering::Relaxed)) {
                    // Sampled before the operation, so an op straddling
                    // the window open is consistently left out.
                    let in_window = measuring.load(Ordering::Relaxed);
                    let key = keys.next_key();
                    match spec.mix.next_op(&mut ops_rng) {
                        OpKind::Contains => {
                            std::hint::black_box(set.contains(key));
                        }
                        OpKind::Insert => {
                            std::hint::black_box(set.insert(key));
                        }
                        OpKind::Remove => {
                            std::hint::black_box(set.remove(key));
                        }
                    }
                    if in_window {
                        counted = true;
                        local_ops += 1;
                    }
                }
                total_ops.fetch_add(local_ops, Ordering::Relaxed);
            });
        }
        // Warmup, then measure. The measured window is what actually
        // elapsed between flipping `measuring` on and `stop` — sleep is
        // allowed to overshoot, and the workers kept counting throughout.
        std::thread::sleep(spec.warmup);
        measuring.store(true, Ordering::Relaxed);
        let start = Instant::now();
        std::thread::sleep(spec.duration);
        stop.store(true, Ordering::Relaxed);
        start.elapsed()
    });

    let ops = total_ops.load(Ordering::Relaxed);
    Measurement { ops, elapsed, throughput: ops as f64 / elapsed.as_secs_f64() }
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

    fn tiny_spec(threads: usize) -> WorkloadSpec {
        WorkloadSpec {
            threads,
            key_space: 64,
            prefill: true,
            mix: OpMix::updates(20),
            duration: Duration::from_millis(30),
            warmup: Duration::from_millis(5),
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
        spec.mix = OpMix::updates(0); // read-only: population unchanged
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

    /// The per-thread streams the E-tables run: the first draws for
    /// E4's 512-key, 20%-update cell, as recorded from the driver's
    /// seed derivation. A change here changes every table's op stream.
    #[test]
    fn per_thread_streams_are_pinned() {
        let spec = WorkloadSpec {
            key_space: 512,
            mix: OpMix::updates(20),
            seed: 0xC0FF_EE00 + 20,
            ..tiny_spec(2)
        };
        let expected: [([u64; 8], [OpKind; 8]); 2] = {
            use OpKind::{Contains as C, Insert as I, Remove as R};
            [
                ([201, 368, 202, 194, 348, 20, 155, 322], [I, C, C, C, C, C, C, R]),
                ([242, 339, 385, 131, 264, 410, 45, 363], [C; 8]),
            ]
        };
        for (t, (want_keys, want_ops)) in expected.iter().enumerate() {
            let (mut keys, mut ops_rng) = thread_streams(&spec, t);
            let got_keys: Vec<u64> = (0..8).map(|_| keys.next_key()).collect();
            let got_ops: Vec<OpKind> = (0..8).map(|_| spec.mix.next_op(&mut ops_rng)).collect();
            assert_eq!(got_keys, want_keys, "thread {t} keys");
            assert_eq!(got_ops, want_ops, "thread {t} ops");
        }
    }
}

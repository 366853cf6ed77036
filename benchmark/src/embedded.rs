//! The two embedded workloads: `kv-htap` on `polytm-kv` and `set-mixed`
//! on `polytm-structures`. Exactly two worker threads run; the main
//! thread sleeps in `join`.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use polytm::{Stm, TxParams};
use polytm_kv::{KvStore, Value};
use polytm_structures::TxSkipList;

use crate::estimate::median_u32;
use crate::procfs::pin_to_slot;
use crate::rng::{value_of, SplitMix64};
use crate::spans::Recorder;

/// Hot loops read the clock once per this many operations.
const CLOCK_EVERY: u64 = 16;
/// The traced run keeps one point-operation span in this many.
const OP_SAMPLE: u64 = 32;

/// What one thread saw in one slice of the global half-second grid.
#[derive(Clone, Copy, Debug)]
pub struct SliceRec {
    /// Grid index (slice `k` starts `k * slice_ns` after the start).
    pub index: usize,
    pub ops: u64,
    /// Exact time from this slice's first operation to its last.
    pub ns: u64,
    /// Median of the latency samples taken in the slice (0 if none).
    pub lat_p50_ns: f64,
    pub lat_samples: usize,
}

/// Run `op` in groups of `group` for `slices` slices of the grid that
/// starts at `t0`, cutting the run at the grid's boundaries. `op(i)`
/// performs operation `i` and may return a latency sample.
///
/// Slice medians are taken here, between slices and off their clocks,
/// from one reused buffer: memory does not grow with the run's speed.
pub fn run_sliced(
    t0: Instant,
    slices: usize,
    slice_ns: u64,
    group: u64,
    mut op: impl FnMut(u64) -> Option<u32>,
) -> Vec<SliceRec> {
    while Instant::now() < t0 {
        std::hint::spin_loop();
    }
    let mut out = Vec::with_capacity(slices);
    let mut samples: Vec<u32> = Vec::with_capacity(1 << 16);
    let mut index = 0usize;
    let mut slice_start = Instant::now();
    let mut ops = 0u64;
    let mut i = 0u64;
    while index < slices {
        for _ in 0..group {
            if let Some(lat) = op(i) {
                samples.push(lat);
            }
            i += 1;
        }
        ops += group;
        let now = Instant::now();
        let grid = (now.duration_since(t0).as_nanos() as u64 / slice_ns) as usize;
        if grid > index {
            out.push(SliceRec {
                index,
                ops,
                ns: now.duration_since(slice_start).as_nanos() as u64,
                lat_samples: samples.len(),
                lat_p50_ns: median_u32(&mut samples),
            });
            samples.clear();
            ops = 0;
            index = grid;
            slice_start = Instant::now();
        }
    }
    out
}

/// Per grid slice: the threads' rates added up, and the mean of their
/// latency medians. A slice a thread missed (it was stalled across the
/// whole of it) is left out.
pub fn combine(threads: &[Vec<SliceRec>], slices: usize) -> (Vec<f64>, Vec<f64>) {
    let mut rates = Vec::new();
    let mut lats = Vec::new();
    for k in 0..slices {
        let recs: Vec<&SliceRec> =
            threads.iter().filter_map(|t| t.iter().find(|r| r.index == k)).collect();
        if recs.len() < threads.len() {
            continue;
        }
        let rate: f64 = recs.iter().map(|r| r.ops as f64 * 1e9 / r.ns as f64).sum();
        rates.push(rate);
        let with_lat: Vec<f64> =
            recs.iter().filter(|r| r.lat_samples > 0).map(|r| r.lat_p50_ns).collect();
        if !with_lat.is_empty() {
            lats.push(with_lat.iter().sum::<f64>() / with_lat.len() as f64);
        }
    }
    (rates, lats)
}

/// How much a pass runs: a fixed number of operations per worker
/// (fixed work, nothing timed — what memory is measured after), or a
/// number of slices of the clock.
#[derive(Clone, Copy, Debug)]
pub enum Amount {
    Ops(u64),
    Slices { n: usize, ns: u64 },
}

impl Amount {
    fn slices(self) -> usize {
        match self {
            Amount::Ops(_) => 0,
            Amount::Slices { n, .. } => n,
        }
    }
}

/// Run `op` for `amount`. A worker that `follows` a flag has no count
/// of its own in `Ops` mode: it runs until the flag is raised.
fn drive(
    amount: Amount,
    t0: Instant,
    group: u64,
    follows: Option<&AtomicBool>,
    mut op: impl FnMut(u64) -> Option<u32>,
) -> Vec<SliceRec> {
    match (amount, follows) {
        (Amount::Slices { n, ns }, _) => return run_sliced(t0, n, ns, group, op),
        (Amount::Ops(n), None) => {
            for i in 0..n {
                op(i);
            }
        }
        (Amount::Ops(_), Some(done)) => {
            let mut i = 0;
            while !done.load(Ordering::Acquire) {
                op(i);
                i += 1;
            }
        }
    }
    Vec::new()
}

#[derive(Debug, Default)]
pub struct EmbeddedOut {
    /// Operations per second, per slice.
    pub rate_slices: Vec<f64>,
    /// Latency-bearing operation's median, per slice, ns.
    pub lat_slices_ns: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// What one worker hands back: its slices, operations attempted,
/// operations whose result was wrong.
type Worker = (Vec<SliceRec>, u64, u64);

fn start_time() -> Instant {
    Instant::now() + Duration::from_millis(5)
}

fn elapsed_u32(since: Instant) -> u32 {
    since.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32
}

// ---------------------------------------------------------------------
// kv-htap
// ---------------------------------------------------------------------

pub const HTAP_KEYS: u64 = 1 << 12;
pub const HTAP_WINDOW: u64 = 1024;
/// Every record starts with this balance; a pair always sums to twice it.
const HTAP_BALANCE: u64 = 1_000_000;

fn word_of(v: &Value) -> Option<u64> {
    v.as_bytes().get(..8).map(|b| u64::from_le_bytes(b.try_into().expect("eight bytes")))
}

pub fn htap_setup() -> KvStore {
    let store = KvStore::new(Arc::new(Stm::new()));
    let value = Value::from_bytes(&value_of(HTAP_BALANCE));
    let keys: Vec<u64> = (0..HTAP_KEYS).collect();
    for chunk in keys.chunks(1024) {
        let entries: Vec<(u64, Value)> = chunk.iter().map(|&k| (k, value.clone())).collect();
        store.multi_put(&entries);
    }
    store
}

/// Move `amount` between the two records of a pair, in one transaction.
fn transfer(store: &KvStore, from: u64, to: u64, amount: u64) -> bool {
    store.txn(|kv| {
        let (Some(x), Some(y)) = (kv.get(from)?, kv.get(to)?) else { return Ok(false) };
        let (Some(x), Some(y)) = (word_of(&x), word_of(&y)) else { return Ok(false) };
        kv.put(from, Value::from_bytes(&value_of(x.wrapping_sub(amount))))?;
        kv.put(to, Value::from_bytes(&value_of(y.wrapping_add(amount))))?;
        Ok(true)
    })
}

fn pairs_sum(rows: &[(u64, Value)]) -> bool {
    rows.len() as u64 == HTAP_WINDOW
        && rows.chunks_exact(2).all(|p| {
            p[0].0 + 1 == p[1].0
                && matches!((word_of(&p[0].1), word_of(&p[1].1)),
                    (Some(x), Some(y)) if x.wrapping_add(y) == 2 * HTAP_BALANCE)
        })
}

/// Thread A: 80 % `get`, 20 % transfers inside a pair `(2i, 2i+1)`; its
/// operations are the throughput. Thread B: back-to-back snapshot scans
/// of pair-aligned windows, each the latency sample; every scanned pair
/// must sum to the constant. In `Ops` mode A does the counted work and
/// B scans beside it until A is done.
pub fn htap_run(store: &KvStore, seed: u64, amount: Amount, rec: Option<&Recorder>) -> EmbeddedOut {
    let t0 = start_time();
    let a_done = AtomicBool::new(false);
    let (a, b): (Worker, Worker) = std::thread::scope(|s| {
        let a = s.spawn(|| {
            pin_to_slot(0);
            let mut rng = SplitMix64::new(seed ^ 0xA);
            let (mut attempted, mut failed) = (0u64, 0u64);
            let recs = drive(amount, t0, CLOCK_EVERY, None, |i| {
                let r = rng.next_u64();
                let key = (r >> 8) % HTAP_KEYS;
                let is_transfer = r.is_multiple_of(5);
                let sampled = rec.filter(|_| i.is_multiple_of(OP_SAMPLE));
                let start = sampled.map(Recorder::now_ns);
                let ok = if is_transfer {
                    let (from, to) =
                        if r & 0x80 == 0 { (key & !1, key | 1) } else { (key | 1, key & !1) };
                    transfer(store, from, to, (r >> 40) % 100)
                } else {
                    store.get(key).is_some()
                };
                if let (Some(r), Some(start)) = (sampled, start) {
                    r.leaf(if is_transfer { "kv.txn" } else { "kv.get" }, 0, start, r.now_ns());
                }
                attempted += 1;
                failed += u64::from(!ok);
                None
            });
            a_done.store(true, Ordering::Release);
            (recs, attempted, failed)
        });
        let b = s.spawn(|| {
            pin_to_slot(1);
            let mut rng = SplitMix64::new(seed ^ 0xB);
            let (mut attempted, mut failed) = (0u64, 0u64);
            let recs = drive(amount, t0, 1, Some(&a_done), |_| {
                let lo = rng.below(HTAP_KEYS / HTAP_WINDOW) * HTAP_WINDOW;
                let start_ns = rec.map(Recorder::now_ns);
                let start = Instant::now();
                let rows = store.scan_range(lo, lo + HTAP_WINDOW);
                let lat = elapsed_u32(start);
                if let (Some(r), Some(s)) = (rec, start_ns) {
                    r.leaf("kv.scan", 0, s, r.now_ns());
                }
                attempted += 1;
                failed += u64::from(!pairs_sum(&rows));
                Some(lat)
            });
            (recs, attempted, failed)
        });
        (a.join().expect("point-op thread panicked"), b.join().expect("scan thread panicked"))
    });
    let (rate_slices, _) = combine(std::slice::from_ref(&a.0), amount.slices());
    let (_, lat_slices_ns) = combine(std::slice::from_ref(&b.0), amount.slices());
    EmbeddedOut { rate_slices, lat_slices_ns, attempted: a.1 + b.1, failed: a.2 + b.2 }
}

// ---------------------------------------------------------------------
// set-mixed
// ---------------------------------------------------------------------

pub const SET_KEYS: u64 = 1 << 12;
pub const SET_RANGE: u64 = 256;
/// Every this-many-th operation is a range count.
const SET_RANGE_EVERY: u64 = 64;
const SET_THREADS: u64 = 2;

/// What one thread knows about its own residue class: `present[j]`
/// says whether key `j * SET_THREADS + thread` is in the set. No other
/// thread touches those keys, so every result can be checked.
pub type SetModel = Vec<bool>;

/// A half-full skip list and the per-thread models that describe it.
pub fn set_setup(seed: u64) -> (TxSkipList, Vec<SetModel>) {
    let set = TxSkipList::new(Arc::new(Stm::new()));
    let mut models = vec![vec![false; (SET_KEYS / SET_THREADS) as usize]; SET_THREADS as usize];
    let mut rng = SplitMix64::new(seed ^ 0x5E7);
    for key in 0..SET_KEYS {
        if rng.next_u64() & 1 == 0 {
            set.insert(key as i64);
            models[(key % SET_THREADS) as usize][(key / SET_THREADS) as usize] = true;
        }
    }
    (set, models)
}

/// Which way `set-mixed` updates the list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetUpdates {
    /// `insert_in`/`remove_in` inside an opaque transaction: the mix of
    /// semantics the issue names (elastic search, opaque update,
    /// snapshot range). The gated workload.
    Opaque,
    /// The list's own `insert`/`remove`, which run elastic with a
    /// widened window. Under this two-thread load they lose nodes —
    /// about one 22 s run in three ended with the level-0 chain and the
    /// towers disagreeing over a whole key region — so a gated run on
    /// this path would report `correct: false` at random. The traced
    /// run measures it beside the opaque path and counts the lost keys.
    Own,
}

/// Two threads, each 80 % `contains` / 10 % `insert` / 10 % `remove`
/// on its own residue class; every 64th operation is a snapshot range
/// count over 256 keys, which is the latency-bearing operation.
/// Searches run elastic (`TxSkipList::contains`), range counts run
/// snapshot, updates as `updates` says.
pub fn set_run(
    set: &TxSkipList,
    models: &mut [SetModel],
    seed: u64,
    amount: Amount,
    updates: SetUpdates,
    rec: Option<&Recorder>,
) -> EmbeddedOut {
    let t0 = start_time();
    let workers: Vec<Worker> = std::thread::scope(|s| {
        let handles: Vec<_> = models
            .iter_mut()
            .enumerate()
            .map(|(t, model)| {
                s.spawn(move || {
                    pin_to_slot(t);
                    let (stm, opaque) = (set.stm(), TxParams::default_semantics());
                    let mut rng = SplitMix64::new(seed ^ (0x5E70 + t as u64));
                    let (mut attempted, mut failed) = (0u64, 0u64);
                    let recs = drive(amount, t0, CLOCK_EVERY, None, |i| {
                        let r = rng.next_u64();
                        attempted += 1;
                        if i % SET_RANGE_EVERY == SET_RANGE_EVERY - 1 {
                            let lo = ((r >> 8) % (SET_KEYS - SET_RANGE)) as i64;
                            let start_ns = rec.map(Recorder::now_ns);
                            let start = Instant::now();
                            let n = set.range_count_snapshot(lo, lo + SET_RANGE as i64);
                            let lat = elapsed_u32(start);
                            if let (Some(r), Some(s)) = (rec, start_ns) {
                                r.leaf("structures.range", 0, s, r.now_ns());
                            }
                            failed += u64::from(n as u64 > SET_RANGE);
                            return Some(lat);
                        }
                        let slot = ((r >> 8) % (SET_KEYS / SET_THREADS)) as usize;
                        let key = (slot as u64 * SET_THREADS + t as u64) as i64;
                        let sampled = rec.filter(|_| i.is_multiple_of(OP_SAMPLE));
                        let start = sampled.map(Recorder::now_ns);
                        let (name, ok) = match r % 10 {
                            0 => {
                                let inserted = match updates {
                                    SetUpdates::Opaque => {
                                        stm.run(opaque, |tx| set.insert_in(tx, key))
                                    }
                                    SetUpdates::Own => set.insert(key),
                                };
                                let ok = inserted != model[slot];
                                model[slot] = true;
                                ("structures.update", ok)
                            }
                            1 => {
                                let removed = match updates {
                                    SetUpdates::Opaque => {
                                        stm.run(opaque, |tx| set.remove_in(tx, key))
                                    }
                                    SetUpdates::Own => set.remove(key),
                                };
                                let ok = removed == model[slot];
                                model[slot] = false;
                                ("structures.update", ok)
                            }
                            _ => ("structures.contains", set.contains(key) == model[slot]),
                        };
                        if let (Some(r), Some(start)) = (sampled, start) {
                            r.leaf(name, 0, start, r.now_ns());
                        }
                        failed += u64::from(!ok);
                        None
                    });
                    (recs, attempted, failed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("set worker panicked")).collect()
    });
    let threads: Vec<Vec<SliceRec>> = workers.iter().map(|w| w.0.clone()).collect();
    let (rate_slices, lat_slices_ns) = combine(&threads, amount.slices());
    EmbeddedOut {
        rate_slices,
        lat_slices_ns,
        attempted: workers.iter().map(|w| w.1).sum(),
        failed: workers.iter().map(|w| w.2).sum(),
    }
}

/// The final oracle: how many keys the level-0 chain (`to_vec`) holds
/// that the models do not, or lacks that they do. 0 when intact.
pub fn set_keys_off_model(set: &TxSkipList, models: &[SetModel]) -> usize {
    let held: BTreeSet<i64> = set.to_vec().into_iter().collect();
    (0..SET_KEYS)
        .filter(|k| {
            let expected = models[(k % SET_THREADS) as usize][(k / SET_THREADS) as usize];
            held.contains(&(*k as i64)) != expected
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_follow_the_grid_and_time_exactly() {
        let slice_ns = 20_000_000;
        let mut calls = 0u64;
        let recs = run_sliced(Instant::now(), 3, slice_ns, 4, |i| {
            calls += 1;
            std::thread::sleep(Duration::from_micros(200));
            (i % 2 == 0).then_some(7)
        });
        assert_eq!(recs.iter().map(|r| r.index).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(recs.iter().map(|r| r.ops).sum::<u64>(), calls);
        for r in &recs {
            assert!(r.ops % 4 == 0 && r.ns > slice_ns / 2 && r.ns < 2 * slice_ns, "{r:?}");
            assert_eq!((r.lat_samples as u64, r.lat_p50_ns), (r.ops / 2, 7.0));
        }
    }

    #[test]
    fn combine_adds_rates_and_drops_slices_a_thread_missed() {
        let rec = |index, ops, ns, lat| SliceRec {
            index,
            ops,
            ns,
            lat_p50_ns: lat,
            lat_samples: usize::from(lat > 0.0),
        };
        let a = vec![rec(0, 1000, 1_000_000_000, 10.0), rec(1, 500, 1_000_000_000, 0.0)];
        let b = vec![rec(0, 3000, 1_000_000_000, 30.0), rec(2, 1, 1, 0.0)];
        let (rates, lats) = combine(&[a, b], 3);
        assert_eq!(rates, [4000.0]);
        assert_eq!(lats, [20.0]);
    }

    #[test]
    fn both_workloads_pass_their_oracles_on_a_short_pass() {
        let store = htap_setup();
        let out = htap_run(&store, 1, Amount::Ops(20_000), None);
        assert!(out.attempted >= 20_000 && out.failed == 0, "{out:?}");

        let (set, mut models) = set_setup(1);
        let out = set_run(&set, &mut models, 1, Amount::Ops(20_000), SetUpdates::Opaque, None);
        assert_eq!((out.attempted, out.failed), (40_000, 0));
        assert_eq!(set_keys_off_model(&set, &models), 0);
        // The oracle counts a key the chain lost and one it should not hold.
        models[0][0] = !models[0][0];
        models[1][5] = !models[1][5];
        assert_eq!(set_keys_off_model(&set, &models), 2);
    }
}

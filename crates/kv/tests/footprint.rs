//! Resident footprint of a `KvStore`, measured by a counting allocator
//! local to this test binary (requested bytes, no wall clock): what a
//! record costs at rest, that overwrites with no snapshot live cost
//! nothing lasting, and that history is retained exactly while a
//! snapshot can reach it.
//!
//! One `#[test]` on purpose: the allocator counts the whole process, so
//! a second test running beside this one would show up in its numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use polytm::{Semantics, Stm, TxParams};
use polytm_kv::{KvStore, Value};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is bookkeeping
// beside the call and never influences what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout`, passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `alloc` above with this `layout`, i.e.
        // from `System.alloc` with the same layout.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const RECORDS: u64 = 1 << 16;
const CHUNK: u64 = 1024;
const PASSES: u64 = 16;

/// What a record costs at rest, plus 5 %: 192 bytes in release builds,
/// 199 in debug builds, whose registers carry an STM tag.
const PER_RECORD_BOUND: usize = if cfg!(debug_assertions) { 209 } else { 201 };

/// A 64-byte record value stamped with the pass that wrote it.
fn record(key: u64, pass: u64) -> Value {
    let mut bytes = [0u8; 64];
    bytes[..8].copy_from_slice(&key.to_le_bytes());
    bytes[8..16].copy_from_slice(&pass.to_le_bytes());
    Value::from_bytes(&bytes)
}

/// Overwrite every key once, in 1 024-entry batches.
fn write_pass(store: &KvStore, pass: u64) {
    for lo in (0..RECORDS).step_by(CHUNK as usize) {
        let batch: Vec<(u64, Value)> = (lo..lo + CHUNK).map(|k| (k, record(k, pass))).collect();
        store.multi_put(&batch);
    }
}

#[test]
fn history_costs_memory_only_while_a_snapshot_can_reach_it() {
    let empty = LIVE.load(Ordering::Relaxed);
    let store = KvStore::new(Arc::new(Stm::new()));
    let held = || LIVE.load(Ordering::Relaxed) - empty;

    // At rest: under 200 bytes per 64-byte record, and about one bucket
    // register per record.
    write_pass(&store, 0);
    let baseline = held();
    let per_record = baseline / RECORDS as usize;
    println!("{per_record} live heap bytes per 64-byte record");
    assert!(per_record <= PER_RECORD_BOUND, "{per_record} live heap bytes per 64-byte record");
    let capacity = store.capacity();
    assert!(capacity <= 2 * RECORDS as usize, "{capacity} registers for {RECORDS} records");
    let near_baseline = |bytes: usize| bytes <= baseline + baseline / 20;

    // No snapshot live: superseded versions are not kept.
    for pass in 1..=PASSES {
        write_pass(&store, pass);
    }
    assert!(near_baseline(held()), "overwrites left {} bytes over {baseline}", held());

    // One snapshot parked inside its closure: the same overwrites now
    // retain what it can reach, and it reads its original cut.
    let parked = Barrier::new(2);
    let attempts = AtomicU32::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            let cut = store.stm().run(TxParams::new(Semantics::Snapshot), |tx| {
                if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                    parked.wait(); // bound registered, nothing read yet
                    parked.wait(); // the overwrites are done
                }
                store.scan_range_in(tx, 0, u64::MAX)
            });
            assert_eq!(cut.len(), RECORDS as usize);
            assert!(cut.iter().all(|(k, v)| *v == record(*k, PASSES)), "the cut moved");
        });
        parked.wait();
        for pass in PASSES + 1..=2 * PASSES {
            write_pass(&store, pass);
        }
        assert!(held() >= 2 * baseline, "a live snapshot retained only {} bytes", held());
        parked.wait();
    });
    assert_eq!(attempts.load(Ordering::SeqCst), 1, "the parked snapshot lost a version");

    // Released: the next write to each register sheds what it pinned.
    write_pass(&store, 2 * PASSES + 1);
    assert!(near_baseline(held()), "released history left {} bytes over {baseline}", held());
    assert_eq!(store.get(7), Some(record(7, 2 * PASSES + 1)));
}

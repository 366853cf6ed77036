//! The paper's §1 motivating scenario: a hash table that *can* resize
//! because its operations are transactions.
//!
//! Four writer threads insert keys while the table repeatedly doubles
//! itself; an elastic reader keeps probing throughout. The resize is one
//! opaque transaction beside the weak per-key operations, so no key is
//! ever lost and no reader ever observes a half-resized table. The
//! example asserts both outcomes: every inserted key is present, and the
//! table grew past its initial 4 buckets.
//!
//! ```text
//! cargo run --release --example hash_resize
//! ```

use std::sync::Arc;

use transaction_polymorphism::prelude::*;

const KEYS_PER_THREAD: u64 = 5_000;
const THREADS: u64 = 4;

fn main() {
    let stm = Arc::new(Stm::new());
    let table = TxHashSet::new(Arc::clone(&stm), 4, 8);

    println!("transactional table: starting at {} buckets", table.buckets());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let table = table.clone();
            s.spawn(move || {
                for i in 0..KEYS_PER_THREAD {
                    assert!(table.insert(t * 1_000_000 + i));
                }
            });
        }
        // A reader thread probes while resizes are happening.
        let reader = table.clone();
        s.spawn(move || {
            let mut hits = 0u64;
            for _ in 0..50 {
                for i in 0..100 {
                    if reader.contains(i) {
                        hits += 1;
                    }
                }
            }
            println!("reader finished with {hits} hits (no torn views, no panics)");
        });
    });
    println!(
        "transactional table: {} keys in {} buckets (avg load {:.1})",
        table.len(),
        table.buckets(),
        table.len() as f64 / table.buckets() as f64
    );
    assert_eq!(table.len() as u64, THREADS * KEYS_PER_THREAD, "a key was lost across a resize");
    assert!(table.buckets() > 4, "the table never resized");

    let stats = stm.stats();
    println!(
        "STM stats: {} commits, {} aborts ({:.4} aborts/commit), {} elastic cuts",
        stats.commits,
        stats.aborts(),
        stats.abort_ratio(),
        stats.elastic_cuts
    );
}

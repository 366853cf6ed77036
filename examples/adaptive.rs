//! Adaptive polymorphism demo: a feedback-driven advisor learns each
//! transaction class's best semantics and contention management from
//! live telemetry.
//!
//! ```text
//! cargo run --release --example adaptive
//! ```
//!
//! Three classes run against one shared [`TxList`]-backed set:
//!
//! * `lookups`   — long read-only traversals,
//! * `updates`   — short writing transactions,
//! * `summaries` — whole-structure read-only aggregates.
//!
//! The advisor starts everything under the caller's requested semantics,
//! then reclassifies per epoch: traversal-shaped read-only classes move
//! to snapshot semantics (no validation at all), writing classes stay
//! revocable (the hard safety rule), and a mid-run write burst shifts
//! the contention-manager policy rather than the semantics.

use std::sync::Arc;

use polytm::{ClassId, Semantics, SemanticsSource, Stm, StmConfig, TxParams};
use polytm_adaptive::{Advisor, AdvisorConfig};
use polytm_structures::TxList;

const LOOKUPS: ClassId = ClassId(0);
const UPDATES: ClassId = ClassId(1);
const SUMMARIES: ClassId = ClassId(2);

fn describe(advisor: &Advisor, label: &str) {
    println!("after {label}: {} epochs closed", advisor.epochs());
    for (name, class) in [("lookups", LOOKUPS), ("updates", UPDATES), ("summaries", SUMMARIES)] {
        let totals = advisor.totals(class);
        match advisor.policy(class) {
            Some(p) => println!(
                "  {name:<9} -> {:?} + {:?} (escalate after {} retries; \
                 {} runs, avg reads {}, wrote: {})",
                p.semantics,
                p.cm,
                p.escalate_after,
                totals.runs,
                totals.avg_reads(),
                advisor.has_written(class),
            ),
            None => println!("  {name:<9} -> (no data-backed policy yet)"),
        }
    }
}

fn main() {
    // A small epoch so the demo reclassifies quickly.
    let advisor = Arc::new(Advisor::new(AdvisorConfig {
        epoch_runs: 256,
        min_epoch_runs: 8,
        ..AdvisorConfig::default()
    }));
    let stm = Arc::new(Stm::with_advisor(StmConfig::default(), Arc::clone(&advisor) as _));
    let list = TxList::with_op_params(
        Arc::clone(&stm),
        TxParams::new(Semantics::elastic()).with_class(LOOKUPS),
        TxParams::new(Semantics::elastic()).with_class(UPDATES),
        TxParams::new(Semantics::Snapshot).with_class(SUMMARIES),
    );
    for k in 0..128 {
        list.insert(k);
    }
    advisor.close_epoch(); // settle the prefill epoch

    // Phase 1: read-heavy cruising.
    std::thread::scope(|s| {
        for t in 0..2 {
            let list = list.clone();
            s.spawn(move || {
                for i in 0..2_000i64 {
                    std::hint::black_box(list.contains((i * 7 + t) % 128));
                    if i % 20 == 0 {
                        let k = (i + t) % 128;
                        list.remove(k);
                        list.insert(k);
                    }
                    if i % 50 == 0 {
                        std::hint::black_box(list.range_count_snapshot(0, 128));
                    }
                }
            });
        }
    });
    describe(&advisor, "the read-heavy phase");

    // Phase 2: a write burst on the same classes.
    std::thread::scope(|s| {
        for t in 0..2 {
            let list = list.clone();
            s.spawn(move || {
                for i in 0..2_000i64 {
                    let k = (i * 13 + t) % 128;
                    if i % 2 == 0 {
                        list.remove(k);
                    } else {
                        list.insert(k);
                    }
                    if i % 10 == 0 {
                        std::hint::black_box(list.contains(k));
                    }
                }
            });
        }
    });
    describe(&advisor, "the write burst");

    // The safety rule, live: the advisor never plans Snapshot for the
    // writing class, at any retry count below escalation.
    let plan = advisor.plan(UPDATES, 0, Semantics::elastic());
    assert_ne!(plan.semantics, Semantics::Snapshot, "writing class must stay revocable");
    // And the read-only traversal class is served snapshot semantics.
    let plan = advisor.plan(LOOKUPS, 0, Semantics::elastic());
    println!("lookups now planned as {:?}", plan.semantics);

    let stats = stm.stats();
    println!(
        "total: {} commits, {} aborts {:?}",
        stats.commits,
        stats.aborts(),
        stats.aborts_by_cause(),
    );
}

//! Property tests for the advisor's hard safety rule: under *any*
//! sequence of observations, a class ever observed writing is never
//! served snapshot semantics (which would reject its writes), at any
//! retry count below escalation — and escalated attempts are
//! irrevocable, which also accepts writes.

use proptest::prelude::*;

use polytm::{AbortCause, AbortCounts, ClassId, RunTelemetry, Semantics, SemanticsSource};
use polytm_adaptive::{Advisor, AdvisorConfig};

/// One synthetic observation: shaped enough to stress the classifier in
/// every direction (long/short, contended/quiet, writing/read-only).
fn telemetry_strategy() -> impl Strategy<Value = RunTelemetry> {
    // The vendored proptest implements strategies for tuples up to
    // arity 4; nest tuples for the wider shape.
    (
        (0u16..8, 0u64..64),        // class, reads
        (0u64..4, prop::bool::ANY), // writes; wrote flag independent of
        //                             `writes` (covers the eager and
        //                             violation paths where writes stay 0)
        (0u32..6, 0u32..6, 0u32..6), // retries, aborts_lock, aborts_validation
    )
        .prop_map(
            |((class, reads), (writes, wrote_flag), (retries, aborts_lock, aborts_validation))| {
                let mut aborts = AbortCounts::default();
                aborts[AbortCause::LockConflict] = u64::from(aborts_lock);
                aborts[AbortCause::Validation] = u64::from(aborts_validation);
                RunTelemetry {
                    class: ClassId(class),
                    requested: Semantics::elastic(),
                    committed_semantics: Semantics::elastic(),
                    retries,
                    aborts,
                    reads,
                    writes,
                    wrote: wrote_flag || writes > 0,
                    upgraded: false,
                    read_only_violation: false,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64)
    ))]

    /// The invariant the whole subsystem hangs on: writing classes are
    /// never handed `Semantics::Snapshot`, whatever the telemetry
    /// history looked like and wherever the epoch boundaries fell.
    #[test]
    fn writing_classes_are_never_served_snapshot(
        observations in prop::collection::vec(telemetry_strategy(), 1..300),
    ) {
        // A tiny epoch so reselection happens many times mid-sequence.
        let advisor = Advisor::new(AdvisorConfig {
            epoch_runs: 16,
            min_epoch_runs: 4,
            ..AdvisorConfig::default()
        });
        let mut wrote_seen = [false; 8];
        for t in &observations {
            advisor.observe(t);
            wrote_seen[t.class.0 as usize] |= t.wrote;
            // Check the invariant after *every* observation, for every
            // class and a spread of retry counts.
            for class in 0..8u16 {
                if !wrote_seen[class as usize] {
                    continue;
                }
                for retries in [0u32, 1, 7, 47] {
                    let plan = advisor.plan(ClassId(class), retries, Semantics::elastic());
                    prop_assert!(
                        plan.semantics != Semantics::Snapshot,
                        "class {} served Snapshot after a write was observed (retries {})",
                        class,
                        retries
                    );
                }
            }
        }
    }

    /// Escalated attempts are always irrevocable, never snapshot, for
    /// any class — the liveness valve must accept writes too.
    #[test]
    fn escalated_attempts_are_irrevocable(
        observations in prop::collection::vec(telemetry_strategy(), 32..128),
    ) {
        let advisor = Advisor::new(AdvisorConfig {
            epoch_runs: 16,
            min_epoch_runs: 4,
            ..AdvisorConfig::default()
        });
        for t in &observations {
            advisor.observe(t);
        }
        for class in 0..8u16 {
            if let Some(policy) = advisor.policy(ClassId(class)) {
                let plan = advisor.plan(
                    ClassId(class),
                    u32::from(policy.escalate_after),
                    Semantics::elastic(),
                );
                prop_assert_eq!(plan.semantics, Semantics::Irrevocable);
            }
        }
    }
}

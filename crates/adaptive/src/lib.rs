//! # polytm-adaptive — the adaptive polymorphism runtime
//!
//! The paper argues that picking the right transaction semantics per
//! operation admits strictly more concurrency than any monomorphic
//! choice. The rest of this workspace proves that *statically*: every
//! fixed backend hard-codes one [`Semantics`]. This crate closes the
//! loop at runtime: an [`Advisor`] observes per-class telemetry through
//! the core's [`SemanticsSource`] hook and, on an epoch cadence,
//! selects both the semantics (opaque / elastic / snapshot, with
//! irrevocable escalation per attempt) and the contention-manager
//! policy for each class — with hysteresis, so phase boundaries do not
//! make it thrash.
//!
//! ## Architecture
//!
//! ```text
//!  Stm::run(params.with_class(c))          Advisor
//!  ┌──────────────────────────┐   plan()   ┌─────────────────────┐
//!  │ every attempt ───────────┼───────────▶│ policy table        │ one relaxed load
//!  │                          │◀───────────┤ [AtomicU64; 32]     │
//!  │ run commits ─────────────┼───────────▶│ class telemetry     │ sharded counters
//!  └──────────────────────────┘  observe() │   │ epoch cadence   │
//!                                          │   ▼                 │
//!                                          │ epoch controller    │ select + hysteresis
//!                                          └─────────────────────┘
//! ```
//!
//! ## The Snapshot safety rule
//!
//! [`Semantics::Snapshot`] rejects writes, so assigning it to a writing
//! class would be a liveness bug. Three independent layers prevent it:
//!
//! 1. the controller never *selects* Snapshot for a class whose sticky
//!    has-ever-written flag is set ([`controller::select`]);
//! 2. [`Advisor::plan`] re-checks the sticky flag at serve time, so a
//!    policy selected before the first write was observed is overridden
//!    the moment the flag appears;
//! 3. the core itself re-runs an injected-Snapshot attempt that hits a
//!    write under the caller's requested semantics (and reports the
//!    violation back, setting the flag).
//!
//! A misbehaving advisor can therefore cost throughput, never safety or
//! liveness.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod controller;
pub mod metrics;
pub mod policy;
pub mod telemetry;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crossbeam_utils::CachePadded;
use polytm::trace::{self, TraceEvent};
use polytm::{AttemptPlan, ClassId, RunTelemetry, Semantics, SemanticsSource};

pub use controller::{select, AdvisorConfig};
pub use policy::{CmChoice, Policy, SemanticsChoice};
pub use telemetry::{ClassTable, ClassTotals, MAX_CLASSES};

use controller::HysteresisGate;
use policy::POLICY_UNSET;

/// Epoch-cadence state, touched only when an epoch closes.
struct ControlState {
    /// Last epoch's lifetime totals per class (for deltas).
    last: [ClassTotals; MAX_CLASSES],
    /// Per-class hysteresis gates.
    gates: [HysteresisGate; MAX_CLASSES],
}

/// The feedback-driven semantics/CM advisor. Install on an STM with
/// [`polytm::Stm::with_advisor`]; tag runs with
/// [`polytm::TxParams::with_class`].
///
/// ```
/// use std::sync::Arc;
/// use polytm::{ClassId, Semantics, Stm, StmConfig, TxParams};
/// use polytm_adaptive::Advisor;
///
/// let advisor = Arc::new(Advisor::default());
/// let stm = Stm::with_advisor(StmConfig::default(), Arc::clone(&advisor) as _);
/// let v = stm.new_tvar(0i64);
/// let lookups = TxParams::new(Semantics::elastic()).with_class(ClassId(0));
/// let n = stm.run(lookups, |tx| v.read(tx));
/// assert_eq!(n, 0);
/// ```
pub struct Advisor {
    config: AdvisorConfig,
    stats: ClassTable,
    /// Packed [`Policy`] per class ([`POLICY_UNSET`] until the first
    /// data-backed selection); the whole `plan` hot path is one relaxed
    /// load of this word.
    policies: [AtomicU64; MAX_CLASSES],
    /// Observed runs since creation; epochs close every
    /// `config.epoch_runs` observations.
    observations: CachePadded<AtomicU64>,
    /// Observation count at which the next epoch closes. A compare
    /// against this (plus a CAS for the one thread that crosses it)
    /// replaces a per-observe modulo — `epoch_runs` is a runtime knob,
    /// so `%` would be a hardware division on every commit.
    next_epoch: CachePadded<AtomicU64>,
    /// Closed epochs (diagnostics).
    epochs: CachePadded<AtomicU64>,
    control: Mutex<ControlState>,
}

impl Default for Advisor {
    fn default() -> Self {
        Self::new(AdvisorConfig::default())
    }
}

impl Advisor {
    /// New advisor with explicit tuning.
    pub fn new(config: AdvisorConfig) -> Self {
        assert!(config.epoch_runs > 0, "epoch_runs must be positive");
        assert!(config.hysteresis > 0, "hysteresis must be positive");
        assert!(
            config.min_epoch_runs > 0,
            "min_epoch_runs must be positive (0 would install data-free policies)"
        );
        Self {
            config,
            stats: ClassTable::default(),
            policies: std::array::from_fn(|_| AtomicU64::new(POLICY_UNSET)),
            observations: CachePadded::new(AtomicU64::new(0)),
            next_epoch: CachePadded::new(AtomicU64::new(config.epoch_runs)),
            epochs: CachePadded::new(AtomicU64::new(0)),
            control: Mutex::new(ControlState {
                last: [ClassTotals::default(); MAX_CLASSES],
                gates: [HysteresisGate::default(); MAX_CLASSES],
            }),
        }
    }

    /// The advisor's configuration.
    pub fn config(&self) -> &AdvisorConfig {
        &self.config
    }

    /// The currently selected policy for `class`, or `None` while the
    /// class has no data-backed selection yet.
    pub fn policy(&self, class: ClassId) -> Option<Policy> {
        Policy::decode(self.policies[ClassTable::slot(class)].load(Ordering::Relaxed))
    }

    /// Number of closed epochs.
    pub fn epochs(&self) -> u64 {
        self.epochs.load(Ordering::Relaxed)
    }

    /// Lifetime telemetry totals for `class`.
    pub fn totals(&self, class: ClassId) -> ClassTotals {
        self.stats.totals(ClassTable::slot(class))
    }

    /// Has `class` ever been observed writing?
    pub fn has_written(&self, class: ClassId) -> bool {
        self.stats.has_written(ClassTable::slot(class))
    }

    /// Close an epoch: compute per-class deltas, select candidates, and
    /// install the ones that clear hysteresis. Runs automatically every
    /// [`AdvisorConfig::epoch_runs`] observations; public so tests and
    /// tools can force a reselection point.
    pub fn close_epoch(&self) {
        let mut control = self.control.lock().expect("controller state poisoned");
        let mut flips = 0u32;
        for slot in 0..MAX_CLASSES {
            let now = self.stats.totals(slot);
            let delta = now.delta_since(&control.last[slot]);
            if delta.runs < self.config.min_epoch_runs {
                // Too thin to trust — and a silent epoch must not count
                // toward (or against) any pending challenger's streak.
                // `last` deliberately stays put so a low-rate class
                // *accumulates* across epochs and still classifies once
                // its cumulative delta clears the threshold.
                continue;
            }
            control.last[slot] = now;
            let old_word = self.policies[slot].load(Ordering::Relaxed);
            let current = Policy::decode(old_word);
            let wrote = self.stats.has_written(slot);
            let candidate =
                select(&self.config, wrote, &delta, current.unwrap_or_else(Policy::initial));
            if let Some(admitted) =
                control.gates[slot].admit(candidate, current, self.config.hysteresis)
            {
                let new_word = admitted.encode();
                self.policies[slot].store(new_word, Ordering::Relaxed);
                if new_word != old_word {
                    flips += 1;
                    trace::emit(|| {
                        TraceEvent::new(
                            trace::code::ADVISOR_FLIP,
                            trace::semantics_code(admitted.semantics.to_semantics()),
                            slot as u16,
                            0,
                            old_word,
                            new_word,
                        )
                    });
                }
            }
        }
        let epoch = self.epochs.fetch_add(1, Ordering::Relaxed);
        trace::emit(|| {
            TraceEvent::new(trace::code::ADVISOR_EPOCH, 0, trace::NO_CLASS, flips, epoch, 0)
        });
    }
}

impl SemanticsSource for Advisor {
    fn plan(&self, class: ClassId, retries: u32, requested: Semantics) -> AttemptPlan {
        let slot = ClassTable::slot(class);
        let policy = match Policy::decode(self.policies[slot].load(Ordering::Relaxed)) {
            Some(p) => p,
            // No data-backed policy yet: run as requested.
            None => return AttemptPlan::semantics(requested),
        };
        if retries >= u32::from(policy.escalate_after) {
            // Liveness escalation: this attempt runs irrevocably (the
            // core's own fallback remains as the backstop).
            return AttemptPlan {
                semantics: Semantics::Irrevocable,
                arbiter: Some(policy.cm.to_arbiter()),
            };
        }
        let mut semantics = policy.semantics;
        // Serve-time safety: a class observed writing is never handed
        // Snapshot, whatever the table says (the table may predate the
        // first observed write).
        if semantics == SemanticsChoice::Snapshot && self.stats.has_written(slot) {
            semantics = SemanticsChoice::Elastic;
        }
        AttemptPlan { semantics: semantics.to_semantics(), arbiter: Some(policy.cm.to_arbiter()) }
    }

    fn observe(&self, telemetry: &RunTelemetry) {
        self.stats.record(telemetry);
        let n = self.observations.fetch_add(1, Ordering::Relaxed) + 1;
        let boundary = self.next_epoch.load(Ordering::Relaxed);
        if n >= boundary
            && self
                .next_epoch
                .compare_exchange(
                    boundary,
                    boundary + self.config.epoch_runs,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                )
                .is_ok()
        {
            // Exactly one thread crosses each boundary and closes the
            // epoch; the others see the bumped boundary and move on.
            self.close_epoch();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polytm::AbortCounts;

    fn read_only_run(class: u16, reads: u64) -> RunTelemetry {
        RunTelemetry {
            class: ClassId(class),
            requested: Semantics::elastic(),
            committed_semantics: Semantics::elastic(),
            retries: 0,
            aborts: AbortCounts::default(),
            reads,
            writes: 0,
            wrote: false,
            upgraded: false,
            read_only_violation: false,
        }
    }

    fn writing_run(class: u16) -> RunTelemetry {
        RunTelemetry { writes: 1, wrote: true, ..read_only_run(class, 3) }
    }

    fn tiny_config() -> AdvisorConfig {
        AdvisorConfig { epoch_runs: 32, min_epoch_runs: 8, ..AdvisorConfig::default() }
    }

    #[test]
    fn unplanned_classes_run_as_requested() {
        let advisor = Advisor::default();
        let plan = advisor.plan(ClassId(0), 0, Semantics::Opaque);
        assert_eq!(plan.semantics, Semantics::Opaque);
        assert!(plan.arbiter.is_none());
        assert_eq!(advisor.policy(ClassId(0)), None);
    }

    #[test]
    fn read_only_scan_class_converges_to_snapshot() {
        let advisor = Advisor::new(tiny_config());
        // Two epochs of long read-only runs (cold start adopts on the
        // first closed epoch).
        for _ in 0..64 {
            advisor.observe(&read_only_run(2, 40));
        }
        assert!(advisor.epochs() >= 2);
        let policy = advisor.policy(ClassId(2)).expect("policy selected");
        assert_eq!(policy.semantics, SemanticsChoice::Snapshot);
        let plan = advisor.plan(ClassId(2), 0, Semantics::elastic());
        assert_eq!(plan.semantics, Semantics::Snapshot);
    }

    #[test]
    fn low_rate_classes_accumulate_across_thin_epochs() {
        // A class with fewer than min_epoch_runs runs per epoch must
        // still classify eventually: thin deltas accumulate instead of
        // being consumed and discarded.
        let advisor = Advisor::new(tiny_config()); // epoch 32, min 8
        for _ in 0..10 {
            // Per epoch: 3 runs of the rare class 4, 29 of class 5.
            for _ in 0..3 {
                advisor.observe(&read_only_run(4, 40));
            }
            for _ in 0..29 {
                advisor.observe(&writing_run(5));
            }
        }
        assert!(
            advisor.policy(ClassId(4)).is_some(),
            "30 lifetime runs must classify the rare class even at 3 runs/epoch"
        );
        assert_eq!(advisor.policy(ClassId(4)).unwrap().semantics, SemanticsChoice::Snapshot);
    }

    #[test]
    fn escalation_plans_irrevocable_after_the_threshold() {
        let advisor = Advisor::new(tiny_config());
        for _ in 0..64 {
            advisor.observe(&writing_run(1));
        }
        let policy = advisor.policy(ClassId(1)).expect("policy selected");
        let calm = advisor.plan(ClassId(1), 0, Semantics::Opaque);
        assert_ne!(calm.semantics, Semantics::Irrevocable);
        let desperate =
            advisor.plan(ClassId(1), u32::from(policy.escalate_after), Semantics::Opaque);
        assert_eq!(desperate.semantics, Semantics::Irrevocable);
    }

    #[test]
    fn serve_time_snapshot_override_tracks_late_writes() {
        let advisor = Advisor::new(tiny_config());
        // Converge to Snapshot on read-only data...
        for _ in 0..64 {
            advisor.observe(&read_only_run(3, 40));
        }
        assert_eq!(advisor.policy(ClassId(3)).unwrap().semantics, SemanticsChoice::Snapshot);
        // ...then observe a single write. The policy table still says
        // Snapshot, but plan() must stop serving it immediately.
        advisor.observe(&writing_run(3));
        let plan = advisor.plan(ClassId(3), 0, Semantics::elastic());
        assert_ne!(plan.semantics, Semantics::Snapshot);
    }

    #[test]
    fn end_to_end_with_an_stm() {
        use std::sync::Arc;
        let advisor = Arc::new(Advisor::new(tiny_config()));
        let stm =
            polytm::Stm::with_advisor(polytm::StmConfig::default(), Arc::clone(&advisor) as _);
        let vars: Vec<_> = (0..64).map(|i| stm.new_tvar(i as i64)).collect();
        let lookups = polytm::TxParams::new(Semantics::elastic()).with_class(ClassId(0));
        let updates = polytm::TxParams::new(Semantics::elastic()).with_class(ClassId(1));
        for round in 0..200u64 {
            // A scan-shaped read-only class...
            let sum = stm.run(lookups, |tx| {
                let mut acc = 0i64;
                for v in &vars {
                    acc += v.read(tx)?;
                }
                Ok(acc)
            });
            assert!(sum >= 0);
            // ...and a short writing class.
            let i = (round % 64) as usize;
            stm.run(updates, |tx| {
                let cur = vars[i].read(tx)?;
                vars[i].write(tx, cur + 1)
            });
        }
        assert!(advisor.epochs() >= 2, "epochs must close from observe()");
        let scans = advisor.policy(ClassId(0)).expect("scan class classified");
        assert_eq!(scans.semantics, SemanticsChoice::Snapshot, "long read-only class → snapshot");
        let writes = advisor.policy(ClassId(1)).expect("update class classified");
        assert_ne!(
            writes.semantics,
            SemanticsChoice::Snapshot,
            "writing class must stay revocable"
        );
        assert!(advisor.has_written(ClassId(1)));
        assert!(!advisor.has_written(ClassId(0)));
    }
}

//! The epoch controller: turns one epoch's telemetry delta into a
//! policy candidate, and gates candidates through hysteresis so one
//! noisy epoch cannot flip a class's policy.
//!
//! Selection is a pure function ([`select`]) — trivially unit-testable
//! — and the hysteresis bookkeeping (`HysteresisGate`) is plain
//! state: a candidate must win `hysteresis` *consecutive* epochs to
//! replace the incumbent. The cold start is the exception: the first
//! data-backed candidate for a class is adopted immediately (there is
//! no incumbent worth protecting).

use polytm::AbortCause;

use crate::policy::{CmChoice, Policy, SemanticsChoice};
use crate::telemetry::ClassTotals;

/// Tuning knobs of the [`crate::Advisor`].
#[derive(Debug, Clone, Copy)]
pub struct AdvisorConfig {
    /// Observed runs per epoch (across all classes): the reselection
    /// cadence. Counted in operations, not time, so controller behavior
    /// is deterministic under test.
    pub epoch_runs: u64,
    /// Consecutive epochs a differing candidate must win before it
    /// replaces the incumbent policy.
    pub hysteresis: u32,
    /// Minimum runs a class needs inside one epoch for its delta to be
    /// trusted; below this the class keeps its policy.
    pub min_epoch_runs: u64,
    /// Read-only classes at or above this mean read-set length get
    /// snapshot semantics (long scans shouldn't validate at all).
    pub snapshot_read_len: u64,
    /// Writing classes at or above this mean read-set length get
    /// elastic semantics (traversal-shaped updates benefit from cuts);
    /// below it, opaque (short transactions validate cheaply).
    pub elastic_read_len: u64,
    /// Contention-abort-per-run ratio at which a class counts as hot:
    /// hot classes get contention-specific CMs and earlier escalation.
    pub hot_abort_ratio: f64,
    /// Escalation threshold (retries before an attempt goes
    /// irrevocable) for cool classes.
    pub escalate_after: u8,
    /// Escalation threshold for hot classes.
    pub escalate_after_hot: u8,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        Self {
            epoch_runs: 512,
            hysteresis: 2,
            min_epoch_runs: 16,
            snapshot_read_len: 8,
            elastic_read_len: 4,
            hot_abort_ratio: 0.35,
            escalate_after: 48,
            escalate_after_hot: 12,
        }
    }
}

/// Select the policy candidate for one class from one epoch's delta.
///
/// `wrote` is the class's *lifetime* sticky write flag, not the epoch's:
/// the Snapshot rule must survive phases in which a writing class
/// happens to read only.
pub fn select(cfg: &AdvisorConfig, wrote: bool, delta: &ClassTotals, current: Policy) -> Policy {
    if delta.runs < cfg.min_epoch_runs {
        return current;
    }
    let contention = delta.abort_ratio();
    let hot = contention >= cfg.hot_abort_ratio;
    let avg_reads = delta.avg_reads();
    // Capacity aborts are *Snapshot starving* (bounded history truncated
    // under its bound), so they argue against Snapshot, never for it —
    // only the optimistic causes make Snapshot attractive. Folding
    // capacity into the pro-Snapshot signal would be a positive feedback
    // loop: Snapshot causes capacity aborts, which would then keep
    // selecting Snapshot.
    let aborts = &delta.aborts;
    let lock = aborts[AbortCause::LockConflict];
    let optimistic = aborts[AbortCause::Validation] + aborts[AbortCause::Cut];
    let optimistic_hot = (lock + optimistic) as f64 / delta.runs as f64 >= cfg.hot_abort_ratio;
    // Registry-capacity and history-unavailable aborts both mean "this
    // class's snapshot bounds are starving", which is the one thing the
    // capacity signal exists to detect, so they count together.
    let starved = aborts[AbortCause::Capacity] + aborts[AbortCause::Unavailable];
    let capacity_starved = starved as f64 / delta.runs as f64 >= cfg.hot_abort_ratio;
    let semantics = if wrote {
        // Writing classes may never be Snapshot (hard rule). Long
        // traversals tolerate concurrent updates elastically; short
        // ones validate cheaply as opaque.
        if avg_reads >= cfg.elastic_read_len {
            SemanticsChoice::Elastic
        } else {
            SemanticsChoice::Opaque
        }
    } else if capacity_starved {
        // History keeps getting truncated under snapshot bounds: fall
        // back to optimistic reads.
        SemanticsChoice::Elastic
    } else if avg_reads >= cfg.snapshot_read_len
        || (optimistic_hot && avg_reads >= cfg.elastic_read_len)
    {
        // Read-only and either long (validation cost scales with the
        // read set) or contended *and* non-trivial (optimistic reads
        // keep aborting): multi-versioned reads sidestep both. Very
        // short reads stay optimistic even when hot — retrying a
        // two-read transaction is cheaper than walking version chains
        // of hot locations.
        SemanticsChoice::Snapshot
    } else {
        SemanticsChoice::Elastic
    };
    let cm = if !hot {
        CmChoice::Backoff
    } else if lock > optimistic {
        // Lock-dominated contention: who-waits-for-whom matters, so age
        // by timestamp instead of blind backoff.
        CmChoice::Greedy
    } else {
        // Validation/cut-dominated: desynchronize retries harder.
        CmChoice::BackoffAggressive
    };
    let escalate_after = if hot { cfg.escalate_after_hot } else { cfg.escalate_after };
    Policy { semantics, cm, escalate_after }
}

/// Hysteresis state for one class.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct HysteresisGate {
    pending: Option<Policy>,
    streak: u32,
}

impl HysteresisGate {
    /// Feed one epoch's candidate; returns the policy to install now
    /// (`Some` only when the candidate clears the gate).
    pub(crate) fn admit(
        &mut self,
        candidate: Policy,
        current: Option<Policy>,
        hysteresis: u32,
    ) -> Option<Policy> {
        let current = match current {
            // Cold start: adopt the first data-backed candidate.
            None => {
                self.pending = None;
                self.streak = 0;
                return Some(candidate);
            }
            Some(p) => p,
        };
        if candidate == current {
            // The incumbent keeps winning: clear any pending challenger.
            self.pending = None;
            self.streak = 0;
            return None;
        }
        self.streak = if self.pending == Some(candidate) { self.streak + 1 } else { 1 };
        self.pending = Some(candidate);
        if self.streak >= hysteresis {
            self.pending = None;
            self.streak = 0;
            Some(candidate)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AdvisorConfig {
        AdvisorConfig::default()
    }

    fn delta(
        runs: u64,
        reads_per_run: u64,
        aborts_lock: u64,
        aborts_validation: u64,
    ) -> ClassTotals {
        let mut d = ClassTotals { runs, reads: runs * reads_per_run, ..ClassTotals::default() };
        d.aborts[AbortCause::LockConflict] = aborts_lock;
        d.aborts[AbortCause::Validation] = aborts_validation;
        d
    }

    #[test]
    fn read_only_long_classes_get_snapshot() {
        let p = select(&cfg(), false, &delta(100, 20, 0, 0), Policy::initial());
        assert_eq!(p.semantics, SemanticsChoice::Snapshot);
        assert_eq!(p.cm, CmChoice::Backoff);
        assert_eq!(p.escalate_after, cfg().escalate_after);
    }

    #[test]
    fn read_only_short_quiet_classes_stay_elastic() {
        let p = select(&cfg(), false, &delta(100, 2, 1, 1), Policy::initial());
        assert_eq!(p.semantics, SemanticsChoice::Elastic);
    }

    #[test]
    fn contended_read_only_classes_get_snapshot_when_non_trivial() {
        // Medium-length contended reads go multi-versioned...
        let p = select(&cfg(), false, &delta(100, 5, 60, 0), Policy::initial());
        assert_eq!(p.semantics, SemanticsChoice::Snapshot);
        // ...but trivial (two-read) ones stay optimistic even when hot:
        // retrying them is cheaper than walking hot version chains.
        let p = select(&cfg(), false, &delta(100, 2, 60, 0), Policy::initial());
        assert_eq!(p.semantics, SemanticsChoice::Elastic);
    }

    #[test]
    fn capacity_starved_read_only_classes_avoid_snapshot() {
        // Capacity aborts mean Snapshot itself is failing (history
        // truncated under the bound): they must not feed the
        // pro-Snapshot contention signal — that would be a positive
        // feedback loop — and a capacity-starved class backs off to
        // optimistic reads.
        let mut d = ClassTotals { runs: 100, reads: 100 * 50, ..ClassTotals::default() };
        d.aborts[AbortCause::Capacity] = 60;
        let p = select(&cfg(), false, &d, Policy::initial());
        assert_eq!(p.semantics, SemanticsChoice::Elastic);
        // The class still counts as hot for CM/escalation purposes.
        assert_eq!(p.escalate_after, cfg().escalate_after_hot);
        // History-unavailable aborts starve Snapshot the same way.
        let mut d = ClassTotals { runs: 100, reads: 100 * 50, ..ClassTotals::default() };
        d.aborts[AbortCause::Capacity] = 20;
        d.aborts[AbortCause::Unavailable] = 40;
        assert_eq!(select(&cfg(), false, &d, Policy::initial()), p);
    }

    #[test]
    fn writing_classes_never_get_snapshot() {
        // Even with a scan-shaped profile, the sticky write flag forces
        // a revocable writing semantics.
        let p = select(&cfg(), true, &delta(100, 50, 0, 0), Policy::initial());
        assert_eq!(p.semantics, SemanticsChoice::Elastic);
        let p = select(&cfg(), true, &delta(100, 1, 0, 0), Policy::initial());
        assert_eq!(p.semantics, SemanticsChoice::Opaque);
    }

    #[test]
    fn hot_lock_dominated_classes_get_greedy_and_early_escalation() {
        let p = select(&cfg(), true, &delta(100, 6, 50, 5), Policy::initial());
        assert_eq!(p.cm, CmChoice::Greedy);
        assert_eq!(p.escalate_after, cfg().escalate_after_hot);
    }

    #[test]
    fn hot_validation_dominated_classes_get_aggressive_backoff() {
        let p = select(&cfg(), true, &delta(100, 6, 5, 50), Policy::initial());
        assert_eq!(p.cm, CmChoice::BackoffAggressive);
    }

    #[test]
    fn thin_epochs_keep_the_incumbent() {
        let incumbent =
            Policy { semantics: SemanticsChoice::Opaque, cm: CmChoice::Greedy, escalate_after: 9 };
        let p = select(&cfg(), false, &delta(3, 50, 0, 0), incumbent);
        assert_eq!(p, incumbent);
    }

    #[test]
    fn hysteresis_requires_consecutive_wins() {
        let mut gate = HysteresisGate::default();
        let incumbent = Policy::initial();
        let challenger = Policy {
            semantics: SemanticsChoice::Snapshot,
            cm: CmChoice::Backoff,
            escalate_after: 48,
        };
        // Epoch 1: challenger appears — not admitted yet.
        assert_eq!(gate.admit(challenger, Some(incumbent), 2), None);
        // Epoch 2 (noise): incumbent wins again — streak resets.
        assert_eq!(gate.admit(incumbent, Some(incumbent), 2), None);
        // Epochs 3–4: challenger wins twice consecutively — admitted.
        assert_eq!(gate.admit(challenger, Some(incumbent), 2), None);
        assert_eq!(gate.admit(challenger, Some(incumbent), 2), Some(challenger));
    }

    #[test]
    fn cold_start_adopts_immediately() {
        let mut gate = HysteresisGate::default();
        let candidate = Policy::initial();
        assert_eq!(gate.admit(candidate, None, 2), Some(candidate));
    }

    #[test]
    fn switching_challengers_restarts_the_streak() {
        let mut gate = HysteresisGate::default();
        let incumbent = Policy::initial();
        let a = Policy {
            semantics: SemanticsChoice::Snapshot,
            cm: CmChoice::Backoff,
            escalate_after: 48,
        };
        let b =
            Policy { semantics: SemanticsChoice::Opaque, cm: CmChoice::Greedy, escalate_after: 12 };
        assert_eq!(gate.admit(a, Some(incumbent), 2), None);
        assert_eq!(
            gate.admit(b, Some(incumbent), 2),
            None,
            "different challenger: streak restarts"
        );
        assert_eq!(gate.admit(b, Some(incumbent), 2), Some(b));
    }
}

//! The advisor's view into the unified metrics plane: per-class
//! telemetry totals and the currently installed policies, flattened
//! into `polytm-obs`'s canonical key space.

use polytm_obs::MetricsSource;

use crate::policy::CmChoice;
use crate::telemetry::MAX_CLASSES;
use crate::Advisor;

/// Numeric code for a [`CmChoice`] in metric values (stable, documented
/// in `docs/RUNBOOK.md`).
fn cm_code(cm: CmChoice) -> f64 {
    match cm {
        CmChoice::Suicide => 0.0,
        CmChoice::Backoff => 1.0,
        CmChoice::BackoffAggressive => 2.0,
        CmChoice::Greedy => 3.0,
    }
}

/// Register an [`Advisor`] under a prefix (conventionally `advisor`) to
/// export `epochs`, and for every class with observed runs:
/// `class.<slot>.{runs,retries,reads,writes,upgrades,abort_ratio,wrote}`,
/// `class.<slot>.aborts.<cause>` for every [`polytm::AbortCause::name`],
/// and — once a policy is installed —
/// `class.<slot>.policy.{semantics,cm,escalate_after}` (semantics uses
/// [`polytm::trace::semantics_code`] values, cm the codes above).
impl MetricsSource for Advisor {
    fn collect(&self, out: &mut Vec<(String, f64)>) {
        out.push(("epochs".to_string(), self.epochs() as f64));
        for slot in 0..MAX_CLASSES {
            let class = polytm::ClassId(slot as u16);
            let t = self.totals(class);
            if t.runs == 0 {
                continue;
            }
            let mut push = |suffix: &str, v: f64| {
                out.push((format!("class.{slot}.{suffix}"), v));
            };
            push("runs", t.runs as f64);
            push("retries", t.retries as f64);
            for (cause, n) in t.aborts.iter() {
                push(&format!("aborts.{}", cause.name()), n as f64);
            }
            push("reads", t.reads as f64);
            push("writes", t.writes as f64);
            push("upgrades", t.upgrades as f64);
            push("abort_ratio", t.abort_ratio());
            push("wrote", f64::from(u8::from(self.has_written(class))));
            if let Some(p) = self.policy(class) {
                push(
                    "policy.semantics",
                    f64::from(polytm::trace::semantics_code(p.semantics.to_semantics())),
                );
                push("policy.cm", cm_code(p.cm));
                push("policy.escalate_after", f64::from(p.escalate_after));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use polytm::{AbortCounts, ClassId, RunTelemetry, Semantics, SemanticsSource};

    /// What an advisor exports after one epoch of 32 read-only runs of
    /// `class`: enough to install a policy for it.
    fn collect_after_one_epoch(class: u16) -> Vec<(String, f64)> {
        let advisor = Advisor::default();
        let telemetry = RunTelemetry {
            class: ClassId(class),
            requested: Semantics::elastic(),
            committed_semantics: Semantics::elastic(),
            retries: 0,
            aborts: AbortCounts::default(),
            reads: 8,
            writes: 0,
            wrote: false,
            upgraded: false,
            read_only_violation: false,
        };
        for _ in 0..32 {
            advisor.observe(&telemetry);
        }
        advisor.close_epoch();
        let mut out = Vec::new();
        advisor.collect(&mut out);
        out
    }

    #[test]
    fn exports_only_observed_classes_and_their_policies() {
        let out = collect_after_one_epoch(3);
        let get = |k: &str| out.iter().find(|(key, _)| key == k).map(|(_, v)| *v);
        assert_eq!(get("epochs"), Some(1.0));
        assert_eq!(get("class.3.runs"), Some(32.0));
        assert!(get("class.3.policy.semantics").is_some(), "policy installed after epoch");
        assert_eq!(get("class.0.runs"), None, "silent classes are omitted");
    }

    /// `docs/RUNBOOK.md` §5 lists the advisor's keys in full, with
    /// `<slot>` for the class slot; they must be exactly what `collect`
    /// exports for a class with runs and an installed policy.
    #[test]
    fn runbook_lists_every_advisor_key_and_no_other() {
        const RUNBOOK: &str = include_str!("../../../docs/RUNBOOK.md");
        let row = RUNBOOK
            .lines()
            .find(|l| l.starts_with("| `advisor.` |"))
            .expect("RUNBOOK has a key-table row for `advisor.`");
        let keys = row.trim_end_matches('|').rsplit('|').next().expect("a keys column");
        let listed: BTreeSet<String> =
            keys.split('`').skip(1).step_by(2).map(str::to_string).collect();
        let exported: BTreeSet<String> = collect_after_one_epoch(5)
            .into_iter()
            .map(|(k, _)| format!("advisor.{}", k.replace("class.5.", "class.<slot>.")))
            .collect();
        assert_eq!(exported, listed, "docs/RUNBOOK.md §5 `advisor.` row vs Advisor::collect");
    }
}

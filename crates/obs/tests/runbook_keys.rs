//! The operator runbook's metrics key table must list exactly the keys
//! `StmMetrics` exports: every key in the `stm.` and `stm.wal.` rows of
//! `docs/RUNBOOK.md` §5, written out in full, and no other.

use std::collections::BTreeSet;
use std::sync::Arc;

use polytm::Stm;
use polytm_obs::{MetricsRegistry, StmMetrics};

const RUNBOOK: &str = include_str!("../../../docs/RUNBOOK.md");

/// The backticked keys in the last column of the key-table row whose
/// prefix cell is `` `prefix` ``.
fn runbook_row(prefix: &str) -> BTreeSet<String> {
    let cell = format!("| `{prefix}` |");
    let row = RUNBOOK
        .lines()
        .find(|l| l.starts_with(&cell))
        .unwrap_or_else(|| panic!("RUNBOOK has no key-table row for `{prefix}`"));
    let keys = row.trim_end_matches('|').rsplit('|').next().expect("a keys column");
    keys.split('`').skip(1).step_by(2).map(str::to_string).collect()
}

#[test]
fn runbook_lists_every_stm_key_and_no_other() {
    let reg = MetricsRegistry::new();
    reg.register("stm", Arc::new(StmMetrics::new(Arc::new(Stm::new()))));
    let exported: BTreeSet<String> = reg.snapshot().into_iter().map(|(k, _)| k).collect();
    let mut listed = runbook_row("stm.");
    listed.extend(runbook_row("stm.wal."));
    assert_eq!(exported, listed, "docs/RUNBOOK.md §5 `stm.` rows vs StmMetrics");
}

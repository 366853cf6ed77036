//! The operator runbook's server tables must name exactly the keys
//! `ServerStats` exports: §5's `server.` key-table row lists every key
//! in full, and §4's counter table has a row for every counter (all
//! keys but the derived `batch_ops_per_commit`), and neither names any
//! other.

use std::collections::BTreeSet;
use std::sync::Arc;

use polytm_obs::MetricsRegistry;
use polytm_server::ServerStats;

const RUNBOOK: &str = include_str!("../../../docs/RUNBOOK.md");

/// The backticked names in `cell`.
fn ticked(cell: &str) -> impl Iterator<Item = String> + '_ {
    cell.split('`').skip(1).step_by(2).map(str::to_string)
}

/// The lines of the runbook section whose heading starts with `heading`.
fn section(heading: &'static str) -> impl Iterator<Item = &'static str> {
    RUNBOOK
        .lines()
        .skip_while(move |l| !l.starts_with(heading))
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
}

fn exported() -> BTreeSet<String> {
    let reg = MetricsRegistry::new();
    reg.register("server", Arc::new(ServerStats::default()));
    reg.snapshot().into_iter().map(|(k, _)| k).collect()
}

#[test]
fn runbook_key_table_lists_every_server_key_and_no_other() {
    let row = section("## 5.")
        .find(|l| l.starts_with("| `server.` |"))
        .expect("RUNBOOK §5 has a key-table row for `server.`");
    let keys = row.trim_end_matches('|').rsplit('|').next().expect("a keys column");
    let listed: BTreeSet<String> = ticked(keys).collect();
    assert_eq!(exported(), listed, "docs/RUNBOOK.md §5 `server.` row vs ServerStats");
}

#[test]
fn runbook_counter_table_has_a_row_for_every_server_counter() {
    let listed: BTreeSet<String> = section("## 4.")
        .filter(|l| l.starts_with("| `"))
        .flat_map(|l| ticked(l.split('|').nth(1).expect("a counter column")))
        .map(|name| format!("server.{name}"))
        .collect();
    let mut counters = exported();
    counters.remove("server.batch_ops_per_commit");
    assert_eq!(counters, listed, "docs/RUNBOOK.md §4 counter table vs ServerStats");
}

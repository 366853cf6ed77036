//! Metric names, units and directions — the same list `BENCHMARK.json`
//! declares (a test keeps the two in step) — and the result line.

use crate::estimate::Better::{self, Higher, Lower};

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen before the driver rejects a change.
    /// `BENCHMARK.json` has room for one per metric, whatever the
    /// workload, and the driver refuses a benchmark whose same-code
    /// spread on *any* workload exceeds it — so it is sized for the
    /// noisiest workload (three times its spread, capped at the
    /// driver's 0.25), not for the steadiest.
    pub bound: f64,
    /// End-to-end metrics only: the change the issue wanted the metric
    /// to resolve. `--repeat` marks each workload x metric pair whose
    /// same-code spread is wider than this `UNRESOLVED`: a change of
    /// that size there cannot be told from noise on this machine.
    pub target: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    target: f64,
) -> MetricDef {
    MetricDef { name, unit, better, bound, target }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0, target: 0.0 }
}

pub const END_TO_END: &[MetricDef] = &[
    e2e("ops_per_s", "1/s", Higher, 0.25, 0.10),
    e2e("lat_p50_us", "us", Lower, 0.25, 0.10),
    e2e("rss_mb", "MB", Lower, 0.10, 0.05),
    e2e("setup_s", "s", Lower, 0.25, 0.10),
];

pub const PER_LAYER: &[MetricDef] = &[
    layer("server.worker_cpu_share", "ratio", Lower),
    layer("server.store_busy_share", "ratio", Higher),
    layer("server.batch_ops_per_commit", "count", Higher),
    layer("server.bytes_out_per_op", "B", Lower),
    layer("server.backpressure_stalls", "count", Lower),
    layer("kv.get_ns_p50", "ns", Lower),
    layer("kv.commit_writes_ns_per_op", "ns", Lower),
    layer("kv.commit_writes_ns_p50", "ns", Lower),
    layer("kv.txn_ns_p50", "ns", Lower),
    layer("kv.scan_ms_p50", "ms", Lower),
    layer("kv.scans", "count", Higher),
    layer("structures.contains_ns_p50", "ns", Lower),
    layer("structures.update_ns_p50", "ns", Lower),
    layer("structures.range_us_p50", "us", Lower),
    layer("structures.own_path_ops_per_s", "1/s", Higher),
    layer("structures.own_path_keys_off", "count", Lower),
    layer("core.commits", "count", Higher),
    layer("core.abort_ratio", "ratio", Lower),
    layer("core.aborts_validation", "count", Lower),
    layer("core.aborts_locked", "count", Lower),
    layer("core.aborts_elastic_cut", "count", Lower),
    layer("core.elastic_cuts", "count", Higher),
    layer("core.extensions", "count", Higher),
    layer("core.stm_wait_ns_per_commit", "ns", Lower),
    layer("durable.commits_per_fsync", "ratio", Higher),
    layer("durable.wal_wait_ns_per_commit", "ns", Lower),
    layer("durable.wal_bytes_per_user_byte", "ratio", Lower),
    layer("durable.checkpoint_ms", "ms", Lower),
    layer("durable.recover_ms", "ms", Lower),
    layer("device.syncs", "count", Lower),
    layer("device.sync_us_p50", "us", Lower),
    layer("device.bytes_per_sync", "B", Higher),
    layer("device.busy_share", "ratio", Lower),
    layer("ladder.get.core_ns_per_op", "ns", Lower),
    layer("ladder.get.kv_ns_per_op", "ns", Lower),
    layer("ladder.get.server_ns_per_op", "ns", Lower),
    layer("ladder.put.core_ns_per_op", "ns", Lower),
    layer("ladder.put.kv_ns_per_op", "ns", Lower),
    layer("ladder.put.durable_async_ns_per_op", "ns", Lower),
    layer("ladder.put.durable_sync_ns_per_op", "ns", Lower),
    layer("ladder.put.server_ns_per_op", "ns", Lower),
    layer("gen.lag_p99_us", "us", Lower),
    layer("gen.cpu_share", "ratio", Lower),
    layer("wire.lat_p99_us", "us", Lower),
    layer("spread.ops_slice_median", "1/s", Higher),
    layer("spread.ops_slice_iqr_ratio", "ratio", Lower),
    layer("spread.lat_slice_iqr_ratio", "ratio", Lower),
    layer("spread.worst_slice_ratio", "ratio", Higher),
    layer("trace.overhead_ratio", "ratio", Higher),
];

/// The numbers one run produced. Per-layer metrics a workload has no
/// layer for stay at 0 (a wire workload has no `structures.*`).
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name), "{name}");
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
    }
}

/// What a run hands back to whoever asked for it.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Slices measured (of the longest phase sequence).
    pub slices: usize,
    /// `UNSETTLED`, `GENERATOR-BOUND` and oracle failures, in words.
    pub notes: Vec<String>,
    /// Lines of detail for a reader (the slices of an untraced run).
    pub lines: Vec<String>,
}

impl RunResult {
    /// The one-line JSON object the benchmark contract asks for.
    pub fn json_line(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    self.metrics.get(d.name),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.target > 0.0 && d.target <= d.bound));
    }

    #[test]
    fn json_line_lists_every_metric_once() {
        let mut r = RunResult { correct: true, attempted: 10, ..RunResult::default() };
        r.metrics.set("ops_per_s", 1234.5);
        r.metrics.set("rss_mb", f64::NAN);
        let line = r.json_line(END_TO_END);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"ops_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"rss_mb\": {\"value\": 0, \"unit\": \"MB\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }
}

//! The unified metrics registry: every layer's counters flattened into
//! one canonical key space, snapshotted on demand and exported either
//! as a plain-text exposition dump or over the wire (the PTM1 `STATS`
//! opcode encodes [`encode_entries`]'s payload).
//!
//! ## Key space
//!
//! Keys are dot-separated lowercase paths, `prefix.rest`, where the
//! prefix names the layer that registered the source (`stm`, `wal`,
//! `server`, `advisor`, `trace`, `rate`). The full table of keys each
//! built-in source emits is documented in `docs/RUNBOOK.md` ("Reading
//! the metrics plane"). Values are `f64` — counters exact up to 2^53,
//! which outlives any run this workspace performs.

use std::sync::{Arc, Mutex};

use polytm::Stm;

use crate::tracer::RingTracer;

/// A producer of metrics: pushes `(key, value)` pairs into the
/// snapshot. Keys are relative — the registry prepends the prefix the
/// source was registered under. `collect` must not call back into the
/// registry (it runs under the registry's source-list lock).
pub trait MetricsSource: Send + Sync {
    /// Append this source's current values.
    fn collect(&self, out: &mut Vec<(String, f64)>);
}

/// The registry: an ordered list of prefixed [`MetricsSource`]s.
#[derive(Default)]
pub struct MetricsRegistry {
    sources: Mutex<Vec<(String, Arc<dyn MetricsSource>)>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `source` under `prefix` (e.g. `"stm"`). Multiple
    /// sources may share a prefix; their keys should not collide —
    /// [`MetricsRegistry::snapshot`] keeps duplicates (the exposition
    /// is a dump, not a database), so a collision is visible, not
    /// silently resolved.
    pub fn register(&self, prefix: &str, source: Arc<dyn MetricsSource>) {
        self.sources.lock().expect("metrics sources poisoned").push((prefix.into(), source));
    }

    /// Snapshot every source into the flat key space, sorted by key.
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        let sources = self.sources.lock().expect("metrics sources poisoned");
        let mut out = Vec::new();
        for (prefix, source) in sources.iter() {
            let start = out.len();
            source.collect(&mut out);
            for (key, _) in &mut out[start..] {
                *key = format!("{prefix}.{key}");
            }
        }
        drop(sources);
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Plain-text exposition: one `key value` line per entry, sorted —
    /// grep-able, diff-able, and the text form of the `STATS` opcode.
    pub fn exposition(&self) -> String {
        let mut out = String::new();
        for (key, value) in self.snapshot() {
            // Counters print as integers; true gauges keep their fraction.
            if value.fract() == 0.0 && value.abs() < 9.0e15 {
                out.push_str(&format!("{key} {value:.0}\n"));
            } else {
                out.push_str(&format!("{key} {value}\n"));
            }
        }
        out
    }
}

/// Wire codec for a metrics snapshot (the PTM1 `STATS` binary payload):
/// `count:u32`, then per entry `key_len:u16 | key (utf-8) | value:f64`,
/// all little-endian.
pub fn encode_entries(entries: &[(String, f64)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + entries.len() * 24);
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (key, value) in entries {
        let k = key.as_bytes();
        let len = u16::try_from(k.len()).expect("metric keys are short");
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(k);
        out.extend_from_slice(&value.to_le_bytes());
    }
    out
}

/// Strict inverse of [`encode_entries`] — rejects truncation, trailing
/// bytes, and non-UTF-8 keys.
pub fn decode_entries(bytes: &[u8]) -> Result<Vec<(String, f64)>, String> {
    let take = |at: &mut usize, n: usize| -> Result<&[u8], String> {
        if bytes.len() - *at < n {
            return Err(format!("stats payload truncated at byte {at}", at = *at));
        }
        let s = &bytes[*at..*at + n];
        *at += n;
        Ok(s)
    };
    let mut at = 0usize;
    let count = u32::from_le_bytes(take(&mut at, 4)?.try_into().expect("4 bytes"));
    let mut entries = Vec::new();
    for _ in 0..count {
        let len = u16::from_le_bytes(take(&mut at, 2)?.try_into().expect("2 bytes")) as usize;
        let key = std::str::from_utf8(take(&mut at, len)?)
            .map_err(|_| "metric key is not UTF-8".to_string())?
            .to_string();
        let value = f64::from_le_bytes(take(&mut at, 8)?.try_into().expect("8 bytes"));
        entries.push((key, value));
    }
    if at != bytes.len() {
        return Err(format!("{} trailing bytes after stats payload", bytes.len() - at));
    }
    Ok(entries)
}

/// [`MetricsSource`] over an [`Stm`]'s [`polytm::StatsSnapshot`]: every
/// counter under its [`polytm::StatsSnapshot::counters`] key (the
/// durability counters, reported by the WAL's group-commit leader into
/// the same sharded block, under a nested `wal.` path), plus the
/// derived `aborts` total and `abort_ratio`.
pub struct StmMetrics {
    stm: Arc<Stm>,
}

impl StmMetrics {
    /// Source reading `stm`'s counters.
    pub fn new(stm: Arc<Stm>) -> Self {
        Self { stm }
    }
}

impl MetricsSource for StmMetrics {
    fn collect(&self, out: &mut Vec<(String, f64)>) {
        let s = self.stm.stats();
        out.extend(s.counters().map(|(key, v)| (key.to_string(), v as f64)));
        out.push(("aborts".to_string(), s.aborts() as f64));
        out.push(("abort_ratio".to_string(), s.abort_ratio()));
    }
}

/// Trace-plane health as metrics: rings registered, events recorded
/// (still buffered + drained), events shed.
impl MetricsSource for RingTracer {
    fn collect(&self, out: &mut Vec<(String, f64)>) {
        out.push(("rings".to_string(), self.ring_count() as f64));
        out.push(("dropped".to_string(), self.dropped_total() as f64));
    }
}

/// Adapt a closure into a [`MetricsSource`] — the escape hatch for
/// layers (or tests) that don't want a named type.
pub fn fn_source<F>(f: F) -> Arc<dyn MetricsSource>
where
    F: Fn(&mut Vec<(String, f64)>) + Send + Sync + 'static,
{
    struct FnSource<F>(F);
    impl<F: Fn(&mut Vec<(String, f64)>) + Send + Sync> MetricsSource for FnSource<F> {
        fn collect(&self, out: &mut Vec<(String, f64)>) {
            (self.0)(out)
        }
    }
    Arc::new(FnSource(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use polytm::{Semantics, TxParams};

    #[test]
    fn snapshot_prefixes_and_sorts() {
        let reg = MetricsRegistry::new();
        reg.register("b", fn_source(|out| out.push(("two".into(), 2.0))));
        reg.register("a", fn_source(|out| out.push(("one".into(), 1.0))));
        let snap = reg.snapshot();
        assert_eq!(
            snap,
            vec![("a.one".to_string(), 1.0), ("b.two".to_string(), 2.0)],
            "prefixed and key-sorted"
        );
        let text = reg.exposition();
        assert_eq!(text, "a.one 1\nb.two 2\n");
    }

    #[test]
    fn stm_source_reports_commits_in_the_flat_key_space() {
        let stm = Arc::new(Stm::new());
        let v = stm.new_tvar(0u64);
        for _ in 0..5 {
            stm.run(TxParams::new(Semantics::Opaque), |tx| {
                let x = v.read(tx)?;
                v.write(tx, x + 1)
            });
        }
        assert_eq!(stm.read_direct(|g| v.peek_committed(g).copied()), Some(5));
        let reg = MetricsRegistry::new();
        reg.register("stm", Arc::new(StmMetrics::new(Arc::clone(&stm))));
        let snap = reg.snapshot();
        let get = |k: &str| snap.iter().find(|(key, _)| key == k).map(|(_, v)| *v);
        assert_eq!(get("stm.commits"), Some(5.0));
        assert_eq!(get("stm.wal.fsyncs"), Some(0.0));
        assert_eq!(get("stm.point_reads"), Some(1.0), "a direct read is no commit");
    }

    #[test]
    fn entries_codec_round_trips_and_rejects_garbage() {
        let entries =
            vec![("stm.commits".to_string(), 42.0), ("stm.abort_ratio".to_string(), 0.125)];
        let bytes = encode_entries(&entries);
        assert_eq!(decode_entries(&bytes).expect("decode"), entries);
        assert!(decode_entries(&bytes[..bytes.len() - 1]).is_err());
        let mut long = bytes.clone();
        long.push(7);
        assert!(decode_entries(&long).is_err());
        assert!(decode_entries(&[1]).is_err());
    }
}

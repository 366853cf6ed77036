//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark's own wrappers around calls into
//! each layer's public functions. They are kept in memory and written
//! as one JSON object per line when the run ends. A span's parent is
//! the span that was open on the same thread when it started; spans of
//! one coalesced server batch share a `batch_id`.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// 1-based; 0 means "no span".
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    pub batch_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// The span open on this thread (0 = none).
    static CURRENT: Cell<u32> = const { Cell::new(0) };
}

pub struct Recorder {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; spans recorded on this thread meanwhile
    /// become its children.
    pub fn span<T>(&self, name: &'static str, batch_id: u64, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|c| c.replace(id));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        CURRENT.with(|c| c.set(parent));
        self.push(Span { id, parent, name, start_ns, end_ns, batch_id });
        out
    }

    /// Record an already-timed span with no children (the sampled hot
    /// paths time first and decide afterwards whether to keep it).
    pub fn leaf(&self, name: &'static str, batch_id: u64, start_ns: u64, end_ns: u64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(Cell::get);
        self.push(Span { id, parent, name, start_ns, end_ns, batch_id });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Every span recorded so far, in completion order.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<usize> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"batch_id\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.batch_id
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

/// Per span name: how many, their total duration, and their total
/// *self* time — duration minus the part their direct children cover.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.duration_ns();
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        // Children run on the parent's thread inside its interval, so
        // they never cover more than the parent.
        t.self_ns += s.duration_ns().saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Durations (ns) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t0 = Instant::now();
        while (t0.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            Span { id: 2, parent: 1, name: "child", start_ns: 10, end_ns: 40, batch_id: 7 },
            Span { id: 3, parent: 1, name: "child", start_ns: 50, end_ns: 60, batch_id: 7 },
            Span { id: 4, parent: 2, name: "grandchild", start_ns: 20, end_ns: 25, batch_id: 7 },
            Span { id: 1, parent: 0, name: "root", start_ns: 0, end_ns: 100, batch_id: 7 },
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["root"], NameTotals { count: 1, total_ns: 100, self_ns: 60 });
        assert_eq!(t["child"], NameTotals { count: 2, total_ns: 40, self_ns: 35 });
        assert_eq!(t["grandchild"], NameTotals { count: 1, total_ns: 5, self_ns: 5 });
    }

    #[test]
    fn nesting_follows_the_thread() {
        let rec = Recorder::new();
        rec.span("outer", 9, || {
            rec.span("inner", 9, || spin(200_000));
            let t = rec.now_ns();
            rec.leaf("sampled", 9, t, t + 5);
            // Another thread's span is not a child of `outer`.
            std::thread::scope(|s| {
                s.spawn(|| rec.span("elsewhere", 0, || ()));
            });
        });
        let spans = rec.snapshot();
        let by = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let outer = by("outer");
        assert_eq!(outer.parent, 0);
        assert_eq!(by("inner").parent, outer.id);
        assert_eq!(by("sampled").parent, outer.id);
        assert_eq!(by("elsewhere").parent, 0);
        assert!(by("inner").duration_ns() >= 200_000);
        let t = totals_by_name(&spans);
        assert_eq!(
            t["outer"].self_ns,
            outer.duration_ns() - by("inner").duration_ns() - by("sampled").duration_ns()
        );
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let rec = Recorder::new();
        rec.span("a", 1, || rec.span("b", 1, || ()));
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/unit-test.spans.jsonl");
        assert_eq!(rec.write_jsonl(&path).unwrap(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\":2,\"parent\":1,\"name\":\"b\",\"start\":"));
        assert!(lines[1].contains("\"name\":\"a\"") && lines[1].ends_with("\"batch_id\":1}"));
    }
}

//! Offline replay of `polytm-obs` trace dumps: the library behind the
//! `traceview` binary.
//!
//! [`replay`] walks each ring once, in its FIFO order, and builds one
//! [`TraceReport`] with every view `traceview` prints:
//!
//! 1. **per-class timelines** — attempts/commits/aborts per transaction
//!    class, split by semantics and abort cause, plus a coarse
//!    commit-rate series over the trace span;
//! 2. **abort attribution by address** — which TVars kill the most
//!    transactions (the "hottest TVar" table);
//! 3. **WAL group-commit histograms** — batch sizes, inter-flush gaps
//!    and fsync latencies in power-of-two buckets, from `WAL_FSYNC`;
//! 4. **per-connection coalescing** — admitted write ops per coalesced
//!    server commit, per connection, from `BATCH_COMMIT` (conn ≠ 0),
//!    and the connection's backpressure stall time, from `NET_STALL`;
//! 5. **advisor epochs and policy flips**;
//! 6. **request spans** — every wire request's latency split into the
//!    layers it waited on, plus join-health counters.
//!
//! Only three things need a view across rings: the trace span (a
//! min/max pre-pass), the inter-flush gaps (flush timestamps sorted
//! across rings) and the flip list (sorted by timestamp). Everything
//! else is order-free within a ring. Rings are never merged: a request's
//! events all land on its worker's ring in program order, which is what
//! the span join relies on (the argument is `DESIGN.md` §11). Garbage
//! streams degrade into the join-health counters and saturated sums;
//! they never panic.

use std::collections::BTreeMap;

use polytm::trace::{self, code, unpack_seq_range, TraceEvent, NO_CLASS};
use polytm::{AbortCause, AbortCounts};
use polytm_obs::TraceDump;

/// Number of buckets in a per-class commit-rate series.
pub const TIMELINE_BUCKETS: usize = 10;

/// Open requests a single ring tracks at once. Real traces need a few
/// dozen (one batch window's worth); the cap only matters for garbage
/// inputs, where it bounds memory instead of trusting the stream.
const MAX_OPEN_PER_RING: usize = 4096;

/// Power-of-two histogram: bucket `i` counts samples in
/// `[2^i, 2^(i+1))`, except bucket 0 which also holds zero.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Pow2Histogram {
    /// `counts[i]` = samples whose value has `i` significant bits.
    pub counts: Vec<u64>,
    /// Total samples recorded.
    pub samples: u64,
    /// Saturating sum of all sample values (for means).
    pub sum: u64,
}

impl Pow2Histogram {
    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros()).saturating_sub(1) as usize;
        if self.counts.len() <= bucket {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += 1;
        self.samples += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Mean sample value, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }

    /// Iterate `(bucket_lo, bucket_hi_exclusive, count)` for non-empty
    /// buckets. The top bucket's bound, 2^64, saturates to `u64::MAX`.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| {
            let lo = if i == 0 { 0 } else { 1u64 << i };
            (lo, 1u64.checked_shl(i as u32 + 1).unwrap_or(u64::MAX), c)
        })
    }
}

/// One transaction class's life over the trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassTimeline {
    /// `TXN_BEGIN` events. The core emits a begin only for
    /// *re*-attempts (retries > 0) — first attempts are implied by
    /// their commit/abort event — so absent cancels this equals
    /// [`ClassTimeline::aborts`], and total attempts are
    /// [`ClassTimeline::attempts`].
    pub retry_begins: u64,
    /// Committed transactions, indexed by semantics code (0..=3).
    pub commits_by_semantics: [u64; 4],
    /// Committed transactions whose semantics byte names no semantics
    /// (a corrupt or newer trace): counted here, not as any of the four.
    pub commits_unknown_semantics: u64,
    /// Aborted attempts by cause (an event whose cause byte names no
    /// [`AbortCause`] counts as [`AbortCause::Other`]).
    pub aborts_by_cause: AbortCounts,
    /// `TXN_EXTEND` events attributed to this class (elastic cuts).
    pub extends: u64,
    /// First event timestamp (ns since the tracer epoch).
    pub first_ts_ns: u64,
    /// Last event timestamp.
    pub last_ts_ns: u64,
    /// Commits per time bucket over the whole trace span
    /// ([`TIMELINE_BUCKETS`] equal slices).
    pub commit_series: [u64; TIMELINE_BUCKETS],
}

impl ClassTimeline {
    /// Total commits across semantics.
    pub fn commits(&self) -> u64 {
        self.commits_by_semantics.iter().sum::<u64>() + self.commits_unknown_semantics
    }

    /// Total aborted attempts across causes.
    pub fn aborts(&self) -> u64 {
        self.aborts_by_cause.total()
    }

    /// Total attempts: every attempt resolves as exactly one commit or
    /// abort event (cancelled first attempts are invisible by design).
    pub fn attempts(&self) -> u64 {
        self.commits() + self.aborts()
    }
}

/// Abort attribution for one address (TVar slot).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AbortSite {
    /// The conflicting address as recorded in the abort event.
    pub addr: u64,
    /// Aborts attributed to it, by cause.
    pub by_cause: AbortCounts,
}

impl AbortSite {
    /// Total aborts at this address.
    pub fn total(&self) -> u64 {
        self.by_cause.total()
    }
}

/// One connection's coalescing totals from `BATCH_COMMIT` events and
/// its stall time from `NET_STALL` events.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConnCoalescing {
    /// Coalesced commits observed.
    pub batches: u64,
    /// Admitted write requests those commits carried (saturating).
    pub ops: u64,
    /// Time its backlog sat at the server's cap, so the server read
    /// nothing more from it: backpressure stall ns (saturating).
    pub stalled_ns: u64,
}

impl ConnCoalescing {
    /// Mean ops per coalesced commit — the coalescing efficiency.
    pub fn ops_per_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.ops as f64 / self.batches as f64
        }
    }
}

/// One joined request span: a wire request's end-to-end latency split
/// into the layers it waited on. All components are nanoseconds;
/// `batch_wait_ns + stm_ns() + wal_ns + other_ns == total_ns` except
/// for the rare overflow spans counted by [`TraceReport::overflowed`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestSpan {
    /// Connection the request arrived on.
    pub conn: u64,
    /// Wire sequence number.
    pub seq: u32,
    /// Request opcode.
    pub opcode: u8,
    /// Ring (worker thread) that served it.
    pub ring: u32,
    /// `REQ_DONE − REQ_RECV`: decode to response-buffered.
    pub total_ns: u64,
    /// Admission to commit, net of the commit's own measured waits:
    /// time spent waiting for the batch window to fill with other
    /// requests. Zero for barrier requests (they commit alone).
    pub batch_wait_ns: u64,
    /// Era-gate waits during the batch's commit (all gate sites).
    pub stm_gate_ns: u64,
    /// Arbitrated lock waits during the batch's commit.
    pub stm_arbitrate_ns: u64,
    /// Contention-backoff sleeps between the batch's attempts.
    pub stm_backoff_ns: u64,
    /// WAL durability wait (leader or follower) for the batch; it
    /// already covers the flush leader's linger and fsync.
    pub wal_ns: u64,
    /// The remainder: decode, execute, reply encode, and anything the
    /// instrumented waits don't cover.
    pub other_ns: u64,
    /// Highest attempt ordinal seen among the batch's wait events
    /// (0 = committed first try, as far as the waits show).
    pub retries: u32,
    /// Write requests the batch carried (0 = barrier request).
    pub batch_ops: u32,
}

impl RequestSpan {
    /// Total STM wait: gate + arbitration + backoff.
    pub fn stm_ns(&self) -> u64 {
        self.stm_gate_ns.saturating_add(self.stm_arbitrate_ns).saturating_add(self.stm_backoff_ns)
    }

    /// Sum of the decomposed components (equals `total_ns` except for
    /// overflow spans).
    pub fn components_ns(&self) -> u64 {
        self.batch_wait_ns
            .saturating_add(self.stm_ns())
            .saturating_add(self.wal_ns)
            .saturating_add(self.other_ns)
    }
}

/// Everything `traceview` reports, built by one [`replay`].
///
/// The join-health counters matter: request spans built from a stream
/// whose counters are nonzero come from an incomplete or corrupt trace,
/// and the quantiles over them inherit that asterisk.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceReport {
    /// Events replayed.
    pub events: u64,
    /// Trace span `(first_ts, last_ts)` in ns since the tracer epoch.
    pub span_ns: (u64, u64),
    /// Per-class timelines, keyed by class id (`u16::MAX` = unclassed).
    pub classes: BTreeMap<u16, ClassTimeline>,
    /// Abort sites sorted hottest-first (address 0 — "no address
    /// recorded" — is excluded).
    pub abort_sites: Vec<AbortSite>,
    /// WAL group-commit batch sizes (commits per flush).
    pub wal_batch: Pow2Histogram,
    /// Gaps between consecutive WAL flushes, in nanoseconds.
    pub wal_gap_ns: Pow2Histogram,
    /// WAL fsync latencies, in nanoseconds.
    pub wal_fsync_ns: Pow2Histogram,
    /// Per-connection coalescing and stall time, keyed by connection
    /// id. A connection that only stalled has a row with no batches.
    pub conns: BTreeMap<u64, ConnCoalescing>,
    /// Advisor epochs closed.
    pub advisor_epochs: u64,
    /// Advisor policy flips, as `(ts_ns, class, new_semantics_code)`,
    /// sorted by timestamp.
    pub advisor_flips: Vec<(u64, u16, u8)>,
    /// Every request that both opened and closed, ring by ring in close
    /// order.
    pub requests: Vec<RequestSpan>,
    /// `REQ_DONE` events with no matching open request (shed `REQ_RECV`
    /// or a truncated ring head).
    pub unmatched_done: u64,
    /// Requests still open when their ring ended (shed `REQ_DONE` or a
    /// truncated ring tail).
    pub unclosed_recv: u64,
    /// `BATCH_COMMIT` events (conn ≠ 0) covering no open request.
    pub orphan_commits: u64,
    /// Open requests evicted by the per-ring cap (garbage input).
    pub shed_open: u64,
    /// Spans whose measured waits exceeded their end-to-end time
    /// (cross-batch leakage after a failed commit; the span keeps its
    /// components, clamped, and is counted here).
    pub overflowed: u64,
}

/// A request between `REQ_RECV` and `REQ_DONE` on one ring.
struct OpenReq {
    conn: u64,
    seq: u32,
    opcode: u8,
    recv_ts: u64,
    enqueue_ts: Option<u64>,
    /// Set by `BATCH_COMMIT`: the commit's wait bucket plus commit
    /// timestamp and batch size.
    committed: Option<(PendingCommit, u64, u32)>,
}

/// Wait events accumulated since the last `BATCH_COMMIT` on a ring.
#[derive(Clone, Copy, Default)]
struct PendingCommit {
    gate_ns: u64,
    arbitrate_ns: u64,
    backoff_ns: u64,
    wal_ns: u64,
    retries: u32,
}

/// Replay `(ring, events)` slices, each in its ring's FIFO order, into
/// one report. The pure core of [`replay_dump`], so tests can feed
/// synthetic streams without building a [`TraceDump`].
pub fn replay(rings: &[(u32, &[TraceEvent])]) -> TraceReport {
    let all = || rings.iter().flat_map(|(_, events)| events.iter());
    let mut report = TraceReport { events: all().count() as u64, ..TraceReport::default() };
    let (Some(first_ts), Some(last_ts)) =
        (all().map(|e| e.ts_ns).min(), all().map(|e| e.ts_ns).max())
    else {
        return report;
    };
    report.span_ns = (first_ts, last_ts);
    let span = (last_ts - first_ts).max(1);

    let mut abort_sites: BTreeMap<u64, AbortSite> = BTreeMap::new();
    let mut flush_ts: Vec<u64> = Vec::new();

    for &(ring, events) in rings {
        let mut open: Vec<OpenReq> = Vec::new();
        let mut pending = PendingCommit::default();
        for ev in events {
            match ev.code {
                code::TXN_BEGIN | code::TXN_COMMIT | code::TXN_ABORT => {
                    let t = report.classes.entry(ev.class).or_default();
                    if t.retry_begins == 0 && t.commits() == 0 && t.aborts() == 0 {
                        t.first_ts_ns = ev.ts_ns;
                    }
                    t.first_ts_ns = t.first_ts_ns.min(ev.ts_ns);
                    t.last_ts_ns = t.last_ts_ns.max(ev.ts_ns);
                    match ev.code {
                        code::TXN_BEGIN => t.retry_begins += 1,
                        code::TXN_COMMIT => {
                            match t.commits_by_semantics.get_mut(ev.sub as usize) {
                                Some(n) => *n += 1,
                                None => t.commits_unknown_semantics += 1,
                            }
                            let bucket = ((ev.ts_ns - first_ts) as u128 * TIMELINE_BUCKETS as u128
                                / span as u128)
                                .min(TIMELINE_BUCKETS as u128 - 1)
                                as usize;
                            t.commit_series[bucket] += 1;
                        }
                        _ => {
                            let cause = AbortCause::from_code(ev.sub).unwrap_or(AbortCause::Other);
                            t.aborts_by_cause[cause] += 1;
                            if ev.a != 0 {
                                let site = abort_sites.entry(ev.a).or_insert_with(|| AbortSite {
                                    addr: ev.a,
                                    ..Default::default()
                                });
                                site.by_cause[cause] += 1;
                            }
                        }
                    }
                }
                code::TXN_EXTEND if ev.class != NO_CLASS => {
                    report.classes.entry(ev.class).or_default().extends += 1;
                }
                code::ADVISOR_EPOCH => report.advisor_epochs += 1,
                code::ADVISOR_FLIP => report.advisor_flips.push((ev.ts_ns, ev.class, ev.sub)),
                code::REQ_RECV => {
                    if open.len() >= MAX_OPEN_PER_RING {
                        open.remove(0);
                        report.shed_open += 1;
                    }
                    open.push(OpenReq {
                        conn: ev.a,
                        seq: ev.n,
                        opcode: ev.sub,
                        recv_ts: ev.ts_ns,
                        enqueue_ts: None,
                        committed: None,
                    });
                }
                code::BATCH_ENQUEUE => {
                    if let Some(req) =
                        open.iter_mut().rev().find(|r| r.conn == ev.a && r.seq == ev.n)
                    {
                        req.enqueue_ts = Some(ev.ts_ns);
                    }
                }
                code::WAIT_GATE => {
                    pending.gate_ns = pending.gate_ns.saturating_add(ev.a);
                    pending.retries = pending.retries.max(ev.n);
                }
                code::WAIT_ARBITRATE => {
                    pending.arbitrate_ns = pending.arbitrate_ns.saturating_add(ev.a);
                    pending.retries = pending.retries.max(ev.n);
                }
                code::WAIT_CLOCK => {
                    pending.backoff_ns = pending.backoff_ns.saturating_add(ev.a);
                    pending.retries = pending.retries.max(ev.n);
                }
                code::WAL_FOLLOWER_WAIT => pending.wal_ns = pending.wal_ns.saturating_add(ev.a),
                code::WAL_FSYNC => {
                    report.wal_batch.record(u64::from(ev.n));
                    report.wal_fsync_ns.record(ev.a);
                    flush_ts.push(ev.ts_ns);
                }
                code::BATCH_COMMIT => {
                    let conn = ev.a;
                    if conn != 0 {
                        let c = report.conns.entry(conn).or_default();
                        c.batches += 1;
                        c.ops = c.ops.saturating_add(u64::from(ev.n));
                        let (first, last) = unpack_seq_range(ev.b);
                        let mut hit = false;
                        for req in open.iter_mut().filter(|r| {
                            r.conn == conn
                                && first <= r.seq
                                && r.seq <= last
                                && r.committed.is_none()
                        }) {
                            req.committed = Some((pending, ev.ts_ns, ev.n));
                            hit = true;
                        }
                        if !hit {
                            report.orphan_commits += 1;
                        }
                    }
                    pending = PendingCommit::default();
                }
                code::NET_STALL => {
                    let c = report.conns.entry(ev.a).or_default();
                    c.stalled_ns = c.stalled_ns.saturating_add(ev.b);
                }
                code::REQ_DONE => {
                    let Some(at) = open.iter().position(|r| r.conn == ev.a && r.seq == ev.n) else {
                        report.unmatched_done += 1;
                        continue;
                    };
                    let span = close_span(open.remove(at), ev.ts_ns, ring);
                    // `other` saturates at 0, so the parts exceed the
                    // whole exactly when the measured waits do.
                    if span.components_ns() > span.total_ns {
                        report.overflowed += 1;
                    }
                    report.requests.push(span);
                }
                _ => {}
            }
        }
        report.unclosed_recv += open.len() as u64;
    }

    report.abort_sites = abort_sites.into_values().collect();
    // Hottest first; ties broken by address so the order is total.
    report.abort_sites.sort_by(|x, y| y.total().cmp(&x.total()).then(x.addr.cmp(&y.addr)));
    flush_ts.sort_unstable();
    for gap in flush_ts.windows(2) {
        report.wal_gap_ns.record(gap[1] - gap[0]);
    }
    report.advisor_flips.sort_by_key(|&(ts, _, _)| ts);
    report
}

/// Close `req` at `done_ts`: split its end-to-end time into the waits
/// of the batch that committed it and the remainder.
fn close_span(req: OpenReq, done_ts: u64, ring: u32) -> RequestSpan {
    let total_ns = done_ts.saturating_sub(req.recv_ts);
    let mut span = RequestSpan {
        conn: req.conn,
        seq: req.seq,
        opcode: req.opcode,
        ring,
        total_ns,
        ..RequestSpan::default()
    };
    if let Some((commit, commit_ts, ops)) = req.committed {
        span.stm_gate_ns = commit.gate_ns;
        span.stm_arbitrate_ns = commit.arbitrate_ns;
        span.stm_backoff_ns = commit.backoff_ns;
        span.wal_ns = commit.wal_ns;
        span.retries = commit.retries;
        span.batch_ops = ops;
        let measured = span.stm_ns().saturating_add(span.wal_ns);
        let enq = req.enqueue_ts.unwrap_or(req.recv_ts);
        span.batch_wait_ns = commit_ts.saturating_sub(enq).saturating_sub(measured);
    }
    let explained = span.batch_wait_ns.saturating_add(span.stm_ns()).saturating_add(span.wal_ns);
    span.other_ns = total_ns.saturating_sub(explained);
    span
}

/// Replay every ring of a dump.
pub fn replay_dump(dump: &TraceDump) -> TraceReport {
    let rings: Vec<(u32, &[TraceEvent])> =
        dump.rings.iter().map(|r| (r.ring, r.events.as_slice())).collect();
    replay(&rings)
}

/// The `q`-per-mille quantile (500 = p50, 999 = p999) of a sorted
/// slice; 0 when empty.
fn quantile(sorted: &[u64], q: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() - 1) as u64 * q).div_euclid(1000) as usize;
    sorted[rank]
}

/// One layer's attribution row: its latency quantiles across all
/// joined requests plus its share of total latency.
struct LayerRow {
    name: &'static str,
    p50: u64,
    p99: u64,
    p999: u64,
    sum: u64,
}

fn layer_row(name: &'static str, mut values: Vec<u64>) -> LayerRow {
    values.sort_unstable();
    LayerRow {
        name,
        p50: quantile(&values, 500),
        p99: quantile(&values, 990),
        p999: quantile(&values, 999),
        sum: values.iter().fold(0u64, |acc, v| acc.saturating_add(*v)),
    }
}

/// Render the report as the human-readable text `traceview` prints:
/// every section, in one pass. `top` bounds the hottest-TVar,
/// per-connection and flip lists.
pub fn render(report: &TraceReport, top: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let (lo, hi) = report.span_ns;
    let _ = writeln!(
        out,
        "trace: {} events over {:.3} ms",
        report.events,
        (hi.saturating_sub(lo)) as f64 / 1e6
    );

    let _ = writeln!(out, "\n== per-class timelines ==");
    for (class, t) in &report.classes {
        let name =
            if *class == NO_CLASS { "unclassed".to_string() } else { format!("class {class}") };
        let _ = writeln!(
            out,
            "{name}: attempts {}  commits {}  aborts {}  extends {}  span {:.3} ms",
            t.attempts(),
            t.commits(),
            t.aborts(),
            t.extends,
            (t.last_ts_ns.saturating_sub(t.first_ts_ns)) as f64 / 1e6
        );
        for sem in 0..4u8 {
            let n = t.commits_by_semantics[sem as usize];
            if n > 0 {
                let _ = writeln!(out, "  commits[{}] {}", trace::semantics_name(sem), n);
            }
        }
        if t.commits_unknown_semantics > 0 {
            let _ = writeln!(out, "  commits[unknown] {}", t.commits_unknown_semantics);
        }
        for (cause, n) in t.aborts_by_cause.iter().filter(|&(_, n)| n > 0) {
            let _ = writeln!(out, "  aborts[{}] {}", cause.name(), n);
        }
        let series: Vec<String> = t.commit_series.iter().map(u64::to_string).collect();
        let _ = writeln!(out, "  commit series [{}]", series.join(" "));
    }

    let _ = writeln!(out, "\n== hottest TVars (abort attribution by address) ==");
    if report.abort_sites.is_empty() {
        let _ = writeln!(out, "(no addressed aborts)");
    }
    for site in report.abort_sites.iter().take(top) {
        let causes: Vec<String> = site
            .by_cause
            .iter()
            .filter(|&(_, n)| n > 0)
            .map(|(c, n)| format!("{} {}", c.name(), n))
            .collect();
        let _ =
            writeln!(out, "addr {:#x}: {} aborts ({})", site.addr, site.total(), causes.join(", "));
    }

    let _ = writeln!(out, "\n== WAL group commit ==");
    let _ = writeln!(
        out,
        "flushes {}  mean batch {:.2} commits/flush",
        report.wal_batch.samples,
        report.wal_batch.mean()
    );
    for (lo, hi, n) in report.wal_batch.buckets() {
        let _ = writeln!(out, "  batch [{lo:>6}, {hi:>6})  {n}");
    }
    let _ = writeln!(out, "inter-flush gaps (ns):");
    for (lo, hi, n) in report.wal_gap_ns.buckets() {
        let _ = writeln!(out, "  gap   [{lo:>12}, {hi:>12})  {n}");
    }
    let _ = writeln!(out, "fsync latency (ns):");
    for (lo, hi, n) in report.wal_fsync_ns.buckets() {
        let _ = writeln!(out, "  fsync [{lo:>12}, {hi:>12})  {n}");
    }

    let _ = writeln!(out, "\n== per-connection coalescing ==");
    if report.conns.is_empty() {
        let _ = writeln!(out, "(no server batches or stalls)");
    }
    for (conn, c) in report.conns.iter().take(top) {
        let _ = writeln!(
            out,
            "conn {conn}: {} batches  {} ops  {:.2} ops/commit  stalled {} ns",
            c.batches,
            c.ops,
            c.ops_per_batch(),
            c.stalled_ns
        );
    }

    if report.advisor_epochs > 0 || !report.advisor_flips.is_empty() {
        let _ = writeln!(out, "\n== advisor ==");
        let _ =
            writeln!(out, "epochs {}  flips {}", report.advisor_epochs, report.advisor_flips.len());
        for (ts, class, sem) in report.advisor_flips.iter().take(top) {
            let _ = writeln!(
                out,
                "  t={:.3}ms class {class} -> {}",
                *ts as f64 / 1e6,
                trace::semantics_name(*sem)
            );
        }
    }

    let reqs = &report.requests;
    let _ = writeln!(out, "\n== request waterfall ({} requests joined) ==", reqs.len());
    if reqs.is_empty() {
        let _ = writeln!(
            out,
            "(no request spans: no server ran while tracing, or REQ_* events were shed)"
        );
    } else {
        let rows = [
            layer_row("total", reqs.iter().map(|r| r.total_ns).collect()),
            layer_row("batch_wait", reqs.iter().map(|r| r.batch_wait_ns).collect()),
            layer_row("stm.gate", reqs.iter().map(|r| r.stm_gate_ns).collect()),
            layer_row("stm.arbitrate", reqs.iter().map(|r| r.stm_arbitrate_ns).collect()),
            layer_row("stm.backoff", reqs.iter().map(|r| r.stm_backoff_ns).collect()),
            layer_row("wal", reqs.iter().map(|r| r.wal_ns).collect()),
            layer_row("other", reqs.iter().map(|r| r.other_ns).collect()),
        ];
        let total_sum = rows[0].sum.max(1);
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>12} {:>12} {:>7}",
            "layer (ns)", "p50", "p99", "p999", "share"
        );
        for row in &rows {
            let _ = writeln!(
                out,
                "{:<14} {:>12} {:>12} {:>12} {:>6.1}%",
                row.name,
                row.p50,
                row.p99,
                row.p999,
                row.sum as f64 * 100.0 / total_sum as f64
            );
        }

        let mut slowest: Vec<&RequestSpan> = reqs.iter().collect();
        slowest.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
        let _ = writeln!(out, "slowest requests:");
        for r in slowest.iter().take(top.min(5)) {
            let _ = writeln!(
                out,
                "  conn {} seq {} op {}: total {}ns = batch_wait {} + stm {} + wal {} + other {} \
                 (retries {}, batch {} ops, ring {})",
                r.conn,
                r.seq,
                r.opcode,
                r.total_ns,
                r.batch_wait_ns,
                r.stm_ns(),
                r.wal_ns,
                r.other_ns,
                r.retries,
                r.batch_ops,
                r.ring
            );
        }

        let mut per_conn: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for r in reqs {
            let e = per_conn.entry(r.conn).or_default();
            e.0 += 1;
            e.1 = e.1.saturating_add(r.total_ns);
        }
        let _ = writeln!(out, "per-connection:");
        for (conn, (n, sum)) in per_conn.iter().take(top) {
            let _ = writeln!(out, "  conn {conn}: {n} requests, mean {}ns", sum / n.max(&1));
        }
    }
    let _ = writeln!(
        out,
        "join health: unmatched_done {}  unclosed_recv {}  orphan_commits {}  shed_open {}  \
         overflowed {}",
        report.unmatched_done,
        report.unclosed_recv,
        report.orphan_commits,
        report.shed_open,
        report.overflowed
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use polytm::trace::pack_seq_range;

    fn ev(code: u8, sub: u8, class: u16, n: u32, a: u64, b: u64, ts: u64) -> TraceEvent {
        let mut e = TraceEvent::new(code, sub, class, n, a, b);
        e.ts_ns = ts;
        e
    }

    /// An unclassed event: the request-span codes carry no class.
    fn req_ev(code: u8, sub: u8, n: u32, a: u64, b: u64, ts: u64) -> TraceEvent {
        ev(code, sub, NO_CLASS, n, a, b, ts)
    }

    #[test]
    fn pow2_histogram_buckets_are_half_open_powers() {
        let mut h = Pow2Histogram::default();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        let buckets: Vec<_> = h.buckets().collect();
        // 0 and 1 share bucket 0; 2..4 bucket 1; 4..8 bucket 2; 8..16
        // bucket 3; 1024 lands in [1024, 2048).
        assert_eq!(buckets, vec![(0, 2, 2), (2, 4, 2), (4, 8, 2), (8, 16, 1), (1024, 2048, 1)]);
        assert_eq!(h.samples, 8);
    }

    #[test]
    fn replay_attributes_aborts_and_coalescing() {
        // First attempts emit no begin event: the abort at ts 10 is the
        // transaction's first trace record, then its retry begins.
        let events = vec![
            ev(code::TXN_ABORT, 1, 3, 0, 0xAB, 0, 10),
            ev(code::TXN_BEGIN, 0, 3, 1, 0, 0, 20),
            ev(code::TXN_COMMIT, 0, 3, 1, 7, 0, 100),
            ev(code::WAL_FSYNC, 0, NO_CLASS, 4, 5_000, 256, 50),
            ev(code::WAL_FSYNC, 0, NO_CLASS, 2, 6_000, 128, 80),
            ev(code::BATCH_COMMIT, 0, NO_CLASS, 8, 42, pack_seq_range(1, 8), 90),
            ev(code::BATCH_COMMIT, 0, NO_CLASS, 4, 42, pack_seq_range(9, 12), 95),
        ];
        let r = replay(&[(0, events.as_slice())]);
        let t = &r.classes[&3];
        assert_eq!((t.retry_begins, t.attempts(), t.commits(), t.aborts()), (1, 2, 1, 1));
        assert_eq!(r.abort_sites.len(), 1);
        assert_eq!((r.abort_sites[0].addr, r.abort_sites[0].total()), (0xAB, 1));
        assert_eq!(r.wal_batch.samples, 2);
        assert_eq!(r.wal_gap_ns.samples, 1, "two flushes make one gap");
        let c = &r.conns[&42];
        assert_eq!((c.batches, c.ops), (2, 12));
        assert!((c.ops_per_batch() - 6.0).abs() < 1e-9);
        // The render is total and mentions the headline numbers.
        let text = render(&r, 10);
        assert!(text.contains("class 3"));
        assert!(text.contains("addr 0xab"));
        assert!(text.contains("ops/commit"));
    }

    /// `NET_STALL` time adds up per connection, and a connection that
    /// only stalled still gets a row.
    #[test]
    fn stalls_add_up_per_connection() {
        let stall = |conn, ns, ts| req_ev(code::NET_STALL, 0, 0, conn, ns, ts);
        let commit = ev(code::BATCH_COMMIT, 0, NO_CLASS, 2, 7, pack_seq_range(1, 2), 10);
        let events = [commit, stall(7, 1_500, 20), stall(7, 2_500, 30), stall(9, 400, 40)];
        let r = replay(&[(0, events.as_slice())]);
        let rows = Vec::from_iter(r.conns.iter().map(|(&id, c)| (id, c.batches, c.stalled_ns)));
        assert_eq!(rows, vec![(7, 1, 4_000), (9, 0, 400)]);
        let text = render(&r, 10);
        assert!(text.contains("conn 7: 1 batches  2 ops  2.00 ops/commit  stalled 4000 ns"));
        assert!(text.contains("conn 9: 0 batches  0 ops  0.00 ops/commit  stalled 400 ns"));
    }

    /// A commit whose semantics byte names no semantics is counted apart
    /// (and shown), not filed under irrevocable.
    #[test]
    fn a_commit_of_unknown_semantics_is_counted_apart() {
        let events =
            vec![ev(code::TXN_COMMIT, 9, 5, 0, 0, 0, 10), ev(code::TXN_COMMIT, 3, 5, 0, 0, 0, 20)];
        let r = replay(&[(0, events.as_slice())]);
        let t = &r.classes[&5];
        assert_eq!(t.commits_by_semantics, [0, 0, 0, 1], "only the real irrevocable commit");
        assert_eq!((t.commits_unknown_semantics, t.commits()), (1, 2));
        let text = render(&r, 10);
        assert!(text.contains("commits[unknown] 1"), "{text}");
        assert!(text.contains("commits[irrevocable] 1"), "{text}");
    }

    #[test]
    fn commit_series_buckets_cover_the_span() {
        let mut events = vec![ev(code::TXN_BEGIN, 0, 0, 0, 0, 0, 0)];
        for i in 0..100u64 {
            events.push(ev(code::TXN_COMMIT, 0, 0, 0, 0, 0, i * 10));
        }
        let r = replay(&[(0, events.as_slice())]);
        let t = &r.classes[&0];
        assert_eq!(t.commit_series.iter().sum::<u64>(), 100);
        assert!(t.commit_series.iter().all(|&b| b > 0), "uniform commits fill every bucket");
    }

    /// Flush gaps and flips need the cross-ring order: flushes on two
    /// rings interleave in time, and the gaps between them are taken in
    /// timestamp order, not ring order.
    #[test]
    fn gaps_and_flips_are_ordered_across_rings() {
        let a = vec![
            ev(code::WAL_FSYNC, 0, NO_CLASS, 1, 10, 0, 100),
            ev(code::WAL_FSYNC, 0, NO_CLASS, 1, 10, 0, 300),
            ev(code::ADVISOR_FLIP, 2, 5, 0, 0, 0, 400),
        ];
        let b = vec![
            ev(code::WAL_FSYNC, 0, NO_CLASS, 1, 10, 0, 200),
            ev(code::ADVISOR_FLIP, 1, 4, 0, 0, 0, 50),
        ];
        let r = replay(&[(0, a.as_slice()), (1, b.as_slice())]);
        assert_eq!(r.wal_gap_ns.samples, 2);
        assert_eq!(r.wal_gap_ns.sum, 200, "gaps 100 + 100, not 200 + 100");
        assert_eq!(r.advisor_flips, vec![(50, 4, 1), (400, 5, 2)]);
    }

    /// Payload values are not validated by the dump codec, so sums over
    /// them saturate instead of overflowing.
    #[test]
    fn absurd_payloads_saturate() {
        let events = vec![
            ev(code::WAL_FSYNC, 0, NO_CLASS, u32::MAX, u64::MAX, u64::MAX, 1),
            ev(code::WAL_FSYNC, 0, NO_CLASS, u32::MAX, u64::MAX, u64::MAX, 2),
        ];
        let r = replay(&[(0, events.as_slice())]);
        assert_eq!(r.wal_fsync_ns.samples, 2);
        assert_eq!(r.wal_fsync_ns.sum, u64::MAX);
        assert_eq!(r.wal_batch.sum, 2 * u64::from(u32::MAX));
        assert_eq!(r.wal_fsync_ns.buckets().last(), Some((1 << 63, u64::MAX, 2)));
        assert!(render(&r, 10).contains("flushes 2"));
    }

    /// The deterministic oracle: a ring with two coalesced writes and a
    /// barrier read, with known waits, joins into spans whose
    /// components sum exactly to their end-to-end times.
    #[test]
    fn oracle_joins_batch_and_barrier() {
        let conn = 7;
        let events = vec![
            req_ev(code::REQ_RECV, 1, 10, conn, 32, 1_000),
            req_ev(code::BATCH_ENQUEUE, 1, 10, conn, 1, 1_100),
            req_ev(code::REQ_RECV, 1, 11, conn, 32, 1_200),
            req_ev(code::BATCH_ENQUEUE, 1, 11, conn, 2, 1_300),
            // The commit's waits: gate 100ns on attempt 0, arbitrate
            // 200ns on attempt 1, backoff 300ns, WAL wait 400ns.
            req_ev(code::WAIT_GATE, 1, 0, 100, 0, 2_000),
            req_ev(code::WAIT_ARBITRATE, 0, 1, 200, 0xAB, 2_100),
            req_ev(code::WAIT_CLOCK, 0, 1, 300, 0, 2_200),
            req_ev(code::WAL_FOLLOWER_WAIT, 0, 0, 400, 2, 2_800),
            req_ev(code::BATCH_COMMIT, 0, 2, conn, pack_seq_range(10, 11), 3_000),
            req_ev(code::REQ_DONE, 1, 10, conn, 16, 3_100),
            req_ev(code::REQ_DONE, 1, 11, conn, 16, 3_200),
            // A barrier read: recv → done, no batch events.
            req_ev(code::REQ_RECV, 2, 12, conn, 16, 4_000),
            req_ev(code::REQ_DONE, 2, 12, conn, 64, 4_500),
        ];
        let r = replay(&[(0, events.as_slice())]);
        assert_eq!(r.requests.len(), 3);
        assert_eq!(
            (r.unmatched_done, r.unclosed_recv, r.orphan_commits, r.overflowed),
            (0, 0, 0, 0)
        );

        let s10 = &r.requests[0];
        assert_eq!((s10.conn, s10.seq, s10.total_ns), (conn, 10, 2_100));
        assert_eq!((s10.stm_gate_ns, s10.stm_arbitrate_ns, s10.stm_backoff_ns), (100, 200, 300));
        assert_eq!(s10.wal_ns, 400);
        assert_eq!(s10.retries, 1);
        assert_eq!(s10.batch_ops, 2);
        // enqueue 1_100 → commit 3_000 is 1_900ns; minus 1_000ns of
        // measured waits leaves 900ns of batch filling.
        assert_eq!(s10.batch_wait_ns, 900);
        assert_eq!(s10.components_ns(), s10.total_ns, "components sum to the whole");

        let s11 = &r.requests[1];
        assert_eq!(s11.total_ns, 2_000);
        assert_eq!(s11.components_ns(), s11.total_ns);
        // Both batch members inherit the full shared waits.
        assert_eq!(s11.stm_ns(), 600);

        let s12 = &r.requests[2];
        assert_eq!((s12.total_ns, s12.batch_ops), (500, 0));
        assert_eq!(s12.other_ns, 500, "a barrier span is all remainder");

        let text = render(&r, 10);
        assert!(text.contains("3 requests joined"));
        assert!(text.contains("stm.arbitrate"));
        assert!(text.contains("conn 7"));
    }

    /// Every `REQ_RECV` is closed by exactly one `REQ_DONE`: a done
    /// without a recv and a recv without a done both land in the health
    /// counters, not in the spans.
    #[test]
    fn unmatched_events_become_health_counters() {
        let events = vec![
            req_ev(code::REQ_DONE, 1, 99, 5, 16, 100),
            req_ev(code::REQ_RECV, 1, 10, 5, 32, 200),
            req_ev(code::BATCH_COMMIT, 0, 1, 6, pack_seq_range(1, 1), 300),
        ];
        let r = replay(&[(0, events.as_slice())]);
        assert!(r.requests.is_empty());
        assert_eq!(r.unmatched_done, 1);
        assert_eq!(r.unclosed_recv, 1);
        assert_eq!(r.orphan_commits, 1, "commit for conn 6 covers nothing");
    }

    /// Rings join independently: the same (conn, seq) on two rings are
    /// two different requests (conn ids are process-unique in real
    /// traces; garbage inputs must still not cross-contaminate).
    #[test]
    fn rings_are_joined_independently() {
        let a =
            vec![req_ev(code::REQ_RECV, 1, 1, 9, 0, 10), req_ev(code::REQ_DONE, 1, 1, 9, 0, 30)];
        let b =
            vec![req_ev(code::REQ_RECV, 1, 1, 9, 0, 100), req_ev(code::REQ_DONE, 1, 1, 9, 0, 150)];
        let r = replay(&[(0, a.as_slice()), (1, b.as_slice())]);
        assert_eq!(r.requests.len(), 2);
        assert_eq!(r.requests[0].total_ns, 20);
        assert_eq!(r.requests[1].total_ns, 50);
        assert_eq!(r.requests[0].ring, 0);
        assert_eq!(r.requests[1].ring, 1);
    }

    #[test]
    fn untagged_commits_reset_the_bucket_without_attribution() {
        // A prefill-style commit (conn 0) between two requests must
        // clear accumulated waits so they don't leak into the next
        // tagged batch.
        let events = vec![
            req_ev(code::WAIT_GATE, 0, 0, 5_000, 0, 50),
            req_ev(code::BATCH_COMMIT, 0, 8, 0, 0, 60),
            req_ev(code::REQ_RECV, 1, 1, 3, 0, 100),
            req_ev(code::BATCH_ENQUEUE, 1, 1, 3, 1, 110),
            req_ev(code::BATCH_COMMIT, 0, 1, 3, pack_seq_range(1, 1), 200),
            req_ev(code::REQ_DONE, 1, 1, 3, 0, 250),
        ];
        let r = replay(&[(0, events.as_slice())]);
        assert_eq!(r.requests.len(), 1);
        assert_eq!(r.requests[0].stm_ns(), 0, "prefill waits stayed with the prefill");
        assert_eq!(r.orphan_commits, 0, "conn-0 commits are not orphans");
        assert_eq!(r.conns.keys().copied().collect::<Vec<_>>(), vec![3], "conn 0 is no connection");
    }

    use proptest::prelude::*;

    /// Byte-soup events: mostly-valid codes with small field values
    /// (so requests sometimes match up) mixed with fully arbitrary
    /// fields (so ranges, conns, payloads and timestamps are absurd).
    fn arb_event() -> impl Strategy<Value = TraceEvent> {
        (
            (0u8..24, any::<u8>(), prop_oneof![Just(NO_CLASS), 0u16..4, any::<u16>()]),
            (
                prop_oneof![Just(0u32), 0u32..16, any::<u32>()],
                prop_oneof![Just(0u64), 0u64..8, Just(u64::MAX), any::<u64>()],
            ),
            (any::<u64>(), any::<u64>()),
        )
            .prop_map(|((c, sub, class), (n, a), (b, ts))| ev(c, sub, class, n, a, b, ts))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The whole replay is total over garbage. Wrong codes, absurd
        /// ranges and payloads, interleavings the server never produces
        /// — all must replay and render into *some* report without
        /// panicking, with health counters that balance the books
        /// (every REQ_RECV is either closed, still open, or shed).
        #[test]
        fn garbage_streams_never_panic(
            rings in prop::collection::vec(
                (0u32..3, prop::collection::vec(arb_event(), 0..200)),
                0..4,
            )
        ) {
            let slices: Vec<(u32, &[TraceEvent])> =
                rings.iter().map(|(ring, events)| (*ring, events.as_slice())).collect();
            let report = replay(&slices);
            let all = || rings.iter().flat_map(|(_, evs)| evs.iter());
            prop_assert_eq!(report.events, all().count() as u64);
            let recvs = all().filter(|e| e.code == code::REQ_RECV).count() as u64;
            prop_assert_eq!(
                report.requests.len() as u64 + report.unclosed_recv + report.shed_open,
                recvs,
                "every REQ_RECV is accounted for"
            );
            // `other` is the saturating remainder, so whenever nothing
            // overflowed the parts must reassemble into the whole.
            if report.overflowed == 0 {
                for r in &report.requests {
                    prop_assert_eq!(r.components_ns(), r.total_ns);
                }
            }
            let _ = render(&report, 3);
        }
    }

    #[test]
    fn quantile_ranks() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&v, 500), 500);
        assert_eq!(quantile(&v, 999), 999);
        assert_eq!(quantile(&[], 500), 0);
        assert_eq!(quantile(&[42], 999), 42);
    }
}

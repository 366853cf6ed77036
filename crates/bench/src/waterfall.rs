//! Per-request latency waterfalls: joining causal request spans out of
//! a trace dump, offline.
//!
//! ## Why joining is allocation-free at capture time
//!
//! The server executes a request's whole life on the worker thread
//! that owns its connection: decode (`REQ_RECV`), admission
//! (`BATCH_ENQUEUE`), the STM commit and its waits (`WAIT_*`), the WAL
//! durability wait (`WAL_FOLLOWER_WAIT`), the commit point
//! (`BATCH_COMMIT`) and the response (`REQ_DONE`) all land on **one**
//! per-thread ring, in program order. So the hot path never materializes
//! a span — it pushes the same 32-byte events it always pushed — and
//! this module reconstructs every request's waterfall after the fact by
//! replaying each ring in order:
//!
//! * `REQ_RECV (conn, seq)` opens a request.
//! * `WAIT_GATE` / `WAIT_ARBITRATE` / `WAIT_CLOCK` /
//!   `WAL_FOLLOWER_WAIT` / `WAL_LINGER` / `WAL_FSYNC` accumulate into
//!   the ring's *pending commit* bucket.
//! * `BATCH_COMMIT (conn, [first, last])` assigns the bucket, in full,
//!   to every open request of that connection whose `seq` lies in the
//!   range, then resets the bucket. (A batch's waits are shared — every
//!   request in the batch waited through them.)
//! * `REQ_DONE (conn, seq)` closes the request: `total = done − recv`,
//!   and whatever the components don't explain is `other` (decode,
//!   execute, encode — the remainder is what makes the parts sum to
//!   the whole).
//!
//! Rings are replayed independently — merging them by timestamp would
//! interleave unrelated connections and break the positional
//! attribution. Garbage streams (truncated rings, shed events,
//! interleavings the server never produces) degrade into the
//! `unmatched_*` health counters; they never panic.

use std::collections::BTreeMap;

use polytm::trace::{code, unpack_seq_range, TraceEvent};
use polytm_obs::TraceDump;

/// Open requests a single ring tracks at once. Real traces need a few
/// dozen (one batch window's worth); the cap only matters for garbage
/// inputs, where it bounds memory instead of trusting the stream.
const MAX_OPEN_PER_RING: usize = 4096;

/// One joined request span: a wire request's end-to-end latency split
/// into the layers it waited on. All components are nanoseconds;
/// `batch_wait_ns + stm_ns() + wal_ns + other_ns == total_ns` except
/// for the rare overflow spans counted by
/// [`WaterfallReport::overflowed`].
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
    /// WAL durability wait (leader or follower) for the batch.
    pub wal_ns: u64,
    /// Flush leader's wait for in-flight siblings observed while this
    /// batch committed (informational: already inside `wal_ns` when
    /// this thread led the flush — not added into the sum).
    pub wal_linger_ns: u64,
    /// Fsync time observed while this batch committed (informational,
    /// inside `wal_ns` like the linger).
    pub wal_fsync_ns: u64,
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

/// The joined view of a dump, plus join-health counters. The counters
/// matter: a waterfall whose health counters are nonzero is built from
/// an incomplete or corrupt stream, and the quantiles below it inherit
/// that asterisk.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WaterfallReport {
    /// Every request that both opened and closed, in close order.
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
    linger_ns: u64,
    fsync_ns: u64,
    retries: u32,
}

/// Join one ring's events (in ring order) into `report`.
fn join_ring(ring: u32, events: &[TraceEvent], report: &mut WaterfallReport) {
    let mut open: Vec<OpenReq> = Vec::new();
    let mut pending = PendingCommit::default();

    for ev in events {
        match ev.code {
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
                if let Some(req) = open.iter_mut().rev().find(|r| r.conn == ev.a && r.seq == ev.n) {
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
            code::WAL_LINGER => pending.linger_ns = pending.linger_ns.saturating_add(ev.a),
            code::WAL_FSYNC => pending.fsync_ns = pending.fsync_ns.saturating_add(ev.a),
            code::BATCH_COMMIT => {
                let conn = ev.a;
                if conn != 0 {
                    let (first, last) = unpack_seq_range(ev.b);
                    let mut hit = false;
                    for req in open.iter_mut().filter(|r| {
                        r.conn == conn && first <= r.seq && r.seq <= last && r.committed.is_none()
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
            code::REQ_DONE => {
                let Some(at) = open.iter().position(|r| r.conn == ev.a && r.seq == ev.n) else {
                    report.unmatched_done += 1;
                    continue;
                };
                let req = open.remove(at);
                let total_ns = ev.ts_ns.saturating_sub(req.recv_ts);
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
                    span.wal_linger_ns = commit.linger_ns;
                    span.wal_fsync_ns = commit.fsync_ns;
                    span.retries = commit.retries;
                    span.batch_ops = ops;
                    let measured = span.stm_ns() + span.wal_ns;
                    let enq = req.enqueue_ts.unwrap_or(req.recv_ts);
                    span.batch_wait_ns = commit_ts.saturating_sub(enq).saturating_sub(measured);
                }
                let explained =
                    span.batch_wait_ns.saturating_add(span.stm_ns()).saturating_add(span.wal_ns);
                if explained > total_ns {
                    report.overflowed += 1;
                }
                span.other_ns = total_ns.saturating_sub(explained);
                report.requests.push(span);
            }
            _ => {}
        }
    }
    report.unclosed_recv += open.len() as u64;
}

/// Join a sequence of `(ring, events)` slices, each in its ring's FIFO
/// order. The pure core of [`join`], so tests can feed synthetic
/// streams without building a [`TraceDump`].
pub fn join_rings<'a>(rings: impl IntoIterator<Item = (u32, &'a [TraceEvent])>) -> WaterfallReport {
    let mut report = WaterfallReport::default();
    for (ring, events) in rings {
        join_ring(ring, events, &mut report);
    }
    report
}

/// Join every ring of a dump into per-request waterfalls.
pub fn join(dump: &TraceDump) -> WaterfallReport {
    join_rings(dump.rings.iter().map(|r| (r.ring, r.events.as_slice())))
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

/// Render the waterfall section `traceview --waterfall` prints:
/// per-layer p50/p99/p999 attribution, the slowest requests'
/// decompositions, per-connection summaries, and the join-health line.
pub fn render(report: &WaterfallReport, top: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let reqs = &report.requests;
    let _ = writeln!(out, "== request waterfall ({} requests joined) ==", reqs.len());
    if reqs.is_empty() {
        let _ =
            writeln!(out, "(no request spans: not a server-kv trace, or REQ_* events were shed)");
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
    use polytm::trace::{pack_seq_range, NO_CLASS};

    fn ev(code: u8, sub: u8, n: u32, a: u64, b: u64, ts: u64) -> TraceEvent {
        let mut e = TraceEvent::new(code, sub, NO_CLASS, n, a, b);
        e.ts_ns = ts;
        e
    }

    /// The deterministic oracle: a ring with two coalesced writes and a
    /// barrier read, with known waits, joins into spans whose
    /// components sum exactly to their end-to-end times.
    #[test]
    fn oracle_joins_batch_and_barrier() {
        let conn = 7;
        let events = vec![
            ev(code::REQ_RECV, 1, 10, conn, 32, 1_000),
            ev(code::BATCH_ENQUEUE, 1, 10, conn, 1, 1_100),
            ev(code::REQ_RECV, 1, 11, conn, 32, 1_200),
            ev(code::BATCH_ENQUEUE, 1, 11, conn, 2, 1_300),
            // The commit's waits: gate 100ns on attempt 0, arbitrate
            // 200ns on attempt 1, backoff 300ns, WAL wait 400ns.
            ev(code::WAIT_GATE, 1, 0, 100, 0, 2_000),
            ev(code::WAIT_ARBITRATE, 0, 1, 200, 0xAB, 2_100),
            ev(code::WAIT_CLOCK, 0, 1, 300, 0, 2_200),
            ev(code::WAL_FOLLOWER_WAIT, 0, 0, 400, 2, 2_800),
            ev(code::BATCH_COMMIT, 0, 2, conn, pack_seq_range(10, 11), 3_000),
            ev(code::REQ_DONE, 1, 10, conn, 16, 3_100),
            ev(code::REQ_DONE, 1, 11, conn, 16, 3_200),
            // A barrier read: recv → done, no batch events.
            ev(code::REQ_RECV, 2, 12, conn, 16, 4_000),
            ev(code::REQ_DONE, 2, 12, conn, 64, 4_500),
        ];
        let r = join_rings([(0, events.as_slice())]);
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
            ev(code::REQ_DONE, 1, 99, 5, 16, 100),
            ev(code::REQ_RECV, 1, 10, 5, 32, 200),
            ev(code::BATCH_COMMIT, 0, 1, 6, pack_seq_range(1, 1), 300),
        ];
        let r = join_rings([(0, events.as_slice())]);
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
        let a = vec![ev(code::REQ_RECV, 1, 1, 9, 0, 10), ev(code::REQ_DONE, 1, 1, 9, 0, 30)];
        let b = vec![ev(code::REQ_RECV, 1, 1, 9, 0, 100), ev(code::REQ_DONE, 1, 1, 9, 0, 150)];
        let r = join_rings([(0, a.as_slice()), (1, b.as_slice())]);
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
            ev(code::WAIT_GATE, 0, 0, 5_000, 0, 50),
            ev(code::BATCH_COMMIT, 0, 8, 0, 0, 60),
            ev(code::REQ_RECV, 1, 1, 3, 0, 100),
            ev(code::BATCH_ENQUEUE, 1, 1, 3, 1, 110),
            ev(code::BATCH_COMMIT, 0, 1, 3, pack_seq_range(1, 1), 200),
            ev(code::REQ_DONE, 1, 1, 3, 0, 250),
        ];
        let r = join_rings([(0, events.as_slice())]);
        assert_eq!(r.requests.len(), 1);
        assert_eq!(r.requests[0].stm_ns(), 0, "prefill waits stayed with the prefill");
        assert_eq!(r.orphan_commits, 0, "conn-0 commits are not orphans");
    }

    use proptest::prelude::*;

    /// Byte-soup events: mostly-valid codes with small field values
    /// (so requests sometimes match up) mixed with fully arbitrary
    /// fields (so ranges, conns, and timestamps are absurd).
    fn arb_event() -> impl Strategy<Value = TraceEvent> {
        (
            (0u8..24, any::<u8>()),
            (
                prop_oneof![Just(0u32), 0u32..16, any::<u32>()],
                prop_oneof![Just(0u64), 0u64..8, any::<u64>()],
            ),
            (any::<u64>(), any::<u64>()),
        )
            .prop_map(|((c, sub), (n, a), (b, ts))| {
                let mut e = TraceEvent::new(c, sub, NO_CLASS, n, a, b);
                e.ts_ns = ts;
                e
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Satellite: the joiner is total over garbage. Wrong codes,
        /// absurd ranges, interleavings the server never produces —
        /// all must join into *some* report without panicking, with
        /// health counters that balance the books (every REQ_RECV is
        /// either closed, still open, or shed).
        #[test]
        fn garbage_streams_never_panic(
            rings in prop::collection::vec(
                (0u32..3, prop::collection::vec(arb_event(), 0..200)),
                0..4,
            )
        ) {
            let report =
                join_rings(rings.iter().map(|(ring, events)| (*ring, events.as_slice())));
            let recvs: u64 = rings
                .iter()
                .flat_map(|(_, evs)| evs.iter())
                .filter(|e| e.code == code::REQ_RECV)
                .count() as u64;
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

//! The always-on tracing hook: fixed-size binary events and the
//! process-wide [`TraceSink`].
//!
//! Like [`crate::RedoSink`] and [`crate::SemanticsSource`], the sink is
//! a trait defined here so the core stays dependency-free; the ring
//! implementation lives in `polytm-obs`. Unlike those two, the sink is
//! **process-global** rather than per-[`crate::Stm`]: trace events come
//! from every layer (the transaction runtime, the advisor's epoch
//! controller, the WAL's group-commit leader, the server's read-sweep
//! coalescer), most of which have no `Stm` in hand at the emit site, and
//! a trace that interleaves all layers on one clock is exactly what the
//! replay wants. One process, one trace.
//!
//! ## Hot-path cost
//!
//! With no sink installed, every emit site is one `Acquire` load of an
//! always-cached static and a perfectly predicted branch — the
//! event-building closure is never evaluated. The transaction loop
//! hoists even that load out of the per-attempt path (one load per
//! `run`). With a sink installed, the contract below bounds the cost to
//! building a 32-byte value and one ring write; see `DESIGN.md` §11 for
//! the full overhead argument and measured numbers.

use std::sync::OnceLock;

use crate::semantics::Semantics;

/// One fixed-size (32-byte) binary trace event.
///
/// The field meanings depend on [`TraceEvent::code`]; the per-code
/// conventions are documented on the [`code`] constants. `ts_ns` is
/// stamped by the sink (nanoseconds since the sink's own epoch), not by
/// the emitter — emitters leave it 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceEvent {
    /// Nanoseconds since the installed sink's epoch (sink-stamped).
    pub ts_ns: u64,
    /// Event kind — one of the [`code`] constants.
    pub code: u8,
    /// Kind-specific discriminant: a semantics code for transaction
    /// events, an abort-cause code for aborts (see [`semantics_code`]
    /// and [`crate::AbortCause::code`]).
    pub sub: u8,
    /// Transaction class ([`crate::ClassId`]), or [`NO_CLASS`].
    pub class: u16,
    /// Kind-specific small count (retries, batch ops, …).
    pub n: u32,
    /// Kind-specific wide payload (address, latency, packed word, …).
    pub a: u64,
    /// Second kind-specific wide payload.
    pub b: u64,
}

impl TraceEvent {
    /// Build an event with `ts_ns = 0` (the sink stamps the time).
    pub fn new(code: u8, sub: u8, class: u16, n: u32, a: u64, b: u64) -> Self {
        Self { ts_ns: 0, code, sub, class, n, a, b }
    }
}

/// `class` value for transactions that carry no [`crate::ClassId`].
pub const NO_CLASS: u16 = u16::MAX;

/// Event-kind codes and their field conventions.
pub mod code {
    /// A *re*-attempt started (after an abort). `sub` = semantics code,
    /// `n` = retries so far (≥ 1). First attempts emit no begin event —
    /// they are implied by their own commit/abort event, which carries
    /// the retry count — so a transaction that commits on its first try
    /// costs one ring push, not two. Total attempts are therefore
    /// `commits + aborts`, and (aside from cancelled first attempts,
    /// which are invisible by design) `begin events == aborts`.
    pub const TXN_BEGIN: u8 = 1;
    /// A transaction committed. `sub` = semantics code, `n` = retries,
    /// `a` = write version (0 for read-only commits), `b` = live reads
    /// in the high 32 bits | writes in the low 32 bits.
    pub const TXN_COMMIT: u8 = 2;
    /// A transaction attempt aborted. `sub` = abort-cause code, `n` =
    /// retries before this abort, `a` = conflicting address (0 when the
    /// cause carries none).
    pub const TXN_ABORT: u8 = 3;
    /// A read-version extension succeeded. `sub` = semantics code,
    /// `n` = extensions so far in this attempt, `a` = the address whose
    /// read triggered the extension.
    pub const TXN_EXTEND: u8 = 4;
    /// The advisor closed an epoch. `n` = classes whose policy changed,
    /// `a` = the epoch's index.
    pub const ADVISOR_EPOCH: u8 = 5;
    /// The advisor flipped one class's installed policy. `sub` = the
    /// new semantics code, `a` = old packed policy word, `b` = new
    /// packed policy word ([`u64::MAX`] encodes "previously unset").
    pub const ADVISOR_FLIP: u8 = 6;
    // 7 and 8 are retired: they were the point events `WAL_FLUSH` and
    // `SERVER_BATCH`, which `WAL_FSYNC` and `BATCH_COMMIT` repeat. Never
    // reuse them, so older dumps still decode (and replay skips those
    // events as unknown).

    // -- causal span codes (duration-style; emitted only when the
    // attempt/flush actually waited, so the zero-wait fast path stays at
    // the PR 9 one-ring-push budget) ---------------------------------

    /// A transaction attempt waited at the era gate. `sub` = gate site
    /// ([`super::GATE_SAMPLE_RV`] / [`super::GATE_ENTER_COMMIT`] /
    /// [`super::GATE_ENTER_IRREVOCABLE`]), `n` = retries so far (the
    /// attempt ordinal), `a` = nanoseconds spent waiting, summed over
    /// the attempt. Emitted at attempt end, just before its
    /// commit/abort event.
    pub const WAIT_GATE: u8 = 9;
    /// A transaction attempt waited for an owned lock under an
    /// arbitrated `Wait` decision. `sub` = semantics code, `n` =
    /// retries, `a` = nanoseconds waited (summed over the attempt),
    /// `b` = the last contended address.
    pub const WAIT_ARBITRATE: u8 = 10;
    /// A transaction waited out a contention backoff between attempts.
    /// `sub` = semantics code, `n` = retries (the attempt just
    /// aborted), `a` = nanoseconds slept.
    pub const WAIT_CLOCK: u8 = 11;
    /// A committer waited for the WAL group-commit leader to make its
    /// sequence durable. `a` = nanoseconds waited, `b` = the awaited
    /// sequence number.
    pub const WAL_FOLLOWER_WAIT: u8 = 12;
    /// The WAL flush leader waited for logged transactions it saw in
    /// flight (never emitted by a leader that saw none). `n` = siblings
    /// in flight when the wait began, `a` = nanoseconds waited — at
    /// most the group window.
    pub const WAL_LINGER: u8 = 13;
    /// A WAL group-commit leader flushed a batch. `n` = entries in the
    /// batch, `a` = fsync nanoseconds, `b` = bytes appended. One per
    /// successful flush: the replay takes batch sizes, inter-flush gaps
    /// and fsync latency from it, and attributes the fsync to requests
    /// on the leader's ring.
    pub const WAL_FSYNC: u8 = 14;
    /// The server decoded one request frame in a read sweep — a
    /// request span opens. `sub` = opcode, `n` = request sequence
    /// number, `a` = connection id, `b` = payload bytes.
    pub const REQ_RECV: u8 = 15;
    /// The server finished encoding one request's response — the span
    /// closes. `sub` = opcode, `n` = request sequence number, `a` =
    /// connection id, `b` = response bytes.
    pub const REQ_DONE: u8 = 16;
    /// A write request joined the connection's coalescing run. `n` =
    /// request sequence number, `a` = connection id, `b` = ops in the
    /// run after enqueue.
    pub const BATCH_ENQUEUE: u8 = 17;
    /// The coalescing run committed as one STM transaction (emitted
    /// after a successful commit only, and after the log force that
    /// covers it when the store is durable). `n` = ops, `a` = connection id
    /// (`0` = untagged embedder call), `b` = first sequence in the high
    /// 32 bits | last sequence in the low 32 bits (the replay ties every
    /// enqueued request in `[first, last]` to this commit, and counts
    /// tagged commits as per-connection coalescing).
    pub const BATCH_COMMIT: u8 = 18;
    /// A reply-backpressure stall ended. `a` = connection id, `b` =
    /// nanoseconds the connection spent stalled.
    pub const NET_STALL: u8 = 19;
}

/// [`code::WAIT_GATE`] site: the begin/extend read-version sample.
pub const GATE_SAMPLE_RV: u8 = 0;
/// [`code::WAIT_GATE`] site: the commit-side era-gate entry.
pub const GATE_ENTER_COMMIT: u8 = 1;
/// [`code::WAIT_GATE`] site: the irrevocable-token acquisition.
pub const GATE_ENTER_IRREVOCABLE: u8 = 2;

/// Pack a [`code::BATCH_COMMIT`] sequence range into its `b` payload.
pub fn pack_seq_range(first: u32, last: u32) -> u64 {
    (u64::from(first) << 32) | u64::from(last)
}

/// Unpack a [`code::BATCH_COMMIT`] `b` payload into `(first, last)`.
pub fn unpack_seq_range(b: u64) -> (u32, u32) {
    ((b >> 32) as u32, b as u32)
}

/// Human-readable name for an event code (for trace tools; unknown codes
/// render as `"unknown"`).
pub fn code_name(c: u8) -> &'static str {
    match c {
        code::TXN_BEGIN => "txn-begin",
        code::TXN_COMMIT => "txn-commit",
        code::TXN_ABORT => "txn-abort",
        code::TXN_EXTEND => "txn-extend",
        code::ADVISOR_EPOCH => "advisor-epoch",
        code::ADVISOR_FLIP => "advisor-flip",
        code::WAIT_GATE => "wait-gate",
        code::WAIT_ARBITRATE => "wait-arbitrate",
        code::WAIT_CLOCK => "wait-clock",
        code::WAL_FOLLOWER_WAIT => "wal-follower-wait",
        code::WAL_LINGER => "wal-linger",
        code::WAL_FSYNC => "wal-fsync",
        code::REQ_RECV => "req-recv",
        code::REQ_DONE => "req-done",
        code::BATCH_ENQUEUE => "batch-enqueue",
        code::BATCH_COMMIT => "batch-commit",
        code::NET_STALL => "net-stall",
        _ => "unknown",
    }
}

/// Stable wire code for a [`Semantics`] (the `sub` of transaction
/// events). Elastic windows are not encoded — the trace cares about the
/// discipline, not its tuning.
pub fn semantics_code(s: Semantics) -> u8 {
    match s {
        Semantics::Opaque => 0,
        Semantics::Elastic { .. } => 1,
        Semantics::Snapshot => 2,
        Semantics::Irrevocable => 3,
    }
}

/// Name for a [`semantics_code`] value: the semantics'
/// [`Semantics::label`], or `"unknown"`.
pub fn semantics_name(sub: u8) -> &'static str {
    [Semantics::Opaque, Semantics::elastic(), Semantics::Snapshot, Semantics::Irrevocable]
        .into_iter()
        .find(|&s| semantics_code(s) == sub)
        .map_or("unknown", Semantics::label)
}

/// Where trace events go. Implementations must be wait-free on the
/// caller: `record` runs on transaction hot paths and inside the WAL
/// flush leader, so it must never block, never allocate on the steady
/// state, and shed load (counting drops) rather than push back. The
/// sink stamps [`TraceEvent::ts_ns`] against its own monotonic epoch.
pub trait TraceSink: Send + Sync {
    /// Record one event (see the contract on the trait).
    fn record(&self, ev: TraceEvent);
}

static SINK: OnceLock<&'static dyn TraceSink> = OnceLock::new();

/// Install the process-wide sink. Install-once: returns `false` (and
/// leaves the existing sink) if one is already installed. The `'static`
/// borrow keeps every emit site a plain load — leak the sink
/// (`Box::leak`) or store it in a `static`; tracing is a
/// process-lifetime concern.
pub fn install(sink: &'static dyn TraceSink) -> bool {
    SINK.set(sink).is_ok()
}

/// The installed sink, if any. Hot loops hoist this load and branch on
/// the returned `Option` per event.
#[inline]
pub fn sink() -> Option<&'static dyn TraceSink> {
    SINK.get().copied()
}

/// Emit one event through the installed sink, if any. The closure is
/// only evaluated when a sink is installed.
#[inline]
pub fn emit(build: impl FnOnce() -> TraceEvent) {
    if let Some(s) = SINK.get() {
        s.record(build());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AbortCause;

    #[test]
    fn codes_and_names_round_trip() {
        for (s, code) in [
            (Semantics::Opaque, 0),
            (Semantics::elastic(), 1),
            (Semantics::Snapshot, 2),
            (Semantics::Irrevocable, 3),
        ] {
            assert_eq!(semantics_code(s), code, "semantics codes are fixed on the wire");
            assert_eq!(semantics_name(code), s.label());
        }
        assert_eq!(semantics_name(4), "unknown");
        for (c, code) in AbortCause::ALL.into_iter().zip(1u8..) {
            assert_eq!(c.code(), code, "abort-cause codes are fixed on the wire");
        }
        for k in 1..=19u8 {
            if k == 7 || k == 8 {
                assert_eq!(code_name(k), "unknown", "code {k} is retired");
            } else {
                assert_ne!(code_name(k), "unknown");
            }
        }
        assert_eq!(code_name(0), "unknown");
        assert_eq!(code_name(20), "unknown");
    }

    #[test]
    fn seq_range_packs_and_unpacks() {
        assert_eq!(unpack_seq_range(pack_seq_range(0, 0)), (0, 0));
        assert_eq!(unpack_seq_range(pack_seq_range(7, 123)), (7, 123));
        assert_eq!(unpack_seq_range(pack_seq_range(u32::MAX, 1)), (u32::MAX, 1));
    }

    #[test]
    fn event_is_32_bytes_of_payload() {
        // The dump codec serializes exactly these fields; keep the
        // struct in lockstep with the 32-byte wire layout.
        assert_eq!(8 + 1 + 1 + 2 + 4 + 8 + 8, 32);
        let ev = TraceEvent::new(code::TXN_COMMIT, 1, 7, 3, 42, 99);
        assert_eq!(ev.ts_ns, 0);
        assert_eq!(ev.class, 7);
    }
}

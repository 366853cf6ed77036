//! The scenario-matrix engine: every registered backend (transactional,
//! plus the coarse-lock control) × every workload scenario × a thread
//! sweep, reporting throughput, latency quantiles and (for tx backends) abort
//! ratios as machine-readable rows in `BENCH_scenarios.json`. The
//! matrix has four wings: the set-shaped scenarios over `BACKENDS`,
//! the YCSB-style record-store family (`ycsb-*`) over `KV_BACKENDS`,
//! the HTAP family (`htap`) — long analytical scans concurrent with
//! YCSB-A-style writers — over both registries, and the network
//! front-end family (`server-kv`) — an open-loop pipelined wire
//! workload against a loopback `polytm-server` — over
//! `SERVER_BACKENDS`.
//!
//! ```text
//! cargo run --release -p polytm-bench --bin scenarios -- --label after
//! cargo run --release -p polytm-bench --bin scenarios -- --quick --out /tmp/smoke.json
//! cargo run --release -p polytm-bench --bin scenarios -- --scenario htap --backend kv-sharded
//! cargo run --release -p polytm-bench --bin scenarios -- --quick --trace /tmp/run.trace
//! ```
//!
//! `--trace <path>` installs the `polytm-obs` ring tracer before any
//! cell runs and writes the ring dump to `<path>` at exit; decode it
//! with `traceview`.
//!
//! Rows share `BENCH_core.json`'s shape, extended with latency
//! quantiles, per-cause abort counts over the measured window and the
//! runner's core count; kv rows additionally carry their read-hit
//! ratio and key space; htap rows carry scan-only latency quantiles
//! and the number of scan-starving aborts:
//!
//! ```text
//! {rev, label, bench, threads, cores, ops_per_sec, abort_ratio,
//!  p50_ns, p99_ns, p999_ns,
//!  aborts_lock, aborts_validation, aborts_cut, aborts_capacity, aborts_unavailable
//!  [, found_ratio, kv_space]
//!  [, scan_p50_ns, scan_p99_ns, scan_p999_ns, scan_aborts]
//!  [, conns, batch_ops_per_commit, wait_stm_ns, wait_wal_ns, wait_net_ns]
//!  [, trace_dropped]}
//! ```
//!
//! `server-kv` rows decompose where commits waited: `wait_stm_ns`
//! (era gate + arbitration + backoff), `wait_wal_ns` (group-commit
//! durability), `wait_net_ns` (reply backpressure) — the same
//! components `traceview`'s request waterfall attributes per request.
//! Traced runs (`--trace`) add `trace_dropped`, the events each cell
//! shed from its rings (bounded by the dump's drop total, which
//! `traceview --deny-drops` fails on), and install the slow-request
//! flight recorder (`--slow-us`, default 500).
//!
//! `bench` is `scenario/backend` (e.g. `hotspot/tx-list`,
//! `ycsb-a/kv-sharded`, `htap/kv-adaptive`,
//! `server-kv/kv-durable-async`). For `htap/*` rows the
//! `threads` column is the *writer* count (the sweep axis); one
//! dedicated scanner thread runs alongside. For `server-kv/*` rows
//! `threads` is the client *connection* count swept at a fixed total
//! offered rate, and latency is the wire round trip measured from
//! each request's intended (open-loop) send time. `--quick` shrinks the
//! measured windows so CI can exercise the whole matrix in seconds;
//! only rows from a quiet machine are trajectory data.

use std::sync::Arc;
use std::time::Duration;

use polytm_bench::report::{append_rows, git_rev, BenchCli};
use polytm_bench::{
    Backend, Family, KvBackend, ServerBackend, Shape, BACKENDS, KV_BACKENDS, SERVER_BACKENDS,
};
use polytm_workload::{
    run_htap_kv, run_htap_set, run_kv_scenario_with, run_scenario_with, HtapSpec, KeyDist, KvMix,
    KvSpec, MixSchedule, OpMix, WorkloadSpec,
};

/// Scan-side columns of an HTAP row: scan-only latency quantiles plus
/// the aborts that starve scans (registry capacity + history
/// truncation) over the measured window.
struct ScanFields {
    p50_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
    aborts: u64,
}

/// Durability columns of a row whose backend commits through a WAL:
/// the group-commit bucket over the measured window, plus the fsync
/// rate the window implies.
struct DurabilityFields {
    commits_durable: u64,
    group_commit_batches: u64,
    fsyncs: u64,
    wal_bytes: u64,
    fsyncs_per_sec: f64,
}

/// Durability columns from the measured window's stats, when the
/// backend logged anything (non-durable backends report all-zero
/// buckets and get no columns).
fn durability_fields(
    stats: Option<&polytm::StatsSnapshot>,
    window: Duration,
) -> Option<DurabilityFields> {
    let s = stats?;
    if s.commits_durable == 0 && s.fsyncs == 0 {
        return None;
    }
    Some(DurabilityFields {
        commits_durable: s.commits_durable,
        group_commit_batches: s.group_commit_batches,
        fsyncs: s.fsyncs,
        wal_bytes: s.wal_bytes,
        fsyncs_per_sec: s.fsyncs as f64 / window.as_secs_f64().max(f64::EPSILON),
    })
}

/// One output row.
struct Row {
    bench: String,
    threads: usize,
    ops_per_sec: f64,
    abort_ratio: f64,
    p50_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
    /// Aborts by cause over the measured window (all 0 for
    /// non-transactional backends): lock-conflict, validation, elastic
    /// cut, snapshot-registry capacity, history-unavailable.
    aborts_by_cause: [u64; 5],
    /// KV rows only: `(found_ratio, key_space)`.
    kv: Option<(f64, u64)>,
    /// HTAP rows only: the scan-side columns.
    scan: Option<ScanFields>,
    /// Durable-backend rows only: the WAL / group-commit columns.
    durability: Option<DurabilityFields>,
    /// `server-kv` rows only: connection count and the mean number of
    /// wire write requests coalesced into one STM commit.
    server: Option<ServerFields>,
    /// Traced runs only: events this cell shed from the ring tracer
    /// (nonzero means the cell's trace is incomplete — CI's perf-smoke
    /// fails on it).
    trace_dropped: Option<u64>,
}

/// The network-front-end columns (`server-kv` rows).
struct ServerFields {
    conns: usize,
    batch_ops_per_commit: f64,
    /// Nanoseconds the window's commits spent blocked inside the STM
    /// (era gate + arbitrated lock waits + contention backoff).
    wait_stm_ns: u64,
    /// Nanoseconds the window's commits spent blocked on WAL
    /// durability (group-commit leader + follower waits).
    wait_wal_ns: u64,
    /// Nanoseconds connections spent excluded from reads by reply
    /// backpressure over the window.
    wait_net_ns: u64,
}

/// Measurement windows for the two modes.
struct Knobs {
    sweep: Duration,
    warmup: Duration,
    threads: &'static [usize],
    /// `server-kv` wing: the connection sweep (its `threads` axis).
    server_conns: &'static [usize],
    /// `server-kv` wing: total offered load (ops/s) split across the
    /// connections, so the sweep varies coalescing opportunity at
    /// constant demand rather than demand itself.
    server_rate: f64,
}

impl Knobs {
    fn new(quick: bool) -> Self {
        if quick {
            Self {
                sweep: Duration::from_millis(80),
                warmup: Duration::from_millis(20),
                threads: &[1, 2],
                server_conns: &[1, 2],
                server_rate: 6_000.0,
            }
        } else {
            Self {
                sweep: Duration::from_millis(300),
                warmup: Duration::from_millis(60),
                threads: &[1, 2, 4],
                server_conns: &[1, 4, 16],
                server_rate: 20_000.0,
            }
        }
    }
}

/// One workload scenario: a named (mix, distribution) pair, scaled to
/// the backend's key space.
struct Scenario {
    name: &'static str,
    mix: fn() -> MixSchedule,
    dist: fn(u64) -> KeyDist,
}

/// The scenario axis. Each entry stresses a different regime — see
/// DESIGN.md "The scenario matrix" for what each one is meant to
/// surface.
const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "read-dominated",
        mix: || OpMix::updates(10).into(),
        dist: |_| KeyDist::Uniform,
    },
    Scenario { name: "write-heavy", mix: || OpMix::updates(80).into(), dist: |_| KeyDist::Uniform },
    Scenario { name: "zipf-skew", mix: || OpMix::updates(20).into(), dist: |_| KeyDist::Zipf(1.1) },
    Scenario {
        name: "hotspot",
        mix: || OpMix::updates(20).into(),
        dist: |space| KeyDist::Hotspot { hot_fraction: 0.8, hot_keys: (space / 64).max(1) },
    },
    Scenario {
        // Named after the schedule constructor; earlier trajectory rows
        // carry the old name `phased` for the same cell.
        name: "phased_burst",
        // Read-heavy cruising interrupted by write bursts, cycling
        // deterministically by per-thread op index.
        mix: || MixSchedule::phased_burst(5, 2000, 90, 500),
        dist: |_| KeyDist::Uniform,
    },
    Scenario {
        name: "snapshot-scan",
        // Point updates against whole-range readers: the regime where
        // snapshot semantics (tx) vs a scan under the global lock
        // differ the most.
        mix: || OpMix::with_scans(20, 10).into(),
        dist: |_| KeyDist::Uniform,
    },
];

/// Key space per backend shape: O(n)-traversal structures get the E4
/// size, O(1) tables the E6 size.
fn key_space(shape: Shape) -> u64 {
    match shape {
        Shape::Ordered => 512,
        Shape::Hash => 8192,
    }
}

/// One YCSB-style record-store scenario over the KV backends.
struct KvScenario {
    name: &'static str,
    mix: fn() -> KvMix,
    dist: fn() -> KeyDist,
}

/// Key population for the YCSB family (hash-shaped stores).
const KV_KEY_SPACE: u64 = 8192;

/// The YCSB core-workload axis. A/B/C/F draw Zipf(0.99) keys (the YCSB
/// default skew); D reads the latest-inserted records behind a growing
/// frontier.
const KV_SCENARIOS: &[KvScenario] = &[
    KvScenario { name: "ycsb-a", mix: KvMix::ycsb_a, dist: || KeyDist::Zipf(0.99) },
    KvScenario { name: "ycsb-b", mix: KvMix::ycsb_b, dist: || KeyDist::Zipf(0.99) },
    KvScenario { name: "ycsb-c", mix: KvMix::ycsb_c, dist: || KeyDist::Zipf(0.99) },
    KvScenario { name: "ycsb-d", mix: KvMix::ycsb_d, dist: || KeyDist::Latest(0.99) },
    KvScenario { name: "ycsb-f", mix: KvMix::ycsb_f, dist: || KeyDist::Zipf(0.99) },
];

/// The HTAP scenario name (its writer mix is fixed: YCSB-A-shaped
/// churn; the analytical side is one dedicated scanner thread).
const HTAP_SCENARIO: &str = "htap";

/// The network-front-end scenario name: an open-loop, pipelined wire
/// workload against a loopback `polytm-server`, sweeping connections
/// at a fixed total offered rate.
const SERVER_SCENARIO: &str = "server-kv";

/// Key population for the server wing (matches the YCSB family).
const SERVER_KEY_SPACE: u64 = 8192;

/// Scanners per HTAP cell (the `threads` sweep varies writers).
const HTAP_SCANNERS: usize = 1;

/// HTAP scans are *long*: a quarter of the key space per scan, not the
/// point-mix default of 1/32nd.
fn htap_scan_span(space: u64) -> u64 {
    (space / 4).max(1)
}

fn htap_spec(writers: usize, space: u64, dist: KeyDist, k: &Knobs) -> HtapSpec {
    HtapSpec {
        writers,
        scanners: HTAP_SCANNERS,
        key_space: space,
        prefill: true,
        dist,
        scan_span: htap_scan_span(space),
        duration: k.sweep,
        warmup: k.warmup,
        record_latency: true,
        seed: 0x117A_90F1 ^ (writers as u64) << 32 ^ space,
    }
}

fn run_kv_cell(backend: &KvBackend, scenario: &KvScenario, threads: usize, k: &Knobs) -> Row {
    let instance = backend.make();
    let spec = KvSpec {
        threads,
        key_space: KV_KEY_SPACE,
        prefill: true,
        mix: (scenario.mix)(),
        dist: (scenario.dist)(),
        scan_span: WorkloadSpec::default_scan_span(KV_KEY_SPACE),
        duration: k.sweep,
        warmup: k.warmup,
        record_latency: true,
        seed: 0x7C5B_A210 ^ (threads as u64) << 32,
    };
    let m = run_kv_scenario_with(instance.table.as_ref(), &spec, || {
        if let Some(stm) = &instance.stm {
            stm.reset_stats();
        }
    });
    let stats = instance.stm.as_ref().map(|stm| stm.stats());
    let abort_ratio = stats.as_ref().map_or(0.0, |s| s.abort_ratio());
    let aborts_by_cause =
        stats.as_ref().map_or([0; 5], |s| s.aborts_by_cause().map(|(_label, count)| count));
    Row {
        bench: format!("{}/{}", scenario.name, backend.name),
        threads,
        ops_per_sec: m.measurement.throughput,
        abort_ratio,
        p50_ns: m.measurement.latency.p50(),
        p99_ns: m.measurement.latency.p99(),
        p999_ns: m.measurement.latency.p999(),
        aborts_by_cause,
        kv: Some((m.found_ratio(), KV_KEY_SPACE)),
        scan: None,
        durability: durability_fields(stats.as_ref(), k.sweep),
        server: None,
        trace_dropped: None,
    }
}

fn run_cell(backend: &Backend, scenario: &Scenario, threads: usize, k: &Knobs) -> Row {
    let space = key_space(backend.shape);
    let instance = backend.make();
    // Prefill by hand (not via the spec); stats reset at window start
    // below, so the abort ratio covers the same interval as the
    // throughput and latency columns — not prefill, not warmup.
    for key in (0..space).step_by(2) {
        instance.set.insert(key);
    }
    let spec = WorkloadSpec {
        threads,
        key_space: space,
        prefill: false,
        mix: (scenario.mix)(),
        dist: (scenario.dist)(space),
        scan_span: WorkloadSpec::default_scan_span(space),
        duration: k.sweep,
        warmup: k.warmup,
        record_latency: true,
        seed: 0x5CE2_A210 ^ (threads as u64) << 32 ^ space,
    };
    let m = run_scenario_with(instance.set.as_ref(), &spec, || {
        if let Some(stm) = &instance.stm {
            stm.reset_stats();
        }
    });
    let stats = instance.stm.as_ref().map(|stm| stm.stats());
    let abort_ratio = stats.as_ref().map_or(0.0, |s| s.abort_ratio());
    let aborts_by_cause =
        stats.as_ref().map_or([0; 5], |s| s.aborts_by_cause().map(|(_label, count)| count));
    Row {
        bench: format!("{}/{}", scenario.name, backend.name),
        threads,
        ops_per_sec: m.throughput,
        abort_ratio,
        p50_ns: m.latency.p50(),
        p99_ns: m.latency.p99(),
        p999_ns: m.latency.p999(),
        aborts_by_cause,
        kv: None,
        scan: None,
        durability: None,
        server: None,
        trace_dropped: None,
    }
}

/// Assemble the HTAP row shared by both backend families. The
/// `threads` column records the writer count (the sweep axis); the
/// standard latency columns equal the scan quantiles because the HTAP
/// driver samples scans only.
fn htap_row(
    bench: String,
    writers: usize,
    m: &polytm_workload::HtapMeasurement,
    stats: Option<&polytm::StatsSnapshot>,
    window: Duration,
) -> Row {
    let abort_ratio = stats.map_or(0.0, |s| s.abort_ratio());
    let aborts_by_cause =
        stats.map_or([0; 5], |s| s.aborts_by_cause().map(|(_label, count)| count));
    // The aborts that kill or delay scans: registry capacity and
    // history truncation (both "the snapshot side is starving").
    let scan_aborts = stats.map_or(0, |s| s.aborts_capacity + s.aborts_unavailable);
    let lat = &m.measurement.latency;
    Row {
        bench,
        threads: writers,
        ops_per_sec: m.measurement.throughput,
        abort_ratio,
        p50_ns: lat.p50(),
        p99_ns: lat.p99(),
        p999_ns: lat.p999(),
        aborts_by_cause,
        kv: None,
        scan: Some(ScanFields {
            p50_ns: lat.p50(),
            p99_ns: lat.p99(),
            p999_ns: lat.p999(),
            aborts: scan_aborts,
        }),
        durability: durability_fields(stats, window),
        server: None,
        trace_dropped: None,
    }
}

fn run_htap_set_cell(backend: &Backend, writers: usize, k: &Knobs) -> Row {
    let space = key_space(backend.shape);
    let instance = backend.make();
    // Half-updates point churn against the long scans; uniform keys so
    // the churn sweeps the whole scanned range.
    let spec = htap_spec(writers, space, KeyDist::Uniform, k);
    let m = run_htap_set(instance.set.as_ref(), OpMix::updates(50), &spec, || {
        if let Some(stm) = &instance.stm {
            stm.reset_stats();
        }
    });
    let stats = instance.stm.as_ref().map(|stm| stm.stats());
    htap_row(format!("{HTAP_SCENARIO}/{}", backend.name), writers, &m, stats.as_ref(), k.sweep)
}

fn run_htap_kv_cell(backend: &KvBackend, writers: usize, k: &Knobs) -> Row {
    let instance = backend.make();
    // YCSB-A churn (50/50 read/update, Zipf skew) under the scanner.
    let spec = htap_spec(writers, KV_KEY_SPACE, KeyDist::Zipf(0.99), k);
    let m = run_htap_kv(instance.table.as_ref(), KvMix::ycsb_a(), &spec, || {
        if let Some(stm) = &instance.stm {
            stm.reset_stats();
        }
    });
    let stats = instance.stm.as_ref().map(|stm| stm.stats());
    htap_row(format!("{HTAP_SCENARIO}/{}", backend.name), writers, &m, stats.as_ref(), k.sweep)
}

/// One `server-kv` cell: spawn a loopback server over the backend's
/// store, prefill through the coalescing path, then drive the
/// open-loop load generator at a fixed *total* rate split across
/// `conns` connections. The `threads` column records the connection
/// count (the sweep axis); latency quantiles are wire round-trip
/// times measured from each request's *intended* send time
/// (coordinated-omission safe), so they include any server-side
/// queueing the offered load induces.
fn run_server_cell(backend: &ServerBackend, conns: usize, k: &Knobs) -> Row {
    let instance = backend.make();
    let handle = polytm_server::Server::spawn(
        Arc::clone(&instance.store),
        "127.0.0.1:0",
        polytm_server::ServerConfig::default(),
    )
    .expect("spawn loopback server");

    // Prefill even keys through the server's own coalescing path so
    // the measured window starts on a warm store.
    let prefill: Vec<polytm_server::WriteRequest> = (0..SERVER_KEY_SPACE)
        .step_by(2)
        .map(|key| polytm_server::WriteRequest::Put { key, value: vec![0xAB; 12] })
        .collect();
    for chunk in prefill.chunks(64) {
        instance
            .store
            .commit_writes(chunk, polytm_server::BatchTag::UNTAGGED)
            .expect("prefill commit");
    }

    instance.stm.reset_stats();
    let spec = polytm_server::LoadSpec {
        conns,
        rate: k.server_rate,
        duration: k.sweep,
        warmup: k.warmup,
        key_space: SERVER_KEY_SPACE,
        seed: 0x5E2_0E2 ^ (conns as u64) << 32,
        ..Default::default()
    };
    let m = polytm_server::run_load(handle.local_addr(), &spec).expect("loopback load run");
    let stats = instance.stm.stats();
    // The stats window spans warmup + sweep (reset precedes warmup),
    // so derive the fsync rate over that same span.
    let window = k.warmup + k.sweep;
    let server = ServerFields {
        conns,
        batch_ops_per_commit: handle.stats().batch_ops_per_commit(),
        wait_stm_ns: stats.stm_wait_ns(),
        wait_wal_ns: stats.wal_wait_ns,
        wait_net_ns: handle
            .stats()
            .backpressure_stalled_ns
            .load(std::sync::atomic::Ordering::Relaxed),
    };
    handle.shutdown();
    Row {
        bench: format!("{SERVER_SCENARIO}/{}", backend.name),
        threads: conns,
        ops_per_sec: m.throughput(),
        abort_ratio: stats.abort_ratio(),
        p50_ns: m.hist.p50(),
        p99_ns: m.hist.p99(),
        p999_ns: m.hist.p999(),
        aborts_by_cause: stats.aborts_by_cause().map(|(_label, count)| count),
        kv: None,
        scan: None,
        durability: durability_fields(Some(&stats), window),
        server: Some(server),
        trace_dropped: None,
    }
}

fn render_row(rev: &str, label: &str, cores: usize, r: &Row) -> String {
    let [lock, validation, cut, capacity, unavailable] = r.aborts_by_cause;
    let kv_fields =
        r.kv.map(|(found_ratio, space)| {
            format!(",\"found_ratio\":{found_ratio:.5},\"kv_space\":{space}")
        })
        .unwrap_or_default();
    let scan_fields = r
        .scan
        .as_ref()
        .map(|s| {
            format!(
                ",\"scan_p50_ns\":{},\"scan_p99_ns\":{},\"scan_p999_ns\":{},\"scan_aborts\":{}",
                s.p50_ns, s.p99_ns, s.p999_ns, s.aborts
            )
        })
        .unwrap_or_default();
    let durability_fields = r
        .durability
        .as_ref()
        .map(|d| {
            format!(
                ",\"commits_durable\":{},\"group_commit_batches\":{},\"fsyncs\":{},\
                 \"wal_bytes\":{},\"fsyncs_per_sec\":{:.1}",
                d.commits_durable, d.group_commit_batches, d.fsyncs, d.wal_bytes, d.fsyncs_per_sec
            )
        })
        .unwrap_or_default();
    let server_fields = r
        .server
        .as_ref()
        .map(|s| {
            format!(
                ",\"conns\":{},\"batch_ops_per_commit\":{:.3},\"wait_stm_ns\":{},\
                 \"wait_wal_ns\":{},\"wait_net_ns\":{}",
                s.conns, s.batch_ops_per_commit, s.wait_stm_ns, s.wait_wal_ns, s.wait_net_ns
            )
        })
        .unwrap_or_default();
    let trace_fields =
        r.trace_dropped.map(|dropped| format!(",\"trace_dropped\":{dropped}")).unwrap_or_default();
    format!(
        "  {{\"rev\":\"{rev}\",\"label\":\"{label}\",\"bench\":\"{}\",\"threads\":{},\
         \"cores\":{cores},\
         \"ops_per_sec\":{:.1},\"abort_ratio\":{:.5},\"p50_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\
         \"aborts_lock\":{lock},\"aborts_validation\":{validation},\"aborts_cut\":{cut},\
         \"aborts_capacity\":{capacity},\"aborts_unavailable\":{unavailable}\
         {kv_fields}{scan_fields}{durability_fields}{server_fields}{trace_fields}}}",
        r.bench, r.threads, r.ops_per_sec, r.abort_ratio, r.p50_ns, r.p99_ns, r.p999_ns
    )
}

/// Does a backend named `name` in `family` match the `--backend`
/// filter? Exact name (`tx-list`) or exact family label (`tx` /
/// `lock`), never a substring. Shared by both registries.
fn matches_filter(name: &str, family: Family, filter: &str) -> bool {
    filter.is_empty() || name == filter || family.label() == filter
}

/// Run one cell, attributing ring-tracer sheds during the cell to its
/// row. Deltas, not totals — a cell late in the matrix must not
/// inherit earlier cells' drops.
fn with_drop_delta(
    tracer: Option<&'static polytm_obs::RingTracer>,
    cell: impl FnOnce() -> Row,
) -> Row {
    let before = tracer.map(|t| t.dropped_total());
    let mut row = cell();
    if let (Some(t), Some(before)) = (tracer, before) {
        row.trace_dropped = Some(t.dropped_total().saturating_sub(before));
    }
    row
}

fn main() {
    let cli = BenchCli::parse("BENCH_scenarios.json");
    // Optional axis filters (exact matches) for focused reruns.
    let only_backend = cli.grab("--backend", "");
    let only_scenario = cli.grab("--scenario", "");
    let trace_out = cli.grab("--trace", "");
    let slow_us: u64 =
        cli.grab("--slow-us", "500").parse().expect("--slow-us takes whole microseconds");
    let tracer = if trace_out.is_empty() {
        None
    } else {
        // The slow-request flight recorder rides along with tracing:
        // coalesced commits whose window exceeds --slow-us are retained
        // and summarized at exit.
        polytm_obs::flight::install(slow_us * 1_000, 64);
        Some(polytm_obs::RingTracer::install(1 << 16).expect("a trace sink is already installed"))
    };

    let knobs = Knobs::new(cli.quick);
    let rev = git_rev();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "scenarios: rev {rev}, label {:?}, mode {}, cores {cores}, out {}",
        cli.label,
        if cli.quick { "quick" } else { "full" },
        cli.out
    );

    let mut rows = Vec::new();
    for scenario in SCENARIOS {
        if !only_scenario.is_empty() && scenario.name != only_scenario {
            continue;
        }
        for backend in BACKENDS {
            if !matches_filter(backend.name, backend.family, &only_backend) {
                continue;
            }
            for &threads in knobs.threads {
                let row = with_drop_delta(tracer, || run_cell(backend, scenario, threads, &knobs));
                eprintln!(
                    "  {:<32} t={:<2} {:>12.0} ops/s  abort {:.4}  p50 {:>7}ns  p99 {:>8}ns  \
                     p999 {:>8}ns",
                    row.bench,
                    row.threads,
                    row.ops_per_sec,
                    row.abort_ratio,
                    row.p50_ns,
                    row.p99_ns,
                    row.p999_ns
                );
                rows.push(row);
            }
        }
    }

    // The record-store (YCSB) wing of the matrix.
    for scenario in KV_SCENARIOS {
        if !only_scenario.is_empty() && scenario.name != only_scenario {
            continue;
        }
        for backend in KV_BACKENDS {
            if !matches_filter(backend.name, backend.family, &only_backend) {
                continue;
            }
            for &threads in knobs.threads {
                let row =
                    with_drop_delta(tracer, || run_kv_cell(backend, scenario, threads, &knobs));
                let (found, _) = row.kv.expect("kv cell rows carry kv fields");
                eprintln!(
                    "  {:<32} t={:<2} {:>12.0} ops/s  abort {:.4}  p50 {:>7}ns  p99 {:>8}ns  \
                     found {:.3}",
                    row.bench,
                    row.threads,
                    row.ops_per_sec,
                    row.abort_ratio,
                    row.p50_ns,
                    row.p99_ns,
                    found
                );
                rows.push(row);
            }
        }
    }

    // The HTAP wing: long scans under write churn, over both
    // registries. `threads` sweeps the writer count.
    if only_scenario.is_empty() || only_scenario == HTAP_SCENARIO {
        let mut htap_rows = Vec::new();
        for backend in BACKENDS {
            if !matches_filter(backend.name, backend.family, &only_backend) {
                continue;
            }
            for &writers in knobs.threads {
                htap_rows
                    .push(with_drop_delta(tracer, || run_htap_set_cell(backend, writers, &knobs)));
            }
        }
        for backend in KV_BACKENDS {
            if !matches_filter(backend.name, backend.family, &only_backend) {
                continue;
            }
            for &writers in knobs.threads {
                htap_rows
                    .push(with_drop_delta(tracer, || run_htap_kv_cell(backend, writers, &knobs)));
            }
        }
        for row in htap_rows {
            let scan = row.scan.as_ref().expect("htap rows carry scan fields");
            eprintln!(
                "  {:<32} w={:<2} {:>12.0} ops/s  abort {:.4}  scan p50 {:>9}ns  p99 {:>9}ns  \
                 scan-aborts {}",
                row.bench,
                row.threads,
                row.ops_per_sec,
                row.abort_ratio,
                scan.p50_ns,
                scan.p99_ns,
                scan.aborts
            );
            rows.push(row);
        }
    }

    // The network-front-end wing: the open-loop wire workload against
    // a loopback server. `threads` sweeps the connection count at
    // fixed total offered rate.
    if only_scenario.is_empty() || only_scenario == SERVER_SCENARIO {
        for backend in SERVER_BACKENDS {
            if !matches_filter(backend.name, backend.family, &only_backend) {
                continue;
            }
            for &conns in knobs.server_conns {
                let row = with_drop_delta(tracer, || run_server_cell(backend, conns, &knobs));
                let server = row.server.as_ref().expect("server rows carry server fields");
                eprintln!(
                    "  {:<32} c={:<2} {:>12.0} ops/s  abort {:.4}  p50 {:>7}ns  p99 {:>8}ns  \
                     batch {:.2} ops/commit",
                    row.bench,
                    server.conns,
                    row.ops_per_sec,
                    row.abort_ratio,
                    row.p50_ns,
                    row.p99_ns,
                    server.batch_ops_per_commit
                );
                rows.push(row);
            }
        }
    }

    if rows.is_empty() {
        eprintln!("scenarios: filters matched nothing; no rows written");
        std::process::exit(2);
    }
    let lines: Vec<String> = rows.iter().map(|r| render_row(&rev, &cli.label, cores, r)).collect();
    append_rows(&cli.out, &lines, cli.fresh);
    eprintln!("scenarios: wrote {} rows to {}", lines.len(), cli.out);

    if let Some(t) = tracer {
        let dump = t.drain();
        let events: usize = dump.rings.iter().map(|r| r.events.len()).sum();
        dump.write_file(&trace_out).expect("write trace dump");
        eprintln!(
            "scenarios: traced {events} events across {} rings ({} dropped) to {trace_out}",
            dump.rings.len(),
            dump.dropped_total()
        );
    }
    if let Some(recorder) = polytm_obs::flight::get() {
        let spans = recorder.snapshot();
        eprintln!(
            "scenarios: flight recorder retained {} of {} slow spans (threshold {}us)",
            spans.len(),
            recorder.recorded_total(),
            recorder.threshold_ns() / 1_000
        );
        for s in spans.iter().rev().take(5) {
            eprintln!(
                "  conn {} seq [{},{}] ops {}: total {}us (commit {}us)",
                s.conn,
                s.first_seq,
                s.last_seq,
                s.ops,
                s.total_ns / 1_000,
                s.commit_ns / 1_000
            );
        }
    }
}

//! The two wire workloads: a loopback `polytm-server` with one worker,
//! driven by one generator thread over two connections.
//!
//! `wire-get` serves an in-memory `KvStore`; `wire-put-sync` serves a
//! `DurableKv` in `Durability::Sync` whose log lives on [`ModelFs`].
//! A *rig* is one complete set-up (store, server, connections); a *pass*
//! is warm-up, then the open-loop `rate` phase, then the closed-loop
//! `sat` phase on one rig.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use polytm::{StatsSnapshot, Stm};
use polytm_durable::{DurableKv, DurableKvConfig};
use polytm_kv::{KvStore, Value};
use polytm_server::{Server, ServerConfig, ServerHandle, ServerStats, ServerStore};

use crate::modelfs::{DeviceCounters, ModelFs};
use crate::procfs::{rss_hwm_mb, run_pinned, thread_cpu_s};
use crate::rng::{preload_word, value_of, SplitMix64, Zipf};
use crate::spans::Recorder;
use crate::timed_store::{StoreCounters, TimedStore};
use crate::wire::{Conn, Generator, OpenLoopOut, RateSlice, RequestRing};

pub const CONNS: usize = 2;
/// Requests each connection keeps in flight in the `sat` phase.
pub const WINDOW: u64 = 32;
/// `wire-put-sync` checkpoints after every this-many-th `sat` slice.
pub const CHECKPOINT_EVERY: usize = 8;
pub const GEN_THREAD: &str = "polybench-gen";
/// The kernel cuts thread names to 15 bytes (`polytm-server-w0`).
const WORKER_THREAD: &str = "polytm-server-w";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireKind {
    Get,
    PutSync,
}

#[derive(Clone, Copy, Debug)]
pub struct WireSpec {
    pub kind: WireKind,
    pub keys: u64,
    /// Pre-encoded requests per connection; replayed in a cycle.
    pub ring: usize,
    /// Offered rate of the open-loop phase, requests per second.
    pub rate: f64,
    /// Warm-up of a full-size run, in replies.
    pub warm_ops: u64,
}

/// 2^18 keys (561 MB resident) is 140 times the 4 MiB L2 and twice the
/// L3 the VM reports: nearly every GET misses cache. The issue's 2^20
/// keys behave the same (427 k against 448 k replies/s) but take 8.8 s
/// and 2.75 GB per set-up, so five set-ups and a run would not fit the
/// driver's time for a run.
pub const WIRE_GET: WireSpec = WireSpec {
    kind: WireKind::Get,
    keys: 1 << 18,
    ring: 1 << 19,
    rate: 20_000.0,
    // About a second: two GETs per key.
    warm_ops: 1 << 19,
};
pub const WIRE_PUT_SYNC: WireSpec = WireSpec {
    kind: WireKind::PutSync,
    keys: 1 << 16,
    ring: 1 << 16,
    rate: 2_000.0,
    // Half a second; ten seconds of `rate` follow before `sat`.
    warm_ops: 1 << 15,
};

/// The request bytes of a run: uniform keys for `wire-get`; for
/// `wire-put-sync` zipf(0.99) ranks over each connection's own half of
/// the key space, so the last write to a key is decided by one
/// connection's order alone.
pub fn rings(spec: &WireSpec, seed: u64) -> Vec<Arc<RequestRing>> {
    (0..CONNS as u64)
        .map(|c| {
            let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(c));
            Arc::new(match spec.kind {
                WireKind::Get => {
                    RequestRing::gets((0..spec.ring).map(|_| rng.below(spec.keys)).collect())
                }
                WireKind::PutSync => {
                    let zipf = Zipf::new(spec.keys / CONNS as u64, 0.99);
                    let keys =
                        (0..spec.ring).map(|_| zipf.sample(&mut rng) * CONNS as u64 + c).collect();
                    RequestRing::puts(keys, (0..spec.ring).map(|_| rng.next_u64()).collect())
                }
            })
        })
        .collect()
}

/// Every key of a store with the record `--seed` gives it.
pub fn preload_entries(seed: u64, keys: u64) -> Vec<(u64, Value)> {
    (0..keys).map(|k| (k, Value::from_bytes(&value_of(preload_word(seed, k))))).collect()
}

/// `wire-put-sync`'s device image: a store preloaded through the log,
/// checkpointed and dropped. Made once per run, like a disk image; each
/// set-up then *recovers* from it. With a recorder, the device records
/// its `sync` spans.
pub fn prepare_device(
    spec: &WireSpec,
    seed: u64,
    rec: Option<&Arc<Recorder>>,
) -> io::Result<Arc<ModelFs>> {
    let device = Arc::new(ModelFs::new(seed, rec.cloned()));
    let store = DurableKv::open(device.clone(), DurableKvConfig::default())?;
    store
        .multi_put(&preload_entries(seed, spec.keys))
        .map_err(|_| io::Error::other("preload lost durability"))?;
    store.checkpoint()?;
    Ok(device)
}

/// One complete set-up.
pub struct Rig {
    server: Option<ServerHandle>,
    pub gen: Generator,
    stm: Arc<Stm>,
    /// `wire-get`: the store the server reads.
    pub kv: Option<Arc<KvStore>>,
    /// `wire-put-sync`: the durable store and its device.
    durable: Option<Arc<DurableKv>>,
    fs: Option<Arc<ModelFs>>,
    timed: Option<Arc<TimedStore>>,
}

impl Rig {
    /// `wire-get`: preload a fresh `KvStore`. `wire-put-sync`: recover
    /// a `DurableKv` from `device` (see [`prepare_device`]). Then spawn
    /// the server with one worker and connect. With a recorder, the
    /// store is served through [`TimedStore`].
    pub fn build(
        spec: &WireSpec,
        seed: u64,
        rings: &[Arc<RequestRing>],
        device: Option<&Arc<ModelFs>>,
        rec: Option<&Arc<Recorder>>,
    ) -> io::Result<Rig> {
        let (mut kv, mut durable) = (None, None);
        let (stm, inner): (Arc<Stm>, Arc<dyn ServerStore>) = match device {
            None => {
                let store = Arc::new(KvStore::new(Arc::new(Stm::new())));
                for chunk in preload_entries(seed, spec.keys).chunks(1024) {
                    store.multi_put(chunk);
                }
                kv = Some(store.clone());
                (store.stm().clone(), store)
            }
            Some(device) => {
                let store = Arc::new(DurableKv::open(device.clone(), DurableKvConfig::default())?);
                durable = Some(store.clone());
                (store.stm().clone(), store)
            }
        };
        let fs = device.cloned();
        let timed = rec.map(|r| Arc::new(TimedStore::new(inner.clone(), r.clone())));
        let served: Arc<dyn ServerStore> = match &timed {
            Some(t) => t.clone(),
            None => inner,
        };
        let config = ServerConfig { workers: 1, ..ServerConfig::default() };
        let server = Server::spawn(served, "127.0.0.1:0", config)?;
        let conns = rings
            .iter()
            .map(|ring| Conn::connect(server.local_addr(), ring.clone(), seed))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Rig { server: Some(server), gen: Generator::new(conns), stm, kv, durable, fs, timed })
    }

    fn server_stats(&self) -> ServerCounters {
        ServerCounters::read(self.server.as_ref().expect("server runs until teardown").stats())
    }

    /// `wire-put-sync`'s oracle. Stop the server, drop the store, cut
    /// the power, recover from the same device: every key must hold the
    /// value of its last acknowledged PUT (or its preloaded value).
    /// Returns whether it does, and the recovery time in ms.
    pub fn crash_and_verify(mut self, spec: &WireSpec, seed: u64) -> io::Result<(bool, f64)> {
        self.gen.drain()?;
        let mut expected: HashMap<u64, u64> = HashMap::new();
        for conn in &self.gen.conns {
            let len = conn.ring.len() as u64;
            for j in conn.replied.saturating_sub(len)..conn.replied {
                let idx = (j % len) as usize;
                expected.insert(conn.ring.keys[idx], conn.ring.words[idx]);
            }
        }
        let fs = self.fs.take().expect("only wire-put-sync has a device");
        self.server.take().expect("server runs until teardown").shutdown();
        drop(self); // the last handles on the durable store
        fs.crash();
        let start = Instant::now();
        let recovered = DurableKv::open(fs, DurableKvConfig::default())?;
        let recover_ms = start.elapsed().as_secs_f64() * 1e3;
        let intact = (0..spec.keys).all(|key| {
            let word = expected.get(&key).copied().unwrap_or_else(|| preload_word(seed, key));
            recovered.get(key).is_some_and(|v| v.as_bytes() == value_of(word))
        });
        Ok((intact, recover_ms))
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        // Connections first, then the event loops that serve them.
        self.gen.conns.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct ServerCounters {
    pub responses: u64,
    pub batches: u64,
    pub batched_ops: u64,
    pub bytes_out: u64,
    pub backpressure_stalls: u64,
}

impl ServerCounters {
    fn read(s: &ServerStats) -> Self {
        ServerCounters {
            responses: s.responses.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            batched_ops: s.batched_ops.load(Ordering::Relaxed),
            bytes_out: s.bytes_out.load(Ordering::Relaxed),
            backpressure_stalls: s.backpressure_stalls.load(Ordering::Relaxed),
        }
    }

    fn since(&self, e: &ServerCounters) -> ServerCounters {
        ServerCounters {
            responses: self.responses - e.responses,
            batches: self.batches - e.batches,
            batched_ops: self.batched_ops - e.batched_ops,
            bytes_out: self.bytes_out - e.bytes_out,
            backpressure_stalls: self.backpressure_stalls - e.backpressure_stalls,
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct PassPlan {
    /// Replies to collect, closed loop, before anything is timed.
    pub warm_ops: u64,
    pub rate_slices: usize,
    pub sat_slices: usize,
    pub slice_ns: u64,
}

/// Everything counted at the edges of the `sat` phase.
struct Edge {
    at: Instant,
    rec_ns: u64,
    gen_cpu_s: f64,
    worker_cpu_s: f64,
    server: ServerCounters,
    stm: StatsSnapshot,
    store: StoreCounters,
    device: DeviceCounters,
}

/// What one pass measured. Counter fields are deltas over `sat`.
#[derive(Debug)]
pub struct Pass {
    pub open: OpenLoopOut,
    pub sat: Vec<RateSlice>,
    /// Wall time of `sat`, checkpoints included.
    pub sat_wall_s: f64,
    /// Recorder clock when `sat` began (traced pass).
    pub sat_from_ns: u64,
    /// Peak resident memory when `rate` ended, MB: everything up to
    /// there is a fixed amount of work, whatever the machine's speed.
    pub rss_mb: f64,
    pub gen_cpu_s: f64,
    pub worker_cpu_s: f64,
    pub server: ServerCounters,
    pub stm: StatsSnapshot,
    pub store: StoreCounters,
    pub device: DeviceCounters,
    pub checkpoint_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Rig {
    fn edge(&self, rec: Option<&Recorder>) -> Edge {
        Edge {
            at: Instant::now(),
            rec_ns: rec.map_or(0, Recorder::now_ns),
            gen_cpu_s: thread_cpu_s(GEN_THREAD),
            worker_cpu_s: thread_cpu_s(WORKER_THREAD),
            server: self.server_stats(),
            stm: self.stm.stats(),
            store: self.timed.as_ref().map(|t| t.counters()).unwrap_or_default(),
            device: self.fs.as_ref().map(|f| f.counters()).unwrap_or_default(),
        }
    }

    /// Warm-up, `rate`, `sat` — on the generator's own pinned thread,
    /// whose CPU time can be told from the main thread's set-up work.
    pub fn run_pass(
        &mut self,
        spec: &WireSpec,
        plan: &PassPlan,
        rec: Option<&Recorder>,
    ) -> io::Result<Pass> {
        run_pinned(1, GEN_THREAD, || self.pass_on_this_thread(spec, plan, rec))
    }

    fn pass_on_this_thread(
        &mut self,
        spec: &WireSpec,
        plan: &PassPlan,
        rec: Option<&Recorder>,
    ) -> io::Result<Pass> {
        let base_replied = self.gen.replied();
        self.gen.closed_loop_ops(WINDOW, plan.warm_ops)?;
        self.gen.drain()?;
        let open = self.gen.open_loop(spec.rate, plan.rate_slices, plan.slice_ns)?;
        self.gen.drain()?;
        let rss_mb = rss_hwm_mb();

        let durable = self.durable.clone();
        let mut checkpoint_ms = Vec::new();
        let before = self.edge(rec);
        let sat = self.gen.closed_loop(CONNS, WINDOW, plan.sat_slices, plan.slice_ns, |k| {
            if let Some(d) = durable.as_ref().filter(|_| (k + 1) % CHECKPOINT_EVERY == 0) {
                let start = Instant::now();
                d.checkpoint().expect("checkpoint on the modelled device cannot fail");
                checkpoint_ms.push(start.elapsed().as_secs_f64() * 1e3);
            }
        })?;
        let after = self.edge(rec);
        self.gen.drain()?;

        Ok(Pass {
            open,
            sat,
            sat_wall_s: after.at.duration_since(before.at).as_secs_f64(),
            sat_from_ns: before.rec_ns,
            rss_mb,
            gen_cpu_s: after.gen_cpu_s - before.gen_cpu_s,
            worker_cpu_s: after.worker_cpu_s - before.worker_cpu_s,
            server: after.server.since(&before.server),
            stm: after.stm.delta_since(&before.stm),
            store: after.store.since(&before.store),
            device: after.device.since(&before.device),
            checkpoint_ms,
            attempted: self.gen.replied() - base_replied,
            failed: self.gen.failed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polytm_server::Client;

    /// One connection, one request at a time, a fixed list of
    /// operations: every count the wrappers and the server keep.
    fn replay() -> [u64; 10] {
        let rec = Arc::new(Recorder::new());
        let device = Arc::new(ModelFs::new(7, Some(rec.clone())));
        let store = Arc::new(DurableKv::open(device.clone(), DurableKvConfig::default()).unwrap());
        let timed = Arc::new(TimedStore::new(store, rec.clone()));
        let config = ServerConfig { workers: 1, ..ServerConfig::default() };
        let server = Server::spawn(timed.clone(), "127.0.0.1:0", config).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        for i in 0..40u64 {
            client.put(i % 8, &value_of(i)).unwrap();
            if i % 3 == 0 {
                assert_eq!(client.get(i % 8).unwrap().as_deref(), Some(&value_of(i)[..]));
            }
        }
        // The worker counts a reply's bytes after the client has it:
        // read the counters once the event loop has been joined.
        let stats = server.stats().clone();
        drop(client);
        server.shutdown();
        let srv = ServerCounters::read(&stats);
        let (st, dev) = (timed.counters(), device.counters());
        let spans = rec.snapshot();
        let named = |n: &str| spans.iter().filter(|s| s.name == n).count() as u64;
        // Every device sync happened inside a commit_writes span.
        let commits: Vec<u32> =
            spans.iter().filter(|s| s.name == "kv.commit_writes").map(|s| s.id).collect();
        assert!(spans
            .iter()
            .filter(|s| s.name == "device.sync")
            .all(|s| commits.contains(&s.parent)));
        assert_eq!(named("kv.commit_writes"), st.batches);
        assert_eq!(named("device.sync"), dev.syncs);
        [
            st.gets,
            st.batches,
            st.batch_ops,
            dev.appends,
            dev.bytes,
            dev.syncs,
            srv.responses,
            srv.batches,
            srv.batched_ops,
            srv.bytes_out,
        ]
    }

    #[test]
    fn counters_repeat_exactly_for_a_fixed_replay() {
        let first = replay();
        assert_eq!(first, replay());
        // 40 PUTs one at a time: 40 batches of one, 40 appends, 40 syncs.
        assert_eq!(first[..4], [14, 40, 40, 40]);
        assert_eq!((first[5], first[6]), (40, 54));
    }

    #[test]
    fn rings_are_a_function_of_the_seed() {
        let small = WireSpec { ring: 256, ..WIRE_PUT_SYNC };
        let (a, b, c) = (rings(&small, 3), rings(&small, 3), rings(&small, 4));
        assert_eq!(a[0].keys, b[0].keys);
        assert_eq!(a[1].words, b[1].words);
        assert_ne!(a[0].keys, c[0].keys);
        // Connections own disjoint halves of the key space.
        assert!(a[0].keys.iter().all(|k| k % 2 == 0) && a[1].keys.iter().all(|k| k % 2 == 1));
    }
}

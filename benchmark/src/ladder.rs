//! The layer ladder: one request stream replayed single-threaded, one
//! request at a time, at each boundary of the stack. A rung's cost
//! minus the cost of the rung below is what that layer adds per
//! operation when nothing else contends.
//!
//! GET: bare `TVar` read transaction -> `KvStore::get` -> loopback.
//! PUT: `TVar` write transaction -> `KvStore::put` -> `DurableKv`
//! (async) -> `DurableKv` (sync, on the modelled device) -> loopback.

use std::io;
use std::sync::Arc;
use std::time::Instant;

use polytm::{Stm, TVar, TxParams};
use polytm_durable::{Durability, DurableKv, DurableKvConfig, WalConfig};
use polytm_kv::{KvStore, Value};

use crate::embedded::run_sliced;
use crate::estimate::{median, quantile};
use crate::modelfs::ModelFs;
use crate::procfs::run_pinned;
use crate::rng::value_of;
use crate::wire::RequestRing;
use crate::wire_bench::{preload_entries, Rig, WireSpec, GEN_THREAD};

const RUNG_SLICE_NS: u64 = 250_000_000;

fn rung_slices(rung_s: f64) -> usize {
    ((rung_s * 1e9 / RUNG_SLICE_NS as f64).round() as usize).max(2)
}

/// Nanoseconds per call of `op`: the good decile of quarter-second
/// slices, after one slice of warm-up.
///
/// The stores (and any background thread of theirs) are made on the
/// main thread's CPU; the replay runs on the generator's.
fn rung(rung_s: f64, mut op: impl FnMut(usize) + Send) -> f64 {
    let recs = run_pinned(1, GEN_THREAD, || {
        run_sliced(Instant::now(), rung_slices(rung_s) + 1, RUNG_SLICE_NS, 16, |i| {
            op(i as usize);
            None
        })
    });
    let per_op: Vec<f64> = recs.iter().skip(1).map(|r| r.ns as f64 / r.ops as f64).collect();
    quantile(&per_op, 0.1)
}

/// The loopback rung: one connection, one request in flight.
fn server_rung(rig: &mut Rig, rung_s: f64) -> io::Result<f64> {
    let slices = run_pinned(1, GEN_THREAD, || {
        rig.gen.drain()?;
        let slices = rig.gen.closed_loop(1, 1, rung_slices(rung_s) + 1, RUNG_SLICE_NS, |_| ())?;
        rig.gen.drain()?;
        io::Result::Ok(slices)
    })?;
    let per_op: Vec<f64> =
        slices.iter().skip(1).filter(|s| s.ops > 0).map(|s| s.ns as f64 / s.ops as f64).collect();
    Ok(quantile(&per_op, 0.1))
}

fn tvars(stm: &Stm, seed: u64, keys: u64) -> Vec<TVar<Value>> {
    preload_entries(seed, keys).into_iter().map(|(_, v)| stm.new_tvar(v)).collect()
}

pub struct GetLadder {
    pub core: f64,
    pub kv: f64,
    pub server: f64,
}

pub fn get_ladder(
    rig: &mut Rig,
    spec: &WireSpec,
    ring: &RequestRing,
    seed: u64,
    rung_s: f64,
) -> io::Result<GetLadder> {
    let n = ring.len();
    let core = {
        let stm = Stm::new();
        let vars = tvars(&stm, seed, spec.keys);
        rung(rung_s, |i| {
            let var = &vars[ring.keys[i % n] as usize];
            std::hint::black_box(stm.run(TxParams::weak(), |tx| var.read(tx)));
        })
    };
    let store = rig.kv.clone().expect("the get ladder runs on wire-get's store");
    let kv = rung(rung_s, |i| {
        std::hint::black_box(store.get(ring.keys[i % n]));
    });
    Ok(GetLadder { core, kv, server: server_rung(rig, rung_s)? })
}

pub struct PutLadder {
    pub core: f64,
    pub kv: f64,
    pub durable_async: f64,
    pub durable_sync: f64,
    pub server: f64,
    /// What `thread::sleep(group_window)` really takes here, µs: the
    /// group-commit leader's linger as this machine delivers it.
    pub linger_us: f64,
}

fn durable_rung(
    mode: Durability,
    spec: &WireSpec,
    ring: &RequestRing,
    seed: u64,
    rung_s: f64,
) -> io::Result<f64> {
    let config = DurableKvConfig {
        wal: WalConfig { mode, ..WalConfig::default() },
        ..DurableKvConfig::default()
    };
    let store = DurableKv::open(Arc::new(ModelFs::new(seed, None)), config)?;
    let lost = |_| io::Error::other("ladder store lost durability");
    store.multi_put(&preload_entries(seed, spec.keys)).map_err(lost)?;
    let n = ring.len();
    let mut healthy = true;
    let ns = rung(rung_s, |i| {
        healthy &=
            store.put(ring.keys[i % n], Value::from_bytes(&value_of(ring.words[i % n]))).is_ok();
    });
    store.flush().map_err(lost)?;
    if healthy {
        Ok(ns)
    } else {
        Err(io::Error::other("ladder put refused"))
    }
}

pub fn put_ladder(
    rig: &mut Rig,
    spec: &WireSpec,
    ring: &RequestRing,
    seed: u64,
    rung_s: f64,
) -> io::Result<PutLadder> {
    let n = ring.len();
    let value = |i: usize| Value::from_bytes(&value_of(ring.words[i % n]));
    let core = {
        let stm = Stm::new();
        let vars = tvars(&stm, seed, spec.keys);
        rung(rung_s, |i| {
            let var = &vars[ring.keys[i % n] as usize];
            stm.run(TxParams::default_semantics(), |tx| var.write(tx, value(i)));
        })
    };
    let kv = {
        let store = KvStore::new(Arc::new(Stm::new()));
        store.multi_put(&preload_entries(seed, spec.keys));
        rung(rung_s, |i| {
            std::hint::black_box(store.put(ring.keys[i % n], value(i)));
        })
    };
    let durable_async = durable_rung(Durability::Async, spec, ring, seed, rung_s)?;
    let durable_sync = durable_rung(Durability::Sync, spec, ring, seed, rung_s)?;
    let server = server_rung(rig, rung_s)?;
    let window = WalConfig::default().group_window;
    let sleeps: Vec<f64> = (0..51)
        .map(|_| {
            let start = Instant::now();
            std::thread::sleep(window);
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    Ok(PutLadder { core, kv, durable_async, durable_sync, server, linger_us: median(&sleeps) })
}

/// How long a measured phase of `seconds` leaves for each of `rungs`
/// rungs once `used_s` went to the sliced passes.
pub fn rung_seconds(seconds: f64, used_s: f64, rungs: usize) -> f64 {
    ((seconds - used_s) / rungs as f64).clamp(0.5, 2.0)
}

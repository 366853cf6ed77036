//! [`ConcurrentSet`] / [`RangeSet`] / [`KvTable`] adapters for every
//! implementation under test, plus the [`Backend`] and [`KvBackend`]
//! registries the scenario matrix sweeps.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

use polytm::{ClassId, Semantics, Stm, StmConfig, TxParams};
use polytm_adaptive::Advisor;
use polytm_durable::{Durability, DurableKv, DurableKvConfig, RealFs, WalConfig};
use polytm_kv::{KvConfig, KvParams, KvStore, Value};
use polytm_structures::{TxHashSet, TxList, TxSkipList};
use polytm_workload::{ConcurrentSet, KvTable, RangeSet};

// ---------------------------------------------------------------------
// Transactional structures
// ---------------------------------------------------------------------

/// TxList under any per-op semantics.
pub struct TxListSet(pub TxList);

impl ConcurrentSet for TxListSet {
    fn contains(&self, key: u64) -> bool {
        self.0.contains(key as i64)
    }
    fn insert(&self, key: u64) -> bool {
        self.0.insert(key as i64)
    }
    fn remove(&self, key: u64) -> bool {
        self.0.remove(key as i64)
    }
}

impl RangeSet for TxListSet {
    fn range_count(&self, lo: u64, hi: u64) -> usize {
        self.0.range_count_snapshot(lo as i64, hi as i64)
    }
}

/// TxSkipList under any per-op semantics.
pub struct TxSkipListSet(pub TxSkipList);

impl ConcurrentSet for TxSkipListSet {
    fn contains(&self, key: u64) -> bool {
        self.0.contains(key as i64)
    }
    fn insert(&self, key: u64) -> bool {
        self.0.insert(key as i64)
    }
    fn remove(&self, key: u64) -> bool {
        self.0.remove(key as i64)
    }
}

impl RangeSet for TxSkipListSet {
    fn range_count(&self, lo: u64, hi: u64) -> usize {
        self.0.range_count_snapshot(lo as i64, hi as i64)
    }
}

/// TxHashSet under any per-op semantics.
pub struct TxHashAdapter(pub TxHashSet);

impl ConcurrentSet for TxHashAdapter {
    fn contains(&self, key: u64) -> bool {
        self.0.contains(key)
    }
    fn insert(&self, key: u64) -> bool {
        self.0.insert(key)
    }
    fn remove(&self, key: u64) -> bool {
        self.0.remove(key)
    }
}

impl RangeSet for TxHashAdapter {
    fn range_count(&self, lo: u64, hi: u64) -> usize {
        self.0.range_count_snapshot(lo, hi)
    }
}

// ---------------------------------------------------------------------
// Adaptive transactional structures
// ---------------------------------------------------------------------

/// Phase slots an adaptive backend distinguishes: workload phases fold
/// into this many class groups (phased scenarios cycle through 3).
const ADAPTIVE_PHASES: usize = 4;

/// Operation kinds per phase slot (read / update / scan).
const ADAPTIVE_KINDS: u16 = 3;

/// Thread stripes of a [`PhaseState`] (power of two).
const PHASE_STRIPES: usize = 64;

/// Per-*instance*, per-thread workload phase, fed by
/// [`ConcurrentSet::note_phase`]. Phase position is a per-thread
/// property of the deterministic schedule, and it must be per-instance
/// state: a process-wide slot would let one backend's phase change
/// retag another's operations (and leak stale phases to reused
/// threads across runs). Beyond `PHASE_STRIPES` live worker threads,
/// colliding threads overwrite each other's phase tag; that can
/// misattribute *telemetry* between phase classes (the advisor learns
/// from slightly mixed signals) but never affects the correctness of
/// the set operations themselves.
struct PhaseState {
    slots: [std::sync::atomic::AtomicUsize; PHASE_STRIPES],
}

impl PhaseState {
    fn new() -> Self {
        Self { slots: std::array::from_fn(|_| std::sync::atomic::AtomicUsize::new(0)) }
    }

    #[inline]
    fn set(&self, phase: usize) {
        self.slots[polytm::current_thread_index() & (PHASE_STRIPES - 1)]
            .store(phase, std::sync::atomic::Ordering::Relaxed);
    }

    #[inline]
    fn slot(&self) -> usize {
        self.slots[polytm::current_thread_index() & (PHASE_STRIPES - 1)]
            .load(std::sync::atomic::Ordering::Relaxed)
            % ADAPTIVE_PHASES
    }
}

/// Per-phase-slot `start(p)` parameter triple: each (phase, op-kind)
/// pair is its own advisor class, so a phase change moves operations to
/// classes the epoch controller classifies independently —
/// reclassification mid-run.
fn adaptive_params(phase_slot: usize) -> (TxParams, TxParams, TxParams) {
    let base = (phase_slot as u16) * ADAPTIVE_KINDS;
    (
        TxParams::new(Semantics::elastic()).with_class(ClassId(base)),
        TxParams::new(Semantics::elastic()).with_class(ClassId(base + 1)),
        TxParams::new(Semantics::Snapshot).with_class(ClassId(base + 2)),
    )
}

/// TxList under a live advisor: per-(phase, op-kind) classes, semantics
/// and contention management selected by feedback.
pub struct AdaptiveListSet {
    /// One handle per phase slot, sharing the same underlying list.
    handles: Vec<TxList>,
    phase: PhaseState,
    /// The advisor, exposed for diagnostics.
    pub advisor: Arc<Advisor>,
}

impl AdaptiveListSet {
    /// Fresh adaptive list on its own STM/advisor pair.
    pub fn new() -> (Self, Arc<Stm>) {
        let advisor = Arc::new(Advisor::default());
        let stm = Arc::new(Stm::with_advisor(StmConfig::default(), Arc::clone(&advisor) as _));
        let (read, update, scan) = adaptive_params(0);
        let slot0 = TxList::with_op_params(Arc::clone(&stm), read, update, scan);
        let handles = (1..ADAPTIVE_PHASES)
            .map(|slot| {
                let (read, update, scan) = adaptive_params(slot);
                slot0.clone_with_params(read, update, scan)
            })
            .collect::<Vec<_>>();
        let handles = std::iter::once(slot0).chain(handles).collect();
        (Self { handles, phase: PhaseState::new(), advisor }, stm)
    }

    #[inline]
    fn handle(&self) -> &TxList {
        &self.handles[self.phase.slot()]
    }
}

impl ConcurrentSet for AdaptiveListSet {
    fn contains(&self, key: u64) -> bool {
        self.handle().contains(key as i64)
    }
    fn insert(&self, key: u64) -> bool {
        self.handle().insert(key as i64)
    }
    fn remove(&self, key: u64) -> bool {
        self.handle().remove(key as i64)
    }
    fn note_phase(&self, phase: usize) {
        self.phase.set(phase);
    }
}

impl RangeSet for AdaptiveListSet {
    fn range_count(&self, lo: u64, hi: u64) -> usize {
        self.handle().range_count_snapshot(lo as i64, hi as i64)
    }
}

/// TxHashSet under a live advisor (see [`AdaptiveListSet`]).
pub struct AdaptiveHashSet {
    handles: Vec<TxHashSet>,
    phase: PhaseState,
    /// The advisor, exposed for diagnostics.
    pub advisor: Arc<Advisor>,
}

impl AdaptiveHashSet {
    /// Fresh adaptive table on its own STM/advisor pair.
    pub fn new(buckets: usize, max_load: usize) -> (Self, Arc<Stm>) {
        let advisor = Arc::new(Advisor::default());
        let stm = Arc::new(Stm::with_advisor(StmConfig::default(), Arc::clone(&advisor) as _));
        let (read, update, scan) = adaptive_params(0);
        let slot0 =
            TxHashSet::with_op_params(Arc::clone(&stm), buckets, max_load, read, update, scan);
        let handles = (1..ADAPTIVE_PHASES)
            .map(|slot| {
                let (read, update, scan) = adaptive_params(slot);
                slot0.clone_with_params(read, update, scan)
            })
            .collect::<Vec<_>>();
        let handles = std::iter::once(slot0).chain(handles).collect();
        (Self { handles, phase: PhaseState::new(), advisor }, stm)
    }

    #[inline]
    fn handle(&self) -> &TxHashSet {
        &self.handles[self.phase.slot()]
    }
}

impl ConcurrentSet for AdaptiveHashSet {
    fn contains(&self, key: u64) -> bool {
        self.handle().contains(key)
    }
    fn insert(&self, key: u64) -> bool {
        self.handle().insert(key)
    }
    fn remove(&self, key: u64) -> bool {
        self.handle().remove(key)
    }
    fn note_phase(&self, phase: usize) {
        self.phase.set(phase);
    }
}

impl RangeSet for AdaptiveHashSet {
    fn range_count(&self, lo: u64, hi: u64) -> usize {
        self.handle().range_count_snapshot(lo, hi)
    }
}

// ---------------------------------------------------------------------
// Lock-based control
// ---------------------------------------------------------------------

/// Coarse global-lock set: the "one big lock" floor every comparison
/// should clear.
pub struct GlobalLockSet(pub Mutex<BTreeSet<u64>>);

impl ConcurrentSet for GlobalLockSet {
    fn contains(&self, key: u64) -> bool {
        self.0.lock().unwrap().contains(&key)
    }
    fn insert(&self, key: u64) -> bool {
        self.0.lock().unwrap().insert(key)
    }
    fn remove(&self, key: u64) -> bool {
        self.0.lock().unwrap().remove(&key)
    }
}

impl RangeSet for GlobalLockSet {
    fn range_count(&self, lo: u64, hi: u64) -> usize {
        if lo >= hi {
            return 0;
        }
        self.0.lock().unwrap().range(lo..hi).count()
    }
}

// ---------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------

/// The list-shaped implementations swept by E4/E5.
pub const LIST_IMPLS: &[&str] = &["tx-elastic", "tx-opaque", "tx-skiplist", "global-lock"];

/// Construct a list implementation by name; the returned boxed set also
/// carries its own `Stm` where applicable (exposed via `stm` for stats).
pub fn make_list_impl(name: &str) -> (Box<dyn ConcurrentSet + Send + Sync>, Option<Arc<Stm>>) {
    match name {
        "tx-elastic" => {
            let stm = Arc::new(Stm::new());
            (Box::new(TxListSet(TxList::new(Arc::clone(&stm)))), Some(stm))
        }
        "tx-opaque" => {
            let stm = Arc::new(Stm::new());
            (
                Box::new(TxListSet(TxList::with_op_semantics(Arc::clone(&stm), Semantics::Opaque))),
                Some(stm),
            )
        }
        "tx-skiplist" => {
            let stm = Arc::new(Stm::new());
            (Box::new(TxSkipListSet(TxSkipList::new(Arc::clone(&stm)))), Some(stm))
        }
        "global-lock" => (Box::new(GlobalLockSet(Mutex::new(BTreeSet::new()))), None),
        other => panic!("unknown list implementation {other:?}"),
    }
}

/// The hash-shaped implementations swept by E6.
pub const HASH_IMPLS: &[&str] = &["tx-hash-elastic", "tx-hash-opaque", "global-lock"];

/// Construct a hash implementation by name. `initial_buckets` seeds the
/// transactional tables, which then grow by transactional resize.
pub fn make_hash_impl(
    name: &str,
    initial_buckets: usize,
) -> (Box<dyn ConcurrentSet + Send + Sync>, Option<Arc<Stm>>) {
    match name {
        "tx-hash-elastic" => {
            let stm = Arc::new(Stm::new());
            (
                Box::new(TxHashAdapter(TxHashSet::new(Arc::clone(&stm), initial_buckets, 8))),
                Some(stm),
            )
        }
        "tx-hash-opaque" => {
            let stm = Arc::new(Stm::new());
            (
                Box::new(TxHashAdapter(TxHashSet::with_op_semantics(
                    Arc::clone(&stm),
                    initial_buckets,
                    8,
                    Semantics::Opaque,
                ))),
                Some(stm),
            )
        }
        "global-lock" => (Box::new(GlobalLockSet(Mutex::new(BTreeSet::new()))), None),
        other => panic!("unknown hash implementation {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Backend registry — the scenario matrix's axis of implementations
// ---------------------------------------------------------------------

/// Synchronization family of a backend: the polymorphic STM, or the
/// one-big-lock control every transactional row is read against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Backed by the polymorphic STM.
    Transactional,
    /// A coarse `Mutex` around a standard collection.
    LockBased,
}

impl Family {
    /// Short label used in bench row names.
    pub fn label(self) -> &'static str {
        match self {
            Family::Transactional => "tx",
            Family::LockBased => "lock",
        }
    }
}

/// Structural shape of a backend. List-shaped structures get smaller key
/// spaces than hash-shaped ones (O(n) vs O(1) point operations), mirroring
/// the E4-vs-E6 methodology; comparisons are meaningful within a shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Sorted list / skip list: O(n) or O(log n) point ops.
    Ordered,
    /// Hash table: O(1) point ops.
    Hash,
}

/// A live backend instance: the structure under test plus its `Stm`
/// handle when the backend is transactional (for abort accounting).
pub struct BackendInstance {
    /// The set, scan-capable, behind the driver's trait object.
    pub set: Box<dyn RangeSet + Send + Sync>,
    /// The STM the structure lives in — `None` for non-transactional
    /// backends.
    pub stm: Option<Arc<Stm>>,
}

/// One registered backend: a named constructor plus classification.
pub struct Backend {
    /// Stable name used in bench rows (e.g. `tx-list`).
    pub name: &'static str,
    /// Synchronization family.
    pub family: Family,
    /// Structural shape (drives the key-space choice).
    pub shape: Shape,
    make: fn() -> BackendInstance,
}

impl Backend {
    /// Construct a fresh instance of this backend.
    pub fn make(&self) -> BackendInstance {
        (self.make)()
    }
}

fn make_tx_list() -> BackendInstance {
    let stm = Arc::new(Stm::new());
    BackendInstance { set: Box::new(TxListSet(TxList::new(Arc::clone(&stm)))), stm: Some(stm) }
}

fn make_tx_skiplist() -> BackendInstance {
    let stm = Arc::new(Stm::new());
    BackendInstance {
        set: Box::new(TxSkipListSet(TxSkipList::new(Arc::clone(&stm)))),
        stm: Some(stm),
    }
}

fn make_tx_hash() -> BackendInstance {
    let stm = Arc::new(Stm::new());
    BackendInstance {
        set: Box::new(TxHashAdapter(TxHashSet::new(Arc::clone(&stm), 64, 8))),
        stm: Some(stm),
    }
}

fn make_lock_global() -> BackendInstance {
    BackendInstance { set: Box::new(GlobalLockSet(Mutex::new(BTreeSet::new()))), stm: None }
}

fn make_adaptive_list() -> BackendInstance {
    let (set, stm) = AdaptiveListSet::new();
    BackendInstance { set: Box::new(set), stm: Some(stm) }
}

fn make_adaptive_hash() -> BackendInstance {
    let (set, stm) = AdaptiveHashSet::new(64, 8);
    BackendInstance { set: Box::new(set), stm: Some(stm) }
}

/// Every backend the scenario matrix drives: both families, both
/// shapes. `scenarios --quick` and the full matrix iterate this table.
pub const BACKENDS: &[Backend] = &[
    Backend {
        name: "tx-list",
        family: Family::Transactional,
        shape: Shape::Ordered,
        make: make_tx_list,
    },
    Backend {
        name: "tx-skiplist",
        family: Family::Transactional,
        shape: Shape::Ordered,
        make: make_tx_skiplist,
    },
    Backend {
        name: "tx-hash",
        family: Family::Transactional,
        shape: Shape::Hash,
        make: make_tx_hash,
    },
    Backend {
        name: "lock-global",
        family: Family::LockBased,
        shape: Shape::Ordered,
        make: make_lock_global,
    },
    Backend {
        name: "adaptive-list",
        family: Family::Transactional,
        shape: Shape::Ordered,
        make: make_adaptive_list,
    },
    Backend {
        name: "adaptive-hash",
        family: Family::Transactional,
        shape: Shape::Hash,
        make: make_adaptive_hash,
    },
];

// ---------------------------------------------------------------------
// KV backends — the YCSB-style record-store axis
// ---------------------------------------------------------------------

/// `polytm-kv` store driven through the workload crate's [`KvTable`].
/// Records are 8-byte values derived from the driver's value stream.
pub struct KvStoreTable(pub KvStore);

impl KvTable for KvStoreTable {
    fn read(&self, key: u64) -> bool {
        self.0.contains(key)
    }
    fn update(&self, key: u64, value: u64) {
        self.0.put(key, Value::from_u64(value));
    }
    fn insert(&self, key: u64, value: u64) {
        self.0.put(key, Value::from_u64(value));
    }
    fn delete(&self, key: u64) -> bool {
        self.0.delete(key).is_some()
    }
    fn read_modify_write(&self, key: u64, value: u64) {
        self.0.modify(key, |cur| Value::from_u64(cur.and_then(Value::as_u64).unwrap_or(0) ^ value));
    }
    fn scan(&self, lo: u64, hi: u64) -> usize {
        self.0.range_count(lo, hi)
    }
    fn load(&self, entries: &[(u64, u64)]) {
        // Batched ingest: one transaction per chunk instead of one per
        // record (the chunk bound keeps each transaction's write set
        // small enough to stay conflict-friendly).
        for chunk in entries.chunks(256) {
            let batch: Vec<(u64, Value)> =
                chunk.iter().map(|&(k, v)| (k, Value::from_u64(v))).collect();
            self.0.multi_put(&batch);
        }
    }
}

/// The "one big lock" record-store control: a `Mutex<HashMap>`. Scans
/// hold the lock for their whole pass — trivially consistent, trivially
/// serial.
pub struct CoarseLockKv(pub Mutex<HashMap<u64, Value>>);

impl KvTable for CoarseLockKv {
    fn read(&self, key: u64) -> bool {
        self.0.lock().unwrap().contains_key(&key)
    }
    fn update(&self, key: u64, value: u64) {
        self.0.lock().unwrap().insert(key, Value::from_u64(value));
    }
    fn insert(&self, key: u64, value: u64) {
        self.0.lock().unwrap().insert(key, Value::from_u64(value));
    }
    fn delete(&self, key: u64) -> bool {
        self.0.lock().unwrap().remove(&key).is_some()
    }
    fn read_modify_write(&self, key: u64, value: u64) {
        let mut map = self.0.lock().unwrap();
        let cur = map.get(&key).and_then(Value::as_u64).unwrap_or(0);
        map.insert(key, Value::from_u64(cur ^ value));
    }
    fn scan(&self, lo: u64, hi: u64) -> usize {
        self.0.lock().unwrap().keys().filter(|&&k| lo <= k && k < hi).count()
    }
}

/// A live KV backend instance: the table plus its `Stm` handle when
/// transactional (for abort accounting).
pub struct KvBackendInstance {
    /// The record store behind the KV driver's trait object.
    pub table: Box<dyn KvTable + Send + Sync>,
    /// The STM the store lives in — `None` for the lock control.
    pub stm: Option<Arc<Stm>>,
}

/// One registered KV backend.
pub struct KvBackend {
    /// Stable name used in bench rows (e.g. `kv-sharded`).
    pub name: &'static str,
    /// Synchronization family.
    pub family: Family,
    make: fn() -> KvBackendInstance,
}

impl KvBackend {
    /// Construct a fresh instance of this backend.
    pub fn make(&self) -> KvBackendInstance {
        (self.make)()
    }
}

fn make_kv_sharded() -> KvBackendInstance {
    let stm = Arc::new(Stm::new());
    let store = KvStore::with_config(
        Arc::clone(&stm),
        KvConfig { shards: 16, initial_slots: 64, params: KvParams::fixed() },
    );
    KvBackendInstance { table: Box::new(KvStoreTable(store)), stm: Some(stm) }
}

fn make_kv_adaptive() -> KvBackendInstance {
    // The sharded store under a live advisor: each operation kind is
    // its own transaction class (reads may converge to snapshot;
    // writers request opaque, which plans can escalate but never
    // weaken).
    let advisor = Arc::new(Advisor::default());
    let stm = Arc::new(Stm::with_advisor(StmConfig::default(), advisor as _));
    let store = KvStore::with_config(
        Arc::clone(&stm),
        KvConfig { shards: 16, initial_slots: 64, params: KvParams::classed(0) },
    );
    KvBackendInstance { table: Box::new(KvStoreTable(store)), stm: Some(stm) }
}

fn make_kv_single() -> KvBackendInstance {
    // One shard: same store, no sharding — isolates what the shard
    // fan-out buys from what the STM itself costs.
    let stm = Arc::new(Stm::new());
    let store = KvStore::with_config(
        Arc::clone(&stm),
        KvConfig { shards: 1, initial_slots: 1024, params: KvParams::fixed() },
    );
    KvBackendInstance { table: Box::new(KvStoreTable(store)), stm: Some(stm) }
}

fn make_kv_coarse_lock() -> KvBackendInstance {
    KvBackendInstance { table: Box::new(CoarseLockKv(Mutex::new(HashMap::new()))), stm: None }
}

/// The durable store behind the KV driver: every mutation is a logged
/// transaction over a real on-disk WAL (a fresh temp directory per
/// instance, deleted on drop). The durability counters it feeds the
/// STM stats become the `commits_durable`/`fsyncs`/`wal_bytes` bench
/// columns.
pub struct DurableKvTable {
    store: DurableKv,
    dir: std::path::PathBuf,
}

impl DurableKvTable {
    fn open(mode: Durability) -> Self {
        static INSTANCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = INSTANCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("polytm-bench-wal-{}-{n}", std::process::id()));
        let fs = Arc::new(RealFs::open(&dir).expect("create bench WAL directory"));
        let store = DurableKv::open(
            fs,
            DurableKvConfig {
                kv: KvConfig { shards: 16, initial_slots: 64, params: KvParams::fixed() },
                wal: WalConfig { mode, ..WalConfig::default() },
            },
        )
        .expect("open durable bench store");
        Self { store, dir }
    }
}

impl Drop for DurableKvTable {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl KvTable for DurableKvTable {
    fn read(&self, key: u64) -> bool {
        self.store.contains(key)
    }
    fn update(&self, key: u64, value: u64) {
        self.store.put(key, Value::from_u64(value)).expect("bench WAL healthy");
    }
    fn insert(&self, key: u64, value: u64) {
        self.store.put(key, Value::from_u64(value)).expect("bench WAL healthy");
    }
    fn delete(&self, key: u64) -> bool {
        self.store.delete(key).expect("bench WAL healthy").is_some()
    }
    fn read_modify_write(&self, key: u64, value: u64) {
        self.store
            .txn(|tx| {
                let cur = tx.get(key)?.and_then(|v| v.as_u64()).unwrap_or(0);
                tx.put(key, Value::from_u64(cur ^ value))?;
                Ok(())
            })
            .expect("bench WAL healthy");
    }
    fn scan(&self, lo: u64, hi: u64) -> usize {
        self.store.range_count(lo, hi)
    }
    fn load(&self, entries: &[(u64, u64)]) {
        let batch: Vec<(u64, Value)> =
            entries.iter().map(|&(k, v)| (k, Value::from_u64(v))).collect();
        self.store.multi_put(&batch).expect("bench WAL healthy");
    }
}

fn make_kv_durable_sync() -> KvBackendInstance {
    let table = DurableKvTable::open(Durability::Sync);
    let stm = Arc::clone(table.store.stm());
    KvBackendInstance { table: Box::new(table), stm: Some(stm) }
}

fn make_kv_durable_async() -> KvBackendInstance {
    let table = DurableKvTable::open(Durability::Async);
    let stm = Arc::clone(table.store.stm());
    KvBackendInstance { table: Box::new(table), stm: Some(stm) }
}

// ---------------------------------------------------------------------
// Server (network front end) backends
// ---------------------------------------------------------------------

/// Cleans up a durable server store's WAL directory once the store is
/// gone (field order in [`ServerStoreInstance`] drops the store
/// first).
pub struct WalDirGuard(std::path::PathBuf);

impl Drop for WalDirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A live store for the `server-kv` scenario wing: something to put
/// behind `polytm_server::Server::spawn`, plus the STM whose stats the
/// row reports.
pub struct ServerStoreInstance {
    /// The store the server fronts.
    pub store: Arc<dyn polytm_server::ServerStore>,
    /// Its STM, for abort/durability columns.
    pub stm: Arc<Stm>,
    /// Deletes the WAL temp directory after the store drops.
    _guard: Option<WalDirGuard>,
}

/// A named server-store constructor for the `server-kv` wing.
pub struct ServerBackend {
    /// Row name, e.g. `kv-sharded`.
    pub name: &'static str,
    /// Family label for `--backend` filtering.
    pub family: Family,
    make: fn() -> ServerStoreInstance,
}

impl ServerBackend {
    /// Construct a fresh instance of this backend.
    pub fn make(&self) -> ServerStoreInstance {
        (self.make)()
    }
}

fn make_server_kv_sharded() -> ServerStoreInstance {
    let stm = Arc::new(Stm::new());
    let store = Arc::new(KvStore::with_config(
        Arc::clone(&stm),
        KvConfig { shards: 16, initial_slots: 64, params: KvParams::fixed() },
    ));
    ServerStoreInstance { store, stm, _guard: None }
}

fn make_server_kv_durable(mode: Durability) -> ServerStoreInstance {
    static INSTANCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = INSTANCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("polytm-bench-server-wal-{}-{n}", std::process::id()));
    let fs = Arc::new(RealFs::open(&dir).expect("create server bench WAL directory"));
    let store = Arc::new(
        DurableKv::open(
            fs,
            DurableKvConfig {
                kv: KvConfig { shards: 16, initial_slots: 64, params: KvParams::fixed() },
                wal: WalConfig { mode, ..WalConfig::default() },
            },
        )
        .expect("open durable server bench store"),
    );
    let stm = Arc::clone(store.stm());
    ServerStoreInstance { store, stm, _guard: Some(WalDirGuard(dir)) }
}

fn make_server_kv_durable_sync() -> ServerStoreInstance {
    make_server_kv_durable(Durability::Sync)
}

fn make_server_kv_durable_async() -> ServerStoreInstance {
    make_server_kv_durable(Durability::Async)
}

/// The stores the network front end is benchmarked over: the plain
/// sharded store (pure event-loop + STM cost), the sync-durability WAL
/// store (every reply waits for its event-loop round's one fsync) and
/// the async-durability WAL store (adds group commit underneath the
/// server's own coalescing).
pub const SERVER_BACKENDS: &[ServerBackend] = &[
    ServerBackend {
        name: "kv-sharded",
        family: Family::Transactional,
        make: make_server_kv_sharded,
    },
    ServerBackend {
        name: "kv-durable-sync",
        family: Family::Transactional,
        make: make_server_kv_durable_sync,
    },
    ServerBackend {
        name: "kv-durable-async",
        family: Family::Transactional,
        make: make_server_kv_durable_async,
    },
];

/// Every KV backend the YCSB scenario family drives.
pub const KV_BACKENDS: &[KvBackend] = &[
    KvBackend { name: "kv-sharded", family: Family::Transactional, make: make_kv_sharded },
    KvBackend { name: "kv-adaptive", family: Family::Transactional, make: make_kv_adaptive },
    KvBackend { name: "kv-single", family: Family::Transactional, make: make_kv_single },
    KvBackend { name: "kv-coarse-lock", family: Family::LockBased, make: make_kv_coarse_lock },
    KvBackend {
        name: "kv-durable-sync",
        family: Family::Transactional,
        make: make_kv_durable_sync,
    },
    KvBackend {
        name: "kv-durable-async",
        family: Family::Transactional,
        make: make_kv_durable_async,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_list_impl_behaves_like_a_set() {
        for name in LIST_IMPLS {
            let (set, _stm) = make_list_impl(name);
            assert!(set.insert(5), "{name}");
            assert!(!set.insert(5), "{name}");
            assert!(set.contains(5), "{name}");
            assert!(!set.contains(6), "{name}");
            assert!(set.remove(5), "{name}");
            assert!(!set.remove(5), "{name}");
        }
    }

    #[test]
    fn every_hash_impl_behaves_like_a_set() {
        for name in HASH_IMPLS {
            let (set, _stm) = make_hash_impl(name, 8);
            assert!(set.insert(42), "{name}");
            assert!(!set.insert(42), "{name}");
            assert!(set.contains(42), "{name}");
            assert!(set.remove(42), "{name}");
            assert!(!set.contains(42), "{name}");
        }
    }

    #[test]
    fn impl_lists_and_factories_agree() {
        assert_eq!(LIST_IMPLS.len(), 4);
        assert_eq!(HASH_IMPLS.len(), 3);
    }

    #[test]
    fn adaptive_backends_are_registered_and_transactional() {
        let adaptive: Vec<_> =
            BACKENDS.iter().filter(|b| b.name.starts_with("adaptive-")).collect();
        assert!(adaptive.len() >= 2, "at least two adaptive backends must be registered");
        assert!(adaptive.iter().any(|b| b.shape == Shape::Ordered));
        assert!(adaptive.iter().any(|b| b.shape == Shape::Hash));
        for b in &adaptive {
            assert_eq!(b.family, Family::Transactional, "{}", b.name);
        }
    }

    #[test]
    fn adaptive_backends_classify_ops_and_respect_phases() {
        let (set, stm) = AdaptiveListSet::new();
        let advisor = Arc::clone(&set.advisor);
        // Drive enough classified operations through the advisor for at
        // least one epoch to close (default epoch is 512 runs).
        for k in 0..64 {
            assert!(set.insert(k), "{k}");
        }
        for _ in 0..10 {
            for k in 0..64 {
                assert!(set.contains(k));
                std::hint::black_box(set.range_count(0, 64));
            }
        }
        assert!(advisor.epochs() >= 1, "epochs must close under load");
        // Class layout: phase-0 read class 0, update class 1, scan class 2.
        assert!(!advisor.has_written(polytm::ClassId(0)), "contains never writes");
        assert!(advisor.has_written(polytm::ClassId(1)), "inserts write");
        assert!(!advisor.has_written(polytm::ClassId(2)), "scans never write");
        // Phase switch moves subsequent ops to the next class group.
        set.note_phase(1);
        assert!(set.insert(1000));
        assert!(advisor.has_written(polytm::ClassId(3 + 1)), "phase-1 update class");
        set.note_phase(0);
        assert!(set.remove(1000));
        // The structure still behaves like a set throughout.
        assert_eq!(set.range_count(0, 64), 64);
        assert!(stm.stats().commits > 0);
    }

    #[test]
    fn adaptive_hash_behaves_like_a_set_across_phases() {
        let (set, _stm) = AdaptiveHashSet::new(8, 4);
        for k in 0..200 {
            assert!(set.insert(k), "{k}");
        }
        set.note_phase(2);
        for k in 0..200 {
            assert!(set.contains(k), "{k}");
        }
        assert_eq!(set.range_count(50, 150), 100);
        set.note_phase(0);
        for k in 0..200 {
            assert!(set.remove(k), "{k}");
        }
        assert_eq!(set.range_count(0, 200), 0);
    }

    #[test]
    fn every_kv_backend_behaves_like_a_record_store() {
        for b in KV_BACKENDS {
            let inst = b.make();
            let t = inst.table.as_ref();
            assert!(!t.read(5), "{}", b.name);
            t.insert(5, 50);
            assert!(t.read(5), "{}", b.name);
            t.update(5, 51);
            t.read_modify_write(5, 0xFF);
            for k in 10..20 {
                t.insert(k, k);
            }
            assert_eq!(t.scan(10, 20), 10, "{}", b.name);
            assert_eq!(t.scan(10, 15), 5, "{}", b.name);
            assert!(t.delete(5), "{}", b.name);
            assert!(!t.delete(5), "{}", b.name);
            assert!(!t.read(5), "{}", b.name);
            assert_eq!(
                inst.stm.is_some(),
                b.family == Family::Transactional,
                "{}: stm handle iff transactional",
                b.name
            );
        }
        let mut names: Vec<_> = KV_BACKENDS.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), KV_BACKENDS.len(), "kv backend names must be unique");
        assert!(KV_BACKENDS.len() >= 3, "sharded, single-shard and coarse-lock at minimum");
    }

    #[test]
    fn adaptive_kv_backend_classifies_under_load() {
        let inst = KV_BACKENDS.iter().find(|b| b.name == "kv-adaptive").unwrap().make();
        let t = inst.table.as_ref();
        for k in 0..256u64 {
            t.insert(k, k);
        }
        for _ in 0..6 {
            for k in 0..256u64 {
                assert!(t.read(k));
            }
        }
        let stm = inst.stm.as_ref().unwrap();
        let advisor = stm.advisor().expect("adaptive backend installs an advisor");
        // The advisor observed classed runs; regardless of what it
        // selected, the store must still behave like a record store.
        let plan = advisor.plan(polytm::ClassId(0), 0, Semantics::elastic());
        assert_ne!(plan.semantics, Semantics::Irrevocable, "calm reads never escalate");
        assert!(t.read(0));
        t.read_modify_write(0, 7);
        assert!(t.delete(0));
        assert!(stm.stats().commits > 0);
    }

    #[test]
    fn registry_covers_both_families() {
        for family in [Family::Transactional, Family::LockBased] {
            assert!(
                BACKENDS.iter().any(|b| b.family == family),
                "no backend registered for {family:?}"
            );
        }
        let mut names: Vec<_> = BACKENDS.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), BACKENDS.len(), "backend names must be unique");
    }

    #[test]
    fn every_backend_supports_point_and_range_ops() {
        for b in BACKENDS {
            let inst = b.make();
            let set = inst.set.as_ref();
            for k in [10u64, 20, 30, 40] {
                assert!(set.insert(k), "{}", b.name);
            }
            assert!(!set.insert(20), "{}", b.name);
            assert!(set.contains(30), "{}", b.name);
            assert!(!set.contains(31), "{}", b.name);
            assert_eq!(set.range_count(10, 41), 4, "{}", b.name);
            assert_eq!(set.range_count(15, 35), 2, "{}", b.name);
            assert_eq!(set.range_count(15, 15), 0, "{}", b.name);
            assert!(set.remove(20), "{}", b.name);
            assert_eq!(set.range_count(10, 41), 3, "{}", b.name);
            assert_eq!(
                inst.stm.is_some(),
                b.family == Family::Transactional,
                "{}: stm handle iff transactional",
                b.name
            );
        }
    }
}

//! [`KvStore`]: a sharded transactional key-value store over the
//! polymorphic STM.
//!
//! ## Layout
//!
//! Keys hash to one of N **shards** (power of two, cache-padded so
//! shard headers never false-share). Each shard owns a **bucket table**
//! behind a `TVar<Table>`: a power-of-two [`TVarArray`] of bucket
//! registers indexed by the key's hash — the registers themselves, 32
//! bytes each, inline in one allocation per table — a bucket being an
//! immutable array of the records that hash there. One register per
//! bucket and nothing else per record: `get` reads the table register
//! and one bucket and clones the value out (`get_into` copies its bytes
//! out instead); `put`/`delete` copy that one small array with the
//! change applied and write it back. A bucket is never full, so there
//! is no probing, no deleted marker and no growth inside a running
//! transaction; a put that leaves 8 entries (`MAX_BUCKET`) asks for the
//! shard to grow after it commits (`resize_shard`).
//!
//! A table's length follows one rule wherever it is chosen
//! (`settled_len`): the smallest power of two from a starting length up
//! at which no bucket holds `MAX_BUCKET` records, or the first at which
//! the long bucket's keys cannot be separated. Growth starts from the
//! current length and swaps in the settled table in one transaction, so
//! one large batch settles its shards at once; [`KvStore::with_records`]
//! (crash recovery's path) starts from `initial_slots` and builds each
//! shard's table directly, before the store is shared. It runs no
//! transaction, requests no growth and leaves no retired table behind.
//!
//! The conflict granule is the bucket: overwrites of different keys
//! that share one conflict, and every write conflicts with a concurrent
//! doubling of its shard. At about one record per bucket both are rare;
//! DESIGN.md §7 has the measured abort ratio and what the per-record
//! value register this replaced cost to avoid them.
//!
//! ## Cross-shard atomicity
//!
//! Sharding here is a *contention* structure, not a consistency
//! boundary: every operation is an STM transaction over plain `TVar`s,
//! so a [`KvStore::txn`] block spanning shards commits atomically like
//! any other transaction — commit acquires the write set's per-location
//! locks in global address order (deadlock-free) and validates the read
//! set at one point. There is no two-phase commit bolted on top; the
//! shards share one STM instance and one clock.
//!
//! ## Per-operation semantics
//!
//! * `get` runs **no transaction** unless its params carry an advisor
//!   class: a descriptor-free read ([`Stm::read_direct`]) of the table
//!   register, then the bucket. A bucket reached through a
//!   since-replaced table is frozen at the doubling that replaced it —
//!   a value the lookup may linearize at (DESIGN.md §1,
//!   "Descriptor-free point reads"). While either register is locked
//!   or an irrevocable era is open it falls back to an **elastic**
//!   transaction (requested), as does a classed store's `get` always.
//! * `put`/`delete`/`cas`/`modify`/`txn` run **opaque** (requested):
//!   a bucket write is only sound against the table it was indexed
//!   through (a cut table read would let a write land in a bucket a
//!   concurrent doubling has already retired), so writers request the
//!   discipline that validates every read. The classed constructors
//!   rely on the core's guarantee that an advisor plan never weakens a
//!   requested discipline.
//! * scans run **snapshot** (requested): one consistent cut across
//!   every shard, never aborting on read-write conflicts.
//!
//! Every read inside a transaction borrows its register's value
//! ([`polytm::TCell::read_in`] under one [`PeekGuard`] per operation) instead of
//! cloning it, so no table or bucket read writes a reference count;
//! only a doubling reads its buckets by value, because `split` shares
//! the arrays by handle.
//!
//! ## Scans
//!
//! A scan first reads every shard's table and counts their registers.
//! A span holding fewer keys than that is looked up **key by key**, in
//! key order: each key costs one bucket read. Any wider span **walks
//! every register** and filters. The choice needs no tuned constant —
//! a lookup reads one register and the walk reads them all, so the
//! lookups are the cheaper path exactly when the span is narrower than
//! the register count. Either path reads only registers reached
//! through the same table reads at the same read version (the lookups
//! read a subset of the walk's), so the snapshot argument is the
//! walk's, a table doubled mid-scan included: the scan reads the
//! tables and buckets its cut saw, never the doubled ones.

use std::collections::BTreeMap;
use std::sync::Arc;

use crossbeam_utils::CachePadded;
use polytm::{
    ClassId, CommitInfo, PeekGuard, Semantics, Stm, TVar, TVarArray, Transaction, TxParams,
    TxResult,
};

use crate::value::Value;

/// Bucket length at which a write asks its shard to double. The trigger
/// is the length the writing operation sees anyway, not an occupancy
/// counter: a shared counter would serialize every insert in a shard.
const MAX_BUCKET: usize = 8;

/// Keys [`KvStore::warm`] walks side by side: enough independent misses
/// to fill a core's outstanding-load slots, few enough that the lines
/// the early stages fetched are still in L1 when the later ones use
/// them.
const WARM_CHUNK: usize = 16;

/// The records hashing to one bucket, as an immutable array replaced
/// wholesale on every change; `None` is the empty bucket (no
/// allocation behind an unused register).
type Bucket = Option<Arc<[(u64, Value)]>>;

/// A shard's bucket table. Cloning shares the register array (two
/// words), so the `TVar<Table>` swap that grows a shard stays inside
/// the STM's inline write-payload budget.
#[derive(Clone)]
struct Table {
    buckets: TVarArray<Bucket>,
}

impl Table {
    /// Index of the bucket register `key` hashes to.
    #[inline]
    fn index_of(&self, key: u64) -> usize {
        KvStore::slot_start(key) & (self.buckets.len() - 1)
    }
}

// Bucket writes and table swaps are the store's hottest buffered
// writes; both must take the descriptor's allocation-free inline path.
const _: () = assert!(polytm::write_payload_fits_inline::<Bucket>());
const _: () = assert!(polytm::write_payload_fits_inline::<Table>());
// A bucket register is four words, inline in its table.
#[cfg(not(debug_assertions))]
const _: () = assert!(size_of::<polytm::TCell<Bucket>>() == 32);

/// `start(p)` parameters per operation kind. The defaults encode the
/// soundness analysis in the module docs; the classed constructor tags
/// each kind with its own advisor class.
#[derive(Debug, Clone, Copy)]
pub struct KvParams {
    /// Point lookups (`get`/`contains`).
    pub read: TxParams,
    /// Bucket-writing operations (`put`/`delete`/batched ingest).
    pub update: TxParams,
    /// Read-modify-writes (`cas`/`modify`).
    pub rmw: TxParams,
    /// Range/prefix scans and `len`.
    pub scan: TxParams,
    /// Multi-key [`KvStore::txn`] blocks.
    pub txn: TxParams,
}

/// Distinct advisor classes a classed store occupies (read, update,
/// rmw, scan, txn).
pub const KV_CLASSES: u16 = 5;

impl KvParams {
    /// The fixed per-operation semantics (no advisor classes).
    pub fn fixed() -> Self {
        Self {
            read: TxParams::new(Semantics::elastic()),
            update: TxParams::new(Semantics::Opaque),
            rmw: TxParams::new(Semantics::Opaque),
            scan: TxParams::new(Semantics::Snapshot),
            txn: TxParams::new(Semantics::Opaque),
        }
    }

    /// As [`KvParams::fixed`], with each operation kind tagged as its
    /// own transaction class (`base`, `base + 1`, … `base + 4`) for an
    /// advisor installed on the store's STM. Reads may be reclassified
    /// toward snapshot by feedback; writers request opaque, which a
    /// plan may escalate but — by the core's plan guardrails — never
    /// weaken below the every-read-validating discipline they need.
    pub fn classed(base: u16) -> Self {
        let fixed = Self::fixed();
        Self {
            read: fixed.read.with_class(ClassId(base)),
            update: fixed.update.with_class(ClassId(base + 1)),
            rmw: fixed.rmw.with_class(ClassId(base + 2)),
            scan: fixed.scan.with_class(ClassId(base + 3)),
            txn: fixed.txn.with_class(ClassId(base + 4)),
        }
    }
}

/// Construction knobs for a [`KvStore`].
#[derive(Debug, Clone, Copy)]
pub struct KvConfig {
    /// Shard count (power of two, at most 128).
    pub shards: usize,
    /// Initial buckets per shard (power of two, at least 8); shards
    /// grow by doubling when a bucket gets long.
    pub initial_slots: usize,
    /// Per-operation `start(p)` parameters.
    pub params: KvParams,
}

impl Default for KvConfig {
    fn default() -> Self {
        Self { shards: 16, initial_slots: 64, params: KvParams::fixed() }
    }
}

/// Outcome of one raw bucket-writing upsert.
struct PutRaw {
    prev: Option<Value>,
    /// Set when the bucket got long: ask for a doubling after commit.
    /// Carries the length of the table the write was indexed through —
    /// the request's witness: a post-commit resize that finds the table
    /// already swapped to a different length knows the pressure event
    /// was handled and stands down.
    grow: Option<usize>,
}

/// Post-commit maintenance requests gathered during a transaction:
/// `(shard, observed table length)` pairs, one per shard (the first
/// observation wins — any later swap changes the length and thereby
/// invalidates the request).
#[derive(Default)]
struct GrowSet(Vec<(usize, usize)>);

impl GrowSet {
    fn note(&mut self, shard: usize, observed_len: usize) {
        if !self.0.iter().any(|&(s, _)| s == shard) {
            self.0.push((shard, observed_len));
        }
    }
}

/// Sharded transactional key-value store. Cloning shares the store.
///
/// ```
/// use std::sync::Arc;
/// use polytm::Stm;
/// use polytm_kv::{KvStore, Value};
///
/// let store = KvStore::new(Arc::new(Stm::new()));
/// assert_eq!(store.put(1, Value::from_u64(10)), None);
/// assert_eq!(store.get(1), Some(Value::from_u64(10)));
/// // Multi-key atomic transaction spanning shards:
/// store.txn(|kv| {
///     let v = kv.get(1)?.and_then(|v| v.as_u64()).unwrap_or(0);
///     kv.put(2, Value::from_u64(v + 1))?;
///     kv.delete(1)?;
///     Ok(())
/// });
/// assert_eq!(store.get(1), None);
/// assert_eq!(store.get(2), Some(Value::from_u64(11)));
/// ```
#[derive(Clone)]
pub struct KvStore {
    stm: Arc<Stm>,
    /// One table register per shard.
    shards: Arc<[CachePadded<TVar<Table>>]>,
    params: KvParams,
}

/// The shard of `shards` (a power of two) that `key` lives in.
#[inline]
fn shard_index(key: u64, shards: usize) -> usize {
    (mix(key) as usize) & (shards - 1)
}

fn mix(key: u64) -> u64 {
    let mut h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 32;
    h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    h ^= h >> 32;
    h
}

impl KvStore {
    /// A store with the default configuration (16 shards × 64 initial
    /// slots, fixed per-operation semantics).
    pub fn new(stm: Arc<Stm>) -> Self {
        Self::with_config(stm, KvConfig::default())
    }

    /// A store with explicit configuration.
    ///
    /// # Panics
    /// Panics on a non-power-of-two or oversized shard count, an
    /// invalid initial table size, or writer params whose semantics
    /// do not validate every read (read-only, or elastic — a cut table
    /// read lets a write land in a retired bucket; writers must request
    /// [`Semantics::Opaque`] or [`Semantics::Irrevocable`]).
    pub fn with_config(stm: Arc<Stm>, config: KvConfig) -> Self {
        check_config(&config);
        let shards = (0..config.shards)
            .map(|_| CachePadded::new(stm.new_tvar(fresh_table(&stm, config.initial_slots))))
            .collect();
        Self { stm, shards, params: config.params }
    }

    /// A store holding `records`, built without a transaction. Each
    /// shard's table is built at its final length (module docs,
    /// "Layout") and filled before any other thread can see the store,
    /// so nothing commits, no doubling is requested and no replaced
    /// table is left for reclamation.
    ///
    /// # Panics
    /// As [`KvStore::with_config`].
    pub fn with_records(stm: Arc<Stm>, config: KvConfig, records: BTreeMap<u64, Value>) -> Self {
        check_config(&config);
        let mut per_shard: Vec<Vec<(u64, Value)>> = vec![Vec::new(); config.shards];
        for (key, value) in records {
            per_shard[shard_index(key, config.shards)].push((key, value));
        }
        let shards = per_shard
            .into_iter()
            .map(|records| {
                CachePadded::new(stm.new_tvar(sized_table(&stm, config.initial_slots, records)))
            })
            .collect();
        Self { stm, shards, params: config.params }
    }

    /// The STM this store lives in.
    pub fn stm(&self) -> &Arc<Stm> {
        &self.stm
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total bucket registers across shards (snapshot read; a
    /// diagnostic).
    pub fn capacity(&self) -> usize {
        self.stm.run(self.params.scan, |tx| {
            let guard = PeekGuard::pin();
            let mut total = 0;
            for shard in self.shards.iter() {
                total += shard.read_in(tx, &guard)?.buckets.len();
            }
            Ok(total)
        })
    }

    #[inline]
    fn shard_of(&self, key: u64) -> usize {
        shard_index(key, self.shards.len())
    }

    #[inline]
    fn slot_start(key: u64) -> usize {
        (mix(key) >> 16) as usize
    }

    // ------------------------------------------------------------------
    // Transaction-composable operations
    // ------------------------------------------------------------------

    /// The shard table `key` lives in, read by reference under `guard`,
    /// and the index of its bucket there.
    fn locate<'g>(
        &'g self,
        tx: &mut Transaction<'_>,
        key: u64,
        guard: &'g PeekGuard,
    ) -> TxResult<(&'g Table, usize)> {
        let table = self.shards[self.shard_of(key)].read_in(tx, guard)?;
        Ok((table, table.index_of(key)))
    }

    /// Composable point lookup.
    pub fn get_in(&self, tx: &mut Transaction<'_>, key: u64) -> TxResult<Option<Value>> {
        let guard = PeekGuard::pin();
        let (table, at) = self.locate(tx, key, &guard)?;
        let bucket = table.buckets[at].read_in(tx, &guard)?;
        Ok(find(entries(bucket), key).cloned())
    }

    /// Composable membership test.
    pub fn contains_in(&self, tx: &mut Transaction<'_>, key: u64) -> TxResult<bool> {
        Ok(self.get_in(tx, key)?.is_some())
    }

    /// Raw bucket-writing upsert. Never grows the table itself (a
    /// doubling must be its own transaction); reports a long bucket
    /// instead.
    fn put_raw(&self, tx: &mut Transaction<'_>, key: u64, value: Value) -> TxResult<PutRaw> {
        let guard = PeekGuard::pin();
        let (table, at) = self.locate(tx, key, &guard)?;
        let old = entries(table.buckets[at].read_in(tx, &guard)?);
        // Either way the new array is one allocation, filled in place.
        let (prev, new): (_, Arc<[(u64, Value)]>) = match old.iter().position(|(k, _)| *k == key) {
            Some(hit) => {
                let mut new: Arc<[(u64, Value)]> = old.into();
                let slot = &mut Arc::get_mut(&mut new).expect("just built, not yet shared")[hit].1;
                (Some(std::mem::replace(slot, value)), new)
            }
            None => (None, old.iter().cloned().chain(std::iter::once((key, value))).collect()),
        };
        let grow = (new.len() >= MAX_BUCKET).then_some(table.buckets.len());
        table.buckets[at].write(tx, Some(new))?;
        Ok(PutRaw { prev, grow })
    }

    /// Composable upsert; returns the previous value. Growth
    /// maintenance for a bucket this leaves long runs after the
    /// enclosing top-level operation commits (see [`KvStore::txn`]).
    pub fn put_in(
        &self,
        tx: &mut Transaction<'_>,
        key: u64,
        value: Value,
    ) -> TxResult<Option<Value>> {
        Ok(self.put_raw(tx, key, value)?.prev)
    }

    /// Composable delete; returns the removed value. Deleting a
    /// bucket's last record leaves the register empty (`None`).
    pub fn delete_in(&self, tx: &mut Transaction<'_>, key: u64) -> TxResult<Option<Value>> {
        let guard = PeekGuard::pin();
        let (table, at) = self.locate(tx, key, &guard)?;
        let old = entries(table.buckets[at].read_in(tx, &guard)?);
        let Some(hit) = old.iter().position(|(k, _)| *k == key) else {
            return Ok(None);
        };
        // Exact-size iterator: the shorter array is one allocation.
        let rest =
            (old.len() > 1).then(|| old[..hit].iter().chain(&old[hit + 1..]).cloned().collect());
        table.buckets[at].write(tx, rest)?;
        Ok(Some(old[hit].1.clone()))
    }

    /// Visit every record in the *inclusive* span `[lo, hi_incl]` — the
    /// internal span form, so `u64::MAX` keys are reachable. A span of
    /// fewer keys than the tables have registers is looked up key by
    /// key, in key order; any other walks every register, in table
    /// order (module docs, "Scans").
    fn for_each_in_span(
        &self,
        tx: &mut Transaction<'_>,
        lo: u64,
        hi_incl: u64,
        mut visit: impl FnMut(u64, &Value),
    ) -> TxResult<()> {
        let guard = PeekGuard::pin();
        let mut tables = Vec::with_capacity(self.shards.len());
        let mut registers = 0;
        for shard in self.shards.iter() {
            let table = shard.read_in(tx, &guard)?;
            registers += table.buckets.len();
            tables.push(table);
        }
        if hi_incl - lo < registers as u64 {
            for key in lo..=hi_incl {
                let table = tables[self.shard_of(key)];
                let bucket = table.buckets[table.index_of(key)].read_in(tx, &guard)?;
                if let Some(value) = find(entries(bucket), key) {
                    visit(key, value);
                }
            }
            return Ok(());
        }
        for table in tables {
            for register in table.buckets.iter() {
                for (k, v) in entries(register.read_in(tx, &guard)?) {
                    if lo <= *k && *k <= hi_incl {
                        visit(*k, v);
                    }
                }
            }
        }
        Ok(())
    }

    /// Composable count over the *inclusive* span `[lo, hi_incl]`.
    fn count_span_in(&self, tx: &mut Transaction<'_>, lo: u64, hi_incl: u64) -> TxResult<usize> {
        let mut n = 0;
        self.for_each_in_span(tx, lo, hi_incl, |_, _| n += 1)?;
        Ok(n)
    }

    /// Composable scan over the *inclusive* span `[lo, hi_incl]`,
    /// sorted by key (the key-by-key path visits in key order already,
    /// and sorting sorted input is linear).
    fn collect_span_in(
        &self,
        tx: &mut Transaction<'_>,
        lo: u64,
        hi_incl: u64,
    ) -> TxResult<Vec<(u64, Value)>> {
        let mut out = Vec::new();
        self.for_each_in_span(tx, lo, hi_incl, |k, v| out.push((k, v.clone())))?;
        out.sort_unstable_by_key(|&(k, _)| k);
        Ok(out)
    }

    /// Composable range count over `[lo, hi)`.
    pub fn range_count_in(&self, tx: &mut Transaction<'_>, lo: u64, hi: u64) -> TxResult<usize> {
        if lo >= hi {
            return Ok(0);
        }
        self.count_span_in(tx, lo, hi - 1)
    }

    /// Composable range scan over `[lo, hi)`, sorted by key.
    pub fn scan_range_in(
        &self,
        tx: &mut Transaction<'_>,
        lo: u64,
        hi: u64,
    ) -> TxResult<Vec<(u64, Value)>> {
        if lo >= hi {
            return Ok(Vec::new());
        }
        self.collect_span_in(tx, lo, hi - 1)
    }

    // ------------------------------------------------------------------
    // Top-level operations
    // ------------------------------------------------------------------

    /// Point lookup. On a store whose reads carry no advisor class (the
    /// default [`KvParams::fixed`]) it is a descriptor-free read
    /// ([`Stm::read_direct`]): the table register, then the bucket, and
    /// no transaction. It runs as a transaction under `params.read`
    /// while either register is locked or an irrevocable era is open,
    /// and always on a classed store, whose advisor needs the telemetry.
    pub fn get(&self, key: u64) -> Option<Value> {
        if let Some(found) = self.get_direct(key, |value| value.cloned()) {
            return found;
        }
        self.stm.run(self.params.read, |tx| self.get_in(tx, key))
    }

    /// [`KvStore::get`] into a buffer: appends the value's bytes to
    /// `out` and returns `true`, or leaves `out` as it was and returns
    /// `false` when `key` is absent. On the descriptor-free path the
    /// bytes are copied straight out of the bucket: no `Value` clone,
    /// and no allocation when `out` has the room.
    pub fn get_into(&self, key: u64, out: &mut Vec<u8>) -> bool {
        let start = out.len();
        let append =
            |value: Option<&Value>| value.map(|v| out.extend_from_slice(v.as_bytes())).is_some();
        if let Some(found) = self.get_direct(key, append) {
            return found;
        }
        // The direct read gave up, perhaps after appending.
        out.truncate(start);
        self.get(key).map(|value| out.extend_from_slice(value.as_bytes())).is_some()
    }

    /// The descriptor-free lookup behind [`KvStore::get`]: `answer`
    /// applied to the value `key` holds, or `None` when the caller must
    /// run the transaction instead. DESIGN.md §1 ("Descriptor-free
    /// point reads") argues why the two unvalidated loads linearize.
    #[inline]
    fn get_direct<R>(&self, key: u64, answer: impl FnOnce(Option<&Value>) -> R) -> Option<R> {
        if self.params.read.class.is_some() {
            return None;
        }
        self.stm.read_direct(|guard| {
            let table = self.shards[self.shard_of(key)].peek_committed(guard)?;
            let bucket = table.buckets[table.index_of(key)].peek_committed(guard)?;
            Some(answer(find(entries(bucket), key)))
        })
    }

    /// Membership test.
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Hint that `keys` are about to be read: pull the cache lines a
    /// [`KvStore::get`] of each walks towards the core, and do nothing
    /// else — no transaction, no commit, no statistics, nothing
    /// returned. A `get` chases four dependent lines (bucket register →
    /// version node → bucket array → value bytes), each a miss on a
    /// working set beyond cache; back-to-back `get`s pay the chains one
    /// after another. Here the keys go 16 (`WARM_CHUNK`) at a time and
    /// *stage by stage*, one line per stage, so the misses of one stage
    /// are independent loads the core overlaps.
    ///
    /// One epoch pin covers the whole call: a pin is a sequentially
    /// consistent fence, and one per key would serialize exactly the
    /// misses this exists to overlap. What a stage sees may be stale by
    /// the time the real read runs (a concurrent put, delete or
    /// doubling); the real read then misses as it would have, and its
    /// answer comes from its own transaction either way.
    pub fn warm(&self, keys: &[u64]) {
        let guard = PeekGuard::pin();
        for chunk in keys.chunks(WARM_CHUNK) {
            // Table registers are few and stay cached, and a bucket
            // register's address is arithmetic on its table: the
            // register's head pointer is the first line that is not.
            let mut heads: [Option<&Bucket>; WARM_CHUNK] = [None; WARM_CHUNK];
            for (head, &key) in heads.iter_mut().zip(chunk) {
                let table = self.shards[self.shard_of(key)].peek(&guard);
                *head = Some(table.buckets[table.index_of(key)].peek(&guard));
            }
            let mut buckets: [&[(u64, Value)]; WARM_CHUNK] = [&[]; WARM_CHUNK];
            for (bucket, head) in buckets.iter_mut().zip(heads.iter().flatten()) {
                *bucket = entries(head);
            }
            let mut values: [Option<&Value>; WARM_CHUNK] = [None; WARM_CHUNK];
            for ((value, bucket), &key) in values.iter_mut().zip(buckets).zip(chunk) {
                *value = find(bucket, key);
            }
            // A shared payload's allocation can straddle two lines.
            for bytes in values.iter().flatten().map(|v| v.as_bytes()) {
                std::hint::black_box((bytes.first(), bytes.last()));
            }
        }
    }

    /// Insert-or-overwrite; returns the previous value. Grows the
    /// shard's table (its own transaction, after this one commits) when
    /// the bucket got long.
    pub fn put(&self, key: u64, value: Value) -> Option<Value> {
        let raw = self.stm.run(self.params.update, |tx| self.put_raw(tx, key, value.clone()));
        if let Some(observed_len) = raw.grow {
            self.resize_shard(self.shard_of(key), observed_len);
        }
        raw.prev
    }

    /// Delete; returns the removed value.
    pub fn delete(&self, key: u64) -> Option<Value> {
        self.stm.run(self.params.update, |tx| self.delete_in(tx, key))
    }

    /// Atomic compare-and-set: when the current value at `key` equals
    /// `expected` (`None` = key absent), install `new` and return
    /// `true`; otherwise change nothing and return `false`. One opaque
    /// read-modify-write transaction.
    pub fn cas(&self, key: u64, expected: Option<&Value>, new: Value) -> bool {
        let (swapped, grow) = self.stm.run(self.params.rmw, |tx| {
            let cur = self.get_in(tx, key)?;
            if cur.as_ref() != expected {
                return Ok((false, None));
            }
            let raw = self.put_raw(tx, key, new.clone())?;
            Ok((true, raw.grow))
        });
        if let Some(observed_len) = grow {
            self.resize_shard(self.shard_of(key), observed_len);
        }
        swapped
    }

    /// Atomic read-modify-write: replace the record at `key` with
    /// `f(current)` (insert when absent); returns the previous value.
    pub fn modify(&self, key: u64, f: impl Fn(Option<&Value>) -> Value) -> Option<Value> {
        let raw = self.stm.run(self.params.rmw, |tx| {
            let cur = self.get_in(tx, key)?;
            let next = f(cur.as_ref());
            self.put_raw(tx, key, next)
        });
        if let Some(observed_len) = raw.grow {
            self.resize_shard(self.shard_of(key), observed_len);
        }
        raw.prev
    }

    /// Batched multi-put: every entry installed in **one** transaction
    /// (all-or-nothing, whatever shards the keys span). Entries are
    /// applied in key order for a deterministic write pattern; commit
    /// acquires the touched bucket locks in global address order like
    /// any other transaction. The write-heavy-ingest fast path: one commit
    /// (one clock advance, one validation) amortized over the batch.
    ///
    /// **Duplicate keys are last-write-wins**: when `entries` carries a
    /// key more than once, the store ends up with the value of the
    /// *latest* occurrence in input order, exactly as if the entries
    /// had been `put` one by one. (The key-ordered application uses a
    /// stable sort, so equal keys keep their input order and the last
    /// occurrence's upsert lands last.)
    pub fn multi_put(&self, entries: &[(u64, Value)]) {
        let mut sorted: Vec<&(u64, Value)> = entries.iter().collect();
        // Stable by key: duplicate keys keep their input order, so the
        // batch's last entry for a key deterministically wins (each put
        // is an upsert). References: each attempt clones a value once.
        sorted.sort_by_key(|entry| entry.0);
        let requests = self.stm.run(self.params.update, |tx| {
            let mut requests = GrowSet::default();
            for &(key, ref value) in sorted.iter().copied() {
                let raw = self.put_raw(tx, key, value.clone())?;
                if let Some(observed_len) = raw.grow {
                    requests.note(self.shard_of(key), observed_len);
                }
            }
            Ok(requests)
        });
        self.apply_growth(requests);
    }

    /// Run a multi-key atomic transaction against the store. The
    /// closure may touch any number of keys on any shards; it re-runs
    /// on conflict like any STM transaction, and its effects commit
    /// atomically. Shards in which the committed attempt left a long
    /// bucket are doubled afterwards.
    pub fn txn<T>(&self, mut f: impl FnMut(&mut KvTxn<'_, '_>) -> TxResult<T>) -> T {
        let (value, requests) = self.stm.run(self.params.txn, |tx| {
            let mut view = KvTxn { store: self, tx, grow: GrowSet::default() };
            let value = f(&mut view)?;
            let requests = std::mem::take(&mut view.grow);
            Ok((value, requests))
        });
        self.apply_growth(requests);
        value
    }

    /// [`KvStore::txn`] plus the committed attempt's
    /// [`CommitInfo`] — the entry point the durability layer wraps: the
    /// closure stages redo bytes alongside its writes (via
    /// [`KvTxn::tx`] and [`Transaction::stage_redo`]) and the returned
    /// sequence number is what the write-ahead log's `wait_durable`
    /// takes. Growth maintenance runs after the commit, exactly as in
    /// [`KvStore::txn`] (maintenance transactions stage no redo — a
    /// doubling redistributes records and changes no value, so
    /// recovery rebuilds tables from scratch instead of replaying
    /// them).
    pub fn txn_logged<T>(
        &self,
        mut f: impl FnMut(&mut KvTxn<'_, '_>) -> TxResult<T>,
    ) -> (T, CommitInfo) {
        let ((value, requests), info) = self.stm.run_logged(self.params.txn, |tx| {
            let mut view = KvTxn { store: self, tx, grow: GrowSet::default() };
            let value = f(&mut view)?;
            let requests = std::mem::take(&mut view.grow);
            Ok((value, requests))
        });
        self.apply_growth(requests);
        (value, info)
    }

    /// Records in `[lo, hi)` under snapshot semantics, sorted by key:
    /// one consistent cut across every shard, never aborting on
    /// read-write conflicts.
    pub fn scan_range(&self, lo: u64, hi: u64) -> Vec<(u64, Value)> {
        self.stm.run(self.params.scan, |tx| self.scan_range_in(tx, lo, hi))
    }

    /// Number of records in `[lo, hi)` (snapshot semantics).
    pub fn range_count(&self, lo: u64, hi: u64) -> usize {
        self.stm.run(self.params.scan, |tx| self.range_count_in(tx, lo, hi))
    }

    /// Records whose key has `prefix` in its bits above the low
    /// `low_bits` — i.e. keys `k` with `k >> low_bits == prefix` —
    /// sorted by key. The prefix-scan shape for hierarchic keys
    /// (tenant/bucket/object packed into a `u64`). The topmost prefix
    /// block includes `u64::MAX` itself.
    ///
    /// # Panics
    /// Panics when `low_bits >= 64` or the prefix does not fit above
    /// `low_bits`.
    pub fn scan_prefix(&self, prefix: u64, low_bits: u32) -> Vec<(u64, Value)> {
        assert!(low_bits < 64, "low_bits must leave room for a prefix");
        assert!(prefix <= (u64::MAX >> low_bits), "prefix does not fit above {low_bits} low bits");
        let lo = prefix << low_bits;
        let hi_incl = lo + ((1u64 << low_bits) - 1);
        self.stm.run(self.params.scan, |tx| self.collect_span_in(tx, lo, hi_incl))
    }

    /// Number of live records (snapshot semantics; counts the whole key
    /// space, `u64::MAX` included).
    pub fn len(&self) -> usize {
        self.stm.run(self.params.scan, |tx| self.count_span_in(tx, 0, u64::MAX))
    }

    /// True when no records are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // ------------------------------------------------------------------
    // Growth
    // ------------------------------------------------------------------

    fn apply_growth(&self, requests: GrowSet) {
        for (si, observed_len) in requests.0 {
            self.resize_shard(si, observed_len);
        }
    }

    /// Grow shard `si`'s table in one monomorphic transaction, straight
    /// to the length `settled_len` chooses from the current one: the
    /// records of bucket *i* spread over the buckets *i + k·len* by the
    /// hash bits the longer mask newly exposes. `observed_len` is the
    /// table length the requesting operation wrote through: requests
    /// for one pressure event serialize here, and one that finds the
    /// table already swapped to a different length stands down (this is
    /// what keeps stacked requests from growing a shard repeatedly). So
    /// does one whose table has already settled: no bucket is long any
    /// more, or the long bucket's keys agree on every hash bit a table
    /// indexes by, which no growth separates, so the store accepts the
    /// long bucket instead of doubling without bound. Reading every
    /// bucket makes the growth conflict with every concurrent write to
    /// the shard; the loser re-runs.
    fn resize_shard(&self, si: usize, observed_len: usize) {
        self.stm.run(TxParams::new(Semantics::Opaque), |tx| {
            let guard = PeekGuard::pin();
            let table = self.shards[si].read_in(tx, &guard)?;
            let len = table.buckets.len();
            if len != observed_len {
                return Ok(()); // already swapped: the pressure event was handled
            }
            // By value: `split` shares the arrays by handle.
            let old: Vec<Bucket> =
                table.buckets.iter().map(|register| register.read(tx)).collect::<TxResult<_>>()?;
            let hashes: Vec<usize> =
                old.iter().flat_map(entries).map(|(key, _)| KvStore::slot_start(*key)).collect();
            let new_len = settled_len(len, &hashes);
            if new_len == len {
                return Ok(()); // settled: nothing growth would separate
            }
            let mut buckets: Vec<Bucket> = vec![None; new_len];
            for bucket in old {
                split(bucket, new_len, |at, part| buckets[at] = part);
            }
            self.shards[si].write(tx, Table { buckets: self.stm.new_tvar_array(buckets) })
        })
    }
}

/// The constructors' argument checks (see [`KvStore::with_config`]).
fn check_config(config: &KvConfig) {
    assert!(
        config.shards.is_power_of_two() && config.shards <= 128,
        "shards must be a power of two in 1..=128, got {}",
        config.shards
    );
    assert!(
        config.initial_slots.is_power_of_two() && config.initial_slots >= 8,
        "initial_slots must be a power of two >= 8, got {}",
        config.initial_slots
    );
    for (label, params) in
        [("update", config.params.update), ("rmw", config.params.rmw), ("txn", config.params.txn)]
    {
        assert!(
            matches!(params.semantics, Semantics::Opaque | Semantics::Irrevocable),
            "{label} params must request opaque or irrevocable semantics \
             (got {:?}): bucket writes are only sound when the table read \
             they were indexed through is validated",
            params.semantics
        );
    }
}

fn fresh_table(stm: &Stm, buckets: usize) -> Table {
    Table { buckets: stm.new_tvar_array((0..buckets).map(|_| None)) }
}

/// Whether a long bucket in a `len`-register table holding `records`
/// records is beyond doubling's reach: below one record per four
/// registers, a bucket can only be long because its keys agree on every
/// hash bit a table indexes by, and no doubling separates those. Growth
/// stops there rather than doubling without bound.
fn inseparable(records: usize, len: usize) -> bool {
    records * 4 < len
}

/// The one table-length rule: for a shard whose records hash to
/// `hashes` (`KvStore::slot_start` of each key), the smallest power of
/// two from `from` up at which no bucket holds `MAX_BUCKET` records, or
/// the first at which the keys are [`inseparable`]. Below
/// `records / (MAX_BUCKET - 1)` registers some bucket is long by
/// pigeonhole, so the search starts there.
fn settled_len(from: usize, hashes: &[usize]) -> usize {
    let floor = hashes.len().div_ceil(MAX_BUCKET - 1).next_power_of_two();
    let mut len = from.max(floor);
    let mut counts = Vec::new();
    loop {
        counts.clear();
        counts.resize(len, 0usize);
        let long = hashes.iter().any(|hash| {
            let count = &mut counts[hash & (len - 1)];
            *count += 1;
            *count >= MAX_BUCKET
        });
        if !long || inseparable(hashes.len(), len) {
            return len;
        }
        len *= 2;
    }
}

/// A table holding one shard's `records` (distinct keys) at the length
/// growth from `initial` settles at ([`settled_len`]).
fn sized_table(stm: &Stm, initial: usize, records: Vec<(u64, Value)>) -> Table {
    let hashes: Vec<usize> = records.iter().map(|(key, _)| KvStore::slot_start(*key)).collect();
    let len = settled_len(initial, &hashes);
    let mut counts = vec![0usize; len];
    for hash in &hashes {
        counts[hash & (len - 1)] += 1;
    }
    let mut buckets: Vec<Vec<(u64, Value)>> = counts.into_iter().map(Vec::with_capacity).collect();
    for (record, hash) in records.into_iter().zip(hashes) {
        buckets[hash & (len - 1)].push(record);
    }
    let buckets = buckets.into_iter().map(|bucket| (!bucket.is_empty()).then(|| bucket.into()));
    Table { buckets: stm.new_tvar_array(buckets) }
}

/// The records of a bucket (none for the empty bucket).
fn entries(bucket: &Bucket) -> &[(u64, Value)] {
    bucket.as_deref().unwrap_or(&[])
}

/// The value `key` holds in `records`, if it is there.
fn find(records: &[(u64, Value)], key: u64) -> Option<&Value> {
    records.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

/// Hands `place` the parts of `bucket` a `len`-register table holds, by
/// index. A bucket whose records all land at one index keeps its array
/// (shared by handle).
fn split(bucket: Bucket, len: usize, mut place: impl FnMut(usize, Bucket)) {
    let index = |key: u64| KvStore::slot_start(key) & (len - 1);
    let all = entries(&bucket);
    let Some(&(first, _)) = all.first() else {
        return;
    };
    let at = index(first);
    if all.iter().all(|(key, _)| index(*key) == at) {
        place(at, bucket);
        return;
    }
    let mut parts: Vec<(usize, Vec<(u64, Value)>)> = Vec::new();
    for record in all {
        let at = index(record.0);
        match parts.iter_mut().find(|(part_at, _)| *part_at == at) {
            Some((_, part)) => part.push(record.clone()),
            None => parts.push((at, vec![record.clone()])),
        }
    }
    for (at, part) in parts {
        place(at, Some(part.into()));
    }
}

/// The store view handed to a [`KvStore::txn`] closure: the same
/// composable operations, plus growth-request bookkeeping so long
/// buckets inside the transaction still trigger maintenance after it
/// commits.
pub struct KvTxn<'s, 'tx> {
    store: &'s KvStore,
    tx: &'s mut Transaction<'tx>,
    grow: GrowSet,
}

impl<'tx> KvTxn<'_, 'tx> {
    /// Point lookup.
    pub fn get(&mut self, key: u64) -> TxResult<Option<Value>> {
        self.store.get_in(self.tx, key)
    }

    /// Membership test.
    pub fn contains(&mut self, key: u64) -> TxResult<bool> {
        self.store.contains_in(self.tx, key)
    }

    /// Insert-or-overwrite; returns the previous value.
    pub fn put(&mut self, key: u64, value: Value) -> TxResult<Option<Value>> {
        let raw = self.store.put_raw(self.tx, key, value)?;
        if let Some(observed_len) = raw.grow {
            self.grow.note(self.store.shard_of(key), observed_len);
        }
        Ok(raw.prev)
    }

    /// Delete; returns the removed value.
    pub fn delete(&mut self, key: u64) -> TxResult<Option<Value>> {
        self.store.delete_in(self.tx, key)
    }

    /// Number of records in `[lo, hi)` as seen by this transaction.
    pub fn range_count(&mut self, lo: u64, hi: u64) -> TxResult<usize> {
        self.store.range_count_in(self.tx, lo, hi)
    }

    /// The underlying transaction, for composing the store with other
    /// transactional structures living on the same STM inside one
    /// atomic block (e.g. maintaining a `TxMap` secondary index next to
    /// the store's records).
    pub fn tx(&mut self) -> &mut Transaction<'tx> {
        self.tx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn small_store() -> KvStore {
        KvStore::with_config(
            Arc::new(Stm::new()),
            KvConfig { shards: 4, initial_slots: 8, params: KvParams::fixed() },
        )
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let store = small_store();
        assert_eq!(store.put(1, Value::from_u64(10)), None);
        assert_eq!(store.put(1, Value::from_u64(11)), Some(Value::from_u64(10)));
        assert_eq!(store.get(1), Some(Value::from_u64(11)));
        assert_eq!(store.get(2), None);
        assert!(store.contains(1));
        assert_eq!(store.delete(1), Some(Value::from_u64(11)));
        assert_eq!(store.delete(1), None);
        assert!(store.is_empty());
    }

    #[test]
    fn grows_under_load_and_keeps_every_record() {
        let store = small_store(); // 4 shards x 8 buckets = 32 to start
        const RECORDS: usize = 10_000;
        for k in 0..RECORDS as u64 {
            assert_eq!(store.put(k, Value::from_u64(k * 2)), None, "key {k}");
        }
        // Growth is bounded both ways: buckets stay short, and stacked
        // maintenance requests for one pressure event stand down
        // instead of doubling again.
        let capacity = store.capacity();
        assert!(capacity >= RECORDS / MAX_BUCKET, "buckets longer than the trigger: {capacity}");
        assert!(capacity <= 2 * RECORDS, "growth amplification: {capacity} registers");
        for k in 0..RECORDS as u64 {
            assert_eq!(store.get(k), Some(Value::from_u64(k * 2)), "key {k}");
        }
        assert_eq!(store.len(), RECORDS);
    }

    #[test]
    fn deleting_a_buckets_last_record_empties_its_register() {
        let store = small_store();
        let before = store.capacity();
        // 10^5 insert/delete cycles over the same few keys.
        for cycle in 0..100_000u64 {
            let k = cycle % 16;
            assert_eq!(store.put(k, Value::from_u64(cycle)), None);
            assert_eq!(store.delete(k), Some(Value::from_u64(cycle)));
        }
        assert!(store.is_empty());
        assert_eq!(store.capacity(), before, "deletes leave nothing behind to grow on");
        // No deleted marker, no zero-length array: every register is
        // back to the state a fresh table starts in.
        store.stm().run(TxParams::new(Semantics::Snapshot), |tx| {
            for shard in store.shards.iter() {
                for register in shard.read(tx)?.buckets.iter() {
                    assert!(register.read(tx)?.is_none());
                }
            }
            Ok(())
        });
    }

    /// The key `mix` sends to `hash`: both xor-shifts are involutions
    /// and both multipliers are odd, so each step inverts exactly.
    fn unmix(hash: u64) -> u64 {
        const INV_SECOND: u64 = 0xCFEE_444D_8B59_A89B; // of 0xD6E8_FEB8_6659_FD93
        const INV_FIRST: u64 = 0xF1DE_83E1_9937_733D; // of 0x9E37_79B9_7F4A_7C15
        let mut h = hash;
        h ^= h >> 32;
        h = h.wrapping_mul(INV_SECOND);
        h ^= h >> 32;
        h.wrapping_mul(INV_FIRST)
    }

    /// Keys that agree on every bit a table can index by cannot be
    /// separated by doubling: the store accepts the long bucket rather
    /// than doubling the shard on every further put.
    #[test]
    fn inseparable_keys_share_a_long_bucket_without_unbounded_doubling() {
        let store = small_store();
        for k in 0..1_000u64 {
            store.put(k, Value::from_u64(k));
        }
        let before = store.capacity();
        // Same shard (low bits), same bucket at any table length (all 48
        // bits from bit 16 up); only the bits in between differ.
        let colliding: Vec<u64> = (0..64u64).map(|j| unmix((0xC0FFEE << 16) | (j << 7))).collect();
        for (j, key) in colliding.iter().enumerate() {
            assert_eq!(mix(*key), (0xC0FFEE << 16) | ((j as u64) << 7), "unmix must invert mix");
            assert_eq!(store.put(*key, Value::from_u64(j as u64)), None);
        }
        // Overwriting a long bucket asks for growth again, every time.
        for (j, key) in colliding.iter().enumerate() {
            assert_eq!(store.put(*key, Value::from_u64(j as u64 + 100)), Some((j as u64).into()));
        }
        for (j, key) in colliding.iter().enumerate() {
            assert_eq!(store.get(*key), Some(Value::from_u64(j as u64 + 100)));
        }
        assert_eq!(store.len(), 1_064);
        let after = store.capacity();
        assert!(after <= 4 * before, "unbounded doubling: {before} -> {after} registers");
    }

    #[test]
    fn txn_duplicate_keys_resolve_to_the_last_write() {
        let store = small_store();
        store.put(5, Value::from_u64(0));
        let seen = store.txn(|kv| {
            kv.put(5, Value::from_u64(1))?;
            kv.put(9, Value::from_u64(7))?;
            kv.delete(5)?;
            kv.put(5, Value::from_u64(2))?;
            let mid = kv.get(5)?;
            kv.put(5, Value::from_u64(3))?;
            Ok(mid)
        });
        assert_eq!(seen, Some(Value::from_u64(2)));
        assert_eq!(store.get(5), Some(Value::from_u64(3)));
        assert_eq!(store.get(9), Some(Value::from_u64(7)));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn cas_compares_by_content() {
        let store = small_store();
        // Absent-key CAS.
        assert!(!store.cas(5, Some(&Value::from_u64(1)), Value::from_u64(2)));
        assert!(store.cas(5, None, Value::from_u64(1)));
        assert_eq!(store.get(5), Some(Value::from_u64(1)));
        // Present-key CAS.
        assert!(!store.cas(5, None, Value::from_u64(9)));
        assert!(!store.cas(5, Some(&Value::from_u64(2)), Value::from_u64(9)));
        assert!(store.cas(5, Some(&Value::from_u64(1)), Value::from_u64(9)));
        assert_eq!(store.get(5), Some(Value::from_u64(9)));
    }

    #[test]
    fn modify_is_an_upserting_rmw() {
        let store = small_store();
        let bump =
            |cur: Option<&Value>| Value::from_u64(cur.and_then(Value::as_u64).unwrap_or(0) + 1);
        assert_eq!(store.modify(3, bump), None);
        assert_eq!(store.modify(3, bump), Some(Value::from_u64(1)));
        assert_eq!(store.get(3), Some(Value::from_u64(2)));
    }

    #[test]
    fn multi_put_installs_a_batch_atomically() {
        let store = small_store();
        let batch: Vec<(u64, Value)> = (0..200u64).map(|k| (k * 7, Value::from_u64(k))).collect();
        store.multi_put(&batch);
        for (k, v) in &batch {
            assert_eq!(store.get(*k).as_ref(), Some(v), "key {k}");
        }
        assert_eq!(store.len(), 200);
    }

    #[test]
    fn scans_agree_with_a_model_and_sort_by_key() {
        let store = small_store();
        let mut model = BTreeMap::new();
        let mut seed = 7u64;
        for _ in 0..400 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let k = (seed >> 33) % 256;
            let v = Value::from_u64(seed);
            match seed % 3 {
                0 => {
                    assert_eq!(store.put(k, v.clone()), model.insert(k, v));
                }
                1 => {
                    assert_eq!(store.delete(k), model.remove(&k));
                }
                _ => {
                    assert_eq!(store.get(k), model.get(&k).cloned());
                }
            }
        }
        let got = store.scan_range(50, 200);
        let want: Vec<(u64, Value)> = model.range(50..200).map(|(k, v)| (*k, v.clone())).collect();
        assert_eq!(got, want);
        assert_eq!(store.range_count(0, u64::MAX), model.len());
    }

    #[test]
    fn prefix_scan_is_a_range_scan_over_the_prefix_block() {
        let store = small_store();
        // Keys packed as (bucket << 8) | object.
        for bucket in 0..4u64 {
            for object in 0..10u64 {
                store.put((bucket << 8) | object, Value::from_u64(bucket * 100 + object));
            }
        }
        let got = store.scan_prefix(2, 8);
        assert_eq!(got.len(), 10);
        for (i, (k, v)) in got.iter().enumerate() {
            assert_eq!(*k, (2 << 8) | i as u64);
            assert_eq!(v.as_u64(), Some(200 + i as u64));
        }
        assert!(store.scan_prefix(9, 8).is_empty());
    }

    #[test]
    fn extreme_keys_are_first_class() {
        let store = small_store();
        store.put(u64::MAX, Value::from_u64(1));
        store.put(0, Value::from_u64(2));
        assert_eq!(store.len(), 2, "len must count the whole key space, u64::MAX included");
        assert!(store.contains(u64::MAX));
        // The topmost prefix block includes u64::MAX itself.
        let top = store.scan_prefix(u64::MAX >> 8, 8);
        assert_eq!(top, vec![(u64::MAX, Value::from_u64(1))]);
        // Exclusive range bounds stay exclusive.
        assert_eq!(store.range_count(0, u64::MAX), 1);
        assert_eq!(store.range_count(3, 3), 0);
        assert!(store.scan_range(5, 2).is_empty());
    }

    #[test]
    fn multi_put_duplicate_keys_resolve_to_the_last_entry() {
        let store = small_store();
        store.multi_put(&[
            (5, Value::from_u64(1)),
            (9, Value::from_u64(7)),
            (5, Value::from_u64(2)),
            (5, Value::from_u64(3)),
        ]);
        assert_eq!(store.get(5), Some(Value::from_u64(3)), "batch order decides, stably");
        assert_eq!(store.get(9), Some(Value::from_u64(7)));
        assert_eq!(store.len(), 2);
    }

    /// Last-write-wins under pressure: seeded duplicate-heavy batches
    /// (few distinct keys, many occurrences each, interleaved with
    /// overwrites of pre-existing records) must land exactly where a
    /// one-by-one `put` replay of the batch lands.
    #[test]
    fn multi_put_duplicate_heavy_batches_match_sequential_put_replay() {
        let store = small_store();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for round in 0..20u64 {
            let batch: Vec<(u64, Value)> = (0..64)
                .map(|i| {
                    // 8 distinct keys per round → each key appears ~8
                    // times per batch, in pseudo-random order.
                    let key = next() % 8;
                    let val = round * 1000 + i;
                    (key, Value::from_u64(val))
                })
                .collect();
            for (k, v) in &batch {
                model.insert(*k, v.as_u64().unwrap());
            }
            store.multi_put(&batch);
            for (k, expect) in &model {
                assert_eq!(
                    store.get(*k).and_then(|v| v.as_u64()),
                    Some(*expect),
                    "round {round}: key {k} must hold its latest batch occurrence"
                );
            }
        }
        assert_eq!(store.len(), model.len());
    }

    #[test]
    fn cross_shard_txn_commits_atomically() {
        let store = small_store();
        store.put(0, Value::from_u64(100));
        store.put(1, Value::from_u64(0));
        // Transfer 30 from key 0 to key 1 — the keys hash to whatever
        // shards they hash to; the transaction spans them regardless.
        store.txn(|kv| {
            let a = kv.get(0)?.and_then(|v| v.as_u64()).unwrap();
            let b = kv.get(1)?.and_then(|v| v.as_u64()).unwrap();
            kv.put(0, Value::from_u64(a - 30))?;
            kv.put(1, Value::from_u64(b + 30))?;
            Ok(())
        });
        assert_eq!(store.get(0).unwrap().as_u64(), Some(70));
        assert_eq!(store.get(1).unwrap().as_u64(), Some(30));
    }

    #[test]
    fn large_values_share_bytes_and_stay_on_the_inline_write_path() {
        let store = small_store();
        store.stm().reset_stats();
        let blob = Value::from_bytes(&[0xAB; 4096]);
        assert!(blob.is_shared());
        for k in 0..50u64 {
            store.put(k, blob.clone());
        }
        assert_eq!(store.get(7), Some(blob.clone()));
        // The satellite invariant: 4 KiB record payloads must not push
        // TVar writes onto the boxed slow path — the Arc keeps every
        // buffered write inside the inline budget.
        assert_eq!(
            store.stm().stats().boxed_writes,
            0,
            "large kv values must never take the boxed write-payload path"
        );
    }

    #[test]
    fn composes_with_other_stores_on_the_same_stm() {
        let stm = Arc::new(Stm::new());
        let a = KvStore::new(Arc::clone(&stm));
        let b = KvStore::new(Arc::clone(&stm));
        a.put(1, Value::from_u64(5));
        stm.run(TxParams::default(), |tx| {
            if let Some(v) = a.delete_in(tx, 1)? {
                b.put_in(tx, 1, v)?;
            }
            Ok(())
        });
        assert_eq!(a.get(1), None);
        assert_eq!(b.get(1), Some(Value::from_u64(5)));
    }

    #[test]
    #[should_panic(expected = "opaque or irrevocable")]
    fn elastic_writer_params_are_rejected() {
        let mut params = KvParams::fixed();
        params.update = TxParams::new(Semantics::elastic());
        KvStore::with_config(
            Arc::new(Stm::new()),
            KvConfig { shards: 2, initial_slots: 8, params },
        );
    }

    #[test]
    fn classed_params_assign_distinct_classes() {
        let p = KvParams::classed(10);
        let classes = [p.read.class, p.update.class, p.rmw.class, p.scan.class, p.txn.class];
        for (i, c) in classes.iter().enumerate() {
            assert_eq!(*c, Some(ClassId(10 + i as u16)));
        }
        // Classed stores construct fine (the writers still request
        // opaque).
        let store = KvStore::with_config(
            Arc::new(Stm::new()),
            KvConfig { shards: 2, initial_slots: 8, params: p },
        );
        store.put(1, Value::from_u64(1));
        assert!(store.contains(1));
    }

    /// Every shard's buckets, as `(key, value)` arrays, by a snapshot
    /// read of the committed tables.
    fn committed_tables(store: &KvStore) -> Vec<Vec<Vec<(u64, Value)>>> {
        store.stm().run(TxParams::new(Semantics::Snapshot), |tx| {
            let mut tables = Vec::new();
            for shard in store.shards.iter() {
                let mut buckets = Vec::new();
                for register in shard.read(tx)?.buckets.iter() {
                    buckets.push(entries(&register.read(tx)?).to_vec());
                }
                tables.push(buckets);
            }
            Ok(tables)
        })
    }

    /// The longest bucket `keys` make in a `len`-register table.
    fn longest_bucket(keys: &[u64], len: usize) -> usize {
        let mut counts = vec![0; len];
        for key in keys {
            counts[KvStore::slot_start(*key) & (len - 1)] += 1;
        }
        counts.into_iter().max().unwrap_or(0)
    }

    /// The layout [`KvStore::with_records`] promises, per shard, from
    /// its definition: a power of two from `initial` up, every record
    /// in the bucket its hash indexes, no bucket at `MAX_BUCKET` unless
    /// the keys are inseparable at that length, and at half the length
    /// (when that is still `initial` or more) a long bucket that a
    /// doubling would have split.
    fn assert_built_layout(store: &KvStore, initial: usize, model: &BTreeMap<u64, Value>) {
        let shards = store.shard_count();
        for (si, table) in committed_tables(store).iter().enumerate() {
            let keys: Vec<u64> =
                model.keys().copied().filter(|&k| shard_index(k, shards) == si).collect();
            let len = table.len();
            assert!(len.is_power_of_two() && len >= initial, "shard {si}: {len} registers");
            for (at, bucket) in table.iter().enumerate() {
                for (key, value) in bucket {
                    assert_eq!(KvStore::slot_start(*key) & (len - 1), at, "key {key} misplaced");
                    assert_eq!(model.get(key), Some(value), "key {key}");
                }
            }
            assert_eq!(table.iter().map(Vec::len).sum::<usize>(), keys.len(), "shard {si}");
            let longest = longest_bucket(&keys, len);
            assert!(longest < MAX_BUCKET || inseparable(keys.len(), len), "shard {si} too short");
            if len > initial {
                let half = len / 2;
                assert!(
                    longest_bucket(&keys, half) >= MAX_BUCKET && !inseparable(keys.len(), half),
                    "shard {si}: {half} registers would have held {} keys",
                    keys.len()
                );
            }
        }
    }

    fn seeded_model(seed: u64, n: usize) -> BTreeMap<u64, Value> {
        let mut x = seed | 1;
        let mut model: BTreeMap<u64, Value> = (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Half the keys dense (narrow scans find them), half anywhere.
                let key = if i % 2 == 0 { x % (4 * n as u64) } else { x };
                (key, Value::from_bytes(&x.to_le_bytes().repeat(1 + (x % 3) as usize)))
            })
            .collect();
        if n > 0 {
            model.insert(0, Value::from_u64(7));
            model.insert(u64::MAX, Value::from_bytes(&[0xEE; 40]));
        }
        model
    }

    #[test]
    fn with_records_agrees_with_a_model() {
        for shards in [1, 128] {
            for initial in [8, 64] {
                for params in [KvParams::fixed(), KvParams::classed(0)] {
                    for n in [0, 1, 100, 3000] {
                        let model = seeded_model(n as u64 + 11, n);
                        let config = KvConfig { shards, initial_slots: initial, params };
                        let store =
                            KvStore::with_records(Arc::new(Stm::new()), config, model.clone());
                        let stats = store.stm().stats();
                        assert_eq!(stats.commits, 0, "building commits nothing");
                        assert_eq!(stats.aborts(), 0);
                        let case = format!("{shards} shards, {initial} slots, {n} records");
                        assert_built_layout(&store, initial, &model);
                        let tables = committed_tables(&store);
                        assert_eq!(store.capacity(), tables.iter().map(Vec::len).sum(), "{case}");
                        for (key, value) in &model {
                            assert_eq!(store.get(*key).as_ref(), Some(value), "{case}: key {key}");
                        }
                        for absent in [1u64, 2, 3, u64::MAX - 1] {
                            assert_eq!(store.get(absent), model.get(&absent).cloned(), "{case}");
                        }
                        let all: Vec<_> =
                            model.range(..u64::MAX).map(|(k, v)| (*k, v.clone())).collect();
                        assert_eq!(store.scan_range(0, u64::MAX), all, "{case}");
                        for (lo, hi) in [(0, 50), (10, 400), (1 << 40, 1 << 63)] {
                            let want: Vec<_> =
                                model.range(lo..hi).map(|(k, v)| (*k, v.clone())).collect();
                            assert_eq!(store.scan_range(lo, hi), want, "{case}: [{lo}, {hi})");
                        }
                        assert_eq!(store.len(), model.len(), "{case}");
                    }
                }
            }
        }
    }

    /// Keys that agree on every hash bit share one bucket at any table
    /// length: the build stops doubling where `resize_shard` would and
    /// accepts the long bucket.
    #[test]
    fn with_records_accepts_a_long_bucket_of_inseparable_keys() {
        let mut model: BTreeMap<u64, Value> = (0..1_000u64).map(|k| (k, k.into())).collect();
        let colliding: Vec<u64> = (0..64u64).map(|j| unmix((0xC0FFEE << 16) | (j << 7))).collect();
        for (j, key) in colliding.iter().enumerate() {
            model.insert(*key, Value::from_u64(j as u64));
        }
        let config = KvConfig { shards: 4, initial_slots: 8, params: KvParams::fixed() };
        let store = KvStore::with_records(Arc::new(Stm::new()), config, model.clone());
        assert_eq!(store.stm().stats().commits, 0, "building commits nothing");
        assert_built_layout(&store, 8, &model);
        let tables = committed_tables(&store);
        let shared = tables.iter().flatten().find(|b| b.iter().any(|(k, _)| *k == colliding[0]));
        let shared: Vec<u64> = shared.expect("placed").iter().map(|(k, _)| *k).collect();
        assert!(colliding.iter().all(|k| shared.contains(k)), "the colliding keys share a bucket");
        for (key, value) in &model {
            assert_eq!(store.get(*key).as_ref(), Some(value));
        }
        assert_eq!(store.len(), model.len());
    }

    /// Growth goes straight to the settled length: after one large
    /// batch into a default store, every shard has the layout
    /// `with_records` would have built, one growth transaction each.
    #[test]
    fn one_large_batch_settles_every_shard_at_once() {
        let store = KvStore::new(Arc::new(Stm::new()));
        let model: BTreeMap<u64, Value> = (0..1u64 << 16).map(|k| (k, k.into())).collect();
        let batch: Vec<(u64, Value)> = model.iter().map(|(k, v)| (*k, v.clone())).collect();
        store.multi_put(&batch);
        let commits = store.stm().stats().commits;
        assert!(commits <= 1 + store.shard_count() as u64, "{commits} commits");
        assert_built_layout(&store, KvConfig::default().initial_slots, &model);
        assert_eq!(store.len(), model.len());
    }

    #[test]
    fn puts_after_the_build_still_double_a_shard() {
        let model: BTreeMap<u64, Value> = (0..40u64).map(|k| (k, k.into())).collect();
        let config = KvConfig { shards: 1, initial_slots: 8, params: KvParams::fixed() };
        let store = KvStore::with_records(Arc::new(Stm::new()), config, model);
        let built = store.capacity();
        for k in 40..2_000u64 {
            assert_eq!(store.put(k, k.into()), None);
        }
        let grown = store.capacity();
        assert!(grown >= 2 * built, "{built} -> {grown} registers");
        assert!(grown >= 2_000 / MAX_BUCKET, "buckets longer than the trigger: {grown}");
        for k in 0..2_000u64 {
            assert_eq!(store.get(k), Some(k.into()), "key {k}");
        }
    }
}

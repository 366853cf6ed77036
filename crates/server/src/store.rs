//! [`ServerStore`]: the narrow storage interface the event loop
//! drives, implemented for both the in-memory [`KvStore`] and the
//! write-ahead-logged [`DurableKv`].
//!
//! The one interesting method is [`ServerStore::commit_writes`]: it
//! takes a *run* of admitted write requests — each itself a `PUT`,
//! `DELETE`, or `MULTI` — and commits them in **one** transaction,
//! returning one reply per request. That is the coalescing contract
//! `docs/PROTOCOL.md` §6 promises: per-request replies are computed
//! inside the same atomic commit, so a reply's `existed` bit reflects
//! the state the batch actually observed.
//!
//! [`ServerStore::stage_writes`] is the same commit without the wait
//! for the log force: a durable store returns the replies with a log
//! ticket, and the event loop releases them only after
//! [`ServerStore::wait_durable`] — once per round, for every batch it
//! staged. Both have default bodies (commit and settle; nothing to
//! wait for), so a store that implements only `commit_writes` serves
//! exactly as before.

use polytm::TxResult;
use polytm_durable::{DurabilityLost, DurabilityOutcome, DurableKv, DurableTxn, Staged};
use polytm_kv::{KvStore, KvTxn, Value};

use crate::protocol::{TxnOp, WriteOp};

/// Storage-level failure surfaced to the wire as an error response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The durable store has latched read-only: the commit was not
    /// acknowledged durable (it may still be visible in memory — see
    /// `docs/RUNBOOK.md` on degraded mode).
    ReadOnly,
}

/// Wire identity of a coalesced batch, threaded from the event loop
/// into [`ServerStore::stage_writes`] so the commit can stamp its
/// `BATCH_COMMIT` trace event with the connection and request range it
/// answers. `Copy` and two words wide — threading it through the store
/// costs nothing on the hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchTag {
    /// Connection the batch belongs to (`0` = untagged embedder call).
    pub conn: u64,
    /// First wire sequence number admitted into the batch.
    pub first_seq: u32,
    /// Last wire sequence number admitted into the batch.
    pub last_seq: u32,
}

impl BatchTag {
    /// Tag for calls that did not come off a connection (prefills,
    /// embedder batches, tests). The trace replay ignores
    /// connection `0`.
    pub const UNTAGGED: BatchTag = BatchTag { conn: 0, first_seq: 0, last_seq: 0 };
}

/// One `BATCH_COMMIT` event per successful coalesced commit, emitted
/// once the batch is settled — *after* the transaction's `WAIT_*` and
/// WAL wait events, on the same thread's ring — which is exactly the
/// order the trace replay relies on to attribute those waits to this
/// batch's requests. A batch staged with a ticket gets its event from
/// the event loop, after the round's force.
pub(crate) fn emit_batch_commit(tag: BatchTag, ops: usize) {
    polytm::trace::emit(|| {
        polytm::TraceEvent::new(
            polytm::trace::code::BATCH_COMMIT,
            0,
            polytm::trace::NO_CLASS,
            ops.min(u32::MAX as usize) as u32,
            tag.conn,
            polytm::trace::pack_seq_range(tag.first_seq, tag.last_seq),
        )
    });
}

/// One admitted write request inside a coalesced batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WriteRequest {
    /// A single `PUT`.
    Put {
        /// Target key.
        key: u64,
        /// Value bytes.
        value: Vec<u8>,
    },
    /// A single `DELETE`.
    Delete {
        /// Target key.
        key: u64,
    },
    /// A whole `MULTI` body (already atomic on its own; coalescing
    /// nests it into the shared commit).
    Multi {
        /// The batch's writes, in order.
        ops: Vec<WriteOp>,
    },
}

/// Per-request outcome of a coalesced commit, in request order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteReply {
    /// Outcome of a `PUT`.
    Written {
        /// Whether the key existed before this batch reached it.
        existed: bool,
    },
    /// Outcome of a `DELETE`.
    Deleted {
        /// Whether a value was removed.
        existed: bool,
    },
    /// Outcome of a `MULTI`.
    Applied {
        /// Number of ops in the committed batch.
        ops: u32,
    },
}

/// The storage surface the server loop needs. Object-safe so the
/// event loop can hold `Arc<dyn ServerStore>`.
pub trait ServerStore: Send + Sync {
    /// Point read.
    fn get(&self, key: u64) -> Option<Vec<u8>>;
    /// Point read appended to `out`: pushes the value's bytes and
    /// returns `true`, or pushes nothing and returns `false` when `key`
    /// is absent. The event loop frames a `GET` reply this way, with
    /// the value written straight into the connection's output buffer.
    /// The default copies out of [`ServerStore::get`]'s `Vec`.
    fn get_into(&self, key: u64, out: &mut Vec<u8>) -> bool {
        self.get(key).map(|value| out.extend_from_slice(&value)).is_some()
    }
    /// Snapshot scan of the half-open range `[lo, hi)`, truncated to
    /// `limit` entries. Returns the entries and whether truncation
    /// occurred.
    fn scan(&self, lo: u64, hi: u64, limit: usize) -> (Vec<(u64, Vec<u8>)>, bool);
    /// Compare-and-swap in one atomic commit.
    fn cas(&self, key: u64, expected: Option<&[u8]>, new: &[u8]) -> Result<bool, StoreError>;
    /// Commit a run of admitted writes as **one** transaction,
    /// producing one reply per request, in order. `tag` carries the
    /// batch's wire identity for trace attribution; callers off the
    /// wire pass [`BatchTag::UNTAGGED`].
    fn commit_writes(
        &self,
        batch: &[WriteRequest],
        tag: BatchTag,
    ) -> Result<Vec<WriteReply>, StoreError>;
    /// Commit a run of admitted writes like
    /// [`ServerStore::commit_writes`], but without waiting for the log
    /// force: the replies may go out only after
    /// [`ServerStore::wait_durable`] on the returned ticket succeeds.
    /// `None` means the batch is settled — acknowledged as it stands,
    /// its `BATCH_COMMIT` already emitted. With `Some`, the caller
    /// emits the `BATCH_COMMIT` after the force. Staging several
    /// batches before one wait on the highest ticket is what lets one
    /// fsync cover them all. The default commits and settles.
    fn stage_writes(
        &self,
        batch: &[WriteRequest],
        tag: BatchTag,
    ) -> Result<(Vec<WriteReply>, Option<u64>), StoreError> {
        self.commit_writes(batch, tag).map(|replies| (replies, None))
    }
    /// Block until every batch staged with a ticket up to `ticket` is
    /// durable. `Err` means none of them may be acknowledged. The
    /// default has nothing to wait for.
    fn wait_durable(&self, _ticket: u64) -> Result<(), StoreError> {
        Ok(())
    }
    /// Run a mixed read/write body in one atomic commit; returns the
    /// body's `Get` results in body order.
    fn txn(&self, ops: &[TxnOp]) -> Result<Vec<Option<Vec<u8>>>, StoreError>;
    /// Whether the store has latched read-only (always `false` for a
    /// purely in-memory store).
    fn is_read_only(&self) -> bool {
        false
    }
    /// Hint: each of `keys` is about to be passed to
    /// [`ServerStore::get`]. An implementation may use it to bring
    /// those records' memory closer, and for nothing a caller could
    /// observe — every answer still comes from the `get` that follows.
    /// The default does nothing, which is always correct.
    fn warm(&self, _keys: &[u64]) {}
}

fn to_bytes(v: Value) -> Vec<u8> {
    v.as_bytes().to_vec()
}

fn truncate_scan(mut entries: Vec<(u64, Value)>, limit: usize) -> (Vec<(u64, Vec<u8>)>, bool) {
    let truncated = entries.len() > limit;
    entries.truncate(limit);
    (entries.into_iter().map(|(k, v)| (k, to_bytes(v))).collect(), truncated)
}

/// The reads and writes a write batch or `TXN` body makes, over
/// either store's transaction handle ([`KvTxn`], [`DurableTxn`]), so
/// each body below is written once.
trait BodyTxn {
    fn get(&mut self, key: u64) -> TxResult<Option<Value>>;
    fn put(&mut self, key: u64, value: Value) -> TxResult<Option<Value>>;
    fn delete(&mut self, key: u64) -> TxResult<Option<Value>>;
}

macro_rules! body_txn {
    ($ty:ty) => {
        impl BodyTxn for $ty {
            fn get(&mut self, key: u64) -> TxResult<Option<Value>> {
                <$ty>::get(self, key)
            }
            fn put(&mut self, key: u64, value: Value) -> TxResult<Option<Value>> {
                <$ty>::put(self, key, value)
            }
            fn delete(&mut self, key: u64) -> TxResult<Option<Value>> {
                <$ty>::delete(self, key)
            }
        }
    };
}
body_txn!(KvTxn<'_, '_>);
body_txn!(DurableTxn<'_, '_, '_>);

/// Apply a coalesced run in request order; one reply per request.
fn write_batch(tx: &mut impl BodyTxn, batch: &[WriteRequest]) -> TxResult<Vec<WriteReply>> {
    let mut replies = Vec::with_capacity(batch.len());
    for req in batch {
        replies.push(match req {
            WriteRequest::Put { key, value } => {
                let prev = tx.put(*key, Value::from_bytes(value))?;
                WriteReply::Written { existed: prev.is_some() }
            }
            WriteRequest::Delete { key } => {
                WriteReply::Deleted { existed: tx.delete(*key)?.is_some() }
            }
            WriteRequest::Multi { ops } => {
                for op in ops {
                    match op {
                        WriteOp::Put { key, value } => tx.put(*key, Value::from_bytes(value))?,
                        WriteOp::Delete { key } => tx.delete(*key)?,
                    };
                }
                WriteReply::Applied { ops: ops.len() as u32 }
            }
        });
    }
    Ok(replies)
}

/// Run a `TXN` body; returns its `Get` results in body order.
fn txn_body(tx: &mut impl BodyTxn, ops: &[TxnOp]) -> TxResult<Vec<Option<Vec<u8>>>> {
    let mut gets = Vec::new();
    for op in ops {
        match op {
            TxnOp::Get { key } => gets.push(tx.get(*key)?.map(to_bytes)),
            TxnOp::Put { key, value } => tx.put(*key, Value::from_bytes(value)).map(drop)?,
            TxnOp::Delete { key } => tx.delete(*key).map(drop)?,
        }
    }
    Ok(gets)
}

impl ServerStore for KvStore {
    fn get(&self, key: u64) -> Option<Vec<u8>> {
        KvStore::get(self, key).map(to_bytes)
    }

    fn get_into(&self, key: u64, out: &mut Vec<u8>) -> bool {
        KvStore::get_into(self, key, out)
    }

    fn scan(&self, lo: u64, hi: u64, limit: usize) -> (Vec<(u64, Vec<u8>)>, bool) {
        truncate_scan(self.scan_range(lo, hi), limit)
    }

    fn cas(&self, key: u64, expected: Option<&[u8]>, new: &[u8]) -> Result<bool, StoreError> {
        let expected = expected.map(Value::from_bytes);
        Ok(KvStore::cas(self, key, expected.as_ref(), Value::from_bytes(new)))
    }

    fn commit_writes(
        &self,
        batch: &[WriteRequest],
        tag: BatchTag,
    ) -> Result<Vec<WriteReply>, StoreError> {
        // The closure may retry on STM aborts: replies are rebuilt
        // from scratch each attempt so a partial attempt leaves no
        // trace (the all-or-nothing regression test leans on this).
        let replies = self.txn(|kv| write_batch(kv, batch));
        emit_batch_commit(tag, batch.len());
        Ok(replies)
    }

    fn warm(&self, keys: &[u64]) {
        KvStore::warm(self, keys);
    }

    fn txn(&self, ops: &[TxnOp]) -> Result<Vec<Option<Vec<u8>>>, StoreError> {
        Ok(KvStore::txn(self, |kv| txn_body(kv, ops)))
    }
}

impl ServerStore for DurableKv {
    fn get(&self, key: u64) -> Option<Vec<u8>> {
        DurableKv::get(self, key).map(to_bytes)
    }

    fn get_into(&self, key: u64, out: &mut Vec<u8>) -> bool {
        DurableKv::get_into(self, key, out)
    }

    fn scan(&self, lo: u64, hi: u64, limit: usize) -> (Vec<(u64, Vec<u8>)>, bool) {
        truncate_scan(self.scan_range(lo, hi), limit)
    }

    fn cas(&self, key: u64, expected: Option<&[u8]>, new: &[u8]) -> Result<bool, StoreError> {
        DurableKv::txn(self, |tx| {
            let current = tx.get(key)?;
            let matches = match (&current, expected) {
                (None, None) => true,
                (Some(cur), Some(exp)) => cur.as_bytes() == exp,
                _ => false,
            };
            if matches {
                tx.put(key, Value::from_bytes(new))?;
            }
            Ok(matches)
        })
        .map_err(|DurabilityLost| StoreError::ReadOnly)
    }

    fn commit_writes(
        &self,
        batch: &[WriteRequest],
        tag: BatchTag,
    ) -> Result<Vec<WriteReply>, StoreError> {
        let (replies, ticket) = self.stage_writes(batch, tag)?;
        if let Some(ticket) = ticket {
            ServerStore::wait_durable(self, ticket)?;
            // Only after the durability wait: a batch the WAL never
            // acked has no commit point to attribute waits to.
            emit_batch_commit(tag, batch.len());
        }
        Ok(replies)
    }

    fn stage_writes(
        &self,
        batch: &[WriteRequest],
        tag: BatchTag,
    ) -> Result<(Vec<WriteReply>, Option<u64>), StoreError> {
        let (replies, _, staged) = DurableKv::txn_staged(self, |tx| write_batch(tx, batch))
            .map_err(|DurabilityLost| StoreError::ReadOnly)?;
        match staged {
            Staged::Ticket(seq) => Ok((replies, Some(seq))),
            Staged::Settled(DurabilityOutcome::Lost) => Err(StoreError::ReadOnly),
            Staged::Settled(_) => {
                emit_batch_commit(tag, batch.len());
                Ok((replies, None))
            }
        }
    }

    fn wait_durable(&self, ticket: u64) -> Result<(), StoreError> {
        DurableKv::wait_durable(self, ticket).map_err(|DurabilityLost| StoreError::ReadOnly)
    }

    fn txn(&self, ops: &[TxnOp]) -> Result<Vec<Option<Vec<u8>>>, StoreError> {
        DurableKv::txn(self, |tx| txn_body(tx, ops)).map_err(|DurabilityLost| StoreError::ReadOnly)
    }

    fn is_read_only(&self) -> bool {
        DurableKv::is_read_only(self)
    }

    fn warm(&self, keys: &[u64]) {
        DurableKv::warm(self, keys);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polytm::Stm;
    use std::sync::Arc;

    fn store() -> KvStore {
        KvStore::new(Arc::new(Stm::new()))
    }

    #[test]
    fn coalesced_batch_reports_per_request_outcomes() {
        let kv = store();
        let batch = vec![
            WriteRequest::Put { key: 1, value: b"a".to_vec() },
            WriteRequest::Put { key: 1, value: b"b".to_vec() },
            WriteRequest::Delete { key: 2 },
            WriteRequest::Multi {
                ops: vec![
                    WriteOp::Put { key: 3, value: b"c".to_vec() },
                    WriteOp::Delete { key: 1 },
                ],
            },
        ];
        let replies = ServerStore::commit_writes(&kv, &batch, BatchTag::UNTAGGED).unwrap();
        assert_eq!(
            replies,
            vec![
                WriteReply::Written { existed: false },
                // The second put sees the first one's write: same commit.
                WriteReply::Written { existed: true },
                WriteReply::Deleted { existed: false },
                WriteReply::Applied { ops: 2 },
            ]
        );
        assert_eq!(ServerStore::get(&kv, 1), None, "multi's delete won");
        assert_eq!(ServerStore::get(&kv, 3), Some(b"c".to_vec()));
    }

    #[test]
    fn txn_gets_observe_earlier_writes_in_body() {
        let kv = store();
        let gets = ServerStore::txn(
            &kv,
            &[
                TxnOp::Get { key: 9 },
                TxnOp::Put { key: 9, value: b"now".to_vec() },
                TxnOp::Get { key: 9 },
            ],
        )
        .unwrap();
        assert_eq!(gets, vec![None, Some(b"now".to_vec())]);
    }

    #[test]
    fn cas_respects_expectation() {
        let kv = store();
        assert!(ServerStore::cas(&kv, 5, None, b"v1").unwrap());
        assert!(!ServerStore::cas(&kv, 5, None, b"v2").unwrap());
        assert!(!ServerStore::cas(&kv, 5, Some(b"wrong"), b"v2").unwrap());
        assert!(ServerStore::cas(&kv, 5, Some(b"v1"), b"v2").unwrap());
        assert_eq!(ServerStore::get(&kv, 5), Some(b"v2".to_vec()));
    }

    #[test]
    fn scan_truncation_flags() {
        let kv = store();
        for k in 0..10u64 {
            kv.put(k, polytm_kv::Value::from_u64(k));
        }
        let (entries, truncated) = ServerStore::scan(&kv, 0, 100, 4);
        assert_eq!(entries.len(), 4);
        assert!(truncated);
        let (entries, truncated) = ServerStore::scan(&kv, 0, 100, 50);
        assert_eq!(entries.len(), 10);
        assert!(!truncated);
    }
}

//! [`Value`]: the record payload type, engineered around the STM's
//! inline write-payload budget.
//!
//! Buffered transactional writes store payloads of up to
//! [`polytm::INLINE_WRITE_WORDS`] machine words (3 × 8 bytes) inline in
//! the pooled descriptor; anything larger is boxed **per write** — an
//! allocation plus an erased destructor on the commit hot path, counted
//! by `StatsSnapshot::boxed_writes`. A naive `Vec<u8>` value type (3
//! words, but an allocation per clone) or a fixed `[u8; 64]` record
//! (boxed on every write) would silently spend that cost on every
//! `put`. `Value` instead keeps payloads of up to
//! [`Value::INLINE_BYTES`] bytes inline in the handle and shares larger
//! ones behind one `Arc<[u8]>` — so *every* `Value`, whatever the
//! record size, is a ≤ 3-word handle whose transactional writes take
//! the allocation-free inline path (checked at compile time below, and
//! asserted against the live counter in the crate tests).

use std::fmt;
use std::sync::Arc;

/// Payloads up to this many bytes live inline in the [`Value`] handle;
/// longer ones are shared behind an `Arc<[u8]>`. The bound is what fits
/// next to the length byte and the enum tag inside the 3-word
/// ([`polytm::INLINE_WRITE_WORDS`]) inline write-payload budget.
pub const INLINE_VALUE_BYTES: usize = 14;

#[derive(Clone)]
enum Repr {
    /// Small payload, stored in the handle itself.
    Inline { len: u8, bytes: [u8; INLINE_VALUE_BYTES] },
    /// Large payload, shared: a transactional write moves one `Arc`
    /// (two words), not the bytes.
    Shared(Arc<[u8]>),
}

/// An immutable byte-string record value with a cheap, inline-budget
/// clone. See the module docs for the design rationale.
#[derive(Clone)]
pub struct Value(Repr);

// The whole point of the type: a buffered write of a Value — any
// Value — must use the descriptor's inline payload storage. A field
// added carelessly would flip every put onto the boxed slow path;
// these fail the build instead.
const _: () = assert!(size_of::<Value>() <= polytm::INLINE_WRITE_WORDS * 8);
const _: () = assert!(polytm::write_payload_fits_inline::<Value>());

impl Value {
    /// Byte budget of the inline representation (alias of
    /// [`INLINE_VALUE_BYTES`], as an associated constant).
    pub const INLINE_BYTES: usize = INLINE_VALUE_BYTES;

    /// A value from raw bytes: inline up to [`Value::INLINE_BYTES`],
    /// `Arc`-shared beyond.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        if bytes.len() <= INLINE_VALUE_BYTES {
            let mut inline = [0u8; INLINE_VALUE_BYTES];
            inline[..bytes.len()].copy_from_slice(bytes);
            Value(Repr::Inline { len: bytes.len() as u8, bytes: inline })
        } else {
            Value(Repr::Shared(Arc::from(bytes)))
        }
    }

    /// An 8-byte little-endian value (the counter/benchmark
    /// convenience; always inline).
    pub fn from_u64(v: u64) -> Self {
        Self::from_bytes(&v.to_le_bytes())
    }

    /// The payload bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Shared(arc) => arc,
        }
    }

    /// The payload reinterpreted as a little-endian `u64`; `None`
    /// unless it is exactly 8 bytes.
    pub fn as_u64(&self) -> Option<u64> {
        <[u8; 8]>::try_from(self.as_bytes()).ok().map(u64::from_le_bytes)
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// True for the empty payload.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the payload is `Arc`-shared (larger than
    /// [`Value::INLINE_BYTES`]).
    pub fn is_shared(&self) -> bool {
        matches!(self.0, Repr::Shared(_))
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Value {}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Value")
            .field("len", &self.len())
            .field("shared", &self.is_shared())
            .finish()
    }
}

impl AsRef<[u8]> for Value {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl From<&[u8]> for Value {
    fn from(bytes: &[u8]) -> Self {
        Self::from_bytes(bytes)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_and_shared_representations_split_at_the_budget() {
        let at = Value::from_bytes(&[7u8; INLINE_VALUE_BYTES]);
        assert!(!at.is_shared());
        assert_eq!(at.len(), INLINE_VALUE_BYTES);
        let over = Value::from_bytes(&[7u8; INLINE_VALUE_BYTES + 1]);
        assert!(over.is_shared());
        assert_eq!(over.len(), INLINE_VALUE_BYTES + 1);
        let big = Value::from_bytes(&[1u8; 4096]);
        assert!(big.is_shared());
        assert_eq!(big.as_bytes(), &[1u8; 4096][..]);
    }

    #[test]
    fn equality_is_by_content_across_representations() {
        assert_eq!(Value::from_bytes(b"abc"), Value::from_bytes(b"abc"));
        assert_ne!(Value::from_bytes(b"abc"), Value::from_bytes(b"abd"));
        assert_ne!(Value::from_bytes(b""), Value::from_bytes(b"a"));
        // A shared value equals an equal shared value byte-for-byte.
        let long = vec![9u8; 100];
        assert_eq!(Value::from_bytes(&long), Value::from_bytes(&long));
    }

    #[test]
    fn u64_roundtrip() {
        let v = Value::from_u64(0xDEAD_BEEF_0123_4567);
        assert!(!v.is_shared());
        assert_eq!(v.as_u64(), Some(0xDEAD_BEEF_0123_4567));
        assert_eq!(Value::from_bytes(b"short").as_u64(), None);
    }

    #[test]
    fn clones_of_shared_values_share_the_bytes() {
        let v = Value::from_bytes(&[3u8; 64]);
        let w = v.clone();
        let (Repr::Shared(a), Repr::Shared(b)) = (&v.0, &w.0) else {
            panic!("64-byte payloads must be shared")
        };
        assert!(Arc::ptr_eq(a, b), "clone must alias, not copy, the payload");
    }

    #[test]
    fn every_value_fits_the_inline_write_budget() {
        // Compile-time asserted above; restate against the runtime
        // predicate so the invariant shows up in test output too.
        assert!(polytm::write_payload_fits_inline::<Value>());
        assert!(size_of::<Value>() <= polytm::INLINE_WRITE_WORDS * 8);
    }
}

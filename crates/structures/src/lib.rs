//! # polytm-structures — transactional abstract data types
//!
//! The paper's thesis is that a transactional library is *reusable*: every
//! operation is a transaction, so novice programmers can compose new
//! atomic operations — and polymorphism lets expert programmers pick the
//! cheapest sufficient semantics per operation. These ADTs put that into
//! practice on top of [`polytm`]:
//!
//! * [`txlist`] — sorted linked-list set; `contains`/`insert`/`remove`
//!   run the paper's `weak` (elastic) semantics, aggregate operations run
//!   `def` (opaque) or snapshot semantics. Figure 1's p1 is exactly
//!   [`txlist::TxList::contains`].
//! * [`txhash`] — hash set whose per-key operations are elastic and whose
//!   **resize is one monomorphic transaction** — the introduction's
//!   motivating example of what lock-free hash tables cannot do.
//! * [`txskiplist`] — skip-list set with deterministic towers; same
//!   polymorphic operation mix as the list but O(log n) traversals.
//! * [`txmap`] — ordered `i64`-keyed map: the same skip list as
//!   [`txskiplist`] ([`skiplist::SkipList`]) with a value register per
//!   node; elastic lookups, overwrites that never restructure the index.
//! * [`txcounter`] — striped counter: opaque increments, snapshot reads
//!   that never abort.
//! * [`txqueue`] — two-stack FIFO queue, all-opaque (its operations are
//!   genuinely read-modify-write, so weakening would be unsound — the
//!   counter-example to "just make everything elastic").
//!
//! Every structure also exposes `*_in(&mut Transaction, ...)` variants so
//! callers can compose them into larger atomic operations (e.g. move a
//! key between two sets atomically — see the crate tests).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod skiplist;
pub mod txcounter;
pub mod txhash;
pub mod txlist;
pub mod txmap;
pub mod txqueue;
pub mod txskiplist;

pub use txcounter::TxCounter;
pub use txhash::TxHashSet;
pub use txlist::TxList;
pub use txmap::TxMap;
pub use txqueue::TxQueue;
pub use txskiplist::TxSkipList;

//! # transaction-polymorphism
//!
//! A full reproduction of *Brief Announcement: Transaction Polymorphism*
//! (Gramoli & Guerraoui, SPAA 2011) as a production-grade Rust workspace:
//!
//! * [`stm`] (crate `polytm`) — the polymorphic software transactional
//!   memory: `start(p)` semantics per transaction (opaque `def`, elastic
//!   `weak`, snapshot, irrevocable), contention managers, nesting
//!   composition policies;
//! * [`schedule`] (crate `polytm-schedule`) — the paper's formal model,
//!   executable: schedules, critical steps, acceptance, Figure 1, and
//!   machine checks of Theorems 1 and 2;
//! * [`structures`] (crate `polytm-structures`) — transactional ADTs with
//!   per-operation semantics (list, hash set with transactional resize,
//!   skip list, counter, queue);
//! * [`kv`] (crate `polytm-kv`) — a sharded transactional key-value
//!   store: multi-key cross-shard transactions, snapshot range/prefix
//!   scans, CAS, batched ingest — the YCSB-style serving workload;
//! * [`workload`] (crate `polytm-workload`) — deterministic uniform key
//!   streams, operation mixes and the timed set driver behind the
//!   experiment tables;
//! * [`adaptive`] (crate `polytm-adaptive`) — the adaptive polymorphism
//!   runtime: a feedback-driven advisor that observes per-class
//!   telemetry and selects semantics and contention management live.
//!
//! The durable store and the wire server (`polytm-durable`,
//! `polytm-server`) are used by the examples but not re-exported.
//!
//! See `README.md` for a tour and `DESIGN.md` for the system inventory
//! and experiment index.
//!
//! ```
//! use transaction_polymorphism::prelude::*;
//! # use std::sync::Arc;
//!
//! let stm = Arc::new(Stm::new());
//! let list = TxList::new(Arc::clone(&stm));
//! list.insert(1);
//! list.insert(3);
//! // The paper's Figure 1 p1: a weak (elastic) traversal.
//! assert!(!list.contains(2));
//! ```

#![warn(missing_docs)]

pub use polytm as stm;
pub use polytm_adaptive as adaptive;
pub use polytm_kv as kv;
pub use polytm_schedule as schedule;
pub use polytm_structures as structures;
pub use polytm_workload as workload;

/// The most common imports in one place.
pub mod prelude {
    pub use polytm::{
        Abort, ClassId, NestingPolicy, Semantics, Stm, StmConfig, TVar, Transaction, TxParams,
        TxResult,
    };
    pub use polytm_adaptive::Advisor;
    pub use polytm_kv::{KvStore, Value};
    pub use polytm_schedule::{accepts, figure1_interleaving, figure1_program, Synchronization};
    pub use polytm_structures::{TxCounter, TxHashSet, TxList, TxQueue, TxSkipList};
}

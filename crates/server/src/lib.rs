//! # polytm-server — the network front end
//!
//! A pipelined TCP server for the polymorphic KV store, hand-rolled on
//! `std::net` (the workspace is offline: no `mio`, no `tokio`). It
//! speaks the length-prefixed binary `PTM1` protocol specified in
//! `docs/PROTOCOL.md` and serves either the in-memory
//! [`polytm_kv::KvStore`] or the write-ahead-logged
//! [`polytm_durable::DurableKv`] through the [`ServerStore`] trait.
//!
//! The layer that earns its keep is **write coalescing**: pipelined
//! `PUT`/`DELETE`/`MULTI` requests decoded from one read sweep are
//! admitted into a single STM commit — the WAL's group-commit shape
//! repeated one level up — with per-connection backpressure so
//! response buffering stays bounded. `DESIGN.md` §10 carries the
//! correctness argument; `docs/RUNBOOK.md` tells an operator how to
//! run it.
//!
//! ```no_run
//! use polytm_server::{Client, Server, ServerConfig};
//! use polytm_kv::KvStore;
//! use polytm::Stm;
//! use std::sync::Arc;
//!
//! let store = Arc::new(KvStore::new(Arc::new(Stm::new())));
//! let handle = Server::spawn(store, "127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = Client::connect(handle.local_addr()).unwrap();
//! client.put(7, b"hello").unwrap();
//! assert_eq!(client.get(7).unwrap().as_deref(), Some(&b"hello"[..]));
//! handle.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod client;
pub mod poll;
pub mod protocol;
pub mod server;
pub mod store;
mod worker;

pub use client::{Client, ClientError};
pub use protocol::{ErrorCode, Request, Response, TxnOp, WriteOp};
pub use server::{Server, ServerConfig, ServerHandle, ServerStats};
pub use store::{BatchTag, ServerStore, StoreError, WriteReply, WriteRequest};

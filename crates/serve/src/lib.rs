//! # elle-serve
//!
//! A fault-isolated multi-tenant checking **service**: many independent
//! [`StreamChecker`](elle_stream::StreamChecker)s — one per tenant
//! history — multiplexed over a std-thread worker pool. The paper
//! frames Elle as something you run against a live system under test;
//! in production that means many concurrent histories, not one process
//! per file. This crate is the resident form of the checker, and its
//! robustness surface is the point:
//!
//! * **Fault isolation** — tenants are sharded across workers by name;
//!   each tenant's checker is owned by exactly one worker (serial per
//!   tenant, parallel across tenants, no shared-checker locks). A
//!   poisoned seal
//!   ([`StreamChecker::seal_epoch_guarded`](elle_stream::StreamChecker::seal_epoch_guarded)),
//!   a damaged line, or a failed strict-mode tenant degrades only that tenant:
//!   every other tenant's verdicts are byte-identical to a run where
//!   the failure never happened.
//! * **Admission control** — global and per-tenant buffered-byte
//!   budgets are checked *before* a line is enqueued; exceeding one is
//!   an explicit `429`-style reject line, never unbounded memory.
//! * **Watchdog seals** — `max_epoch` forces a seal on any tenant whose
//!   epoch stays open too long with events buffered, generalizing
//!   `elle-stream --max-epoch-ms` across tenants.
//! * **Crash consistency** — with a data directory, every accepted
//!   event is journaled (write-ahead) before ingest, once: the journal
//!   is the tenant's durable history. Each seal, every
//!   `snapshot_events` lines and each close append a small `fsync`ed
//!   checkpoint record of the tenant's counters
//!   ([`store::Checkpoint`]); a snapshot
//!   ([`StreamChecker::snapshot`](elle_stream::StreamChecker::snapshot))
//!   is written only to compact, when retirement advances the window's
//!   base or resent lines outweigh live ones. A killed service restarts
//!   from snapshot + journal — ingest alone up to the last checkpoint,
//!   the live path after it — and every tenant converges to the
//!   byte-identical verdict of an uninterrupted run.
//!
//! The front ends (stdin single-process mode and a
//! `std::net::TcpListener` accept loop speaking the same NDJSON
//! protocol) live in the `elle-serve` binary; this crate is the
//! engine, so tests can drive [`Server`] in-process.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod config;
pub mod server;
pub mod signal;
pub mod store;
pub mod tenant;
pub mod wire;

pub use config::{valid_tenant_id, ServeConfig};
pub use server::{Server, Sink, Submitted};
pub use store::TenantStore;
pub use tenant::{solo_verdict, IngestReply, Tenant, TenantFinal};
pub use wire::{parse_request, reject, tag_event_line, warning, Request, WireError};

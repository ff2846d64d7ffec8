//! # elle-history
//!
//! The Jepsen-style history model consumed by the Elle checker
//! ([Kingsbury & Alvaro, VLDB 2020]).
//!
//! A *history* is the experimentally-accessible record of a set of client
//! processes interacting with a database. Each client submits
//! *transactions* — lists of [`Mop`] micro-operations — and records, per
//! transaction, an **invoke** event when it is submitted and a completion
//! event when the database responds:
//!
//! * [`EventKind::Ok`] — the transaction definitely committed; reads carry
//!   their observed values,
//! * [`EventKind::Fail`] — the transaction definitely aborted,
//! * [`EventKind::Info`] — the outcome is unknown (a timeout, a crashed
//!   node, a lost acknowledgement). The transaction may or may not have
//!   committed.
//!
//! The flat event log ([`EventLog`]) is what a test harness records; the
//! paired view ([`History`], produced by [`EventLog::pair`] or the
//! [`HistoryBuilder`]) is what checkers consume. Event indices double as the
//! real-time order: event `i` happened before event `j` iff `i < j`.
//!
//! This crate is deliberately checker-agnostic: it knows nothing about
//! dependency graphs or anomalies, only about what clients can observe
//! (§4.2.1 of the paper: versions and return values may be *unknown*).
//!
//! [Kingsbury & Alvaro, VLDB 2020]: https://arxiv.org/abs/2003.10554

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
mod event;
mod event_json;
mod ids;
pub mod ingest;
mod mop;
mod pairing;
mod serde_io;
mod snapshot;
mod txn;

pub use builder::{duplicate_written_elems, HistoryBuilder, TxnBuilder};
pub use event::{Event, EventKind, EventLog};
pub use event_json::{event_from_json, event_to_json};
pub use ids::{Elem, Key, ProcessId, TxnId};
pub use ingest::{
    decode_event_line, events_from_ndjson_with, trim_json_ws, Diagnostic, IngestCause, IngestError,
    NdjsonIngestor, Recovered, RecoveryAction, RecoveryPolicy, SourcePos,
};
pub use mop::{Mop, ReadValue};
pub use pairing::{Ingest, PairingError, StreamingPairer};
pub use serde_io::{
    events_from_ndjson, events_to_ndjson, history_from_json, history_to_events, history_to_json,
    history_to_ndjson,
};
pub use snapshot::{snapshot_from_str, snapshot_to_string, SnapshotMeta, SNAPSHOT_VERSION};
pub use txn::{History, Transaction, TxnStatus};

//! # elle-stream
//!
//! Incremental, epoch-based checking of **live** histories: the batch
//! Elle checker turned into an online pipeline. A [`StreamChecker`]
//! ingests events one at a time (decoded from the NDJSON wire format,
//! or straight from the `elle_dbsim` simulator in live mode), seals an
//! *epoch* whenever a watermark fires, and at each seal re-analyzes
//! only the epoch's delta before producing a full-prefix verdict.
//!
//! ## The epoch lifecycle
//!
//! ```text
//! ingest ──▶ seal ────────────────────────────────────────────────▶ retire
//!   │         index → datatypes → orders → graph → build → freeze    │
//!   │           → search → report   (elle_core::pipeline, dirty keys) │
//!   │         only dirty keys re-analyzed; the edge delta appended    │
//!   │         to the carried graph (rebuilt from cached results on a  │
//!   │         retraction); the report is batch's on the whole prefix  │
//!   └── events dropped after pairing          quiescent prefix leaves ┘
//! ```
//!
//! Every stage of the seal is [`elle_core::pipeline`]'s: the batch
//! checker runs the same sequence once over all keys, this crate runs
//! it at every seal over the epoch's dirty keys. The stream crate owns
//! only pairing, the ingest hooks, each epoch's counts (the one source
//! every driver's watermarks read), the window policy and its safety
//! clamps, snapshot/restore, and poisoned-epoch isolation.
//!
//! ## The correctness anchor
//!
//! At every epoch boundary the report is **byte-for-byte identical** to
//! [`Checker::check`](elle_core::Checker::check) on the prefix ingested
//! so far, in both parallel and `ELLE_SEQUENTIAL=1` modes — enforced by
//! the differential property tests in `crates/stream/tests/`, which
//! replay randomly generated histories under random epoch splits.
//!
//! ## The frontier-state contract
//!
//! Between epochs the checker carries exactly:
//!
//! * the paired prefix (required: any future anomaly may name any past
//!   transaction) and the open-invocation table — raw events are
//!   dropped at ingest;
//! * the pipeline's [`Analysis`](elle_core::pipeline::Analysis) state:
//!   key typing, the element index and per-key posting lists; per
//!   datatype (list, register, set, counter) the latest per-key results
//!   (anomalies interned behind `Arc`, so report assembly clones
//!   pointers) and per-transaction internal anomalies; monotone
//!   coverage counters; the dependency graph's sorted spine; the
//!   process, completion-order and timestamp frontiers; the running
//!   statistics;
//! * under a bounded [`WindowPolicy`], the retired prefix's summaries
//!   (edge counts, statistics, anomaly stashes, compromised-key
//!   markers, the pruned completion frontier) — the
//!   [`RetiredPrefix`] a snapshot's [`WindowCarry`] persists.
//!
//! Everything epoch-scoped (delta transaction lists, dirty-key sets,
//! gather scratch) is released at seal, so steady-state memory tracks
//! the active window — open transactions and live keys — plus the
//! retained prefix, not the number of epochs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod checker;
mod envelope;
mod epoch;
mod live;

pub use checker::{
    CheckerSnapshot, DtStashCarry, EpochReport, FrontierStats, Replay, RetiredPrefix,
    StreamChecker, WindowCarry, WindowPolicy, WindowStats,
};
pub use envelope::Gauges;
pub use epoch::EpochPolicy;
pub use live::run_live;

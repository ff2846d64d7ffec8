//! # elle-core
//!
//! A from-scratch Rust implementation of **Elle**, the black-box
//! transactional isolation checker of Kingsbury & Alvaro (VLDB 2020).
//!
//! Given an observed [`History`](elle_history::History) of client
//! transactions, the [`Checker`] infers an Adya-style dependency graph —
//! the *Inferred Direct Serialization Graph* — and searches it for
//! anomalies:
//!
//! * **cycles**: G0 (write cycles), G1c (circular information flow),
//!   G-single (read skew), G2-item (write skew and friends), each with
//!   `-process` and `-realtime` variants when the cycle needs session or
//!   real-time edges;
//! * **non-cycles**: aborted reads (G1a), intermediate reads (G1b), dirty
//!   updates, lost updates, garbage reads, duplicate writes, internal
//!   inconsistency, incompatible orders, and cyclic version orders.
//!
//! The inference is *sound*: every reported anomaly is present in every
//! Adya history compatible with the observation (Theorem 1 of the paper),
//! provided the workload maintains traceability and recoverability —
//! append-only lists with unique elements, which `elle-gen` produces by
//! construction.
//!
//! ```
//! use elle_core::{CheckOptions, Checker};
//! use elle_history::HistoryBuilder;
//!
//! let mut b = HistoryBuilder::new();
//! b.txn(0).append(1, 1).commit();
//! b.txn(1).read_list(1, [1]).append(1, 2).commit();
//! b.txn(2).read_list(1, [1, 2]).commit();
//!
//! let report = Checker::new(CheckOptions::strict_serializable()).check(&b.build());
//! assert!(report.ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod anomaly;
mod checker;
pub mod counter;
mod cycle_search;
pub mod datatype;
mod deps;
pub mod explain;
pub mod gather;
pub mod list_append;
mod models;
mod observation;
mod orders;
pub mod pipeline;
pub mod pool;
pub mod reference;
pub mod rw_register;
pub mod set_add;
pub mod versions;

pub use anomaly::{Anomaly, AnomalyType, CycleStep, Witness};
pub use checker::{
    assemble_report, panic_message, CheckOptions, CheckStats, Checker, InternalError, Report,
    StageTimings,
};
pub use cycle_search::{find_cycle_anomalies_frozen, CycleSearchOptions};
pub use datatype::{DatatypeAnalysis, GatherStats, Parallelism, ProvenanceIndex};
pub use deps::DepGraph;
pub use gather::{GatherBuf, Grouped, KeySlots};
pub use models::{directly_violated, strongest_satisfiable, violated_models, ConsistencyModel};
pub use observation::{DataType, ElemIndex, KeyTypes, WriteRef};
pub use orders::{add_process_edges, add_realtime_edges, add_timestamp_edges};
pub use rw_register::RegisterOptions;
pub use versions::{VersionId, VersionTable};

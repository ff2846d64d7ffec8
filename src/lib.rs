//! # elle
//!
//! Facade crate for the Elle reproduction workspace
//! (Kingsbury & Alvaro, *Elle: Inferring Isolation Anomalies from
//! Experimental Observations*, VLDB 2020).
//!
//! Re-exports the member crates under stable module names:
//!
//! * [`history`] — Jepsen-style operation histories,
//! * [`graph`] — SCC / cycle-search substrate,
//! * [`core`] — the checker itself,
//! * [`dbsim`] — the MVCC database simulator used for evaluation,
//! * [`gen`] — workload generators,
//! * [`knossos`] — the baseline strict-serializability checker,
//! * [`sat`] — the SAT-backed complete cross-checker,
//! * [`stream`] — the incremental epoch-based checker for live histories,
//! * [`serve`] — the fault-isolated multi-tenant checking service,
//! * [`cli`] — the command-line layer the three binaries share.
//!
//! ```
//! use elle::prelude::*;
//!
//! // Record what clients observed…
//! let mut b = HistoryBuilder::new();
//! b.txn(0).append(1, 1).commit();
//! b.txn(1).read_list(1, [1]).commit();
//! let history = b.build();
//!
//! // …and check it.
//! let report = Checker::new(CheckOptions::strict_serializable()).check(&history);
//! assert!(report.anomalies.is_empty());
//! ```

pub mod cli;

pub use elle_core as core;
pub use elle_dbsim as dbsim;
pub use elle_gen as gen;
pub use elle_graph as graph;
pub use elle_history as history;
pub use elle_knossos as knossos;
pub use elle_sat as sat;
pub use elle_serve as serve;
pub use elle_stream as stream;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use elle_core::{
        Anomaly, AnomalyType, CheckOptions, Checker, ConsistencyModel, RegisterOptions, Report,
    };
    pub use elle_dbsim::{Bug, DbConfig, FaultPlan, IsolationLevel, ObjectKind, SimDb};
    pub use elle_gen::{run_workload, GenParams, Workload};
    pub use elle_history::{
        Elem, EventKind, EventLog, History, HistoryBuilder, Key, Mop, ProcessId, ReadValue,
        Transaction, TxnId, TxnStatus,
    };
    pub use elle_knossos::{KnossosOptions, KnossosOutcome, KnossosResult};
    pub use elle_sat::{SatModel, SatReport, SatVerdict};
}

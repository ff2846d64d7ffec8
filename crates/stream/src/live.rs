//! Live mode: check a simulated workload while it runs.
//!
//! [`run_live`] wires `elle_gen`'s workload generator and
//! `elle_dbsim`'s scheduler straight into a [`StreamChecker`]: every
//! event is ingested the moment the simulated client records it, epochs
//! seal by transaction-count watermark, and the caller observes each
//! verdict as it lands — no complete history ever materializes outside
//! the checker's own frontier.

use crate::{EpochPolicy, EpochReport, StreamChecker, WindowPolicy};
use elle_core::CheckOptions;
use elle_dbsim::{DbConfig, SimDb};
use elle_gen::{GenParams, Workload};
use elle_history::RecoveryPolicy;
use std::time::Instant;

/// Generate and run a workload against the simulator, checking it live
/// under the retirement `window`. `on_epoch` fires at every seal
/// (including the final, end-of-stream seal). Returns the final epoch's
/// report.
pub fn run_live(
    params: GenParams,
    db: DbConfig,
    policy: EpochPolicy,
    opts: CheckOptions,
    window: WindowPolicy,
    mut on_epoch: impl FnMut(&EpochReport),
) -> EpochReport {
    let mut checker = StreamChecker::with_window(opts, window);
    let mut workload = Workload::new(params);
    let mut since_seal = Instant::now();
    SimDb::new(db).run_with(&mut workload, |ev| {
        // The simulator emits well-formed streams, but a pairing slip
        // must not take the whole live run down: quarantine it and let
        // the diagnostic surface in the epoch's frontier stats.
        let _ = checker.ingest_event_with(ev, RecoveryPolicy::Quarantine);
        let (txns, events) = (checker.txns_this_epoch(), checker.events_this_epoch());
        if policy.should_seal(txns, events, since_seal) {
            let report = checker.seal_epoch_guarded();
            on_epoch(&report);
            since_seal = Instant::now();
        }
    });
    let last = checker.seal_epoch_guarded();
    on_epoch(&last);
    last
}

//! Pairing invocations with completions to produce a [`History`].
//!
//! Jepsen semantics: a process has at most one outstanding invocation. An
//! `Ok`/`Fail`/`Info` event on the same process completes it. A process with
//! an open invocation at the end of the log yields an indeterminate
//! transaction (we never saw its outcome).

use crate::ingest::{Diagnostic, IngestError, Recovered, RecoveryPolicy, SourcePos};
use crate::{Event, EventKind, EventLog, History, Mop, ProcessId, Transaction, TxnId, TxnStatus};
use rustc_hash::FxHashMap;
use std::fmt;

/// Why an event log failed to pair into a history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PairingError {
    /// An event arrived with an index not greater than its predecessor's
    /// (streaming ingestion requires the real-time order up front).
    NonMonotonicIndex {
        /// Index of the offending event.
        index: usize,
    },
    /// A completion arrived for a process with no outstanding invocation.
    CompletionWithoutInvoke {
        /// Index of the offending event.
        index: usize,
        /// Process involved.
        process: ProcessId,
    },
    /// A second invocation arrived while one was outstanding.
    OverlappingInvoke {
        /// Index of the offending event.
        index: usize,
        /// Process involved.
        process: ProcessId,
    },
    /// A completion's micro-operations do not match its invocation
    /// (different count, or incompatible operations).
    MismatchedMops {
        /// Index of the offending completion.
        index: usize,
        /// Process involved.
        process: ProcessId,
    },
}

impl fmt::Display for PairingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PairingError::NonMonotonicIndex { index } => write!(
                f,
                "event {index}: index is not greater than the previous event's"
            ),
            PairingError::CompletionWithoutInvoke { index, process } => write!(
                f,
                "event {index}: completion on {process} without an outstanding invocation"
            ),
            PairingError::OverlappingInvoke { index, process } => write!(
                f,
                "event {index}: invocation on {process} while another is outstanding"
            ),
            PairingError::MismatchedMops { index, process } => write!(
                f,
                "event {index}: completion on {process} does not match its invocation"
            ),
        }
    }
}

impl std::error::Error for PairingError {}

/// Is `completion` a plausible completion of `invocation`?
///
/// This is the observed-operation compatibility of §4.2.2, restricted to
/// what the client itself recorded: same operation type, key, and argument;
/// reads may gain a value.
fn mops_compatible(invocation: &[Mop], completion: &[Mop]) -> bool {
    invocation.len() == completion.len()
        && invocation
            .iter()
            .zip(completion)
            .all(|(i, c)| *i == c.to_invocation())
}

/// The status a completion of kind `kind` records.
fn completion_status(kind: EventKind) -> TxnStatus {
    match kind {
        EventKind::Ok => TxnStatus::Committed,
        EventKind::Fail => TxnStatus::Aborted,
        _ => TxnStatus::Indeterminate,
    }
}

impl EventLog {
    /// Pair invocations with completions, producing a [`History`].
    ///
    /// Transactions are ordered by invocation index. Open invocations at the
    /// end of the log become [`TxnStatus::Indeterminate`] transactions with
    /// no completion index.
    pub fn pair(&self) -> Result<History, PairingError> {
        let mut open: FxHashMap<ProcessId, &Event> = FxHashMap::default();
        let mut txns: Vec<Transaction> = Vec::with_capacity(self.len() / 2 + 1);

        for ev in self.events() {
            match ev.kind {
                EventKind::Invoke => {
                    if open.insert(ev.process, ev).is_some() {
                        return Err(PairingError::OverlappingInvoke {
                            index: ev.index,
                            process: ev.process,
                        });
                    }
                }
                EventKind::Ok | EventKind::Fail | EventKind::Info => {
                    let inv =
                        open.remove(&ev.process)
                            .ok_or(PairingError::CompletionWithoutInvoke {
                                index: ev.index,
                                process: ev.process,
                            })?;
                    if !mops_compatible(&inv.mops, &ev.mops) {
                        return Err(PairingError::MismatchedMops {
                            index: ev.index,
                            process: ev.process,
                        });
                    }
                    let status = completion_status(ev.kind);
                    // Database-exposed timestamps travel on the events:
                    // start on the invocation, commit on an Ok completion.
                    let timestamps = match (inv.time_ns, ev.time_ns, ev.kind) {
                        (Some(s), Some(c), EventKind::Ok) => Some((s, c)),
                        _ => None,
                    };
                    txns.push(Transaction {
                        id: TxnId(0), // re-assigned below
                        process: ev.process,
                        mops: ev.mops.clone(),
                        status,
                        invoke_index: inv.index,
                        complete_index: Some(ev.index),
                        timestamps,
                    });
                }
            }
        }

        // Open invocations: outcome never observed.
        for (process, inv) in open {
            txns.push(Transaction {
                id: TxnId(0),
                process,
                mops: inv.mops.clone(),
                status: TxnStatus::Indeterminate,
                invoke_index: inv.index,
                complete_index: None,
                timestamps: None,
            });
        }

        txns.sort_by_key(|t| t.invoke_index);
        Ok(History::from_txns(txns))
    }

    /// Pair under a [`RecoveryPolicy`]. `Strict` behaves like
    /// [`EventLog::pair`] but returns a positioned [`IngestError`];
    /// `Quarantine` repairs pairing violations per the ladder documented
    /// on [`crate::ingest`] and records one [`Diagnostic`] each.
    ///
    /// For in-memory logs the diagnostic position is the 1-based event
    /// position in the log (byte 0): there is no wire to point into.
    pub fn pair_with(
        &self,
        policy: RecoveryPolicy,
    ) -> Result<(History, Vec<Diagnostic>), IngestError> {
        let mut pairer = StreamingPairer::new();
        let mut diagnostics = Vec::new();
        for (i, ev) in self.events().iter().enumerate() {
            let pos = SourcePos {
                line: i + 1,
                byte: 0,
            };
            match pairer.feed_with(ev.clone(), policy) {
                Ok(recovered) => {
                    if let Some(d) = recovered.diagnostic(pos) {
                        diagnostics.push(d);
                    }
                }
                Err(e) => return Err(IngestError::from_pairing(pos, e)),
            }
        }
        Ok((pairer.into_history(), diagnostics))
    }
}

/// What one fed event did to the paired history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// A new (still open, hence indeterminate) transaction was appended.
    Invoked(TxnId),
    /// An open transaction was resolved in place: its micro-ops gained
    /// observed read values and its status/completion were recorded.
    Completed(TxnId),
}

/// Incremental pairing: the streaming counterpart of [`EventLog::pair`].
///
/// Feed events in real-time order; after any prefix, [`StreamingPairer::history`]
/// equals `EventLog::pair` run on that prefix — same transactions, same
/// ids, byte for byte. This holds because transaction ids are assigned
/// by invocation rank: events arrive in index order, so an open
/// invocation's rank (and therefore its id) never changes when later
/// events arrive, and a completion only mutates its own transaction in
/// place.
///
/// This is the frontier the `elle-stream` checker carries: the only
/// state besides the paired history itself is the open-invocation table,
/// so raw events can be dropped as soon as they are fed.
///
/// Events are fed by value and moved into the history, so no mop is
/// copied: an invocation's mops become its transaction's, and a
/// completion's replace them. A violation the recovery ladder repairs
/// (an adopted orphan, an abandoned invocation) moves the event the
/// same way; one it drops, or one [`RecoveryPolicy::Strict`] refuses,
/// is dropped with its error.
#[derive(Debug, Default)]
pub struct StreamingPairer {
    history: History,
    /// Open invocation per process: transaction id + invoke timestamp.
    open: FxHashMap<ProcessId, (TxnId, Option<u64>)>,
    last_index: Option<usize>,
    /// Mops held by the retained transactions.
    mops: usize,
}

impl StreamingPairer {
    /// An empty pairer.
    pub fn new() -> StreamingPairer {
        StreamingPairer::default()
    }

    /// An empty pairer whose history starts at retirement watermark
    /// `base`: the first invocation fed gets `TxnId(base)`. This is the
    /// recovery entry point for a windowed checker replaying only its
    /// retained suffix.
    pub fn with_base(base: u32) -> StreamingPairer {
        StreamingPairer {
            history: History::with_base(base),
            ..StreamingPairer::default()
        }
    }

    /// Retire every transaction with id below `r` from the paired
    /// history (see [`History::retire_prefix`]). Open invocations are
    /// never retired — the windowed checker clamps its watermark below
    /// the oldest open id — so the open table is untouched.
    pub fn retire_prefix(&mut self, r: u32) {
        debug_assert!(self.open.values().all(|&(id, _)| id.0 >= r));
        let base = self.history.base();
        let n = (r.saturating_sub(base) as usize).min(self.history.txns().len());
        self.mops -= self.history.txns()[..n]
            .iter()
            .map(|t| t.mops.len())
            .sum::<usize>();
        self.history.retire_prefix(r);
    }

    /// The paired history so far. Open invocations appear as
    /// indeterminate transactions with no completion index — exactly as
    /// [`EventLog::pair`] renders them at history end.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Micro-operations held by the retained transactions: the
    /// history's [`History::mop_count`], kept as it changes.
    pub fn retained_mops(&self) -> usize {
        self.mops
    }

    /// Number of invocations currently awaiting completion.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// The open invocations: `(process, txn, invoke timestamp)` — the
    /// extra state a crash-recovery path needs to reconstruct a pairer
    /// from its paired history (open transactions don't carry their
    /// invoke timestamp until they commit).
    pub fn open_entries(&self) -> Vec<(ProcessId, TxnId, Option<u64>)> {
        let mut entries: Vec<(ProcessId, TxnId, Option<u64>)> = self
            .open
            .iter()
            .map(|(&p, &(id, ts))| (p, id, ts))
            .collect();
        entries.sort_by_key(|&(_, id, _)| id);
        entries
    }

    /// Feed the next event. The event is moved into the history: an
    /// invocation becomes a transaction, and a completion's mops
    /// replace its invocation's.
    pub fn feed(&mut self, ev: Event) -> Result<Ingest, PairingError> {
        self.try_feed(ev).map_err(|(e, _)| e)
    }

    /// [`StreamingPairer::feed`], handing the event back on error so
    /// recovery can still move it.
    fn try_feed(&mut self, ev: Event) -> Result<Ingest, (PairingError, Event)> {
        if self.last_index.is_some_and(|last| ev.index <= last) {
            return Err((PairingError::NonMonotonicIndex { index: ev.index }, ev));
        }
        self.last_index = Some(ev.index);
        match ev.kind {
            EventKind::Invoke => {
                if self.open.contains_key(&ev.process) {
                    let err = PairingError::OverlappingInvoke {
                        index: ev.index,
                        process: ev.process,
                    };
                    return Err((err, ev));
                }
                Ok(Ingest::Invoked(self.admit(ev)))
            }
            EventKind::Ok | EventKind::Fail | EventKind::Info => {
                let Some((id, invoke_ts)) = self.open.remove(&ev.process) else {
                    let err = PairingError::CompletionWithoutInvoke {
                        index: ev.index,
                        process: ev.process,
                    };
                    return Err((err, ev));
                };
                let txn = self.history.get_mut(id);
                if !mops_compatible(&txn.mops, &ev.mops) {
                    // Restore the open entry: the caller may recover.
                    self.open.insert(ev.process, (id, invoke_ts));
                    let err = PairingError::MismatchedMops {
                        index: ev.index,
                        process: ev.process,
                    };
                    return Err((err, ev));
                }
                // Compatible mops are equally many, so the retained mop
                // count is unchanged.
                txn.status = completion_status(ev.kind);
                txn.mops = ev.mops;
                txn.complete_index = Some(ev.index);
                txn.timestamps = match (invoke_ts, ev.time_ns, ev.kind) {
                    (Some(s), Some(c), EventKind::Ok) => Some((s, c)),
                    _ => None,
                };
                Ok(Ingest::Completed(id))
            }
        }
    }

    /// Open a transaction for invocation `ev` and return its id.
    fn admit(&mut self, ev: Event) -> TxnId {
        let id = TxnId(self.history.len() as u32);
        self.open.insert(ev.process, (id, ev.time_ns));
        self.push(Transaction {
            id,
            process: ev.process,
            mops: ev.mops,
            status: TxnStatus::Indeterminate,
            invoke_index: ev.index,
            complete_index: None,
            timestamps: None,
        });
        id
    }

    fn push(&mut self, txn: Transaction) {
        self.mops += txn.mops.len();
        self.history.txns_mut().push(txn);
    }

    /// Feed the next event under a [`RecoveryPolicy`], moving it into
    /// the history as [`StreamingPairer::feed`] does.
    ///
    /// `Strict` is exactly [`StreamingPairer::feed`]. `Quarantine` turns
    /// each pairing violation into a repair (see [`crate::ingest`] for
    /// the soundness ladder) and reports what it did via [`Recovered`]:
    ///
    /// * late/duplicate event → [`Recovered::Skipped`]
    /// * orphan completion → [`Recovered::Adopted`] point-interval txn
    /// * overlapping invocation → [`Recovered::Abandoned`]: the open
    ///   txn stays indeterminate, the new invocation is admitted
    /// * mismatched completion → [`Recovered::Skipped`], invocation
    ///   stays open
    pub fn feed_with(
        &mut self,
        ev: Event,
        policy: RecoveryPolicy,
    ) -> Result<Recovered, PairingError> {
        let (err, ev) = match self.try_feed(ev) {
            Ok(i) => return Ok(Recovered::Ingested(i)),
            Err(failed) => failed,
        };
        if policy == RecoveryPolicy::Strict {
            return Err(err);
        }
        match err {
            // The event is from the past: a duplicate delivery (already
            // ingested — dropping it is exact) or a reordered one
            // (degrades to loss of this event).
            PairingError::NonMonotonicIndex { .. } => Ok(Recovered::Skipped(err)),
            // The completion can't be matched to what this process
            // invoked; drop it and let the invocation end indeterminate.
            PairingError::MismatchedMops { .. } => Ok(Recovered::Skipped(err)),
            // The invocation was lost. Adopt the completion as a
            // point-interval transaction: every micro-op it carries was
            // observed by the client, so data flow is exact — only the
            // real-time interval collapses.
            PairingError::CompletionWithoutInvoke { .. } => {
                // `try_feed` advanced `last_index` before failing, so the
                // event must be admitted inline, not re-fed.
                let id = TxnId(self.history.len() as u32);
                self.push(Transaction {
                    id,
                    process: ev.process,
                    mops: ev.mops,
                    status: completion_status(ev.kind),
                    invoke_index: ev.index,
                    complete_index: Some(ev.index),
                    timestamps: None,
                });
                Ok(Recovered::Adopted(id, err))
            }
            // The open invocation's completion was lost. Its history
            // record already says Indeterminate with no completion —
            // exactly right — so abandon it and admit the new one.
            PairingError::OverlappingInvoke { .. } => {
                // An overlap error implies an open entry; if it is ever
                // absent, degrade to dropping the event rather than
                // panicking on an ingest path.
                let Some((abandoned, _)) = self.open.remove(&ev.process) else {
                    return Ok(Recovered::Skipped(err));
                };
                let admitted = self.admit(ev);
                Ok(Recovered::Abandoned {
                    abandoned,
                    admitted,
                    cause: err,
                })
            }
        }
    }

    /// Consume the pairer, yielding the paired history.
    pub fn into_history(self) -> History {
        self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log() -> EventLog {
        EventLog::new()
    }

    #[test]
    fn pairs_simple_ok() {
        let mut l = log();
        l.push(
            ProcessId(0),
            EventKind::Invoke,
            vec![Mop::append(1, 1), Mop::read(1)],
        );
        l.push(
            ProcessId(0),
            EventKind::Ok,
            vec![Mop::append(1, 1), Mop::read_list(1, [1])],
        );
        let h = l.pair().unwrap();
        assert_eq!(h.len(), 1);
        let t = h.get(TxnId(0));
        assert_eq!(t.status, TxnStatus::Committed);
        assert_eq!(t.invoke_index, 0);
        assert_eq!(t.complete_index, Some(1));
        assert_eq!(t.mops[1], Mop::read_list(1, [1]));
    }

    #[test]
    fn interleaved_processes() {
        let mut l = log();
        l.push(ProcessId(0), EventKind::Invoke, vec![Mop::append(1, 1)]);
        l.push(ProcessId(1), EventKind::Invoke, vec![Mop::append(1, 2)]);
        l.push(ProcessId(1), EventKind::Ok, vec![Mop::append(1, 2)]);
        l.push(ProcessId(0), EventKind::Fail, vec![Mop::append(1, 1)]);
        let h = l.pair().unwrap();
        assert_eq!(h.len(), 2);
        // Ordered by invocation.
        assert_eq!(h.get(TxnId(0)).process, ProcessId(0));
        assert_eq!(h.get(TxnId(0)).status, TxnStatus::Aborted);
        assert_eq!(h.get(TxnId(1)).process, ProcessId(1));
        assert_eq!(h.get(TxnId(1)).status, TxnStatus::Committed);
    }

    #[test]
    fn open_invocation_becomes_indeterminate() {
        let mut l = log();
        l.push(ProcessId(0), EventKind::Invoke, vec![Mop::append(1, 1)]);
        let h = l.pair().unwrap();
        assert_eq!(h.len(), 1);
        assert_eq!(h.get(TxnId(0)).status, TxnStatus::Indeterminate);
        assert_eq!(h.get(TxnId(0)).complete_index, None);
    }

    #[test]
    fn info_completion_is_indeterminate() {
        let mut l = log();
        l.push(ProcessId(0), EventKind::Invoke, vec![Mop::append(1, 1)]);
        l.push(ProcessId(0), EventKind::Info, vec![Mop::append(1, 1)]);
        let h = l.pair().unwrap();
        assert_eq!(h.get(TxnId(0)).status, TxnStatus::Indeterminate);
        assert_eq!(h.get(TxnId(0)).complete_index, Some(1));
    }

    #[test]
    fn rejects_completion_without_invoke() {
        let mut l = log();
        l.push(ProcessId(0), EventKind::Ok, vec![]);
        assert_eq!(
            l.pair().unwrap_err(),
            PairingError::CompletionWithoutInvoke {
                index: 0,
                process: ProcessId(0)
            }
        );
    }

    #[test]
    fn rejects_overlapping_invokes() {
        let mut l = log();
        l.push(ProcessId(0), EventKind::Invoke, vec![]);
        l.push(ProcessId(0), EventKind::Invoke, vec![]);
        assert!(matches!(
            l.pair().unwrap_err(),
            PairingError::OverlappingInvoke { index: 1, .. }
        ));
    }

    #[test]
    fn rejects_mismatched_mops() {
        let mut l = log();
        l.push(ProcessId(0), EventKind::Invoke, vec![Mop::append(1, 1)]);
        l.push(ProcessId(0), EventKind::Ok, vec![Mop::append(1, 2)]);
        assert!(matches!(
            l.pair().unwrap_err(),
            PairingError::MismatchedMops { index: 1, .. }
        ));
    }

    #[test]
    fn mismatched_len_rejected() {
        let mut l = log();
        l.push(ProcessId(0), EventKind::Invoke, vec![Mop::append(1, 1)]);
        l.push(
            ProcessId(0),
            EventKind::Ok,
            vec![Mop::append(1, 1), Mop::read(1)],
        );
        assert!(matches!(
            l.pair().unwrap_err(),
            PairingError::MismatchedMops { .. }
        ));
    }

    #[test]
    fn reads_may_gain_values_but_not_change_key() {
        let mut l = log();
        l.push(ProcessId(0), EventKind::Invoke, vec![Mop::read(1)]);
        l.push(ProcessId(0), EventKind::Ok, vec![Mop::read_list(2, [1])]);
        assert!(matches!(
            l.pair().unwrap_err(),
            PairingError::MismatchedMops { .. }
        ));
    }

    #[test]
    fn error_display() {
        let e = PairingError::CompletionWithoutInvoke {
            index: 3,
            process: ProcessId(1),
        };
        assert!(e.to_string().contains("event 3"));
        let e = PairingError::NonMonotonicIndex { index: 4 };
        assert!(e.to_string().contains("event 4"));
    }

    /// The streaming-pairer contract: after feeding any prefix of an
    /// event log, `history()` equals `pair()` run on that prefix.
    #[test]
    fn streaming_pairer_matches_batch_on_every_prefix() {
        let mut l = log();
        l.push(ProcessId(0), EventKind::Invoke, vec![Mop::append(1, 1)]);
        l.push(ProcessId(1), EventKind::Invoke, vec![Mop::read(1)]);
        l.push(ProcessId(1), EventKind::Ok, vec![Mop::read_list(1, [1])]);
        l.push(ProcessId(0), EventKind::Fail, vec![Mop::append(1, 1)]);
        l.push(ProcessId(2), EventKind::Invoke, vec![Mop::append(1, 2)]);
        l.push(ProcessId(2), EventKind::Info, vec![Mop::append(1, 2)]);
        l.push(ProcessId(0), EventKind::Invoke, vec![Mop::read(1)]);

        let mut p = StreamingPairer::new();
        for (k, ev) in l.events().iter().enumerate() {
            p.feed(ev.clone()).expect("well-formed log");
            let prefix = EventLog::from_events(l.events()[..=k].to_vec()).unwrap();
            assert_eq!(p.history(), &prefix.pair().unwrap(), "prefix {k}");
        }
        assert_eq!(p.open_count(), 1);
    }

    #[test]
    fn streaming_pairer_rejects_what_batch_rejects() {
        let mut p = StreamingPairer::new();
        // Completion without invoke.
        let ev = Event {
            index: 0,
            process: ProcessId(0),
            kind: EventKind::Ok,
            mops: vec![],
            time_ns: None,
        };
        assert!(matches!(
            p.feed(ev),
            Err(PairingError::CompletionWithoutInvoke { .. })
        ));
        // Overlapping invoke.
        let inv = Event {
            index: 1,
            process: ProcessId(0),
            kind: EventKind::Invoke,
            mops: vec![Mop::append(1, 1)],
            time_ns: None,
        };
        p.feed(inv.clone()).unwrap();
        let inv2 = Event {
            index: 2,
            ..inv.clone()
        };
        assert!(matches!(
            p.feed(inv2),
            Err(PairingError::OverlappingInvoke { .. })
        ));
        // Mismatched mops leaves the invocation open.
        let bad_ok = Event {
            index: 3,
            process: ProcessId(0),
            kind: EventKind::Ok,
            mops: vec![Mop::append(1, 9)],
            time_ns: None,
        };
        assert!(matches!(
            p.feed(bad_ok),
            Err(PairingError::MismatchedMops { .. })
        ));
        assert_eq!(p.open_count(), 1);
        // Non-monotonic index.
        let stale = Event {
            index: 3,
            process: ProcessId(1),
            kind: EventKind::Invoke,
            mops: vec![],
            time_ns: None,
        };
        assert!(matches!(
            p.feed(stale),
            Err(PairingError::NonMonotonicIndex { .. })
        ));
    }

    #[test]
    fn streaming_pairer_carries_timestamps() {
        let mut p = StreamingPairer::new();
        let mut push = |index, kind, time_ns| {
            p.feed(Event {
                index,
                process: ProcessId(0),
                kind,
                mops: vec![Mop::append(1, 1)],
                time_ns,
            })
            .unwrap()
        };
        push(0, EventKind::Invoke, Some(11));
        push(1, EventKind::Ok, Some(13));
        assert_eq!(p.history().get(TxnId(0)).timestamps, Some((11, 13)));
    }
}

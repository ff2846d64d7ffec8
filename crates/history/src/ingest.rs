//! Fault-tolerant ingestion: the typed error taxonomy and recovery
//! policies for turning a possibly-damaged event stream into a history.
//!
//! Elle's whole premise is checking histories from systems that crash,
//! lose acknowledgements, and return indeterminate results — so the
//! ingest pipeline itself must survive the same weather. Every failure
//! on the wire is classified into an [`IngestError`] carrying its exact
//! source position (1-based line, byte offset of the line start), and a
//! [`RecoveryPolicy`] decides what happens next:
//!
//! * [`RecoveryPolicy::Strict`] — abort with the diagnostic. The default,
//!   and byte-compatible with historical behaviour.
//! * [`RecoveryPolicy::Quarantine`] — skip or repair the damaged event,
//!   record a [`Diagnostic`], and keep checking.
//!
//! ## Quarantine semantics
//!
//! Recovery never invents observations; it only weakens them, so a
//! quarantined run can *miss* anomalies but the inferences it does make
//! remain grounded in events the client actually recorded:
//!
//! * **Undecodable line** (torn write, bit flip): the line is dropped.
//! * **Late or duplicate event** (index not above the last one seen):
//!   the event is dropped. Duplicated deliveries are thereby suppressed
//!   exactly; a true reordering degrades into the loss of the delayed
//!   event, which the following rules then absorb.
//! * **Orphan completion** (its invocation was lost): the completion is
//!   *adopted* as a transaction whose invocation and completion coincide
//!   at the completion's index. The completion carries everything the
//!   client observed — status, writes, read values — so data-flow
//!   inference is exact; only the transaction's real-time interval is
//!   collapsed to a point, which can fabricate real-time edges *into*
//!   the adopted transaction. Prefer checking without `--realtime`
//!   under heavy invoke loss (see README, "Failure semantics").
//! * **Overlapping invocation** (the open invocation's completion was
//!   lost): the open transaction is abandoned as indeterminate — its
//!   history record already says exactly that — and the new invocation
//!   is admitted.
//! * **Mismatched completion** (pairing impossible): the completion is
//!   dropped; the invocation stays open and ends indeterminate.

use crate::{
    event_from_json, Event, EventLog, History, Ingest, PairingError, StreamingPairer, TxnId,
};
use std::fmt;

/// What to do when ingestion hits a damaged event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Abort on the first violation, carrying a positioned diagnostic.
    #[default]
    Strict,
    /// Skip or repair the damaged event, record a [`Diagnostic`], and
    /// keep going.
    Quarantine,
}

/// Where in the source stream something happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SourcePos {
    /// 1-based line number (0 when the source has no line structure,
    /// e.g. an in-memory event log — then it is the 1-based event
    /// position instead).
    pub line: usize,
    /// Byte offset of the start of that line in the stream.
    pub byte: usize,
}

impl fmt::Display for SourcePos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {} (byte {})", self.line, self.byte)
    }
}

/// Why an event could not be ingested as-is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestCause {
    /// The line is not a well-formed JSON event (torn write, bit flip,
    /// foreign garbage).
    Decode {
        /// The decoder's message.
        message: String,
    },
    /// The event's index is not strictly greater than its predecessor's
    /// (a duplicated or re-ordered delivery).
    Ordering {
        /// The offending event's index.
        index: usize,
    },
    /// The event decoded but cannot be paired (orphan completion,
    /// overlapping invocation, mismatched micro-ops).
    Pairing(PairingError),
    /// A single line exceeded the configured buffer budget and was
    /// abandoned (resource-exhaustion degradation, not a parse error).
    Oversized {
        /// The budget that was exceeded, in bytes.
        limit: usize,
    },
}

impl fmt::Display for IngestCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestCause::Decode { message } => write!(f, "{message}"),
            IngestCause::Ordering { index } => {
                write!(
                    f,
                    "event index {index} is not greater than the previous line's"
                )
            }
            IngestCause::Pairing(e) => write!(f, "{e}"),
            IngestCause::Oversized { limit } => {
                write!(f, "line exceeds the {limit}-byte buffer budget")
            }
        }
    }
}

/// A positioned, typed ingestion failure — the strict policy's abort
/// payload, and the core of every quarantine diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestError {
    /// Where it happened.
    pub pos: SourcePos,
    /// What happened.
    pub cause: IngestCause,
}

impl IngestError {
    /// Normalize a pairing failure: the pairer's own monotonicity error
    /// becomes [`IngestCause::Ordering`] so callers see one taxonomy.
    pub fn from_pairing(pos: SourcePos, e: PairingError) -> IngestError {
        let cause = match e {
            PairingError::NonMonotonicIndex { index } => IngestCause::Ordering { index },
            other => IngestCause::Pairing(other),
        };
        IngestError { pos, cause }
    }
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.pos, self.cause)
    }
}

impl std::error::Error for IngestError {}

/// How a quarantined event was handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// The line was dropped (undecodable or over budget).
    SkippedLine,
    /// The decoded event was dropped (late, duplicate, or unpairable).
    SkippedEvent,
    /// An orphan completion was adopted as a point-interval transaction.
    AdoptedOrphan(TxnId),
    /// An open invocation was abandoned as indeterminate so a new
    /// invocation on the same process could be admitted.
    AbandonedOpen(TxnId),
}

impl fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryAction::SkippedLine => write!(f, "line skipped"),
            RecoveryAction::SkippedEvent => write!(f, "event skipped"),
            RecoveryAction::AdoptedOrphan(id) => {
                write!(f, "orphan completion adopted as {id}")
            }
            RecoveryAction::AbandonedOpen(id) => {
                write!(f, "open invocation {id} abandoned as indeterminate")
            }
        }
    }
}

/// One quarantined event: what was wrong, where, and what recovery did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The positioned failure.
    pub error: IngestError,
    /// The recovery taken.
    pub action: RecoveryAction,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} — {}", self.error, self.action)
    }
}

/// `s` without the JSON whitespace around it: space, tab, LF and CR.
/// Other Unicode whitespace (U+00A0, U+2028, …) stays, so a line JSON
/// rejects is still rejected.
pub fn trim_json_ws(s: &str) -> &str {
    s.trim_matches([' ', '\t', '\n', '\r'])
}

/// Decode one NDJSON event line, its newline and surrounding JSON
/// whitespace ignored: `Ok(None)` for a blank line, an
/// [`IngestCause::Decode`] error at `pos` for a line that is not an
/// event.
pub fn decode_event_line(raw: &str, pos: SourcePos) -> Result<Option<Event>, IngestError> {
    let trimmed = trim_json_ws(raw);
    if trimmed.is_empty() {
        return Ok(None);
    }
    event_from_json(trimmed).map(Some).map_err(|e| IngestError {
        pos,
        cause: IngestCause::Decode {
            message: e.to_string(),
        },
    })
}

/// A streaming NDJSON → [`History`] pipeline with positions, policy,
/// and diagnostics: the fault-tolerant counterpart of
/// [`events_from_ndjson`](crate::events_from_ndjson)` + `[`EventLog::pair`].
///
/// Feed raw lines (trailing newline included, so byte offsets stay
/// exact) with [`NdjsonIngestor::feed_line`], or whole buffers with
/// [`NdjsonIngestor::feed_str`]. Under `Strict` the first violation
/// aborts; under `Quarantine` every violation becomes a [`Diagnostic`]
/// and ingestion continues.
#[derive(Debug, Default)]
pub struct NdjsonIngestor {
    policy: RecoveryPolicy,
    pairer: StreamingPairer,
    /// 1-based number of the next line to be fed.
    line: usize,
    /// Byte offset of the start of the next line.
    byte: usize,
    diagnostics: Vec<Diagnostic>,
}

impl NdjsonIngestor {
    /// An ingestor with the given policy.
    pub fn new(policy: RecoveryPolicy) -> NdjsonIngestor {
        NdjsonIngestor {
            policy,
            pairer: StreamingPairer::new(),
            line: 0,
            byte: 0,
            diagnostics: Vec::new(),
        }
    }

    /// The paired history so far (open invocations appear as
    /// indeterminate transactions, as always).
    pub fn history(&self) -> &History {
        self.pairer.history()
    }

    /// Diagnostics recorded so far (always empty under `Strict`).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of quarantined events so far.
    pub fn quarantined(&self) -> usize {
        self.diagnostics.len()
    }

    /// Invocations currently awaiting completion.
    pub fn open_count(&self) -> usize {
        self.pairer.open_count()
    }

    /// Finish, yielding the history and the diagnostics.
    pub fn finish(self) -> (History, Vec<Diagnostic>) {
        (self.pairer.into_history(), self.diagnostics)
    }

    /// The position the *next* fed line will be charged to.
    pub fn pos(&self) -> SourcePos {
        SourcePos {
            line: self.line + 1,
            byte: self.byte,
        }
    }

    /// Feed one raw line (with its trailing newline, if any). Blank
    /// lines are skipped. Returns what the event did to the history,
    /// `None` for blank/quarantined lines.
    pub fn feed_line(&mut self, raw: &str) -> Result<Option<Ingest>, IngestError> {
        let pos = self.pos();
        self.line += 1;
        self.byte += raw.len();
        let ev = match decode_event_line(raw, pos) {
            Ok(Some(ev)) => ev,
            Ok(None) => return Ok(None),
            Err(err) => {
                return match self.policy {
                    RecoveryPolicy::Strict => Err(err),
                    RecoveryPolicy::Quarantine => {
                        self.diagnostics.push(Diagnostic {
                            error: err,
                            action: RecoveryAction::SkippedLine,
                        });
                        Ok(None)
                    }
                };
            }
        };
        match self.pairer.feed_with(ev, self.policy) {
            Ok(Recovered::Ingested(i)) => Ok(Some(i)),
            Ok(recovered) => {
                if let Some(d) = recovered.diagnostic(pos) {
                    self.diagnostics.push(d);
                }
                Ok(None)
            }
            Err(e) => Err(IngestError::from_pairing(pos, e)),
        }
    }

    /// Feed a whole buffer, splitting at newlines (each kept with its
    /// line so positions stay exact).
    pub fn feed_str(&mut self, s: &str) -> Result<(), IngestError> {
        for raw in s.split_inclusive('\n') {
            self.feed_line(raw)?;
        }
        Ok(())
    }
}

/// What [`StreamingPairer::feed_with`] did with an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recovered {
    /// Ingested normally.
    Ingested(Ingest),
    /// Quarantined: the event was dropped, for this reason.
    Skipped(PairingError),
    /// Quarantined: an orphan completion was adopted as a point-interval
    /// transaction (cause retained for the diagnostic).
    Adopted(TxnId, PairingError),
    /// Quarantined: the open invocation was abandoned as indeterminate
    /// and the new invocation admitted in its place.
    Abandoned {
        /// The transaction left behind as indeterminate.
        abandoned: TxnId,
        /// The newly admitted invocation's transaction.
        admitted: TxnId,
        /// The pairing violation that forced this.
        cause: PairingError,
    },
}

impl Recovered {
    /// Render a quarantine outcome as a positioned diagnostic
    /// (`None` for [`Recovered::Ingested`]).
    pub fn diagnostic(&self, pos: SourcePos) -> Option<Diagnostic> {
        let (cause, action) = match self {
            Recovered::Ingested(_) => return None,
            Recovered::Skipped(e) => (e.clone(), RecoveryAction::SkippedEvent),
            Recovered::Adopted(id, e) => (e.clone(), RecoveryAction::AdoptedOrphan(*id)),
            Recovered::Abandoned {
                abandoned, cause, ..
            } => (cause.clone(), RecoveryAction::AbandonedOpen(*abandoned)),
        };
        Some(Diagnostic {
            error: IngestError::from_pairing(pos, cause),
            action,
        })
    }
}

/// Parse NDJSON into an [`EventLog`] under a recovery policy, without
/// pairing. `Strict` aborts on the first damaged line; `Quarantine`
/// skips damaged or out-of-order lines, recording one positioned
/// [`Diagnostic`] each.
pub fn events_from_ndjson_with(
    s: &str,
    policy: RecoveryPolicy,
) -> Result<(EventLog, Vec<Diagnostic>), IngestError> {
    let mut events: Vec<Event> = Vec::new();
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut last_index: Option<usize> = None;
    let mut byte = 0usize;
    for (i, raw) in s.split_inclusive('\n').enumerate() {
        let pos = SourcePos { line: i + 1, byte };
        byte += raw.len();
        let (error, action) = match decode_event_line(raw, pos) {
            Ok(None) => continue,
            Ok(Some(ev)) if last_index.is_some_and(|last| ev.index <= last) => {
                let cause = IngestCause::Ordering { index: ev.index };
                (IngestError { pos, cause }, RecoveryAction::SkippedEvent)
            }
            Ok(Some(ev)) => {
                last_index = Some(ev.index);
                events.push(ev);
                continue;
            }
            Err(error) => (error, RecoveryAction::SkippedLine),
        };
        match policy {
            RecoveryPolicy::Strict => return Err(error),
            RecoveryPolicy::Quarantine => diagnostics.push(Diagnostic { error, action }),
        }
    }
    Ok((EventLog::from_ordered(events), diagnostics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, Mop, ProcessId, TxnStatus};

    fn ok_line(index: usize, process: u32, kind: EventKind, mops: Vec<Mop>) -> String {
        let ev = Event {
            index,
            process: ProcessId(process),
            kind,
            mops,
            time_ns: None,
        };
        let mut s = serde_json::to_string(&ev).expect("serializes");
        s.push('\n');
        s
    }

    #[test]
    fn strict_aborts_with_exact_position() {
        let mut ing = NdjsonIngestor::new(RecoveryPolicy::Strict);
        let first = ok_line(0, 0, EventKind::Invoke, vec![Mop::append(1, 1)]);
        let first_len = first.len();
        ing.feed_line(&first).expect("clean line");
        let err = ing.feed_line("{torn").unwrap_err();
        assert_eq!(err.pos.line, 2);
        assert_eq!(err.pos.byte, first_len);
        assert!(matches!(err.cause, IngestCause::Decode { .. }));
        assert!(err.to_string().starts_with("line 2 (byte "), "{err}");
    }

    #[test]
    fn quarantine_skips_torn_lines_and_keeps_pairing() {
        let mut ing = NdjsonIngestor::new(RecoveryPolicy::Quarantine);
        ing.feed_line(&ok_line(0, 0, EventKind::Invoke, vec![Mop::append(1, 1)]))
            .unwrap();
        assert_eq!(ing.feed_line("{torn").unwrap(), None);
        ing.feed_line(&ok_line(1, 0, EventKind::Ok, vec![Mop::append(1, 1)]))
            .unwrap();
        let (h, diags) = ing.finish();
        assert_eq!(h.len(), 1);
        assert_eq!(h.get(TxnId(0)).status, TxnStatus::Committed);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].action, RecoveryAction::SkippedLine);
        assert_eq!(diags[0].error.pos.line, 2);
    }

    #[test]
    fn quarantine_adopts_orphan_completions() {
        let mut ing = NdjsonIngestor::new(RecoveryPolicy::Quarantine);
        // The invocation was lost; only the completion arrives.
        ing.feed_line(&ok_line(
            5,
            3,
            EventKind::Ok,
            vec![Mop::append(1, 1), Mop::read_list(1, [1])],
        ))
        .unwrap();
        let (h, diags) = ing.finish();
        assert_eq!(h.len(), 1);
        let t = h.get(TxnId(0));
        assert_eq!(t.status, TxnStatus::Committed);
        assert_eq!(t.invoke_index, 5);
        assert_eq!(t.complete_index, Some(5));
        assert_eq!(t.mops[1], Mop::read_list(1, [1]));
        assert!(matches!(diags[0].action, RecoveryAction::AdoptedOrphan(_)));
    }

    #[test]
    fn quarantine_abandons_open_invocation_on_overlap() {
        let mut ing = NdjsonIngestor::new(RecoveryPolicy::Quarantine);
        ing.feed_line(&ok_line(0, 0, EventKind::Invoke, vec![Mop::append(1, 1)]))
            .unwrap();
        // Completion lost; the same process invokes again.
        ing.feed_line(&ok_line(2, 0, EventKind::Invoke, vec![Mop::append(1, 2)]))
            .unwrap();
        ing.feed_line(&ok_line(3, 0, EventKind::Ok, vec![Mop::append(1, 2)]))
            .unwrap();
        let (h, diags) = ing.finish();
        assert_eq!(h.len(), 2);
        assert_eq!(h.get(TxnId(0)).status, TxnStatus::Indeterminate);
        assert_eq!(h.get(TxnId(0)).complete_index, None);
        assert_eq!(h.get(TxnId(1)).status, TxnStatus::Committed);
        assert!(matches!(diags[0].action, RecoveryAction::AbandonedOpen(_)));
    }

    #[test]
    fn quarantine_drops_duplicates_exactly() {
        let inv = ok_line(0, 0, EventKind::Invoke, vec![Mop::append(1, 1)]);
        let done = ok_line(1, 0, EventKind::Ok, vec![Mop::append(1, 1)]);
        let mut ing = NdjsonIngestor::new(RecoveryPolicy::Quarantine);
        // Duplicate both deliveries.
        for l in [&inv, &inv, &done, &done] {
            ing.feed_line(l).unwrap();
        }
        let (h, diags) = ing.finish();
        assert_eq!(h.len(), 1);
        assert_eq!(h.get(TxnId(0)).status, TxnStatus::Committed);
        assert_eq!(diags.len(), 2);
        assert!(diags
            .iter()
            .all(|d| matches!(d.error.cause, IngestCause::Ordering { .. })));
    }

    #[test]
    fn events_from_ndjson_with_reports_positions() {
        let inv = ok_line(0, 0, EventKind::Invoke, vec![Mop::append(1, 1)]);
        let nd = format!("{inv}{{torn\n{inv}");
        let err = events_from_ndjson_with(&nd, RecoveryPolicy::Strict).unwrap_err();
        assert_eq!(err.pos.line, 2);
        assert_eq!(err.pos.byte, inv.len());
        let (log, diags) = events_from_ndjson_with(&nd, RecoveryPolicy::Quarantine).unwrap();
        // The torn line and the duplicated index are both quarantined.
        assert_eq!(log.len(), 1);
        assert_eq!(diags.len(), 2);
        assert_eq!(diags[0].error.pos.line, 2);
        assert_eq!(diags[1].error.pos.line, 3);
        assert!(matches!(diags[1].error.cause, IngestCause::Ordering { .. }));
    }
}

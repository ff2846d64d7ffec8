//! JSON import/export of histories, and the NDJSON event-per-line
//! wire format consumed by `elle-stream`.
//!
//! The whole-history format is the serde representation of [`History`].
//! It is stable enough to move histories between the generator, the
//! checker binaries, and EXPERIMENTS.md artifacts. (Jepsen itself uses
//! EDN; JSON is the closest widely-supported equivalent and round-trips
//! all our types.)
//!
//! The **NDJSON** format is one [`Event`] per line, in real-time order —
//! the shape a live harness naturally emits and an incremental checker
//! naturally consumes: each line is self-contained, a truncated file is
//! a valid prefix, and `tail -f` composes. Indices must be strictly
//! increasing but may be sparse (so exporting a hand-built history and
//! re-pairing reproduces it exactly).

use crate::ingest::{events_from_ndjson_with, IngestError, RecoveryPolicy};
use crate::{event_to_json, Event, EventKind, EventLog, History, Mop, TxnId, TxnStatus};
use serde::de::Error as _;

/// Serialize a history to a JSON string.
pub fn history_to_json(h: &History) -> String {
    // History's serde impls are plain data; serialization cannot fail.
    serde_json::to_string(h).expect("history serialization is infallible")
}

/// Parse a history from JSON.
pub fn history_from_json(s: &str) -> Result<History, serde_json::Error> {
    let h: History = serde_json::from_str(s)?;
    // Ids must match positions; re-derive rather than trusting input.
    for (i, t) in h.txns().iter().enumerate() {
        if t.id.idx() != i {
            return Err(serde_json::Error::custom(format!(
                "transaction at position {i} carries id {}",
                t.id
            )));
        }
    }
    Ok(h)
}

/// Serialize an event log as NDJSON: one JSON event per line, in order.
pub fn events_to_ndjson(log: &EventLog) -> String {
    let mut s = String::new();
    for ev in log.events() {
        event_to_json(ev, &mut s);
        s.push('\n');
    }
    s
}

/// Parse an NDJSON event stream strictly. Blank lines are skipped; any
/// other malformed line (bad JSON, non-increasing index) aborts with a
/// typed [`IngestError`] carrying its exact 1-based line and byte
/// position, so a producer can find it in a multi-gigabyte log. For
/// fault-tolerant parsing see
/// [`events_from_ndjson_with`](crate::events_from_ndjson_with).
pub fn events_from_ndjson(s: &str) -> Result<EventLog, IngestError> {
    events_from_ndjson_with(s, RecoveryPolicy::Strict).map(|(log, _)| log)
}

/// The event sequence a history pairs back from, sorted by index: each
/// transaction becomes an invoke event (reads unresolved) and, when it
/// completed, an `ok`/`fail`/`info` event. An adopted orphan (invoke
/// and completion at one index) becomes its completion alone, which
/// [`RecoveryPolicy::Quarantine`] pairing adopts again. Database
/// timestamps travel as `time_ns`: the start on the invoke event, the
/// commit on an `ok` event. An open invocation's start is not in the
/// history; `open_start` supplies it (the streaming pairer's
/// [`open_entries`](crate::StreamingPairer::open_entries)).
pub fn history_to_events(h: &History, open_start: impl Fn(TxnId) -> Option<u64>) -> Vec<Event> {
    let mut events: Vec<Event> = Vec::with_capacity(h.txns().len() * 2);
    for t in h.txns() {
        let kind = match t.status {
            TxnStatus::Committed => EventKind::Ok,
            TxnStatus::Aborted => EventKind::Fail,
            TxnStatus::Indeterminate => EventKind::Info,
        };
        let completion = |index| Event {
            index,
            process: t.process,
            kind,
            mops: t.mops.clone(),
            time_ns: match t.status {
                TxnStatus::Committed => t.timestamps.map(|(_, c)| c),
                _ => None,
            },
        };
        match t.complete_index {
            Some(ci) if ci == t.invoke_index => events.push(completion(ci)),
            complete => {
                events.push(Event {
                    index: t.invoke_index,
                    process: t.process,
                    kind: EventKind::Invoke,
                    mops: t.mops.iter().map(Mop::to_invocation).collect(),
                    time_ns: t.timestamps.map(|(s, _)| s).or_else(|| open_start(t.id)),
                });
                events.extend(complete.map(completion));
            }
        }
    }
    events.sort_by_key(|e| e.index);
    events
}

/// Export a history as an NDJSON event stream, one
/// [`history_to_events`] event per line.
///
/// Round-trip contract: for histories whose transaction order matches
/// their invocation order and whose event indices are distinct (every
/// paired or simulator-produced history; `HistoryBuilder` histories
/// unless `at()` was used to break ties), `events_from_ndjson(...)
/// .pair()` reproduces the history exactly, and `.pair_with` under
/// [`RecoveryPolicy::Quarantine`] does so for a quarantined one
/// (adopted orphans and abandoned invocations included). Database
/// timestamps travel as `time_ns` on the invoke and ok lines, like a
/// live harness would record them.
pub fn history_to_ndjson(h: &History) -> String {
    let mut s = String::new();
    for ev in &history_to_events(h, |_| None) {
        event_to_json(ev, &mut s);
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HistoryBuilder;

    #[test]
    fn round_trip() {
        let mut b = HistoryBuilder::new();
        b.txn(0)
            .append(1, 1)
            .read_list(1, [1])
            .read_register(2, None)
            .read_counter(3, 9)
            .read_set(4, [1, 2])
            .commit();
        b.txn(1).append(1, 2).abort();
        b.txn(2).append(1, 3).indeterminate();
        let h = b.build();
        let json = history_to_json(&h);
        let h2 = history_from_json(&json).unwrap();
        assert_eq!(h, h2);
    }

    #[test]
    fn rejects_mismatched_ids() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).commit();
        let h = b.build();
        let json = history_to_json(&h).replace("\"id\":0", "\"id\":5");
        assert!(history_from_json(&json).is_err());
    }

    #[test]
    fn ndjson_round_trips_a_history() {
        let mut b = HistoryBuilder::new();
        b.txn(0)
            .append(1, 1)
            .read_list(1, [1])
            .read_register(2, None)
            .read_counter(3, 9)
            .read_set(4, [1, 2])
            .commit();
        b.txn(1).append(1, 2).abort();
        b.txn(2).append(1, 3).indeterminate();
        b.txn(3).append(5, 4).at(100, None).indeterminate(); // never completed
        let h = b.build();
        let nd = history_to_ndjson(&h);
        // One line per event: 4 invokes + 3 completions.
        assert_eq!(nd.lines().count(), 7);
        let log = events_from_ndjson(&nd).expect("parses");
        let h2 = log.pair().expect("pairs");
        assert_eq!(h, h2);
        // And the event stream itself is stable.
        assert_eq!(events_to_ndjson(&log), nd);
    }

    #[test]
    fn ndjson_round_trips_timestamps() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).timestamps(7, 9).commit();
        let h = b.build();
        let h2 = events_from_ndjson(&history_to_ndjson(&h))
            .unwrap()
            .pair()
            .unwrap();
        assert_eq!(h2.get(crate::TxnId(0)).timestamps, Some((7, 9)));
        assert_eq!(h, h2);
    }

    #[test]
    fn ndjson_reports_malformed_line_position() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).commit();
        b.txn(1).append(1, 2).commit();
        let nd = history_to_ndjson(&b.build());
        let mut lines: Vec<&str> = nd.lines().collect();
        lines.insert(2, "{not json");
        let err = events_from_ndjson(&lines.join("\n")).unwrap_err();
        assert_eq!(err.pos.line, 3);
        assert!(matches!(err.cause, crate::IngestCause::Decode { .. }));
        assert!(err.to_string().starts_with("line 3 (byte "), "{err}");
    }

    #[test]
    fn ndjson_rejects_non_increasing_indices() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).commit();
        let nd = history_to_ndjson(&b.build());
        let doubled = format!("{nd}{nd}");
        let err = events_from_ndjson(&doubled).unwrap_err();
        assert_eq!(err.pos.line, 3);
        assert!(matches!(err.cause, crate::IngestCause::Ordering { .. }));
        assert!(err.to_string().contains("not greater"), "{err}");
    }

    #[test]
    fn ndjson_skips_blank_lines() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).commit();
        let nd = history_to_ndjson(&b.build()).replace('\n', "\n\n");
        let log = events_from_ndjson(&nd).unwrap();
        assert_eq!(log.len(), 2);
    }
}

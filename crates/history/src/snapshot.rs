//! Crash-consistency codec for per-stream checkpoint files.
//!
//! A snapshot file is one JSON **meta** header line followed by the
//! accepted event sequence as NDJSON (the same wire format as
//! [`events_to_ndjson`](crate::events_to_ndjson), so the body is a
//! valid event stream on its own). The meta carries the counters a
//! replay cannot recompute (epoch ordinal, quarantine gauge,
//! partial-epoch event count) plus the sequence number of the append
//! journal that continues where the snapshot ends.
//!
//! `elle-serve` keeps each tenant's event history in that journal,
//! each event written once, and makes it durable with small checkpoint
//! records appended at seals (see `elle_serve::store`). It writes a
//! snapshot only to **compact**: when retirement advances the window's
//! base (the retired-prefix facts live only in a snapshot), or when
//! skipped lines outweigh live ones in the journal. Restart = parse the
//! snapshot → replay its events → replay the journal with that
//! sequence number (ingest alone up to its last checkpoint, the live
//! path after it); anything else on disk is a torn rotation and is
//! discarded. A torn journal tail costs at most its own line: a torn
//! checkpoint is ignored and the one before it wins.
//!
//! The rotation protocol that makes compaction crash-consistent:
//!
//! 1. write `snapshot.tmp` with `journal_seq = S + 1`,
//! 2. atomically rename it over `snapshot.ndjson`,
//! 3. create the empty `journal.(S+1).ndjson`,
//! 4. delete `journal.S.ndjson` (its events are inside the snapshot).
//!
//! A crash between any two steps leaves either the old snapshot with
//! its journal intact, or the new snapshot with its journal missing
//! (created empty on restart) or its predecessor stale (deleted on
//! restart) — never a state that replays an event twice or loses one.

use crate::ingest::{events_from_ndjson_with, IngestCause, IngestError, RecoveryPolicy, SourcePos};
use crate::{event_to_json, Event};
use serde::{Deserialize, Serialize};

/// The supported snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// The header line of a snapshot file: everything a restart needs
/// beyond the event sequence itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotMeta {
    /// Format version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Sequence number of the append journal that continues this
    /// snapshot. Journals with any other sequence number are stale.
    pub journal_seq: u64,
    /// Epoch ordinal at capture time (the next seal's number).
    pub epoch: usize,
    /// Events quarantined by the recovery policy since stream start.
    pub quarantined: usize,
    /// Events ingested since the last seal (the partial epoch).
    pub events_this_epoch: usize,
    /// Transactions invoked since the last seal. Together with
    /// `events_this_epoch` this lets a restart resume watermark
    /// counting mid-epoch, so count-driven seal points — and with them
    /// epoch numbering — reproduce exactly.
    #[serde(default)]
    pub txns_since_seal: usize,
    /// Windowed-retirement carry: the bounded-memory checker state a
    /// plain event replay cannot recompute. Opaque at this layer —
    /// `elle-stream` defines the schema — and absent for unbounded
    /// checkers, so non-windowed headers stay byte-identical to
    /// version-1 files.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub window: Option<serde::Value>,
}

impl SnapshotMeta {
    /// A version-stamped meta for the given counters.
    pub fn new(
        journal_seq: u64,
        epoch: usize,
        quarantined: usize,
        events_this_epoch: usize,
        txns_since_seal: usize,
    ) -> Self {
        SnapshotMeta {
            version: SNAPSHOT_VERSION,
            journal_seq,
            epoch,
            quarantined,
            events_this_epoch,
            txns_since_seal,
            window: None,
        }
    }
}

/// Serialize a snapshot: the meta header line, then one event per line.
pub fn snapshot_to_string(meta: &SnapshotMeta, events: &[Event]) -> String {
    let mut s = serde_json::to_string(meta).expect("meta serialization is infallible");
    s.push('\n');
    for ev in events {
        event_to_json(ev, &mut s);
        s.push('\n');
    }
    s
}

/// Parse a snapshot file strictly. Snapshots are our own writes: any
/// damage (torn header, wrong version, misordered events) is a
/// positioned [`IngestError`], and the caller falls back to an empty
/// stream plus whatever the journal holds.
pub fn snapshot_from_str(s: &str) -> Result<(SnapshotMeta, Vec<Event>), IngestError> {
    let header_end = s.find('\n').map_or(s.len(), |i| i + 1);
    let (header, body) = s.split_at(header_end);
    let pos = SourcePos { line: 1, byte: 0 };
    let meta: SnapshotMeta = serde_json::from_str(header.trim()).map_err(|e| IngestError {
        pos,
        cause: IngestCause::Decode {
            message: format!("snapshot header: {e}"),
        },
    })?;
    if meta.version != SNAPSHOT_VERSION {
        return Err(IngestError {
            pos,
            cause: IngestCause::Decode {
                message: format!(
                    "snapshot version {} is not the supported {SNAPSHOT_VERSION}",
                    meta.version
                ),
            },
        });
    }
    let (log, _) = events_from_ndjson_with(body, RecoveryPolicy::Strict).map_err(|mut e| {
        // Positions in the body are relative to line 2 of the file.
        e.pos.line += 1;
        e.pos.byte += header_end;
        e
    })?;
    Ok((meta, log.into_events()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{events_to_ndjson, EventLog, HistoryBuilder};

    fn sample_events() -> Vec<Event> {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).commit();
        b.txn(1).read_list(1, [1]).indeterminate();
        let h = b.build();
        crate::events_from_ndjson(&crate::history_to_ndjson(&h))
            .unwrap()
            .into_events()
    }

    #[test]
    fn round_trips() {
        let events = sample_events();
        let meta = SnapshotMeta::new(3, 7, 2, 5, 4);
        let s = snapshot_to_string(&meta, &events);
        let (meta2, events2) = snapshot_from_str(&s).expect("parses");
        assert_eq!(meta, meta2);
        assert_eq!(events, events2);
        // The body alone is a valid event stream.
        let body = &s[s.find('\n').unwrap() + 1..];
        assert_eq!(
            events_to_ndjson(&EventLog::from_ordered(events)),
            body.to_string()
        );
    }

    #[test]
    fn empty_body_is_a_valid_snapshot() {
        let meta = SnapshotMeta::new(0, 0, 0, 0, 0);
        let (meta2, events) = snapshot_from_str(&snapshot_to_string(&meta, &[])).unwrap();
        assert_eq!(meta, meta2);
        assert!(events.is_empty());
    }

    #[test]
    fn rejects_wrong_version_and_torn_header() {
        let meta = SnapshotMeta {
            version: 99,
            ..SnapshotMeta::new(0, 0, 0, 0, 0)
        };
        let err = snapshot_from_str(&snapshot_to_string(&meta, &[])).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
        let err = snapshot_from_str("{torn\n").unwrap_err();
        assert!(err.to_string().contains("snapshot header"), "{err}");
    }

    #[test]
    fn body_damage_is_positioned_in_file_coordinates() {
        let events = sample_events();
        let meta = SnapshotMeta::new(0, 0, 0, 0, 0);
        let mut s = snapshot_to_string(&meta, &events);
        s.push_str("{torn\n");
        let err = snapshot_from_str(&s).unwrap_err();
        assert_eq!(err.pos.line, 2 + events.len());
    }
}

//! Per-tenant durability: a write-ahead journal that holds the
//! tenant's event history once, with small checkpoint records in it,
//! and a snapshot written only to compact.
//!
//! Layout under the service data directory:
//!
//! ```text
//! <data-dir>/tenants/<tenant>/
//!     snapshot.ndjson       meta header + synthesized accepted events
//!                           (present after a compaction)
//!     journal.<seq>.ndjson  event lines and checkpoints since the snapshot
//!     verdicts.ndjson       one verdict envelope per sealed epoch
//! ```
//!
//! The journal holds three kinds of line, each written with one
//! `write` from a buffer the store reuses:
//!
//! * an accepted event, as [`elle_history::event_to_json`] renders it,
//!   appended (and handed to the kernel) *before* it is ingested, so a
//!   `SIGKILL` at any instant loses nothing the checker had folded in;
//! * `{"undecodable":"<message>"}`, for a line whose event body did
//!   not decode (older journals hold `{"undecodable":true}`);
//! * `{"checkpoint":{…}}` ([`Checkpoint`]): the tenant's counters as of
//!   the line before it, appended and `fsync`ed at each seal, every
//!   `snapshot_events` lines and at close. It holds no events and no
//!   retired-prefix facts, so its size does not grow with the tenant.
//!
//! Restart ([`TenantStore::open`]) discards `snapshot.tmp` and every
//! journal but the one the snapshot names, then hands back the
//! snapshot, the journal's bytes and its last intact checkpoint. The
//! tenant replays the journal up to that checkpoint through ingest
//! alone (as it replays the snapshot) and takes its counters from the
//! record; only the tail after it replays through the live path, seals
//! included. A directory written before checkpoints existed is a
//! snapshot plus a journal without any, and replays exactly as before.
//!
//! The crash windows:
//!
//! * **Mid-line.** One `write` per line cannot be split by a `SIGKILL`;
//!   a torn write (power loss, or a writer that issued the line and
//!   its newline separately) leaves an unterminated last line. Open
//!   terminates it, so it stays a line of its own on every later
//!   restart instead of swallowing the next append. A torn event line
//!   is undecodable and quarantined; a torn checkpoint (any line that
//!   begins like one) is ignored, and the previous checkpoint wins.
//! * **After a seal, before its checkpoint.** The tail holds the line
//!   that crossed the watermark; replay seals there again, so verdicts
//!   stay at-least-once.
//! * **Compaction.** The snapshot rotation protocol documented on
//!   [`elle_history::snapshot_from_str`]'s module: the old snapshot and
//!   journal, or the new snapshot and an empty journal, never a mix.

use elle_history::{event_from_json, event_to_json, snapshot_from_str, snapshot_to_string};
use elle_history::{Event, SnapshotMeta};
use elle_stream::WindowPolicy;
use serde::{Deserialize, Serialize};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// A tenant's counters at one point of its journal: everything a
/// restart needs beyond the events before that point. Fixed-size, so a
/// checkpoint costs the same at every seal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Epoch ordinal (the next seal's number).
    pub epoch: usize,
    /// Events quarantined since the tenant started, decode-level
    /// (undecodable lines) and pairing-level together.
    pub quarantined: usize,
    /// Events ingested since the last seal (the partial epoch).
    pub events_this_epoch: usize,
    /// Transactions the checker admitted since the last seal
    /// (`StreamChecker::txns_this_epoch`).
    pub txns_since_seal: usize,
    /// Soft-rung forced-seal count.
    pub budget_seals: usize,
    /// Hard-rung tightening count.
    pub forced_window: usize,
    /// Soft-rung edge-trigger latch.
    pub over_soft: bool,
    /// The budget ladder's resident-byte figure (0 without a budget).
    /// Part of it is state a checker builds at seals, which a restored
    /// checker lacks until its first seal.
    #[serde(default)]
    pub resident_bytes: usize,
    /// Hard-rung latch: its last seal retired nothing, and no seal has
    /// retired anything since. Written only when set.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub hard_spent: bool,
    /// The retirement policy, when it must outlive a restart: set once
    /// the policy is bounded or anything has retired, as a snapshot
    /// carries it; `None` lets the service's configured window apply.
    pub window: Option<WindowPolicy>,
}

/// The journal form of a [`Checkpoint`].
#[derive(Serialize, Deserialize)]
struct CheckpointLine {
    checkpoint: Checkpoint,
}

/// How every checkpoint line begins. No event line or undecodable
/// sentinel begins this way.
const CHECKPOINT_TAG: &str = "{\"checkpoint\":";

/// The journal form of a line whose event body did not decode: it
/// fails event decoding again on replay, so the quarantine gauge
/// reproduces, and it carries the decoder's message, so a strict
/// tenant fails again for the live reason.
#[derive(Serialize, Deserialize)]
struct Undecodable {
    undecodable: String,
}

/// One journal line, decoded.
#[derive(Debug)]
pub(crate) enum JournalLine {
    /// An accepted event.
    Event(Event),
    /// A line that is not an event, with the message it fails with.
    Undecodable(String),
    /// A checkpoint record, or the torn start of one.
    Checkpoint,
}

impl JournalLine {
    /// Classify one journal line (without its newline).
    pub(crate) fn decode(line: &str) -> JournalLine {
        if !line.is_empty()
            && (line.starts_with(CHECKPOINT_TAG) || CHECKPOINT_TAG.starts_with(line))
        {
            return JournalLine::Checkpoint;
        }
        match event_from_json(line) {
            Ok(ev) => JournalLine::Event(ev),
            Err(e) => JournalLine::Undecodable(
                serde_json::from_str::<Undecodable>(line)
                    .map_or_else(|_| e.to_string(), |u| u.undecodable),
            ),
        }
    }
}

/// What [`TenantStore::open`] found on disk for one tenant.
#[derive(Debug, Default)]
pub struct Restored {
    /// The parsed snapshot, if one was on disk.
    pub snapshot: Option<(SnapshotMeta, Vec<Event>)>,
    /// The surviving journal's bytes; every line, the last included,
    /// ends in a newline.
    pub journal: String,
    /// The journal's last intact checkpoint, with the byte offset just
    /// past its line: `journal[..offset]` is what it covers, the rest
    /// is the tail to replay through the live path.
    pub checkpoint: Option<(usize, Checkpoint)>,
}

/// One tenant's open snapshot/journal/verdict files.
#[derive(Debug)]
pub struct TenantStore {
    dir: PathBuf,
    journal: File,
    journal_seq: u64,
    verdicts: File,
    /// The line being written, reused so that each append is one
    /// `write` and an event's costs no allocation.
    line: String,
}

fn journal_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("journal.{seq}.ndjson"))
}

/// Parse `journal.<seq>.ndjson` back into its sequence number.
fn journal_seq_of(name: &str) -> Option<u64> {
    name.strip_prefix("journal.")?
        .strip_suffix(".ndjson")?
        .parse()
        .ok()
}

/// The last checkpoint line of a newline-terminated journal that
/// parses whole, and the offset just past it.
fn last_checkpoint(journal: &str) -> Option<(usize, Checkpoint)> {
    let mut end = journal.len();
    while let Some(start) = journal[..end].rfind(CHECKPOINT_TAG) {
        end = start;
        if start > 0 && journal.as_bytes()[start - 1] != b'\n' {
            continue;
        }
        let len = journal[start..].find('\n')?;
        if let Ok(line) = serde_json::from_str::<CheckpointLine>(&journal[start..start + len]) {
            return Some((start + len + 1, line.checkpoint));
        }
    }
    None
}

/// Render one line into the reused buffer `line`, terminate it, and
/// write it to `file` with one `write`; returns the bytes written.
fn write_line(
    file: &mut File,
    line: &mut String,
    render: impl FnOnce(&mut String),
) -> io::Result<usize> {
    line.clear();
    render(line);
    line.push('\n');
    file.write_all(line.as_bytes())?;
    Ok(line.len())
}

impl TenantStore {
    /// Open (or create) a tenant directory, cleaning up any torn
    /// rotation, terminating a torn last journal line, and returning
    /// whatever state survives for replay. A snapshot that fails to
    /// parse is an error — the caller decides whether to fail the
    /// tenant or start it fresh — but a missing snapshot or journal is
    /// just an empty [`Restored`].
    pub fn open(dir: PathBuf) -> io::Result<(TenantStore, Restored)> {
        fs::create_dir_all(&dir)?;
        // A leftover snapshot.tmp is a rotation that never committed.
        let _ = fs::remove_file(dir.join("snapshot.tmp"));

        let mut restored = Restored::default();
        let snap_path = dir.join("snapshot.ndjson");
        if let Ok(raw) = fs::read_to_string(&snap_path) {
            let parsed = snapshot_from_str(&raw).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: {e}", snap_path.display()),
                )
            })?;
            restored.snapshot = Some(parsed);
        }
        let journal_seq = restored
            .snapshot
            .as_ref()
            .map_or(0, |(meta, _)| meta.journal_seq);

        // Keep only the journal the snapshot names; every other
        // sequence number is either folded into the snapshot already or
        // part of a rotation that never committed.
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(seq) = journal_seq_of(name) {
                if seq != journal_seq {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        let jpath = journal_path(&dir, journal_seq);
        // A torn write can split a character: its line becomes
        // undecodable, not the whole journal unreadable.
        let raw = fs::read(&jpath).unwrap_or_default();
        restored.journal = String::from_utf8(raw)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
        let mut journal = OpenOptions::new().create(true).append(true).open(&jpath)?;
        if !restored.journal.is_empty() && !restored.journal.ends_with('\n') {
            journal.write_all(b"\n")?;
            restored.journal.push('\n');
        }
        restored.checkpoint = last_checkpoint(&restored.journal);
        let verdicts = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("verdicts.ndjson"))?;
        Ok((
            TenantStore {
                dir,
                journal,
                journal_seq,
                verdicts,
                line: String::new(),
            },
            restored,
        ))
    }

    /// Append one accepted event to the write-ahead journal and return
    /// the bytes written. The write reaches the kernel before this
    /// returns, so a killed process loses nothing it acknowledged
    /// ingesting.
    pub fn append_event(&mut self, ev: &Event) -> io::Result<usize> {
        write_line(&mut self.journal, &mut self.line, |s| event_to_json(ev, s))
    }

    /// Append the sentinel for a line whose event body did not decode,
    /// carrying the decoder's message; returns the bytes written.
    pub fn append_undecodable(&mut self, message: &str) -> io::Result<usize> {
        let sentinel = Undecodable {
            undecodable: message.to_string(),
        };
        write_line(&mut self.journal, &mut self.line, |s| {
            s.push_str(&serde_json::to_string(&sentinel).expect("strings serialize"));
        })
    }

    /// Append a checkpoint record and `fsync` the journal, making it
    /// and every line before it durable.
    pub fn append_checkpoint(&mut self, checkpoint: &Checkpoint) -> io::Result<()> {
        let record = CheckpointLine {
            checkpoint: *checkpoint,
        };
        write_line(&mut self.journal, &mut self.line, |s| {
            s.push_str(&serde_json::to_string(&record).expect("checkpoints serialize"));
        })?;
        self.journal.sync_data()
    }

    /// Append one verdict envelope line (best-effort audit trail; a
    /// crash between a seal and its checkpoint repeats the line on
    /// replay — verdict emission is at-least-once).
    pub fn append_verdict(&mut self, verdict: &str) -> io::Result<()> {
        write_line(&mut self.verdicts, &mut self.line, |s| s.push_str(verdict)).map(drop)
    }

    /// Compact: write a new snapshot atomically, start a fresh journal,
    /// and delete the old one (its events are inside the snapshot).
    pub fn rotate(&mut self, mut meta: SnapshotMeta, events: &[Event]) -> io::Result<()> {
        let new_seq = self.journal_seq + 1;
        meta.journal_seq = new_seq;
        let tmp = self.dir.join("snapshot.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(snapshot_to_string(&meta, events).as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.dir.join("snapshot.ndjson"))?;
        self.journal = File::create(journal_path(&self.dir, new_seq))?;
        let _ = fs::remove_file(journal_path(&self.dir, self.journal_seq));
        self.journal_seq = new_seq;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("elle_serve_store_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn lines(restored: &Restored) -> Vec<&str> {
        restored.journal.lines().collect()
    }

    fn checkpoint(epoch: usize) -> Checkpoint {
        Checkpoint {
            epoch,
            quarantined: 1,
            events_this_epoch: 2,
            txns_since_seal: 3,
            budget_seals: 4,
            forced_window: 5,
            over_soft: true,
            resident_bytes: 123_456,
            hard_spent: true,
            window: Some(WindowPolicy::TxnCount(8000)),
        }
    }

    #[test]
    fn journals_survive_reopen_and_rotation_cleans_up() {
        let dir = tmp_dir("rotate");
        let (mut store, restored) = TenantStore::open(dir.clone()).unwrap();
        assert!(restored.snapshot.is_none());
        assert!(restored.journal.is_empty());
        store.append_undecodable("a1").unwrap();
        store.append_undecodable("a2").unwrap();
        drop(store);

        // Reopen: the journal lines are back.
        let (mut store, restored) = TenantStore::open(dir.clone()).unwrap();
        assert_eq!(
            lines(&restored),
            vec!["{\"undecodable\":\"a1\"}", "{\"undecodable\":\"a2\"}"]
        );

        // Rotate: empty snapshot meta, journal resets.
        store.rotate(SnapshotMeta::new(0, 3, 1, 2, 1), &[]).unwrap();
        store.append_undecodable("a3").unwrap();
        drop(store);
        let (_, restored) = TenantStore::open(dir.clone()).unwrap();
        let (meta, events) = restored.snapshot.as_ref().unwrap();
        assert_eq!((meta.epoch, meta.journal_seq), (3, 1));
        assert!(events.is_empty());
        assert_eq!(lines(&restored), vec!["{\"undecodable\":\"a3\"}"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_journals_and_tmp_snapshots_are_discarded() {
        let dir = tmp_dir("stale");
        fs::create_dir_all(&dir).unwrap();
        // A rotation that crashed between steps: tmp present, stale
        // journal from a sequence the (absent) snapshot doesn't name.
        fs::write(dir.join("snapshot.tmp"), "{garbage").unwrap();
        fs::write(dir.join("journal.7.ndjson"), "{\"a\":1}\n").unwrap();
        let (_, restored) = TenantStore::open(dir.clone()).unwrap();
        assert!(restored.snapshot.is_none());
        assert!(restored.journal.is_empty(), "{restored:?}");
        assert!(!dir.join("snapshot.tmp").exists());
        assert!(!dir.join("journal.7.ndjson").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_is_an_error_not_a_silent_reset() {
        let dir = tmp_dir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("snapshot.ndjson"), "{torn\n").unwrap();
        let err = TenantStore::open(dir.clone()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A torn last line stays its own line: the next append must not
    /// be glued onto it, on this restart or any later one.
    #[test]
    fn a_torn_tail_is_terminated_before_the_next_append() {
        let dir = tmp_dir("torn_tail");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("journal.0.ndjson"), "A\nB").unwrap();
        let (mut store, restored) = TenantStore::open(dir.clone()).unwrap();
        assert_eq!(lines(&restored), vec!["A", "B"]);
        store.append_undecodable("C").unwrap();
        drop(store);
        let (_, restored) = TenantStore::open(dir.clone()).unwrap();
        assert_eq!(lines(&restored), vec!["A", "B", "{\"undecodable\":\"C\"}"]);
        assert_eq!(
            fs::read_to_string(dir.join("journal.0.ndjson")).unwrap(),
            "A\nB\n{\"undecodable\":\"C\"}\n"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_last_intact_checkpoint_wins() {
        let dir = tmp_dir("checkpoints");
        let (mut store, _) = TenantStore::open(dir.clone()).unwrap();
        store.append_undecodable("e1").unwrap();
        store.append_checkpoint(&checkpoint(1)).unwrap();
        store.append_undecodable("e2").unwrap();
        store.append_checkpoint(&checkpoint(2)).unwrap();
        drop(store);
        let path = dir.join("journal.0.ndjson");
        let full = fs::read_to_string(&path).unwrap();
        let (_, restored) = TenantStore::open(dir.clone()).unwrap();
        assert_eq!(restored.checkpoint, Some((full.len(), checkpoint(2))));

        // Every torn form of the last record falls back to the first,
        // and decodes as a checkpoint line, never as an event.
        let first_end = full.find("{\"undecodable\":\"e2\"}").unwrap();
        let last_start = full[..full.len() - 1].rfind('\n').unwrap() + 1;
        for cut in last_start + 1..full.len() - 1 {
            fs::write(&path, &full[..cut]).unwrap();
            let (_, restored) = TenantStore::open(dir.clone()).unwrap();
            assert_eq!(
                restored.checkpoint,
                Some((first_end, checkpoint(1))),
                "cut at {cut}"
            );
            let torn = restored.journal.lines().last().unwrap();
            assert!(
                matches!(JournalLine::decode(torn), JournalLine::Checkpoint),
                "{torn}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_lines_decode_by_kind() {
        let cp = serde_json::to_string(&CheckpointLine {
            checkpoint: checkpoint(7),
        })
        .unwrap();
        assert!(cp.starts_with(CHECKPOINT_TAG));
        assert!(cp.len() < 512, "{cp}");
        assert!(event_from_json(&cp).is_err());
        assert!(serde_json::from_str::<Undecodable>(&cp).is_err());
        assert!(matches!(JournalLine::decode(&cp), JournalLine::Checkpoint));
        let ev = "{\"index\":0,\"process\":0,\"kind\":\"Invoke\",\"mops\":[],\"time_ns\":null}";
        assert!(matches!(JournalLine::decode(ev), JournalLine::Event(_)));
        match JournalLine::decode("{\"undecodable\":\"bad kind\"}") {
            JournalLine::Undecodable(m) => assert_eq!(m, "bad kind"),
            other => panic!("{other:?}"),
        }
        // The parent format's boolean sentinel replays with the event
        // decoder's own message.
        assert!(matches!(
            JournalLine::decode("{\"undecodable\":true}"),
            JournalLine::Undecodable(_)
        ));
    }
}

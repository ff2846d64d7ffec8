//! Multi-tenant chaos client plans for `elle-serve`'s test suite.
//!
//! A [`ChaosSession`] is one tenant's deterministic torture script: the
//! tenant-tagged wire lines to send (optionally damaged by a
//! [`FaultSchedule`]) plus seeded *cut points* — places where the
//! client connection is killed mid-line and the client reconnects and
//! resends **from the start**. Resend-from-start is the deliberately
//! naive client: the service's index-regression duplicate absorption
//! must make it converge to the same verdict anyway.
//!
//! Everything is a pure function of its seeds, so a failing schedule
//! replays exactly. [`drive`] is transport-generic (any
//! `io::Write` factory: an in-process submit shim, a `TcpStream`, a
//! child's stdin), so the same plans can run against the in-process
//! [`Server`](https://docs.rs/elle-serve) engine, as
//! `tests/serve_suite.rs` runs them, or against the real binary.

use crate::faults::{FaultLog, FaultSchedule};
use elle_history::{events_to_ndjson, EventLog};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Write};

/// A point where the client connection dies: after writing `byte`
/// bytes of line `line` (a mid-line tear — the service sees a torn
/// final line, which must not reach its checker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cut {
    /// Index of the line being written when the connection dies.
    pub line: usize,
    /// How many bytes of that line made it out.
    pub byte: usize,
}

/// One tenant's deterministic chaos script.
#[derive(Debug, Clone)]
pub struct ChaosSession {
    /// The tenant id every line is tagged with.
    pub tenant: String,
    /// Tenant-tagged wire lines (no trailing newline). Lines the fault
    /// schedule tore or corrupted may be undecodable — the service
    /// rejects or quarantines them, attributed to this tenant.
    pub lines: Vec<String>,
    /// Sorted connection cuts. Attempt `k` sends lines `0..cuts[k].line`
    /// plus a prefix of the cut line, then dies; the final attempt
    /// resends everything from line 0.
    pub cuts: Vec<Cut>,
    /// What the fault schedule injected into the wire.
    pub faults: FaultLog,
}

/// Build one tenant's chaos script from a clean event log: damage the
/// wire under `schedule`, tag every line with the tenant, and pick
/// `kills` seeded cut points.
pub fn chaos_session(
    tenant: &str,
    log: &EventLog,
    schedule: &FaultSchedule,
    kills: usize,
    seed: u64,
) -> ChaosSession {
    let (wire, faults) = if schedule.is_none() {
        (events_to_ndjson(log), FaultLog::default())
    } else {
        schedule.apply(log)
    };
    let lines: Vec<String> = wire
        .lines()
        .map(|l| format!("{{\"tenant\":\"{tenant}\",\"event\":{l}}}"))
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_c0de);
    let mut cuts: Vec<Cut> = (0..kills)
        .filter(|_| !lines.is_empty())
        .map(|_| {
            let line = rng.gen_range(0..lines.len());
            let byte = rng.gen_range(0..=lines[line].len());
            Cut { line, byte }
        })
        .collect();
    cuts.sort_unstable_by_key(|c| (c.line, c.byte));
    ChaosSession {
        tenant: tenant.to_string(),
        lines,
        cuts,
        faults,
    }
}

/// The exact line sequence a server sees from [`drive`]: for each cut
/// attempt, the complete lines before the cut plus the (possibly
/// truncated, possibly complete) final fragment the connection tore —
/// a line reader at EOF still surfaces an unterminated fragment — then
/// the full resend. Feeding these through a single-tenant oracle must
/// reproduce the served verdict byte for byte.
pub fn delivered_lines(session: &ChaosSession) -> Vec<String> {
    let mut out = Vec::new();
    for cut in &session.cuts {
        out.extend(session.lines[..cut.line].iter().cloned());
        let frag = &session.lines[cut.line][..cut.byte];
        if !frag.is_empty() {
            out.push(frag.to_string());
        }
    }
    out.extend(session.lines.iter().cloned());
    out
}

/// Drive one session against a transport. `connect` is called once per
/// attempt (cut count + 1); each connection receives the script from
/// line 0 — full resend — up to its cut, and the final connection
/// delivers everything. Dropping a connection is its kill; the cut
/// line's torn prefix is the last thing written to it. Returns the
/// number of connections made.
pub fn drive<W, F>(session: &ChaosSession, mut connect: F) -> io::Result<usize>
where
    W: Write,
    F: FnMut(usize) -> io::Result<W>,
{
    let mut attempts = 0;
    for cut in &session.cuts {
        let mut conn = connect(attempts)?;
        attempts += 1;
        // Writes after a kill may fail; the chaos client shrugs.
        let _ = (|| -> io::Result<()> {
            for line in &session.lines[..cut.line] {
                conn.write_all(line.as_bytes())?;
                conn.write_all(b"\n")?;
            }
            conn.write_all(&session.lines[cut.line].as_bytes()[..cut.byte])?;
            conn.flush()
        })();
        // Dropping the connection mid-line is the kill.
    }
    let mut conn = connect(attempts)?;
    attempts += 1;
    for line in &session.lines {
        conn.write_all(line.as_bytes())?;
        conn.write_all(b"\n")?;
    }
    conn.flush()?;
    Ok(attempts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elle_history::HistoryBuilder;

    fn small_log() -> EventLog {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).commit();
        b.txn(1).read_list(1, [1]).commit();
        let h = b.build();
        elle_history::events_from_ndjson(&elle_history::history_to_ndjson(&h)).unwrap()
    }

    #[test]
    fn sessions_are_deterministic_and_tagged() {
        let log = small_log();
        let a = chaos_session("t0", &log, &FaultSchedule::none(), 2, 7);
        let b = chaos_session("t0", &log, &FaultSchedule::none(), 2, 7);
        assert_eq!(a.lines, b.lines);
        assert_eq!(a.cuts, b.cuts);
        assert_eq!(a.cuts.len(), 2);
        assert!(a
            .lines
            .iter()
            .all(|l| l.starts_with("{\"tenant\":\"t0\",\"event\":{")));
        assert_eq!(a.lines.len(), log.len());
    }

    #[test]
    fn drive_makes_one_connection_per_cut_plus_final() {
        use std::cell::RefCell;
        use std::rc::Rc;

        let log = small_log();
        let session = chaos_session("t0", &log, &FaultSchedule::none(), 3, 1);
        let streams: Rc<RefCell<Vec<Vec<u8>>>> = Rc::default();
        let attempts = drive(&session, |_| {
            streams.borrow_mut().push(Vec::new());
            Ok(WriterShim(streams.borrow().len() - 1, Rc::clone(&streams)))
        })
        .unwrap();
        assert_eq!(attempts, 4);
        let mut streams = Rc::try_unwrap(streams).unwrap().into_inner();
        assert_eq!(streams.len(), 4);
        let full: String = session
            .lines
            .iter()
            .flat_map(|l| [l.as_str(), "\n"])
            .collect();
        assert_eq!(String::from_utf8(streams.pop().unwrap()).unwrap(), full);
        for (k, s) in streams.iter().enumerate() {
            let cut = session.cuts[k];
            let mut want: String = session.lines[..cut.line]
                .iter()
                .flat_map(|l| [l.as_str(), "\n"])
                .collect();
            want.push_str(&session.lines[cut.line][..cut.byte]);
            assert_eq!(String::from_utf8_lossy(s), want);
        }
    }

    /// A Write shim appending into one slot of a shared buffer list —
    /// `drive` wants an owned writer per attempt.
    struct WriterShim(usize, std::rc::Rc<std::cell::RefCell<Vec<Vec<u8>>>>);
    impl Write for WriterShim {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.1.borrow_mut()[self.0].extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
}

//! Streaming command-line checker: ingest an NDJSON event stream (file
//! or stdin, optionally tailed as it grows), seal epochs on txn-count /
//! event-count / wall-clock watermarks, and emit one verdict per epoch
//! — each byte-identical to what `elle-check` would report on the
//! prefix ingested so far.
//!
//! ```sh
//! elle-gen … | elle-stream - --epoch-txns 1000 --json
//! elle-stream events.ndjson --model snapshot-isolation --process --realtime
//! elle-stream --gen 5000                # live simulated workload (demo)
//! elle-stream events.ndjson --follow --epoch-ms 500 --max-epoch-ms 2000
//! elle-stream damaged.ndjson --quarantine  # salvage what can be salvaged
//! ```
//!
//! Exit status: 0 when the final epoch satisfies the expected model,
//! 1 when violated, 2 on usage or input errors, 3 when the final epoch
//! was poisoned by an internal checker error.

use elle::cli::{self, read_line_capped, Args, Cli, LineRead, Status, Stop};
use elle::history::{decode_event_line, IngestCause, IngestError, RecoveryPolicy, SourcePos};
use elle::prelude::*;
use elle::stream::{EpochPolicy, EpochReport, Gauges, StreamChecker, WindowPolicy};
use std::io::{self, BufRead, BufReader};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Deterministic backoff jitter (SplitMix64 finalizer): no RNG state,
/// just a hash of the attempt counter.
fn jitter_ms(attempt: u32, cap: u64) -> u64 {
    let mut z = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(attempt) + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % cap.max(1)
}

const CLI: Cli = Cli {
    about: "\
usage: elle-stream [<events.ndjson> | -] [options]

Ingest an NDJSON event stream (one invoke/ok/fail/info event per line),
sealing an epoch — and printing a full-prefix verdict — at each watermark.",
    options: "\
--epoch-txns <n>   seal every n transactions (default 1000)
--epoch-events <n> seal every n events
--epoch-ms <ms>    also seal when this much wall time has passed
--max-epoch-ms <ms>  force a seal when an epoch stays open this long,
                   even mid-watermark; checked, like --epoch-ms, after
                   every line, blank ones included, or (--follow on a
                   file) after each 50 ms poll at end of file, so a
                   producer that stalls without closing its pipe holds
                   the epoch until its next line
--follow           keep reading as the file grows (tail -f)
--retries <n>      bounded retries (exponential backoff + jitter) on
                   read errors in --follow mode (default 5)
--max-buffered-bytes <n>  abandon any single line larger than this
--quarantine       salvage damaged input: skip undecodable or misordered
                   lines, adopt orphan completions, abandon overlapping
                   invocations (one stderr diagnostic each)
--gen <n>          check a generated n-txn live workload instead of a file
--window-txns <n>  bounded memory: retire provably cycle-safe
                   transactions beyond the most recent n
--window-bytes <n> bounded memory: retire down toward an n-byte
                   resident budget (checker state, not input)
--json             one JSON object per epoch on stdout
--timing           per-epoch stage breakdown on stderr",
    exit_notes: "\
The status is the final epoch's; 3 means its seal was poisoned by an
internal checker error.",
};

/// Print one sealed epoch, with the seals the stalled-epoch watchdog
/// forced so far among its gauges.
fn emit(epoch: &EpochReport, as_json: bool, timing: bool, forced_seals: usize) {
    if as_json {
        // One self-contained JSON line per epoch; `report` is the full
        // batch-identical report object, after the gauges that appear
        // only when set (a poisoned epoch's `ok` is null).
        let mut gauges = String::new();
        Gauges {
            forced_seals,
            ..epoch.gauges()
        }
        .write(&mut gauges);
        println!(
            "{{\"epoch\":{},\"txns\":{},\"events\":{},\"ok\":{},\"rebuilt\":{},\"open_txns\":{}{gauges},\"report\":{}}}",
            epoch.epoch,
            epoch.txns,
            epoch.events,
            epoch.ok_json(),
            epoch.rebuilt,
            epoch.frontier.open_txns,
            serde_json::to_string(&epoch.report).expect("report serializes"),
        );
    } else {
        let r = &epoch.report;
        if let Some(msg) = &epoch.poisoned {
            println!(
                "epoch {:>4}: {:>7} txns ({:>5} new events), POISONED — {msg}",
                epoch.epoch, epoch.txns, epoch.events,
            );
        } else {
            println!(
                "epoch {:>4}: {:>7} txns ({:>5} new events), {} anomalies, {} — {}",
                epoch.epoch,
                epoch.txns,
                epoch.events,
                r.anomalies.len(),
                if r.ok() { "ok" } else { "VIOLATED" },
                if epoch.rebuilt {
                    "rebuilt"
                } else {
                    "incremental"
                },
            );
        }
        for (t, n) in &r.anomaly_counts {
            println!("    {t}: {n}");
        }
    }
    if timing {
        let (resident, retired) = epoch
            .window
            .map_or((0, 0), |w| (w.resident_bytes, w.retired_txns));
        eprintln!("epoch {} timing:", epoch.epoch);
        eprint!(
            "{}",
            epoch.timings.render(&[
                ("quarantined", epoch.frontier.quarantined_events, "events"),
                ("forced seals", forced_seals, "seals"),
                ("resident", resident, "bytes"),
                ("retired", retired, "txns"),
            ])
        );
    }
}

/// Everything `run_reader` needs beyond the reader itself.
struct ReaderConfig {
    follow: bool,
    policy: EpochPolicy,
    opts: CheckOptions,
    as_json: bool,
    timing: bool,
    recovery: RecoveryPolicy,
    /// Force a seal when an epoch has stayed open this long.
    max_epoch: Option<Duration>,
    /// Abandon any single line that grows past this many bytes.
    max_line_bytes: Option<usize>,
    /// Bounded retries on read errors in follow mode.
    retries: u32,
    /// Test hook: panic inside the seal of this epoch ordinal.
    inject_seal_panic: Option<usize>,
    /// Bounded-memory retirement policy.
    window: WindowPolicy,
}

/// What [`Lines::next`] found.
enum Next<'a> {
    /// End of input (in follow mode: for now).
    Eof,
    /// A complete line and where it starts.
    Line(&'a str, SourcePos),
    /// An over-budget line, already discarded, and where it starts.
    Oversized(SourcePos),
}

/// The lines of an NDJSON source under a byte budget, with positions.
/// In follow mode a line still being written is kept across EOF polls.
/// An over-budget line is reported once and skipped to its newline; its
/// bytes still count toward later offsets.
struct Lines<'a> {
    reader: &'a mut dyn BufRead,
    follow: bool,
    cap: usize,
    line: Vec<u8>,
    /// Follow mode: the start of a line still being written.
    partial: Vec<u8>,
    /// Inside an over-budget line that was already reported.
    skipping: bool,
    /// Lines completed so far.
    lineno: usize,
    /// Bytes consumed so far.
    consumed: usize,
}

impl Lines<'_> {
    fn next(&mut self) -> io::Result<Next<'_>> {
        loop {
            let pos = SourcePos {
                line: self.lineno + 1,
                byte: self.consumed - self.partial.len(),
            };
            let room = self.cap.saturating_sub(self.partial.len());
            let (n, ended) = match read_line_capped(self.reader, &mut self.line, room)? {
                LineRead::Eof => return Ok(Next::Eof),
                LineRead::Line { ended } => (self.line.len() + usize::from(ended), ended),
                LineRead::Oversized { bytes, ended } => (bytes + usize::from(ended), ended),
            };
            self.consumed += n;
            if self.skipping || self.partial.len() + n > self.cap {
                // An over-budget line: reported once, then skipped up to
                // its newline, which may arrive on a later poll.
                let report = !self.skipping;
                self.partial.clear();
                self.skipping = !ended;
                self.lineno += usize::from(ended);
                if report {
                    return Ok(Next::Oversized(pos));
                }
                continue;
            }
            if !ended && self.follow {
                // A producer is mid-write on this line; wait for the rest
                // rather than mis-parsing a truncated event.
                self.partial.extend_from_slice(&self.line);
                continue;
            }
            self.lineno += 1;
            if !self.partial.is_empty() {
                self.partial.extend_from_slice(&self.line);
                std::mem::swap(&mut self.partial, &mut self.line);
                self.partial.clear();
            }
            let text = std::str::from_utf8(&self.line).map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    "stream did not contain valid UTF-8",
                )
            })?;
            return Ok(Next::Line(text, pos));
        }
    }
}

/// Seal (guarded) and emit.
fn seal_and_emit(
    checker: &mut StreamChecker,
    cfg: &ReaderConfig,
    forced_seals: usize,
) -> EpochReport {
    let epoch = checker.seal_epoch_guarded();
    emit(&epoch, cfg.as_json, cfg.timing, forced_seals);
    epoch
}

fn run_reader(reader: &mut dyn BufRead, cfg: &ReaderConfig) -> Result<EpochReport, String> {
    let mut checker = StreamChecker::with_window(cfg.opts, cfg.window);
    if let Some(e) = cfg.inject_seal_panic {
        checker.inject_seal_panic(e);
    }
    let cap = cfg.max_line_bytes.unwrap_or(usize::MAX);
    let mut lines = Lines {
        reader,
        follow: cfg.follow,
        cap,
        line: Vec::new(),
        partial: Vec::new(),
        skipping: false,
        lineno: 0,
        consumed: 0,
    };
    let mut since_seal = Instant::now();
    let mut attempts = 0u32;
    let mut forced_seals = 0usize;
    loop {
        let next = match lines.next() {
            Ok(next) => {
                attempts = 0;
                next
            }
            Err(e) if cfg.follow && attempts < cfg.retries => {
                // Transient source errors (rotating file, flaky mount):
                // bounded exponential backoff with deterministic jitter.
                attempts += 1;
                let base = 50u64 << attempts.min(6);
                let wait = base + jitter_ms(attempts, base / 2);
                eprintln!(
                    "read error: {e}; retry {attempts}/{} in {wait} ms",
                    cfg.retries
                );
                std::thread::sleep(Duration::from_millis(wait));
                continue;
            }
            Err(e) => return Err(format!("read error: {e}")),
        };
        let skipped = match next {
            Next::Eof if !cfg.follow => break,
            Next::Eof => {
                std::thread::sleep(Duration::from_millis(50));
                None
            }
            Next::Oversized(pos) => {
                let cause = IngestCause::Oversized { limit: cap };
                Some(IngestError { pos, cause })
            }
            Next::Line(text, pos) => match decode_event_line(text, pos) {
                Ok(None) => None,
                Ok(Some(ev)) => {
                    match checker.ingest_owned(ev, cfg.recovery) {
                        Err(e) => return Err(IngestError::from_pairing(pos, e).to_string()),
                        Ok(recovered) => {
                            if let Some(d) = recovered.diagnostic(pos) {
                                eprintln!("quarantined: {d}");
                            }
                        }
                    }
                    None
                }
                Err(err) => Some(err),
            },
        };
        if let Some(err) = skipped {
            if cfg.recovery == RecoveryPolicy::Strict {
                return Err(err.to_string());
            }
            eprintln!("quarantined: {err} — line skipped");
            checker.quarantine_line();
        }
        // Seal when events are pending and a watermark fired or the
        // epoch has stayed open longer than --max-epoch-ms.
        let (txns, events) = (checker.txns_this_epoch(), checker.events_this_epoch());
        let due = cfg.policy.should_seal(txns, events, since_seal);
        let forced = cfg.max_epoch.is_some_and(|m| since_seal.elapsed() >= m);
        if (due || forced) && events > 0 {
            if !due {
                forced_seals += 1;
            }
            seal_and_emit(&mut checker, cfg, forced_seals);
            since_seal = Instant::now();
        }
    }
    // Final seal at end of stream.
    Ok(seal_and_emit(&mut checker, cfg, forced_seals))
}

fn main() -> ExitCode {
    elle::serve::signal::default_sigpipe();
    CLI.run(run)
}

fn run(args: &mut Args) -> Result<Status, Stop> {
    let mut path: Option<String> = None;
    let mut gen_txns: Option<usize> = None;
    let mut cfg = ReaderConfig {
        follow: false,
        policy: EpochPolicy {
            txns: None,
            events: None,
            wall: None,
        },
        opts: CheckOptions::strict_serializable()
            .with_process_edges(false)
            .with_realtime_edges(false),
        as_json: false,
        timing: false,
        recovery: RecoveryPolicy::Strict,
        max_epoch: None,
        max_line_bytes: None,
        retries: 5,
        inject_seal_panic: None,
        window: WindowPolicy::Unbounded,
    };

    while let Some(a) = args.next() {
        match a.as_str() {
            "--epoch-txns" => cfg.policy.txns = Some(args.parse::<usize>()?.max(1)),
            "--epoch-events" => cfg.policy.events = Some(args.parse::<usize>()?.max(1)),
            "--epoch-ms" => cfg.policy.wall = Some(Duration::from_millis(args.parse()?)),
            "--gen" => gen_txns = Some(args.parse()?),
            "--max-epoch-ms" => cfg.max_epoch = Some(Duration::from_millis(args.parse()?)),
            "--max-buffered-bytes" => cfg.max_line_bytes = Some(args.parse()?),
            "--retries" => cfg.retries = args.parse()?,
            // Undocumented test hook: panic inside the seal of epoch N,
            // to exercise poisoned-epoch isolation end to end.
            "--inject-seal-panic" => cfg.inject_seal_panic = Some(args.parse()?),
            "--window-txns" => cfg.window = WindowPolicy::TxnCount(args.parse()?),
            "--window-bytes" => cfg.window = WindowPolicy::Bytes(args.parse()?),
            "--follow" => cfg.follow = true,
            "--quarantine" => cfg.recovery = RecoveryPolicy::Quarantine,
            "--json" => cfg.as_json = true,
            "--timing" => cfg.timing = true,
            "--help" | "-h" => return Err(Stop::Help),
            flag if cli::check_flag(flag, args, &mut cfg.opts)? => {}
            other if path.is_none() && (other == "-" || !other.starts_with('-')) => {
                path = Some(other.to_string());
            }
            other => return Err(Stop::unrecognized(other)),
        }
    }

    // Watermarks compose with *or*; default to a 1000-txn epoch when
    // none was given.
    let p = &cfg.policy;
    if p.txns.is_none() && p.events.is_none() && p.wall.is_none() {
        cfg.policy = EpochPolicy::every_txns(1000);
    }

    if let Some(n) = gen_txns {
        // Live mode: generate a workload against the simulator and
        // check it as it runs.
        let params = GenParams::paper_perf(n).with_seed(0xE11E);
        let db = DbConfig::new(IsolationLevel::Serializable, ObjectKind::ListAppend)
            .with_processes(8)
            .with_seed(0xE11E);
        let last = elle::stream::run_live(params, db, cfg.policy, cfg.opts, cfg.window, |e| {
            emit(e, cfg.as_json, cfg.timing, 0)
        });
        return Ok(Status::epoch(&last));
    }

    let Some(path) = path else {
        return Err(Stop::Usage(None));
    };
    let mut reader: Box<dyn BufRead> = if path == "-" {
        Box::new(BufReader::new(std::io::stdin()))
    } else {
        let f = std::fs::File::open(&path)
            .map_err(|e| Stop::Input(format!("cannot read {path}: {e}")))?;
        Box::new(BufReader::new(f))
    };

    let last = run_reader(&mut *reader, &cfg).map_err(Stop::Input)?;
    Ok(Status::epoch(&last))
}

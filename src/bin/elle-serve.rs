//! Resident multi-tenant checking service: many independent streaming
//! checkers — one per tenant history — behind one process, with
//! admission control, per-tenant fault isolation, watchdog seals,
//! graceful drain, and crash-consistent recovery from a data directory.
//!
//! ```sh
//! elle-serve --data-dir /var/lib/elle < tagged-events.ndjson
//! elle-serve --listen 127.0.0.1:7199 --data-dir /var/lib/elle
//! ```
//!
//! The wire protocol is NDJSON both ways; every request line is either
//! a tenant-tagged event (`{"tenant":"t1","event":{…}}`) or an op
//! (`seal`, `status`, `close`, `shutdown`). See the README's "Service
//! mode" section.
//!
//! Exit status: 0 when every tenant's final verdict satisfies the
//! expected model, 1 when any is violated, 2 on usage errors or failed
//! (strict-mode) tenants, 3 when any final epoch was poisoned.

use elle::cli::{self, read_line_capped, Args, Cli, LineRead, Status, Stop};
use elle::serve::{signal, ServeConfig, Server, Sink, Submitted, TenantFinal};
use elle_history::RecoveryPolicy;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const CLI: Cli = Cli {
    about: "\
usage: elle-serve [options]

Serve many independent checker streams (one per tenant) from one resident
process. Requests are NDJSON: {\"tenant\":\"t1\",\"event\":{…}} ingests one
event; {\"tenant\":\"t1\",\"op\":\"seal\"|\"status\"|\"close\"} and {\"op\":\"status\"|
\"shutdown\"} control. Responses (verdicts, warnings, rejects) are NDJSON too.
Reads stdin by default; EOF, a shutdown op, or SIGTERM/SIGINT drain
gracefully: every tenant is final-sealed and its verdict printed.",
    options: "\
--listen <addr>    accept TCP connections speaking the same protocol
                   (responses go to the requesting connection)
--data-dir <path>  durability root: per-tenant write-ahead journals that
                   hold each event once, with a checkpoint at every
                   seal (snapshots only compact); on restart every
                   tenant recovers and converges to the uninterrupted
                   run's verdicts
--workers <n>      worker threads; tenants are sharded by id (default 4)
--epoch-txns <n>   per-tenant: seal every n transactions (default 1000)
--epoch-events <n> per-tenant: seal every n events
--max-epoch-ms <ms>  watchdog: force-seal any tenant whose epoch stays
                   open this long with events buffered
--snapshot-events <n>  checkpoint a tenant's journal (fsync) after n
                   lines without a seal (default 4096)
--max-line-bytes <n>   reject request lines larger than this (default 1 MiB)
--max-tenant-bytes <n> per-tenant buffered-byte budget (default 4 MiB)
--max-total-bytes <n>  global buffered-byte budget (default 64 MiB)
--max-tenants <n>      live-tenant cap (default 1024)
--window-txns <n>      bounded memory per tenant: retire provably
                   cycle-safe transactions beyond the most recent n
--max-tenant-resident-bytes <n>  per-tenant checker-state budget; at 3/4
                   force a retirement seal, at the budget tighten the
                   tenant's window (forced-window) and keep serving
--strict           fail a tenant on its first damaged line instead of
                   quarantining (other tenants unaffected)",
    exit_notes: "\
The status is the worst final verdict over all tenants: a strict-mode
tenant that failed on damaged input counts as 2, a poisoned final epoch
as 3.",
};

/// Feed one NDJSON source into the server. Returns true if a shutdown
/// was requested (op, or the signal latch between lines).
fn pump(server: &Server, reader: &mut impl BufRead, sink: &Sink, cap: usize) -> io::Result<bool> {
    let mut buf = Vec::new();
    loop {
        if signal::shutdown_requested() {
            return Ok(true);
        }
        match read_line_capped(reader, &mut buf, cap)? {
            LineRead::Eof => return Ok(false),
            LineRead::Oversized { bytes, .. } => {
                sink(&elle::serve::reject(
                    None,
                    400,
                    &format!("line of {bytes} bytes exceeds the {cap}-byte limit — discarded"),
                ));
            }
            // A final fragment without its newline is a torn connection's
            // last line, submitted as it is.
            LineRead::Line { .. } => {
                let line = String::from_utf8_lossy(&buf);
                if let Submitted::Shutdown = server.submit(&line, sink) {
                    return Ok(true);
                }
            }
        }
    }
}

fn cannot_start(e: io::Error) -> Stop {
    Stop::Input(format!("elle-serve: cannot start: {e}"))
}

/// A sink that writes each response line to `w` and flushes it.
fn line_sink(w: impl Write + Send + 'static) -> Sink {
    let w = Mutex::new(w);
    Arc::new(move |line: &str| {
        let mut w = w.lock().expect("sink lock");
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    })
}

/// Print every tenant's final verdict; the worst is the exit status.
fn emit_finals(finals: &[TenantFinal]) -> Status {
    let mut out = io::stdout().lock();
    for f in finals {
        let _ = writeln!(out, "{}", f.verdict);
    }
    let _ = out.flush();
    Status::tenants(finals)
}

fn run_stdin(cfg: ServeConfig) -> Result<Status, Stop> {
    let sink = line_sink(io::stdout());
    let cap = cfg.max_line_bytes;
    let server = Server::start(cfg, Arc::clone(&sink)).map_err(cannot_start)?;
    let mut reader = BufReader::new(io::stdin());
    if let Err(e) = pump(&server, &mut reader, &sink, cap) {
        eprintln!("elle-serve: stdin read failed: {e}");
    }
    let finals = server.drain();
    Ok(emit_finals(&finals))
}

fn run_listen(cfg: ServeConfig, addr: &str) -> Result<Status, Stop> {
    let listener = TcpListener::bind(addr)
        .map_err(|e| Stop::Input(format!("elle-serve: cannot bind {addr}: {e}")))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| Stop::Input(format!("elle-serve: cannot poll {addr}: {e}")))?;
    let cap = cfg.max_line_bytes;
    let default_sink = line_sink(io::stdout());
    let server = Arc::new(Server::start(cfg, Arc::clone(&default_sink)).map_err(cannot_start)?);
    let drain_requested = Arc::new(AtomicBool::new(false));
    eprintln!("elle-serve: listening on {addr}");
    loop {
        if signal::shutdown_requested() || drain_requested.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let server = Arc::clone(&server);
                let drain_requested = Arc::clone(&drain_requested);
                std::thread::spawn(move || serve_conn(&server, stream, cap, &drain_requested));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                eprintln!("elle-serve: accept failed: {e}");
                break;
            }
        }
    }
    let server = Arc::into_inner(server);
    // Client threads hold no Server clones (they borrow through Arc);
    // any still alive see 503s once draining starts and die with the
    // process. A held Arc just means a client is mid-submit: wait.
    let finals = match server {
        Some(s) => s.drain(),
        None => {
            std::thread::sleep(Duration::from_millis(100));
            Vec::new()
        }
    };
    Ok(emit_finals(&finals))
}

fn serve_conn(server: &Server, stream: TcpStream, cap: usize, drain_requested: &AtomicBool) {
    let _ = stream.set_nodelay(true);
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let sink = line_sink(writer);
    let mut reader = BufReader::new(stream);
    if let Ok(true) = pump(server, &mut reader, &sink, cap) {
        drain_requested.store(true, Ordering::SeqCst);
    }
}

fn main() -> ExitCode {
    CLI.run(run)
}

fn run(args: &mut Args) -> Result<Status, Stop> {
    let mut cfg = ServeConfig::default();
    let mut listen: Option<String> = None;

    while let Some(a) = args.next() {
        match a.as_str() {
            "--listen" => listen = Some(args.parse()?),
            "--data-dir" => cfg.data_dir = Some(args.parse()?),
            "--workers" => cfg.workers = args.parse()?,
            "--epoch-txns" => cfg.epoch_txns = Some(args.parse()?),
            "--epoch-events" => cfg.epoch_events = Some(args.parse()?),
            "--max-epoch-ms" => cfg.max_epoch = Some(Duration::from_millis(args.parse()?)),
            "--snapshot-events" => cfg.snapshot_events = args.parse()?,
            "--max-line-bytes" => cfg.max_line_bytes = args.parse()?,
            "--max-tenant-bytes" => cfg.max_tenant_bytes = args.parse()?,
            "--max-total-bytes" => cfg.max_total_bytes = args.parse()?,
            "--max-tenants" => cfg.max_tenants = args.parse()?,
            "--window-txns" => cfg.window = elle::stream::WindowPolicy::TxnCount(args.parse()?),
            "--max-tenant-resident-bytes" => cfg.max_tenant_resident_bytes = Some(args.parse()?),
            "--strict" => cfg.recovery = RecoveryPolicy::Strict,
            "--help" | "-h" => return Err(Stop::Help),
            flag if cli::check_flag(flag, args, &mut cfg.opts)? => {}
            other => return Err(Stop::unrecognized(other)),
        }
    }

    signal::install();
    match listen {
        Some(addr) => run_listen(cfg, &addr),
        None => run_stdin(cfg),
    }
}

//! The command-line layer `elle-check`, `elle-stream` and `elle-serve`
//! share: the argument cursor, the seven check-option flags, the
//! usage/help pair, the exit status, and the line reader that holds a
//! byte budget. Each binary keeps a plain `match` over its own flags.

use elle_core::{CheckOptions, ConsistencyModel};
use elle_serve::TenantFinal;
use elle_stream::EpochReport;
use std::io::{self, BufRead};
use std::process::ExitCode;
use std::str::FromStr;

/// A process exit status, ordered by severity: the worst of several
/// verdicts is their `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Status {
    /// 0: the expected model holds.
    Holds,
    /// 1: the expected model is violated.
    Violated,
    /// 2: a usage or input error.
    BadInput,
    /// 3: an internal checker error, or a verdict that is unknown.
    Unknown,
}

impl Status {
    /// The status of a reached verdict.
    pub fn verdict(ok: bool) -> Status {
        if ok {
            Status::Holds
        } else {
            Status::Violated
        }
    }

    /// A sealed epoch's status: a poisoned seal is a checker failure.
    pub fn epoch(epoch: &EpochReport) -> Status {
        match epoch.poisoned {
            Some(_) => Status::Unknown,
            None => Status::verdict(epoch.report.ok()),
        }
    }

    /// The worst final status over a service's tenants. A tenant that
    /// failed on damaged input (strict mode) is an input error.
    pub fn tenants(finals: &[TenantFinal]) -> Status {
        let status = |f: &TenantFinal| match f.ok {
            _ if f.poisoned => Status::Unknown,
            None => Status::BadInput,
            Some(ok) => Status::verdict(ok),
        };
        finals.iter().map(status).max().unwrap_or(Status::Holds)
    }
}

impl From<Status> for ExitCode {
    fn from(s: Status) -> ExitCode {
        ExitCode::from(s as u8)
    }
}

/// Why argument parsing stopped before a run.
#[derive(Debug)]
pub enum Stop {
    /// `--help` or `-h`: the usage text on stdout, exit 0.
    Help,
    /// A usage error: the explanation, if any, then the usage text on
    /// stderr; exit 2.
    Usage(Option<String>),
    /// An input error (unreadable, unparsable or refused input): the
    /// message on stderr, exit 2.
    Input(String),
}

impl Stop {
    /// The usage error for an argument no binary flag matched.
    pub fn unrecognized(arg: &str) -> Stop {
        Stop::Usage(Some(format!("unrecognized argument {arg:?}")))
    }
}

/// The command-line arguments after the program name.
pub struct Args(std::vec::IntoIter<String>);

impl Iterator for Args {
    type Item = String;
    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

impl Args {
    /// The current flag's value, parsed; a missing or unparsable value
    /// is a usage error.
    pub fn parse<T: FromStr>(&mut self) -> Result<T, Stop> {
        self.parse_with(|s| s.parse().ok())
    }

    /// The current flag's value through `f`; a missing value, or one
    /// `f` rejects, is a usage error.
    pub fn parse_with<T>(&mut self, f: impl FnOnce(&str) -> Option<T>) -> Result<T, Stop> {
        self.next().as_deref().and_then(f).ok_or(Stop::Usage(None))
    }
}

/// Apply `flag` to `opts` if it is one of the seven check-option flags,
/// taking its value from `args`; `Ok(false)` if it is not one of them.
/// Each binary calls it from a match guard after its own flags:
/// `flag if cli::check_flag(flag, args, &mut opts)? => {}`.
pub fn check_flag(flag: &str, args: &mut Args, opts: &mut CheckOptions) -> Result<bool, Stop> {
    match flag {
        "--model" => {
            let name: String = args.parse()?;
            let Some(m) = ConsistencyModel::ALL.into_iter().find(|m| m.name() == name) else {
                return Err(Stop::Usage(Some(format!("unknown model {name:?}"))));
            };
            opts.expected = m;
        }
        "--process" => opts.process_edges = true,
        "--realtime" => opts.realtime_edges = true,
        "--timestamps" => opts.timestamp_edges = true,
        "--linearizable-keys" => opts.registers.linearizable_keys = true,
        "--sequential-keys" => opts.registers.sequential_keys = true,
        "--max-cycles" => opts.max_cycles_per_type = args.parse()?,
        _ => return Ok(false),
    }
    Ok(true)
}

const CHECK_FLAGS: &str = "\
--process            derive session-order edges
--realtime           derive real-time edges
--timestamps         derive start-ordered (database timestamp) edges
--linearizable-keys  assume per-key linearizability (registers)
--sequential-keys    assume per-key sequential consistency
--max-cycles <n>     cap reported cycles per anomaly type";

/// The exit-status table, [`Status`] in order.
const EXIT_STATUS: &str = "\
exit status:
0  the expected model holds
1  the expected model is violated
2  usage or input error (strict-mode ingest failures included)
3  internal checker error, or the verdict is unknown";

/// One binary's command line: its usage text, and the run that maps
/// its outcome to the exit status.
pub struct Cli {
    /// The synopsis and description.
    pub about: &'static str,
    /// The binary's own options, one per line; the check options
    /// follow them.
    pub options: &'static str,
    /// What the exit statuses mean for this binary in particular.
    pub exit_notes: &'static str,
}

impl Cli {
    /// The usage text `--help` prints.
    pub fn usage(&self) -> String {
        let models: String = ConsistencyModel::ALL
            .map(|m| format!("\n                       {}", m.name()))
            .concat();
        format!(
            "{}\n\noptions:\n{}\n\ncheck options:\n\
             --model <name>       expected model (default strict-serializable):{models}\n\
             {CHECK_FLAGS}\n\n{EXIT_STATUS}\n\n{}",
            self.about, self.options, self.exit_notes,
        )
    }

    /// Run `body` over the process arguments and exit with its status,
    /// or with the usage text.
    pub fn run(&self, body: impl FnOnce(&mut Args) -> Result<Status, Stop>) -> ExitCode {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match body(&mut Args(args.into_iter())) {
            Ok(status) => status.into(),
            Err(Stop::Help) => {
                println!("{}", self.usage());
                ExitCode::SUCCESS
            }
            Err(Stop::Input(why)) => {
                eprintln!("{why}");
                Status::BadInput.into()
            }
            Err(Stop::Usage(why)) => {
                if let Some(why) = why {
                    eprintln!("{why}");
                }
                eprintln!("{}", self.usage());
                Status::BadInput.into()
            }
        }
    }
}

/// What [`read_line_capped`] read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineRead {
    /// End of input; nothing was read.
    Eof,
    /// A line within the cap, now in the buffer without its newline.
    /// `ended` is false for a fragment cut short by end of input.
    Line {
        /// Whether the newline was reached.
        ended: bool,
    },
    /// A line over the cap, discarded as it streamed past.
    Oversized {
        /// The line's length, its newline excluded.
        bytes: usize,
        /// Whether the newline was reached.
        ended: bool,
    },
}

/// Read one line into `buf` (cleared first) without ever buffering more
/// than `cap` bytes of it: an oversized line is discarded as it streams
/// past, so a hostile or broken producer cannot balloon memory.
pub fn read_line_capped(
    r: &mut (impl BufRead + ?Sized),
    buf: &mut Vec<u8>,
    cap: usize,
) -> io::Result<LineRead> {
    buf.clear();
    let mut over = 0usize;
    let done = |over, ended| match over {
        0 => LineRead::Line { ended },
        bytes => LineRead::Oversized { bytes, ended },
    };
    loop {
        let chunk = match r.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            if over == 0 && buf.is_empty() {
                return Ok(LineRead::Eof);
            }
            return Ok(done(over, false));
        }
        let nl = chunk.iter().position(|&b| b == b'\n');
        let take = nl.unwrap_or(chunk.len());
        if over == 0 && buf.len() + take <= cap {
            buf.extend_from_slice(&chunk[..take]);
        } else {
            over += buf.len() + take;
            buf.clear();
        }
        let used = nl.map_or(chunk.len(), |i| i + 1);
        r.consume(used);
        if nl.is_some() {
            return Ok(done(over, true));
        }
    }
}

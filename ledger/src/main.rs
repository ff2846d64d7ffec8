//! The repository's benchmark: the two user paths — a history file
//! through the `elle-check` pipeline to a rendered report, and NDJSON
//! lines into the `elle-serve` engine out to epoch verdicts — over three
//! seeded workloads, with every output checked against a reference.
//!
//! ```sh
//! cargo run --release --offline --manifest-path ledger/Cargo.toml -- \
//!     --workload check-json-clean --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` makes the
//! traced run that times each layer from outside, through its public
//! functions, and writes the spans to `ledger/out/spans-<workload>.csv`.
//! The last line of stdout is the result as one JSON object. The exit
//! status is 1 when any output differs from its reference, 2 on a usage
//! error.

mod check;
mod metrics;
mod pipeline;
mod serve;
mod sys;
mod trace;

use metrics::Metrics;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: elle-ledger --workload <check-json-clean|check-ndjson-anomalous|serve-durable> --seed <n> --seconds <n> --trace <0|1>";

/// The simulator's seed, derived from the workload seed so the
/// generator and the simulated database never share a random stream.
pub fn sim_seed(seed: u64) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15
}

/// Set up at least three times and for at least a second, keeping the
/// last setup and the median seconds one took (`setup_s`). Cheap setups
/// repeat many times, so their median is steady too.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::new();
    let mut last = None;
    while secs.len() < 3 || secs.iter().sum::<f64>() < 1.0 {
        drop(last.take());
        let t = std::time::Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("set up at least once"), metrics::median(&secs))
}

/// Where runs keep their files: inside the benchmark's own directory.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write the traced run's spans next to the run directories.
pub fn write_spans(tr: &trace::Tracer, workload: &str) {
    let path = out_dir().join(format!("spans-{workload}.csv"));
    if let Err(e) = tr.write_csv(&path) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    eprintln!("spans (count, total ms, self ms) -> {}", path.display());
    for (name, n, total, own) in tr.summary() {
        eprintln!(
            "  {name:<22} {n:>8} {:>12.3} {:>12.3}",
            total * 1e3,
            own * 1e3
        );
    }
}

/// A check workload does not run the stream, service or store layers:
/// their per-layer metrics read 0 there.
pub fn put_unexercised_serve_layers(m: &mut Metrics) {
    for (name, unit) in [
        ("stream.ingest_us", "us"),
        ("stream.seal_ms_p50", "ms"),
        ("stream.seal_ms_p90", "ms"),
        ("stream.seal_ms_max", "ms"),
        ("stream.seal_growth", "ratio"),
        ("stream.snapshot_ms", "ms"),
        ("stream.retired_txns", "count"),
        ("stream.resident_mb_max", "MB"),
        ("serve.submit_us_p50", "us"),
        ("serve.submit_us_p99", "us"),
        ("serve.wire_parse_us", "us"),
        ("serve.ingest_us_p50", "us"),
        ("serve.seal_ms_p50", "ms"),
        ("serve.seal_ms_p90", "ms"),
        ("serve.verdict_p50_ms", "ms"),
        ("serve.verdict_p90_ms", "ms"),
        ("serve.backlog_drain_s", "s"),
        ("store.write_amp", "ratio"),
        ("driver.lag_ms_max", "ms"),
    ] {
        m.put(name, 0.0, unit);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Option<Args> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        let at = args.iter().position(|a| a == flag)?;
        args.get(at + 1).map(String::as_str)
    };
    if args.len() != 8 {
        return None;
    }
    let seconds: u64 = value("--seconds")?.parse().ok()?;
    Some(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?.parse().ok()?,
        seconds: Duration::from_secs(seconds.max(1)),
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            _ => return None,
        },
    })
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let run = |dir: &Path| match args.workload.as_str() {
        "serve-durable" => Some(Ok(serve::run(args.seed, args.seconds, args.trace, dir))),
        name => [check::JSON_CLEAN, check::NDJSON_ANOMALOUS]
            .into_iter()
            .find(|spec| spec.name == name)
            .map(|spec| check::run(spec, args.seed, args.seconds, args.trace, dir)),
    };
    let dir = out_dir().join(format!("run-{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let outcome = run(&dir);
    if let Err(e) = std::fs::remove_dir_all(&dir) {
        eprintln!("cannot remove {}: {e}", dir.display());
    }
    let outcome = match outcome {
        Some(Ok(outcome)) => outcome,
        Some(Err(e)) => {
            eprintln!("{}: {e}", args.workload);
            return ExitCode::from(1);
        }
        None => {
            eprintln!("unknown workload {:?}\n{USAGE}", args.workload);
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "{} seed {} ({} s, nproc {}):",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        sys::nproc()
    );
    eprint!("{}", outcome.metrics.table());
    eprintln!(
        "  {:<28} {:>16.4} ratio",
        "failed_ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    println!("{}", outcome.json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("correctness gate failed");
        ExitCode::from(1)
    }
}

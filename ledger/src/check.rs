//! The two `elle-check` workloads: one history file, checked over and
//! over for the run's duration with the calls `elle-check --process
//! --realtime --json` makes — read the file, load it, `Checker::check`,
//! render the report — each report compared with a reference check of
//! the in-memory generated history.

use crate::metrics::{max, median, quantile, Metrics, Outcome};
use crate::pipeline::{staged_check, Counts};
use crate::sys;
use crate::trace::{Tracer, NO_PARENT};
use elle_core::{AnomalyType, CheckOptions, Checker};
use elle_dbsim::{DbConfig, IsolationLevel, ObjectKind};
use elle_gen::GenParams;
use elle_history::{
    events_to_ndjson, history_from_json, history_to_json, EventLog, History, NdjsonIngestor,
    RecoveryPolicy,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How the history reaches the checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// One JSON history document (`history_from_json`).
    Json,
    /// An NDJSON event log, parsed and paired line by line
    /// (`NdjsonIngestor::feed_str` + `finish`).
    Ndjson,
}

/// A check workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub format: Format,
    /// Transactions generated.
    pub txns: usize,
}

/// `check-json-clean`: a clean rw-register history as one JSON document.
/// 2k transactions keep a run at several checks while JSON parsing is
/// quadratic, and at thousands once it is linear.
pub const JSON_CLEAN: Spec = Spec {
    name: "check-json-clean",
    format: Format::Json,
    txns: 2_000,
};

/// `check-ndjson-anomalous`: a read-committed list-append history with
/// 10 active keys, as an NDJSON event log.
pub const NDJSON_ANOMALOUS: Spec = Spec {
    name: "check-ndjson-anomalous",
    format: Format::Ndjson,
    txns: 128_000,
};

/// Checks per run at least, however long they take.
const MIN_CHECKS: usize = 5;
/// Timed loads of the half-size input for `history.parse_exponent`.
const HALF_REPS: usize = 5;

/// The options `elle-check --process --realtime` checks with.
fn options() -> CheckOptions {
    CheckOptions::strict_serializable()
        .with_process_edges(true)
        .with_realtime_edges(true)
}

fn generate(spec: Spec, seed: u64) -> EventLog {
    let (params, db) = match spec.format {
        Format::Json => (
            GenParams {
                kind: ObjectKind::Register,
                ..GenParams::paper_perf(spec.txns)
            },
            DbConfig::new(IsolationLevel::Serializable, ObjectKind::Register),
        ),
        Format::Ndjson => (
            GenParams {
                active_keys: 10,
                ..GenParams::paper_perf(spec.txns)
            },
            DbConfig::new(IsolationLevel::ReadCommitted, ObjectKind::ListAppend),
        ),
    };
    let params = params.with_seed(seed);
    let db = db.with_processes(20).with_seed(crate::sim_seed(seed));
    elle_gen::run_workload_log(params, db)
}

/// One generated input, on disk, with its reference report.
struct Input {
    path: PathBuf,
    text: String,
    history: History,
    events: usize,
    reference: String,
    reference_ok: bool,
    families: Vec<AnomalyType>,
}

fn setup(spec: Spec, seed: u64, dir: &Path) -> Input {
    let log = generate(spec, seed);
    let history = log.pair().expect("simulator event logs pair");
    let (text, ext) = match spec.format {
        Format::Json => (history_to_json(&history), "json"),
        Format::Ndjson => (events_to_ndjson(&log), "ndjson"),
    };
    let path = dir.join(format!("history.{ext}"));
    std::fs::write(&path, &text).expect("write the history file");
    let report = Checker::new(options()).check(&history);
    let families: Vec<AnomalyType> = report.anomaly_counts.keys().map(|t| t.base()).collect();
    Input {
        path,
        events: log.len(),
        reference: serde_json::to_string(&report).expect("reports serialize"),
        reference_ok: report.ok(),
        families,
        text,
        history,
    }
}

pub fn load(format: Format, raw: &str) -> Result<History, String> {
    match format {
        Format::Json => history_from_json(raw).map_err(|e| e.to_string()),
        Format::Ndjson => {
            let mut ingestor = NdjsonIngestor::new(RecoveryPolicy::Strict);
            ingestor.feed_str(raw).map_err(|e| e.to_string())?;
            Ok(ingestor.finish().0)
        }
    }
}

/// One check as `elle-check` makes it: the rendered report and the
/// seconds the load took.
pub fn check_file(
    path: &Path,
    format: Format,
    opts: CheckOptions,
) -> Result<(String, f64), String> {
    let raw = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let history = load(format, &raw)?;
    let load_secs = t.elapsed().as_secs_f64();
    let report = Checker::new(opts)
        .try_check(&history)
        .map_err(|e| e.to_string())?;
    let json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
    Ok((json, load_secs))
}

/// The workload-specific gate on the reference verdict.
fn verdict_as_designed(spec: Spec, input: &Input) -> bool {
    match spec.format {
        Format::Json => input.reference_ok,
        Format::Ndjson => [
            AnomalyType::GSingle,
            AnomalyType::G2Item,
            AnomalyType::LostUpdate,
        ]
        .iter()
        .all(|t| input.families.contains(t)),
    }
}

pub fn run(
    spec: Spec,
    seed: u64,
    seconds: Duration,
    trace: bool,
    dir: &Path,
) -> Result<Outcome, String> {
    let (input, setup_s) = if trace {
        (setup(spec, seed, dir), 0.0)
    } else {
        crate::repeat_setup(|| setup(spec, seed, dir))
    };
    let mut correct = verdict_as_designed(spec, &input);
    if !correct {
        eprintln!("gate: the generated history's reference verdict is not as designed");
    }
    if trace {
        return Ok(run_traced(spec, &input, seconds, correct));
    }

    sys::reset_peak_rss();
    let (mut walls, mut cpus, mut loads) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    while walls.len() < MIN_CHECKS || start.elapsed() < seconds {
        let c0 = sys::cpu_secs();
        let w0 = Instant::now();
        let result = check_file(&input.path, spec.format, options());
        let wall = w0.elapsed().as_secs_f64();
        let cpu = sys::cpu_secs() - c0;
        attempted += 1;
        match result {
            Ok((json, load_secs)) => {
                walls.push(wall);
                cpus.push(cpu);
                loads.push(load_secs);
                if json != input.reference {
                    eprintln!("gate: check {attempted} differs from the reference report");
                    correct = false;
                }
            }
            Err(e) => {
                eprintln!("check {attempted} failed: {e}");
                failed += 1;
                if failed >= MIN_CHECKS as u64 {
                    break;
                }
            }
        }
    }
    let peak_rss = sys::peak_rss_mb();
    if walls.is_empty() {
        return Err(format!("all {attempted} checks failed"));
    }

    let mops = input.history.mop_count() as f64;
    let wall = median(&walls);
    let cpu = median(&cpus);
    let mut m = Metrics::default();
    m.put("check_mops_per_s", mops / wall, "mops/s");
    m.put("check_cpu_s", cpu, "s");
    m.put(
        "serve_cpu_us_per_line",
        cpu / input.events as f64 * 1e6,
        "us",
    );
    m.put("recover_s", median(&loads), "s");
    m.put("peak_rss_mb", peak_rss, "MB");
    m.put("setup_s", setup_s, "s");
    eprintln!(
        "{} checks of {} txns / {} mops / {} bytes; {} failed; \
         check latency p50 {:.1} ms, p90 {:.1} ms",
        walls.len(),
        input.history.len(),
        mops,
        input.text.len(),
        failed,
        wall * 1e3,
        quantile(&walls, 0.9) * 1e3,
    );
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
    })
}

fn run_traced(spec: Spec, input: &Input, seconds: Duration, mut correct: bool) -> Outcome {
    let half_text = match spec.format {
        Format::Json => {
            let n = input.history.len() / 2;
            history_to_json(&History::from_txns(input.history.txns()[..n].to_vec()))
        }
        Format::Ndjson => {
            let lines: Vec<&str> = input.text.lines().collect();
            let mut half = lines[..lines.len() / 2].join("\n");
            half.push('\n');
            half
        }
    };

    let mut tr = Tracer::new();
    let mut untraced = Vec::new();
    let mut counts = Counts::default();
    let mut gathers = Vec::new();
    let mut attempted = 0u64;
    let start = Instant::now();
    let mut iter = 0u64;
    while (iter as usize) < MIN_CHECKS.min(3) || start.elapsed() < seconds {
        // Untraced and traced checks alternate, so the overhead estimate
        // compares neighbours under the same host load.
        let w0 = Instant::now();
        let (json, _) = check_file(&input.path, spec.format, options()).expect("untraced check");
        untraced.push(w0.elapsed().as_secs_f64());
        correct &= json == input.reference;

        let root = tr.begin("check", NO_PARENT, iter);
        let raw = tr.leaf("io.read_file", root, iter, || {
            std::fs::read_to_string(&input.path).expect("read the history file")
        });
        let history = tr.leaf("history.load", root, iter, || {
            load(spec.format, &raw).expect("the generated history loads")
        });
        let (report, c) = staged_check(&mut tr, root, iter, &history, options());
        let json = tr.leaf("report.render", root, iter, || {
            serde_json::to_string(&report).expect("reports serialize")
        });
        tr.end(root);
        if json != input.reference {
            eprintln!("decomposition: staged report {iter} differs from Checker::check's");
            correct = false;
        }
        gathers.push(c.gather_secs);
        counts = c;
        attempted += 2;
        iter += 1;
    }
    for rep in 0..HALF_REPS as u64 {
        tr.leaf("history.load_half", NO_PARENT, rep, || {
            load(spec.format, &half_text).expect("the half-size history loads")
        });
    }

    let load_s = median(&tr.secs_of("history.load"));
    let half_s = median(&tr.secs_of("history.load_half"));
    // `core.datatype` spans include the drivers' gather pass.
    let datatype = tr.per_request("core.datatype");
    let infer: Vec<f64> = datatype.iter().zip(&gathers).map(|(d, g)| d - g).collect();
    let ms = |name: &str| median(&tr.per_request(name)) * 1e3;
    let mut m = Metrics::default();
    m.put("history.load_ms", load_s * 1e3, "ms");
    m.put(
        "history.load_mb_per_s",
        input.text.len() as f64 / (1 << 20) as f64 / load_s,
        "MB/s",
    );
    m.put(
        "history.parse_exponent",
        (load_s / half_s).ln() / (input.text.len() as f64 / half_text.len() as f64).ln(),
        "ratio",
    );
    m.put("core.index_ms", ms("core.index"), "ms");
    m.put("core.gather_ms", median(&gathers) * 1e3, "ms");
    m.put("core.infer_ms", median(&infer) * 1e3, "ms");
    m.put("core.orders_ms", ms("core.orders"), "ms");
    m.put("core.edge_build_ms", ms("core.edge_build"), "ms");
    m.put("core.freeze_ms", ms("core.freeze"), "ms");
    m.put("core.cycle_search_ms", ms("core.cycle_search"), "ms");
    m.put("core.report_ms", ms("core.report"), "ms");
    m.put("report.render_ms", ms("report.render"), "ms");
    crate::put_unexercised_serve_layers(&mut m);
    let traced = median(&tr.secs_of("check"));
    put_counts(
        &mut m,
        input.history.mop_count(),
        input.text.len(),
        &counts,
        input.reference.len(),
        0,
    );
    m.put(
        "trace.overhead_pct",
        (traced / median(&untraced) - 1.0) * 100.0,
        "%",
    );
    eprintln!(
        "traced {iter} checks (check {:.1} ms traced, {:.1} ms untraced, max {:.1} ms)",
        traced * 1e3,
        median(&untraced) * 1e3,
        max(&untraced) * 1e3
    );
    crate::write_spans(&tr, spec.name);
    Outcome {
        correct,
        attempted,
        failed: 0,
        metrics: m,
    }
}

/// The work counters every traced run reports.
pub fn put_counts(
    m: &mut Metrics,
    mops: usize,
    input_bytes: usize,
    counts: &Counts,
    report_bytes: usize,
    verdicts: usize,
) {
    m.put("history.mops", mops as f64, "count");
    m.put("history.input_bytes", input_bytes as f64, "bytes");
    m.put("core.edges", counts.edges as f64, "count");
    m.put("core.edge_buf_peak", counts.edge_buf_peak as f64, "count");
    m.put(
        "core.gather_buf_bytes",
        counts.gather_buf_bytes as f64,
        "bytes",
    );
    m.put(
        "core.pool_peak_bytes",
        counts.pool_peak_bytes as f64,
        "bytes",
    );
    m.put("core.anomalies", counts.anomalies as f64, "count");
    m.put("report.bytes", report_bytes as f64, "bytes");
    m.put("serve.verdicts", verdicts as f64, "count");
}

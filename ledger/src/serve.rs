//! The `elle-serve` workload: sixteen tenants' NDJSON event lines fed
//! open loop, at one fixed line rate, into an in-process durable
//! `elle_serve::Server`; then drain and restart-recovery. The traced run
//! also replays the lines through the service's layers one by one and
//! audits every tenant's event log with `elle-check`'s NDJSON path.

use crate::check::{self, put_counts, Format};
use crate::metrics::{max, mean, median, quantile, Metrics, Outcome};
use crate::pipeline::{staged_check, Counts};
use crate::sys;
use crate::trace::{line_request, Tracer, NO_PARENT};
use elle_core::Checker;
use elle_dbsim::{DbConfig, IsolationLevel, ObjectKind};
use elle_gen::GenParams;
use elle_history::{events_to_ndjson, EventKind, EventLog, History, Recovered, RecoveryPolicy};
use elle_serve::{parse_request, tag_event_line, Request, ServeConfig, Server, Sink, Submitted};
use elle_stream::{StreamChecker, WindowPolicy};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const TENANTS: usize = 16;
/// The longest tenant is this many times the shortest (1.3k to 21k
/// transactions at the recorded run length), so costs that grow with
/// tenant length show.
const LENGTH_SPREAD: f64 = 16.0;
/// The offered load, in lines per second, for the whole service: the
/// lowest that still yields over 100 watermark verdicts in a 20 s run.
/// The parent commit sustains it on two cores with no rejects, with
/// the workers about half busy; at 18k lines/s they are near 70% busy
/// and every timing spreads more from run to run.
const RATE: f64 = 12_000.0;
/// Worker threads (at most `nproc` on the recorded host).
const WORKERS: usize = 2;
/// The retirement window: shorter than the longest tenants, as an
/// operator bounding memory would set it.
const WINDOW_TXNS: usize = 8_000;
/// A run whose driver fell further behind its schedule than this
/// measured the host, not the service: it is invalid.
const MAX_LAG: Duration = Duration::from_secs(1);
/// A run needs this many watermark verdicts, so that p90 has at least
/// ten samples beyond it.
const MIN_VERDICTS: usize = 100;
/// Restarts from the data directory per run; `recover_s` is their median.
const RECOVERIES: usize = 3;
/// Timed loads of the longest tenant's log and of its first half, for
/// `history.parse_exponent`.
const HALF_REPS: usize = 5;

/// The service configuration: defaults (1000-transaction epochs, a
/// snapshot rotation at every seal, one journal write per line) plus a
/// data directory, the worker count and the window.
fn config(data_dir: PathBuf) -> ServeConfig {
    ServeConfig {
        workers: WORKERS.min(sys::nproc()),
        window: WindowPolicy::TxnCount(WINDOW_TXNS),
        data_dir: Some(data_dir),
        ..ServeConfig::default()
    }
}

/// One tenant's generated history and what the run checks it against.
struct TenantInput {
    name: String,
    txns: usize,
    mops: usize,
    /// `Checker::check` of the generated history, rendered.
    reference: String,
    /// Due offset of the line that crosses each epoch watermark.
    watermark_due: Vec<Duration>,
    /// The event log, kept for the traced run only, and its NDJSON file.
    traced: Option<(EventLog, PathBuf)>,
}

/// One request line and when it is due, relative to the open loop's
/// start.
struct Line {
    tenant: usize,
    /// Index of the line within its tenant's stream.
    seq: usize,
    text: String,
    due: Duration,
}

struct Workload {
    tenants: Vec<TenantInput>,
    lines: Vec<Line>,
}

fn setup(seed: u64, seconds: Duration, dir: &Path, trace: bool) -> Workload {
    let opts = config(PathBuf::new()).opts;
    let epoch_txns = ServeConfig::default()
        .epoch_txns
        .expect("the default service seals on a transaction watermark");
    // Two lines (invoke + completion) per transaction.
    let total_txns = RATE * seconds.as_secs_f64() / 2.0;
    let weights: Vec<f64> = (0..TENANTS)
        .map(|i| LENGTH_SPREAD.powf(i as f64 / (TENANTS - 1) as f64))
        .collect();
    let weight_sum: f64 = weights.iter().sum();

    let mut tenants = Vec::with_capacity(TENANTS);
    // Each tenant's lines as (position on its own timeline, line text,
    // is an invocation).
    let mut streams: Vec<Vec<(f64, String, bool)>> = Vec::with_capacity(TENANTS);
    for (i, w) in weights.iter().enumerate() {
        let n = (total_txns * w / weight_sum).round() as usize;
        let params = GenParams::paper_perf(n).with_seed(tenant_seed(seed, i));
        let db = DbConfig::new(IsolationLevel::Serializable, ObjectKind::ListAppend)
            .with_processes(20)
            .with_seed(crate::sim_seed(tenant_seed(seed, i)));
        let log = elle_gen::run_workload_log(params, db);
        let history = log.pair().expect("simulator event logs pair");
        let reference =
            serde_json::to_string(&Checker::new(opts).check(&history)).expect("reports serialize");
        let name = format!("t{i:02}");
        // Each tenant feeds over its own window of the run: starts
        // staggered over the first quarter and ends over the last, in two
        // shuffled orders. Each tenant thus has its own feed rate, no two
        // cross their watermarks in lockstep, and the longest tenants'
        // costliest seals do not all fall at the end.
        let start = 0.25 * ((i * 5 + 3) % TENANTS) as f64 / TENANTS as f64;
        let end = 0.75 + 0.25 * ((i * 11 + 7) % TENANTS) as f64 / TENANTS as f64;
        let step = (end - start) / log.len() as f64;
        streams.push(
            log.events()
                .iter()
                .enumerate()
                .map(|(k, ev)| {
                    let json = serde_json::to_string(ev).expect("events serialize");
                    let line = tag_event_line(&name, &json);
                    (start + k as f64 * step, line, ev.kind == EventKind::Invoke)
                })
                .collect(),
        );
        let traced = trace.then(|| {
            let path = dir.join(format!("{name}.ndjson"));
            std::fs::write(&path, events_to_ndjson(&log)).expect("write the tenant's event log");
            (log, path)
        });
        tenants.push(TenantInput {
            name,
            txns: history.len(),
            mops: history.mop_count(),
            reference,
            watermark_due: Vec::new(),
            traced,
        });
    }

    // Merge the timelines, then give line j the due time j / RATE: one
    // fixed aggregate rate, each tenant keeping its own pace within it.
    let mut order: Vec<(f64, usize, usize)> = streams
        .iter()
        .enumerate()
        .flat_map(|(i, s)| s.iter().enumerate().map(move |(k, l)| (l.0, i, k)))
        .collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut invokes = [0usize; TENANTS];
    let mut lines = Vec::with_capacity(order.len());
    for (j, &(_, i, k)) in order.iter().enumerate() {
        let due = Duration::from_secs_f64(j as f64 / RATE);
        let (_, text, invoke) = &mut streams[i][k];
        if *invoke {
            invokes[i] += 1;
            if invokes[i].is_multiple_of(epoch_txns) {
                tenants[i].watermark_due.push(due);
            }
        }
        lines.push(Line {
            tenant: i,
            seq: k,
            text: std::mem::take(text),
            due,
        });
    }
    Workload { tenants, lines }
}

fn tenant_seed(seed: u64, tenant: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(tenant as u64)
}

/// The `(tenant, epoch)` a verdict envelope names, or `None` for any
/// other response line (a reject or a warning).
fn envelope_key(line: &str) -> Option<(&str, usize)> {
    let rest = line.strip_prefix("{\"tenant\":\"")?;
    let (name, rest) = rest.split_once('"')?;
    let rest = rest.strip_prefix(",\"epoch\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    Some((name, rest[..end].parse().ok()?))
}

/// The `report` field of a verdict envelope (always its last field).
fn report_of(envelope: &str) -> Option<&str> {
    let at = envelope.find(",\"report\":")?;
    envelope[at + ",\"report\":".len()..].strip_suffix('}')
}

/// Response lines as they reached the sink, with their arrival time.
type Received = Arc<Mutex<Vec<(Instant, String)>>>;

fn recording_sink() -> (Sink, Received) {
    let received: Received = Arc::new(Mutex::new(Vec::new()));
    let rec = Arc::clone(&received);
    let sink: Sink = Arc::new(move |line: &str| {
        let at = Instant::now();
        rec.lock().expect("sink lock").push((at, line.to_string()));
    });
    (sink, received)
}

/// What one open-loop pass through a `Server` produced.
struct Pass {
    accepted: usize,
    accepted_bytes: usize,
    rejected: usize,
    lag_max: f64,
    /// Seconds from the open loop's start to when drain returned.
    secs: f64,
    cpu_secs: f64,
    backlog_drain_s: f64,
    wchar: u64,
    /// Watermark verdict latencies, in seconds.
    latencies: Vec<f64>,
    /// Every envelope each tenant emitted, watermark ones then the
    /// drain's final one.
    envelopes: Vec<Vec<String>>,
    errors: Vec<String>,
}

/// Feed every line at its due time, then drain. With a tracer, each
/// `Server::submit` is a span.
fn open_loop(w: &Workload, cfg: &ServeConfig, mut tr: Option<&mut Tracer>) -> Pass {
    let (sink, received) = recording_sink();
    let wchar0 = sys::wchar();
    let server = Server::start(cfg.clone(), Arc::clone(&sink)).expect("start the service");
    let cpu0 = sys::cpu_secs();
    let (mut accepted, mut accepted_bytes, mut rejected) = (0, 0, 0);
    let mut lag_max = Duration::ZERO;
    let t0 = Instant::now();
    let mut next = 0;
    while next < w.lines.len() {
        let line = &w.lines[next];
        let due = t0 + line.due;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
            continue;
        }
        lag_max = lag_max.max(now - due);
        let span = tr.as_deref_mut().map(|tr| {
            tr.begin(
                "serve.submit",
                NO_PARENT,
                line_request(line.tenant, line.seq),
            )
        });
        match server.submit(&line.text, &sink) {
            Submitted::Ok => {
                accepted += 1;
                accepted_bytes += line.text.len() + 1;
            }
            Submitted::Rejected => rejected += 1,
            Submitted::Shutdown => unreachable!("the workload sends no shutdown op"),
        }
        if let (Some(tr), Some(id)) = (tr.as_deref_mut(), span) {
            tr.end(id);
        }
        next += 1;
    }
    let last_due = t0 + w.lines.last().map_or(Duration::ZERO, |l| l.due);
    let finals = server.drain();
    let drained = Instant::now();
    let cpu_secs = sys::cpu_secs() - cpu0;
    let wchar = sys::wchar() - wchar0;

    let index: std::collections::HashMap<&str, usize> = w
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| (t.name.as_str(), i))
        .collect();
    let mut envelopes = vec![Vec::new(); w.tenants.len()];
    let mut latencies = Vec::new();
    let mut errors = Vec::new();
    for (at, line) in received.lock().expect("sink lock").drain(..) {
        match envelope_key(&line).and_then(|(name, epoch)| Some((*index.get(name)?, epoch))) {
            Some((i, epoch)) => {
                match w.tenants[i].watermark_due.get(epoch) {
                    Some(due) => latencies.push((at - (t0 + *due)).as_secs_f64()),
                    None => errors.push(format!("unexpected verdict for epoch {epoch}: {line}")),
                }
                envelopes[i].push(line);
            }
            None => errors.push(line),
        }
    }
    for f in finals {
        match index.get(f.tenant.as_str()) {
            Some(&i) => envelopes[i].push(f.verdict),
            None => errors.push(format!("final verdict for unknown tenant {}", f.tenant)),
        }
    }
    Pass {
        accepted,
        accepted_bytes,
        rejected,
        lag_max: lag_max.as_secs_f64(),
        secs: (drained - t0).as_secs_f64(),
        cpu_secs,
        backlog_drain_s: drained.saturating_duration_since(last_due).as_secs_f64(),
        wchar,
        latencies,
        envelopes,
        errors,
    }
}

/// The gate on one pass: every tenant's final report equals the
/// reference check of its generated history, every watermark verdict
/// arrived, nothing else did, and the driver kept to its schedule.
fn gate_pass(w: &Workload, pass: &Pass) -> bool {
    let mut ok = true;
    for e in &pass.errors {
        eprintln!("gate: unexpected response line: {e}");
        ok = false;
    }
    for (t, envs) in w.tenants.iter().zip(&pass.envelopes) {
        if envs.len() != t.watermark_due.len() + 1 {
            eprintln!(
                "gate: tenant {} emitted {} envelopes, expected {}",
                t.name,
                envs.len(),
                t.watermark_due.len() + 1
            );
            ok = false;
        }
        if envs.last().and_then(|e| report_of(e)) != Some(t.reference.as_str()) {
            eprintln!(
                "gate: tenant {}'s final report differs from Checker::check",
                t.name
            );
            ok = false;
        }
    }
    if pass.latencies.len() < MIN_VERDICTS {
        eprintln!(
            "gate: {} watermark verdicts, fewer than {MIN_VERDICTS}",
            pass.latencies.len()
        );
        ok = false;
    }
    if pass.lag_max > MAX_LAG.as_secs_f64() {
        eprintln!(
            "invalid run: the driver fell {:.0} ms behind its schedule",
            pass.lag_max * 1e3
        );
        ok = false;
    }
    ok
}

fn load_ndjson(raw: &str) -> History {
    check::load(Format::Ndjson, raw).expect("the generated event log ingests")
}

pub fn run(seed: u64, seconds: Duration, trace: bool, dir: &Path) -> Outcome {
    let (w, setup_s) = if trace {
        (setup(seed, seconds, dir, true), 0.0)
    } else {
        crate::repeat_setup(|| setup(seed, seconds, dir, false))
    };
    let lines = w.lines.len();
    let verdicts: usize = w.tenants.iter().map(|t| t.watermark_due.len()).sum();
    eprintln!(
        "{} tenants, {} to {} txns, {lines} lines, {verdicts} watermark verdicts due",
        w.tenants.len(),
        w.tenants.first().map_or(0, |t| t.txns),
        w.tenants.last().map_or(0, |t| t.txns),
    );
    if trace {
        return run_traced(&w, dir);
    }

    let cfg = config(dir.join("data"));
    sys::reset_peak_rss();
    let pass = open_loop(&w, &cfg, None);
    let mut correct = gate_pass(&w, &pass);

    // Recover several times: the first restarts are aborted (no final
    // seal, nothing written), the last one is drained for the gate.
    let (sink, received) = recording_sink();
    let mut recoveries = Vec::new();
    let finals = loop {
        let t = Instant::now();
        let restarted = Server::start(cfg.clone(), Arc::clone(&sink)).expect("restart the service");
        recoveries.push(t.elapsed().as_secs_f64());
        if recoveries.len() == RECOVERIES {
            break restarted.drain();
        }
        restarted.abort();
    };
    let recover_s = median(&recoveries);
    let peak_rss = sys::peak_rss_mb();
    if !received.lock().expect("sink lock").is_empty() {
        eprintln!("gate: the restarted service emitted lines before any request");
        correct = false;
    }
    if finals.len() != w.tenants.len() {
        eprintln!(
            "gate: {} tenants recovered, expected {}",
            finals.len(),
            w.tenants.len()
        );
        correct = false;
    }
    for (f, envs) in finals.iter().zip(&pass.envelopes) {
        let before = envs.last().and_then(|e| report_of(e));
        if before.is_none() || report_of(&f.verdict) != before {
            eprintln!("gate: tenant {}'s report after recovery differs", f.tenant);
            correct = false;
        }
    }

    let mops: usize = w.tenants.iter().map(|t| t.mops).sum();
    let sealed = pass.envelopes.iter().map(Vec::len).sum::<usize>();
    let mut m = Metrics::default();
    m.put("check_mops_per_s", mops as f64 / pass.secs, "mops/s");
    m.put("check_cpu_s", pass.cpu_secs / sealed.max(1) as f64, "s");
    m.put(
        "serve_cpu_us_per_line",
        pass.cpu_secs / pass.accepted.max(1) as f64 * 1e6,
        "us",
    );
    m.put("recover_s", recover_s, "s");
    m.put("peak_rss_mb", peak_rss, "MB");
    m.put("setup_s", setup_s, "s");
    eprintln!(
        "{} lines accepted, {} rejected; driver lag max {:.2} ms; recoveries {:?} s",
        pass.accepted,
        pass.rejected,
        pass.lag_max * 1e3,
        recoveries,
    );
    print_latency(&pass);
    Outcome {
        correct,
        attempted: lines as u64,
        failed: pass.rejected as u64,
        metrics: m,
    }
}

/// The line-to-verdict numbers. They spread too widely from run to run
/// on a shared two-core host to carry a bound, so untraced runs print
/// them and the traced run records them as per-layer metrics.
fn print_latency(pass: &Pass) {
    eprintln!(
        "verdict_p50_ms {:.3}, verdict_p90_ms {:.3} over {} watermark verdicts; \
         backlog_drain_s {:.4}",
        median(&pass.latencies) * 1e3,
        quantile(&pass.latencies, 0.9) * 1e3,
        pass.latencies.len(),
        pass.backlog_drain_s,
    );
}

fn run_traced(w: &Workload, dir: &Path) -> Outcome {
    let mut tr = Tracer::new();
    let cfg = config(dir.join("data"));
    let pass = open_loop(w, &cfg, Some(&mut tr));
    let mut correct = gate_pass(w, &pass);
    print_latency(&pass);
    println!(
        "# traced pass: serve_cpu_us_per_line {}",
        pass.cpu_secs / pass.accepted.max(1) as f64 * 1e6,
    );

    // The same lines on one thread: the wire parse, then a durable
    // tenant's ingest. Its envelopes must be the ones the service sent.
    let replay_cfg = config(dir.join("replay"));
    let mut tenants: Vec<elle_serve::Tenant> = w
        .tenants
        .iter()
        .map(|t| {
            elle_serve::Tenant::open(&t.name, &replay_cfg)
                .expect("open a fresh tenant")
                .0
        })
        .collect();
    let mut replayed: Vec<Vec<String>> = vec![Vec::new(); w.tenants.len()];
    for line in &w.lines {
        let rq = line_request(line.tenant, line.seq);
        let req = tr.leaf("serve.wire_parse", NO_PARENT, rq, || {
            parse_request(&line.text)
        });
        let Ok(Request::Event { event, .. }) = req else {
            eprintln!("decomposition: line {} did not parse as an event", line.seq);
            correct = false;
            continue;
        };
        let id = tr.begin("serve.ingest", NO_PARENT, rq);
        let reply = tenants[line.tenant]
            .ingest(&replay_cfg, &event)
            .expect("durable ingest");
        tr.end(id);
        if let Some(envelope) = reply.sealed {
            tr.rename(id, "serve.seal");
            replayed[line.tenant].push(envelope);
        }
    }
    for (i, t) in tenants.into_iter().enumerate() {
        replayed[i].push(t.close().verdict);
    }
    for (i, t) in w.tenants.iter().enumerate() {
        if replayed[i] != pass.envelopes[i] {
            eprintln!(
                "decomposition: tenant {}'s replayed envelopes differ from the service's",
                t.name
            );
            correct = false;
        }
    }

    // Each tenant's events through a bare stream checker with the
    // service's window and watermark.
    let epoch_txns = cfg.epoch_txns.expect("transaction watermark");
    let (mut retired, mut resident_max) = (0usize, 0usize);
    let (mut early, mut late) = (Vec::new(), Vec::new());
    for (i, t) in w.tenants.iter().enumerate() {
        let mut checker = StreamChecker::with_window(cfg.opts, cfg.window);
        let mut txns_since = 0;
        let mut seals = Vec::new();
        let (log, _) = t.traced.as_ref().expect("a traced setup keeps the logs");
        for (k, ev) in log.events().iter().enumerate() {
            let rq = line_request(i, k);
            let recovered = tr.leaf("stream.ingest", NO_PARENT, rq, || {
                checker.ingest_event_with(ev, RecoveryPolicy::Quarantine)
            });
            if matches!(
                recovered,
                Ok(Recovered::Ingested(elle_history::Ingest::Invoked(_)))
            ) {
                txns_since += 1;
            }
            if txns_since >= epoch_txns {
                txns_since = 0;
                let id = tr.begin("stream.seal", NO_PARENT, rq);
                checker.seal_epoch_guarded();
                seals.push(tr.end(id));
                resident_max = resident_max.max(checker.resident_bytes());
                tr.leaf("stream.snapshot", NO_PARENT, rq, || checker.snapshot());
            }
        }
        let last = checker.seal_epoch_guarded();
        retired += checker.retired_txns();
        if serde_json::to_string(&last.report).ok().as_deref() != Some(t.reference.as_str()) {
            eprintln!("decomposition: tenant {}'s stream report differs", t.name);
            correct = false;
        }
        if seals.len() >= 8 {
            let q = seals.len() / 4;
            early.extend_from_slice(&seals[..q]);
            late.extend_from_slice(&seals[seals.len() - q..]);
        }
    }

    // The audit, stage by stage, each tenant's traced check next to an
    // untraced one.
    let mut untraced = Vec::new();
    let mut total = Counts::default();
    let mut infer = 0.0;
    let mut input_bytes = 0;
    for (i, t) in w.tenants.iter().enumerate() {
        let w0 = Instant::now();
        let (_, path) = t.traced.as_ref().expect("a traced setup keeps the logs");
        let plain = check::check_file(path, Format::Ndjson, cfg.opts).map(|(json, _)| json);
        untraced.push(w0.elapsed().as_secs_f64());
        correct &= plain.as_deref() == Ok(t.reference.as_str());

        let rq = i as u64;
        let root = tr.begin("check", NO_PARENT, rq);
        let raw = tr.leaf("io.read_file", root, rq, || {
            std::fs::read_to_string(path).expect("read the tenant's event log")
        });
        let history = tr.leaf("history.load", root, rq, || load_ndjson(&raw));
        let (report, c) = staged_check(&mut tr, root, rq, &history, cfg.opts);
        let json = tr.leaf("report.render", root, rq, || {
            serde_json::to_string(&report).expect("reports serialize")
        });
        tr.end(root);
        if json != t.reference {
            eprintln!("decomposition: tenant {}'s staged report differs", t.name);
            correct = false;
        }
        infer -= c.gather_secs;
        total.gather_secs += c.gather_secs;
        total.gather_buf_bytes = total.gather_buf_bytes.max(c.gather_buf_bytes);
        total.edges += c.edges;
        total.edge_buf_peak = total.edge_buf_peak.max(c.edge_buf_peak);
        total.pool_peak_bytes = total.pool_peak_bytes.max(c.pool_peak_bytes);
        total.anomalies += c.anomalies;
        input_bytes += raw.len();
    }
    infer += tr.secs_of("core.datatype").iter().sum::<f64>();

    let (_, longest) = w
        .tenants
        .last()
        .and_then(|t| t.traced.as_ref())
        .expect("tenants");
    let full = std::fs::read_to_string(longest).expect("read the longest tenant's log");
    let half: String = {
        let lines: Vec<&str> = full.lines().collect();
        let mut s = lines[..lines.len() / 2].join("\n");
        s.push('\n');
        s
    };
    for rep in 0..HALF_REPS as u64 {
        tr.leaf("history.load_full", NO_PARENT, rep, || load_ndjson(&full));
        tr.leaf("history.load_half", NO_PARENT, rep, || load_ndjson(&half));
    }

    let sum_ms = |name: &str| tr.secs_of(name).iter().sum::<f64>() * 1e3;
    let load_ms = sum_ms("history.load");
    let submit = tr.secs_of("serve.submit");
    let seals = tr.secs_of("stream.seal");
    let serve_seals = tr.secs_of("serve.seal");
    let mut m = Metrics::default();
    m.put("history.load_ms", load_ms, "ms");
    m.put(
        "history.load_mb_per_s",
        input_bytes as f64 / (1 << 20) as f64 / (load_ms / 1e3),
        "MB/s",
    );
    m.put(
        "history.parse_exponent",
        (median(&tr.secs_of("history.load_full")) / median(&tr.secs_of("history.load_half"))).ln()
            / (full.len() as f64 / half.len() as f64).ln(),
        "ratio",
    );
    m.put("core.index_ms", sum_ms("core.index"), "ms");
    m.put("core.gather_ms", total.gather_secs * 1e3, "ms");
    m.put("core.infer_ms", infer * 1e3, "ms");
    m.put("core.orders_ms", sum_ms("core.orders"), "ms");
    m.put("core.edge_build_ms", sum_ms("core.edge_build"), "ms");
    m.put("core.freeze_ms", sum_ms("core.freeze"), "ms");
    m.put("core.cycle_search_ms", sum_ms("core.cycle_search"), "ms");
    m.put("core.report_ms", sum_ms("core.report"), "ms");
    m.put("report.render_ms", sum_ms("report.render"), "ms");
    m.put(
        "stream.ingest_us",
        mean(&tr.secs_of("stream.ingest")) * 1e6,
        "us",
    );
    m.put("stream.seal_ms_p50", median(&seals) * 1e3, "ms");
    m.put("stream.seal_ms_p90", quantile(&seals, 0.9) * 1e3, "ms");
    m.put("stream.seal_ms_max", max(&seals) * 1e3, "ms");
    m.put(
        "stream.seal_growth",
        median(&late) / median(&early),
        "ratio",
    );
    m.put(
        "stream.snapshot_ms",
        median(&tr.secs_of("stream.snapshot")) * 1e3,
        "ms",
    );
    m.put("stream.retired_txns", retired as f64, "count");
    m.put(
        "stream.resident_mb_max",
        resident_max as f64 / (1 << 20) as f64,
        "MB",
    );
    m.put("serve.submit_us_p50", median(&submit) * 1e6, "us");
    m.put("serve.submit_us_p99", quantile(&submit, 0.99) * 1e6, "us");
    m.put(
        "serve.wire_parse_us",
        mean(&tr.secs_of("serve.wire_parse")) * 1e6,
        "us",
    );
    m.put(
        "serve.ingest_us_p50",
        median(&tr.secs_of("serve.ingest")) * 1e6,
        "us",
    );
    m.put("serve.seal_ms_p50", median(&serve_seals) * 1e3, "ms");
    m.put("serve.seal_ms_p90", quantile(&serve_seals, 0.9) * 1e3, "ms");
    m.put("serve.verdict_p50_ms", median(&pass.latencies) * 1e3, "ms");
    m.put(
        "serve.verdict_p90_ms",
        quantile(&pass.latencies, 0.9) * 1e3,
        "ms",
    );
    m.put("serve.backlog_drain_s", pass.backlog_drain_s, "s");
    m.put(
        "store.write_amp",
        pass.wchar as f64 / pass.accepted_bytes.max(1) as f64,
        "ratio",
    );
    m.put("driver.lag_ms_max", pass.lag_max * 1e3, "ms");
    let mops: usize = w.tenants.iter().map(|t| t.mops).sum();
    let report_bytes: usize = w.tenants.iter().map(|t| t.reference.len()).sum();
    put_counts(
        &mut m,
        mops,
        input_bytes,
        &total,
        report_bytes,
        pass.latencies.len(),
    );
    let traced: f64 = tr.secs_of("check").iter().sum();
    m.put(
        "trace.overhead_pct",
        (traced / untraced.iter().sum::<f64>() - 1.0) * 100.0,
        "%",
    );
    crate::write_spans(&tr, "serve-durable");
    Outcome {
        correct,
        attempted: (w.lines.len() * 2 + w.tenants.len() * 2) as u64,
        failed: pass.rejected as u64,
        metrics: m,
    }
}

//! End-to-end robustness suite for `elle-serve`: multi-tenant soak
//! differentials against the batch checker, chaos clients against the
//! single-tenant oracle, per-tenant fault isolation (seal panics,
//! budgets), and crash-consistent recovery — in-process through
//! [`Server`] and through the real binary under SIGKILL.

use elle::dbsim::{chaos_session, delivered_lines, drive, FaultSchedule};
use elle::history::trim_json_ws;
use elle::prelude::*;
use elle::serve::{
    parse_request, Request, ServeConfig, Server, Sink, Submitted, Tenant, TenantFinal,
};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A small per-tenant workload, deterministically seeded.
fn tenant_log(seed: u64, txns: usize) -> elle::history::EventLog {
    let params = GenParams::contended(txns, ObjectKind::ListAppend).with_seed(seed);
    let db = DbConfig::new(IsolationLevel::Serializable, ObjectKind::ListAppend)
        .with_processes(4)
        .with_seed(seed ^ 0xabcd);
    elle::gen::run_workload_log(params, db)
}

/// Tenant-tagged wire lines for a clean log.
fn tagged_lines(tenant: &str, log: &elle::history::EventLog) -> Vec<String> {
    chaos_session(tenant, log, &FaultSchedule::none(), 0, 0).lines
}

fn collecting_sink() -> (Sink, Arc<Mutex<Vec<String>>>) {
    let lines: Arc<Mutex<Vec<String>>> = Arc::default();
    let captured = Arc::clone(&lines);
    let sink: Sink = Arc::new(move |line: &str| {
        captured.lock().unwrap().push(line.to_string());
    });
    (sink, lines)
}

fn small_cfg() -> ServeConfig {
    ServeConfig {
        epoch_txns: Some(20),
        snapshot_events: 24,
        workers: 3,
        ..ServeConfig::default()
    }
}

fn final_for<'a>(finals: &'a [TenantFinal], tenant: &str) -> &'a TenantFinal {
    finals
        .iter()
        .find(|f| f.tenant == tenant)
        .unwrap_or_else(|| panic!("no final verdict for {tenant}"))
}

/// The `"report":{…}` tail of a verdict envelope — the batch-identical
/// part, stable across restarts that replay resent (duplicate) lines.
fn report_slice(line: &str) -> &str {
    let at = line.find("\"report\":").expect("envelope has a report");
    &line[at..]
}

/// The single-tenant oracle: process `lines` exactly as one worker
/// thread processes them for one ephemeral tenant (no journaling) and
/// return the final close verdict. One tenant's processing is serial
/// and independent of every other tenant, so a served tenant's verdict
/// must equal this, byte for byte, whatever else the service survived.
fn solo_verdict(cfg: &ServeConfig, tenant: &str, lines: &[String]) -> String {
    let mut cfg = cfg.clone();
    cfg.data_dir = None;
    let (mut t, _) = Tenant::open(tenant, &cfg).expect("ephemeral tenants cannot fail to open");
    for line in lines {
        if trim_json_ws(line).is_empty() || line.len() > cfg.max_line_bytes || t.failed().is_some()
        {
            continue;
        }
        match parse_request(line) {
            Ok(Request::Event { event, .. }) => {
                let _ = t.ingest_owned(&cfg, *event);
            }
            Ok(Request::BadEvent { message, .. }) => {
                let _ = t.ingest_bad(&cfg, &message);
            }
            _ => {} // rejected at the wire, never reaches a tenant
        }
    }
    t.close().verdict
}

#[test]
fn multi_tenant_soak_matches_batch_and_oracle() {
    // Four concurrent tenants; tenant "soak-1" gets a damaged wire with
    // two mid-line connection kills (full resend each time). Every
    // clean tenant's final verdict must embed the batch checker's
    // report for its history; the damaged tenant must match the
    // single-tenant oracle fed the same delivered lines.
    let cfg = small_cfg();
    let sessions: Vec<_> = (0..4)
        .map(|t| {
            let name = format!("soak-{t}");
            let log = tenant_log(100 + t, 60);
            let schedule = if t == 1 {
                FaultSchedule::typical(7)
            } else {
                FaultSchedule::none()
            };
            let kills = if t == 1 { 2 } else { 0 };
            (chaos_session(&name, &log, &schedule, kills, 9 + t), log)
        })
        .collect();
    let (sink, _) = collecting_sink();
    let server = Server::start(cfg.clone(), Arc::clone(&sink)).unwrap();
    std::thread::scope(|scope| {
        for (session, _) in &sessions {
            let server = &server;
            let sink = Arc::clone(&sink);
            scope.spawn(move || {
                for line in delivered_lines(session) {
                    server.submit(&line, &sink);
                }
            });
        }
    });
    let finals = server.drain();
    assert_eq!(finals.len(), 4);
    for (t, (session, log)) in sessions.iter().enumerate() {
        let f = final_for(&finals, &session.tenant);
        if t == 1 {
            let want = solo_verdict(&cfg, &session.tenant, &delivered_lines(session));
            assert_eq!(f.verdict, want, "damaged tenant diverged from oracle");
        } else {
            let batch = Checker::new(cfg.opts).check(&log.pair().unwrap());
            assert_eq!(f.ok, Some(batch.ok()));
            assert_eq!(
                report_slice(&f.verdict),
                format!("\"report\":{}}}", serde_json::to_string(&batch).unwrap()),
                "clean tenant {} diverged from batch",
                session.tenant
            );
        }
    }
}

#[test]
fn seal_panic_in_one_tenant_leaves_others_byte_identical() {
    let run = |poison: bool| -> (Vec<TenantFinal>, Vec<String>) {
        let mut cfg = small_cfg();
        if poison {
            cfg.inject_seal_panic = Some(("victim".to_string(), 1));
        }
        let (sink, lines) = collecting_sink();
        let server = Server::start(cfg, Arc::clone(&sink)).unwrap();
        let tenants: Vec<(String, Vec<String>)> = (0..3)
            .map(|t| {
                let name = if t == 0 {
                    "victim".to_string()
                } else {
                    format!("bystander-{t}")
                };
                let lines = tagged_lines(&name, &tenant_log(500 + t, 70));
                (name, lines)
            })
            .collect();
        std::thread::scope(|scope| {
            for (_, lines) in &tenants {
                let server = &server;
                let sink = Arc::clone(&sink);
                scope.spawn(move || {
                    for line in lines {
                        server.submit(line, &sink);
                    }
                });
            }
        });
        let finals = server.drain();
        let responses = lines.lock().unwrap().clone();
        (finals, responses)
    };
    let (clean, _) = run(false);
    let (poisoned, responses) = run(true);
    assert!(
        responses.iter().any(|l| l.contains("\"poisoned\":")),
        "victim's epoch 1 must surface as poisoned"
    );
    for f in &clean {
        let p = final_for(&poisoned, &f.tenant);
        if f.tenant == "victim" {
            // The victim recovers: its *final* verdict is healthy again,
            // though intermediate envelopes carried the poison.
            assert_eq!(p.ok, f.ok);
        } else {
            assert_eq!(
                p.verdict, f.verdict,
                "bystander {} perturbed by another tenant's seal panic",
                f.tenant
            );
        }
    }
}

#[test]
fn budget_rejects_are_attributed_and_isolated() {
    let mut cfg = small_cfg();
    cfg.workers = 1;
    cfg.max_tenant_bytes = 4096; // roughly two dozen wire lines
    let (sink, lines) = collecting_sink();
    let server = Server::start(cfg.clone(), Arc::clone(&sink)).unwrap();

    // Stall the (single) worker deterministically: a seal request whose
    // response sink blocks on a mutex the test holds. Everything
    // submitted behind it stays buffered, so admission accounting —
    // not scheduling luck — decides who gets in.
    let gate = Arc::new(Mutex::new(()));
    let held = gate.lock().unwrap();
    let blocking: Sink = {
        let gate = Arc::clone(&gate);
        Arc::new(move |_line: &str| {
            let _held = gate.lock().unwrap();
        })
    };
    server.submit("{\"tenant\":\"greedy\",\"op\":\"seal\"}", &blocking);

    let greedy = tagged_lines("greedy", &tenant_log(61, 60));
    let modest_log = tenant_log(62, 8);
    let modest = tagged_lines("modest", &modest_log);
    let verdicts: Vec<Submitted> = greedy.iter().map(|l| server.submit(l, &sink)).collect();
    assert!(
        verdicts.contains(&Submitted::Rejected),
        "a stalled tenant must hit its buffered-byte budget"
    );
    // The modest tenant fits inside its own budget and is untouched by
    // the greedy one's rejects.
    for line in &modest {
        assert_eq!(server.submit(line, &sink), Submitted::Ok);
    }
    drop(held);
    let finals = server.drain();
    let responses = lines.lock().unwrap().clone();
    assert!(
        responses
            .iter()
            .any(|l| l.contains("\"tenant\":\"greedy\"") && l.contains("\"code\":429")),
        "expected 429 rejects for the greedy tenant, got: {responses:?}"
    );
    assert!(
        !responses
            .iter()
            .any(|l| l.contains("\"tenant\":\"modest\"") && l.contains("429")),
        "modest tenant must not be rejected"
    );
    // The modest tenant still gets its exact batch verdict.
    let batch = Checker::new(cfg.opts).check(&modest_log.pair().unwrap());
    let f = final_for(&finals, "modest");
    assert_eq!(f.ok, Some(batch.ok()));
    assert_eq!(
        report_slice(&f.verdict),
        format!("\"report\":{}}}", serde_json::to_string(&batch).unwrap()),
    );
}

#[test]
fn oversized_and_malformed_lines_are_rejected_not_fatal() {
    let mut cfg = small_cfg();
    cfg.max_line_bytes = 256;
    let (sink, lines) = collecting_sink();
    let server = Server::start(cfg.clone(), Arc::clone(&sink)).unwrap();
    let log = tenant_log(77, 10);
    let wire = tagged_lines("t", &log);
    let mut submitted = vec![
        format!("{{\"tenant\":\"t\",\"event\":{}}}", "x".repeat(400)),
        "{torn json".to_string(),
        "{\"tenant\":\"../evil\",\"op\":\"seal\"}".to_string(),
        // Unicode whitespace that JSON does not allow: neither blank
        // nor JSON.
        "\u{a0}".to_string(),
        format!("{}\u{2028}", wire[0]),
    ];
    submitted.extend(wire);
    for line in &submitted {
        server.submit(line, &sink);
    }
    let finals = server.drain();
    let responses = lines.lock().unwrap().clone();
    let rejects = responses.iter().filter(|l| l.contains("\"code\":400"));
    assert_eq!(rejects.count(), 5, "{responses:?}");
    let batch = Checker::new(cfg.opts).check(&log.pair().unwrap());
    let served = final_for(&finals, "t");
    assert_eq!(served.ok, Some(batch.ok()));
    assert_eq!(served.verdict, solo_verdict(&cfg, "t", &submitted));
}

/// The tentpole differential: across 50 seeded multi-tenant schedules,
/// killing the service mid-ingest (journals intact, no final seals, no
/// snapshot rotation) and restarting from disk must converge every
/// tenant to the *byte-identical* final envelope of an uninterrupted
/// run — gauges, epoch ordinals, and all.
#[test]
fn crash_recovery_differential_50_seeds() {
    for seed in 0..50u64 {
        let mut cfg = small_cfg();
        cfg.epoch_txns = Some(10 + (seed % 7) as usize);
        cfg.snapshot_events = 8 + (seed % 23) as usize;
        let tenants: Vec<(String, Vec<String>)> = (0..2)
            .map(|t| {
                let name = format!("cr-{t}");
                let lines = tagged_lines(&name, &tenant_log(seed * 10 + t, 40));
                (name, lines)
            })
            .collect();
        // One interleaved feed order, shared by both runs.
        let mut wire: Vec<&String> = Vec::new();
        let longest = tenants.iter().map(|(_, l)| l.len()).max().unwrap();
        for i in 0..longest {
            for (_, lines) in &tenants {
                if let Some(l) = lines.get(i) {
                    wire.push(l);
                }
            }
        }
        let split = (seed as usize * 13 + 7) % wire.len();

        let discard: Sink = Arc::new(|_| {});
        // Run A: uninterrupted, durable.
        let dir_a = tmp_dir(&format!("crash_a_{seed}"));
        let mut cfg_a = cfg.clone();
        cfg_a.data_dir = Some(dir_a.clone());
        let server = Server::start(cfg_a, Arc::clone(&discard)).unwrap();
        for line in &wire {
            server.submit(line, &discard);
        }
        let want = server.drain();

        // Run B: crash after `split` lines, restart, feed the rest.
        let dir_b = tmp_dir(&format!("crash_b_{seed}"));
        let mut cfg_b = cfg.clone();
        cfg_b.data_dir = Some(dir_b.clone());
        let server = Server::start(cfg_b.clone(), Arc::clone(&discard)).unwrap();
        for line in &wire[..split] {
            server.submit(line, &discard);
        }
        server.abort(); // SIGKILL-equivalent: journals only, no seals
        let server = Server::start(cfg_b, Arc::clone(&discard)).unwrap();
        for line in &wire[split..] {
            server.submit(line, &discard);
        }
        let got = server.drain();

        assert_eq!(want.len(), got.len(), "seed {seed}: tenant set diverged");
        for w in &want {
            let g = final_for(&got, &w.tenant);
            assert_eq!(
                g.verdict, w.verdict,
                "seed {seed} tenant {}: crash-recovered verdict diverged",
                w.tenant
            );
        }
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }
}

/// An in-process connection for [`drive`]: buffers written bytes and
/// submits each completed line; a final unterminated fragment is
/// submitted on drop, exactly as the TCP reader surfaces a torn line at
/// EOF.
struct SubmitWriter<'a> {
    server: &'a Server,
    sink: Sink,
    buf: Vec<u8>,
}

impl Write for SubmitWriter<'_> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(data);
        while let Some(i) = self.buf.iter().position(|&b| b == b'\n') {
            let rest = self.buf.split_off(i + 1);
            let line = std::mem::replace(&mut self.buf, rest);
            let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            self.server.submit(&line, &self.sink);
        }
        Ok(data.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for SubmitWriter<'_> {
    fn drop(&mut self) {
        if !self.buf.is_empty() {
            let line = String::from_utf8_lossy(&self.buf).into_owned();
            self.server.submit(&line, &self.sink);
        }
    }
}

/// The chaos differential: for each of four seeds, three concurrent
/// tenants of 120 contended list-append transactions against one
/// ephemeral server. Tenant 0's wire is damaged by a typical fault
/// schedule; every tenant's connection is cut mid-line twice and
/// resends from the start through [`drive`]. Each final verdict must
/// equal the solo oracle's on the lines delivered, byte for byte.
#[test]
fn chaos_sessions_converge_to_the_solo_oracle() {
    // Convergence pressure, not admission pressure: roomy budgets so no
    // line is ever 429'd (a reject would desync the oracle), small
    // epochs so seals interleave with kills.
    let cfg = ServeConfig {
        epoch_txns: Some(25),
        max_tenant_bytes: 64 << 20,
        max_total_bytes: 256 << 20,
        ..ServeConfig::default()
    };
    for seed in 0..4u64 {
        let sessions: Vec<_> = (0..3u64)
            .map(|t| {
                let params =
                    GenParams::contended(120, ObjectKind::ListAppend).with_seed(seed * 1009 + t);
                let db = DbConfig::new(IsolationLevel::Serializable, ObjectKind::ListAppend)
                    .with_processes(4)
                    .with_seed(seed * 2003 + t);
                let log = elle::gen::run_workload_log(params, db);
                // Tenant 0 gets a damaged wire; the rest stay clean, so
                // the run also shows isolation under chaos.
                let schedule = if t == 0 {
                    FaultSchedule::typical(seed + 11)
                } else {
                    FaultSchedule::none()
                };
                chaos_session(&format!("chaos-{t}"), &log, &schedule, 2, seed * 31 + t)
            })
            .collect();
        let discard: Sink = Arc::new(|_| {});
        let server = Server::start(cfg.clone(), Arc::clone(&discard)).unwrap();
        std::thread::scope(|scope| {
            for session in &sessions {
                let server = &server;
                let discard = Arc::clone(&discard);
                scope.spawn(move || {
                    drive(session, |_attempt| {
                        Ok(SubmitWriter {
                            server,
                            sink: Arc::clone(&discard),
                            buf: Vec::new(),
                        })
                    })
                    .expect("in-process transport cannot fail")
                });
            }
        });
        let finals = server.drain();
        for session in &sessions {
            let want = solo_verdict(&cfg, &session.tenant, &delivered_lines(session));
            assert_eq!(
                final_for(&finals, &session.tenant).verdict,
                want,
                "chaos seed {seed} {}: served verdict diverged from the solo oracle",
                session.tenant
            );
        }
    }
}

/// Chaos clients (mid-line kills + full resends) against a durable
/// server that is also crash-restarted in the middle: the absorbed
/// duplicates shift the quarantine gauges, but every tenant's final
/// *report* and verdict must match the solo oracle fed the same lines.
#[test]
fn chaos_with_crash_restart_converges_to_oracle() {
    let mut cfg = small_cfg();
    let dir = tmp_dir("chaos_crash");
    cfg.data_dir = Some(dir.clone());
    let sessions: Vec<_> = (0..3)
        .map(|t| {
            let name = format!("cc-{t}");
            let log = tenant_log(900 + t, 50);
            chaos_session(&name, &log, &FaultSchedule::none(), 2, 40 + t)
        })
        .collect();
    let discard: Sink = Arc::new(|_| {});

    let server = Server::start(cfg.clone(), Arc::clone(&discard)).unwrap();
    std::thread::scope(|scope| {
        for session in &sessions {
            let server = &server;
            let discard = Arc::clone(&discard);
            // First two attempts (cut connections) before the crash…
            scope.spawn(move || {
                for cut in &session.cuts {
                    for line in &session.lines[..cut.line] {
                        server.submit(line, &discard);
                    }
                    let frag = &session.lines[cut.line][..cut.byte];
                    if !frag.is_empty() {
                        server.submit(frag, &discard);
                    }
                }
            });
        }
    });
    server.abort();

    // …then the service crash-restarts and every client resends whole.
    let server = Server::start(cfg.clone(), Arc::clone(&discard)).unwrap();
    std::thread::scope(|scope| {
        for session in &sessions {
            let server = &server;
            let discard = Arc::clone(&discard);
            scope.spawn(move || {
                for line in &session.lines {
                    server.submit(line, &discard);
                }
            });
        }
    });
    let finals = server.drain();
    for session in &sessions {
        let want = solo_verdict(&cfg, &session.tenant, &delivered_lines(session));
        let got = final_for(&finals, &session.tenant);
        assert_eq!(
            report_slice(&got.verdict),
            report_slice(&want),
            "tenant {}: report diverged after crash + resend",
            session.tenant
        );
        assert!(want.contains(&format!("\"ok\":{}", got.ok.unwrap())));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill -9 the real binary mid-stdin, restart it on the same data
/// directory with a full resend, and require the final reports to match
/// an uninterrupted run's.
#[test]
fn binary_sigkill_restart_converges() {
    let dir = tmp_dir("bin_kill");
    let tenants: Vec<(String, Vec<String>)> = (0..2)
        .map(|t| {
            let name = format!("bk-{t}");
            (name.clone(), tagged_lines(&name, &tenant_log(700 + t, 40)))
        })
        .collect();
    let mut wire = String::new();
    let longest = tenants.iter().map(|(_, l)| l.len()).max().unwrap();
    for i in 0..longest {
        for (_, lines) in &tenants {
            if let Some(l) = lines.get(i) {
                wire.push_str(l);
                wire.push('\n');
            }
        }
    }
    let serve =
        |input: &str, data_dir: &std::path::Path, kill_after: Option<usize>| -> Vec<String> {
            let mut child = Command::new(env!("CARGO_BIN_EXE_elle-serve"))
                .args(["--data-dir", data_dir.to_str().unwrap()])
                .args([
                    "--epoch-txns",
                    "15",
                    "--snapshot-events",
                    "16",
                    "--workers",
                    "2",
                ])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .expect("binary runs");
            let mut stdin = child.stdin.take().unwrap();
            match kill_after {
                Some(n) => {
                    let upto: String = input.lines().take(n).map(|l| format!("{l}\n")).collect();
                    let _ = stdin.write_all(upto.as_bytes());
                    let _ = stdin.flush();
                    // Let the service ingest (and journal) some of it, then
                    // SIGKILL — no drain, no final seals.
                    std::thread::sleep(std::time::Duration::from_millis(150));
                    child.kill().expect("kill");
                    let _ = child.wait();
                    Vec::new()
                }
                None => {
                    stdin.write_all(input.as_bytes()).unwrap();
                    drop(stdin); // EOF drains gracefully
                    let out = child.wait_with_output().expect("wait");
                    String::from_utf8_lossy(&out.stdout)
                        .lines()
                        .map(str::to_string)
                        .collect()
                }
            }
        };
    // Uninterrupted reference run on its own data dir.
    let dir_ref = tmp_dir("bin_ref");
    let want = serve(&wire, &dir_ref, None);
    // Crashed run: half the lines, SIGKILL, restart with a full resend.
    let half = wire.lines().count() / 2;
    serve(&wire, &dir, Some(half));
    let got = serve(&wire, &dir, None);
    for (name, _) in &tenants {
        let last = |lines: &[String]| -> String {
            lines
                .iter()
                .rfind(|l| {
                    l.contains(&format!("\"tenant\":\"{name}\"")) && l.contains("\"report\":")
                })
                .unwrap_or_else(|| panic!("no verdict for {name}"))
                .clone()
        };
        let w = last(&want);
        let g = last(&got);
        assert_eq!(
            report_slice(&w),
            report_slice(&g),
            "tenant {name}: post-SIGKILL report diverged"
        );
        assert_eq!(
            w.contains("\"ok\":true"),
            g.contains("\"ok\":true"),
            "tenant {name}: verdict flipped"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir_ref);
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("elle_serve_suite_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A key-rotating workload (small per-key write budget) whose retired
/// keys quiesce quickly — the shape windowed retirement is built for.
fn rotating_log(seed: u64, txns: usize) -> elle::history::EventLog {
    let params = GenParams {
        n_txns: txns,
        min_txn_len: 1,
        max_txn_len: 3,
        active_keys: 2,
        writes_per_key: 4,
        read_prob: 0.4,
        kind: ObjectKind::ListAppend,
        seed,
        final_reads: false,
    };
    let db = DbConfig::new(IsolationLevel::Serializable, ObjectKind::ListAppend)
        .with_processes(4)
        .with_seed(seed ^ 0xabcd);
    elle::gen::run_workload_log(params, db)
}

/// The resident-byte budget ladder: a tenant that outgrows its budget is
/// degraded to `forced-window` — tightened retirement, kept serving, no
/// rejects — while its neighbours' verdicts stay byte-identical to a run
/// where the hog never existed.
#[test]
fn resident_budget_hog_degrades_to_forced_window_without_touching_neighbours() {
    let mut cfg = small_cfg();
    cfg.max_tenant_resident_bytes = Some(32 * 1024);
    let hog_lines = {
        let mut l = tagged_lines("hog", &rotating_log(810, 600));
        l.push("{\"tenant\":\"hog\",\"op\":\"status\"}".to_string());
        l
    };
    let neighbours: Vec<(String, Vec<String>)> = (0..2)
        .map(|t| {
            let name = format!("calm-{t}");
            let lines = tagged_lines(&name, &tenant_log(820 + t, 40));
            (name, lines)
        })
        .collect();

    let run = |with_hog: bool| -> (Vec<TenantFinal>, Vec<String>) {
        let (sink, lines) = collecting_sink();
        let server = Server::start(cfg.clone(), Arc::clone(&sink)).unwrap();
        std::thread::scope(|scope| {
            if with_hog {
                let server = &server;
                let sink = Arc::clone(&sink);
                let hog_lines = &hog_lines;
                scope.spawn(move || {
                    for line in hog_lines {
                        assert_eq!(
                            server.submit(line, &sink),
                            elle::serve::Submitted::Ok,
                            "hog must degrade to forced-window, never reject"
                        );
                    }
                });
            }
            for (_, lines) in &neighbours {
                let server = &server;
                let sink = Arc::clone(&sink);
                scope.spawn(move || {
                    for line in lines {
                        server.submit(line, &sink);
                    }
                });
            }
        });
        let finals = server.drain();
        let responses = lines.lock().unwrap().clone();
        (finals, responses)
    };

    let (without, _) = run(false);
    let (with, responses) = run(true);

    // The hog hit the hard rung: its envelopes/status carry the
    // forced_window gauge and windowed residency gauges.
    let hog_resp: Vec<&String> = responses
        .iter()
        .filter(|l| l.contains("\"tenant\":\"hog\""))
        .collect();
    assert!(
        hog_resp.iter().any(|l| l.contains("\"forced_window\":")),
        "hog never reached the forced-window rung: {hog_resp:?}"
    );
    assert!(
        hog_resp.iter().any(|l| l.contains("\"budget_seals\":")),
        "hog never crossed the soft budget rung"
    );
    let status = hog_resp
        .iter()
        .find(|l| l.contains("\"resident_bytes\":"))
        .expect("post-degradation status must expose residency gauges");
    assert!(status.contains("\"retired_txns\":"));
    assert!(
        !hog_resp.iter().any(|l| l.contains("\"code\":429")),
        "budget pressure must degrade, not reject"
    );
    // Degraded, not failed: the hog still produces a final verdict, and
    // the whole ladder is deterministic — the solo oracle under the same
    // config reproduces it byte-for-byte.
    let f = final_for(&with, "hog");
    assert!(f.ok.is_some(), "hog must keep serving under forced-window");
    let want = solo_verdict(&cfg, "hog", &hog_lines);
    assert_eq!(f.verdict, want, "budget ladder must be deterministic");

    // Neighbours are byte-identical with and without the hog.
    for (name, _) in &neighbours {
        assert_eq!(
            final_for(&with, name).verdict,
            final_for(&without, name).verdict,
            "neighbour {name} perturbed by another tenant's budget degradation"
        );
    }
}

/// Budget/window state is crash-durable: a windowed, budget-capped
/// tenant killed mid-ingest (snapshot + journal on disk) and restarted
/// must converge to the byte-identical final envelope of an
/// uninterrupted run — including the carried (possibly tightened)
/// window policy and retirement gauges.
#[test]
fn windowed_crash_recovery_preserves_budget_state() {
    let mut cfg = small_cfg();
    cfg.window = elle::stream::WindowPolicy::TxnCount(24);
    cfg.max_tenant_resident_bytes = Some(24 * 1024);
    let tenants: Vec<(String, Vec<String>)> = (0..2)
        .map(|t| {
            let name = format!("wcr-{t}");
            let lines = tagged_lines(&name, &rotating_log(840 + t, 300));
            (name, lines)
        })
        .collect();
    let mut wire: Vec<&String> = Vec::new();
    let longest = tenants.iter().map(|(_, l)| l.len()).max().unwrap();
    for i in 0..longest {
        for (_, lines) in &tenants {
            if let Some(l) = lines.get(i) {
                wire.push(l);
            }
        }
    }
    // Crash ~60% in, past the first forced retirements.
    let split = wire.len() * 3 / 5;
    let discard: Sink = Arc::new(|_| {});

    let dir_a = tmp_dir("wcr_a");
    let mut cfg_a = cfg.clone();
    cfg_a.data_dir = Some(dir_a.clone());
    let server = Server::start(cfg_a, Arc::clone(&discard)).unwrap();
    for line in &wire {
        server.submit(line, &discard);
    }
    let want = server.drain();

    let dir_b = tmp_dir("wcr_b");
    let mut cfg_b = cfg.clone();
    cfg_b.data_dir = Some(dir_b.clone());
    let server = Server::start(cfg_b.clone(), Arc::clone(&discard)).unwrap();
    for line in &wire[..split] {
        server.submit(line, &discard);
    }
    server.abort();
    let server = Server::start(cfg_b, Arc::clone(&discard)).unwrap();
    for line in &wire[split..] {
        server.submit(line, &discard);
    }
    let got = server.drain();

    for w in &want {
        let g = final_for(&got, &w.tenant);
        assert_eq!(
            g.verdict, w.verdict,
            "tenant {}: windowed crash recovery diverged",
            w.tenant
        );
        // The windowed gauges themselves survived: the final envelope
        // of a retiring tenant carries a window object.
        assert!(
            w.verdict.contains("\"window\":{"),
            "tenant {}: expected windowed gauges in the final envelope",
            w.tenant
        );
    }
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// A strict durable tenant failed by an undecodable event body stays
/// failed across a restart, for the live reason: the restarted
/// service's final verdict for it is byte-identical to the live one.
/// With `snapshot_events` 2 the failing line is also the one that
/// reaches the rotation threshold; with 1000 no rotation happens and
/// the reason can only come back from the journal.
#[test]
fn strict_failure_survives_restart_with_its_reason() {
    let invoke = r#"{"tenant":"s0","event":{"index":0,"process":0,"kind":"Invoke","mops":[{"Append":{"key":1,"elem":1}}],"time_ns":null}}"#;
    let bad = r#"{"tenant":"s0","event":{"index":1,"process":0,"kind":"Okk","mops":[{"Append":{"key":1,"elem":1}}],"time_ns":null}}"#;
    for snapshot_events in [2, 1000] {
        let dir = tmp_dir(&format!("strict_restart_{snapshot_events}"));
        let cfg = ServeConfig {
            recovery: elle::history::RecoveryPolicy::Strict,
            snapshot_events,
            data_dir: Some(dir.clone()),
            ..small_cfg()
        };
        let discard: Sink = Arc::new(|_| {});
        let server = Server::start(cfg.clone(), Arc::clone(&discard)).unwrap();
        server.submit(invoke, &discard);
        server.submit(bad, &discard);
        let live = server.drain();
        let live = final_for(&live, "s0");
        assert!(
            live.verdict.contains("\"code\":422")
                && live.verdict.contains("unknown variant `Okk` for EventKind"),
            "snapshot_events {snapshot_events}: live verdict {}",
            live.verdict
        );

        // Restart on the same data directory; any request opens the
        // tenant, which replays its store.
        let server = Server::start(cfg, Arc::clone(&discard)).unwrap();
        server.submit(r#"{"tenant":"s0","op":"status"}"#, &discard);
        let restarted = server.drain();
        assert_eq!(
            final_for(&restarted, "s0").verdict,
            live.verdict,
            "snapshot_events {snapshot_events}: the restarted verdict diverged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Feed one wire line to an in-process tenant, as a worker does:
/// events through `Tenant::ingest_owned`, undecodable bodies through
/// `ingest_bad`, `seal`
/// ops through `Tenant::seal`, `status` ops through
/// `Tenant::status_line`. Returns the verdict envelope of any seal the
/// line caused, or the status line.
fn feed(t: &mut Tenant, cfg: &ServeConfig, line: &str) -> Option<String> {
    match parse_request(line).expect("test wire lines parse") {
        Request::Event { event, .. } => t.ingest_owned(cfg, *event).expect("durable ingest").sealed,
        Request::BadEvent { message, .. } => {
            t.ingest_bad(cfg, &message).expect("durable ingest").sealed
        }
        Request::Seal { .. } => Some(t.seal().expect("durable seal")),
        Request::Status { tenant: Some(_) } => Some(t.status_line()),
        other => panic!("not a tenant line: {other:?}"),
    }
}

/// The one journal file in a tenant's directory.
fn journal_of(tenant_dir: &Path) -> PathBuf {
    let mut found: Vec<PathBuf> = std::fs::read_dir(tenant_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_str().unwrap();
            name.starts_with("journal.") && name.ends_with(".ndjson")
        })
        .collect();
    assert_eq!(found.len(), 1, "{found:?}");
    found.pop().unwrap()
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).unwrap();
        }
    }
}

fn is_checkpoint(line: &str) -> bool {
    line.starts_with("{\"checkpoint\":")
}

/// A verdict envelope without its `quarantined` gauge.
fn without_quarantine(envelope: &str) -> String {
    match envelope.find(",\"quarantined\":") {
        Some(at) => {
            let rest = &envelope[at + 1..];
            let end = rest.find(',').unwrap();
            format!("{}{}", &envelope[..at], &rest[end..])
        }
        None => envelope.to_string(),
    }
}

/// The crash windows of the checkpoint protocol, byte by byte. A
/// durable tenant with a soft-rung budget seal, an explicit `seal` op
/// and mid-epoch checkpoints is killed twice: once right after a
/// checkpoint record, once right after an event line. Its journal is
/// then cut at every byte offset inside that last record:
///
/// * inside the checkpoint, a restart fed the rest of the wire must
///   end in the uninterrupted run's final envelope, byte for byte; an
///   intact last checkpoint must leave nothing to re-seal;
/// * inside the event line, a restart that resends the line, crashes
///   again, restarts again and gets the rest must end in the same
///   envelope, up to one quarantined fragment.
#[test]
fn checkpoint_crash_windows_restart_byte_identical() {
    let name = "cw";
    let mut wire = tagged_lines(name, &rotating_log(4242, 200));
    wire.insert(
        wire.len() / 4,
        format!("{{\"tenant\":\"{name}\",\"op\":\"seal\"}}"),
    );
    let cfg_in = |dir: &Path| ServeConfig {
        epoch_txns: Some(10),
        snapshot_events: 7,
        max_tenant_resident_bytes: Some(32 * 1024),
        data_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    };

    let dir_ref = tmp_dir("cw_ref");
    let cfg = cfg_in(&dir_ref);
    let (mut t, _) = Tenant::open(name, &cfg).unwrap();
    let mut budget_seal_at = None;
    for (i, line) in wire.iter().enumerate() {
        if let Some(e) = feed(&mut t, &cfg, line) {
            if e.contains("\"budget_seals\":") {
                budget_seal_at.get_or_insert(i);
            }
        }
    }
    let want = t.close().verdict;
    // Both kills come after the soft rung has fired, so the restarts
    // must bring its gauge and latch back from a checkpoint.
    let kill_after = budget_seal_at.expect("the soft rung fires") + 1;
    assert!(kill_after < wire.len() * 3 / 4, "{kill_after}");

    for (case, last_is_checkpoint) in [("checkpoint", true), ("event", false)] {
        // Kill the tenant just after a line of the wanted kind.
        let dir = tmp_dir(&format!("cw_{case}"));
        let cfg = cfg_in(&dir);
        let tenant_dir = dir.join("tenants").join(name);
        let (mut t, _) = Tenant::open(name, &cfg).unwrap();
        let mut fed = 0;
        loop {
            feed(&mut t, &cfg, &wire[fed]);
            fed += 1;
            let journal = std::fs::read_to_string(journal_of(&tenant_dir)).unwrap();
            let last = journal.lines().last().unwrap_or("");
            if fed > kill_after && is_checkpoint(last) == last_is_checkpoint {
                break;
            }
        }
        drop(t);
        let journal = std::fs::read_to_string(journal_of(&tenant_dir)).unwrap();
        let start = journal[..journal.len() - 1]
            .rfind('\n')
            .map_or(0, |i| i + 1);
        if last_is_checkpoint {
            // Intact: the whole prefix is checkpointed, nothing re-seals.
            let (_, replayed) = Tenant::open(name, &cfg).unwrap();
            assert!(replayed.is_empty(), "recovery re-sealed {replayed:?}");
        }

        for cut in start..journal.len() {
            let at = tmp_dir(&format!("cw_{case}_{cut}"));
            copy_dir(&dir, &at);
            let cfg = cfg_in(&at);
            std::fs::write(journal_of(&at.join("tenants").join(name)), &journal[..cut]).unwrap();
            let (mut t, _) = Tenant::open(name, &cfg).unwrap();
            let got = if last_is_checkpoint {
                for line in &wire[fed..] {
                    feed(&mut t, &cfg, line);
                }
                let got = t.close().verdict;
                assert_eq!(got, want, "cut at byte {cut} of the last checkpoint");
                got
            } else {
                feed(&mut t, &cfg, &wire[fed - 1]);
                drop(t);
                let (mut t, _) = Tenant::open(name, &cfg).unwrap();
                for line in &wire[fed..] {
                    feed(&mut t, &cfg, line);
                }
                let got = t.close().verdict;
                assert_eq!(
                    without_quarantine(&got),
                    without_quarantine(&want),
                    "cut at byte {cut} of the last event line"
                );
                got
            };
            assert!(
                !got.contains("\"quarantined\":") || got.contains("\"quarantined\":1,"),
                "cut at byte {cut}: {got}"
            );
            let _ = std::fs::remove_dir_all(&at);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&dir_ref);
}

/// The journal's bytes since the snapshot, split into lines the
/// checker ingested and lines it skipped (index regressions — resent
/// duplicates — and undecodable lines). Checkpoints count as neither.
fn journal_bytes(tenant_dir: &Path) -> (usize, usize) {
    let mut last = std::fs::read_to_string(tenant_dir.join("snapshot.ndjson"))
        .ok()
        .and_then(|raw| {
            let (_, events) = elle::history::snapshot_from_str(&raw).unwrap();
            events.last().map(|e| e.index)
        });
    let (mut live, mut skipped) = (0, 0);
    let journal = std::fs::read_to_string(journal_of(tenant_dir)).unwrap();
    for line in journal.lines().filter(|l| !is_checkpoint(l)) {
        match elle::history::event_from_json(line) {
            Ok(ev) if last.is_none_or(|i| ev.index > i) => {
                last = Some(ev.index);
                live += line.len() + 1;
            }
            _ => skipped += line.len() + 1,
        }
    }
    (live, skipped)
}

/// Each event is written once, as exact byte counts:
///
/// * an unbounded durable tenant fed ten epochs writes no snapshot;
///   its journal is exactly its event lines, in order, with one
///   checkpoint line under 512 bytes after each seal's line;
/// * fed every line three times (and one undecodable line), it
///   compacts, so after every seal the journal holds no more skipped
///   bytes than live ones, and its final envelope still equals the
///   ephemeral oracle's, quarantine gauge included;
/// * a windowed tenant compacts at each seal that advances its base.
#[test]
fn durable_tenant_journals_each_event_once() {
    let log = tenant_log(31, 200);
    let cfg_in = |dir: &Path| ServeConfig {
        epoch_txns: Some(20),
        data_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    };

    let name = "once";
    let wire = tagged_lines(name, &log);
    assert_eq!(wire.len(), log.len());
    let dir = tmp_dir("write_once");
    let cfg = cfg_in(&dir);
    let (mut t, _) = Tenant::open(name, &cfg).unwrap();
    // The journal this must write: `Some(event line)` or `None` for a
    // checkpoint.
    let mut want: Vec<Option<String>> = Vec::new();
    for (line, ev) in wire.iter().zip(log.events()) {
        let sealed = feed(&mut t, &cfg, line);
        let mut json = String::new();
        elle::history::event_to_json(ev, &mut json);
        want.push(Some(json));
        if sealed.is_some() {
            want.push(None);
        }
    }
    assert_eq!(want.iter().filter(|l| l.is_none()).count(), 10);
    t.close();
    want.push(None);
    let tenant_dir = dir.join("tenants").join(name);
    assert!(!tenant_dir.join("snapshot.ndjson").exists());
    let journal = std::fs::read_to_string(tenant_dir.join("journal.0.ndjson")).unwrap();
    let got: Vec<&str> = journal.lines().collect();
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        match w {
            Some(event) => assert_eq!(g, event),
            None => assert!(is_checkpoint(g) && g.len() < 512, "{g}"),
        }
    }
    let event_bytes: usize = want.iter().flatten().map(|l| l.len() + 1).sum();
    let checkpoint_bytes: usize = got
        .iter()
        .filter(|l| is_checkpoint(l))
        .map(|l| l.len() + 1)
        .sum();
    assert_eq!(journal.len(), event_bytes + checkpoint_bytes);
    assert!(checkpoint_bytes < 11 * 512);
    let _ = std::fs::remove_dir_all(&dir);

    let name = "thrice";
    let mut wire = Vec::new();
    for line in tagged_lines(name, &log) {
        wire.extend([line.clone(), line.clone(), line]);
    }
    wire.insert(
        7,
        r#"{"tenant":"thrice","event":{"index":3,"process":0,"kind":"Okk","mops":[],"time_ns":null}}"#
            .to_string(),
    );
    let dir = tmp_dir("write_once_resend");
    let cfg = cfg_in(&dir);
    let tenant_dir = dir.join("tenants").join(name);
    let (mut t, _) = Tenant::open(name, &cfg).unwrap();
    for line in &wire {
        if feed(&mut t, &cfg, line).is_some() {
            let (live, skipped) = journal_bytes(&tenant_dir);
            assert!(skipped <= live, "{skipped} skipped > {live} live bytes");
        }
    }
    assert!(
        tenant_dir.join("snapshot.ndjson").exists(),
        "resends compact"
    );
    let got = t.close().verdict;
    assert!(got.contains("\"quarantined\":"), "{got}");
    assert_eq!(got, solo_verdict(&cfg, name, &wire));
    let _ = std::fs::remove_dir_all(&dir);

    let name = "windowed";
    let dir = tmp_dir("write_once_windowed");
    let cfg = ServeConfig {
        window: elle::stream::WindowPolicy::TxnCount(24),
        ..cfg_in(&dir)
    };
    let tenant_dir = dir.join("tenants").join(name);
    let (mut t, _) = Tenant::open(name, &cfg).unwrap();
    let (mut retired, mut compactions) = (0, 0);
    for line in &tagged_lines(name, &rotating_log(77, 300)) {
        if feed(&mut t, &cfg, line).is_none() {
            continue;
        }
        let now = gauge(&t.status_line(), "retired_txns");
        let journal = std::fs::read_to_string(journal_of(&tenant_dir)).unwrap();
        if now > retired {
            // Compacted at this seal: the fresh journal holds only the
            // seal's checkpoint, and the snapshot carries the new base.
            assert_eq!(journal.lines().count(), 1, "{journal}");
            let snapshot = std::fs::read_to_string(tenant_dir.join("snapshot.ndjson")).unwrap();
            let header = snapshot.lines().next().unwrap();
            assert!(header.contains(&format!("\"base\":{now},")), "{header}");
            compactions += 1;
            retired = now;
        }
        assert!(is_checkpoint(journal.lines().last().unwrap()));
    }
    assert!(compactions > 1, "the window retired {retired} txns");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A data directory written before journals carried checkpoints opens
/// and continues exactly as the binary that wrote it continued it.
/// `tests/fixtures/parent_data_dir/` was written by that `elle-serve`
/// (`--epoch-txns 5 --snapshot-events 16 --workers 1`): tenant `a` was
/// drained (snapshot, empty journal); tenant `b` was then fed more lines
/// and SIGKILLed mid-epoch (snapshot plus a 7-line journal). Fed the
/// same remainder of the wire, this binary's responses must be the ones
/// that binary printed, byte for byte.
#[test]
fn parent_data_directory_opens_and_continues_byte_identically() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let dir = tmp_dir("parent_data_dir");
    copy_dir(&fixtures.join("parent_data_dir"), &dir);
    let remainder = std::fs::read(fixtures.join("parent_data_dir.remainder.ndjson")).unwrap();
    let want = std::fs::read_to_string(fixtures.join("parent_data_dir.expected.ndjson")).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_elle-serve"))
        .args(["--data-dir", dir.to_str().unwrap()])
        .args([
            "--epoch-txns",
            "5",
            "--snapshot-events",
            "16",
            "--workers",
            "1",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary runs");
    child.stdin.take().unwrap().write_all(&remainder).unwrap();
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success(), "{:?}", out.status);
    assert_eq!(String::from_utf8(out.stdout).unwrap(), want);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Closing a tenant mid-epoch seals that epoch, so the checkpoint
/// written at close records no transactions since the seal, and the
/// tenant reopened from its data directory seals its next epoch at the
/// full watermark.
#[test]
fn a_closed_tenant_reopens_at_a_fresh_epoch() {
    let dir = tmp_dir("close_reopen");
    let cfg = ServeConfig {
        epoch_txns: Some(5),
        data_dir: Some(dir.clone()),
        ..small_cfg()
    };
    let lines = tagged_lines("c0", &tenant_log(29, 40));
    let is_invoke = |line: &str| line.contains("\"kind\":\"Invoke\"");
    let (mut t, _) = Tenant::open("c0", &cfg).unwrap();
    let (mut seals, mut invokes, mut fed) = (0, 0, 0);
    // Two invocations past the first seal, then close mid-epoch.
    while seals == 0 || invokes < 2 {
        invokes += usize::from(is_invoke(&lines[fed]));
        if feed(&mut t, &cfg, &lines[fed]).is_some() {
            seals += 1;
            invokes = 0;
        }
        fed += 1;
    }
    t.close();
    let journal = std::fs::read_to_string(journal_of(&dir.join("tenants/c0"))).unwrap();
    let last = journal.lines().last().unwrap();
    assert!(
        is_checkpoint(last) && last.contains("\"events_this_epoch\":0,\"txns_since_seal\":0,"),
        "{last}"
    );

    let (mut t, _) = Tenant::open("c0", &cfg).unwrap();
    let mut invokes = 0;
    for line in &lines[fed..] {
        invokes += usize::from(is_invoke(line));
        if feed(&mut t, &cfg, line).is_some() {
            break;
        }
    }
    assert_eq!(invokes, 5, "the first seal after reopening");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Batched handoff keeps every tenant's responses in order: eight
/// contended tenants on two workers, fed from one thread in bursts
/// whose gaps cycle through none, 0.2 ms and 3 ms (below, near and
/// above a worker's nap quantum, so lines land on draining, napping and
/// parked workers), each tenant with one `seal` and one `status` op
/// mid-stream. Each tenant's response lines, in arrival order, equal a
/// single-thread replay of its lines through `Tenant`, and a drain
/// right after the last burst returns every final.
#[test]
fn batched_handoff_keeps_each_tenants_responses_in_order() {
    let cfg = ServeConfig {
        workers: 2,
        ..small_cfg()
    };
    let tenants: Vec<(String, Vec<String>)> = (0..8)
        .map(|t| {
            let name = format!("hb-{t}");
            let mut lines = tagged_lines(&name, &tenant_log(900 + t, 40));
            let third = lines.len() / 3;
            lines.insert(
                2 * third,
                format!("{{\"tenant\":\"{name}\",\"op\":\"status\"}}"),
            );
            lines.insert(third, format!("{{\"tenant\":\"{name}\",\"op\":\"seal\"}}"));
            (name, lines)
        })
        .collect();
    let mut wire: Vec<&String> = Vec::new();
    let longest = tenants.iter().map(|(_, l)| l.len()).max().unwrap();
    for i in 0..longest {
        for (_, lines) in &tenants {
            wire.extend(lines.get(i));
        }
    }
    let gaps = [
        std::time::Duration::ZERO,
        std::time::Duration::from_micros(200),
        std::time::Duration::from_millis(3),
    ];
    let (sink, received) = collecting_sink();
    let server = Server::start(cfg.clone(), Arc::clone(&sink)).unwrap();
    for (burst, gap) in wire.chunks(6).zip(gaps.iter().cycle()) {
        for line in burst {
            assert_eq!(server.submit(line, &sink), Submitted::Ok);
        }
        std::thread::sleep(*gap);
    }
    let finals = server.drain();
    assert_eq!(finals.len(), tenants.len());
    let received = received.lock().unwrap().clone();
    for (name, lines) in &tenants {
        let (mut t, _) = Tenant::open(name, &cfg).unwrap();
        let want: Vec<String> = lines.iter().filter_map(|l| feed(&mut t, &cfg, l)).collect();
        let prefix = format!("{{\"tenant\":\"{name}\",");
        let got: Vec<&String> = received.iter().filter(|l| l.starts_with(&prefix)).collect();
        assert_eq!(got, want.iter().collect::<Vec<_>>(), "tenant {name}");
        assert!(want.iter().any(|l| l.contains("\"status\":{")));
        assert_eq!(final_for(&finals, name).verdict, t.close().verdict);
    }
}

/// A `status` op for a tenant the service does not hold is answered on
/// the caller's thread with a 404. It registers nothing and writes
/// nothing, so drain reports no final for it and a restart recovers
/// nothing; a later event opens the tenant as usual.
#[test]
fn status_for_an_unknown_tenant_is_a_404_and_creates_nothing() {
    let dir = tmp_dir("status_404");
    let cfg = ServeConfig {
        data_dir: Some(dir.clone()),
        ..small_cfg()
    };
    let (sink, lines) = collecting_sink();
    let server = Server::start(cfg.clone(), Arc::clone(&sink)).unwrap();
    assert_eq!(
        server.submit(r#"{"tenant":"typo","op":"status"}"#, &sink),
        Submitted::Rejected
    );
    server.submit(r#"{"op":"status"}"#, &sink);
    let finals = server.drain();
    assert_eq!(
        *lines.lock().unwrap(),
        [
            r#"{"tenant":"typo","error":{"code":404,"reason":"unknown tenant"}}"#,
            r#"{"status":{"tenants":0,"buffered_bytes":0,"draining":false}}"#,
        ]
    );
    assert!(finals.is_empty(), "{finals:?}");
    assert!(!dir.join("tenants").join("typo").exists());

    let wire = tagged_lines("typo", &tenant_log(33, 10));
    let server = Server::start(cfg.clone(), Arc::clone(&sink)).unwrap();
    for line in &wire {
        assert_eq!(server.submit(line, &sink), Submitted::Ok);
    }
    let finals = server.drain();
    assert_eq!(finals.len(), 1);
    assert_eq!(
        final_for(&finals, "typo").verdict,
        solo_verdict(&cfg, "typo", &wire)
    );
    assert!(dir.join("tenants").join("typo").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A window that retires nothing stops tightening. Contended tenants
/// keep every key live, so under a 16 KiB budget with an unbounded
/// window the hard rung's seal retires nothing. The rung then stays
/// spent instead of halving the window and sealing a one-event epoch at
/// every later event; the served verdict is still the solo oracle's,
/// and a kill and restart after the rung fired converges to the
/// uninterrupted run's final envelope byte for byte (the spent latch
/// is part of the checkpoint).
#[test]
fn a_hard_rung_that_retires_nothing_fires_once() {
    let cfg = ServeConfig {
        max_tenant_resident_bytes: Some(16 * 1024),
        ..ServeConfig::default()
    };
    let discard: Sink = Arc::new(|_| {});
    for seed in [1, 7, 42] {
        let name = format!("spent-{seed}");
        let wire = tagged_lines(&name, &tenant_log(seed, 90));
        let (sink, lines) = collecting_sink();
        let server = Server::start(cfg.clone(), Arc::clone(&sink)).unwrap();
        for line in &wire {
            assert_eq!(server.submit(line, &sink), Submitted::Ok);
        }
        let finals = server.drain();
        let served = &final_for(&finals, &name).verdict;
        let envelopes: Vec<String> = lines
            .lock()
            .unwrap()
            .iter()
            .cloned()
            .chain([served.clone()])
            .collect();
        let fired = envelopes
            .iter()
            .position(|l| l.contains("\"forced_window\":"))
            .unwrap_or_else(|| panic!("seed {seed}: the hard rung never fired"));
        let one_event = envelopes
            .iter()
            .filter(|l| l.contains("\"events\":1,"))
            .count();
        assert!(one_event <= 1, "seed {seed}: {one_event} one-event epochs");
        assert!(served.contains("\"forced_window\":1,"), "{served}");
        assert_eq!(*served, solo_verdict(&cfg, &name, &wire), "seed {seed}");

        // Kill past the line whose seal spent the rung, then restart.
        let mut fed = 0;
        let (mut t, _) = Tenant::open(&name, &cfg).unwrap();
        let mut seals = 0;
        while seals <= fired {
            seals += usize::from(feed(&mut t, &cfg, &wire[fed]).is_some());
            fed += 1;
        }
        let split = fed + (wire.len() - fed) / 2;
        let dir = tmp_dir(&format!("hard_spent_{seed}"));
        let durable = ServeConfig {
            data_dir: Some(dir.clone()),
            ..cfg.clone()
        };
        let server = Server::start(durable.clone(), Arc::clone(&discard)).unwrap();
        for line in &wire[..split] {
            server.submit(line, &discard);
        }
        server.abort();
        let server = Server::start(durable, Arc::clone(&discard)).unwrap();
        for line in &wire[split..] {
            server.submit(line, &discard);
        }
        let got = server.drain();
        assert_eq!(final_for(&got, &name).verdict, *served, "seed {seed}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Wire lines for one tenant's single-process transactions, each
/// appending element `e` of `elems` to `key`, from event `*index` on.
fn append_lines(
    tenant: &str,
    key: u64,
    elems: std::ops::Range<u64>,
    index: &mut u64,
) -> Vec<String> {
    let mut lines = Vec::new();
    for e in elems {
        for kind in ["Invoke", "Ok"] {
            lines.push(format!(
                "{{\"tenant\":\"{tenant}\",\"event\":{{\"index\":{index},\"process\":0,\"kind\":\"{kind}\",\"mops\":[{{\"Append\":{{\"key\":{key},\"elem\":{e}}}}}],\"time_ns\":null}}}}"
            ));
            *index += 1;
        }
    }
    lines
}

/// The value of an envelope's or status line's numeric field, 0 when
/// absent.
fn gauge(envelope: &str, field: &str) -> usize {
    let tag = format!("\"{field}\":");
    envelope.find(&tag).map_or(0, |at| {
        let rest = &envelope[at + tag.len()..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..end].parse().unwrap()
    })
}

/// A spent hard rung re-arms when a later seal retires something. The
/// tenant appends to key 1 for 100 transactions, then to key 2 for 300.
/// Under a 16 KiB budget the hard rung fires in the key-1 phase and its
/// seal retires nothing, since every transaction touches the key the
/// latest ones touch. The rung stays spent while the key-2 phase grows
/// past the budget, until a watermark seal retires the key-1
/// transactions; residency is still over the budget, so the rung fires
/// again at the next event.
#[test]
fn a_spent_hard_rung_rearms_when_a_seal_retires() {
    let cfg = ServeConfig {
        epoch_txns: Some(20),
        max_tenant_resident_bytes: Some(16 * 1024),
        ..ServeConfig::default()
    };
    let mut index = 0;
    let mut wire = append_lines("rearm", 1, 0..100, &mut index);
    wire.extend(append_lines("rearm", 2, 0..300, &mut index));
    let (mut t, _) = Tenant::open("rearm", &cfg).unwrap();
    let envelopes: Vec<String> = wire.iter().filter_map(|l| feed(&mut t, &cfg, l)).collect();
    let fired = |n: usize| {
        envelopes
            .iter()
            .position(|e| gauge(e, "forced_window") == n)
            .unwrap_or_else(|| panic!("the hard rung fired fewer than {n} times"))
    };
    let (first, second) = (fired(1), fired(2));
    let retired = |i: usize| gauge(&envelopes[i], "retired_txns");
    assert_eq!(retired(first), 0, "the first hard seal retires nothing");
    assert!(
        second > first + 1,
        "the spent rung held through watermark seals"
    );
    assert_eq!(retired(second - 1), 100, "a watermark seal retired key 1");
    assert_eq!(
        gauge(&envelopes[second], "events"),
        1,
        "and the rung fired next"
    );
}

/// Run `stop` on a server with `max_epoch` set that has answered one
/// `seal` op, on a thread of its own, and require it to return within
/// 10 s: a hang fails the test instead of blocking it.
fn stops_within_ten_seconds(stop: fn(Server)) {
    let cfg = ServeConfig {
        max_epoch: Some(Duration::from_millis(40)),
        ..small_cfg()
    };
    let (sink, lines) = collecting_sink();
    let server = Server::start(cfg, Arc::clone(&sink)).unwrap();
    assert_eq!(
        server.submit(r#"{"tenant":"w","op":"seal"}"#, &sink),
        Submitted::Ok
    );
    let asked = Instant::now();
    while lines.lock().unwrap().is_empty() {
        assert!(asked.elapsed() < Duration::from_secs(10), "no answer");
        std::thread::sleep(Duration::from_millis(1));
    }
    let (done, stopped) = std::sync::mpsc::channel();
    let stopping = std::thread::spawn(move || {
        stop(server);
        let _ = done.send(());
    });
    let waited = stopped.recv_timeout(Duration::from_secs(10));
    assert_ne!(
        waited,
        Err(std::sync::mpsc::RecvTimeoutError::Timeout),
        "the server did not stop within 10 s"
    );
    stopping.join().expect("stopping the server panicked");
}

/// Each worker keeps its own watchdog tick, so only the server holds
/// the workers' mailboxes open: `abort` disconnects them and returns.
#[test]
fn abort_returns_with_max_epoch_set() {
    stops_within_ten_seconds(Server::abort);
}

/// As `abort`, so dropping a server with `max_epoch` set returns.
#[test]
fn drop_returns_with_max_epoch_set() {
    stops_within_ten_seconds(drop);
}

/// A tenant holding events below its watermark is force-sealed by its
/// worker's tick with no further input, and the forced verdict is the
/// batch checker's on that prefix. A failed strict-mode tenant on the
/// same worker, whose epoch opened earlier, is never force-sealed.
#[test]
fn a_held_epoch_is_force_sealed_without_further_input() {
    let cfg = ServeConfig {
        recovery: elle::history::RecoveryPolicy::Strict,
        workers: 1,
        max_epoch: Some(Duration::from_millis(100)),
        ..small_cfg()
    };
    let held = tenant_log(52, 10);
    assert!(held.pair().unwrap().len() < cfg.epoch_txns.unwrap());
    let (sink, lines) = collecting_sink();
    let server = Server::start(cfg.clone(), Arc::clone(&sink)).unwrap();
    let mut wire = tagged_lines("failed", &tenant_log(51, 4));
    wire.push(r#"{"tenant":"failed","event":{"index":"x"}}"#.to_string());
    wire.extend(tagged_lines("held", &held));
    for line in &wire {
        assert_eq!(server.submit(line, &sink), Submitted::Ok);
    }
    let fed = Instant::now();
    let forced = loop {
        let envelope = lines
            .lock()
            .unwrap()
            .iter()
            .find(|l| l.starts_with(r#"{"tenant":"held","#))
            .cloned();
        if let Some(envelope) = envelope {
            break envelope;
        }
        assert!(fed.elapsed() < Duration::from_secs(2), "no forced seal");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(forced.contains(r#""epoch":0,"#), "{forced}");
    assert!(forced.contains(r#""forced_seals":1,"#), "{forced}");
    let batch = Checker::new(cfg.opts).check(&held.pair().unwrap());
    assert_eq!(
        report_slice(&forced),
        format!("\"report\":{}}}", serde_json::to_string(&batch).unwrap())
    );
    // Two more ticks pass; the failed tenant only has its 422.
    std::thread::sleep(Duration::from_millis(60));
    let failed: Vec<String> = lines
        .lock()
        .unwrap()
        .iter()
        .filter(|l| l.starts_with(r#"{"tenant":"failed","#))
        .cloned()
        .collect();
    assert_eq!(failed.len(), 1, "{failed:?}");
    assert!(failed[0].contains(r#""code":422"#), "{failed:?}");
    server.drain();
}

//! End-to-end robustness suite for `elle-serve`: multi-tenant soak
//! differentials against the batch checker, per-tenant fault isolation
//! (seal panics, budgets), and crash-consistent recovery — in-process
//! through [`Server`] and through the real binary under SIGKILL.

use elle::dbsim::{chaos_session, delivered_lines, FaultSchedule};
use elle::prelude::*;
use elle::serve::{solo_verdict, ServeConfig, Server, Sink, TenantFinal};
use std::io::Write;
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};

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
    use elle::serve::Submitted;
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
    server.submit(
        &format!("{{\"tenant\":\"t\",\"event\":{}}}", "x".repeat(400)),
        &sink,
    );
    server.submit("{torn json", &sink);
    server.submit("{\"tenant\":\"../evil\",\"op\":\"seal\"}", &sink);
    for line in tagged_lines("t", &log) {
        server.submit(&line, &sink);
    }
    let finals = server.drain();
    let responses = lines.lock().unwrap().clone();
    assert!(responses.iter().any(|l| l.contains("\"code\":400")));
    let batch = Checker::new(cfg.opts).check(&log.pair().unwrap());
    assert_eq!(final_for(&finals, "t").ok, Some(batch.ok()));
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

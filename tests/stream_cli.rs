//! The `elle-stream` command-line interface, end to end — including the
//! gen → NDJSON → `elle-stream` vs `elle-check` differential on the
//! checked-in fixture.

use elle::prelude::*;
use std::process::Command;

fn stream_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_elle-stream"))
}

fn check_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_elle-check"))
}

/// The paper's §7.1 TiDB trio fixture (`history_to_json` wire data).
const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/tidb_g_single.json"
);

/// The `report` field of the last epoch line of `--json` output.
/// `elle-stream` always emits `"report":{…}` as the final field of the
/// epoch object, so the report is the slice from the marker to the
/// object's closing brace.
fn last_epoch_report(stdout: &str) -> Report {
    let line = stdout.lines().last().expect("at least one epoch line");
    let marker = "\"report\":";
    let at = line.find(marker).expect("epoch line carries a report");
    let json = &line[at + marker.len()..line.len() - 1];
    serde_json::from_str(json).expect("report field parses")
}

#[test]
fn help_smoke() {
    let out = stream_bin().arg("--help").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for flag in ["--epoch-txns", "--follow", "--json", "--gen", "--model"] {
        assert!(stdout.contains(flag), "missing {flag} in usage:\n{stdout}");
    }
    // A usage error reports on stderr with exit 2.
    let out = stream_bin().arg("--nope").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: elle-stream"));
}

#[test]
fn fixture_stream_diffs_clean_against_elle_check() {
    // gen → elle-stream → diff vs elle-check: export the fixture as
    // NDJSON, stream it with a tiny epoch size, and require the final
    // epoch's report to be byte-identical to the batch CLI's.
    let raw = std::fs::read_to_string(FIXTURE).expect("fixture readable");
    let h = elle::history::history_from_json(&raw).expect("fixture parses");
    let nd_path = std::env::temp_dir().join("elle_stream_cli_fixture.ndjson");
    std::fs::write(&nd_path, elle::history::history_to_ndjson(&h)).unwrap();

    let stream_out = stream_bin()
        .args([
            nd_path.to_str().unwrap(),
            "--model",
            "snapshot-isolation",
            "--epoch-txns",
            "2",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(stream_out.status.code(), Some(1), "{stream_out:?}");
    let stream_report = last_epoch_report(&String::from_utf8_lossy(&stream_out.stdout));

    let check_out = check_bin()
        .args([FIXTURE, "--model", "snapshot-isolation", "--json"])
        .output()
        .expect("binary runs");
    assert_eq!(check_out.status.code(), Some(1), "{check_out:?}");
    let check_report: Report =
        serde_json::from_str(&String::from_utf8_lossy(&check_out.stdout)).unwrap();

    assert_eq!(
        serde_json::to_string(&stream_report).unwrap(),
        serde_json::to_string(&check_report).unwrap(),
        "stream and batch CLI reports differ on the fixture"
    );
    let _ = std::fs::remove_file(&nd_path);
}

#[test]
fn generated_workload_streams_from_stdin() {
    use std::io::Write as _;
    let params = GenParams::contended(80, ObjectKind::ListAppend).with_seed(5);
    let db = DbConfig::new(IsolationLevel::Serializable, ObjectKind::ListAppend)
        .with_processes(4)
        .with_seed(5);
    let log = elle::gen::run_workload_log(params, db);
    let nd = elle::history::events_to_ndjson(&log);

    let mut child = stream_bin()
        .args(["-", "--epoch-txns", "20", "--process", "--realtime"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(nd.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let epochs = stdout.lines().filter(|l| l.starts_with("epoch")).count();
    assert!(epochs >= 4, "expected several epoch lines:\n{stdout}");
    assert!(stdout.contains("ok"), "{stdout}");
}

#[test]
fn live_gen_mode_smokes() {
    let out = stream_bin()
        .args([
            "--gen",
            "300",
            "--epoch-txns",
            "100",
            "--process",
            "--realtime",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.lines().count() >= 3, "{stdout}");
    let report = last_epoch_report(&stdout);
    assert!(report.ok());
    assert_eq!(report.stats.txns, 300);
}

#[test]
fn malformed_line_reports_position_and_exit_2() {
    let nd_path = std::env::temp_dir().join("elle_stream_cli_bad.ndjson");
    std::fs::write(&nd_path, "{\"oops\"\n").unwrap();
    let out = stream_bin()
        .arg(nd_path.to_str().unwrap())
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 1"));
    let _ = std::fs::remove_file(&nd_path);
}

/// A temp NDJSON file with a clean little generated workload.
fn write_workload(name: &str, n: usize) -> std::path::PathBuf {
    let params = GenParams::contended(n, ObjectKind::ListAppend).with_seed(9);
    let db = DbConfig::new(IsolationLevel::Serializable, ObjectKind::ListAppend)
        .with_processes(4)
        .with_seed(9);
    let log = elle::gen::run_workload_log(params, db);
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, elle::history::events_to_ndjson(&log)).unwrap();
    path
}

#[test]
fn injected_seal_panic_poisons_one_epoch_and_recovers() {
    let nd_path = write_workload("elle_stream_cli_poison.ndjson", 120);
    let out = stream_bin()
        .args([nd_path.to_str().unwrap(), "--epoch-txns", "30", "--json"])
        .args(["--inject-seal-panic", "1"])
        .output()
        .expect("binary runs");
    // The stream keeps sealing past the poisoned epoch and the *final*
    // verdict is healthy, so the exit code is 0.
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let poisoned: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("\"poisoned\""))
        .collect();
    assert_eq!(poisoned.len(), 1, "{stdout}");
    assert!(poisoned[0].contains("\"epoch\":1,"));
    assert!(poisoned[0].contains("\"ok\":null"));
    assert!(poisoned[0].contains("injected seal panic"));
    // Healthy epochs are untouched by the new field.
    assert!(stdout.lines().last().unwrap().contains("\"ok\":true"));
    let report = last_epoch_report(&stdout);
    assert!(report.ok());
    assert_eq!(report.stats.txns, 120);

    // Poisoning the *final* (end-of-stream) seal exits 3 instead.
    let n_epochs = stdout.lines().count();
    let out = stream_bin()
        .args([nd_path.to_str().unwrap(), "--epoch-txns", "30", "--json"])
        .args(["--inject-seal-panic", &(n_epochs - 1).to_string()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let _ = std::fs::remove_file(&nd_path);
}

#[test]
fn quarantine_gauges_reach_the_timing_output() {
    // Duplicate one line mid-stream: strict refuses (exit 2), while
    // --quarantine skips it, reports the gauge, and stays clean.
    let nd_path = write_workload("elle_stream_cli_gauge.ndjson", 60);
    let wire = std::fs::read_to_string(&nd_path).unwrap();
    let dup: String = wire
        .lines()
        .enumerate()
        .flat_map(|(i, l)| if i == 10 { vec![l, l] } else { vec![l] })
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(&nd_path, dup).unwrap();

    let out = stream_bin()
        .arg(nd_path.to_str().unwrap())
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 12"));

    let out = stream_bin()
        .args([nd_path.to_str().unwrap(), "--quarantine", "--timing"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("quarantined: line 12"), "{stderr}");
    assert!(stderr.contains("quarantined"), "{stderr}");
    assert!(stderr.contains("1 events"), "{stderr}");
    let _ = std::fs::remove_file(&nd_path);
}

/// The driver's four gauge rows close each `--timing` table, in one
/// order and with their units: a windowed run of a stream with a
/// duplicated line, under `--quarantine`, where every event forces a
/// seal (`--max-epoch-ms 0`). Keys rotate, so the window retires.
#[test]
fn timing_tables_end_with_the_drivers_gauge_rows() {
    let params = GenParams {
        n_txns: 60,
        min_txn_len: 1,
        max_txn_len: 3,
        active_keys: 2,
        writes_per_key: 4,
        read_prob: 0.4,
        kind: ObjectKind::ListAppend,
        seed: 9,
        final_reads: false,
    };
    let db = DbConfig::new(IsolationLevel::Serializable, ObjectKind::ListAppend)
        .with_processes(4)
        .with_seed(9);
    let wire = elle::history::events_to_ndjson(&elle::gen::run_workload_log(params, db));
    let nd_path = std::env::temp_dir().join("elle_stream_cli_gauge_rows.ndjson");
    let dup: String = wire
        .lines()
        .enumerate()
        .flat_map(|(i, l)| if i == 10 { vec![l, l] } else { vec![l] })
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(&nd_path, dup).unwrap();
    let out = stream_bin()
        .arg(nd_path.to_str().unwrap())
        .args(["--quarantine", "--timing", "--window-txns", "5"])
        .args(["--max-epoch-ms", "0"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let epochs = stderr.matches(" timing:\n").count();
    let last = &stderr[stderr.rfind(" timing:\n").unwrap()..];
    // The (name, value, unit) rows after the total, the peaks aside.
    let gauges: Vec<(String, usize, &str)> = last
        .lines()
        .skip_while(|l| !l.trim_start().starts_with("total"))
        .skip(1)
        .filter_map(|l| {
            let words: Vec<&str> = l.split_whitespace().collect();
            let [name @ .., value, unit] = words.as_slice() else {
                panic!("{l}")
            };
            let name = name.join(" ");
            (!name.ends_with("peak")).then(|| (name, value.parse().unwrap(), *unit))
        })
        .collect();
    let rows: Vec<(&str, &str)> = gauges.iter().map(|(n, _, u)| (n.as_str(), *u)).collect();
    assert_eq!(
        rows,
        [
            ("quarantined", "events"),
            ("forced seals", "seals"),
            ("resident", "bytes"),
            ("retired", "txns"),
        ],
        "{last}"
    );
    assert_eq!(gauges[0].1, 1, "{last}");
    assert_eq!(gauges[1].1, epochs - 1, "{last}");
    let _ = std::fs::remove_file(&nd_path);
}

#[test]
fn oversized_lines_are_capped() {
    let nd_path = write_workload("elle_stream_cli_oversize.ndjson", 40);
    let mut wire = std::fs::read_to_string(&nd_path).unwrap();
    wire.push_str(&format!("{{\"pad\":\"{}\"}}\n", "x".repeat(5000)));
    std::fs::write(&nd_path, wire).unwrap();

    let out = stream_bin()
        .args([nd_path.to_str().unwrap(), "--max-buffered-bytes", "4096"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("4096-byte buffer budget"));

    let out = stream_bin()
        .args([nd_path.to_str().unwrap(), "--max-buffered-bytes", "4096"])
        .arg("--quarantine")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let _ = std::fs::remove_file(&nd_path);
}

/// `--max-buffered-bytes` bounds memory: a 256 MiB line without a
/// newline, piped through stdin under a 150 MB address-space limit, is
/// skipped as it streams past instead of being buffered whole.
#[cfg(unix)]
#[test]
fn buffered_bytes_budget_bounds_memory_on_a_newline_free_line() {
    use std::io::Write as _;
    use std::process::Stdio;
    let script = format!(
        "ulimit -v 150000; exec '{}' - --max-buffered-bytes 4096 --quarantine",
        env!("CARGO_BIN_EXE_elle-stream")
    );
    let run = |mib: usize| {
        let mut child = Command::new("sh")
            .args(["-c", &script])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("sh spawns");
        let mut stdin = child.stdin.take().unwrap();
        let chunk = vec![b'x'; 1 << 20];
        for _ in 0..mib {
            // A child that ran out of memory closes the pipe early.
            if stdin.write_all(&chunk).is_err() {
                break;
            }
        }
        drop(stdin);
        child.wait_with_output().unwrap()
    };
    // The limit leaves room for a short input...
    let out = run(0);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    // ...and for a line far larger than the limit.
    let out = run(256);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains(
            "quarantined: line 1 (byte 0): line exceeds the 4096-byte buffer budget — line skipped"
        ),
        "{stderr}"
    );
}

/// `--follow` keeps a line the producer is still writing across EOF
/// polls and decodes it once its newline arrives (strict mode would
/// exit 2 on a torn line).
#[test]
fn follow_mode_resumes_a_partial_line() {
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::process::Stdio;
    use std::sync::mpsc;
    use std::time::Duration;
    let line = |index: usize, process: u32, kind: &str, elem: u32| {
        format!(
            "{{\"index\":{index},\"process\":{process},\"kind\":\"{kind}\",\
             \"mops\":[{{\"Append\":{{\"key\":1,\"elem\":{elem}}}}}],\"time_ns\":null}}\n"
        )
    };
    let third = line(2, 1, "Invoke", 2);
    let (head, tail) = third.split_at(third.len() / 2);
    let path = std::env::temp_dir().join("elle_stream_cli_follow.ndjson");
    std::fs::write(&path, line(0, 0, "Invoke", 1) + &line(1, 0, "Ok", 1) + head).unwrap();

    let mut child = stream_bin()
        .args([
            path.to_str().unwrap(),
            "--follow",
            "--epoch-events",
            "2",
            "--json",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let (tx, rx) = mpsc::channel();
    let stdout = child.stdout.take().unwrap();
    std::thread::spawn(move || {
        for l in BufReader::new(stdout).lines() {
            if tx.send(l.unwrap()).is_err() {
                break;
            }
        }
    });
    let next = || rx.recv_timeout(Duration::from_secs(20));
    let first = next().expect("epoch 0 is sealed");
    assert!(first.starts_with("{\"epoch\":0,\"txns\":1,"), "{first}");
    // Give the reader time to reach the partial line and poll at EOF.
    std::thread::sleep(Duration::from_millis(300));
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    f.write_all((tail.to_string() + &line(3, 1, "Ok", 2)).as_bytes())
        .unwrap();
    let second = next();
    let _ = child.kill();
    let out = child.wait_with_output().unwrap();
    let second =
        second.unwrap_or_else(|_| panic!("no epoch 1: {}", String::from_utf8_lossy(&out.stderr)));
    assert!(
        second.starts_with("{\"epoch\":1,\"txns\":2,\"events\":2,\"ok\":true,"),
        "{second}"
    );
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_file(&path);
}

/// Blank keepalive lines run the epoch clock: a producer that sends
/// events and then only blank lines, without closing its pipe, gets its
/// epoch force-sealed once it has been open longer than
/// `--max-epoch-ms`, before EOF.
#[test]
fn blank_keepalive_lines_force_a_seal_before_eof() {
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::process::Stdio;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};
    let fixture = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/lost_ack.ndjson"
    ))
    .unwrap();
    let events: String = fixture
        .lines()
        .take(4)
        .map(|l| l.to_string() + "\n")
        .collect();

    let mut child = stream_bin()
        .args(["-", "--max-epoch-ms", "50", "--quarantine", "--json"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let (tx, rx) = mpsc::channel();
    let stdout = child.stdout.take().unwrap();
    std::thread::spawn(move || {
        for l in BufReader::new(stdout).lines() {
            if tx.send(l.unwrap()).is_err() {
                break;
            }
        }
    });
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(events.as_bytes()).unwrap();
    // One blank line every 20 ms, with stdin held open throughout: about
    // 20 of them normally, more only if the binary is slow to start.
    let deadline = Instant::now() + Duration::from_secs(20);
    let forced = loop {
        std::thread::sleep(Duration::from_millis(20));
        stdin.write_all(b"\n").unwrap();
        if let Ok(line) = rx.try_recv() {
            break Some(line);
        }
        if Instant::now() > deadline {
            break None;
        }
    };
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    let forced = forced.unwrap_or_else(|| {
        panic!(
            "no epoch before EOF: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    assert!(
        forced.starts_with("{\"epoch\":0,\"txns\":3,\"events\":4,"),
        "{forced}"
    );
    assert!(forced.contains("\"forced_seals\":1,"), "{forced}");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

/// The `"epoch":N,"txns":N,"events":N` prefix of each verdict line,
/// from `elle-stream --json` or `elle-serve` output alike.
fn epoch_splits(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .filter_map(|line| {
            let at = line.find("\"epoch\":")?;
            let len = line[at..].find(",\"ok\":")?;
            Some(line[at..at + len].to_string())
        })
        .collect()
}

#[test]
fn stream_and_service_seal_a_damaged_stream_at_the_same_points() {
    // `--epoch-txns` counts the transactions the checker admitted: an
    // adopted orphan (the fixture's lost invocation) counts, a resent
    // invocation does not. `elle-stream --quarantine` and `elle-serve`
    // therefore seal at the same events.
    let lost_ack = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/lost_ack.ndjson"
    ))
    .unwrap();
    let invoke = r#"{"index":0,"process":0,"kind":"Invoke","mops":[{"Append":{"key":1,"elem":1}}],"time_ns":null}"#;
    let resent = [
        invoke,
        invoke,
        r#"{"index":1,"process":0,"kind":"Ok","mops":[{"Append":{"key":1,"elem":1}}],"time_ns":null}"#,
        r#"{"index":2,"process":1,"kind":"Invoke","mops":[{"Read":{"key":1,"value":null}}],"time_ns":null}"#,
        r#"{"index":3,"process":1,"kind":"Ok","mops":[{"Read":{"key":1,"value":{"List":[1]}}}],"time_ns":null}"#,
    ]
    .map(|l| format!("{l}\n"))
    .concat();
    for (name, wire, want) in [
        (
            "lost_ack",
            lost_ack,
            ["0,\"txns\":2,\"events\":3", "1,\"txns\":3,\"events\":2"],
        ),
        (
            "resent",
            resent,
            ["0,\"txns\":2,\"events\":4", "1,\"txns\":2,\"events\":1"],
        ),
    ] {
        let path = std::env::temp_dir().join(format!("elle_stream_cli_splits_{name}.ndjson"));
        std::fs::write(&path, &wire).unwrap();
        let out = stream_bin()
            .arg(path.to_str().unwrap())
            .args(["--quarantine", "--json", "--epoch-txns", "2"])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(0), "{name}: {out:?}");
        let streamed = epoch_splits(&String::from_utf8_lossy(&out.stdout));

        let mut child = Command::new(env!("CARGO_BIN_EXE_elle-serve"))
            .args(["--epoch-txns", "2"])
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("binary runs");
        let tagged: String = wire
            .lines()
            .map(|l| format!("{{\"tenant\":\"t0\",\"event\":{l}}}\n"))
            .collect();
        std::io::Write::write_all(&mut child.stdin.take().unwrap(), tagged.as_bytes()).unwrap();
        let out = child.wait_with_output().expect("wait");
        assert_eq!(out.status.code(), Some(0), "{name}: {out:?}");
        let served = epoch_splits(&String::from_utf8_lossy(&out.stdout));

        let want: Vec<String> = want.iter().map(|s| format!("\"epoch\":{s}")).collect();
        assert_eq!(streamed, want, "{name}: elle-stream");
        assert_eq!(served, want, "{name}: elle-serve");
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn only_json_whitespace_pads_an_event_line() {
    // A no-break space is Unicode whitespace but not JSON whitespace:
    // the line it starts is not an event. CR and tab padding are JSON.
    let nd_path = write_workload("elle_stream_cli_nbsp.ndjson", 10);
    let wire = std::fs::read_to_string(&nd_path).unwrap();
    let lines: Vec<&str> = wire.lines().collect();
    let padded: String = lines.iter().map(|l| format!("\t{l} \r\n")).collect();
    let at = lines[0].len() + lines[1].len() + 2;
    let nbsp: String = lines
        .iter()
        .enumerate()
        .map(|(i, l)| {
            if i == 2 {
                format!("\u{a0}{l}\n")
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    for bin in [
        env!("CARGO_BIN_EXE_elle-check"),
        env!("CARGO_BIN_EXE_elle-stream"),
    ] {
        std::fs::write(&nd_path, &padded).unwrap();
        let out = Command::new(bin)
            .arg(&nd_path)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(0), "{bin}: {out:?}");

        std::fs::write(&nd_path, &nbsp).unwrap();
        let out = Command::new(bin)
            .arg(&nd_path)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{bin}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("line 3 (byte {at})")),
            "{bin}: {stderr}"
        );

        let out = Command::new(bin)
            .arg(&nd_path)
            .arg("--quarantine")
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("quarantined: line 3 (byte {at})"))
                && stderr.contains("line skipped"),
            "{bin}: {stderr}"
        );
    }
    let _ = std::fs::remove_file(&nd_path);
}

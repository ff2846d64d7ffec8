//! The `elle-check` command-line interface, end to end.

use elle::prelude::*;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_elle-check"))
}

#[test]
fn demo_flags_violation_with_exit_code_1() {
    let out = bin()
        .args(["--demo", "--model", "snapshot-isolation"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("G-single"), "{stdout}");
    assert!(stdout.contains("VIOLATED"), "{stdout}");
}

#[test]
fn checks_a_history_file() {
    // Generate a clean strict-serializable history and write it out.
    let params = GenParams::contended(100, ObjectKind::ListAppend).with_seed(3);
    let db = DbConfig::new(IsolationLevel::StrictSerializable, ObjectKind::ListAppend)
        .with_processes(4)
        .with_seed(3);
    let h = run_workload(params, db).unwrap();
    let dir = std::env::temp_dir();
    let path = dir.join("elle_cli_test_history.json");
    std::fs::write(&path, elle::history::history_to_json(&h)).unwrap();

    let out = bin()
        .args([
            path.to_str().unwrap(),
            "--model",
            "strict-serializable",
            "--process",
            "--realtime",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no anomalies found"), "{stdout}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn json_output_parses_as_report() {
    let out = bin()
        .args(["--demo", "--json"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report: Report = serde_json::from_str(&stdout).expect("valid report JSON");
    assert!(!report.anomalies.is_empty());
}

/// The checked-in fixture: the paper's §7.1 TiDB trio (a G-single
/// violation under snapshot isolation), as `history_to_json` wire data.
const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/tidb_g_single.json"
);

#[test]
fn help_smoke() {
    // An explicit help request is a success: help on stdout, exit 0.
    let out = bin().arg("--help").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: elle-check"), "{stdout}");
    for flag in [
        "--model",
        "--process",
        "--realtime",
        "--timestamps",
        "--json",
        "--demo",
    ] {
        assert!(stdout.contains(flag), "missing {flag} in usage:\n{stdout}");
    }
    assert!(stdout.contains("strict-serializable"), "{stdout}");
    // A usage *error* still reports on stderr with exit 2.
    let out = bin().arg("--no-such-flag").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: elle-check"));
}

#[test]
fn fixture_round_trips_through_serde_io() {
    let raw = std::fs::read_to_string(FIXTURE).expect("fixture readable");
    let h = elle::history::history_from_json(&raw).expect("fixture parses");
    assert_eq!(h.len(), 5);
    // Byte-stable round trip: parse(serialize(parse(x))) == parse(x),
    // and serialization itself is deterministic.
    let json = elle::history::history_to_json(&h);
    let h2 = elle::history::history_from_json(&json).expect("round trip parses");
    assert_eq!(h, h2);
    assert_eq!(json, elle::history::history_to_json(&h2));
    // The checked-in fixture is exactly what we would write today.
    assert_eq!(json, raw.trim_end());
}

#[test]
fn fixture_flags_g_single_under_snapshot_isolation() {
    let out = bin()
        .args([FIXTURE, "--model", "snapshot-isolation"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("G-single"), "{stdout}");
}

#[test]
fn timing_prints_stage_breakdown_on_stderr() {
    let out = bin()
        .args([FIXTURE, "--model", "snapshot-isolation", "--timing"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for stage in [
        "parse + pairing",
        "key typing + element index",
        "datatype inference",
        "freeze",
        "cycle search",
        "total",
    ] {
        assert!(stderr.contains(stage), "missing {stage} in:\n{stderr}");
    }
    // The report itself still goes to stdout, untouched.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("G-single"), "{stdout}");
    // --timing appears in the usage text.
    let help = bin().arg("--help").output().expect("binary runs");
    assert!(String::from_utf8_lossy(&help.stdout).contains("--timing"));
}

#[test]
fn bad_usage_exits_2() {
    let out = bin().output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let out = bin()
        .args(["--demo", "--model", "no-such-model"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let out = bin()
        .args(["/nonexistent/file.json"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

/// A flag and, if it takes one, a valid value.
type Flag = (&'static str, Option<&'static str>);

/// Each binary's accepted flags. `--help`/`-h` count as one flag;
/// `--inject-seal-panic` is elle-stream's undocumented test hook.
fn flag_surfaces() -> [(&'static str, Vec<Flag>); 3] {
    let check_options = [
        ("--model", Some("serializable")),
        ("--process", None),
        ("--realtime", None),
        ("--timestamps", None),
        ("--linearizable-keys", None),
        ("--sequential-keys", None),
        ("--max-cycles", Some("3")),
        ("--help", None),
        ("-h", None),
    ];
    let with = |own: &[Flag]| {
        let mut all = own.to_vec();
        all.extend(check_options);
        all
    };
    [
        (
            "elle-check",
            with(&[
                ("--engine", Some("sat")),
                ("--time-budget-ms", Some("10")),
                ("--max-states", Some("10")),
                ("--quarantine", None),
                ("--json", None),
                ("--timing", None),
                ("--demo", None),
            ]),
        ),
        (
            "elle-stream",
            with(&[
                ("--epoch-txns", Some("5")),
                ("--epoch-events", Some("5")),
                ("--epoch-ms", Some("5")),
                ("--max-epoch-ms", Some("5")),
                ("--follow", None),
                ("--retries", Some("2")),
                ("--max-buffered-bytes", Some("4096")),
                ("--quarantine", None),
                ("--gen", Some("10")),
                ("--window-txns", Some("5")),
                ("--window-bytes", Some("4096")),
                ("--json", None),
                ("--timing", None),
                ("--inject-seal-panic", Some("1")),
            ]),
        ),
        (
            "elle-serve",
            with(&[
                ("--listen", Some("127.0.0.1:0")),
                ("--data-dir", Some("/nonexistent")),
                ("--workers", Some("2")),
                ("--epoch-txns", Some("5")),
                ("--epoch-events", Some("5")),
                ("--max-epoch-ms", Some("5")),
                ("--snapshot-events", Some("5")),
                ("--max-line-bytes", Some("4096")),
                ("--max-tenant-bytes", Some("4096")),
                ("--max-total-bytes", Some("4096")),
                ("--max-tenants", Some("5")),
                ("--window-txns", Some("5")),
                ("--max-tenant-resident-bytes", Some("4096")),
                ("--strict", None),
            ]),
        ),
    ]
}

fn binary(name: &str) -> Command {
    Command::new(match name {
        "elle-check" => env!("CARGO_BIN_EXE_elle-check"),
        "elle-stream" => env!("CARGO_BIN_EXE_elle-stream"),
        _ => env!("CARGO_BIN_EXE_elle-serve"),
    })
}

#[test]
fn every_binary_keeps_its_flag_surface() {
    for ((name, flags), count) in flag_surfaces().into_iter().zip([15, 22, 22]) {
        assert_eq!(flags.len() - 1, count, "{name}: --help and -h count once");
        let usage = format!("usage: {name}");
        let help = binary(name).arg("--help").output().expect("binary runs");
        let help = String::from_utf8_lossy(&help.stdout).into_owned();
        for &(flag, value) in &flags {
            // The parser stops at the trailing --help, so exit 0 means
            // the flag and its value were accepted.
            let out = binary(name)
                .arg(flag)
                .args(value)
                .arg("--help")
                .output()
                .expect("binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(0), "{name} {flag}: {stderr}");
            assert!(!stderr.contains("unrecognized argument"), "{name} {flag}");
            assert!(String::from_utf8_lossy(&out.stdout).starts_with(&usage));
            if !matches!(flag, "--help" | "-h" | "--inject-seal-panic") {
                let listed = help.lines().any(|l| {
                    let l = l.trim_start();
                    l.strip_prefix(flag)
                        .is_some_and(|rest| rest.is_empty() || rest.starts_with(' '))
                });
                assert!(listed, "{name} --help does not list {flag}:\n{help}");
            }
            if value.is_some() {
                let out = binary(name).arg(flag).output().expect("binary runs");
                assert_eq!(out.status.code(), Some(2), "{name} {flag} without a value");
                assert!(String::from_utf8_lossy(&out.stderr).contains(&usage));
            }
        }
        let out = binary(name)
            .arg("--no-such-flag")
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{name}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("unrecognized argument \"--no-such-flag\"\n"));
        assert!(stderr.contains(&usage), "{stderr}");
    }
}

/// A reader that closes stdout early (`| head -1`) stops the binary
/// quietly, as it stops `cat`: no panic, no exit 101.
#[test]
fn closed_stdout_stops_quietly() {
    use std::io::{BufRead as _, BufReader};
    use std::process::Stdio;
    let params = GenParams::contended(300, ObjectKind::ListAppend).with_seed(4);
    let db = DbConfig::new(IsolationLevel::ReadCommitted, ObjectKind::ListAppend)
        .with_processes(4)
        .with_seed(4);
    let log = elle::gen::run_workload_log(params, db);
    let path = std::env::temp_dir().join("elle_cli_closed_stdout.ndjson");
    std::fs::write(&path, elle::history::events_to_ndjson(&log)).unwrap();
    let path = path.to_str().unwrap();
    // Both outputs are well past a pipe buffer, so the binary is still
    // writing when the reader goes away.
    for (name, args) in [
        ("elle-check", vec![path, "--json", "--max-cycles", "1000"]),
        (
            "elle-stream",
            vec!["--gen", "3000", "--epoch-txns", "10", "--json"],
        ),
    ] {
        let mut child = binary(name)
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary spawns");
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut first = String::new();
        stdout.read_line(&mut first).unwrap();
        assert!(first.starts_with('{'), "{name}: {first}");
        drop(stdout);
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_ne!(out.status.code(), Some(101), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        assert!(!stderr.contains("Broken pipe"), "{name}: {stderr}");
    }
    let _ = std::fs::remove_file(path);
}

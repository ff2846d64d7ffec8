//! The anomaly zoo: one hand-built, minimal history per anomaly class,
//! asserted to be caught and *correctly classified* — the paper's §7 notes
//! Elle's test suite demonstrates G0, G1a, G1b, G1c, and real-time /
//! process cycles; this file is that demonstration.

use elle::prelude::*;

fn check(h: &History) -> Report {
    Checker::new(CheckOptions::strict_serializable()).check(h)
}

fn has(r: &Report, t: AnomalyType) -> bool {
    r.anomaly_counts.contains_key(&t)
}

#[test]
fn zoo_g0_write_cycle() {
    // Two keys observed with opposite write orders.
    let mut b = HistoryBuilder::new();
    b.txn(0).append(1, 1).append(2, 2).at(0, Some(3)).commit();
    b.txn(1).append(1, 3).append(2, 4).at(1, Some(2)).commit();
    b.txn(2)
        .read_list(1, [1, 3])
        .read_list(2, [4, 2])
        .at(4, Some(5))
        .commit();
    let r = check(&b.build());
    assert!(has(&r, AnomalyType::G0), "{}", r.summary());
    let a = r.of_type(AnomalyType::G0).next().unwrap();
    assert!(
        a.explanation.contains("a contradiction!"),
        "{}",
        a.explanation
    );
}

#[test]
fn zoo_g1a_aborted_read() {
    let mut b = HistoryBuilder::new();
    b.txn(0).append(1, 1).abort();
    b.txn(1).read_list(1, [1]).commit();
    let r = check(&b.build());
    assert!(has(&r, AnomalyType::G1a), "{}", r.summary());
}

#[test]
fn zoo_g1b_intermediate_read() {
    let mut b = HistoryBuilder::new();
    b.txn(0).append(1, 1).append(1, 2).commit();
    b.txn(1).read_list(1, [1]).commit();
    let r = check(&b.build());
    assert!(has(&r, AnomalyType::G1b), "{}", r.summary());
}

#[test]
fn zoo_g1c_circular_information_flow() {
    // T0 -> T1 via wr on key 1; T1 -> T0 via ww on key 2.
    // Concurrent so no realtime contradiction confuses the picture.
    let mut b = HistoryBuilder::new();
    b.txn(0).append(1, 1).append(2, 1).at(0, Some(10)).commit();
    b.txn(1)
        .read_list(1, [1])
        .append(2, 2)
        .at(1, Some(9))
        .commit();
    b.txn(2).read_list(2, [2, 1]).at(11, Some(12)).commit();
    let r = check(&b.build());
    assert!(has(&r, AnomalyType::G1c), "{}", r.summary());
}

#[test]
fn zoo_g_single_read_skew() {
    // The paper's Figure 2/3 shape: T1 misses T2's append but T3 proves
    // T1's append followed T2's.
    let mut b = HistoryBuilder::new();
    b.txn(9).append(34, 2).at(0, Some(1)).commit();
    b.txn(9).append(34, 1).at(2, Some(3)).commit();
    b.txn(0)
        .read_list(34, [2, 1])
        .append(36, 5)
        .append(34, 4)
        .at(4, Some(8))
        .commit();
    b.txn(1).append(34, 5).at(5, Some(7)).commit();
    b.txn(2)
        .read_list(34, [2, 1, 5, 4])
        .at(9, Some(10))
        .commit();
    let r = check(&b.build());
    assert!(has(&r, AnomalyType::GSingle), "{}", r.summary());
    let a = r.of_type(AnomalyType::GSingle).next().unwrap();
    // Figure 2's phrasing.
    assert!(
        a.explanation.contains("did not observe"),
        "{}",
        a.explanation
    );
    assert!(
        a.explanation.contains("a contradiction!"),
        "{}",
        a.explanation
    );
}

#[test]
fn zoo_g2_item_write_skew() {
    // Classic write skew on two keys; concurrent transactions.
    let mut b = HistoryBuilder::new();
    b.txn(0).append(1, 1).at(0, Some(1)).commit();
    b.txn(1).append(2, 2).at(2, Some(3)).commit();
    b.txn(2)
        .read_list(1, [1])
        .read_list(2, [2])
        .append(3, 1)
        .at(4, Some(10))
        .commit();
    b.txn(3)
        .read_list(1, [1])
        .read_list(2, [2])
        .append(4, 1)
        .at(5, Some(9))
        .commit();
    b.txn(4)
        .read_list(3, [1])
        .read_list(4, [])
        .at(11, Some(12))
        .commit();
    b.txn(5)
        .read_list(4, [1])
        .read_list(3, [])
        .at(11, Some(12))
        .commit();
    // T4 proves T2 < T5's view; T5 proves T3 < T4's view … the mutual
    // misses of T4 and T5 close a two-rw cycle.
    let r = check(&b.build());
    assert!(
        r.types().iter().any(|t| t.base() == AnomalyType::G2Item),
        "{}",
        r.summary()
    );
}

#[test]
fn zoo_dirty_update() {
    let mut b = HistoryBuilder::new();
    b.txn(0).append(1, 1).abort();
    b.txn(1).append(1, 2).commit();
    b.txn(2).read_list(1, [1, 2]).commit();
    let r = check(&b.build());
    assert!(has(&r, AnomalyType::DirtyUpdate), "{}", r.summary());
}

#[test]
fn zoo_lost_update() {
    let mut b = HistoryBuilder::new();
    b.txn(0).append(1, 1).commit();
    b.txn(1).read_list(1, [1]).append(1, 2).commit();
    b.txn(2).read_list(1, [1]).append(1, 3).commit();
    let r = check(&b.build());
    assert!(has(&r, AnomalyType::LostUpdate), "{}", r.summary());
}

#[test]
fn zoo_garbage_read() {
    let mut b = HistoryBuilder::new();
    b.txn(0).read_list(1, [99]).commit();
    let r = check(&b.build());
    assert!(has(&r, AnomalyType::GarbageRead), "{}", r.summary());
}

#[test]
fn zoo_duplicate_write() {
    let mut b = HistoryBuilder::new();
    b.txn(0).append(1, 1).commit();
    b.txn(1).read_list(1, [1, 1]).commit();
    let r = check(&b.build());
    assert!(has(&r, AnomalyType::DuplicateWrite), "{}", r.summary());
}

#[test]
fn zoo_internal_inconsistency() {
    // §7.3's example: T1: append(0, 6), r(0, nil).
    let mut b = HistoryBuilder::new();
    b.txn(0).append(0, 6).read_list(0, []).commit();
    let r = check(&b.build());
    assert!(has(&r, AnomalyType::Internal), "{}", r.summary());
}

#[test]
fn zoo_incompatible_order() {
    let mut b = HistoryBuilder::new();
    b.txn(0).append(1, 1).commit();
    b.txn(1).append(1, 2).commit();
    b.txn(2).read_list(1, [1, 2]).commit();
    b.txn(3).read_list(1, [2, 1]).commit();
    let r = check(&b.build());
    assert!(has(&r, AnomalyType::IncompatibleOrder), "{}", r.summary());
}

#[test]
fn zoo_cyclic_version_order() {
    // §7.4: a write completes long before a read that returns nil, under
    // the per-key linearizability assumption.
    let mut b = HistoryBuilder::new();
    b.txn(0).write(540, 2).at(0, Some(1)).commit();
    b.txn(1).read_register(540, None).at(5, Some(6)).commit();
    let opts = CheckOptions::snapshot_isolation().with_registers(RegisterOptions {
        initial_state: true,
        writes_follow_reads: true,
        sequential_keys: false,
        linearizable_keys: true,
    });
    let r = Checker::new(opts).check(&b.build());
    assert!(has(&r, AnomalyType::CyclicVersionOrder), "{}", r.summary());
}

#[test]
fn zoo_realtime_cycle() {
    // Serializable but not strict: a read ignores a write that completed
    // before it started.
    let mut b = HistoryBuilder::new();
    b.txn(0).append(1, 1).at(0, Some(1)).commit();
    b.txn(1).read_list(1, []).at(2, Some(3)).commit();
    b.txn(2).read_list(1, [1]).at(4, Some(5)).commit();
    let r = check(&b.build());
    assert!(has(&r, AnomalyType::GSingleRealtime), "{}", r.summary());
    // Without realtime edges, nothing to report.
    let r2 = Checker::new(CheckOptions::serializable()).check(&{
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).at(0, Some(1)).commit();
        b.txn(1).read_list(1, []).at(2, Some(3)).commit();
        b.txn(2).read_list(1, [1]).at(4, Some(5)).commit();
        b.build()
    });
    assert!(r2.ok(), "{}", r2.summary());
}

#[test]
fn zoo_process_cycle() {
    // A single process observes, then un-observes, a write (§5.1's
    // monotonicity example) — with overlapping real-time so only the
    // session order closes the cycle.
    let mut b = HistoryBuilder::new();
    b.txn(0).append(1, 1).at(0, Some(100)).commit();
    b.txn(1).read_list(1, [1]).at(1, Some(99)).commit(); // process 1
    b.txn(1).read_list(1, []).at(2, Some(98)).commit(); // process 1 again
    let opts = CheckOptions::serializable()
        .with_process_edges(true)
        .with_realtime_edges(false);
    let r = Checker::new(opts).check(&b.build());
    assert!(
        r.types()
            .iter()
            .any(|t| matches!(t, AnomalyType::GSingleProcess | AnomalyType::G1cProcess)),
        "{}",
        r.summary()
    );
}

#[test]
fn zoo_clean_histories_stay_clean() {
    // A moderately rich, correct history across all four datatypes.
    let mut b = HistoryBuilder::new();
    b.txn(0)
        .append(1, 1)
        .write(10, 1)
        .increment(20, 2)
        .add_to_set(30, 1)
        .commit();
    b.txn(1)
        .read_list(1, [1])
        .read_register(10, Some(1))
        .read_counter(20, 2)
        .read_set(30, [1])
        .commit();
    b.txn(2)
        .append(1, 2)
        .write(10, 2)
        .increment(20, 3)
        .add_to_set(30, 2)
        .commit();
    b.txn(3)
        .read_list(1, [1, 2])
        .read_register(10, Some(2))
        .read_counter(20, 5)
        .read_set(30, [1, 2])
        .commit();
    let r = check(&b.build());
    assert!(r.ok(), "{}", r.summary());
    assert!(r.anomalies.is_empty(), "{}", r.summary());
}

// ── Damaged-stream fixtures, end to end through both CLIs ───────────────
//
// Two pinned NDJSON streams model real operational failures:
//
// * `crash_recovery.ndjson` — a client crashes mid-transaction and its
//   replacement reuses the process id, so a second invocation arrives
//   while the first is still outstanding;
// * `lost_ack.ndjson` — an invocation line is lost in transit, so its
//   completion arrives orphaned.
//
// Strict mode must refuse each (exit 2, position on stderr); quarantine
// mode must salvage each into a *clean* verdict (exit 0) with exactly
// one diagnostic.

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn run(bin: &str, args: &[&str]) -> (i32, String, String) {
    let out = std::process::Command::new(bin)
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn zoo_fixture_streams_through_both_clis() {
    let check = env!("CARGO_BIN_EXE_elle-check");
    let stream = env!("CARGO_BIN_EXE_elle-stream");
    for (name, bad_line, action) in [
        (
            "crash_recovery.ndjson",
            "line 4",
            "abandoned as indeterminate",
        ),
        ("lost_ack.ndjson", "line 3", "orphan completion adopted"),
    ] {
        let path = fixture(name);
        for bin in [check, stream] {
            // Strict: refused, positioned, exit 2.
            let (code, _, err) = run(bin, &[&path]);
            assert_eq!(code, 2, "{name} via {bin} must be refused strictly");
            assert!(err.contains(bad_line), "{name} via {bin}: {err}");

            // Quarantine: salvaged to a clean verdict, one diagnostic.
            let (code, _, err) = run(bin, &[&path, "--quarantine"]);
            assert_eq!(code, 0, "{name} via {bin} must salvage cleanly: {err}");
            assert_eq!(
                err.matches("quarantined:").count(),
                1,
                "{name} via {bin}: {err}"
            );
            assert!(err.contains(action), "{name} via {bin}: {err}");
        }
    }
}

#[test]
fn zoo_fixture_verdicts_match_between_clis() {
    // The salvaged history is the same through either entry point: the
    // batch CLI's report equals the final epoch report of the stream CLI.
    let check = env!("CARGO_BIN_EXE_elle-check");
    let stream = env!("CARGO_BIN_EXE_elle-stream");
    for name in ["crash_recovery.ndjson", "lost_ack.ndjson"] {
        let path = fixture(name);
        let (_, batch, _) = run(check, &[&path, "--quarantine", "--json"]);
        let batch: Report = serde_json::from_str(&batch).expect("batch report parses");
        let (_, epochs, _) = run(stream, &[&path, "--quarantine", "--json"]);
        let last = epochs.lines().last().expect("at least one epoch");
        // The epoch line is `{...,"report":{...}}`; the report object is
        // its final member.
        let report_json = last
            .split_once("\"report\":")
            .map(|(_, rest)| &rest[..rest.len() - 1])
            .expect("epoch line carries a report");
        let streamed: Report = serde_json::from_str(report_json).expect("epoch report parses");
        assert_eq!(
            serde_json::to_string(&batch).unwrap(),
            serde_json::to_string(&streamed).unwrap(),
            "{name}: batch and stream disagree"
        );
    }
}

#[test]
fn quarantined_fixture_histories_round_trip_through_ndjson() {
    // The salvaged history exports to NDJSON that re-imports and pairs
    // back to it: an adopted orphan (invoke and completion at one index)
    // exports as its completion alone, which quarantine adopts again;
    // an abandoned invocation exports as an invoke the next one on its
    // process overlaps again.
    use elle::history::{events_from_ndjson, history_to_ndjson, NdjsonIngestor, RecoveryPolicy};
    for name in ["crash_recovery.ndjson", "lost_ack.ndjson"] {
        let raw = std::fs::read_to_string(fixture(name)).expect("fixture readable");
        let mut ingestor = NdjsonIngestor::new(RecoveryPolicy::Quarantine);
        ingestor.feed_str(&raw).expect("quarantine never errs");
        let (salvaged, _) = ingestor.finish();
        let export = history_to_ndjson(&salvaged);
        let log = events_from_ndjson(&export).unwrap_or_else(|e| panic!("{name}: {e}"));
        let (paired, _) = log
            .pair_with(RecoveryPolicy::Quarantine)
            .expect("quarantine never errs");
        assert_eq!(paired, salvaged, "{name}: {export}");
    }
}

//! Hand-built adversarial streams: cases the random generator cannot
//! produce (duplicate writes poisoning an already-analyzed key, cyclic
//! register version orders, counter `rr` chains re-linking, NDJSON
//! ingestion) — each must still match the batch checker byte-for-byte,
//! exercising the graph-rebuild fallback.

use elle_core::{CheckOptions, Checker, RegisterOptions};
use elle_history::{
    events_from_ndjson, history_to_ndjson, Event, EventKind, EventLog, HistoryBuilder, Mop,
    ProcessId,
};
use elle_stream::{EpochReport, StreamChecker};

/// Build an event log from `(process, kind, mops)` triples.
fn log(events: &[(u32, EventKind, Vec<Mop>)]) -> EventLog {
    let mut l = EventLog::new();
    for (p, kind, mops) in events {
        l.push(ProcessId(*p), *kind, mops.clone());
    }
    l
}

/// Seal after every `every` events and assert the differential at each
/// seal; returns the sealed epochs.
fn differential(l: &EventLog, opts: CheckOptions, every: usize) -> Vec<EpochReport> {
    let mut stream = StreamChecker::new(opts);
    let batch = Checker::new(opts);
    let mut out = Vec::new();
    for (i, ev) in l.events().iter().enumerate() {
        stream.ingest_event(ev).expect("well-formed");
        if (i + 1) % every == 0 || i + 1 == l.events().len() {
            let epoch = stream.seal_epoch();
            let prefix = EventLog::from_events(l.events()[..=i].to_vec())
                .unwrap()
                .pair()
                .unwrap();
            let want = batch.check(&prefix);
            assert_eq!(
                serde_json::to_string(&epoch.report).unwrap(),
                serde_json::to_string(&want).unwrap(),
                "divergence at event {} (epoch {})",
                i,
                epoch.epoch
            );
            out.push(epoch);
        }
    }
    out
}

fn inv(p: u32, mops: Vec<Mop>) -> (u32, EventKind, Vec<Mop>) {
    (p, EventKind::Invoke, mops)
}

fn ok(p: u32, mops: Vec<Mop>) -> (u32, EventKind, Vec<Mop>) {
    (p, EventKind::Ok, mops)
}

#[test]
fn late_duplicate_write_poisons_an_analyzed_key() {
    // Epoch 1 analyzes key 1 cleanly (wr edge t0→t1); epoch 2 appends a
    // duplicate element, destroying recoverability — the cached edges
    // must be *retracted*, which only the rebuild path can do.
    let l = log(&[
        inv(0, vec![Mop::append(1, 7)]),
        ok(0, vec![Mop::append(1, 7)]),
        inv(1, vec![Mop::read(1)]),
        ok(1, vec![Mop::read_list(1, [7])]),
        // epoch boundary falls here with every=4
        inv(2, vec![Mop::append(1, 7)]),
        ok(2, vec![Mop::append(1, 7)]),
    ]);
    let epochs = differential(&l, CheckOptions::serializable(), 4);
    assert_eq!(epochs.len(), 2);
    assert!(!epochs[0].rebuilt, "clean first epoch takes the fast path");
    assert!(epochs[1].rebuilt, "poisoning forces the rebuild fallback");
}

#[test]
fn register_version_order_turns_cyclic_across_epochs() {
    // Linearizable-keys mode: epoch 1 infers nil < 2 and derives edges;
    // epoch 2's stale nil read contradicts real time — the key's version
    // order becomes cyclic and its dependencies are discarded.
    let opts = CheckOptions::serializable().with_registers(RegisterOptions {
        linearizable_keys: true,
        ..RegisterOptions::default()
    });
    let l = log(&[
        inv(0, vec![Mop::write(540, 2)]),
        ok(0, vec![Mop::write(540, 2)]),
        inv(1, vec![Mop::read(540)]),
        ok(1, vec![Mop::read_register(540, Some(2))]),
        inv(2, vec![Mop::read(540)]),
        ok(2, vec![Mop::read_register(540, None)]),
    ]);
    let epochs = differential(&l, opts, 4);
    assert_eq!(epochs.len(), 2);
    assert!(epochs[1].rebuilt, "cyclic version order retracts edges");
    assert!(epochs[1]
        .report
        .anomaly_counts
        .contains_key(&elle_core::AnomalyType::CyclicVersionOrder));
}

#[test]
fn counter_rr_chain_relinks_across_epochs() {
    // Epoch 1 sees counter reads 1 and 3 → rr edge (reader of 1 →
    // reader of 3). Epoch 2 reads 2, which re-links the chain to
    // 1 → 2 → 3, retracting the old edge.
    let l = log(&[
        inv(0, vec![Mop::increment(9, 1)]),
        ok(0, vec![Mop::increment(9, 1)]),
        inv(1, vec![Mop::increment(9, 1)]),
        ok(1, vec![Mop::increment(9, 1)]),
        inv(2, vec![Mop::increment(9, 1)]),
        ok(2, vec![Mop::increment(9, 1)]),
        inv(3, vec![Mop::read(9)]),
        ok(3, vec![Mop::read_counter(9, 1)]),
        inv(4, vec![Mop::read(9)]),
        ok(4, vec![Mop::read_counter(9, 3)]),
        // epoch boundary at 10 with every=10
        inv(5, vec![Mop::read(9)]),
        ok(5, vec![Mop::read_counter(9, 2)]),
    ]);
    let epochs = differential(&l, CheckOptions::serializable(), 10);
    assert_eq!(epochs.len(), 2);
    assert!(epochs[1].rebuilt, "rr chain re-linking retracts an edge");
}

#[test]
fn mixed_datatypes_in_one_stream() {
    // Lists, registers, sets, and counters interleaved in one stream,
    // with a cross-datatype G1c cycle (list half + register half).
    let l = log(&[
        inv(0, vec![Mop::append(1, 1), Mop::read(2)]),
        ok(0, vec![Mop::append(1, 1), Mop::read_register(2, Some(7))]),
        inv(1, vec![Mop::write(2, 7), Mop::read(1)]),
        ok(1, vec![Mop::write(2, 7), Mop::read_list(1, [1])]),
        inv(2, vec![Mop::add_to_set(3, 5)]),
        ok(2, vec![Mop::add_to_set(3, 5)]),
        inv(3, vec![Mop::read(3), Mop::increment(4, 2)]),
        ok(3, vec![Mop::read_set(3, [5]), Mop::increment(4, 2)]),
        inv(4, vec![Mop::read(4)]),
        ok(4, vec![Mop::read_counter(4, 2)]),
    ]);
    let epochs = differential(&l, CheckOptions::serializable(), 3);
    let last = epochs.last().unwrap();
    assert!(last
        .report
        .anomaly_counts
        .contains_key(&elle_core::AnomalyType::G1c));
}

#[test]
fn ndjson_stream_matches_batch_on_fixture_shape() {
    // The paper's §7.1 TiDB trio exported to NDJSON, ingested line by
    // line with an epoch per line.
    let mut b = HistoryBuilder::new();
    b.txn(9).append(34, 2).commit();
    b.txn(9).append(34, 1).commit();
    b.txn(0)
        .read_list(34, [2, 1])
        .append(36, 5)
        .append(34, 4)
        .at(4, Some(20))
        .commit();
    b.txn(1).append(34, 5).at(5, Some(19)).commit();
    b.txn(2)
        .read_list(34, [2, 1, 5, 4])
        .at(21, Some(22))
        .commit();
    let h = b.build();
    let nd = history_to_ndjson(&h);
    let l = events_from_ndjson(&nd).unwrap();

    let opts = CheckOptions::snapshot_isolation();
    let epochs = differential(&l, opts, 1);
    let last = epochs.last().unwrap();
    assert!(!last.report.ok(), "G-single violation detected");
    assert!(last
        .report
        .anomaly_counts
        .contains_key(&elle_core::AnomalyType::GSingle));
}

#[test]
fn empty_and_trivial_epochs() {
    let mut stream = StreamChecker::new(CheckOptions::strict_serializable());
    // Sealing with nothing ingested reports an empty, clean prefix.
    let e0 = stream.seal_epoch();
    assert!(e0.report.ok());
    assert_eq!(e0.txns, 0);
    // Sealing twice without new events is stable.
    let ev = Event {
        index: 0,
        process: ProcessId(0),
        kind: EventKind::Invoke,
        mops: vec![Mop::append(1, 1)],
        time_ns: None,
    };
    stream.ingest_event(&ev).unwrap();
    let e1 = stream.seal_epoch();
    let e2 = stream.seal_epoch();
    assert_eq!(
        serde_json::to_string(&e1.report).unwrap(),
        serde_json::to_string(&e2.report).unwrap()
    );
    assert_eq!(e2.frontier.dirty_keys, 0, "idle epoch dirties nothing");
}

#[test]
fn clean_serializable_stream_never_rebuilds() {
    use elle_dbsim::{DbConfig, IsolationLevel, ObjectKind};
    use elle_gen::GenParams;
    let params = GenParams::paper_perf(400).with_seed(11);
    let db = DbConfig::new(IsolationLevel::Serializable, ObjectKind::ListAppend)
        .with_processes(8)
        .with_seed(11);
    let l = elle_gen::run_workload_log(params, db);
    let epochs = differential(&l, CheckOptions::strict_serializable(), 100);
    assert!(epochs.len() >= 5);
    for e in &epochs {
        assert!(!e.rebuilt, "epoch {} took the rebuild fallback", e.epoch);
    }
}

#[test]
fn datatype_reassignment_purges_stale_coverage() {
    // Key 1 is a register in epoch 1 (its read puts pair (1,5) in the
    // observed set); an epoch-2 append makes the key conflicted and
    // reassigns it to List. The register contribution must be purged —
    // batch on the full prefix computes coverage under the *final*
    // typing only.
    let l = log(&[
        inv(0, vec![Mop::write(1, 5)]),
        ok(0, vec![Mop::write(1, 5)]),
        inv(1, vec![Mop::read(1)]),
        ok(1, vec![Mop::read_register(1, Some(5))]),
        // epoch boundary with every=4
        inv(2, vec![Mop::append(1, 6)]),
        ok(2, vec![Mop::append(1, 6)]),
    ]);
    let epochs = differential(&l, CheckOptions::serializable(), 4);
    assert_eq!(epochs.len(), 2);
    assert!(epochs[1].rebuilt, "reassignment takes the rebuild path");
    assert_eq!(epochs[1].report.warnings.len(), 1, "conflict warned");
}

#[test]
fn reassigned_key_stays_consistent_when_redirtied_later() {
    // After the reassignment epoch, touch the key again in a *third*
    // epoch: caches, coverage, and internal passes must all have
    // settled on the new typing.
    let l = log(&[
        inv(0, vec![Mop::write(1, 5)]),
        ok(0, vec![Mop::write(1, 5)]),
        inv(1, vec![Mop::read(1)]),
        ok(1, vec![Mop::read_register(1, Some(5))]),
        inv(2, vec![Mop::append(1, 6)]),
        ok(2, vec![Mop::append(1, 6)]),
        inv(3, vec![Mop::read(1)]),
        ok(3, vec![Mop::read_list(1, [6])]),
        inv(4, vec![Mop::append(2, 9)]),
        ok(4, vec![Mop::append(2, 9)]),
    ]);
    differential(&l, CheckOptions::serializable(), 2);
}

#[test]
fn conflicted_counter_and_set_key_reports_no_duplicate_write() {
    // Key 1 is both incremented and set-added, so it types as a
    // counter; the two adds of element 5 collide in the element index,
    // but counters take no part in the duplicate-write pass — in any
    // epoch, on either driver.
    let l = log(&[
        inv(0, vec![Mop::increment(1, 1)]),
        ok(0, vec![Mop::increment(1, 1)]),
        inv(1, vec![Mop::add_to_set(1, 5)]),
        ok(1, vec![Mop::add_to_set(1, 5)]),
        inv(2, vec![Mop::add_to_set(1, 5)]),
        ok(2, vec![Mop::add_to_set(1, 5)]),
        inv(3, vec![Mop::read(1)]),
        ok(3, vec![Mop::read_counter(1, 1)]),
    ]);
    for e in differential(&l, CheckOptions::serializable(), 2) {
        assert!(!e
            .report
            .anomaly_counts
            .contains_key(&elle_core::AnomalyType::DuplicateWrite));
    }
}

#[test]
fn live_run_seals_multiple_epochs_and_matches_batch() {
    use elle_dbsim::{DbConfig, IsolationLevel, ObjectKind};
    use elle_gen::GenParams;
    use elle_stream::{run_live, EpochPolicy};
    let params = GenParams::contended(120, ObjectKind::ListAppend).with_seed(7);
    let db = DbConfig::new(IsolationLevel::Serializable, ObjectKind::ListAppend)
        .with_processes(4)
        .with_seed(7);
    let mut n = 0usize;
    let last = run_live(
        params,
        db,
        EpochPolicy::every_txns(25),
        CheckOptions::strict_serializable(),
        |_| n += 1,
    );
    assert!(n >= 4, "expected several epochs, got {n}");
    assert_eq!(last.txns, 120);
    // The final verdict equals a batch check of the same workload.
    let h = elle_gen::run_workload(
        GenParams::contended(120, ObjectKind::ListAppend).with_seed(7),
        DbConfig::new(IsolationLevel::Serializable, ObjectKind::ListAppend)
            .with_processes(4)
            .with_seed(7),
    )
    .unwrap();
    let batch = Checker::new(CheckOptions::strict_serializable()).check(&h);
    assert_eq!(
        serde_json::to_string(&last.report).unwrap(),
        serde_json::to_string(&batch).unwrap()
    );
}

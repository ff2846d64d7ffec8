//! Hand-built adversarial streams: cases the random generator cannot
//! produce (duplicate writes poisoning an already-analyzed key, cyclic
//! register version orders, counter `rr` chains re-linking, NDJSON
//! ingestion) — each must still match the batch checker byte-for-byte,
//! exercising the graph-rebuild fallback — and one stream per reason a
//! clean list-append key's cached result cannot simply be extended
//! with the epoch's reads, each asserting that the key was re-analyzed.

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
    let n = l.events().len();
    let cuts: Vec<usize> = (1..=n).filter(|i| i % every == 0 || *i == n).collect();
    differential_at(l, opts, &cuts)
}

/// Seal after each of the (ascending) event counts in `cuts`, asserting
/// the differential and the cached list results at each seal.
fn differential_at(l: &EventLog, opts: CheckOptions, cuts: &[usize]) -> Vec<EpochReport> {
    let mut stream = StreamChecker::new(opts);
    let batch = Checker::new(opts);
    let mut out = Vec::new();
    for (i, ev) in l.events().iter().enumerate() {
        stream.ingest_event(ev).expect("well-formed");
        if cuts.contains(&(i + 1)) {
            let epoch = stream.seal_epoch();
            stream.recheck_list_cache().expect("cached list results");
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

fn fail(p: u32, mops: Vec<Mop>) -> (u32, EventKind, Vec<Mop>) {
    (p, EventKind::Fail, mops)
}

/// One committed transaction's invoke and ok events (reads invoked
/// without values).
fn txn(p: u32, mops: Vec<Mop>) -> [(u32, EventKind, Vec<Mop>); 2] {
    let invoked = mops
        .iter()
        .map(|m| match m {
            Mop::Read { key, .. } => Mop::read(key.0),
            m => m.clone(),
        })
        .collect();
    [inv(p, invoked), ok(p, mops)]
}

/// Assert that `epoch` re-analyzed its one dirty key instead of
/// extending the key's cached result.
fn re_analyzed(epoch: &EpochReport) {
    assert_eq!(epoch.frontier.dirty_keys, 1, "epoch {}", epoch.epoch);
    assert_eq!(epoch.frontier.extended_keys, 0, "epoch {}", epoch.epoch);
}

/// Assert that `epoch` extended its one dirty key's cached result.
fn extended(epoch: &EpochReport) {
    assert_eq!(epoch.frontier.dirty_keys, 1, "epoch {}", epoch.epoch);
    assert_eq!(epoch.frontier.extended_keys, 1, "epoch {}", epoch.epoch);
}

fn has(epoch: &EpochReport, typ: elle_core::AnomalyType) -> bool {
    epoch.report.anomaly_counts.contains_key(&typ)
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
    use elle_stream::{run_live, EpochPolicy, WindowPolicy};
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
        WindowPolicy::Unbounded,
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

#[test]
fn a_lost_update_across_epochs_re_analyzes_the_key() {
    // Epoch 0: t1 reads [1] and appends 2. Epoch 1 extends the key with
    // two reads of [1 2]. Epoch 2: t4 also reads [1] and appends, a lost
    // update against t1's read-then-append of the same version.
    let l = log(&[
        txn(0, vec![Mop::append(1, 1)]),
        txn(1, vec![Mop::read_list(1, [1]), Mop::append(1, 2)]),
        txn(2, vec![Mop::read_list(1, [1, 2])]),
        txn(3, vec![Mop::read_list(1, [1, 2])]),
        txn(4, vec![Mop::read_list(1, [1]), Mop::append(1, 3)]),
    ]
    .concat());
    let epochs = differential_at(&l, CheckOptions::serializable(), &[4, 8, 10]);
    extended(&epochs[1]);
    re_analyzed(&epochs[2]);
    assert!(has(&epochs[2], elle_core::AnomalyType::LostUpdate));
}

#[test]
fn a_failed_writer_of_an_observed_element_re_analyzes_the_key() {
    // t0's append of 5 is read while t0 is still open (an indeterminate
    // writer is no anomaly). t0 then fails, so the read saw aborted
    // data: G1a, though the epoch brings no new read to fan it out to.
    let l = log(&[
        inv(0, vec![Mop::append(1, 5)]),
        inv(1, vec![Mop::read(1)]),
        ok(1, vec![Mop::read_list(1, [5])]),
        // epoch boundary
        fail(0, vec![Mop::append(1, 5)]),
    ]);
    let epochs = differential_at(&l, CheckOptions::read_committed(), &[3, 4]);
    assert!(epochs[0].report.ok());
    re_analyzed(&epochs[1]);
    assert!(has(&epochs[1], elle_core::AnomalyType::G1a));
}

#[test]
fn a_late_incompatible_read_re_analyzes_the_key() {
    // The late read misses an element of the cached spine: shorter than
    // the spine, or longer, so the old spine is no prefix of it.
    for late in [vec![2], vec![1, 3, 2]] {
        let l = log(&[
            txn(0, vec![Mop::append(1, 1)]),
            txn(1, vec![Mop::append(1, 2), Mop::read_list(1, [1, 2])]),
            txn(2, vec![Mop::read_list(1, [1]), Mop::append(1, 3)]),
            txn(3, vec![Mop::read_list(1, late)]),
        ]
        .concat());
        let epochs = differential_at(&l, CheckOptions::serializable(), &[4, 6, 8]);
        extended(&epochs[1]);
        re_analyzed(&epochs[2]);
        assert!(has(&epochs[2], elle_core::AnomalyType::IncompatibleOrder));
    }
}

#[test]
fn an_anomalous_new_read_re_analyzes_the_key() {
    // Each late read grows the cached spine [1 2] by an anomalous tail:
    // garbage, a repeated element, an aborted append (G1a) and an
    // intermediate append (G1b).
    use elle_core::AnomalyType::{DuplicateWrite, G1a, G1b, GarbageRead};
    for (late, typ) in [
        (vec![1, 2, 99], GarbageRead),
        (vec![1, 2, 1], DuplicateWrite),
        (vec![1, 2, 7], G1a),
        (vec![1, 2, 8], G1b),
    ] {
        let mut events = [
            txn(0, vec![Mop::append(1, 1)]),
            txn(1, vec![Mop::append(1, 2), Mop::read_list(1, [1, 2])]),
            txn(2, vec![Mop::read_list(1, [1])]),
        ]
        .concat();
        events.extend([
            inv(3, vec![Mop::append(1, 7)]),
            fail(3, vec![Mop::append(1, 7)]),
        ]);
        events.extend(txn(4, vec![Mop::append(1, 8), Mop::append(1, 9)]));
        events.extend(txn(5, vec![Mop::read_list(1, late)]));
        let epochs = differential_at(&log(&events), CheckOptions::serializable(), &[4, 6, 12]);
        extended(&epochs[1]);
        re_analyzed(&epochs[2]);
        assert!(has(&epochs[2], typ), "{typ:?}");
    }
}

#[test]
fn a_late_duplicate_append_re_analyzes_the_key() {
    // The duplicate lands on an element the extended spine holds.
    let l = log(&[
        txn(0, vec![Mop::append(1, 1)]),
        txn(1, vec![Mop::append(1, 2), Mop::read_list(1, [1, 2])]),
        txn(2, vec![Mop::append(1, 3), Mop::read_list(1, [1, 2, 3])]),
        txn(3, vec![Mop::append(1, 3)]),
    ]
    .concat());
    let epochs = differential_at(&l, CheckOptions::serializable(), &[4, 6, 8]);
    extended(&epochs[1]);
    re_analyzed(&epochs[2]);
    assert!(epochs[2].rebuilt, "poisoning retracts the key's edges");
    assert!(has(&epochs[2], elle_core::AnomalyType::DuplicateWrite));
}

#[test]
fn a_retyped_key_is_re_analyzed() {
    // Key 1 is a set until an append makes it a list (lists win a
    // conflict): it has no list result to extend. List key 2 extends.
    let l = log(&[
        txn(0, vec![Mop::add_to_set(1, 5), Mop::append(2, 1)]),
        txn(1, vec![Mop::read_set(1, [5]), Mop::read_list(2, [1])]),
        txn(2, vec![Mop::append(1, 6), Mop::read_list(2, [1])]),
    ]
    .concat());
    let epochs = differential_at(&l, CheckOptions::serializable(), &[4, 6]);
    let e = &epochs[1];
    assert_eq!(e.frontier.dirty_keys, 2);
    assert_eq!(e.frontier.extended_keys, 1, "only key 2 extends");
    assert!(e.rebuilt, "reassignment takes the rebuild path");
    assert_eq!(e.report.warnings.len(), 1, "conflict warned");
}

#[test]
fn a_restored_or_rebuilt_checker_re_analyzes_before_it_extends() {
    let l = log(&[
        txn(0, vec![Mop::append(1, 1)]),
        txn(1, vec![Mop::append(1, 2), Mop::read_list(1, [1, 2])]),
        txn(2, vec![Mop::read_list(1, [1, 2])]),
        txn(3, vec![Mop::append(1, 3), Mop::read_list(1, [1, 2, 3])]),
        txn(4, vec![Mop::read_list(1, [1, 2, 3])]),
    ]
    .concat());
    let opts = CheckOptions::serializable();
    let events = l.events();
    let mut original = StreamChecker::new(opts);
    for ev in &events[..4] {
        original.ingest_event(ev).unwrap();
    }
    original.seal_epoch();
    let mut restored = StreamChecker::restore(opts, &original.snapshot());
    let mut rebuilt = StreamChecker::restore(opts, &original.snapshot());
    rebuilt.inject_seal_panic(1);
    assert!(rebuilt.seal_epoch_guarded().poisoned.is_some());
    for (upto, first) in [(6, true), (10, false)] {
        for checker in [&mut original, &mut restored, &mut rebuilt] {
            for ev in &events[checker.txn_count() * 2..upto] {
                checker.ingest_event(ev).unwrap();
            }
        }
        let (eo, er, eb) = (
            original.seal_epoch(),
            restored.seal_epoch(),
            rebuilt.seal_epoch(),
        );
        for checker in [&original, &restored, &rebuilt] {
            checker.recheck_list_cache().unwrap();
        }
        let want = serde_json::to_string(&eo.report).unwrap();
        assert_eq!(serde_json::to_string(&er.report).unwrap(), want);
        assert_eq!(serde_json::to_string(&eb.report).unwrap(), want);
        extended(&eo);
        if first {
            re_analyzed(&er);
            re_analyzed(&eb);
        } else {
            extended(&er);
            extended(&eb);
        }
    }
}

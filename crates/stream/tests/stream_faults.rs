//! Failure-handling properties of the streaming checker: quarantined
//! ingest degrades soundly instead of erroring, a panic inside a seal
//! poisons exactly one epoch and the rebuilt state matches the batch
//! checker afterwards, simulator fault schedules stream end to end
//! without a panic, and the checker's epoch counts follow the recovery
//! outcomes on damaged streams.

use elle_core::{CheckOptions, Checker};
use elle_dbsim::{DbConfig, FaultSchedule, IsolationLevel, ObjectKind};
use elle_gen::GenParams;
use elle_history::{
    decode_event_line, events_from_ndjson_with, history_to_ndjson, Event, EventKind, EventLog,
    Ingest, Mop, ProcessId, Recovered, RecoveryPolicy, SourcePos,
};
use elle_stream::StreamChecker;
use proptest::prelude::*;

fn ev(index: usize, p: u32, kind: EventKind, mops: Vec<Mop>) -> Event {
    Event {
        index,
        process: ProcessId(p),
        kind,
        mops,
        time_ns: None,
    }
}

#[test]
fn quarantine_skips_regressed_index_and_keeps_checking() {
    let mut s = StreamChecker::new(CheckOptions::serializable());
    s.ingest_event_with(
        &ev(0, 0, EventKind::Invoke, vec![Mop::append(1, 1)]),
        RecoveryPolicy::Quarantine,
    )
    .unwrap();
    s.ingest_event_with(
        &ev(1, 0, EventKind::Ok, vec![Mop::append(1, 1)]),
        RecoveryPolicy::Quarantine,
    )
    .unwrap();
    // A replayed (duplicate) wire event regresses the index: skipped.
    let dup = s
        .ingest_event_with(
            &ev(1, 0, EventKind::Ok, vec![Mop::append(1, 1)]),
            RecoveryPolicy::Quarantine,
        )
        .unwrap();
    assert!(matches!(dup, Recovered::Skipped(_)));
    assert_eq!(s.quarantined(), 1);
    let epoch = s.seal_epoch_guarded();
    assert!(epoch.poisoned.is_none());
    assert!(epoch.report.ok());
    assert_eq!(epoch.frontier.quarantined_events, 1);
    assert_eq!(epoch.txns, 1, "the duplicate created no extra txn");
}

#[test]
fn orphan_completion_is_adopted_under_quarantine() {
    let mut s = StreamChecker::new(CheckOptions::serializable());
    // A completion whose invocation was lost upstream: adopted as a
    // point-interval transaction so its data still feeds inference.
    let got = s
        .ingest_event_with(
            &ev(5, 3, EventKind::Ok, vec![Mop::append(9, 2)]),
            RecoveryPolicy::Quarantine,
        )
        .unwrap();
    assert!(matches!(got, Recovered::Adopted(..)));
    s.ingest_event_with(
        &ev(6, 1, EventKind::Invoke, vec![Mop::read(9)]),
        RecoveryPolicy::Quarantine,
    )
    .unwrap();
    s.ingest_event_with(
        &ev(7, 1, EventKind::Ok, vec![Mop::read_list(9, [2])]),
        RecoveryPolicy::Quarantine,
    )
    .unwrap();
    let epoch = s.seal_epoch_guarded();
    // The adopted write is visible to the reader: no garbage read.
    assert!(epoch.report.ok(), "adopted orphan supplies the write");
    assert_eq!(epoch.txns, 2);
    assert_eq!(s.quarantined(), 1);
}

#[test]
fn poisoned_seal_isolates_one_epoch_and_recovers() {
    let l = {
        let mut l = EventLog::new();
        l.push(ProcessId(0), EventKind::Invoke, vec![Mop::append(1, 1)]);
        l.push(ProcessId(0), EventKind::Ok, vec![Mop::append(1, 1)]);
        l.push(ProcessId(1), EventKind::Invoke, vec![Mop::read(1)]);
        l.push(ProcessId(1), EventKind::Ok, vec![Mop::read_list(1, [1])]);
        l.push(ProcessId(2), EventKind::Invoke, vec![Mop::append(1, 2)]);
        l.push(ProcessId(2), EventKind::Ok, vec![Mop::append(1, 2)]);
        l
    };
    let opts = CheckOptions::serializable();
    let mut s = StreamChecker::new(opts);
    s.inject_seal_panic(1);

    for e in &l.events()[..2] {
        s.ingest_event(e).unwrap();
    }
    let e0 = s.seal_epoch_guarded();
    assert!(e0.poisoned.is_none());
    assert!(e0.report.ok());

    for e in &l.events()[2..4] {
        s.ingest_event(e).unwrap();
    }
    let e1 = s.seal_epoch_guarded();
    let msg = e1.poisoned.as_deref().expect("epoch 1 must be poisoned");
    assert!(msg.contains("injected seal panic"), "payload: {msg}");
    assert_eq!(e1.epoch, 1);
    assert_eq!(e1.events, 2);
    assert_eq!(e1.txns, 2, "recovered state holds the full prefix");
    assert_eq!(e1.report.warnings.len(), 1);
    assert!(e1.report.ok(), "poisoned verdict is indeterminate-clean");

    // The next epoch seals normally and matches batch on the prefix.
    for e in &l.events()[4..] {
        s.ingest_event(e).unwrap();
    }
    let e2 = s.seal_epoch_guarded();
    assert!(e2.poisoned.is_none());
    assert_eq!(e2.epoch, 2);
    let batch = Checker::new(opts).check(&l.pair().unwrap());
    assert_eq!(
        serde_json::to_string(&e2.report).unwrap(),
        serde_json::to_string(&batch).unwrap(),
        "post-poison epoch diverged from batch"
    );
}

#[test]
fn poisoned_seal_recovery_preserves_open_invocations() {
    let mut s = StreamChecker::new(CheckOptions::serializable());
    s.inject_seal_panic(0);
    s.ingest_event(&ev(0, 0, EventKind::Invoke, vec![Mop::append(1, 1)]))
        .unwrap();
    s.ingest_event(&ev(1, 1, EventKind::Invoke, vec![Mop::read(1)]))
        .unwrap();
    let e0 = s.seal_epoch_guarded();
    assert!(e0.poisoned.is_some());
    assert_eq!(e0.frontier.open_txns, 2, "open table survives the panic");
    // Completions for both still pair against the recovered open table.
    s.ingest_event(&ev(2, 0, EventKind::Ok, vec![Mop::append(1, 1)]))
        .unwrap();
    s.ingest_event(&ev(3, 1, EventKind::Ok, vec![Mop::read_list(1, [1])]))
        .unwrap();
    let e1 = s.seal_epoch_guarded();
    assert!(e1.poisoned.is_none());
    assert_eq!(e1.txns, 2);
    assert_eq!(e1.frontier.open_txns, 0);
    assert!(e1.report.ok());
}

#[test]
fn duplicate_only_fault_schedule_streams_to_the_clean_verdict() {
    let params = GenParams::contended(150, ObjectKind::ListAppend).with_seed(33);
    let db = DbConfig::new(IsolationLevel::Serializable, ObjectKind::ListAppend)
        .with_processes(4)
        .with_seed(33);
    let clean = elle_gen::run_workload_log(params, db);
    let sched = FaultSchedule {
        duplicate_prob: 0.2,
        ..FaultSchedule::none()
    };
    let (wire, faults) = sched.apply(&clean);
    assert!(!faults.is_empty(), "schedule injected nothing");
    let (log, diags) =
        events_from_ndjson_with(&wire, RecoveryPolicy::Quarantine).expect("quarantine never errs");
    assert_eq!(diags.len(), faults.len(), "every duplicate diagnosed");

    let opts = CheckOptions::strict_serializable();
    let mut s = StreamChecker::new(opts);
    for (i, e) in log.events().iter().enumerate() {
        s.ingest_event(e).unwrap();
        if i % 40 == 39 {
            s.seal_epoch_guarded();
        }
    }
    let last = s.seal_epoch_guarded();
    let batch = Checker::new(opts).check(&clean.pair().unwrap());
    assert_eq!(
        serde_json::to_string(&last.report).unwrap(),
        serde_json::to_string(&batch).unwrap(),
        "exact duplicates must be absorbed without changing the verdict"
    );
}

#[test]
fn typical_fault_schedule_streams_without_panicking() {
    for seed in 0..8u64 {
        let params = GenParams::contended(120, ObjectKind::ListAppend).with_seed(seed);
        let db = DbConfig::new(IsolationLevel::Serializable, ObjectKind::ListAppend)
            .with_processes(4)
            .with_seed(seed);
        let clean = elle_gen::run_workload_log(params, db);
        let (wire, _) = FaultSchedule::typical(seed).apply(&clean);
        let (log, _) = events_from_ndjson_with(&wire, RecoveryPolicy::Quarantine).unwrap();
        let mut s = StreamChecker::new(CheckOptions::serializable());
        for (i, e) in log.events().iter().enumerate() {
            let _ = s
                .ingest_event_with(e, RecoveryPolicy::Quarantine)
                .expect("quarantine ingest never errors");
            if i % 50 == 49 {
                let epoch = s.seal_epoch_guarded();
                assert!(epoch.poisoned.is_none(), "seed {seed}: real seal panicked");
            }
        }
        let last = s.seal_epoch_guarded();
        assert!(last.poisoned.is_none());
    }
}

#[test]
fn snapshot_restore_mid_stream_is_byte_identical() {
    // Damage a generated wire, stream half of it (sealing once), then
    // fork: one checker continues live, the other is rebuilt from a
    // snapshot. Both must produce byte-identical epoch reports — same
    // epoch ordinal, same carried quarantine gauge, same verdict.
    let params = GenParams::contended(140, ObjectKind::ListAppend).with_seed(21);
    let db = DbConfig::new(IsolationLevel::Serializable, ObjectKind::ListAppend)
        .with_processes(4)
        .with_seed(21);
    let clean = elle_gen::run_workload_log(params, db);
    let (wire, _) = FaultSchedule::typical(21).apply(&clean);
    let (log, _) = events_from_ndjson_with(&wire, RecoveryPolicy::Quarantine).unwrap();
    let events = log.events();
    let opts = CheckOptions::strict_serializable();

    let mut live = StreamChecker::new(opts);
    for e in &events[..events.len() / 2] {
        live.ingest_event_with(e, RecoveryPolicy::Quarantine)
            .unwrap();
    }
    live.seal_epoch_guarded();
    for e in &events[events.len() / 2..3 * events.len() / 4] {
        live.ingest_event_with(e, RecoveryPolicy::Quarantine)
            .unwrap();
    }

    let snap = live.snapshot();
    let mut restored = StreamChecker::restore(opts, &snap);
    assert_eq!(restored.snapshot(), snap, "snapshot must be a fixpoint");

    for e in &events[3 * events.len() / 4..] {
        live.ingest_event_with(e, RecoveryPolicy::Quarantine)
            .unwrap();
        restored
            .ingest_event_with(e, RecoveryPolicy::Quarantine)
            .unwrap();
    }
    let a = live.seal_epoch_guarded();
    let b = restored.seal_epoch_guarded();
    assert_eq!(a.epoch, b.epoch, "epoch ordinal must survive restore");
    assert_eq!(
        a.frontier.quarantined_events, b.frontier.quarantined_events,
        "quarantine gauge must survive restore"
    );
    assert_eq!(a.events, b.events);
    assert_eq!(
        serde_json::to_string(&a.report).unwrap(),
        serde_json::to_string(&b.report).unwrap(),
        "restored checker diverged from the live one"
    );
}

#[test]
fn round_trip_ndjson_under_strict_policy_is_lossless() {
    let params = GenParams::contended(80, ObjectKind::ListAppend).with_seed(5);
    let db = DbConfig::new(IsolationLevel::Serializable, ObjectKind::ListAppend)
        .with_processes(3)
        .with_seed(5);
    let h = elle_gen::run_workload(params, db).unwrap();
    let wire = history_to_ndjson(&h);
    let (log, diags) = events_from_ndjson_with(&wire, RecoveryPolicy::Strict).unwrap();
    assert!(diags.is_empty());
    let h2 = log.pair().unwrap();
    assert_eq!(
        serde_json::to_string(&h).unwrap(),
        serde_json::to_string(&h2).unwrap()
    );
}

/// A checker's epoch transaction and event counts and its quarantine
/// gauge.
fn counts(s: &StreamChecker) -> (usize, usize, usize) {
    (s.txns_this_epoch(), s.events_this_epoch(), s.quarantined())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On a wire damaged by duplicates, delays, lost events, torn lines
    /// and crashed processes, the checker's counts are the recovery
    /// outcomes': an epoch's transactions are its invocations, adopted
    /// orphans and abandonments, its events every accepted event, and
    /// the gauge every skipped, adopted and abandoned event plus every
    /// line that did not decode. The counts survive snapshot and
    /// restore, and every seal, a poisoned one included, resets both
    /// epoch counts.
    #[test]
    fn the_checker_counts_each_epoch_by_its_recovery_outcomes(
        seed in any::<u64>(),
        seal_every in 1usize..12,
        restore_every in 3usize..40,
        poisoned_epoch in 0usize..6,
    ) {
        let params = GenParams::contended(60, ObjectKind::ListAppend).with_seed(seed);
        let db = DbConfig::new(IsolationLevel::Serializable, ObjectKind::ListAppend)
            .with_processes(4)
            .with_seed(seed);
        let clean = elle_gen::run_workload_log(params, db);
        let schedule = FaultSchedule {
            seed,
            duplicate_prob: 0.1,
            delay_prob: 0.05,
            drop_prob: 0.08,
            torn_prob: 0.05,
            crash_prob: 0.05,
            ..FaultSchedule::none()
        };
        let (wire, _) = schedule.apply(&clean);
        let opts = CheckOptions::serializable();
        let mut s = StreamChecker::new(opts);
        s.inject_seal_panic(poisoned_epoch);
        let (mut txns, mut events, mut quarantined) = (0, 0, 0);
        for (i, line) in wire.lines().enumerate() {
            match decode_event_line(line, SourcePos::default()) {
                Ok(None) => continue,
                Err(_) => {
                    s.quarantine_line();
                    quarantined += 1;
                }
                Ok(Some(ev)) => {
                    events += 1;
                    match s.ingest_event_with(&ev, RecoveryPolicy::Quarantine).unwrap() {
                        Recovered::Ingested(Ingest::Invoked(_)) => txns += 1,
                        Recovered::Ingested(Ingest::Completed(_)) => {}
                        Recovered::Skipped(_) => quarantined += 1,
                        Recovered::Adopted(..) | Recovered::Abandoned { .. } => {
                            txns += 1;
                            quarantined += 1;
                        }
                    }
                }
            }
            prop_assert_eq!(counts(&s), (txns, events, quarantined), "line {}", i + 1);
            if i % restore_every == restore_every - 1 {
                let restored = StreamChecker::restore(opts, &s.snapshot());
                prop_assert_eq!(counts(&restored), counts(&s), "restored at line {}", i + 1);
                s = restored;
                s.inject_seal_panic(poisoned_epoch);
            }
            if i % seal_every == seal_every - 1 {
                let epoch = s.seal_epoch_guarded();
                prop_assert_eq!(epoch.poisoned.is_some(), epoch.epoch == poisoned_epoch);
                prop_assert_eq!(epoch.events, events);
                prop_assert_eq!(epoch.frontier.quarantined_events, quarantined);
                (txns, events) = (0, 0);
                prop_assert_eq!(counts(&s), (0, 0, quarantined), "sealed at line {}", i + 1);
            }
        }
    }
}

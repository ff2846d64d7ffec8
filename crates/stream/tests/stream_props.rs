//! The streaming differential: at **every** epoch boundary, the stream
//! checker's report must serialize to exactly the same JSON bytes as
//! the batch checker run over the prefix ingested so far, and every
//! cached list-append result must equal a re-analysis of the key's
//! whole posting list. Histories are generated across isolation
//! levels, object kinds, and fault plans; epoch boundaries are
//! arbitrary event positions. The CI matrix runs this suite in both
//! scheduling modes (parallel and `ELLE_SEQUENTIAL=1`), so the
//! differential is enforced for both.

use elle_core::{CheckOptions, Checker};
use elle_dbsim::{DbConfig, FaultPlan, IsolationLevel, ObjectKind};
use elle_gen::GenParams;
use elle_history::EventLog;
use elle_stream::StreamChecker;
use proptest::prelude::*;

fn arb_log() -> impl Strategy<Value = (EventLog, CheckOptions)> {
    (
        any::<u64>(),  // seed
        1usize..=6,    // processes
        20usize..=100, // txns
        1usize..=4,    // active keys — contended
        prop_oneof![
            Just(IsolationLevel::ReadUncommitted),
            Just(IsolationLevel::ReadCommitted),
            Just(IsolationLevel::SnapshotIsolation),
            Just(IsolationLevel::Serializable),
            Just(IsolationLevel::StrictSerializable),
        ],
        prop_oneof![
            Just(ObjectKind::ListAppend),
            Just(ObjectKind::Register),
            Just(ObjectKind::Set),
            Just(ObjectKind::Counter),
        ],
        prop::bool::ANY, // faults
        prop::bool::ANY, // expose db timestamps + check them
        0usize..=2,      // register assumption level
    )
        .prop_map(
            |(seed, procs, n, keys, iso, kind, faults, timestamps, reg_level)| {
                let params = GenParams {
                    n_txns: n,
                    min_txn_len: 1,
                    max_txn_len: 5,
                    active_keys: keys,
                    writes_per_key: 16,
                    read_prob: 0.5,
                    kind,
                    seed,
                    final_reads: true,
                };
                let mut db = DbConfig::new(iso, kind)
                    .with_processes(procs)
                    .with_seed(seed ^ 0x5eed)
                    .with_faults(if faults {
                        FaultPlan::typical()
                    } else {
                        FaultPlan::none()
                    });
                if timestamps {
                    db = db.with_timestamps(true);
                }
                let mut opts = CheckOptions::strict_serializable().with_timestamp_edges(timestamps);
                let mut reg = elle_core::RegisterOptions::default();
                if reg_level >= 1 {
                    reg.sequential_keys = true;
                }
                if reg_level >= 2 {
                    reg.linearizable_keys = true;
                }
                opts = opts.with_registers(reg);
                let log = elle_gen::run_workload_log(params, db);
                (log, opts)
            },
        )
}

/// List-append histories whose keys outlive many epochs: many active
/// keys, each taking far more writes than an epoch holds, so late
/// anomalies land on keys whose cached results were extended clean for
/// a long time.
fn arb_long_lived_log() -> impl Strategy<Value = EventLog> {
    (
        any::<u64>(),   // seed
        2usize..=8,     // processes
        120usize..=240, // txns
        4usize..=12,    // active keys
        48u64..=160,    // writes per key
        prop_oneof![
            Just(IsolationLevel::ReadUncommitted),
            Just(IsolationLevel::ReadCommitted),
            Just(IsolationLevel::SnapshotIsolation),
            Just(IsolationLevel::Serializable),
        ],
        prop::bool::ANY, // faults
    )
        .prop_map(|(seed, procs, n, keys, writes, iso, faults)| {
            let params = GenParams {
                n_txns: n,
                min_txn_len: 1,
                max_txn_len: 5,
                active_keys: keys,
                writes_per_key: writes,
                read_prob: 0.5,
                kind: ObjectKind::ListAppend,
                seed,
                final_reads: true,
            };
            let db = DbConfig::new(iso, ObjectKind::ListAppend)
                .with_processes(procs)
                .with_seed(seed ^ 0x5eed)
                .with_faults(if faults {
                    FaultPlan::typical()
                } else {
                    FaultPlan::none()
                });
            elle_gen::run_workload_log(params, db)
        })
}

/// Check report equality at each cut: the stream ingests events up to
/// the cut, seals, and must reproduce `Checker::check` on the paired
/// prefix byte-for-byte, with every cached list result equal to a
/// re-analysis of its key.
fn assert_differential(log: &EventLog, opts: CheckOptions, cuts: &[usize]) -> Result<(), String> {
    let mut stream = StreamChecker::new(opts);
    let batch = Checker::new(opts);
    let events = log.events();
    let mut fed = 0usize;
    let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (events.len() + 1)).collect();
    cuts.push(events.len());
    cuts.sort_unstable();
    cuts.dedup();
    for cut in cuts {
        while fed < cut {
            stream
                .ingest_event(&events[fed])
                .expect("generated logs are well-formed");
            fed += 1;
        }
        let epoch = stream.seal_epoch();
        if let Err(e) = stream.recheck_list_cache() {
            return Err(format!(
                "cache diverges at cut {cut} (epoch {}): {e}",
                epoch.epoch
            ));
        }
        let prefix = EventLog::from_events(events[..cut].to_vec())
            .unwrap()
            .pair()
            .expect("prefix pairs");
        let want = batch.check(&prefix);
        let got_s = serde_json::to_string(&epoch.report).unwrap();
        let want_s = serde_json::to_string(&want).unwrap();
        prop_assert_eq!(
            got_s,
            want_s,
            "divergence at cut {} of {} (epoch {})",
            cut,
            events.len(),
            epoch.epoch
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stream_equals_batch_at_every_epoch(
        (log, opts) in arb_log(),
        cuts in prop::collection::vec(0usize..10_000, 0..6),
    ) {
        assert_differential(&log, opts, &cuts)?;
    }

    /// Degenerate split: seal after every single event. Exercises the
    /// open-transaction frontier hard (most seals see half-finished
    /// transactions).
    #[test]
    fn stream_equals_batch_event_by_event(
        (log, opts) in arb_log(),
    ) {
        let n = log.events().len().min(40);
        let cuts: Vec<usize> = (0..n).collect();
        assert_differential(&log, opts, &cuts)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Epochs far shorter than a key's life: most seals extend cached
    /// list results, and the faults' anomalies arrive on extended keys.
    #[test]
    fn stream_equals_batch_on_long_lived_keys(
        log in arb_long_lived_log(),
        every in 12usize..=40,
    ) {
        let n = log.events().len();
        let cuts: Vec<usize> = (1..).map(|i| i * every).take_while(|&c| c < n).collect();
        assert_differential(&log, CheckOptions::strict_serializable(), &cuts)?;
    }
}

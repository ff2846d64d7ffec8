//! The three-engine differential suite: Elle's sound cycle search, the
//! complete SAT cross-checker (`elle::sat`), and the WGL-style DFS
//! baseline (`elle::knossos`) on the same seeded histories, across all
//! four datatypes, clean and faulty.
//!
//! The invariants are one-directional, matching each engine's
//! guarantees:
//!
//! * cycle search is *sound*: any anomaly it reports under a model must
//!   make the SAT encoding of that model unsatisfiable;
//! * SAT is *complete*: a satisfiable serializable encoding means a
//!   legal serial order exists, which we replay and verify;
//! * a serial order is a legal snapshot-isolation execution, so
//!   SER-satisfiable implies SI-satisfiable;
//! * a DFS linearization is in particular a serialization, so DFS `Ok`
//!   implies SER-satisfiable — and SER-violated implies the DFS cannot
//!   find one.
//!
//! The converses are the paper's documented completeness gap (the cycle
//! search can miss anomalies SAT proves, and strict serializability is
//! stricter than serializability), so they are *not* asserted.
//!
//! Disagreements are delta-debugged before being reported: the SAT
//! witness is re-checked as a standalone sub-history, so a failure
//! message names a minimal, self-certifying counterexample.

use elle::prelude::*;
use std::time::Duration;

fn sat_check(h: &History, model: SatModel) -> SatVerdict {
    elle::sat::check(h, model).verdict
}

fn cycle_report(h: &History, model: ConsistencyModel) -> Report {
    let opts = match model {
        ConsistencyModel::Serializable => CheckOptions::serializable(),
        ConsistencyModel::SnapshotIsolation => CheckOptions::snapshot_isolation(),
        other => panic!("no SAT counterpart for {other}"),
    };
    Checker::new(opts).check(h)
}

fn dfs(h: &History, budget: Duration) -> KnossosOutcome {
    elle::knossos::check(h, KnossosOptions::default().with_budget(budget)).outcome
}

/// Re-check a violation witness as a standalone history: the minimal
/// counterexample must still violate the model on its own. This is the
/// delta-debugging step that keeps disagreement reports small.
fn witness_self_certifies(h: &History, model: SatModel, witness: &[TxnId]) {
    assert!(!witness.is_empty(), "violation with an empty witness");
    for t in witness {
        assert!(
            (t.0 as usize) < h.len(),
            "witness names {t} but the history has {} transactions",
            h.len()
        );
    }
    let sub = elle::sat::sub_history(h, witness);
    let v = sat_check(&sub, model);
    assert!(
        matches!(v, SatVerdict::Violated { .. }),
        "witness sub-history of {} txns does not self-certify: {v:?}",
        witness.len()
    );
}

/// The cross-engine invariants on one history. Returns true when some
/// model was violated (so callers can assert the sweep saw anomalies).
fn cross_check(h: &History, label: &str) -> bool {
    let mut any_violated = false;
    let mut certified = false;
    let mut ser_satisfiable = false;
    for (cm, sm) in [
        (ConsistencyModel::Serializable, SatModel::Serializable),
        (
            ConsistencyModel::SnapshotIsolation,
            SatModel::SnapshotIsolation,
        ),
    ] {
        let cycle = cycle_report(h, cm);
        let sat = sat_check(h, sm);
        match &sat {
            SatVerdict::Unsupported { .. } => continue, // counters
            SatVerdict::Unknown { reason } => panic!("{label}: SAT budget blown: {reason}"),
            SatVerdict::Satisfiable { order } => {
                assert!(
                    cycle.ok(),
                    "{label}: DISAGREEMENT under {cm}: cycle search found {} \
                     anomalies but SAT found a legal order:\n{}",
                    cycle.anomalies.len(),
                    cycle.summary()
                );
                if sm == SatModel::Serializable {
                    ser_satisfiable = true;
                    elle::sat::verify_serial_order(h, order)
                        .unwrap_or_else(|e| panic!("{label}: decoded order fails replay: {e}"));
                }
            }
            SatVerdict::Violated { witness, .. } => {
                any_violated = true;
                // Certify one witness per history (it re-runs the
                // solver); every witness must at least name real txns.
                for t in witness {
                    assert!((t.0 as usize) < h.len(), "{label}: witness names {t}");
                }
                if !certified {
                    witness_self_certifies(h, sm, witness);
                    certified = true;
                }
            }
        }
        if sm == SatModel::SnapshotIsolation && ser_satisfiable {
            assert!(
                matches!(sat, SatVerdict::Satisfiable { .. }),
                "{label}: serializable but not snapshot-isolation?"
            );
        }
    }
    any_violated
}

fn generated(kind: ObjectKind, iso: IsolationLevel, seed: u64, faults: bool) -> History {
    let params = GenParams {
        n_txns: 60,
        min_txn_len: 1,
        max_txn_len: 4,
        active_keys: 3,
        writes_per_key: 32,
        read_prob: 0.5,
        kind,
        seed,
        final_reads: false,
    };
    let mut db = DbConfig::new(iso, kind).with_processes(3).with_seed(seed);
    if faults {
        db = db.with_faults(FaultPlan {
            info_prob: 0.1,
            server_abort_prob: 0.05,
            crash_on_info: true,
        });
    }
    run_workload(params, db).unwrap()
}

/// ≥ 200 seeded histories for one datatype: isolation levels from
/// strict down to read-committed, clean and faulty, plus a buggy-db leg
/// that manufactures real anomalies.
fn sweep(kind: ObjectKind) {
    let mut violated = 0usize;
    let mut total = 0usize;
    for iso in [
        IsolationLevel::StrictSerializable,
        IsolationLevel::SnapshotIsolation,
        IsolationLevel::ReadCommitted,
    ] {
        for faults in [false, true] {
            for seed in 1..=17 {
                let h = generated(kind, iso, seed, faults);
                let label = format!("{kind:?}/{iso:?}/faults={faults}/seed={seed}");
                if cross_check(&h, &label) {
                    violated += 1;
                }
                total += 1;
            }
        }
    }
    // A buggy database to guarantee the violated path is exercised
    // (weak isolation alone can stay clean at this scale).
    for seed in 1..=100 {
        let params = GenParams {
            n_txns: 60,
            min_txn_len: 2,
            max_txn_len: 4,
            active_keys: 2,
            writes_per_key: 64,
            read_prob: 0.5,
            kind,
            seed,
            final_reads: false,
        };
        let db = DbConfig::new(IsolationLevel::SnapshotIsolation, kind)
            .with_processes(3)
            .with_seed(seed)
            .with_bug(Bug::SilentRetry);
        let h = run_workload(params, db).unwrap();
        if cross_check(&h, &format!("{kind:?}/SilentRetry/seed={seed}")) {
            violated += 1;
        }
        total += 1;
    }
    assert!(total >= 200, "sweep ran only {total} histories");
    if kind != ObjectKind::Counter {
        assert!(
            violated > 0,
            "{kind:?}: no seed produced a violation — the violated path went untested"
        );
    }
}

#[test]
fn cross_check_list_histories() {
    sweep(ObjectKind::ListAppend);
}

#[test]
fn cross_check_register_histories() {
    sweep(ObjectKind::Register);
}

#[test]
fn cross_check_set_histories() {
    sweep(ObjectKind::Set);
}

#[test]
fn cross_check_counter_histories() {
    // Counters are outside the SAT engine's model: the cross-check is
    // vacuous (Unsupported), but must be *cleanly* vacuous on every
    // seed, and the cycle engine still runs.
    sweep(ObjectKind::Counter);
    let h = generated(
        ObjectKind::Counter,
        IsolationLevel::SnapshotIsolation,
        1,
        false,
    );
    assert!(matches!(
        sat_check(&h, SatModel::Serializable),
        SatVerdict::Unsupported { .. }
    ));
}

#[test]
fn dfs_agrees_with_sat_on_list_histories() {
    let budget = Duration::from_secs(5);
    let mut decided = 0usize;
    for seed in 1..=10 {
        for iso in [
            IsolationLevel::StrictSerializable,
            IsolationLevel::SnapshotIsolation,
        ] {
            let h = generated(ObjectKind::ListAppend, iso, seed, false);
            let d = dfs(&h, budget);
            let s = sat_check(&h, SatModel::Serializable);
            match d {
                KnossosOutcome::Unknown => continue, // budget exhausted: no claim
                KnossosOutcome::Ok => {
                    // A linearization is in particular a serialization.
                    assert!(
                        matches!(s, SatVerdict::Satisfiable { .. }),
                        "seed {seed}/{iso:?}: DFS linearized but SAT says {s:?}"
                    );
                }
                KnossosOutcome::Violation => {
                    // Strictness gap: not-strict-1SR may still be
                    // serializable, so only the converse is checkable.
                }
            }
            if let SatVerdict::Violated { ref witness, .. } = s {
                assert_ne!(
                    d,
                    KnossosOutcome::Ok,
                    "seed {seed}/{iso:?}: SAT proved unserializable (witness {witness:?}) \
                     but DFS found a linearization"
                );
            }
            decided += 1;
        }
    }
    assert!(decided > 0, "every DFS run blew its budget");
}

// ---------------------------------------------------------------------
// Pinned anomaly-zoo fixtures: the same minimal shapes tests/anomaly_zoo.rs
// pins for the cycle engine, re-asserted through all engines.
// ---------------------------------------------------------------------

fn assert_violated(h: &History, model: SatModel, name: &str) {
    match sat_check(h, model) {
        SatVerdict::Violated { witness, .. } => witness_self_certifies(h, model, &witness),
        v => panic!("{name}: expected {model} violated, got {v:?}"),
    }
}

fn assert_satisfiable(h: &History, model: SatModel, name: &str) {
    let v = sat_check(h, model);
    assert!(
        matches!(v, SatVerdict::Satisfiable { .. }),
        "{name}: expected {model} satisfiable, got {v:?}"
    );
}

#[test]
fn zoo_g0_write_cycle_all_engines() {
    let mut b = HistoryBuilder::new();
    b.txn(0).append(1, 1).append(2, 2).at(0, Some(3)).commit();
    b.txn(1).append(1, 3).append(2, 4).at(1, Some(2)).commit();
    b.txn(2)
        .read_list(1, [1, 3])
        .read_list(2, [4, 2])
        .at(4, Some(5))
        .commit();
    let h = b.build();
    assert!(!cycle_report(&h, ConsistencyModel::Serializable).ok());
    assert_violated(&h, SatModel::Serializable, "g0");
    assert_violated(&h, SatModel::SnapshotIsolation, "g0");
    assert_eq!(dfs(&h, Duration::from_secs(5)), KnossosOutcome::Violation);
}

#[test]
fn zoo_g1a_aborted_read_all_engines() {
    let mut b = HistoryBuilder::new();
    b.txn(0).append(1, 1).abort();
    b.txn(1).read_list(1, [1]).commit();
    let h = b.build();
    assert!(!cycle_report(&h, ConsistencyModel::Serializable).ok());
    assert_violated(&h, SatModel::Serializable, "g1a");
    assert_violated(&h, SatModel::SnapshotIsolation, "g1a");
}

#[test]
fn zoo_g1b_intermediate_read_all_engines() {
    let mut b = HistoryBuilder::new();
    b.txn(0).append(1, 1).append(1, 2).commit();
    b.txn(1).read_list(1, [1]).commit();
    let h = b.build();
    assert!(!cycle_report(&h, ConsistencyModel::Serializable).ok());
    assert_violated(&h, SatModel::Serializable, "g1b");
    assert_violated(&h, SatModel::SnapshotIsolation, "g1b");
}

#[test]
fn zoo_g_single_read_skew_all_engines() {
    // The paper's §7.1 TiDB trio (elle-check's --demo history).
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
    assert!(!cycle_report(&h, ConsistencyModel::Serializable).ok());
    assert!(!cycle_report(&h, ConsistencyModel::SnapshotIsolation).ok());
    assert_violated(&h, SatModel::Serializable, "g-single");
    assert_violated(&h, SatModel::SnapshotIsolation, "g-single");
    assert_eq!(dfs(&h, Duration::from_secs(5)), KnossosOutcome::Violation);
}

#[test]
fn zoo_write_skew_splits_the_models_all_engines() {
    // Classic register write skew: G2-item, legal under SI.
    let mut b = HistoryBuilder::new();
    b.txn(0).write(1, 10).write(2, 10).at(0, Some(1)).commit();
    b.txn(1)
        .read_register(1, Some(10))
        .read_register(2, Some(10))
        .write(1, 11)
        .at(2, Some(10))
        .commit();
    b.txn(2)
        .read_register(1, Some(10))
        .read_register(2, Some(10))
        .write(2, 12)
        .at(3, Some(9))
        .commit();
    let h = b.build();
    assert_violated(&h, SatModel::Serializable, "write-skew");
    assert_satisfiable(&h, SatModel::SnapshotIsolation, "write-skew");
}

#[test]
fn zoo_lost_update_all_engines() {
    // Both writers read the same version then overwrite: first-committer-
    // wins forbids it under SI, and no serial order explains it either.
    let mut b = HistoryBuilder::new();
    b.txn(0).write(1, 10).at(0, Some(1)).commit();
    b.txn(1)
        .read_register(1, Some(10))
        .write(1, 11)
        .at(2, Some(10))
        .commit();
    b.txn(2)
        .read_register(1, Some(10))
        .write(1, 12)
        .at(3, Some(9))
        .commit();
    b.txn(3)
        .read_register(1, Some(11))
        .at(11, Some(12))
        .commit();
    b.txn(4)
        .read_register(1, Some(12))
        .at(13, Some(14))
        .commit();
    let h = b.build();
    assert_violated(&h, SatModel::Serializable, "lost-update");
    assert_violated(&h, SatModel::SnapshotIsolation, "lost-update");
}

#[test]
fn zoo_long_fork_is_the_cycle_engines_completeness_gap() {
    // Two readers observe two independent writes in opposite orders:
    // UNSAT under SI (no pair of snapshots explains it), but invisible
    // to the cycle engine's SI obligations — the documented gap the SAT
    // engine closes, and exactly why the cross-check invariants are
    // one-directional.
    let mut b = HistoryBuilder::new();
    b.txn(0).write(1, 10).at(0, Some(1)).commit();
    b.txn(1).write(2, 20).at(2, Some(3)).commit();
    b.txn(2)
        .read_register(1, Some(10))
        .read_register(2, None)
        .at(4, Some(5))
        .commit();
    b.txn(3)
        .read_register(1, None)
        .read_register(2, Some(20))
        .at(6, Some(7))
        .commit();
    let h = b.build();
    assert!(
        cycle_report(&h, ConsistencyModel::SnapshotIsolation).ok(),
        "cycle engine is expected to be blind to the long fork"
    );
    assert_violated(&h, SatModel::SnapshotIsolation, "long-fork");
    assert_violated(&h, SatModel::Serializable, "long-fork");
}

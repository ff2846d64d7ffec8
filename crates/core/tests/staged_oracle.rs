//! `Checker::check`, now a driver of the shared analysis pipeline, must
//! report byte-for-byte what the independent staged composition of the
//! public stage functions reports (`staged::check`), on the history
//! shapes the streaming differential generates: all four datatypes,
//! faults, database timestamps and every register assumption level.

mod staged;

use elle_core::list_append::ListAppend;
use elle_core::rw_register::RwRegister;
use elle_core::set_add::SetAdd;
use elle_core::{AnomalyType, CheckOptions, Checker, DataType, ElemIndex, KeyTypes};
use elle_dbsim::{DbConfig, FaultPlan, IsolationLevel, ObjectKind};
use elle_gen::GenParams;
use elle_graph::EdgeClass;
use elle_history::{History, HistoryBuilder, Key};
use proptest::prelude::*;

fn arb_case() -> impl Strategy<Value = (History, CheckOptions)> {
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
                let db = DbConfig::new(iso, kind)
                    .with_processes(procs)
                    .with_seed(seed ^ 0x5eed)
                    .with_faults(if faults {
                        FaultPlan::typical()
                    } else {
                        FaultPlan::none()
                    })
                    .with_timestamps(timestamps);
                let registers = elle_core::RegisterOptions {
                    sequential_keys: reg_level >= 1,
                    linearizable_keys: reg_level >= 2,
                    ..Default::default()
                };
                let opts = CheckOptions::strict_serializable()
                    .with_timestamp_edges(timestamps)
                    .with_registers(registers);
                let h = elle_gen::run_workload(params, db).expect("history pairs");
                (h, opts)
            },
        )
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).unwrap()
}

fn staged_check(h: &History, opts: CheckOptions) -> String {
    json(&staged::check::<ListAppend, RwRegister, SetAdd>(h, opts))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn checker_equals_staged_composition((h, opts) in arb_case()) {
        prop_assert_eq!(json(&Checker::new(opts).check(&h)), staged_check(&h, opts));
        // The other consistency models judge the same inference.
        let plain = CheckOptions::serializable().with_registers(opts.registers);
        prop_assert_eq!(json(&Checker::new(plain).check(&h)), staged_check(&h, plain));
    }
}

/// A key both incremented and set-added types as a counter; two adds
/// of one element collide in the element index, but counters are not
/// recoverable and take no part in the duplicate-write pass.
#[test]
fn counter_typed_key_with_duplicate_set_adds_reports_no_duplicate_write() {
    let mut b = HistoryBuilder::new();
    b.txn(0).increment(1, 1).commit();
    b.txn(1).add_to_set(1, 5).commit();
    b.txn(2).add_to_set(1, 5).commit();
    b.txn(3).read_counter(1, 1).read_set(2, []).commit();
    let h = b.build();
    assert_eq!(KeyTypes::infer(&h).get(Key(1)), Some(DataType::Counter));
    assert!(
        !ElemIndex::build(&h).duplicates.is_empty(),
        "the set adds collide in the element index"
    );
    let opts = CheckOptions::serializable();
    let report = Checker::new(opts).check(&h);
    assert!(
        !report
            .anomaly_counts
            .contains_key(&AnomalyType::DuplicateWrite),
        "{}",
        report.summary()
    );
    assert_eq!(report.warnings.len(), 1, "the conflict is warned about");
    assert_eq!(json(&report), staged_check(&h, opts));
}

/// A committed transaction whose completion went unrecorded (history
/// files may omit it) has real-time predecessors but is never one, as
/// in the reference interval reduction.
#[test]
fn commit_without_completion_takes_realtime_predecessors_only() {
    let mut b = HistoryBuilder::new();
    b.txn(0).at(0, Some(1)).read_list(1, [2]).commit();
    b.txn(1).at(2, None).append(1, 2).commit();
    b.txn(2)
        .at(3, Some(4))
        .read_list(1, [2])
        .append(1, 3)
        .commit();
    b.txn(3).at(5, Some(6)).read_list(1, [2, 3]).commit();
    let h = b.build();
    let opts = CheckOptions::strict_serializable();
    let checker = Checker::new(opts);
    let report = checker.check(&h);
    assert_eq!(json(&report), staged_check(&h, opts));
    assert_eq!(json(&checker.check_timed(&h).0), json(&report));
    // T0 completed before T1 was invoked, yet read T1's append: a
    // cycle through T1's real-time predecessor edge.
    assert!(!report.ok(), "{}", report.summary());
    let idsg = checker.infer_idsg(&h);
    let rt = |a: u32, b: u32| idsg.edge_mask(a, b).contains(EdgeClass::Realtime);
    assert!(rt(0, 1) && rt(0, 2) && rt(2, 3));
    assert!(!rt(1, 2) && !rt(1, 3), "T1 never completed");
}

//! Differential property tests for the version-interned datatype
//! pipeline: on arbitrary histories — including poisoned keys,
//! duplicate elements, garbage reads, and incompatible-order cases —
//! the interned passes must be **byte-for-byte** identical to the
//! preserved seed per-read pipeline (`elle_core::reference`): same
//! anomaly vector (order and explanation strings included), same
//! version orders, same cyclic keys, same dependency edges and
//! witnesses, in both sequential and parallel scheduling.

mod staged;

use elle_core::datatype::{run_mode, DriverOutput, Parallelism};
use elle_core::list_append::ListAppend;
use elle_core::reference::{ListAppendRef, RwRegisterRef, SetAddRef};
use elle_core::rw_register::{RegisterOptions, RwRegister};
use elle_core::set_add::SetAdd;
use elle_core::{CheckOptions, Checker, DataType, KeyTypes, ProvenanceIndex};
use elle_dbsim::{DbConfig, FaultPlan, IsolationLevel, ObjectKind};
use elle_gen::{run_workload, GenParams};
use elle_history::{History, TxnId};
use proptest::prelude::*;

fn arb_history(kind: ObjectKind) -> impl Strategy<Value = History> {
    (
        any::<u64>(),  // seed
        1usize..=6,    // processes
        40usize..=120, // txns
        1usize..=4,    // active keys — few keys, high contention
        prop_oneof![
            Just(IsolationLevel::ReadUncommitted),
            Just(IsolationLevel::ReadCommitted),
            Just(IsolationLevel::SnapshotIsolation),
            Just(IsolationLevel::Serializable),
        ],
        prop::bool::ANY, // faults (dirty reads, aborts, duplicate writes…)
    )
        .prop_map(move |(seed, procs, n, keys, iso, faults)| {
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
                });
            run_workload(params, db).expect("history pairs")
        })
}

/// Byte-for-byte equality of two driver outputs: exact anomaly vector
/// (order + explanations), version orders, cyclic keys, and the full
/// edge set with per-edge witnesses.
fn assert_byte_identical(new: &DriverOutput, seed: &DriverOutput) -> Result<(), String> {
    prop_assert_eq!(&new.anomalies, &seed.anomalies);
    prop_assert_eq!(&new.version_orders, &seed.version_orders);
    prop_assert_eq!(&new.cyclic_keys, &seed.cyclic_keys);
    prop_assert_eq!(
        new.deps.edge_count(),
        seed.deps.edge_count(),
        "edge counts diverge"
    );
    for (a, b, m) in seed.deps.edges() {
        prop_assert_eq!(new.deps.edge_mask(a, b), m, "edge {} -> {}", a, b);
        prop_assert_eq!(
            new.deps.witnesses(TxnId(a), TxnId(b)),
            seed.deps.witnesses(TxnId(a), TxnId(b)),
            "witnesses diverge on {} -> {}",
            a,
            b
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn list_interned_matches_seed(h in arb_history(ObjectKind::ListAppend)) {
        let elems = ProvenanceIndex::build(&h);
        let keys = KeyTypes::infer(&h).keys_of(DataType::List);
        for mode in [Parallelism::Sequential, Parallelism::Parallel] {
            let new = run_mode::<ListAppend>(&h, &elems, &keys, (), mode);
            let seed = run_mode::<ListAppendRef>(&h, &elems, &keys, (), mode);
            assert_byte_identical(&new, &seed)?;
        }
    }

    #[test]
    fn set_interned_matches_seed(h in arb_history(ObjectKind::Set)) {
        let elems = ProvenanceIndex::build(&h);
        let keys = KeyTypes::infer(&h).keys_of(DataType::Set);
        for mode in [Parallelism::Sequential, Parallelism::Parallel] {
            let new = run_mode::<SetAdd>(&h, &elems, &keys, (), mode);
            let seed = run_mode::<SetAddRef>(&h, &elems, &keys, (), mode);
            assert_byte_identical(&new, &seed)?;
        }
    }

    #[test]
    fn register_interned_matches_seed(
        h in arb_history(ObjectKind::Register),
        sequential_keys in prop::bool::ANY,
        linearizable_keys in prop::bool::ANY,
    ) {
        let elems = ProvenanceIndex::build(&h);
        let keys = KeyTypes::infer(&h).keys_of(DataType::Register);
        let opts = RegisterOptions {
            sequential_keys,
            linearizable_keys,
            ..RegisterOptions::default()
        };
        for mode in [Parallelism::Sequential, Parallelism::Parallel] {
            let new = run_mode::<RwRegister>(&h, &elems, &keys, opts, mode);
            let seed = run_mode::<RwRegisterRef>(&h, &elems, &keys, opts, mode);
            assert_byte_identical(&new, &seed)?;
        }
    }

    /// End to end: the full checker report (anomalies, counts, models,
    /// stats) serializes to the same JSON bytes through the interned
    /// pipeline as through the staged composition of the seed per-read
    /// passes (`staged::check` with the reference datatypes). Runs under
    /// whatever scheduling `ELLE_SEQUENTIAL` pins, so the CI matrix
    /// exercises both.
    #[test]
    fn checker_reports_byte_identical(
        h in arb_history(ObjectKind::ListAppend),
        h_reg in arb_history(ObjectKind::Register),
    ) {
        for history in [&h, &h_reg] {
            let opts = CheckOptions::strict_serializable();
            let new = serde_json::to_string(&Checker::new(opts).check(history)).unwrap();
            let seed = staged::check::<ListAppendRef, RwRegisterRef, SetAddRef>(history, opts);
            let seed = serde_json::to_string(&seed).unwrap();
            prop_assert_eq!(&new, &seed);
        }
    }
}

//! Property tests for the (SCC × anomaly class) cycle-search fan-out:
//! the parallel run must produce **byte-identical** anomaly reports to
//! the sequential reference pass, on randomly generated histories with
//! real anomalies (weak isolation levels, faults, contention).

use elle_core::datatype::{run_mode, Parallelism};
use elle_core::explain::explain_cycle;
use elle_core::list_append::ListAppend;
use elle_core::{
    add_process_edges, add_realtime_edges, find_cycle_anomalies, find_cycle_anomalies_mode,
    CycleSearchOptions, DataType, KeyTypes, ProvenanceIndex,
};
use elle_dbsim::{DbConfig, FaultPlan, IsolationLevel, ObjectKind};
use elle_gen::{run_workload, GenParams};
use elle_history::History;
use proptest::prelude::*;

fn arb_history() -> impl Strategy<Value = History> {
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
        prop::bool::ANY, // faults
    )
        .prop_map(|(seed, procs, n, keys, iso, faults)| {
            let params = GenParams {
                n_txns: n,
                min_txn_len: 1,
                max_txn_len: 5,
                active_keys: keys,
                writes_per_key: 16,
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
            run_workload(params, db).expect("history pairs")
        })
}

/// Assemble the IDSG the same way the checker does: datatype inference
/// (sequential, so the graph itself is fixed) plus derived orders.
fn idsg(h: &History) -> elle_core::DepGraph {
    let elems = ProvenanceIndex::build(h);
    let keys = KeyTypes::infer(h).keys_of(DataType::List);
    let out = run_mode::<ListAppend>(h, &elems, &keys, (), Parallelism::Sequential);
    let mut deps = out.deps;
    add_process_edges(&mut deps, h);
    add_realtime_edges(&mut deps, h);
    deps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fan-out is observationally pure: sequential and parallel modes
    /// serialize to the same JSON bytes.
    #[test]
    fn parallel_cycle_search_matches_sequential(h in arb_history()) {
        let mut deps = idsg(&h);
        let csr = deps.freeze();
        let opts = CycleSearchOptions::default();
        let seq = find_cycle_anomalies_mode(&deps, &csr, &h, opts, Parallelism::Sequential);
        let par = find_cycle_anomalies_mode(&deps, &csr, &h, opts, Parallelism::Parallel);
        prop_assert_eq!(&seq, &par);
        let seq_bytes = serde_json::to_string(&seq).expect("serialize").into_bytes();
        let par_bytes = serde_json::to_string(&par).expect("serialize").into_bytes();
        prop_assert_eq!(seq_bytes, par_bytes, "reports differ at the byte level");
    }

    /// The convenience entry point (freeze + Auto mode) agrees with the
    /// explicit sequential reference as well.
    #[test]
    fn auto_mode_matches_sequential(h in arb_history()) {
        let mut deps = idsg(&h);
        let csr = deps.freeze();
        let opts = CycleSearchOptions::default();
        let auto = find_cycle_anomalies(&mut deps, &h, opts);
        let seq = find_cycle_anomalies_mode(&deps, &csr, &h, opts, Parallelism::Sequential);
        prop_assert_eq!(auto, seq);
    }

    /// Searching a timestamp-augmented plan stays deterministic too.
    #[test]
    fn timestamp_level_parallel_matches_sequential(h in arb_history()) {
        let mut deps = idsg(&h);
        elle_core::add_timestamp_edges(&mut deps, &h);
        let csr = deps.freeze();
        let opts = CycleSearchOptions {
            timestamp_edges: true,
            ..CycleSearchOptions::default()
        };
        let seq = find_cycle_anomalies_mode(&deps, &csr, &h, opts, Parallelism::Sequential);
        let par = find_cycle_anomalies_mode(&deps, &csr, &h, opts, Parallelism::Parallel);
        prop_assert_eq!(seq, par);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The early-acyclic certificate (and the region-restricted
    /// per-class passes it enables) must not change what is found:
    /// reports with and without it are byte-identical.
    #[test]
    fn certificate_is_invisible_in_reports(h in arb_history()) {
        let mut deps = idsg(&h);
        let csr = deps.freeze();
        let base = CycleSearchOptions::default();
        let with = find_cycle_anomalies_mode(
            &deps, &csr, &h,
            CycleSearchOptions { certificate: true, ..base },
            Parallelism::Sequential,
        );
        let without = find_cycle_anomalies_mode(
            &deps, &csr, &h,
            CycleSearchOptions { certificate: false, ..base },
            Parallelism::Sequential,
        );
        prop_assert_eq!(
            serde_json::to_string(&with).unwrap(),
            serde_json::to_string(&without).unwrap()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The per-type cap on generated histories, in both scheduling
    /// modes: each capped search is stable-sorted by (type, length),
    /// keeps at most `cap` cycles per type, explains every survivor, and
    /// is the same in both modes. A capped search is not the uncapped one
    /// truncated: the cap also bounds how many candidates each G1c,
    /// G-single or G2-item search takes from one SCC. The in-crate property
    /// `cycle_search::tests::capping_commutes_with_explaining` compares
    /// capped and uncapped merges over the same candidates.
    #[test]
    fn capped_search_keeps_the_shortest_and_explains_them(h in arb_history()) {
        let mut deps = idsg(&h);
        let csr = deps.freeze();
        for max_per_type in [0usize, 1, 2, 4] {
            let opts = CycleSearchOptions { max_per_type, ..CycleSearchOptions::default() };
            let seq = find_cycle_anomalies_mode(&deps, &csr, &h, opts, Parallelism::Sequential);
            let par = find_cycle_anomalies_mode(&deps, &csr, &h, opts, Parallelism::Parallel);
            prop_assert_eq!(&seq, &par);
            let mut sorted = seq.clone();
            sorted.sort_by_key(|a| (a.typ, a.txns.len()));
            prop_assert_eq!(&sorted, &seq);
            let mut per_type = std::collections::BTreeMap::new();
            for a in &seq {
                *per_type.entry(a.typ).or_insert(0usize) += 1;
                prop_assert_eq!(&a.explanation, &explain_cycle(&h, &a.steps));
            }
            prop_assert!(per_type.values().all(|&n| n <= max_per_type));
        }
    }
}

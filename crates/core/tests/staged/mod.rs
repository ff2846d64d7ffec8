//! An independent batch oracle: `Checker::check` composed from the
//! public stage functions, in the sequence the checker ran them before
//! it became a driver of `elle_core::pipeline` — per-datatype
//! `run_mode` plus `counter::analyze`, the reference `add_*_edges`
//! derivations, `build` and `freeze`, the exhaustive cycle search of
//! [`cycles`], the coverage count and `assemble_report`. Since the
//! batch and stream checkers now share the pipeline, "stream == batch"
//! no longer tests the shared stages; "pipeline == this composition"
//! does, and it holds the shipped cycle search, which skips work items,
//! to the exhaustive one.
//!
//! Generic over the list, register and set implementations, so the
//! same composition also runs the seed per-read reference passes
//! (`elle_core::reference`).

pub mod cycles;

use elle_core::counter;
use elle_core::datatype::{run_mode, DatatypeAnalysis, DriverOutput, Parallelism};
use elle_core::{
    add_process_edges, add_realtime_edges, add_timestamp_edges, assemble_report, CheckOptions,
    CheckStats, CycleSearchOptions, DataType, DepGraph, ElemIndex, KeyTypes, RegisterOptions,
    Report,
};
use elle_history::{Elem, History, Key};
use rustc_hash::FxHashSet;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Check `history` stage by stage with list analysis `L`, register
/// analysis `R` and set analysis `S`.
pub fn check<L, R, S>(history: &History, opts: CheckOptions) -> Report
where
    L: DatatypeAnalysis<Config = ()>,
    R: DatatypeAnalysis<Config = RegisterOptions>,
    S: DatatypeAnalysis<Config = ()>,
{
    let kt = KeyTypes::infer(history);
    let elems = ElemIndex::build(history);
    let warnings: Vec<String> = kt
        .conflicts
        .iter()
        .map(|k| {
            format!("key {k} is used as more than one datatype; its inferences are unreliable")
        })
        .collect();

    let mut anomalies = Vec::new();
    let mut observed: FxHashSet<(Key, Elem)> = FxHashSet::default();
    let mut deps = DepGraph::with_txns(history.len());
    // The first datatype's graph is adopted wholesale; later ones merge.
    let absorb = |deps: &mut DepGraph, other: DepGraph| {
        if deps.edge_count() == 0 {
            let floor = std::mem::replace(deps, other);
            deps.ensure_txns(floor.txns_floor());
        } else {
            deps.merge(other);
        }
    };
    let mut fold = |out: DriverOutput, deps: &mut DepGraph| {
        anomalies.extend(out.anomalies);
        observed.extend(out.observed);
        absorb(deps, out.deps);
    };
    let mode = Parallelism::Auto;
    let list_keys = kt.keys_of(DataType::List);
    if !list_keys.is_empty() {
        let out = run_mode::<L>(history, &elems, &list_keys, (), mode);
        fold(out, &mut deps);
    }
    let reg_keys = kt.keys_of(DataType::Register);
    if !reg_keys.is_empty() {
        let out = run_mode::<R>(history, &elems, &reg_keys, opts.registers, mode);
        fold(out, &mut deps);
    }
    let set_keys = kt.keys_of(DataType::Set);
    if !set_keys.is_empty() {
        let out = run_mode::<S>(history, &elems, &set_keys, (), mode);
        fold(out, &mut deps);
    }
    let counter_keys = kt.keys_of(DataType::Counter);
    if !counter_keys.is_empty() {
        let a = counter::analyze(history, &counter_keys);
        anomalies.extend(a.anomalies);
        absorb(&mut deps, a.deps);
    }

    if opts.process_edges {
        add_process_edges(&mut deps, history);
    }
    if opts.realtime_edges {
        add_realtime_edges(&mut deps, history);
    }
    if opts.timestamp_edges {
        add_timestamp_edges(&mut deps, history);
    }
    deps.build();
    let frozen = deps.freeze();
    anomalies.extend(cycles::find_cycle_anomalies(
        &deps,
        &frozen,
        history,
        CycleSearchOptions {
            process_edges: opts.process_edges,
            realtime_edges: opts.realtime_edges,
            timestamp_edges: opts.timestamp_edges,
            max_per_type: opts.max_cycles_per_type,
            certificate: true,
        },
    ));

    let mut committed_writes = 0usize;
    let mut observed_writes = 0usize;
    for t in history.txns() {
        if !t.status.may_have_committed() {
            continue;
        }
        for (_, key, e) in t.elem_writes() {
            committed_writes += 1;
            if observed.contains(&(key, e)) {
                observed_writes += 1;
            }
        }
    }
    let txns = history.txns();
    let stats = CheckStats {
        txns: history.len(),
        mops: history.mop_count(),
        committed: txns.iter().filter(|t| t.status.is_committed()).count(),
        aborted: txns.iter().filter(|t| t.status.is_aborted()).count(),
        indeterminate: txns
            .iter()
            .filter(|t| !t.status.is_committed() && !t.status.is_aborted())
            .count(),
        edges: BTreeMap::new(),
        committed_writes,
        observed_writes,
    };
    assemble_report(
        opts.expected,
        anomalies.into_iter().map(Arc::new).collect(),
        &deps,
        stats,
        warnings,
    )
}

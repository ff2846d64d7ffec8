//! `Checker::check`, replayed stage by stage through the core crate's
//! public stage functions, in the order the checker itself calls them,
//! with one span per stage. The traced runs assert that the report this
//! produces is byte-identical to `Checker::check`'s, so the per-layer
//! times are times of the program the end-to-end numbers measure.

use crate::trace::{SpanId, Tracer};
use elle_core::counter;
use elle_core::datatype::{run_mode, DriverOutput};
use elle_core::list_append::ListAppend;
use elle_core::rw_register::RwRegister;
use elle_core::set_add::SetAdd;
use elle_core::{
    add_process_edges, add_realtime_edges, add_timestamp_edges, assemble_report,
    find_cycle_anomalies_frozen, pool, CheckOptions, CheckStats, CycleSearchOptions, DataType,
    DepGraph, ElemIndex, KeyTypes, Parallelism, Report,
};
use elle_history::{Elem, History, Key};
use rustc_hash::FxHashSet;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Work counters of one staged check.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Seconds the datatype drivers spent in their gather pass (part of
    /// the `core.datatype` spans).
    pub gather_secs: f64,
    /// Peak gather-buffer bytes over the datatype passes.
    pub gather_buf_bytes: usize,
    /// Distinct IDSG edges.
    pub edges: usize,
    /// Peak length of the flat edge buffer before its build.
    pub edge_buf_peak: usize,
    /// Peak bytes parked in the scratch-buffer pool.
    pub pool_peak_bytes: usize,
    /// Anomalies in the report.
    pub anomalies: usize,
}

/// Adopt the first datatype's graph wholesale and merge later ones, as
/// the checker does.
fn absorb(deps: &mut DepGraph, other: DepGraph) {
    if deps.edge_count() == 0 {
        let floor = std::mem::replace(deps, other);
        deps.ensure_txns(floor.txns_floor());
    } else {
        deps.merge(other);
    }
}

/// Check `history` stage by stage under `parent`, recording one span
/// per stage.
pub fn staged_check(
    tr: &mut Tracer,
    parent: SpanId,
    request: u64,
    history: &History,
    opts: CheckOptions,
) -> (Report, Counts) {
    let mut counts = Counts::default();
    let (kt, elems) = tr.leaf("core.index", parent, request, || {
        (KeyTypes::infer(history), ElemIndex::build(history))
    });
    let warnings: Vec<String> = kt
        .conflicts
        .iter()
        .map(|k| {
            format!("key {k} is used as more than one datatype; its inferences are unreliable")
        })
        .collect();

    let mut anomalies = Vec::new();
    let mut observed: FxHashSet<(Key, Elem)> =
        FxHashSet::with_capacity_and_hasher(elems.len(), Default::default());
    let mut deps = DepGraph::with_txns(history.len());
    let mut fold = |out: DriverOutput, deps: &mut DepGraph, counts: &mut Counts| {
        anomalies.extend(out.anomalies);
        observed.extend(out.observed);
        counts.gather_secs += out.gather.secs;
        counts.gather_buf_bytes = counts.gather_buf_bytes.max(out.gather.buf_bytes);
        absorb(deps, out.deps);
    };
    let list_keys = kt.keys_of(DataType::List);
    if !list_keys.is_empty() {
        let out = tr.leaf("core.datatype", parent, request, || {
            run_mode::<ListAppend>(history, &elems, &list_keys, (), Parallelism::Auto)
        });
        fold(out, &mut deps, &mut counts);
    }
    let reg_keys = kt.keys_of(DataType::Register);
    if !reg_keys.is_empty() {
        let out = tr.leaf("core.datatype", parent, request, || {
            run_mode::<RwRegister>(
                history,
                &elems,
                &reg_keys,
                opts.registers,
                Parallelism::Auto,
            )
        });
        fold(out, &mut deps, &mut counts);
    }
    let set_keys = kt.keys_of(DataType::Set);
    if !set_keys.is_empty() {
        let out = tr.leaf("core.datatype", parent, request, || {
            run_mode::<SetAdd>(history, &elems, &set_keys, (), Parallelism::Auto)
        });
        fold(out, &mut deps, &mut counts);
    }
    let counter_keys = kt.keys_of(DataType::Counter);
    if !counter_keys.is_empty() {
        let a = tr.leaf("core.datatype", parent, request, || {
            counter::analyze(history, &counter_keys)
        });
        anomalies.extend(a.anomalies);
        counts.gather_secs += a.gather.secs;
        counts.gather_buf_bytes = counts.gather_buf_bytes.max(a.gather.buf_bytes);
        absorb(&mut deps, a.deps);
    }

    tr.leaf("core.orders", parent, request, || {
        if opts.process_edges {
            add_process_edges(&mut deps, history);
        }
        if opts.realtime_edges {
            add_realtime_edges(&mut deps, history);
        }
        if opts.timestamp_edges {
            add_timestamp_edges(&mut deps, history);
        }
    });
    tr.leaf("core.edge_build", parent, request, || deps.build());
    counts.edge_buf_peak = deps.edge_buf_peak();
    counts.edges = deps.edge_count();
    let frozen = tr.leaf("core.freeze", parent, request, || deps.freeze());
    let cycles = tr.leaf("core.cycle_search", parent, request, || {
        find_cycle_anomalies_frozen(
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
        )
    });
    anomalies.extend(cycles);

    let report = tr.leaf("core.report", parent, request, || {
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
    });
    counts.pool_peak_bytes = pool::take_peak_bytes();
    counts.anomalies = report.anomalies.len();
    (report, counts)
}

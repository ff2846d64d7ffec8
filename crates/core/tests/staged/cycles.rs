//! The exhaustive cycle search: every (search × SCC) work item runs,
//! and every candidate is deduplicated and classified in merge order
//! before the per-type cap applies. The shipped search skips the items
//! that can no longer change the report; this is the oracle its reports
//! must equal byte for byte. Public APIs only, with its own copy of
//! the classification.

use elle_core::explain::explain_cycle;
use elle_core::{Anomaly, AnomalyType, CycleSearchOptions, CycleStep, DepGraph, Witness};
use elle_graph::{Csr, CycleSpec, EdgeClass, EdgeMask, Scratch};
use elle_history::{History, Key, TxnId};
use rustc_hash::{FxHashMap, FxHashSet};

/// Presentation preference: value dependencies first, then
/// anti-dependencies, then derived orders.
const PREFERENCE: [EdgeClass; 8] = [
    EdgeClass::Ww,
    EdgeClass::Wr,
    EdgeClass::Rr,
    EdgeClass::Version,
    EdgeClass::Rw,
    EdgeClass::Process,
    EdgeClass::Realtime,
    EdgeClass::Timestamp,
];

/// The value-dependency mask (no anti-dependencies).
const INFO_FLOW: EdgeMask =
    EdgeMask(EdgeMask::WW.0 | EdgeMask::WR.0 | EdgeMask::RR.0 | EdgeMask::VERSION.0);

/// One per-class search: the admitted mask, and `None` for any cycle or
/// `Some((first, rest))` for a first edge from `first` and the rest from
/// `rest`.
#[derive(Clone, Copy)]
struct Search {
    allowed: EdgeMask,
    single: Option<(EdgeMask, EdgeMask)>,
}

/// The (level × class) searches in merge order.
fn plan(opts: CycleSearchOptions) -> Vec<Search> {
    let mut levels = vec![EdgeMask::NONE];
    let mut extras = EdgeMask::NONE;
    for (on, class) in [
        (opts.process_edges, EdgeMask::PROCESS),
        (opts.realtime_edges, EdgeMask::REALTIME),
        (opts.timestamp_edges, EdgeMask::TIMESTAMP),
    ] {
        if on {
            extras = extras.union(class);
            levels.push(extras);
        }
    }
    let mut plan = Vec::new();
    for extra in levels {
        let g0 = EdgeMask::WW.union(extra);
        let g1c = INFO_FLOW.union(extra);
        let gs = INFO_FLOW.union(EdgeMask::RW).union(extra);
        plan.push(Search {
            allowed: g0,
            single: None,
        });
        plan.push(Search {
            allowed: g1c,
            single: Some((EdgeMask::WR.union(EdgeMask::RR), g1c)),
        });
        plan.push(Search {
            allowed: gs,
            single: Some((EdgeMask::RW, EdgeMask(gs.0 & !EdgeMask::RW.0))),
        });
        plan.push(Search {
            allowed: gs,
            single: Some((EdgeMask::RW, gs)),
        });
    }
    plan
}

fn by_smallest_member(mut sccs: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
    sccs.sort_by(|a, b| a[0].cmp(&b[0]));
    sccs
}

/// Every candidate of every work item, in merge order (search, SCC by
/// smallest member, discovery), each with the admitted mask of the
/// search that found it. With the certificate on, an acyclic graph
/// yields none and the per-mask passes stay inside its cyclic region.
pub fn candidates(csr: &Csr, opts: CycleSearchOptions) -> Vec<(Vec<u32>, EdgeMask)> {
    let plan = plan(opts);
    let top = plan.iter().fold(EdgeMask::NONE, |m, s| m.union(s.allowed));
    let mut scratch = Scratch::new();
    let region: Option<Vec<u32>> = if opts.certificate {
        let mut region: Vec<u32> = csr.tarjan_scc(top, &mut scratch).concat();
        if region.is_empty() {
            return Vec::new();
        }
        region.sort_unstable();
        Some(region)
    } else {
        None
    };
    let mut passes: FxHashMap<u8, Vec<Vec<u32>>> = FxHashMap::default();
    let mut out = Vec::new();
    for s in plan {
        let sccs = passes.entry(s.allowed.0).or_insert_with(|| {
            by_smallest_member(match &region {
                Some(region) => csr.tarjan_scc_within(s.allowed, region, &mut scratch),
                None => csr.tarjan_scc(s.allowed, &mut scratch),
            })
        });
        for scc in sccs.iter() {
            let found = match s.single {
                None => csr
                    .find_cycle(scc, CycleSpec::uniform(s.allowed), &mut scratch)
                    .into_iter()
                    .collect(),
                Some((first, rest)) => {
                    csr.find_cycle_with_single(scc, first, rest, opts.max_per_type, &mut scratch)
                }
            };
            out.extend(found.into_iter().map(|c| (c, s.allowed)));
        }
    }
    out
}

/// The merge: deduplicate each candidate by rotation and classify it,
/// in order; keep the `max_per_type` shortest of each type (ties in
/// candidate order); explain only those.
pub fn merge(
    deps: &DepGraph,
    history: &History,
    candidates: &[(Vec<u32>, EdgeMask)],
    max_per_type: usize,
) -> Vec<Anomaly> {
    let mut seen: FxHashSet<Vec<u32>> = FxHashSet::default();
    let mut selected: Vec<(AnomalyType, &[u32], EdgeMask)> = Vec::new();
    for (cycle, allowed) in candidates {
        if !seen.insert(rotated_to_min(cycle)) {
            continue;
        }
        let per_class = steps(deps, cycle, *allowed).fold([0usize; 8], |mut n, s| {
            n[s.class as usize] += 1;
            n
        });
        if let Some(typ) = classify(&per_class) {
            selected.push((typ, cycle, *allowed));
        }
    }
    selected.sort_by_key(|(typ, cycle, _)| (*typ, cycle.len()));
    let mut counts: FxHashMap<AnomalyType, usize> = FxHashMap::default();
    selected.retain(|(typ, _, _)| {
        let n = counts.entry(*typ).or_insert(0);
        *n += 1;
        *n <= max_per_type
    });
    selected
        .into_iter()
        .map(|(typ, cycle, allowed)| {
            let steps: Vec<CycleStep> = steps(deps, cycle, allowed).collect();
            Anomaly {
                typ,
                txns: steps.iter().map(|s| s.from).collect(),
                key: steps.iter().find_map(|s| key_of(&s.witness)),
                explanation: explain_cycle(history, &steps),
                steps,
            }
        })
        .collect()
}

/// The exhaustive search: [`candidates`] through [`merge`].
pub fn find_cycle_anomalies(
    deps: &DepGraph,
    csr: &Csr,
    history: &History,
    opts: CycleSearchOptions,
) -> Vec<Anomaly> {
    if opts.max_per_type == 0 {
        return Vec::new();
    }
    merge(deps, history, &candidates(csr, opts), opts.max_per_type)
}

/// Each step of `cycle` with the witness presented for it.
fn steps<'a>(
    deps: &'a DepGraph,
    cycle: &'a [u32],
    allowed: EdgeMask,
) -> impl Iterator<Item = CycleStep> + 'a {
    (0..cycle.len()).map(move |i| {
        let (from, to) = (TxnId(cycle[i]), TxnId(cycle[(i + 1) % cycle.len()]));
        let w = deps
            .present(from, to, allowed, &PREFERENCE)
            .expect("every candidate step has a witness");
        CycleStep {
            from,
            to,
            class: w.class(),
            witness: w.clone(),
        }
    })
}

fn key_of(w: &Witness) -> Option<Key> {
    match w {
        Witness::WwList { key, .. }
        | Witness::WrList { key, .. }
        | Witness::RwList { key, .. }
        | Witness::WwReg { key, .. }
        | Witness::WrReg { key, .. }
        | Witness::RwReg { key, .. }
        | Witness::WrSet { key, .. }
        | Witness::RwSet { key, .. }
        | Witness::Rr { key } => Some(*key),
        Witness::Process { .. } | Witness::Realtime { .. } | Witness::Timestamp { .. } => None,
    }
}

/// The type of a cycle whose steps present as the given classes: an `rr`
/// step carries one anti-dependency; a timestamp step makes it a G-SI
/// cycle, which two or more anti-dependencies make legal; otherwise the
/// anti-dependency count picks the base and a realtime, else process,
/// step picks the variant.
pub fn classify(per_class: &[usize; 8]) -> Option<AnomalyType> {
    use AnomalyType::*;
    let n = |c: EdgeClass| per_class[c as usize];
    let rw = n(EdgeClass::Rw) + n(EdgeClass::Rr);
    let wr = n(EdgeClass::Wr) + n(EdgeClass::Version);
    if n(EdgeClass::Timestamp) > 0 {
        return (rw <= 1).then_some(GSI);
    }
    let realtime = n(EdgeClass::Realtime) > 0;
    let process = n(EdgeClass::Process) > 0;
    Some(match (rw, wr > 0) {
        (0, false) if realtime => G0Realtime,
        (0, false) if process => G0Process,
        (0, false) => G0,
        (0, true) if realtime => G1cRealtime,
        (0, true) if process => G1cProcess,
        (0, true) => G1c,
        (1, _) if realtime => GSingleRealtime,
        (1, _) if process => GSingleProcess,
        (1, _) => GSingle,
        _ if realtime => G2ItemRealtime,
        _ if process => G2ItemProcess,
        _ => G2Item,
    })
}

/// The rotation of `cycle` that starts at its smallest member.
fn rotated_to_min(cycle: &[u32]) -> Vec<u32> {
    let at = (0..cycle.len()).min_by_key(|&i| cycle[i]).unwrap_or(0);
    cycle[at..].iter().chain(&cycle[..at]).copied().collect()
}

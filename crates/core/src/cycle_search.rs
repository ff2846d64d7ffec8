//! Orchestrates the per-class cycle searches over the IDSG (§6).
//!
//! Strategy, per the paper:
//!
//! 1. find strongly connected components with Tarjan's algorithm;
//! 2. within each component, BFS for a short cycle under each anomaly
//!    class's edge restriction (G0: `ww`; G1c: ≥1 `wr` among `ww`/`wr`;
//!    G-single: exactly one `rw`; G2-item: ≥1 `rw`);
//! 3. optionally re-run with session and real-time edges admitted,
//!    classifying cycles that *need* those edges as `-process` /
//!    `-realtime` variants.
//!
//! Each found cycle is *presented*: for every step we pick a witness class,
//! preferring value dependencies (`ww` > `wr` > `rr`) over `rw`, and those
//! over session/real-time orders, so a cycle is never classified stronger
//! than its evidence.
//!
//! ## Execution
//!
//! All searches run on the frozen [`Csr`] snapshot of the IDSG — no
//! per-anomaly-class subgraph copies. Work fans out in two phases,
//! mirroring the per-key datatype pipeline:
//!
//! 1. one Tarjan SCC pass per *search* (augmentation level × anomaly
//!    class), parallel across searches;
//! 2. one *candidate* search per (search, SCC) work item, parallel across
//!    work items with per-worker [`Scratch`] reuse.
//!
//! Candidate generation is a pure function of the frozen graph, so the
//! fan-out is followed by a strictly sequential merge in (level, class,
//! SCC index, discovery order) — reports are byte-identical whether the
//! fan-out ran on one thread or many. `ELLE_SEQUENTIAL=1` pins the stage
//! (and the datatype pipeline) to the sequential path.
//!
//! The merge runs in three steps:
//!
//! 1. *select*: in merge order, deduplicate each candidate (by rotation)
//!    and classify it from the class of each step's presented witness —
//!    a compact record of type, cycle and admitted mask;
//! 2. *cap*: stable-sort the records by (type, length) and keep the
//!    first [`CycleSearchOptions::max_per_type`] of each type;
//! 3. *explain*: only for the survivors, build the witness steps and the
//!    Figure-2 explanation.
//!
//! Explaining after the cap yields the same report as explaining every
//! candidate first: neither the sort key nor the cap reads an
//! explanation, and an explanation is a pure function of the history and
//! the steps. A search with `max_per_type: 0` stops after the certificate
//! pass.

use crate::anomaly::{Anomaly, AnomalyType, CycleStep, Witness};
use crate::datatype::Parallelism;
use crate::deps::DepGraph;
use crate::explain::explain_cycle;
use elle_graph::{Csr, CycleSpec, EdgeClass, EdgeMask, Scratch};
use elle_history::{History, TxnId};
use rayon::prelude::*;
use rustc_hash::{FxHashMap, FxHashSet};

/// Cycle-search configuration.
#[derive(Debug, Clone, Copy)]
pub struct CycleSearchOptions {
    /// Admit per-process (session) edges.
    pub process_edges: bool,
    /// Admit real-time edges.
    pub realtime_edges: bool,
    /// Admit database-timestamp (time-precedes) edges — §5.1's
    /// start-ordered serialization graph.
    pub timestamp_edges: bool,
    /// Cap on reported cycles per anomaly type: the shortest cycles
    /// first, ties broken by merge order. Only the survivors are
    /// explained, and `0` skips the search after the certificate pass.
    /// It also bounds how many candidates each G1c, G-single or G2-item
    /// search takes from one SCC.
    pub max_per_type: usize,
    /// Run the early-acyclic certificate: one Tarjan pass under the
    /// union of every admitted class first; when the graph is SCC-free
    /// (the common clean-history case) every per-class search is
    /// skipped, and otherwise the per-class passes are restricted to
    /// the cyclic region it found. Disable only to benchmark the
    /// certificate itself.
    pub certificate: bool,
}

impl Default for CycleSearchOptions {
    fn default() -> Self {
        CycleSearchOptions {
            process_edges: true,
            realtime_edges: true,
            timestamp_edges: false,
            max_per_type: 4,
            certificate: true,
        }
    }
}

/// Presentation preference: value dependencies first, then anti-deps, then
/// derived orders. See module docs.
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

/// One per-class search within an augmentation level: the admitted edge
/// mask plus the shape of cycle to hunt for.
#[derive(Debug, Clone, Copy)]
struct Search {
    /// Edge classes admitted anywhere in the cycle.
    allowed: EdgeMask,
    /// `None` = any cycle (G0 shape); `Some((first, rest))` = first edge
    /// from `first`, remainder from `rest` (G1c / G-single / G2 shapes).
    single: Option<(EdgeMask, EdgeMask)>,
}

/// The (level × class) search list, weakest evidence first so that base
/// anomalies are discovered (and deduplicated) before augmented ones.
/// The order of this list *is* the merge order — it must stay stable for
/// reports to stay deterministic.
fn search_plan(opts: CycleSearchOptions) -> Vec<Search> {
    let mut levels: Vec<EdgeMask> = vec![EdgeMask::NONE];
    let mut extras = EdgeMask::NONE;
    if opts.process_edges {
        extras = extras.union(EdgeMask::PROCESS);
        levels.push(extras);
    }
    if opts.realtime_edges {
        extras = extras.union(EdgeMask::REALTIME);
        levels.push(extras);
    }
    if opts.timestamp_edges {
        extras = extras.union(EdgeMask::TIMESTAMP);
        levels.push(extras);
    }

    let mut plan = Vec::with_capacity(levels.len() * 4);
    for extra in levels {
        // G0: write cycles.
        let g0 = EdgeMask::WW.union(extra);
        plan.push(Search {
            allowed: g0,
            single: None,
        });
        // G1c: information-flow cycles (≥ 1 wr / rr). Repeating the
        // first-edge class is harmless (G1c allows many wr).
        let g1c = INFO_FLOW.union(extra);
        plan.push(Search {
            allowed: g1c,
            single: Some((EdgeMask::WR.union(EdgeMask::RR), g1c)),
        });
        // G-single: exactly one rw among information flow — the remainder
        // must avoid rw.
        let gs = INFO_FLOW.union(EdgeMask::RW).union(extra);
        plan.push(Search {
            allowed: gs,
            single: Some((EdgeMask::RW, EdgeMask(gs.0 & !EdgeMask::RW.0))),
        });
        // G2-item: at least one rw, rw allowed everywhere.
        plan.push(Search {
            allowed: gs,
            single: Some((EdgeMask::RW, gs)),
        });
    }
    plan
}

/// Candidate cycles for one (search, SCC) work item — a pure function of
/// the frozen graph, safe to fan out.
fn candidates(
    csr: &Csr,
    search: Search,
    scc: &[u32],
    max: usize,
    scratch: &mut Scratch,
) -> Vec<Vec<u32>> {
    match search.single {
        None => csr
            .find_cycle(scc, CycleSpec::uniform(search.allowed), scratch)
            .into_iter()
            .collect(),
        Some((first, rest)) => csr.find_cycle_with_single(scc, first, rest, max, scratch),
    }
}

/// Fan-out engages only when the item count can plausibly pay for the
/// thread scope (mirrors the datatype pipeline's key threshold).
const AUTO_PARALLEL_MIN_ITEMS: usize = 4;

fn run_parallel(mode: Parallelism, items: usize) -> bool {
    match mode {
        Parallelism::Sequential => false,
        Parallelism::Parallel => true,
        Parallelism::Auto => {
            !crate::datatype::auto_forced_sequential()
                && items >= AUTO_PARALLEL_MIN_ITEMS
                && rayon::current_num_threads() > 1
        }
    }
}

/// Find and classify all cycle anomalies. Seals and freezes the IDSG
/// internally (hence `&mut`); callers that already hold a built graph
/// and its [`Csr`] snapshot should use [`find_cycle_anomalies_frozen`].
pub fn find_cycle_anomalies(
    deps: &mut DepGraph,
    history: &History,
    opts: CycleSearchOptions,
) -> Vec<Anomaly> {
    let csr = deps.freeze();
    find_cycle_anomalies_frozen(deps, &csr, history, opts)
}

/// Find and classify all cycle anomalies over a pre-frozen IDSG snapshot.
pub fn find_cycle_anomalies_frozen(
    deps: &DepGraph,
    csr: &Csr,
    history: &History,
    opts: CycleSearchOptions,
) -> Vec<Anomaly> {
    find_cycle_anomalies_mode(deps, csr, history, opts, Parallelism::Auto)
}

/// [`find_cycle_anomalies_frozen`] with an explicit scheduling mode — the
/// hook the parallel == sequential property tests drive. Output is
/// byte-identical across modes by construction: candidate generation is
/// pure and the merge is ordered.
pub fn find_cycle_anomalies_mode(
    deps: &DepGraph,
    csr: &Csr,
    history: &History,
    opts: CycleSearchOptions,
    mode: Parallelism,
) -> Vec<Anomaly> {
    search(deps, csr, history, opts, mode).0
}

/// The union of every edge class the search admits — the certificate's
/// Tarjan mask.
pub(crate) fn admitted(opts: CycleSearchOptions) -> EdgeMask {
    search_plan(opts)
        .iter()
        .fold(EdgeMask::NONE, |a, s| a.union(s.allowed))
}

/// The cycle search, also returning the certificate's SCCs (canonically
/// ordered; empty when the graph is acyclic under [`admitted`] or the
/// certificate is off) so callers need no second Tarjan pass.
pub(crate) fn search(
    deps: &DepGraph,
    csr: &Csr,
    history: &History,
    opts: CycleSearchOptions,
    mode: Parallelism,
) -> (Vec<Anomaly>, Vec<Vec<u32>>) {
    let plan = search_plan(opts);

    // ── Phase 0: the early-acyclic certificate. One Tarjan pass under
    //    the union of every admitted class: if the graph is SCC-free
    //    there is nothing any per-class search could find — the common
    //    clean-history case pays for exactly one linear pass. When the
    //    graph *is* cyclic, the union of its cyclic SCCs bounds every
    //    restricted-mask SCC (an m-cycle is a top-cycle), so the
    //    per-class passes below run only over that region. ──────────────
    let mut masks: Vec<EdgeMask> = Vec::new();
    let mask_of: Vec<usize> = plan
        .iter()
        .map(|s| {
            masks
                .iter()
                .position(|m| *m == s.allowed)
                .unwrap_or_else(|| {
                    masks.push(s.allowed);
                    masks.len() - 1
                })
        })
        .collect();
    let top: EdgeMask = masks.iter().fold(EdgeMask::NONE, |a, m| a.union(*m));

    // SCC lists are canonically ordered (by smallest member; components
    // themselves come back sorted), so the merge order — and therefore
    // the report — is a function of the graph's edge *set*, independent
    // of which Tarjan variant produced them. The streaming checker
    // depends on this: it re-runs this function over an incrementally
    // rebuilt graph and must reproduce the batch report byte-for-byte.
    let canonical = |mut sccs: Vec<Vec<u32>>| {
        sccs.sort_by(|a, b| a[0].cmp(&b[0]));
        sccs
    };
    let cert: Option<(Vec<u32>, Vec<Vec<u32>>)> = if opts.certificate {
        let mut scratch = Scratch::new();
        let sccs = canonical(csr.tarjan_scc(top, &mut scratch));
        if sccs.is_empty() {
            // Certified acyclic under every admitted class: skip all
            // per-class passes.
            return (Vec::new(), Vec::new());
        }
        let mut region: Vec<u32> = sccs.iter().flatten().copied().collect();
        region.sort_unstable();
        Some((region, sccs))
    } else {
        None
    };
    if opts.max_per_type == 0 {
        // The cap would drop every candidate: skip the per-class passes.
        // The certificate's SCCs still go back (the window clamp reads
        // them).
        return (Vec::new(), cert.map(|(_, sccs)| sccs).unwrap_or_default());
    }

    // ── Phase 1: SCCs per *distinct* admitted mask (parallel across
    //    masks). Searches that admit the same classes — G-single and G2
    //    within each level — share one Tarjan pass; the top-level mask
    //    reuses the certificate's. ──────────────────────────────────────
    let sccs_for = |m: EdgeMask, scratch: &mut Scratch| -> Vec<Vec<u32>> {
        match &cert {
            Some((_, cert_sccs)) if m == top => cert_sccs.clone(),
            Some((region, _)) => canonical(csr.tarjan_scc_within(m, region, scratch)),
            None => canonical(csr.tarjan_scc(m, scratch)),
        }
    };
    let sccs_per_mask: Vec<Vec<Vec<u32>>> = if run_parallel(mode, masks.len()) {
        masks
            .par_iter()
            .map_init(Scratch::new, |scratch, m| sccs_for(*m, scratch))
            .collect()
    } else {
        let mut scratch = Scratch::new();
        masks.iter().map(|m| sccs_for(*m, &mut scratch)).collect()
    };

    // ── Phase 2: flatten to (search, SCC) work items in merge order;
    //    each item borrows its SCC. ─────────────────────────────────────
    let items: Vec<(u32, &[u32])> = plan
        .iter()
        .enumerate()
        .flat_map(|(i, _)| {
            sccs_per_mask[mask_of[i]]
                .iter()
                .map(move |scc| (i as u32, scc.as_slice()))
        })
        .collect();

    // ── Phase 3: candidate cycles per work item (parallel fan-out with
    //    per-worker scratch reuse). ─────────────────────────────────────
    let found: Vec<Vec<Vec<u32>>> = if run_parallel(mode, items.len()) {
        items
            .par_iter()
            .map_init(Scratch::new, |scratch, (i, scc)| {
                candidates(csr, plan[*i as usize], scc, opts.max_per_type, scratch)
            })
            .collect()
    } else {
        let mut scratch = Scratch::new();
        items
            .iter()
            .map(|(i, scc)| {
                candidates(csr, plan[*i as usize], scc, opts.max_per_type, &mut scratch)
            })
            .collect()
    };

    // ── Phase 4: strictly ordered sequential merge. ───────────────────
    let candidates = items.iter().zip(&found).flat_map(|((i, _), cycles)| {
        let allowed = plan[*i as usize].allowed;
        cycles.iter().map(move |cyc| (cyc.as_slice(), allowed))
    });
    let out = merge(deps, history, candidates, opts.max_per_type);
    (out, cert.map(|(_, sccs)| sccs).unwrap_or_default())
}

/// Phase 4: deduplicate and classify each candidate in merge order (each
/// with the admitted mask of the search that found it), keep the
/// shortest `max_per_type` per type, and explain only those survivors.
fn merge<'a>(
    deps: &DepGraph,
    history: &History,
    candidates: impl IntoIterator<Item = (&'a [u32], EdgeMask)>,
    max_per_type: usize,
) -> Vec<Anomaly> {
    let mut seen: FxHashSet<Vec<u32>> = FxHashSet::default();
    let mut selected: Vec<Selected> = Vec::new();
    for (cycle, allowed) in candidates {
        if !seen.insert(canonical(cycle)) {
            continue;
        }
        // `None`: a start-ordered cycle with ≥ 2 anti-dependencies —
        // legal under snapshot isolation (write skew with start edges),
        // and timestamp edges are not value dependencies, so it
        // witnesses nothing.
        if let Some(typ) = select(deps, cycle, allowed) {
            selected.push(Selected {
                typ,
                cycle,
                allowed,
            });
        }
    }

    // Cap per type (keep shortest cycles — they make the best witnesses;
    // the sort is stable, so ties keep merge order).
    selected.sort_by_key(|s| (s.typ, s.cycle.len()));
    let mut counts: FxHashMap<AnomalyType, usize> = FxHashMap::default();
    selected.retain(|s| {
        let c = counts.entry(s.typ).or_insert(0);
        *c += 1;
        *c <= max_per_type
    });
    selected
        .iter()
        .map(|s| materialize(deps, history, s))
        .collect()
}

/// A deduplicated, classified candidate: everything the per-type cap
/// reads. Its witnesses and explanation are built only if it survives.
struct Selected<'a> {
    typ: AnomalyType,
    cycle: &'a [u32],
    /// The admitted mask of the search that found it, which presents it.
    allowed: EdgeMask,
}

/// Step `i` of `cyc` — the edge to the next transaction — with the
/// witness presented for it (see [`PREFERENCE`]).
fn step<'g>(
    deps: &'g DepGraph,
    cyc: &[u32],
    i: usize,
    allowed: EdgeMask,
) -> Option<(TxnId, TxnId, &'g Witness)> {
    let from = TxnId(cyc[i]);
    let to = TxnId(cyc[(i + 1) % cyc.len()]);
    let w = deps.present(from, to, allowed, &PREFERENCE);
    // The search follows real edges under `allowed`, so every step has a
    // witness; a miss is a search/present bug, not a cycle to drop.
    debug_assert!(
        w.is_some(),
        "cycle step {from:?} → {to:?} has no witness under {allowed:?}"
    );
    Some((from, to, w?))
}

/// Present and classify one cycle without rendering anything.
fn select(deps: &DepGraph, cyc: &[u32], allowed: EdgeMask) -> Option<AnomalyType> {
    let mut per_class = [0usize; EdgeClass::ALL.len()];
    for i in 0..cyc.len() {
        per_class[step(deps, cyc, i, allowed)?.2.class() as usize] += 1;
    }
    classify(&per_class)
}

/// Build the reported anomaly for a cap survivor: its steps, key and
/// Figure-2 explanation.
fn materialize(deps: &DepGraph, history: &History, s: &Selected) -> Anomaly {
    let steps: Vec<CycleStep> = (0..s.cycle.len())
        .map(|i| {
            let (from, to, w) =
                step(deps, s.cycle, i, s.allowed).expect("selection presented every step");
            CycleStep {
                from,
                to,
                class: w.class(),
                witness: w.clone(),
            }
        })
        .collect();
    let explanation = explain_cycle(history, &steps);
    Anomaly {
        typ: s.typ,
        txns: steps.iter().map(|s| s.from).collect(),
        key: steps.iter().find_map(|s| key_of(&s.witness)),
        steps,
        explanation,
    }
}

fn key_of(w: &Witness) -> Option<elle_history::Key> {
    use crate::anomaly::Witness::*;
    match w {
        WwList { key, .. }
        | WrList { key, .. }
        | RwList { key, .. }
        | WwReg { key, .. }
        | WrReg { key, .. }
        | RwReg { key, .. }
        | WrSet { key, .. }
        | RwSet { key, .. }
        | Rr { key } => Some(*key),
        Process { .. } | Realtime { .. } | Timestamp { .. } => None,
    }
}

/// Classify a presented cycle by the edges it *needs*, given how many of
/// its steps present as each class (indexed by discriminant). Returns
/// `None` for cycles that witness no proscribed phenomenon
/// (start-ordered cycles with two or more anti-dependencies — Adya's SI
/// permits those).
fn classify(per_class: &[usize; EdgeClass::ALL.len()]) -> Option<AnomalyType> {
    let n = |c: EdgeClass| per_class[c as usize];
    // An rr edge is the composition rw∘wr — the earlier reader *missed* a
    // write the later reader observed — so it carries exactly one
    // anti-dependency. Counting it as information flow would let
    // two-anti-dependency write-skew cycles masquerade as G-single (and
    // rr-closed cycles as G1c), flagging snapshot-legal histories.
    let rw = n(EdgeClass::Rw) + n(EdgeClass::Rr);
    let wr = n(EdgeClass::Wr) + n(EdgeClass::Version);
    let proc = n(EdgeClass::Process);
    let rt = n(EdgeClass::Realtime);
    let ts = n(EdgeClass::Timestamp);
    // A cycle that needs a database-timestamp edge lives in the
    // start-ordered serialization graph. SI proscribes such cycles only
    // when they carry at most one anti-dependency (G-SIa / G-SIb).
    if ts > 0 {
        return (rw <= 1).then_some(AnomalyType::GSI);
    }
    let base = if rw == 0 {
        if wr == 0 {
            AnomalyType::G0
        } else {
            AnomalyType::G1c
        }
    } else if rw == 1 {
        AnomalyType::GSingle
    } else {
        AnomalyType::G2Item
    };
    Some(match (rt > 0, proc > 0, base) {
        (true, _, AnomalyType::G0) => AnomalyType::G0Realtime,
        (true, _, AnomalyType::G1c) => AnomalyType::G1cRealtime,
        (true, _, AnomalyType::GSingle) => AnomalyType::GSingleRealtime,
        (true, _, AnomalyType::G2Item) => AnomalyType::G2ItemRealtime,
        (false, true, AnomalyType::G0) => AnomalyType::G0Process,
        (false, true, AnomalyType::G1c) => AnomalyType::G1cProcess,
        (false, true, AnomalyType::GSingle) => AnomalyType::GSingleProcess,
        (false, true, AnomalyType::G2Item) => AnomalyType::G2ItemProcess,
        (false, false, b) => b,
        (_, _, b) => b,
    })
}

/// Rotation-canonical form for deduplication.
fn canonical(cyc: &[u32]) -> Vec<u32> {
    if cyc.is_empty() {
        return vec![];
    }
    let min_pos = cyc
        .iter()
        .enumerate()
        .min_by_key(|(_, v)| **v)
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut v = Vec::with_capacity(cyc.len());
    for i in 0..cyc.len() {
        v.push(cyc[(min_pos + i) % cyc.len()]);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use elle_history::{Elem, HistoryBuilder, Key, ProcessId};
    use proptest::prelude::*;

    fn history(n: usize) -> History {
        let mut b = HistoryBuilder::new();
        for i in 0..n {
            b.txn(i as u32).append(1, i as u64 + 1).commit();
        }
        b.build()
    }

    fn ww(k: u64, p: u64, n: u64) -> Witness {
        Witness::WwList {
            key: Key(k),
            prev: Elem(p),
            next: Elem(n),
        }
    }

    #[test]
    fn classifies_g0() {
        let h = history(2);
        let mut d = DepGraph::with_txns(2);
        d.add(TxnId(0), TxnId(1), ww(1, 1, 2));
        d.add(TxnId(1), TxnId(0), ww(1, 2, 1));
        let found = find_cycle_anomalies(&mut d, &h, CycleSearchOptions::default());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].typ, AnomalyType::G0);
        assert_eq!(found[0].steps.len(), 2);
        assert!(found[0].explanation.contains("a contradiction!"));
    }

    #[test]
    fn classifies_g1c() {
        let h = history(2);
        let mut d = DepGraph::with_txns(2);
        d.add(TxnId(0), TxnId(1), ww(1, 1, 2));
        d.add(
            TxnId(1),
            TxnId(0),
            Witness::WrList {
                key: Key(1),
                elem: Elem(2),
            },
        );
        let found = find_cycle_anomalies(&mut d, &h, CycleSearchOptions::default());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].typ, AnomalyType::G1c);
    }

    #[test]
    fn classifies_g_single() {
        let h = history(2);
        let mut d = DepGraph::with_txns(2);
        d.add(TxnId(0), TxnId(1), ww(1, 1, 2));
        d.add(
            TxnId(1),
            TxnId(0),
            Witness::RwList {
                key: Key(1),
                read_last: Some(Elem(1)),
                next: Elem(2),
            },
        );
        let found = find_cycle_anomalies(&mut d, &h, CycleSearchOptions::default());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].typ, AnomalyType::GSingle);
    }

    #[test]
    fn classifies_g2_item() {
        let h = history(2);
        let mut d = DepGraph::with_txns(2);
        d.add(
            TxnId(0),
            TxnId(1),
            Witness::RwList {
                key: Key(1),
                read_last: None,
                next: Elem(2),
            },
        );
        d.add(
            TxnId(1),
            TxnId(0),
            Witness::RwList {
                key: Key(2),
                read_last: None,
                next: Elem(1),
            },
        );
        let found = find_cycle_anomalies(&mut d, &h, CycleSearchOptions::default());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].typ, AnomalyType::G2Item);
    }

    #[test]
    fn prefers_stronger_classification() {
        // Edge carries both ww and rw: cycle should present as G0, the
        // strongest interpretation.
        let h = history(2);
        let mut d = DepGraph::with_txns(2);
        d.add(TxnId(0), TxnId(1), ww(1, 1, 2));
        d.add(
            TxnId(0),
            TxnId(1),
            Witness::RwList {
                key: Key(1),
                read_last: None,
                next: Elem(2),
            },
        );
        d.add(TxnId(1), TxnId(0), ww(1, 2, 1));
        let found = find_cycle_anomalies(&mut d, &h, CycleSearchOptions::default());
        assert_eq!(found[0].typ, AnomalyType::G0);
    }

    #[test]
    fn realtime_cycle_classified_as_realtime_variant() {
        let h = history(2);
        let mut d = DepGraph::with_txns(2);
        d.add(
            TxnId(0),
            TxnId(1),
            Witness::RwList {
                key: Key(1),
                read_last: None,
                next: Elem(2),
            },
        );
        d.add(
            TxnId(1),
            TxnId(0),
            Witness::Realtime {
                complete: 0,
                invoke: 1,
            },
        );
        let found = find_cycle_anomalies(&mut d, &h, CycleSearchOptions::default());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].typ, AnomalyType::GSingleRealtime);
    }

    #[test]
    fn process_cycle_classified_as_process_variant() {
        let h = history(2);
        let mut d = DepGraph::with_txns(2);
        d.add(
            TxnId(0),
            TxnId(1),
            Witness::RwList {
                key: Key(1),
                read_last: None,
                next: Elem(2),
            },
        );
        d.add(
            TxnId(1),
            TxnId(0),
            Witness::Process {
                process: ProcessId(0),
            },
        );
        let found = find_cycle_anomalies(&mut d, &h, CycleSearchOptions::default());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].typ, AnomalyType::GSingleProcess);
    }

    #[test]
    fn disabled_extras_hide_augmented_cycles() {
        let h = history(2);
        let mut d = DepGraph::with_txns(2);
        d.add(
            TxnId(0),
            TxnId(1),
            Witness::RwList {
                key: Key(1),
                read_last: None,
                next: Elem(2),
            },
        );
        d.add(
            TxnId(1),
            TxnId(0),
            Witness::Realtime {
                complete: 0,
                invoke: 1,
            },
        );
        let opts = CycleSearchOptions {
            realtime_edges: false,
            ..Default::default()
        };
        assert!(find_cycle_anomalies(&mut d, &h, opts).is_empty());
    }

    #[test]
    fn max_per_type_caps_output() {
        // Five disjoint 2-cycles of ww.
        let h = history(10);
        let mut d = DepGraph::with_txns(10);
        for i in 0..5u32 {
            let (a, b) = (2 * i, 2 * i + 1);
            d.add(TxnId(a), TxnId(b), ww(i as u64, 1, 2));
            d.add(TxnId(b), TxnId(a), ww(i as u64, 2, 1));
        }
        let opts = CycleSearchOptions {
            max_per_type: 2,
            ..Default::default()
        };
        let found = find_cycle_anomalies(&mut d, &h, opts);
        assert_eq!(found.len(), 2);
    }

    #[test]
    fn cap_zero_skips_the_search_but_returns_the_sccs() {
        // Two disjoint ww 2-cycles: the certificate finds both SCCs.
        let h = history(4);
        let mut d = DepGraph::with_txns(4);
        for (a, b) in [(0u32, 1u32), (2, 3)] {
            d.add(TxnId(a), TxnId(b), ww(a as u64, 1, 2));
            d.add(TxnId(b), TxnId(a), ww(a as u64, 2, 1));
        }
        let csr = d.freeze();
        let run = |max_per_type| {
            let opts = CycleSearchOptions {
                max_per_type,
                ..Default::default()
            };
            search(&d, &csr, &h, opts, Parallelism::Sequential)
        };
        let (none, sccs0) = run(0);
        let (found, sccs4) = run(4);
        assert!(none.is_empty());
        assert_eq!(found.len(), 2);
        assert_eq!(sccs0, vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(sccs0, sccs4);
    }

    #[test]
    fn cap_keeps_the_shortest_and_explains_only_survivors() {
        // A ww 3-cycle on txns 0..3 comes first in merge order (its SCC
        // has the smallest member), ahead of ww 2-cycles on {3, 4} and
        // {5, 6}. All three are G0; a cap of 2 keeps the 2-cycles.
        let h = history(7);
        let mut d = DepGraph::with_txns(7);
        for (a, b) in [(0u32, 1u32), (1, 2), (2, 0)] {
            d.add(TxnId(a), TxnId(b), ww(1, a as u64 + 1, b as u64 + 1));
        }
        for (a, b) in [(3u32, 4u32), (5, 6)] {
            d.add(TxnId(a), TxnId(b), ww(a as u64, 1, 2));
            d.add(TxnId(b), TxnId(a), ww(a as u64, 2, 1));
        }
        let csr = d.freeze();
        let opts = |max_per_type| CycleSearchOptions {
            max_per_type,
            ..Default::default()
        };
        let seq = Parallelism::Sequential;
        let all = find_cycle_anomalies_mode(&d, &csr, &h, opts(usize::MAX), seq);
        let lens: Vec<usize> = all.iter().map(|a| a.txns.len()).collect();
        assert_eq!(lens, vec![2, 2, 3]);

        let kept = find_cycle_anomalies_mode(&d, &csr, &h, opts(2), seq);
        let txns: Vec<Vec<TxnId>> = kept.iter().map(|a| a.txns.clone()).collect();
        assert_eq!(
            txns,
            vec![vec![TxnId(3), TxnId(4)], vec![TxnId(5), TxnId(6)]]
        );
        for a in &kept {
            assert_eq!(a.typ, AnomalyType::G0);
            assert_eq!(a.explanation, explain_cycle(&h, &a.steps));
        }
        assert_eq!(kept[..], all[..2]);
    }

    /// A witness for `a → b` of the class picked by `c`, on key `k`.
    fn witness(c: u8, k: u64, a: u32, b: u32) -> Witness {
        let (key, elem) = (Key(k), Elem(b as u64 + 1));
        match c % 7 {
            0 => ww(k, a as u64 + 1, b as u64 + 1),
            1 => Witness::WrList { key, elem },
            2 => Witness::RwList {
                key,
                read_last: None,
                next: elem,
            },
            3 => Witness::Rr { key },
            4 => Witness::Process {
                process: ProcessId(0),
            },
            5 => Witness::Realtime {
                complete: a as usize,
                invoke: b as usize,
            },
            _ => Witness::Timestamp {
                commit: a as u64,
                start: b as u64,
            },
        }
    }

    /// Every candidate the plan's searches find, in merge order: phases
    /// 1–3 without the certificate or the fan-out.
    fn merge_order(csr: &Csr, opts: CycleSearchOptions) -> Vec<(Vec<u32>, EdgeMask)> {
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        for s in search_plan(opts) {
            let mut sccs = csr.tarjan_scc(s.allowed, &mut scratch);
            sccs.sort_by(|a, b| a[0].cmp(&b[0]));
            for scc in &sccs {
                for cyc in candidates(csr, s, scc, opts.max_per_type, &mut scratch) {
                    out.push((cyc, s.allowed));
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Capping commutes with explaining: on the same candidates, the
        /// merge equals the explain-everything merge stable-sorted by
        /// (type, length) and truncated per type, explanations included;
        /// and it is what the search reports in both scheduling modes.
        #[test]
        fn capping_commutes_with_explaining(
            edges in prop::collection::vec((0u32..8, 0u32..8, 0u8..7, 1u64..4), 0..48),
        ) {
            let h = history(8);
            let mut d = DepGraph::with_txns(8);
            for &(a, b, c, k) in &edges {
                if a != b {
                    d.add(TxnId(a), TxnId(b), witness(c, k, a, b));
                }
            }
            let csr = d.freeze();
            for max_per_type in [0, 1, 2, 4] {
                let opts = CycleSearchOptions {
                    max_per_type,
                    timestamp_edges: true,
                    ..Default::default()
                };
                let cands = merge_order(&csr, opts);
                let merged = |cap| merge(&d, &h, cands.iter().map(|(c, m)| (c.as_slice(), *m)), cap);
                let mut want = merged(usize::MAX);
                want.sort_by_key(|a| (a.typ, a.txns.len()));
                let mut counts: FxHashMap<AnomalyType, usize> = FxHashMap::default();
                want.retain(|a| {
                    let c = counts.entry(a.typ).or_insert(0);
                    *c += 1;
                    *c <= max_per_type
                });
                let got = merged(max_per_type);
                prop_assert_eq!(&got, &want);
                for a in &got {
                    prop_assert_eq!(&a.explanation, &explain_cycle(&h, &a.steps));
                    // Survivors are presented as they were classified.
                    let mut per_class = [0usize; EdgeClass::ALL.len()];
                    for s in &a.steps {
                        per_class[s.class as usize] += 1;
                    }
                    prop_assert_eq!(classify(&per_class), Some(a.typ));
                }
                for mode in [Parallelism::Sequential, Parallelism::Parallel] {
                    prop_assert_eq!(&search(&d, &csr, &h, opts, mode).0, &got);
                }
            }
        }
    }

    #[test]
    fn rr_edges_carry_an_anti_dependency() {
        // A set-style rr edge closing a wr cycle. The rr edge is the
        // composition rw∘wr (T1 missed a write T0 observed), so the
        // cycle holds one anti-dependency: G-single, not G1c.
        let h = history(2);
        let mut d = DepGraph::with_txns(2);
        d.add(
            TxnId(0),
            TxnId(1),
            Witness::WrSet {
                key: Key(1),
                elem: Elem(1),
            },
        );
        d.add(TxnId(1), TxnId(0), Witness::Rr { key: Key(1) });
        let found = find_cycle_anomalies(&mut d, &h, CycleSearchOptions::default());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].typ, AnomalyType::GSingle);
    }

    #[test]
    fn realtime_beats_process_in_classification() {
        // A cycle needing both a process and a realtime edge is a
        // realtime violation (process order is real-time within a client).
        let h = history(3);
        let mut d = DepGraph::with_txns(3);
        d.add(
            TxnId(0),
            TxnId(1),
            Witness::RwList {
                key: Key(1),
                read_last: None,
                next: Elem(2),
            },
        );
        d.add(
            TxnId(1),
            TxnId(2),
            Witness::Process {
                process: ProcessId(0),
            },
        );
        d.add(
            TxnId(2),
            TxnId(0),
            Witness::Realtime {
                complete: 1,
                invoke: 2,
            },
        );
        let found = find_cycle_anomalies(&mut d, &h, CycleSearchOptions::default());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].typ, AnomalyType::GSingleRealtime);
    }

    #[test]
    fn three_rw_cycle_is_g2() {
        let h = history(3);
        let mut d = DepGraph::with_txns(3);
        for (a, b) in [(0u32, 1u32), (1, 2), (2, 0)] {
            d.add(
                TxnId(a),
                TxnId(b),
                Witness::RwList {
                    key: Key(a as u64),
                    read_last: None,
                    next: Elem(b as u64),
                },
            );
        }
        let found = find_cycle_anomalies(&mut d, &h, CycleSearchOptions::default());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].typ, AnomalyType::G2Item);
        assert_eq!(found[0].steps.len(), 3);
    }

    #[test]
    fn disjoint_cycles_all_reported() {
        let h = history(4);
        let mut d = DepGraph::with_txns(4);
        d.add(TxnId(0), TxnId(1), ww(1, 1, 2));
        d.add(TxnId(1), TxnId(0), ww(1, 2, 1));
        d.add(
            TxnId(2),
            TxnId(3),
            Witness::RwList {
                key: Key(2),
                read_last: None,
                next: Elem(1),
            },
        );
        d.add(TxnId(3), TxnId(2), ww(2, 1, 2));
        let found = find_cycle_anomalies(&mut d, &h, CycleSearchOptions::default());
        let mut types: Vec<AnomalyType> = found.iter().map(|a| a.typ).collect();
        types.sort_unstable();
        assert_eq!(types, vec![AnomalyType::G0, AnomalyType::GSingle]);
    }

    #[test]
    fn anomaly_key_is_taken_from_witnesses() {
        let h = history(2);
        let mut d = DepGraph::with_txns(2);
        d.add(TxnId(0), TxnId(1), ww(7, 1, 2));
        d.add(TxnId(1), TxnId(0), ww(7, 2, 1));
        let found = find_cycle_anomalies(&mut d, &h, CycleSearchOptions::default());
        assert_eq!(found[0].key, Some(Key(7)));
    }

    #[test]
    fn canonical_rotation() {
        assert_eq!(canonical(&[3, 1, 2]), vec![1, 2, 3]);
        assert_eq!(canonical(&[1, 2, 3]), vec![1, 2, 3]);
        assert_eq!(canonical(&[2, 3, 1]), vec![1, 2, 3]);
        assert!(canonical(&[]).is_empty());
    }
}

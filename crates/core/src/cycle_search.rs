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

use crate::anomaly::{Anomaly, AnomalyType, CycleStep};
use crate::datatype::Parallelism;
use crate::deps::DepGraph;
use crate::explain::explain_cycle;
use elle_graph::{Csr, CycleSpec, EdgeClass, EdgeMask, Scratch};
use elle_history::{History, TxnId};
use rayon::prelude::*;
use rustc_hash::FxHashSet;

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
    /// Cap on reported cycles per anomaly type.
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

    // ── Phase 2: flatten to (search, SCC) work items in merge order. ──
    let items: Vec<(u32, Vec<u32>)> = plan
        .iter()
        .enumerate()
        .flat_map(|(i, _)| {
            sccs_per_mask[mask_of[i]]
                .iter()
                .map(move |scc| (i as u32, scc.clone()))
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
    let mut out: Vec<Anomaly> = Vec::new();
    let mut seen: FxHashSet<Vec<u32>> = FxHashSet::default();
    for ((i, _), cycles) in items.iter().zip(&found) {
        for cyc in cycles {
            push_classified(
                deps,
                history,
                cyc,
                plan[*i as usize].allowed,
                &mut seen,
                &mut out,
            );
        }
    }

    // Cap per type (keep shortest cycles — they make the best witnesses).
    out.sort_by_key(|a| (a.typ, a.txns.len()));
    let mut counts: rustc_hash::FxHashMap<AnomalyType, usize> = rustc_hash::FxHashMap::default();
    out.retain(|a| {
        let c = counts.entry(a.typ).or_insert(0);
        *c += 1;
        *c <= opts.max_per_type
    });
    (out, cert.map(|(_, sccs)| sccs).unwrap_or_default())
}

/// Present, classify, deduplicate, and record one cycle.
fn push_classified(
    deps: &DepGraph,
    history: &History,
    cyc: &[u32],
    allowed: EdgeMask,
    seen: &mut FxHashSet<Vec<u32>>,
    out: &mut Vec<Anomaly>,
) {
    let key = canonical(cyc);
    if !seen.insert(key) {
        return;
    }
    let mut steps: Vec<CycleStep> = Vec::with_capacity(cyc.len());
    for i in 0..cyc.len() {
        let from = TxnId(cyc[i]);
        let to = TxnId(cyc[(i + 1) % cyc.len()]);
        let Some(w) = deps.present(from, to, allowed, &PREFERENCE) else {
            // Should not happen: the search follows real edges.
            return;
        };
        steps.push(CycleStep {
            from,
            to,
            class: w.class(),
            witness: w.clone(),
        });
    }
    let Some(typ) = classify(&steps) else {
        // A start-ordered cycle with ≥ 2 anti-dependencies: legal under
        // snapshot isolation (write skew with start edges), and timestamp
        // edges are not value dependencies, so it witnesses nothing.
        return;
    };
    let explanation = explain_cycle(history, &steps);
    out.push(Anomaly {
        typ,
        txns: steps.iter().map(|s| s.from).collect(),
        key: steps.iter().find_map(|s| key_of(&s.witness)),
        steps,
        explanation,
    });
}

fn key_of(w: &crate::anomaly::Witness) -> Option<elle_history::Key> {
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

/// Classify a presented cycle by the edges it *needs*. Returns `None` for
/// cycles that witness no proscribed phenomenon (start-ordered cycles with
/// two or more anti-dependencies — Adya's SI permits those).
fn classify(steps: &[CycleStep]) -> Option<AnomalyType> {
    let mut rw = 0usize;
    let mut wr = 0usize;
    let mut proc = 0usize;
    let mut rt = 0usize;
    let mut ts = 0usize;
    for s in steps {
        match s.class {
            EdgeClass::Rw => rw += 1,
            // An rr edge is the composition rw∘wr — the earlier reader
            // *missed* a write the later reader observed — so it carries
            // exactly one anti-dependency. Counting it as information
            // flow would let two-anti-dependency write-skew cycles
            // masquerade as G-single (and rr-closed cycles as G1c),
            // flagging snapshot-legal histories.
            EdgeClass::Rr => rw += 1,
            EdgeClass::Wr | EdgeClass::Version => wr += 1,
            EdgeClass::Process => proc += 1,
            EdgeClass::Realtime => rt += 1,
            EdgeClass::Timestamp => ts += 1,
            EdgeClass::Ww => {}
        }
    }
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
    use crate::anomaly::Witness;
    use elle_history::{Elem, HistoryBuilder, Key, ProcessId};

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

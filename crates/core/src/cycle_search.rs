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
//! All searches run on the calling thread, on the frozen [`Csr`]
//! snapshot of the IDSG — no per-anomaly-class subgraph copies. The
//! *plan* holds one search per (augmentation level × anomaly class),
//! weakest evidence first; a *work item* is one search within one SCC
//! of the search's admitted mask. Items run in *merge order* — search,
//! then SCC (by smallest member), then discovery order — and each
//! candidate cycle is deduplicated by rotation and classified from the
//! class of each step's presented witness. The report keeps the
//! [`CycleSearchOptions::max_per_type`] shortest cycles of each type,
//! ties broken by merge order, and only those survivors are explained
//! (Figure 2).
//!
//! A later cycle loses every tie, so a type that holds its cap of
//! cycles no longer than `L` takes no later cycle of length `L` or
//! more. An item is skipped when every type it can produce is full like
//! that at the item's *floor*, a bound under the length of any cycle it
//! yields. What an item can produce comes from facts computed once per
//! check or once per mask:
//!
//! - the search's shape: a G1c search reaches anti-dependencies only
//!   through steps that present as `rr`, and a G-single search reaches
//!   a second one only through `rr` steps or through rest edges that
//!   hold `rw` and a derived order but no information flow (such a step
//!   presents as `rw`; which SCCs hold one is read per mask from the
//!   list of such edges);
//! - one Tarjan pass under the widest `rw`-free mask: without an SCC
//!   there, no cycle at any level classifies as G0 or G1c;
//! - a floor of 2 ([`DepGraph::add`] drops self-edges), raised to 3
//!   for a type's process, realtime or timestamp variant under a mask
//!   where no 2-cycle has a step that presents as that class.
//!
//! A G-single item whose only open types need such an `rw` rest step
//! is skipped when its SCC holds no such edge that the level admits
//! through a derived order, and runs otherwise.
//!
//! Each mask's SCCs are computed only when a search first needs them.
//! Deduplication stays exact: a skipped item's candidates would have
//! come first and suppressed their later duplicates, so a cycle about
//! to be kept is first looked up among the candidates of each earlier
//! skipped item whose SCC holds it (a vertex → SCC index per mask), and
//! each such item is regenerated at most once.
//!
//! A search with `max_per_type: 0` stops after the certificate pass.
//! The exhaustive search — every item, every candidate, then the cap —
//! is the test oracle in `crates/core/tests/staged/cycles.rs`.

use crate::anomaly::{Anomaly, AnomalyType, CycleStep, Witness};
use crate::deps::DepGraph;
use crate::explain::explain_cycle;
use elle_graph::{Csr, CycleSpec, EdgeClass, EdgeMask, Scratch};
use elle_history::{History, TxnId};
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::BTreeMap;

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

/// The cycle shape one search hunts for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Any write cycle.
    G0,
    /// Information flow, the first edge `wr` or `rr`.
    G1c,
    /// The first edge `rw`, the rest information flow.
    GSingle,
    /// The first edge `rw`, `rw` allowed everywhere.
    G2Item,
}

/// One per-class search within an augmentation level.
#[derive(Debug, Clone, Copy)]
struct Search {
    shape: Shape,
    /// The level's derived orders (process, realtime, timestamp).
    extra: EdgeMask,
}

impl Search {
    /// Edge classes admitted anywhere in the cycle.
    fn allowed(self) -> EdgeMask {
        let base = match self.shape {
            Shape::G0 => EdgeMask::WW,
            Shape::G1c => INFO_FLOW,
            Shape::GSingle | Shape::G2Item => INFO_FLOW.union(EdgeMask::RW),
        };
        base.union(self.extra)
    }

    /// The candidate cycles of one work item: this search within `scc`.
    fn candidates(
        self,
        csr: &Csr,
        scc: &[u32],
        max: usize,
        scratch: &mut Scratch,
    ) -> Vec<Vec<u32>> {
        let allowed = self.allowed();
        let (first, rest) = match self.shape {
            Shape::G0 => {
                return csr
                    .find_cycle(scc, CycleSpec::uniform(allowed), scratch)
                    .into_iter()
                    .collect()
            }
            // Repeating the first-edge class is harmless (G1c allows
            // many wr).
            Shape::G1c => (EdgeMask::WR.union(EdgeMask::RR), allowed),
            // Exactly one rw: the remainder must avoid it.
            Shape::GSingle => (EdgeMask::RW, EdgeMask(allowed.0 & !EdgeMask::RW.0)),
            Shape::G2Item => (EdgeMask::RW, allowed),
        };
        csr.find_cycle_with_single(scc, first, rest, max, scratch)
    }

    /// Every type a cycle this search finds can classify as, each with
    /// a floor under such a cycle's length; `slot` is the search's mask
    /// in [`Facts::two_cycle`].
    fn reach(self, facts: &Facts, slot: usize) -> Vec<Reach> {
        use EdgeClass::{Rw, Wr};
        // Which anti-dependency counts (0, 1, ≥ 2) a cycle can present,
        // and whether ≥ 2 needs a rest step that presents as rw. Every
        // cycle under an rw-free mask lies in an SCC of the widest one,
        // so G0 and G1c searches find nothing without it.
        let free = facts.rw_free;
        let rest_rw = !self.extra.is_empty() && !facts.rw_rest.is_empty();
        let (none, one, two) = match self.shape {
            Shape::G0 => (free, false, None),
            Shape::G1c => (free, free && facts.rr, (free && facts.rr).then_some(false)),
            Shape::GSingle => (free, true, (facts.rr || rest_rw).then_some(!facts.rr)),
            Shape::G2Item => (free, true, Some(false)),
        };
        let mut bases: Vec<(&[(EdgeClass, usize)], bool)> = Vec::new();
        if none {
            bases.push((&[], false));
            if self.shape != Shape::G0 {
                bases.push((&[(Wr, 1)], false));
            }
        }
        if one {
            bases.push((&[(Rw, 1)], false));
        }
        if let Some(rw_rest) = two {
            bases.push((&[(Rw, 2)], rw_rest));
        }
        let mut out = Vec::new();
        for (base, rw_rest) in bases {
            let mut per_class = [0usize; EdgeClass::ALL.len()];
            for &(c, n) in base {
                per_class[c as usize] = n;
            }
            for variant in std::iter::once(None).chain(self.extra.iter().map(Some)) {
                let mut counts = per_class;
                let mut floor = 2;
                if let Some(c) = variant {
                    counts[c as usize] += 1;
                    if !facts.two_cycle[slot].contains(c) {
                        floor = 3;
                    }
                }
                if let Some(typ) = classify(&counts) {
                    out.push(Reach {
                        typ,
                        floor,
                        rw_rest,
                    });
                }
            }
        }
        out
    }
}

/// A type a search can produce.
#[derive(Debug, Clone, Copy)]
struct Reach {
    typ: AnomalyType,
    /// No such cycle is shorter.
    floor: usize,
    /// Only through a rest step that presents as `rw`: an item whose SCC
    /// holds no such edge cannot produce it.
    rw_rest: bool,
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
    levels
        .into_iter()
        .flat_map(|extra| {
            [Shape::G0, Shape::G1c, Shape::GSingle, Shape::G2Item]
                .map(|shape| Search { shape, extra })
        })
        .collect()
}

/// Find and classify all cycle anomalies over a pre-frozen IDSG snapshot.
pub fn find_cycle_anomalies_frozen(
    deps: &DepGraph,
    csr: &Csr,
    history: &History,
    opts: CycleSearchOptions,
) -> Vec<Anomaly> {
    search(deps, csr, history, opts).0
}

/// The union of every edge class the search admits — the certificate's
/// Tarjan mask.
pub(crate) fn admitted(opts: CycleSearchOptions) -> EdgeMask {
    search_plan(opts)
        .iter()
        .fold(EdgeMask::NONE, |a, s| a.union(s.allowed()))
}

/// The cycle search, also returning the certificate's SCCs (canonically
/// ordered; empty when the graph is acyclic under [`admitted`] or the
/// certificate is off) so callers need no second Tarjan pass.
pub(crate) fn search(
    deps: &DepGraph,
    csr: &Csr,
    history: &History,
    opts: CycleSearchOptions,
) -> (Vec<Anomaly>, Vec<Vec<u32>>) {
    let plan = search_plan(opts);
    let top = admitted(opts);

    // The early-acyclic certificate. One Tarjan pass under the union of
    // every admitted class: if the graph is SCC-free there is nothing
    // any per-class search could find — the common clean-history case
    // pays for exactly one linear pass. When the graph *is* cyclic, the
    // union of its cyclic SCCs bounds every restricted-mask SCC (an
    // m-cycle is a top-cycle), so the per-class passes run only over
    // that region.
    let mut scratch = Scratch::new();
    let cert = if opts.certificate {
        let sccs = canonical_order(csr.tarjan_scc(top, &mut scratch));
        if sccs.is_empty() {
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

    let mut masks: Vec<EdgeMask> = Vec::new();
    let slots: Vec<usize> = plan
        .iter()
        .map(|s| {
            let m = s.allowed();
            masks.iter().position(|x| *x == m).unwrap_or_else(|| {
                masks.push(m);
                masks.len() - 1
            })
        })
        .collect();
    let mut passes = Passes {
        csr,
        top,
        sccs: vec![None; masks.len()],
        index: vec![None; masks.len()],
        masks,
        cert,
        scratch,
    };
    // The widest rw-free mask: the last level's G1c search.
    let rw_free = plan
        .iter()
        .rposition(|s| s.shape == Shape::G1c)
        .expect("every level plans a G1c search");
    let facts = passes.facts(slots[rw_free]);
    let mut walk = Walk {
        reach: plan
            .iter()
            .zip(&slots)
            .map(|(s, &slot)| s.reach(&facts, slot))
            .collect(),
        reached: vec![0; plan.len()],
        skipped: FxHashSet::default(),
        rw_rest: vec![None; passes.masks.len()],
        facts,
        plan,
        slots,
        passes,
        max: opts.max_per_type,
        regenerated: FxHashMap::default(),
        bfs: Scratch::new(),
    };
    let kept = walk.run();
    let out = kept
        .values()
        .flat_map(|ranked| ranked.values())
        .map(|s| materialize(deps, history, s))
        .collect();
    let sccs = walk.passes.cert.map(|(_, sccs)| sccs).unwrap_or_default();
    (out, sccs)
}

/// SCC lists are canonically ordered (by smallest member; components
/// themselves come back sorted), so the merge order — and therefore the
/// report — is a function of the graph's edge *set*, independent of
/// which Tarjan variant produced them. The streaming checker depends on
/// this: it re-runs the search over an incrementally rebuilt graph and
/// must reproduce the batch report byte-for-byte.
fn canonical_order(mut sccs: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
    sccs.sort_by(|a, b| a[0].cmp(&b[0]));
    sccs
}

/// The SCCs of each distinct admitted mask, computed when a search first
/// needs them. Searches that admit the same classes — G-single and G2
/// within each level — share one pass; the widest mask reuses the
/// certificate's.
struct Passes<'a> {
    csr: &'a Csr,
    /// The certificate's mask: every admitted class.
    top: EdgeMask,
    masks: Vec<EdgeMask>,
    /// Per mask: its SCCs in canonical order, once computed.
    sccs: Vec<Option<Vec<Vec<u32>>>>,
    /// Per mask: vertex → index of its SCC (`u32::MAX`: none), once
    /// needed.
    index: Vec<Option<Vec<u32>>>,
    /// The certificate's cyclic region and SCCs, when it ran.
    cert: Option<(Vec<u32>, Vec<Vec<u32>>)>,
    scratch: Scratch,
}

impl Passes<'_> {
    fn sccs(&mut self, slot: usize) -> &[Vec<u32>] {
        if self.sccs[slot].is_none() {
            let m = self.masks[slot];
            let sccs = match &self.cert {
                Some((_, cert)) if m == self.top => cert.clone(),
                Some((region, _)) => {
                    canonical_order(self.csr.tarjan_scc_within(m, region, &mut self.scratch))
                }
                None => canonical_order(self.csr.tarjan_scc(m, &mut self.scratch)),
            };
            self.sccs[slot] = Some(sccs);
        }
        self.sccs[slot].as_deref().expect("computed above")
    }

    /// The index of the SCC of mask `slot` that holds `v`.
    fn scc_of(&mut self, slot: usize, v: u32) -> Option<usize> {
        if self.index[slot].is_none() {
            let mut index = vec![u32::MAX; self.csr.vertex_count()];
            for (i, scc) in self.sccs(slot).iter().enumerate() {
                for &u in scc {
                    index[u as usize] = i as u32;
                }
            }
            self.index[slot] = Some(index);
        }
        let i = self.index[slot].as_ref().expect("built above")[v as usize];
        (i != u32::MAX).then_some(i as usize)
    }

    /// The facts that bound what each search can produce: the SCCs of
    /// the widest rw-free mask (`rw_free`), then one scan of the cyclic
    /// region's edges (every edge when the certificate is off).
    fn facts(&mut self, rw_free: usize) -> Facts {
        let mut facts = Facts {
            rw_free: !self.sccs(rw_free).is_empty(),
            rr: false,
            rw_rest: Vec::new(),
            two_cycle: vec![EdgeMask::NONE; self.masks.len()],
        };
        let (csr, masks) = (self.csr, &self.masks);
        let mut scan = |u: u32| {
            let (dsts, ms) = csr.out_row(u);
            for (&v, &m) in dsts.iter().zip(ms) {
                facts.rr |= m.contains(EdgeClass::Rr) && !m.intersects(EdgeMask::WW | EdgeMask::WR);
                if m.contains(EdgeClass::Rw) && !m.intersects(INFO_FLOW) {
                    facts.rw_rest.push((u, v, m));
                }
                // A step presents as a derived order only without ww,
                // which every mask admits and prefers.
                if m.intersects(EXTRAS) && !m.contains(EdgeClass::Ww) {
                    let back = csr.edge_mask(v, u);
                    if back.is_empty() {
                        continue;
                    }
                    for (seen, &a) in facts.two_cycle.iter_mut().zip(masks) {
                        let derived =
                            PRESENTS[(m.0 & a.0) as usize].filter(|&c| EXTRAS.contains(c));
                        if let (Some(c), Some(_)) = (derived, PRESENTS[(back.0 & a.0) as usize]) {
                            *seen = seen.union(EdgeMask::of(c));
                        }
                    }
                }
            }
        };
        match &self.cert {
            Some((region, _)) => region.iter().for_each(|&u| scan(u)),
            None => (0..csr.vertex_count() as u32).for_each(scan),
        }
        facts
    }
}

/// What the cyclic region's edges can present, read once per check.
struct Facts {
    /// The widest rw-free mask (the last level's G1c mask) has an SCC.
    rw_free: bool,
    /// Some edge presents as `rr` under every mask that admits it: it
    /// holds `rr` but neither `ww` nor `wr`.
    rr: bool,
    /// The edges that hold `rw` but no information flow, with their
    /// classes: a G-single search takes such an edge as a rest edge
    /// through one of its derived orders, and it presents as `rw`.
    rw_rest: Vec<(u32, u32, EdgeMask)>,
    /// Per mask: every derived order some step of some 2-cycle presents
    /// as.
    two_cycle: Vec<EdgeMask>,
}

/// The derived orders.
const EXTRAS: EdgeMask =
    EdgeMask(EdgeMask::PROCESS.0 | EdgeMask::REALTIME.0 | EdgeMask::TIMESTAMP.0);

/// The class [`DepGraph::present`] picks for an edge, indexed by the
/// bits of its classes that the search admits: the first in
/// [`PREFERENCE`].
const PRESENTS: [Option<EdgeClass>; 256] = {
    let mut table = [None; 256];
    let mut bits = 1;
    while bits < 256 {
        let mut i = 0;
        while i < PREFERENCE.len() {
            if EdgeMask(bits as u8).contains(PREFERENCE[i]) {
                table[bits] = Some(PREFERENCE[i]);
                break;
            }
            i += 1;
        }
        bits += 1;
    }
    table
};

/// The kept cycles of each type, ranked by (length, merge position).
type Kept = BTreeMap<AnomalyType, BTreeMap<(usize, usize), Selected>>;

/// The walk over the plan's work items in merge order.
struct Walk<'a> {
    plan: Vec<Search>,
    /// Each search's mask in `passes`.
    slots: Vec<usize>,
    /// What each search can produce.
    reach: Vec<Vec<Reach>>,
    facts: Facts,
    passes: Passes<'a>,
    max: usize,
    /// Per search: how many of its items were reached in merge order;
    /// the search stopped before the rest.
    reached: Vec<usize>,
    /// Reached items that were skipped, by (search, SCC).
    skipped: FxHashSet<(usize, usize)>,
    /// Per mask: which SCCs hold an edge of [`Facts::rw_rest`] that the
    /// mask admits through a derived order.
    rw_rest: Vec<Option<Vec<bool>>>,
    /// The rotation-canonical candidates of skipped items looked up so
    /// far.
    regenerated: FxHashMap<(usize, usize), FxHashSet<Vec<u32>>>,
    bfs: Scratch,
}

impl Walk<'_> {
    /// The walk: every item in merge order, each searched unless it
    /// can no longer change the report.
    fn run(&mut self) -> Kept {
        let csr = self.passes.csr;
        let max = self.max;
        let mut kept = Kept::new();
        let mut seen: FxHashSet<Vec<u32>> = FxHashSet::default();
        let mut position = 0usize;
        for i in 0..self.plan.len() {
            let search = self.plan[i];
            let allowed = search.allowed();
            loop {
                // The types this search could still add a cycle to.
                let full = |r: &Reach| {
                    kept.get(&r.typ).is_some_and(|ranked| {
                        ranked.len() >= max
                            && ranked
                                .last_key_value()
                                .is_some_and(|(rank, _)| rank.0 <= r.floor)
                    })
                };
                let open: Vec<Reach> = self.reach[i].iter().filter(|r| !full(r)).copied().collect();
                if open.is_empty() {
                    break;
                }
                let k = self.reached[i];
                if k == self.passes.sccs(self.slots[i]).len() {
                    break;
                }
                self.reached[i] += 1;
                if open.iter().all(|r| r.rw_rest) && !self.holds_rw_rest(i, k) {
                    self.skipped.insert((i, k));
                    continue;
                }
                let scc = &self.passes.sccs(self.slots[i])[k];
                for cycle in search.candidates(csr, scc, max, &mut self.bfs) {
                    position += 1;
                    let key = canonical(&cycle);
                    if seen.contains(&key) {
                        continue;
                    }
                    // `None`: a start-ordered cycle with ≥ 2
                    // anti-dependencies — legal under snapshot isolation
                    // (write skew with start edges), and timestamp edges
                    // are not value dependencies, so it witnesses nothing.
                    if let Some(typ) = select(csr, &cycle, allowed) {
                        let rank = (cycle.len(), position);
                        let ranked = kept.entry(typ).or_default();
                        let enters = ranked.len() < max
                            || ranked.last_key_value().is_some_and(|(r, _)| rank < *r);
                        if enters && !self.skipped_item_finds(i, &key) {
                            ranked.insert(
                                rank,
                                Selected {
                                    typ,
                                    cycle,
                                    allowed,
                                },
                            );
                            if ranked.len() > max {
                                ranked.pop_last();
                            }
                        }
                    }
                    seen.insert(key);
                }
            }
        }
        kept
    }

    /// Whether the SCC of item `k` of search `i` holds an edge of
    /// [`Facts::rw_rest`] that the search admits through a derived order.
    fn holds_rw_rest(&mut self, i: usize, k: usize) -> bool {
        let (slot, extra) = (self.slots[i], self.plan[i].extra);
        if self.rw_rest[slot].is_none() {
            let mut holds = vec![false; self.passes.sccs(slot).len()];
            for &(u, v, m) in &self.facts.rw_rest {
                if m.intersects(extra) {
                    if let Some(c) = self.passes.scc_of(slot, u) {
                        holds[c] |= self.passes.scc_of(slot, v) == Some(c);
                    }
                }
            }
            self.rw_rest[slot] = Some(holds);
        }
        self.rw_rest[slot].as_ref().expect("built above")[k]
    }

    /// Whether a skipped item of a search before search `i` finds the
    /// rotation-canonical cycle `key`, which would then have been seen
    /// first. Only the item whose SCC holds the cycle can.
    fn skipped_item_finds(&mut self, i: usize, key: &[u32]) -> bool {
        let csr = self.passes.csr;
        for j in 0..i {
            let (search, slot) = (self.plan[j], self.slots[j]);
            let allowed = search.allowed();
            let closes = (0..key.len()).all(|x| {
                csr.edge_mask(key[x], key[(x + 1) % key.len()])
                    .intersects(allowed)
            });
            if !closes {
                continue;
            }
            let Some(k) = self.passes.scc_of(slot, key[0]) else {
                continue;
            };
            if k < self.reached[j] && !self.skipped.contains(&(j, k)) {
                // It ran: its candidates are in `seen`.
                continue;
            }
            let (max, bfs, passes) = (self.max, &mut self.bfs, &mut self.passes);
            let found = self.regenerated.entry((j, k)).or_insert_with(|| {
                search
                    .candidates(csr, &passes.sccs(slot)[k], max, bfs)
                    .iter()
                    .map(|c| canonical(c))
                    .collect()
            });
            if found.contains(key) {
                return true;
            }
        }
        false
    }
}

/// A deduplicated, classified candidate: everything the per-type cap
/// reads. Its witnesses and explanation are built only if it survives.
struct Selected {
    typ: AnomalyType,
    cycle: Vec<u32>,
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

/// Classify one cycle from the class each step presents as, read from
/// the CSR's edge masks: [`DepGraph::present`] picks a witness of that
/// class, so no witness is touched until the cycle survives the cap.
fn select(csr: &Csr, cyc: &[u32], allowed: EdgeMask) -> Option<AnomalyType> {
    let mut per_class = [0usize; EdgeClass::ALL.len()];
    for (i, &from) in cyc.iter().enumerate() {
        let to = cyc[(i + 1) % cyc.len()];
        let class = PRESENTS[(csr.edge_mask(from, to).0 & allowed.0) as usize];
        // The search follows real edges under `allowed`, so every step
        // presents; a miss is a search bug, not a cycle to drop.
        debug_assert!(
            class.is_some(),
            "cycle step {from} → {to} is not under {allowed:?}"
        );
        per_class[class? as usize] += 1;
    }
    classify(&per_class)
}

/// Build the reported anomaly for a cap survivor: its steps, key and
/// Figure-2 explanation.
fn materialize(deps: &DepGraph, history: &History, s: &Selected) -> Anomaly {
    let steps: Vec<CycleStep> = (0..s.cycle.len())
        .map(|i| {
            let (from, to, w) =
                step(deps, &s.cycle, i, s.allowed).expect("selection presented every step");
            CycleStep {
                from,
                to,
                class: w.class(),
                witness: w.clone(),
            }
        })
        .collect();
    debug_assert!(
        {
            let mut per_class = [0usize; EdgeClass::ALL.len()];
            for s in &steps {
                per_class[s.class as usize] += 1;
            }
            classify(&per_class) == Some(s.typ)
        },
        "the witnesses present as the cycle was classified"
    );
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

    fn history(n: usize) -> History {
        let mut b = HistoryBuilder::new();
        for i in 0..n {
            b.txn(i as u32).append(1, i as u64 + 1).commit();
        }
        b.build()
    }

    fn find(d: &mut DepGraph, h: &History, opts: CycleSearchOptions) -> Vec<Anomaly> {
        let csr = d.freeze();
        find_cycle_anomalies_frozen(d, &csr, h, opts)
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
        let found = find(&mut d, &h, CycleSearchOptions::default());
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
        let found = find(&mut d, &h, CycleSearchOptions::default());
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
        let found = find(&mut d, &h, CycleSearchOptions::default());
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
        let found = find(&mut d, &h, CycleSearchOptions::default());
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
        let found = find(&mut d, &h, CycleSearchOptions::default());
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
        let found = find(&mut d, &h, CycleSearchOptions::default());
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
        let found = find(&mut d, &h, CycleSearchOptions::default());
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
        assert!(find(&mut d, &h, opts).is_empty());
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
        let found = find(&mut d, &h, opts);
        assert_eq!(found.len(), 2);
    }

    fn rw(k: u64) -> Witness {
        Witness::RwList {
            key: Key(k),
            read_last: None,
            next: Elem(1),
        }
    }

    fn process() -> Witness {
        Witness::Process {
            process: ProcessId(0),
        }
    }

    #[test]
    fn a_single_rw_search_reaches_g2_through_a_rest_step_that_presents_as_rw() {
        // With process edges and a cap of 1: G-single is full from
        // {0, 1} and G-single-process from {2, 3, 4} before the process
        // level's G-single search reaches {8, 9, 10}. There it takes
        // 9 → 10 as a rest edge through its process class, and the step
        // presents as rw: a G2-item-process cycle. It comes before the
        // G2-item search's cycle in {5, 6, 7}, so it must be searched.
        let h = history(11);
        let mut d = DepGraph::with_txns(11);
        d.add(TxnId(0), TxnId(1), rw(1));
        d.add(TxnId(1), TxnId(0), ww(1, 2, 1));
        d.add(TxnId(2), TxnId(3), rw(2));
        d.add(TxnId(3), TxnId(4), ww(2, 1, 2));
        d.add(TxnId(4), TxnId(2), process());
        d.add(TxnId(5), TxnId(6), rw(3));
        d.add(TxnId(6), TxnId(7), rw(3));
        d.add(TxnId(7), TxnId(5), process());
        d.add(TxnId(8), TxnId(9), rw(4));
        d.add(TxnId(9), TxnId(10), rw(4));
        d.add(TxnId(9), TxnId(10), process());
        d.add(TxnId(10), TxnId(8), process());
        let opts = CycleSearchOptions {
            realtime_edges: false,
            max_per_type: 1,
            ..Default::default()
        };
        let found = find(&mut d, &h, opts);
        let got: Vec<(AnomalyType, Vec<TxnId>)> =
            found.into_iter().map(|a| (a.typ, a.txns)).collect();
        let txns = |ts: &[u32]| ts.iter().map(|&t| TxnId(t)).collect::<Vec<_>>();
        assert_eq!(
            got,
            vec![
                (AnomalyType::GSingle, txns(&[0, 1])),
                (AnomalyType::GSingleProcess, txns(&[2, 3, 4])),
                (AnomalyType::G2ItemProcess, txns(&[8, 9, 10])),
            ]
        );
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
            search(&d, &csr, &h, opts)
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
        let all = find_cycle_anomalies_frozen(&d, &csr, &h, opts(usize::MAX));
        let lens: Vec<usize> = all.iter().map(|a| a.txns.len()).collect();
        assert_eq!(lens, vec![2, 2, 3]);

        let kept = find_cycle_anomalies_frozen(&d, &csr, &h, opts(2));
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
        let found = find(&mut d, &h, CycleSearchOptions::default());
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
        let found = find(&mut d, &h, CycleSearchOptions::default());
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
        let found = find(&mut d, &h, CycleSearchOptions::default());
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
        let found = find(&mut d, &h, CycleSearchOptions::default());
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
        let found = find(&mut d, &h, CycleSearchOptions::default());
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
